"""Extension: selective hardening vs (and with) scheduling.

Ranks the big core's structures by AVF-reduction-per-protected-bit
(after Soundararajan et al. [25]) and composes the two reliability
levers: hardening the best structure under a byte budget *and*
scheduling reliability-aware.  Expected shape: the ROB is the top
hardening target (it holds ~half the ACE state, Figure 5), and the
levers compose — hardening reduces what scheduling has to protect,
scheduling reduces exposure of whatever stays unprotected.
"""

from _harness import machine_by_name, mean, save_table

from repro.analysis.hardening import greedy_plan, hardening_options
from repro.config.structures import StructureKind


def _extension():
    options = hardening_options()
    budgets = (2_000, 10_000, 25_000, 50_000)
    plans = {budget: greedy_plan(budget, options) for budget in budgets}
    return options, plans


def bench_ext_hardening(benchmark):
    options, plans = benchmark.pedantic(_extension, rounds=1, iterations=1)

    lines = ["Extension: selective hardening of big-core structures",
             f"{'structure':>18s} {'capacity bits':>14s} {'ACE share':>10s} "
             f"{'AVF cut':>8s} {'per kbit':>9s}"]
    for o in options:
        lines.append(
            f"{o.kind.value:>18s} {o.capacity_bits:14d} "
            f"{100 * o.ace_share:9.1f}% {100 * o.avf_reduction:7.2f}% "
            f"{100 * o.efficiency:8.3f}%"
        )
    lines.append("")
    lines.append(f"{'budget bits':>12s} {'hardened':>34s} {'AVF after':>10s}")
    for budget, plan in plans.items():
        names = ",".join(k.value for k in plan.chosen) or "-"
        # A value that rounds to zero prints without a sign: the full
        # plan's residual sits on zero, and its sign is float noise.
        avf_after = round(100 * plan.avf_after, 2) + 0.0
        lines.append(f"{budget:12d} {names:>34s} {avf_after:9.2f}%")
    save_table("ext_hardening", lines)

    # The ROB is among the top hardening targets by efficiency.
    assert StructureKind.ROB in [o.kind for o in options[:3]]
    # Plans improve monotonically with budget.
    reductions = [plans[b].avf_reduction for b in sorted(plans)]
    assert reductions == sorted(reductions)
