"""Properties of the cross-run batched engine (`repro.batch`).

The batched engine's contract is *byte-identity* with the scalar
reference engine, so these tests compare serialized results with plain
``==`` -- no tolerances:

* a batch of one equals the scalar path exactly;
* permuting the request batch permutes the results and nothing else;
* splitting a batch in halves and concatenating equals the full batch;
* per-run RNG streams derive from request content (the spec's seed),
  never from batch position -- results survive re-ordering and
  filtering, on the batched path and on the scalar engine alike;
* the committed ``fig06_batched`` golden agrees with the scalar
  ``fig06_1b1s`` golden field-for-field;
* a sweep's phase features live and die with the sweep.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ace.counters import AceCounterMode
from repro.batch import BatchRunRequest, SimState, run_workload_batch
from repro.config.machines import STANDARD_MACHINES
from repro.sim.experiment import run_workload
from repro.sim.serialize import run_result_to_dict

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

INSTRUCTIONS = 150_000


def _request(
    machine_name: str,
    benchmarks: tuple[str, ...],
    scheduler: str,
    seed: int = 0,
    mode: AceCounterMode = AceCounterMode.FULL,
) -> BatchRunRequest:
    return BatchRunRequest(
        machine=STANDARD_MACHINES[machine_name](),
        benchmarks=benchmarks,
        scheduler=scheduler,
        instructions=INSTRUCTIONS,
        seed=seed,
        counter_mode=mode,
    )


def _mixed_requests() -> list[BatchRunRequest]:
    """A small batch mixing machines, schedulers and counter modes."""
    return [
        _request("1B1S", ("milc", "povray"), "random", seed=7),
        _request("2B2S", ("zeusmp", "mcf", "gobmk", "libquantum"),
                 "reliability", seed=3),
        _request("1B1S", ("gobmk", "libquantum"), "performance"),
        _request("2B2S", ("milc", "bzip2", "hmmer", "sjeng"), "random",
                 seed=11, mode=AceCounterMode.ROB_ONLY),
        _request("1B1S", ("zeusmp", "mcf"), "reliability", seed=5),
        _request("1B1S", ("milc", "povray"), "random", seed=9),
    ]


def _dicts(results) -> list[dict]:
    return [run_result_to_dict(result) for result in results]


class TestScalarEquivalence:
    def test_batch_of_one_equals_scalar_exactly(self):
        for machine_name, names, scheduler, seed in (
            ("1B1S", ("milc", "povray"), "random", 7),
            ("2B2S", ("zeusmp", "mcf", "gobmk", "libquantum"),
             "reliability", 0),
            ("1B1S", ("gobmk", "libquantum"), "performance", 0),
        ):
            request = _request(machine_name, names, scheduler, seed=seed)
            batched = run_workload_batch([request])[0]
            scalar = run_workload(
                STANDARD_MACHINES[machine_name](),
                names,
                scheduler,
                instructions=INSTRUCTIONS,
                seed=seed,
            )
            assert run_result_to_dict(batched) == run_result_to_dict(scalar)

    def test_rob_only_counter_mode_matches_scalar(self):
        request = _request(
            "2B2S",
            ("milc", "bzip2", "hmmer", "sjeng"),
            "reliability",
            mode=AceCounterMode.ROB_ONLY,
        )
        batched = run_workload_batch([request])[0]
        scalar = run_workload(
            request.machine,
            request.benchmarks,
            request.scheduler,
            instructions=INSTRUCTIONS,
            seed=request.seed,
            counter_mode=AceCounterMode.ROB_ONLY,
        )
        assert run_result_to_dict(batched) == run_result_to_dict(scalar)


class TestBatchAlgebra:
    def test_permutation_invariance(self):
        requests = _mixed_requests()
        baseline = _dicts(run_workload_batch(requests))
        order = list(np.random.default_rng(0).permutation(len(requests)))
        permuted = _dicts(
            run_workload_batch([requests[i] for i in order])
        )
        for slot, original in enumerate(order):
            assert permuted[slot] == baseline[original]

    def test_split_in_halves_and_concatenate_equals_full_batch(self):
        requests = _mixed_requests()
        full = _dicts(run_workload_batch(requests))
        half = len(requests) // 2
        first = _dicts(run_workload_batch(requests[:half]))
        second = _dicts(run_workload_batch(requests[half:]))
        assert first + second == full


class TestSeedHandoff:
    """Per-run RNG streams follow request content, not batch position.

    The random scheduler is the seed-sensitive one: if any stream were
    derived from a run's position in the batch, dropping or reordering
    neighbors would change its decisions.
    """

    def test_batched_result_survives_filtering(self):
        requests = _mixed_requests()
        full = _dicts(run_workload_batch(requests))
        for index in (0, 3, 5):
            alone = _dicts(run_workload_batch([requests[index]]))
            assert alone == [full[index]]

    def test_scalar_engine_results_follow_spec_not_queue_position(self):
        from repro.runtime.engine import ExecutionEngine
        from repro.sim.campaign import RunSpec

        specs = [
            RunSpec("1B1S", ("milc", "povray"), "random",
                    INSTRUCTIONS, seed=7),
            RunSpec("1B1S", ("zeusmp", "mcf"), "random",
                    INSTRUCTIONS, seed=3),
            RunSpec("1B1S", ("gobmk", "libquantum"), "reliability",
                    INSTRUCTIONS, seed=0),
        ]
        baseline = _dicts(ExecutionEngine(jobs=1).run_many(specs).results)
        reordered = _dicts(
            ExecutionEngine(jobs=1).run_many(specs[::-1]).results
        )
        assert reordered == baseline[::-1]
        filtered = _dicts(
            ExecutionEngine(jobs=1).run_many([specs[1]]).results
        )
        assert filtered == [baseline[1]]

    def test_scalar_sweep_seeds_follow_workload_index(self):
        """`experiment.sweep` derives each run's seed from the workload's
        index in the list -- never from the flat job position -- so
        filtering the *scheduler* list cannot shift any seeds."""
        from repro.sim.experiment import sweep

        machine = STANDARD_MACHINES["1B1S"]()
        workloads = [("milc", "povray"), ("zeusmp", "mcf")]
        full = sweep(
            machine,
            workloads,
            ("random", "reliability"),
            instructions=INSTRUCTIONS,
        )
        only_random = sweep(
            machine, workloads, ("random",), instructions=INSTRUCTIONS
        )
        assert _dicts(only_random["random"]) == _dicts(full["random"])

    def test_batched_sweep_matches_scalar_sweep_grid(self):
        from repro.sim.experiment import sweep

        machine = STANDARD_MACHINES["1B1S"]()
        workloads = [("milc", "povray"), ("gobmk", "libquantum")]
        scalar = sweep(
            machine,
            workloads,
            ("random", "reliability"),
            instructions=INSTRUCTIONS,
        )
        batched = sweep(
            machine,
            workloads,
            ("random", "reliability"),
            instructions=INSTRUCTIONS,
            batched=True,
        )
        for scheduler in ("random", "reliability"):
            assert _dicts(batched[scheduler]) == _dicts(scalar[scheduler])


class TestSimState:
    def test_allocate_layout(self):
        state = SimState.allocate([(100, 200), (300, 400, 500), (600,)])
        assert state.num_runs == 3
        assert state.num_lanes == 6
        assert state.lanes_of(1) == (2, 5)
        assert state.profile_instructions.tolist() == [
            100, 200, 300, 400, 500, 600,
        ]
        assert state.active.all()

    def test_select_compacts_lane_ranges(self):
        state = SimState.allocate([(100, 200), (300, 400, 500), (600,)])
        state.positions[:] = np.arange(6)
        state.quantum[:] = [10, 20, 30]
        sub = state.select([2, 0])
        assert sub.num_runs == 2
        assert sub.lanes_of(0) == (0, 1)
        assert sub.lanes_of(1) == (1, 3)
        assert sub.positions.tolist() == [5, 0, 1]
        assert sub.quantum.tolist() == [30, 10]
        # The copy is independent of the parent state.
        sub.positions[0] = -1
        assert state.positions[5] == 5


class TestGoldenAgreement:
    def test_batched_golden_agrees_with_scalar_golden(self):
        """The committed fig06 goldens -- one scalar, one batched --
        freeze identical payloads; drift in either engine breaks this
        before the slower golden replay does."""
        scalar = json.loads((GOLDEN_DIR / "fig06_1b1s.json").read_text())
        batched = json.loads(
            (GOLDEN_DIR / "fig06_batched.json").read_text()
        )
        assert batched["payload"] == scalar["payload"]

    def test_batched_golden_pipeline_registered(self):
        from repro.check.golden import GOLDEN_PIPELINES

        assert "fig06_batched" in GOLDEN_PIPELINES


class TestEquivalenceInvariant:
    def test_check_batch_flags_field_level_divergence(self):
        from repro.check import check_batch

        request = _request("1B1S", ("milc", "povray"), "random", seed=7)
        scalar = run_workload_batch([request])
        batched = run_workload_batch([request])
        report = check_batch(scalar, batched)
        assert report.ok

        batched[0].apps[0].abc_seconds *= 1.0 + 1e-6
        report = check_batch(scalar, batched)
        assert not report.ok
        assert any(
            "abc_seconds" in v.message for v in report.violations
        )
        assert all(
            v.invariant == "batched_sweep_equivalence"
            for v in report.violations
        )


class TestFeatureScope:
    @staticmethod
    def _module_container_sizes() -> dict[tuple[str, str], int]:
        sizes = {}
        for name, module in list(sys.modules.items()):
            if not name.startswith(("repro.batch", "repro.cores")):
                continue
            for attr, value in vars(module).items():
                if isinstance(value, (dict, list, set)):
                    sizes[(name, attr)] = len(value)
        return sizes

    def test_repeated_sweeps_leave_no_module_level_growth(self):
        # Each request builds a fresh machine, as separate callers do.
        def sweep():
            return _dicts(run_workload_batch([
                _request("1B1S", ("milc", "povray"), "random"),
                _request("2B2S", ("mcf", "gobmk", "milc", "sjeng"),
                         "reliability"),
            ]))

        first = sweep()
        before = self._module_container_sizes()
        for _ in range(3):
            assert sweep() == first
        assert self._module_container_sizes() == before
