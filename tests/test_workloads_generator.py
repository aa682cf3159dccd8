"""Tests for the synthetic trace generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instruction import InstructionClass
from repro.workloads import generator
from repro.workloads.characteristics import InstructionMix, PhaseCharacteristics
from repro.workloads.generator import generate_phase_trace, generate_trace
from repro.workloads.spec2006 import BENCHMARK_NAMES, benchmark


def _chars(**kwargs):
    return PhaseCharacteristics(**kwargs)


class TestPhaseTrace:
    def test_length(self):
        rng = np.random.default_rng(0)
        trace = generate_phase_trace(_chars(), 5000, rng)
        assert len(trace) == 5000

    def test_deterministic_given_seed(self):
        t1 = generate_trace(benchmark("mcf"), 2000, seed=7)
        t2 = generate_trace(benchmark("mcf"), 2000, seed=7)
        assert np.array_equal(t1.classes, t2.classes)
        assert np.array_equal(t1.addresses, t2.addresses)
        t3 = generate_trace(benchmark("mcf"), 2000, seed=8)
        assert not np.array_equal(t1.addresses, t3.addresses)

    def test_mix_statistics(self):
        rng = np.random.default_rng(1)
        chars = _chars()
        trace = generate_phase_trace(chars, 50_000, rng)
        assert trace.class_fraction(InstructionClass.LOAD) == pytest.approx(
            chars.mix.load, abs=0.01
        )
        assert trace.nop_fraction == pytest.approx(chars.mix.nop, abs=0.01)

    def test_branch_mpki_realized(self):
        rng = np.random.default_rng(2)
        chars = _chars(branch_mpki=10.0)
        trace = generate_phase_trace(chars, 100_000, rng)
        assert trace.branch_mpki == pytest.approx(10.0, rel=0.2)

    def test_icache_mpki_realized(self):
        rng = np.random.default_rng(3)
        chars = _chars(icache_mpki=5.0)
        trace = generate_phase_trace(chars, 100_000, rng)
        assert trace.icache_mpki == pytest.approx(5.0, rel=0.2)

    def test_mispredictions_only_on_branches(self):
        rng = np.random.default_rng(4)
        trace = generate_phase_trace(_chars(branch_mpki=20.0), 20_000, rng)
        assert not trace.mispredicted[
            trace.classes != InstructionClass.BRANCH
        ].any()

    def test_dependency_distance_mean(self):
        rng = np.random.default_rng(5)
        chars = _chars(dep_distance_mean=6.0)
        trace = generate_phase_trace(chars, 50_000, rng)
        # Ignore start-of-trace clamping and NOPs.
        deps = trace.dep1[1000:]
        cls = trace.classes[1000:]
        valid = deps[(deps > 0) & (cls != InstructionClass.NOP)]
        assert valid.mean() == pytest.approx(6.0, rel=0.15)

    def test_nops_have_no_dependencies(self):
        rng = np.random.default_rng(6)
        trace = generate_phase_trace(_chars(), 20_000, rng)
        nops = trace.classes == InstructionClass.NOP
        assert not trace.dep1[nops].any()
        assert not trace.dep2[nops].any()

    def test_addresses_only_on_memory_ops(self):
        rng = np.random.default_rng(7)
        trace = generate_phase_trace(_chars(), 20_000, rng)
        mem = np.isin(
            trace.classes,
            [InstructionClass.LOAD, InstructionClass.STORE],
        )
        assert trace.addresses[mem].all()
        assert not trace.addresses[~mem].any()

    def test_branch_load_linkage(self):
        rng = np.random.default_rng(8)
        chars = _chars(branch_mpki=20.0, branch_depends_on_load_prob=1.0)
        trace = generate_phase_trace(chars, 20_000, rng)
        mispredicted = np.nonzero(trace.mispredicted)[0]
        loads = set(np.nonzero(trace.classes == InstructionClass.LOAD)[0])
        linked = sum(
            1 for i in mispredicted if int(i - trace.dep1[i]) in loads
        )
        assert linked / max(len(mispredicted), 1) > 0.9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_phase_trace(_chars(), 0, np.random.default_rng(0))


class TestFullTrace:
    def test_phase_structure_preserved(self):
        prof = benchmark("calculix")
        trace = generate_trace(prof, 40_000, seed=0)
        assert len(trace) == 40_000
        # The late phase has far more mispredicted branches.
        early = trace.slice(0, 30_000)
        late = trace.slice(30_000, 40_000)
        assert late.branch_mpki > 3 * early.branch_mpki

    def test_default_length_is_profile_length(self):
        prof = benchmark("povray").scaled(1234)
        assert len(generate_trace(prof)) == 1234

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1000, 20000), st.integers(0, 100))
    def test_any_benchmark_any_length(self, n, seed):
        trace = generate_trace(benchmark("soplex"), n, seed=seed)
        assert len(trace) == n
        assert (trace.dep1 <= np.arange(n)).all()


def _per_access_draw_addresses(chars, classes, rng, start_address):
    """The generator's address draw as one scalar ``rng.integers`` call
    per reused line: the reference for the batched draw."""
    n = len(classes)
    addresses = np.zeros(n, dtype=np.int64)
    is_mem = np.isin(classes, np.array(generator._MEMORY_CLASSES, dtype=np.int8))
    mem_count = int(is_mem.sum())
    if mem_count == 0:
        return addresses
    accesses_pki = 1000.0 * (chars.mix.load + chars.mix.store)
    p_l2 = min(1.0, (chars.l1d_mpki - chars.l2_mpki) / accesses_pki)
    p_l3 = min(1.0, (chars.l2_mpki - chars.l3_mpki) / accesses_pki)
    p_mem = min(1.0, chars.l3_mpki / accesses_pki)
    p_l1 = max(0.0, 1.0 - p_l2 - p_l3 - p_mem)
    levels = rng.choice(
        4, size=mem_count, p=np.array([p_l1, p_l2, p_l3, p_mem])
    )
    stack: list[int] = []
    fresh = start_address
    bands = {0: generator._L1_BAND, 1: generator._L2_BAND, 2: generator._L3_BAND}
    mem_addresses = np.zeros(mem_count, dtype=np.int64)
    for j in range(mem_count):
        level = int(levels[j])
        if level == 3 or not stack:
            line = fresh
            fresh += generator._LINE
        else:
            lo, hi = bands[level]
            hi = min(hi, len(stack))
            lo = min(lo, hi)
            distance = int(rng.integers(lo, hi + 1))
            line = stack[-distance]
            del stack[-distance]
        mem_addresses[j] = line
        stack.append(line)
        if len(stack) > generator._L3_BAND[1] + 1:
            del stack[0]
    addresses[is_mem] = mem_addresses
    return addresses


_TRACE_FIELDS = (
    "classes", "dep1", "dep2", "addresses", "mispredicted", "icache_miss",
)


class TestBatchedAddressDraws:
    """One ``rng.integers`` call over per-access bound arrays draws each
    reuse distance exactly as one scalar call per access did, and
    leaves the generator in the same state."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_every_profile_byte_identical(self, monkeypatch, seed):
        cases = [
            (name, n) for name in BENCHMARK_NAMES for n in (10_000, 20_000)
        ]
        batched = [
            generate_trace(benchmark(name), n, seed=seed) for name, n in cases
        ]
        monkeypatch.setattr(
            generator, "_draw_addresses", _per_access_draw_addresses
        )
        for (name, n), trace in zip(cases, batched):
            expected = generate_trace(benchmark(name), n, seed=seed)
            for field in _TRACE_FIELDS:
                a, b = getattr(trace, field), getattr(expected, field)
                assert a.dtype == b.dtype, (name, n, field)
                assert a.tobytes() == b.tobytes(), (name, n, field)

    def test_stack_past_its_cap(self):
        # A phase of all memory accesses, three quarters of them fresh
        # lines: the LRU stack fills to its cap and lines leave its
        # bottom, which no standard profile reaches at trace scale.
        chars = _chars(
            mix=InstructionMix(
                nop=0.0, int_alu=0.2, int_mul=0.0, load=0.6, store=0.2,
                branch=0.0,
            ),
            branch_mpki=0.0, l1d_mpki=760.0, l2_mpki=700.0, l3_mpki=600.0,
        )
        classes = np.full(100_000, InstructionClass.LOAD, dtype=np.int8)
        classes[::4] = InstructionClass.STORE
        rng_batched = np.random.default_rng(11)
        rng_scalar = np.random.default_rng(11)
        batched = generator._draw_addresses(chars, classes, rng_batched, 1 << 20)
        scalar = _per_access_draw_addresses(chars, classes, rng_scalar, 1 << 20)
        assert batched.tobytes() == scalar.tobytes()
        assert rng_batched.bit_generator.state == rng_scalar.bit_generator.state
        # Distinct lines are the fresh ones: more than the stack holds.
        assert len(np.unique(batched)) > generator._L3_BAND[1] + 1


def _per_branch_link_branches_to_loads(classes, dep1, mispredicted, chars,
                                       rng):
    """The generator's branch-to-load linking as one scalar
    ``rng.random`` call and one scan of the load positions per
    mispredicted branch: the reference for the one-draw version."""
    p = chars.branch_depends_on_load_prob
    if p <= 0:
        return
    load_positions = np.nonzero(classes == InstructionClass.LOAD)[0]
    if load_positions.size == 0:
        return
    for i in np.nonzero(mispredicted)[0]:
        if rng.random() >= p:
            continue
        prior = load_positions[load_positions < i]
        if prior.size:
            dep1[i] = i - int(prior[-1])


class TestBatchedBranchLinks:
    """One ``rng.random`` call and one ``searchsorted`` link each
    mispredicted branch to its most recent load exactly as the
    per-branch loop did, and leave the generator in the same state."""

    @pytest.mark.parametrize("seed", (0, 1))
    def test_every_profile_byte_identical(self, monkeypatch, seed):
        cases = [
            (name, n) for name in BENCHMARK_NAMES for n in (10_000, 20_000)
        ]
        batched = [
            generate_trace(benchmark(name), n, seed=seed) for name, n in cases
        ]
        monkeypatch.setattr(
            generator, "_link_branches_to_loads",
            _per_branch_link_branches_to_loads,
        )
        for (name, n), trace in zip(cases, batched):
            expected = generate_trace(benchmark(name), n, seed=seed)
            for field in _TRACE_FIELDS:
                a, b = getattr(trace, field), getattr(expected, field)
                assert a.dtype == b.dtype, (name, n, field)
                assert a.tobytes() == b.tobytes(), (name, n, field)

    @pytest.mark.parametrize(
        "kinds, mispredicted",
        [
            # The first branch precedes every load: it keeps its
            # dependence.
            ("BLBLNB", [1, 0, 1, 0, 0, 1]),
            # No mispredicted branch: the draw is empty.
            ("LBLB", [0, 0, 0, 0]),
        ],
        ids=["branch-before-first-load", "no-mispredictions"],
    )
    def test_edges_match_the_loop(self, kinds, mispredicted):
        codes = {
            "B": InstructionClass.BRANCH,
            "L": InstructionClass.LOAD,
            "N": InstructionClass.NOP,
        }
        classes = np.array([codes[k] for k in kinds], dtype=np.int8)
        mispredicted = np.array(mispredicted, dtype=bool)
        chars = _chars(branch_depends_on_load_prob=0.9)
        dep_batched = np.full(len(classes), 7, dtype=np.int32)
        dep_loop = dep_batched.copy()
        rng_batched = np.random.default_rng(3)
        rng_loop = np.random.default_rng(3)
        generator._link_branches_to_loads(
            classes, dep_batched, mispredicted, chars, rng_batched
        )
        _per_branch_link_branches_to_loads(
            classes, dep_loop, mispredicted, chars, rng_loop
        )
        assert dep_batched.tobytes() == dep_loop.tobytes()
        assert rng_batched.bit_generator.state == rng_loop.bit_generator.state
