"""Equivalence tests for the batched hierarchy walk."""

import numpy as np
import pytest

from repro.config.machines import MemoryConfig
from repro.memory.hierarchy import CacheHierarchy


def _state(cache):
    return (
        cache.stats.accesses,
        cache.stats.misses,
        cache._clock,
        [dict(s) for s in cache._sets],
    )


def _hierarchy_state(h):
    return (
        [_state(c) for c in (h.l1d, h.l2, h.l3)],
        h.l3_accesses,
        h.dram_accesses,
    )


def _random_addresses(rng, n, span):
    return rng.integers(0, span, size=n, dtype=np.int64)


class TestHierarchyBatchEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_scalar_walk(self, seed):
        rng = np.random.default_rng(seed)
        addresses = _random_addresses(rng, 800, 1 << 22)
        scalar = CacheHierarchy(MemoryConfig(), frequency_ghz=2.66)
        batch = CacheHierarchy(MemoryConfig(), frequency_ghz=2.66)
        outcomes = [scalar.access_data(int(a)) for a in addresses]
        latencies, levels = batch.access_data_batch(addresses)
        names = ("l1", "l2", "l3", "dram")
        assert [names[level] for level in levels] == [
            o.level for o in outcomes
        ]
        assert latencies.tolist() == [o.latency_cycles for o in outcomes]
        assert _hierarchy_state(batch) == _hierarchy_state(scalar)

    def test_walks_closed_midway_match_scalar_walk(self):
        # Each window kernel opens and closes one walk; state written
        # back at one close must be what the next walk starts from.
        rng = np.random.default_rng(21)
        addresses = _random_addresses(rng, 400, 1 << 19)
        scalar = CacheHierarchy(MemoryConfig(), frequency_ghz=2.66)
        for a in addresses:
            scalar.access_data(int(a))
        split = CacheHierarchy(MemoryConfig(), frequency_ghz=2.66)
        for part in (addresses[:150], addresses[150:151], addresses[151:]):
            split.access_data_batch(part)
        assert _hierarchy_state(split) == _hierarchy_state(scalar)

    def test_empty_batch_leaves_state(self):
        hierarchy = CacheHierarchy(MemoryConfig(), frequency_ghz=2.66)
        before = _hierarchy_state(hierarchy)
        latencies, levels = hierarchy.access_data_batch(
            np.zeros(0, dtype=np.int64)
        )
        assert latencies.shape == levels.shape == (0,)
        assert (latencies.dtype, levels.dtype) == (np.float64, np.int8)
        assert _hierarchy_state(hierarchy) == before


class TestWindowMetrics:
    """``cache.accesses{level}`` counts exactly the accesses a window
    walks: those of its committed instructions and of the break
    instruction, none after it."""

    @pytest.mark.parametrize("kernel", ("ooo", "inorder"))
    def test_break_mid_chunk_counts_the_walked_accesses(self, kernel):
        from repro.config import big_core_config, small_core_config
        from repro.cores.base import MemoryEnvironment
        from repro.cores.inorder import InOrderCoreModel
        from repro.cores.ooo import OutOfOrderCoreModel
        from repro.cores.tracebase import TraceApplication
        from repro.isa.instruction import InstructionClass
        from repro.kernels.window import _chunk_bounds
        from repro.obs import metrics as obs_metrics
        from repro.workloads import benchmark
        from repro.workloads.generator import generate_trace

        if kernel == "ooo":
            model = OutOfOrderCoreModel(big_core_config(), MemoryConfig())

            def run(start, budget):
                return model.simulate_window(app, start, budget, env).committed
        else:
            model = InOrderCoreModel(small_core_config(), MemoryConfig())

            def run(start, budget):
                return model.run_cycles(app, start, budget, env).instructions

        app = TraceApplication(generate_trace(benchmark("mcf"), 20_000))
        env = MemoryEnvironment(dram_latency_multiplier=1.37)
        start = run(0, 5_000.0)  # warm caches, as mid-run
        hierarchy = model.hierarchy_for(app)

        def counts():
            return (
                hierarchy.l1d.stats.accesses,
                hierarchy.l2.stats.accesses,
                hierarchy.l3.stats.accesses,
                hierarchy.dram_accesses,
            )

        before = counts()
        with obs_metrics.collecting() as registry:
            committed = run(start, 400.0)
        after = counts()
        # The window broke inside a chunk that holds memory
        # instructions after its break instruction.
        (c1,) = [c1 for c0, c1 in _chunk_bounds(10**6) if c0 <= committed < c1]
        tail = app.trace.classes[start + committed + 1:start + c1]
        assert 0 < committed and np.isin(
            tail, (InstructionClass.LOAD, InstructionClass.STORE)
        ).any()
        for level, first, last in zip(
            ("l1", "l2", "l3", "dram"), before, after
        ):
            value = registry.counter("cache.accesses", level=level).value
            assert value == last - first, level
