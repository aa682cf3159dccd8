"""Tests for isolated runs and reference times."""

import pytest

from repro.config import BIG, MemoryConfig, big_core_config, small_core_config
from repro.cores.mechanistic import MechanisticCoreModel
from repro.sim.isolated import (
    ReferenceTimes,
    isolated_stats,
    run_isolated,
)
from repro.workloads.spec2006 import benchmark


@pytest.fixture
def big_model(memory):
    return MechanisticCoreModel(big_core_config(), memory)


@pytest.fixture
def small_model(memory):
    return MechanisticCoreModel(small_core_config(), memory)


class TestRunIsolated:
    def test_runs_to_completion(self, big_model):
        prof = benchmark("povray").scaled(1_000_000)
        result = run_isolated(big_model, prof)
        assert result.instructions == 1_000_000
        assert result.cycles > 0

    def test_clipped_last_chunk_keeps_branch_mispredictions(self, big_model):
        # 1M-cycle chunks overrun the profile end, so the last chunk is
        # clipped; mcf's branch MPKI is 12 in every phase.
        prof = benchmark("mcf").scaled(3_000_000)
        assert {chars.branch_mpki for _, chars in prof.phases} == {12.0}
        result = run_isolated(big_model, prof, chunk_cycles=1e6)
        assert result.instructions == 3_000_000
        assert result.branch_mispredictions == pytest.approx(36_000.0)

    def test_abc_proportional_to_length(self, big_model):
        short = run_isolated(big_model, benchmark("milc").scaled(500_000))
        long = run_isolated(big_model, benchmark("milc").scaled(1_000_000))
        assert long.total_ace_bit_cycles == pytest.approx(
            2 * short.total_ace_bit_cycles, rel=0.02
        )


class TestIsolatedStats:
    def test_big_faster_small_safer(self, big_model, small_model):
        prof = benchmark("milc").scaled(2_000_000)
        stats = isolated_stats(prof, big_model, small_model)
        assert stats.big.time_seconds < stats.small.time_seconds
        assert stats.big.ser_rate > stats.small.ser_rate
        assert stats.reference_time_seconds == stats.big.time_seconds

    def test_run_lookup(self, big_model, small_model):
        stats = isolated_stats(
            benchmark("povray").scaled(500_000), big_model, small_model
        )
        assert stats.run(BIG) is stats.big
        with pytest.raises(ValueError):
            stats.run("medium")


class TestReferenceTimes:
    def test_matches_isolated_run(self, big_model):
        prof = benchmark("calculix").scaled(2_000_000)
        ref = ReferenceTimes.from_models(prof, big_model)
        run = run_isolated(big_model, prof)
        assert ref.full_run_seconds == pytest.approx(
            run.cycles / big_model.core.frequency_hz, rel=0.01
        )
        assert ref.seconds_for(prof.instructions) == pytest.approx(
            ref.full_run_seconds
        )

    def test_partial_work_monotone(self, big_model):
        prof = benchmark("calculix").scaled(1_000_000)
        ref = ReferenceTimes.from_models(prof, big_model)
        times = [ref.seconds_for(n) for n in range(0, 1_000_001, 100_000)]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_wraps_for_restarts(self, big_model):
        prof = benchmark("povray").scaled(1_000_000)
        ref = ReferenceTimes.from_models(prof, big_model)
        assert ref.seconds_for(2_500_000) == pytest.approx(
            2.5 * ref.full_run_seconds, rel=0.01
        )

    def test_phase_rates_differ(self, big_model):
        """calculix's two phases run at different speeds; the curve
        must respect that."""
        prof = benchmark("calculix").scaled(1_000_000)
        ref = ReferenceTimes.from_models(prof, big_model)
        early = ref.seconds_for(100_000)
        late = ref.seconds_for(850_000) - ref.seconds_for(750_000)
        assert early != pytest.approx(late, rel=0.01)

    def test_rate_count_mismatch(self):
        prof = benchmark("calculix")
        with pytest.raises(ValueError):
            ReferenceTimes(prof, [1e-9])

    def test_negative_rejected(self, big_model):
        ref = ReferenceTimes.from_models(
            benchmark("povray").scaled(1000), big_model
        )
        with pytest.raises(ValueError):
            ref.seconds_for(-1)
