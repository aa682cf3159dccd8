"""Tests for the shared-resource interference model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config.machines import MemoryConfig
from repro.cores.base import MemoryEnvironment
from repro.memory.interference import (
    ApplicationDemand,
    InterferenceModel,
    bandwidth_multiplier,
    llc_shares,
)


def builtin_llc_shares(demands, exponent=0.5):
    """``llc_shares`` as written with ``any()`` and ``max()``."""
    if not demands:
        return []
    if any(d < 0 for d in demands):
        raise ValueError("demands must be non-negative")
    weights = [d**exponent for d in demands]
    total = sum(weights)
    if total <= 0:
        return [1.0] * len(demands)
    floor = 0.02 / len(demands)
    raw = [max(w / total, floor) for w in weights]
    norm = sum(raw)
    return [r / norm for r in raw]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))  # repr compares NaN and -0.0 too
    except ValueError as error:
        return f"ValueError: {error}"


DEMANDS = st.floats(0.0, 1e12) | st.sampled_from(
    [0.0, -0.0, 5e-324, float("nan"), float("inf"), -1.0, -5e-324]
)


class TestLlcShares:
    @settings(max_examples=500)
    @given(
        demands=st.lists(DEMANDS, max_size=8),
        exponent=st.sampled_from([0.5, 1.0, 2.0, 0.25]),
    )
    @example(demands=[0.0, 3.0, float("nan"), 0.0], exponent=0.5)
    @example(demands=[float("nan"), 0.0], exponent=0.5)
    @example(demands=[0.0, 0.0, 0.0], exponent=0.5)
    def test_matches_the_builtin_form(self, demands, exponent):
        assert _outcome(llc_shares, demands, exponent) == _outcome(
            builtin_llc_shares, demands, exponent
        )

    def test_equal_demands_split_equally(self):
        shares = llc_shares([1.0, 1.0, 1.0, 1.0])
        assert all(s == pytest.approx(0.25) for s in shares)

    def test_shares_sum_to_one(self):
        shares = llc_shares([5.0, 1.0, 0.2])
        assert sum(shares) == pytest.approx(1.0)

    def test_higher_demand_gets_more(self):
        shares = llc_shares([9.0, 1.0])
        assert shares[0] > shares[1]
        # Square-root damping: 9x demand -> 3x share, not 9x.
        assert shares[0] / shares[1] == pytest.approx(3.0, rel=0.01)

    def test_zero_demand_gets_floor(self):
        shares = llc_shares([1.0, 0.0])
        assert shares[1] > 0.0

    def test_all_zero_demands(self):
        assert llc_shares([0.0, 0.0]) == [1.0, 1.0]

    def test_empty(self):
        assert llc_shares([]) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            llc_shares([-1.0])

    @given(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=8))
    def test_shares_valid_fractions(self, demands):
        shares = llc_shares(demands)
        assert all(0.0 < s <= 1.0 for s in shares)
        if any(d > 0 for d in demands):
            assert sum(shares) == pytest.approx(1.0)


class TestBandwidth:
    def test_no_traffic_no_delay(self):
        assert bandwidth_multiplier(0.0, 25.6e9) == pytest.approx(1.0)

    def test_monotone_in_traffic(self):
        low = bandwidth_multiplier(5e9, 25.6e9)
        high = bandwidth_multiplier(20e9, 25.6e9)
        assert 1.0 < low < high

    def test_clamped_at_saturation(self):
        at_cap = bandwidth_multiplier(25.6e9, 25.6e9)
        beyond = bandwidth_multiplier(100e9, 25.6e9)
        assert at_cap == pytest.approx(beyond)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bandwidth_multiplier(1.0, 0.0)
        with pytest.raises(ValueError):
            bandwidth_multiplier(-1.0, 1.0)


class TestInterferenceModel:
    def test_environments_shape(self, memory):
        model = InterferenceModel(memory)
        envs = model.environments(
            [ApplicationDemand(1e6, 1e5), ApplicationDemand(2e6, 4e5)]
        )
        assert len(envs) == 2
        assert all(isinstance(e, MemoryEnvironment) for e in envs)
        assert envs[1].l3_share_fraction > envs[0].l3_share_fraction
        assert envs[0].dram_latency_multiplier == pytest.approx(
            envs[1].dram_latency_multiplier
        )

    def test_solo_app_is_isolated_like(self, memory):
        model = InterferenceModel(memory)
        envs = model.environments([ApplicationDemand(0.0, 0.0)])
        assert envs[0].l3_share_fraction == pytest.approx(1.0)
        assert envs[0].dram_latency_multiplier == pytest.approx(1.0)

    def test_solve_fixed_point(self, memory):
        model = InterferenceModel(memory)

        def demand_of(i, env):
            # Demand grows when the cache share shrinks.
            return ApplicationDemand(
                l3_accesses_per_second=1e7,
                dram_accesses_per_second=1e6 / env.l3_share_fraction,
            )

        envs = model.solve(demand_of, count=4)
        assert len(envs) == 4
        assert all(e.l3_share_fraction == pytest.approx(0.25) for e in envs)
        assert envs[0].dram_latency_multiplier > 1.0

    def test_solve_empty(self, memory):
        assert InterferenceModel(memory).solve(lambda i, e: None, 0) == []

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            ApplicationDemand(-1.0, 0.0)
