"""Tests for retry and failure policies."""

import pytest

from repro.runtime.retry import FailurePolicy, RetryPolicy


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_delay_seconds=0.1,
            backoff_factor=2.0,
            max_delay_seconds=100.0,
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_backoff_capped(self):
        policy = RetryPolicy(
            max_attempts=10,
            base_delay_seconds=0.5,
            backoff_factor=10.0,
            max_delay_seconds=2.0,
        )
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(2.0)
        assert policy.delay(9) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestFailurePolicy:
    def test_members(self):
        assert FailurePolicy("fail-fast") is FailurePolicy.FAIL_FAST
        assert FailurePolicy("collect") is FailurePolicy.COLLECT
