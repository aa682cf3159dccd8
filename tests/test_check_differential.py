"""Tests for the seeded differential fuzzer."""

import pytest

from repro.check import FuzzReport, fuzz
from repro.check.differential import FuzzGates, check_agreement
from repro.validation.crossmodel import (
    BenchmarkAgreement,
    ModelAgreement,
    spearman,
)


def _agreement(rows):
    return ModelAgreement(rows=tuple(
        BenchmarkAgreement(
            name=f"b{i}",
            core_type=core,
            trace_ipc=tipc,
            mechanistic_ipc=mipc,
            trace_abc_per_cycle=tabc,
            mechanistic_abc_per_cycle=mabc,
        )
        for i, (core, tipc, mipc, tabc, mabc) in enumerate(rows)
    ))


def _concordant(n=4):
    rows = []
    for core in ("big", "small"):
        for i in range(n):
            value = 1.0 + i
            rows.append((core, value, value * 1.1, value, value * 0.9))
    return _agreement(rows)


class TestSpearmanFallback:
    def test_matches_known_values(self):
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_numpy_fallback_agrees_with_scipy(self, monkeypatch):
        scipy = pytest.importorskip("scipy.stats")
        xs = [0.3, 1.2, 0.9, 2.2, 1.7, 0.1]
        ys = [0.2, 1.4, 1.1, 1.9, 2.5, 0.4]
        expected = float(scipy.spearmanr(xs, ys).statistic)
        import builtins

        real_import = builtins.__import__

        def no_scipy(name, *args, **kwargs):
            if name.startswith("scipy"):
                raise ImportError(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_scipy)
        assert spearman(xs, ys) == pytest.approx(expected)

    def test_rejects_degenerate_samples(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0])


class TestAgreementGates:
    def test_concordant_sample_passes(self):
        report = check_agreement(_concordant())
        assert report.ok and not report.errors

    def test_rank_inversion_flagged(self):
        rows = []
        for core in ("big", "small"):
            for i in range(4):
                # Mechanistic IPC ranks exactly opposite the trace IPC.
                rows.append((core, 1.0 + i, 4.0 - i, 1.0 + i, 1.0 + i))
        report = check_agreement(_agreement(rows))
        assert not report.ok
        assert "rank_agreement" in report.invariant_names()

    def test_ratio_blowout_flagged(self):
        rows = []
        for core in ("big", "small"):
            for i in range(4):
                value = 1.0 + i
                rows.append((core, value, value, value, value * 1000.0))
        report = check_agreement(_agreement(rows))
        assert "cross_model_ratio_bounds" in report.invariant_names()

    def test_small_core_abc_disagreement_is_only_a_warning(self):
        rows = []
        for core in ("big", "small"):
            for i in range(4):
                value = 1.0 + i
                abc_mech = value if core == "big" else 4.0 - i
                rows.append((core, value, value, value, abc_mech))
        report = check_agreement(_agreement(rows))
        assert report.ok
        assert "small_abc_rank_agreement" in report.invariant_names()
        assert report.warnings and not report.errors

    def test_custom_gates_respected(self):
        gates = FuzzGates(min_spearman_ipc=1.1)  # unsatisfiable
        report = check_agreement(_concordant(), gates)
        assert not report.ok


class TestFuzz:
    @pytest.fixture(scope="class")
    def session(self):
        return fuzz(0, model_cases=1, run_cases=2, stack_cases=1)

    def test_seeded_session_passes(self, session):
        assert isinstance(session, FuzzReport)
        assert session.ok, session.format()
        # + default kernel_cases=2, decision_cases=2, resume_cases=2,
        # service_cases=2, mode_cases=2, segment_cases=2
        assert len(session.reports) == 16

    def test_same_seed_reproduces_byte_identical_findings(self, session):
        again = fuzz(0, model_cases=1, run_cases=2, stack_cases=1)
        assert again.format() == session.format()
        assert again == session

    def test_different_seed_differs(self, session):
        other = fuzz(1, model_cases=1, run_cases=2, stack_cases=1)
        assert other.format() != session.format()

    def test_format_names_every_case(self, session):
        text = session.format()
        assert "fuzz seed=0" in text
        for prefix in ("model/0", "run/0", "run/1", "stack/0", "kernel/0",
                       "kernel/1", "decision/0", "decision/1", "resume/0",
                       "resume/1", "service/0", "service/1", "mode/0",
                       "mode/1", "segment/0", "segment/1"):
            assert prefix in text

    def test_decision_cases_validate_traces(self, session):
        decisions = [r for r in session.reports
                     if r.subject.startswith("decision/")]
        assert len(decisions) == 2
        for report in decisions:
            assert report.checked == ("decision_trace_consistency",)

    def test_kernel_cases_check_both_models(self, session):
        kernels = [r for r in session.reports
                   if r.subject.startswith("kernel/")]
        assert len(kernels) == 2
        for report in kernels:
            assert report.checked == ("kernel_timing_equivalence",
                                      "kernel_cache_state_equivalence")

    def test_resume_cases_check_equivalence(self, session):
        resumes = [r for r in session.reports
                   if r.subject.startswith("resume/")]
        assert len(resumes) == 2
        for report in resumes:
            assert report.checked == ("resume_equivalence",)
            workers = int(report.subject.split("workers=")[1].split()[0])
            assert 1 <= workers <= 4

    def test_service_cases_check_feeds_and_conservation(self, session):
        services = [r for r in session.reports
                    if r.subject.startswith("service/")]
        assert len(services) == 2
        for report in services:
            assert "service_feed_determinism" in report.checked
            assert "open_system_conservation" in report.checked
            assert "decision_trace_consistency" in report.checked

    def test_segment_cases_compare_both_paths(self, session):
        segments = [r for r in session.reports
                    if r.subject.startswith("segment/")]
        assert len(segments) == 2
        for report in segments:
            assert "segment_path_equivalence" in report.checked
            assert "wser_definition" in report.checked

    def test_case_counts_respected(self):
        tiny = fuzz(5, model_cases=0, run_cases=1, stack_cases=0,
                    kernel_cases=0, decision_cases=0, resume_cases=0,
                    service_cases=0, mode_cases=0, segment_cases=0)
        assert len(tiny.reports) == 1
        assert tiny.reports[0].subject.startswith("run/0")
        # The shard family folded into the resume family.
        with pytest.raises(TypeError):
            fuzz(5, shard_cases=0)
