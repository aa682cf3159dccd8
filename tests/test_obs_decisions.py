"""Tests for scheduler decision traces: record, replay, explain."""

import json

import pytest

from repro.check import check_decision_trace
from repro.config import STANDARD_MACHINES
from repro.obs.decisions import (
    DECISION_TRACE_SCHEMA,
    DecisionTraceRecorder,
    QuantumRecord,
    ReplayError,
    apply_moves,
    decompose_swaps,
    format_trace,
    read_trace,
    replay_trace,
    write_trace,
)
from repro.sched.constrained import ConstrainedReliabilityScheduler
from repro.sim.experiment import make_scheduler
from repro.sim.multicore import MulticoreSimulation
from repro.workloads.spec2006 import benchmark

MIX = ("soplex", "milc", "namd", "povray")


def record_run(scheduler_name="reliability", instructions=400_000):
    machine = STANDARD_MACHINES["2B2S"]()
    profiles = [benchmark(n).scaled(instructions) for n in MIX]
    if scheduler_name == "constrained":
        scheduler = ConstrainedReliabilityScheduler(
            machine, len(profiles), max_stp_loss=0.1
        )
    else:
        scheduler = make_scheduler(scheduler_name, machine, len(profiles), 0)
    scheduler.recorder = DecisionTraceRecorder()
    MulticoreSimulation(machine, profiles, scheduler).run()
    return scheduler


class TestDecompose:
    def test_identity_has_no_moves(self):
        assert decompose_swaps((0, 1, 2), (0, 1, 2)) == ()

    def test_moves_reproduce_target(self):
        before, after = (0, 1, 2, 3), (3, 2, 1, 0)
        moves = decompose_swaps(before, after)
        current = list(before)
        for a, b in moves:
            current[a], current[b] = current[b], current[a]
        assert tuple(current) == after

    def test_rebind_to_free_core(self):
        # A spare-core machine can move an app onto a core nobody held;
        # that decomposes to a rebind move, not a swap.
        moves = decompose_swaps((0, 1), (0, 2))
        assert moves == ((-2, 2),)
        assert apply_moves((0, 1), moves) == (0, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReplayError):
            decompose_swaps((0, 1), (0, 1, 2))


class TestRecordedRuns:
    @pytest.mark.parametrize(
        "name", ["reliability", "performance", "constrained"]
    )
    def test_replay_reproduces_final_assignment(self, name):
        scheduler = record_run(name)
        records = scheduler.recorder.records
        assert records, "run produced no quantum records"
        assert replay_trace(records) == tuple(scheduler._assignment.core_of)

    def test_accepted_swaps_clear_threshold(self):
        scheduler = record_run(instructions=5_000_000)
        candidates = [
            c
            for record in scheduler.recorder.records
            for c in record.candidates
        ]
        assert candidates, "optimizer weighed no swap candidates"
        for cand in candidates:
            if cand.accepted and not cand.forced:
                assert cand.delta_total < -cand.threshold
            elif not cand.accepted:
                assert cand.delta_total >= -cand.threshold

    def test_phases_progress_from_sampling(self):
        records = record_run().recorder.records
        assert records[0].phase == "initial_sampling"
        assert all(
            r.phase in DECISION_TRACE_SCHEMA["phases"] for r in records
        )

    def test_invariant_holds_on_real_trace(self):
        records = record_run().recorder.records
        report = check_decision_trace(records)
        assert report.ok, report.format()
        assert report.checked == ("decision_trace_consistency",)

    def test_invariant_rejects_tampered_trace(self):
        records = list(record_run().recorder.records)
        bad = records[0]
        records[0] = QuantumRecord.from_dict(
            {**bad.to_dict(), "after": list(bad.after[::-1])}
        )
        report = check_decision_trace(records)
        assert not report.ok

    def test_jsonl_round_trip(self, tmp_path):
        records = record_run().recorder.records
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        assert read_trace(path) == records

    def test_format_trace_mentions_decisions(self):
        records = record_run(instructions=5_000_000).recorder.records
        text = format_trace(records, max_quanta=10)
        assert "initial_sampling" in text
        assert "swap app" in text or "reassign" in text


class TestReplayErrors:
    def test_empty_trace(self):
        with pytest.raises(ReplayError):
            replay_trace([])

    def test_broken_chain(self):
        records = record_run(instructions=5_000_000).recorder.records
        assert len(records) >= 2
        tampered = [
            records[0],
            QuantumRecord.from_dict(
                {**records[1].to_dict(), "before": [99] * len(records[1].before)}
            ),
        ]
        with pytest.raises(ReplayError, match="chain"):
            replay_trace(tampered)


class TestSchema:
    def test_schema_matches_fixture(self):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "decision_trace_schema.json"
        frozen = json.loads(fixture.read_text())
        assert frozen == json.loads(json.dumps(DECISION_TRACE_SCHEMA)), (
            "decision-trace schema drifted; regenerate "
            "tests/fixtures/decision_trace_schema.json deliberately "
            "(repro explain --schema)"
        )

    def test_schema_covers_dataclass_fields(self):
        assert set(DECISION_TRACE_SCHEMA["quantum_record"]) == {
            f for f in QuantumRecord.__dataclass_fields__
        }
