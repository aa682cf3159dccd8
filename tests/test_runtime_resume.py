"""Tests for the durable-campaign pieces: result store, the plan and
terminal job events, resume-state reconstruction and engine resume."""

import json

import pytest

from repro.check import check_resume
from repro.runtime import (
    CallbackSink,
    CampaignPlan,
    ExecutionEngine,
    FailurePolicy,
    FaultPlan,
    JobFailed,
    JsonlEventSink,
    ResultStore,
    ResumeError,
    ResumeState,
    event_from_dict,
    read_events,
)
from repro.runtime.events import TERMINAL_EVENTS
from repro.sim.campaign import RunSpec
from repro.sim.serialize import run_result_to_dict


def specs_1b1s(count=4, instructions=120_000):
    pairs = [("povray", "milc"), ("gobmk", "bzip2"), ("mcf", "lbm")]
    return [
        RunSpec(
            "1B1S",
            pairs[i % len(pairs)],
            "random",
            instructions,
            seed=i,
        )
        for i in range(count)
    ]


def canonical(results):
    return [
        json.dumps(run_result_to_dict(r), sort_keys=True) for r in results
    ]


class TestResultStore:
    def test_roundtrip_and_keys(self, tmp_path):
        specs = specs_1b1s(2)
        store = ResultStore(tmp_path / "store")
        assert store.keys() == []
        report = ExecutionEngine().run_many(specs, store=store)
        keys = [spec.key() for spec in specs]
        assert store.keys() == sorted(keys)
        for key, result in zip(keys, report.results):
            assert canonical([store.load(key)]) == canonical([result])

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        spec = specs_1b1s(1)[0]
        store = ResultStore(tmp_path)
        report = ExecutionEngine().run_many([spec], store=store)
        key = spec.key()
        store.path(key).write_text(store.path(key).read_text()[:30])
        assert store.load(key) is None  # truncated: a miss, not a crash
        assert store.load("deadbeef" * 3) is None
        store.save(key, report.results[0])
        assert canonical([store.load(key)]) == canonical(report.results)


class TestPlanAndCheckpointEvents:
    """The plan and the terminal job events after it, which are a
    campaign's checkpoints."""

    def test_plan_records_specs_and_settings(self, tmp_path):
        specs = specs_1b1s(3)
        events = []
        engine = ExecutionEngine(
            timeout_seconds=30.0, sinks=[CallbackSink(events.append)]
        )
        engine.run_many(specs, store=tmp_path / "store")
        plans = [e for e in events if isinstance(e, CampaignPlan)]
        assert len(plans) == 1
        plan = plans[0]
        assert [RunSpec.from_dict(d) for d in plan.specs] == specs
        assert plan.keys == [spec.key() for spec in specs]
        assert plan.store == str(tmp_path / "store")
        assert plan.failure_policy == "fail-fast"
        assert plan.timeout_seconds == 30.0

    def test_plan_records_what_jobs_collect(self, tmp_path):
        events = []
        engine = ExecutionEngine(
            metrics=True, spans=True, sinks=[CallbackSink(events.append)]
        )
        engine.run_many(specs_1b1s(1), store=tmp_path)
        plan = next(e for e in events if isinstance(e, CampaignPlan))
        assert plan.metrics and plan.spans
        state = ResumeState.from_events(events)
        assert state.metrics and state.spans
        # Plans written before the two fields existed read False.
        old = plan.to_dict()
        del old["metrics"], old["spans"]
        state = ResumeState.from_events([event_from_dict(old)])
        assert not state.metrics and not state.spans

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plan_records_the_engine_width(self, tmp_path, jobs):
        events = []
        engine = ExecutionEngine(jobs, sinks=[CallbackSink(events.append)])
        engine.run_many(specs_1b1s(2), store=tmp_path)
        plan = next(e for e in events if isinstance(e, CampaignPlan))
        assert plan.shards == jobs
        assert ResumeState.from_events(events).shards == jobs
        # Older engines wrote null; a resume then falls back to
        # REPRO_JOBS.
        old = dict(plan.to_dict(), shards=None)
        assert ResumeState.from_events([event_from_dict(old)]).shards is None

    def test_events_roundtrip_through_jsonl(self, tmp_path):
        log = tmp_path / "events.jsonl"
        engine = ExecutionEngine(sinks=[JsonlEventSink(log)])
        engine.run_many(specs_1b1s(2), store=tmp_path / "store")
        engine.close()
        kinds = [type(e).__name__ for e in read_events(log)]
        assert "CampaignPlan" in kinds and kinds.count("JobFinished") == 2
        assert "UnknownEvent" not in kinds


class TestResumeState:
    def run_interrupted(self, specs, store, cut=None, fail=None):
        """Run a campaign, return its event stream truncated at ``cut``."""
        events = []
        engine = ExecutionEngine(
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={fail: 99})
            if fail is not None
            else None,
            sinks=[CallbackSink(events.append)],
        )
        engine.run_many(specs, store=store)
        return events if cut is None else events[:cut]

    def test_no_plan_raises(self):
        with pytest.raises(ResumeError, match="no campaign plan"):
            ResumeState.from_events([])

    def test_statuses_reconstructed(self, tmp_path):
        specs = specs_1b1s(4, instructions=60_000)
        events = self.run_interrupted(specs, tmp_path / "store", fail=1)
        state = ResumeState.from_events(events)
        keys = [spec.key() for spec in specs]
        assert state.keys == keys and state.specs == specs
        assert state.completed == {keys[0], keys[2], keys[3]}
        assert state.failed == {keys[1]}
        assert state.pending == set()
        assert "3 completed, 1 failed, 0 pending" in state.summary()

    def test_truncated_stream_leaves_pending(self, tmp_path):
        specs = specs_1b1s(4, instructions=60_000)
        events = self.run_interrupted(specs, tmp_path / "store")
        # Cut right after the plan: everything is pending.
        plan_at = next(
            i for i, e in enumerate(events) if isinstance(e, CampaignPlan)
        )
        state = ResumeState.from_events(events[: plan_at + 1])
        assert state.pending == set(state.keys)
        # Cut mid-stream: completed + pending partition the keys.
        state = ResumeState.from_events(events[: plan_at + 4])
        assert state.completed and state.pending
        assert state.completed | state.pending == set(state.keys)

    def test_check_specs_rejects_mismatch(self, tmp_path):
        specs = specs_1b1s(3, instructions=60_000)
        events = self.run_interrupted(specs, tmp_path / "store")
        state = ResumeState.from_events(events)
        state.check_specs(specs)
        with pytest.raises(ResumeError, match="different campaigns"):
            state.check_specs(specs[:-1])

    def test_every_cut_of_a_fleet_log_matches_its_terminal_events(
        self, tmp_path
    ):
        """A two-worker fleet with one permanent failure, cut at every
        position: the statuses are exactly the keys of the terminal
        events before the cut."""
        specs = specs_1b1s(6, instructions=60_000)
        log = tmp_path / "fleet.jsonl"
        sink = JsonlEventSink(log)
        ExecutionEngine(
            2,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={3: 99}),
            sinks=[sink],
        ).run_many(specs, store=tmp_path / "store")
        sink.close()
        events = read_events(log)
        keys = [spec.key() for spec in specs]
        plan_at = next(
            i for i, e in enumerate(events) if isinstance(e, CampaignPlan)
        )
        for cut in range(plan_at + 1, len(events) + 1):
            terminal = [
                e for e in events[:cut] if isinstance(e, TERMINAL_EVENTS)
            ]
            state = ResumeState.from_events(events[:cut])
            assert state.completed == {
                keys[e.index] for e in terminal
                if not isinstance(e, JobFailed)
            }
            assert state.failed == {
                keys[e.index] for e in terminal if isinstance(e, JobFailed)
            }
        assert state.failed == {keys[3]} and len(state.completed) == 5

    def test_last_plan_wins(self, tmp_path):
        specs = specs_1b1s(2, instructions=60_000)
        first = self.run_interrupted(specs[:1], tmp_path / "a")
        second = self.run_interrupted(specs, tmp_path / "b")
        state = ResumeState.from_events(first + second)
        assert state.specs == specs
        assert state.store == str(tmp_path / "b")


class TestEngineResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        specs = specs_1b1s(4)
        log = tmp_path / "events.jsonl"
        engine = ExecutionEngine(
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={2: 99}),
            sinks=[JsonlEventSink(log)],
        )
        engine.run_many(specs, store=tmp_path / "store")
        engine.close()

        # The failed job re-runs (no fault plan this time), completed
        # ones are served from the store.
        resumed = ExecutionEngine(
            failure_policy=FailurePolicy.COLLECT
        ).run_many(specs, resume_from=log)
        assert [o.cached for o in resumed.outcomes] == [
            True, True, False, True,
        ]
        full = ExecutionEngine().run_many(specs, store=tmp_path / "full")
        assert check_resume(full, resumed).ok
        assert canonical(full.results) == canonical(resumed.results)

    def test_resume_rejects_wrong_specs(self, tmp_path):
        specs = specs_1b1s(2)
        log = tmp_path / "events.jsonl"
        engine = ExecutionEngine(sinks=[JsonlEventSink(log)])
        engine.run_many(specs, store=tmp_path / "store")
        engine.close()
        with pytest.raises(ResumeError):
            ExecutionEngine().run_many(
                specs_1b1s(3), resume_from=log
            )

    def test_resume_equivalence_invariant_flags_divergence(self, tmp_path):
        specs = specs_1b1s(2)
        full = ExecutionEngine().run_many(specs, store=tmp_path / "a")
        shorter = ExecutionEngine().run_many(
            specs[:1], store=tmp_path / "b"
        )
        report = check_resume(full, shorter)
        assert not report.ok
        assert report.violations[0].invariant == "resume_equivalence"
