"""Tests for the parallel campaign execution engine."""

import json
import multiprocessing
import os
import time

import pytest

from repro.config.machines import STANDARD_MACHINES
from repro.runtime.engine import (
    ExecutionEngine,
    FaultPlan,
    default_jobs,
)
from repro.runtime.events import (
    CallbackSink,
    CampaignFinished,
    CampaignStarted,
    CheckFailed,
    JobCached,
    JobFailed,
    JobFinished,
    JobStarted,
)
from repro.runtime.retry import CampaignError, FailurePolicy, RetryPolicy
from repro.sim.campaign import RunSpec
from repro.sim.serialize import run_result_to_dict

NAMES_2B2S = ("povray", "milc", "gobmk", "bzip2")

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_seconds=0.0)


def specs_1b1s(count=3, instructions=500_000):
    pairs = [("povray", "milc"), ("gobmk", "bzip2"), ("mcf", "lbm")]
    return [
        RunSpec("1B1S", pairs[i % len(pairs)], scheduler, instructions, seed=i)
        for i in range(count)
        for scheduler in ("random", "reliability")
    ]


def recording_engine(**kwargs):
    events = []
    engine = ExecutionEngine(sinks=[CallbackSink(events.append)], **kwargs)
    return engine, events


def canonical(results):
    return [
        json.dumps(run_result_to_dict(r), sort_keys=True) for r in results
    ]


class TestSerialParallelEquivalence:
    def test_parallel_identical_to_serial_2b2s(self):
        specs = [
            RunSpec("2B2S", NAMES_2B2S, scheduler, 1_000_000, seed=seed)
            for seed in range(2)
            for scheduler in ("random", "performance", "reliability")
        ]
        serial = ExecutionEngine(jobs=1).run_many(specs)
        parallel = ExecutionEngine(jobs=4).run_many(specs)
        assert canonical(serial.results) == canonical(parallel.results)
        assert [o.index for o in parallel.outcomes] == list(range(len(specs)))

    def test_order_deterministic_despite_completion_reordering(self):
        # Delay job 0 so it finishes last; results must stay in
        # submission order anyway.
        specs = specs_1b1s(2)
        plan = FaultPlan(sleep_seconds={0: 0.4})
        serial = ExecutionEngine(jobs=1).run_many(specs)
        parallel = ExecutionEngine(jobs=2, fault_plan=plan).run_many(specs)
        assert canonical(serial.results) == canonical(parallel.results)


class TestRetry:
    def test_retry_then_succeed(self):
        engine, events = recording_engine(
            jobs=1,
            retry=FAST_RETRY,
            fault_plan=FaultPlan(fail_attempts={0: 2}),
        )
        report = engine.run_many(specs_1b1s(1))
        assert report.ok
        assert report.outcomes[0].attempts == 3
        assert all(o.attempts == 1 for o in report.outcomes[1:])
        finished = [e for e in events if isinstance(e, JobFinished)]
        assert finished[0].attempts == 3 or any(
            e.attempts == 3 for e in finished
        )

    def test_retry_exhaustion_fails_job(self):
        engine, events = recording_engine(
            jobs=1,
            retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.0),
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={0: 99}),
        )
        report = engine.run_many(specs_1b1s(1))
        assert len(report.failures) == 1
        assert "InjectedFault" in report.failures[0].error
        assert any(isinstance(e, JobFailed) for e in events)


class TestFailurePolicies:
    def test_fail_fast_raises_campaign_error(self):
        engine, events = recording_engine(
            jobs=1, fault_plan=FaultPlan(fail_attempts={0: 99})
        )
        with pytest.raises(CampaignError) as excinfo:
            engine.run_many(specs_1b1s(2))
        report = excinfo.value.report
        assert len(report.outcomes) == 4
        # Job 0 failed; the rest were skipped, never run.
        assert report.outcomes[0].error is not None
        assert all("skipped" in o.error for o in report.outcomes[1:])
        assert isinstance(events[-1], CampaignFinished)
        assert events[-1].failed == 4

    def test_fail_fast_parallel_preserves_completed_results(self):
        engine, _ = recording_engine(
            jobs=2,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=FaultPlan(
                fail_attempts={3: 99}, sleep_seconds={3: 0.2}
            ),
        )
        with pytest.raises(CampaignError) as excinfo:
            engine.run_many(specs_1b1s(2))
        report = excinfo.value.report
        completed = [o for o in report.outcomes if o.ok]
        assert completed, "jobs finished before the abort must survive"

    def test_collect_preserves_partial_results(self):
        engine, events = recording_engine(
            jobs=2,
            retry=RetryPolicy(max_attempts=1),
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={1: 99}),
        )
        report = engine.run_many(specs_1b1s(2))
        assert len(report.failures) == 1
        assert report.results[1] is None
        assert sum(1 for r in report.results if r is not None) == 3
        failed = [e for e in events if isinstance(e, JobFailed)]
        assert len(failed) == 1 and failed[0].index == 1


class TestCollectPolicy:
    """Event ordering and partial-report contents under COLLECT."""

    def test_event_stream_ordering(self):
        engine, events = recording_engine(
            jobs=1,
            retry=RetryPolicy(max_attempts=1),
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={1: 99}),
        )
        engine.run_many(specs_1b1s(2))
        assert isinstance(events[0], CampaignStarted)
        assert isinstance(events[-1], CampaignFinished)
        terminal = [
            e for e in events
            if isinstance(e, (JobFinished, JobFailed, JobCached))
        ]
        # Serial execution: exactly one terminal event per job, in order.
        assert [e.index for e in terminal] == list(range(4))
        assert isinstance(terminal[1], JobFailed)

    def test_partial_report_contents(self):
        engine, _ = recording_engine(
            jobs=2,
            retry=RetryPolicy(max_attempts=1),
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={0: 99, 2: 99}),
        )
        report = engine.run_many(specs_1b1s(2))
        assert not report.ok
        assert len(report.failures) == 2
        assert {o.index for o in report.failures} == {0, 2}
        assert report.results[0] is None and report.results[2] is None
        for index in (1, 3):
            assert report.results[index] is not None
            assert report.outcomes[index].ok
        completed = [o for o in report.outcomes if o.ok]
        assert len(completed) == 2
        assert all(o.error is None for o in completed)


def _fail_gobmk_mixes(result):
    """Check hook failing any run whose mix contains gobmk."""
    from repro.check.invariants import CheckReport, Severity, Violation

    names = [app.name for app in result.apps]
    if "gobmk" in names:
        return CheckReport(
            subject="hook",
            checked=("synthetic_gobmk_ban",),
            violations=(
                Violation(
                    invariant="synthetic_gobmk_ban",
                    severity=Severity.ERROR,
                    subject="hook",
                    message="gobmk is banned by this hook",
                ),
            ),
        )
    return CheckReport(subject="hook", checked=("synthetic_gobmk_ban",))


class TestCheckHook:
    """The opt-in per-job invariant hook (``checks=``)."""

    def test_real_checks_pass_clean_runs(self):
        from repro.check import default_run_checks

        engine, events = recording_engine(jobs=1, checks=default_run_checks)
        report = engine.run_many(specs_1b1s(1))
        assert report.ok
        assert not [e for e in events if isinstance(e, CheckFailed)]

    def test_check_failure_fails_job_without_aborting_siblings(self):
        # specs_1b1s(2) jobs 2 and 3 run the (gobmk, bzip2) pair.
        engine, events = recording_engine(
            jobs=1,
            failure_policy=FailurePolicy.COLLECT,
            checks=_fail_gobmk_mixes,
        )
        report = engine.run_many(specs_1b1s(2))
        assert {o.index for o in report.failures} == {2, 3}
        for outcome in report.failures:
            assert "check failed" in outcome.error
            assert "synthetic_gobmk_ban" in outcome.error
        # Siblings completed normally.
        for index in (0, 1):
            assert report.results[index] is not None

    def test_check_failed_event_precedes_job_failed(self):
        engine, events = recording_engine(
            jobs=1,
            failure_policy=FailurePolicy.COLLECT,
            checks=_fail_gobmk_mixes,
        )
        engine.run_many(specs_1b1s(2))
        checks = [e for e in events if isinstance(e, CheckFailed)]
        assert [e.index for e in checks] == [2, 3]
        assert checks[0].invariants == ("synthetic_gobmk_ban",)
        assert "banned" in checks[0].detail
        for check in checks:
            failed = [
                e for e in events
                if isinstance(e, JobFailed) and e.index == check.index
            ]
            assert failed, "CheckFailed must be followed by JobFailed"
            assert events.index(check) < events.index(failed[0])

    def test_check_failure_aborts_under_fail_fast(self):
        engine, _ = recording_engine(jobs=1, checks=_fail_gobmk_mixes)
        with pytest.raises(CampaignError, match="synthetic_gobmk_ban"):
            engine.run_many(specs_1b1s(2))

    def test_cached_results_are_checked_too(self, tmp_path):
        specs = specs_1b1s(2)
        ExecutionEngine().run_many(specs, store=tmp_path)

        engine, events = recording_engine(
            jobs=1, failure_policy=FailurePolicy.COLLECT,
            checks=_fail_gobmk_mixes,
        )
        results = engine.run_many(specs, store=tmp_path).results
        assert [r is None for r in results] == [False, False, True, True]
        cached = [e for e in events if isinstance(e, JobCached)]
        assert {e.index for e in cached} == {0, 1}
        checks = [e for e in events if isinstance(e, CheckFailed)]
        assert {e.index for e in checks} == {2, 3}

    def test_parallel_check_failures_match_serial(self):
        serial_engine, _ = recording_engine(
            jobs=1,
            failure_policy=FailurePolicy.COLLECT,
            checks=_fail_gobmk_mixes,
        )
        parallel_engine, _ = recording_engine(
            jobs=2,
            failure_policy=FailurePolicy.COLLECT,
            checks=_fail_gobmk_mixes,
        )
        specs = specs_1b1s(2)
        serial = serial_engine.run_many(specs)
        parallel = parallel_engine.run_many(specs)
        assert [o.error is None for o in serial.outcomes] == \
            [o.error is None for o in parallel.outcomes]
        assert canonical([r for r in serial.results if r is not None]) == \
            canonical([r for r in parallel.results if r is not None])


class TestTimeout:
    def test_slow_job_times_out_others_finish(self):
        engine, events = recording_engine(
            jobs=2,
            timeout_seconds=0.5,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(sleep_seconds={0: 3.0}),
        )
        report = engine.run_many(specs_1b1s(1))
        assert len(report.failures) == 1
        assert "timed out" in report.failures[0].error
        assert report.results[1] is not None
        assert any(isinstance(e, JobFailed) for e in events)

    def test_queued_jobs_do_not_time_out(self):
        # Regression: the timeout clock used to start at submission,
        # so with more specs than workers a job could "time out"
        # purely from queue wait, without ever running.  Four jobs
        # over two workers, each sleeping 1.2s with a 2.4s budget:
        # per-job runtime (sleep + worker overhead) is well under the
        # timeout, but the second wave's queue wait + runtime is past
        # it, so the old submission-based clock would flag it.
        engine, _ = recording_engine(
            jobs=2,
            timeout_seconds=2.4,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(
                sleep_seconds={i: 1.2 for i in range(4)}
            ),
        )
        report = engine.run_many(specs_1b1s(2, instructions=2000))
        assert report.failures == []
        assert all(result is not None for result in report.results)

    def test_serial_engine_enforces_timeout_post_hoc(self):
        # jobs=1 cannot preempt a running job, but it must still fail
        # one that blew its budget.
        engine, events = recording_engine(
            jobs=1,
            timeout_seconds=1.0,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(sleep_seconds={0: 2.0}),
        )
        report = engine.run_many(specs_1b1s(1, instructions=2000))
        assert len(report.failures) == 1
        assert "timed out" in report.failures[0].error
        assert report.results[1] is not None
        assert any(isinstance(e, JobFailed) for e in events)

    def test_timeout_reports_zero_attempts(self):
        # A timed-out job's in-flight attempt was killed mid-run; the
        # parent cannot know how many attempts completed, so it must
        # not claim attempts=1 (the worker may have been on any retry).
        engine, events = recording_engine(
            jobs=2,
            retry=FAST_RETRY,
            timeout_seconds=0.5,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(sleep_seconds={0: 3.0}),
        )
        report = engine.run_many(specs_1b1s(1, instructions=2000))
        timed_out = [e for e in events if isinstance(e, JobFailed)]
        assert len(timed_out) == 1 and timed_out[0].attempts == 0
        assert report.failures[0].attempts == 0


class TestWorkStops:
    """A killed or aborted job's worker is gone when the engine returns."""

    def test_timed_out_worker_is_killed(self):
        engine, _ = recording_engine(
            jobs=2,
            timeout_seconds=0.5,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(sleep_seconds={0: 30.0}),
        )
        started = time.monotonic()
        report = engine.run_many(specs_1b1s(2, instructions=2000))
        assert time.monotonic() - started < 10.0
        assert report.outcomes[0].error == "timed out after 0.5s"
        assert report.outcomes[0].attempts == 0
        assert all(o.ok for o in report.outcomes[1:])
        assert multiprocessing.active_children() == []

    def test_killed_workers_are_replaced(self, forks):
        # Both workers overrun and are killed; fresh workers run the
        # jobs still undealt (one or two, as the kills interleave with
        # the first replacement's job).
        engine, _ = recording_engine(
            jobs=2,
            timeout_seconds=0.5,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(sleep_seconds={0: 30.0, 1: 30.0}),
        )
        report = engine.run_many(specs_1b1s(2, instructions=2000))
        assert [o.error for o in report.outcomes] == [
            "timed out after 0.5s", "timed out after 0.5s", None, None,
        ]
        assert len(forks) in (3, 4)
        assert multiprocessing.active_children() == []

    def test_fail_fast_abort_kills_running_workers(self):
        engine, _ = recording_engine(
            jobs=2,
            retry=RetryPolicy(max_attempts=1),
            fault_plan=FaultPlan(
                sleep_seconds={0: 30.0}, fail_attempts={1: 99}
            ),
        )
        started = time.monotonic()
        with pytest.raises(CampaignError) as excinfo:
            engine.run_many(specs_1b1s(2, instructions=2000))
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []
        errors = [o.error for o in excinfo.value.report.outcomes]
        assert "InjectedFault" in errors[1]
        assert errors[0] == "cancelled (fail-fast abort)"

    def test_killed_worker_job_reruns_in_process(self):
        specs = specs_1b1s(2, instructions=2000)
        expected = canonical(ExecutionEngine(jobs=1).run_many(specs).results)
        killed = []

        def kill_on_start(event):
            if isinstance(event, JobStarted) and event.index == 0:
                if not killed:
                    killed.extend(multiprocessing.active_children())
                    for child in killed:
                        child.kill()

        engine = ExecutionEngine(
            jobs=2,
            fault_plan=FaultPlan(sleep_seconds={0: 1.0}),
            sinks=[CallbackSink(kill_on_start)],
        )
        with pytest.warns(UserWarning, match="its task will run in-process"):
            report = engine.run_many(specs)
        assert killed
        assert canonical(report.results) == expected
        assert multiprocessing.active_children() == []


class TestWorkerSlots:
    """Every event of a dealt job names the worker slot that ran it."""

    def test_dealt_jobs_carry_their_slot(self, tmp_path):
        from repro.obs import flight as obs_flight

        engine, events = recording_engine(
            jobs=2,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={3: 99}),
        )
        engine.run_many(specs_1b1s(3, instructions=2000), store=tmp_path)
        job_events = [e for e in events if getattr(e, "index", -1) >= 0]
        slots = [e.trace.get("shard") for e in job_events]
        assert set(slots) == {0, 1}
        assert not any(
            "shard" in e.trace for e in events if e not in job_events
        )
        (failed,) = [e for e in events if isinstance(e, JobFailed)]
        (bundle_path,) = obs_flight.find_bundles(tmp_path)
        bundle = obs_flight.load_bundle(bundle_path)
        assert bundle["trace"]["shard"] == failed.trace["shard"]

    def test_in_process_jobs_carry_no_slot(self, tmp_path):
        specs = specs_1b1s(2, instructions=2000)
        engine, serial = recording_engine(jobs=1)
        engine.run_many(specs, store=tmp_path)
        # A second pass at jobs=2 is all cache hits, served in-process.
        engine, cached = recording_engine(jobs=2)
        engine.run_many(specs, store=tmp_path)
        assert any(isinstance(e, JobCached) for e in cached)
        for event in serial + cached:
            assert "shard" not in event.trace

    def test_replacement_takes_the_killed_slot(self, forks):
        engine, events = recording_engine(
            jobs=2,
            timeout_seconds=0.5,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(sleep_seconds={0: 30.0, 1: 30.0}),
        )
        engine.run_many(specs_1b1s(2, instructions=2000)[:3])
        slot = {
            e.index: e.trace["shard"]
            for e in events
            if isinstance(e, JobStarted)
        }
        # Both workers are killed; the one fork left for job 2 takes
        # the lowest free slot.
        assert slot == {0: 0, 1: 1, 2: 0}
        assert len(forks) == 3


class TestAttemptAccounting:
    def test_collect_attempts_and_wall_consistent(self, tmp_path):
        # One COLLECT campaign with a timeout, an exhausted retry and
        # a retried success: the outcomes, the emitted events and the
        # replayed JSONL log must all tell the same story.
        from repro.runtime import JsonlEventSink, replay_timings

        log = tmp_path / "events.jsonl"
        events = []
        engine = ExecutionEngine(
            jobs=2,
            retry=FAST_RETRY,
            timeout_seconds=0.6,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(
                sleep_seconds={0: 3.0},
                fail_attempts={
                    1: 99,
                    2: FAST_RETRY.max_attempts - 1,
                },
            ),
            sinks=[CallbackSink(events.append), JsonlEventSink(log)],
        )
        specs = specs_1b1s(2, instructions=2000)[:3]
        report = engine.run_many(specs)
        engine.close()

        by_index = {o.index: o for o in report.outcomes}
        assert "timed out" in by_index[0].error
        assert by_index[0].attempts == 0  # killed mid-attempt
        assert by_index[1].error is not None
        assert by_index[1].attempts == FAST_RETRY.max_attempts
        assert by_index[2].ok
        assert by_index[2].attempts == FAST_RETRY.max_attempts

        for event in events:
            if isinstance(event, (JobFinished, JobFailed)):
                outcome = by_index[event.index]
                assert event.attempts == outcome.attempts
                assert event.wall_seconds == outcome.wall_seconds

        timings = {t.index: t for t in replay_timings(log)}
        for index, outcome in by_index.items():
            assert timings[index].attempts == outcome.attempts
            assert timings[index].status == (
                "ok" if outcome.ok else "failed"
            )


def _refuse_fork():
    raise OSError("no process support here")


def _no_fork_context(method=None):
    raise ValueError("cannot find context for 'fork'")


class TestGracefulDegradation:
    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        specs = specs_1b1s(2)
        expected = canonical(ExecutionEngine(jobs=1).run_many(specs).results)
        monkeypatch.setattr(os, "fork", _refuse_fork)
        with pytest.warns(UserWarning, match="cannot fork workers"):
            report = ExecutionEngine(jobs=4).run_many(specs)
        assert canonical(report.results) == expected

    def test_no_fork_context_falls_back_to_serial(self, monkeypatch):
        specs = specs_1b1s(1)
        expected = canonical(ExecutionEngine(jobs=1).run_many(specs).results)
        monkeypatch.setattr(multiprocessing, "get_context", _no_fork_context)
        with pytest.warns(UserWarning, match="cannot fork workers"):
            report = ExecutionEngine(jobs=2).run_many(specs)
        assert canonical(report.results) == expected


class TestEngineCache:
    def test_cache_hits_skip_execution(self, tmp_path):
        specs = specs_1b1s(2)
        first = ExecutionEngine(jobs=2).run_many(specs, store=tmp_path)
        assert first.executed == len(specs) and first.cache_hits == 0

        engine, events = recording_engine(jobs=2)
        second = engine.run_many(specs, store=tmp_path)
        assert second.cache_hits == len(specs) and second.executed == 0
        assert canonical(first.results) == canonical(second.results)
        assert sum(1 for e in events if isinstance(e, JobCached)) == len(specs)

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        specs = specs_1b1s(1)
        first = ExecutionEngine().run_many(specs, store=tmp_path)
        # Corrupt one entry and truncate the other mid-JSON.
        paths = sorted(tmp_path.glob("*.json"))
        paths[0].write_text("{ not json")
        paths[1].write_text(paths[1].read_text()[:40])

        second = ExecutionEngine().run_many(specs, store=tmp_path)
        assert second.executed == 2 and second.cache_hits == 0
        assert canonical(first.results) == canonical(second.results)
        # The corrupt entries were rewritten and are valid again.
        third = ExecutionEngine().run_many(specs, store=tmp_path)
        assert third.cache_hits == 2


class TestDefaultJobs:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.warns(UserWarning, match="REPRO_JOBS"):
            assert default_jobs() == 1


class TestRunSpecMachine:
    def test_unknown_machine_raises_value_error(self):
        spec = RunSpec("9B9S", ("povray", "milc"), "random", 1_000)
        with pytest.raises(ValueError, match="known machines: .*2B2S"):
            spec.build_machine()

    def test_campaign_run_accepts_machine_override(self, tmp_path):
        from repro.config import machine_1b1s

        spec = RunSpec(
            "custom-tag", ("povray", "milc"), "random", 500_000
        )
        first = ExecutionEngine().run_many(
            [spec], machines=machine_1b1s(), store=tmp_path
        )
        result = first.results[0]
        assert result.machine_name == "1B1S"
        # Cached under the custom tag; the override is only needed on miss.
        again = ExecutionEngine().run_many([spec], store=tmp_path)
        assert again.results[0].sser == pytest.approx(result.sser)
        assert again.cache_hits == 1

    def test_campaign_run_unknown_machine_message(self, tmp_path):
        spec = RunSpec("custom-tag", ("povray", "milc"), "random", 500_000)
        with pytest.raises(CampaignError, match="machine override"):
            ExecutionEngine().run_many([spec], store=tmp_path)


class TestExperimentSweepJobs:
    def test_sweep_parallel_matches_serial(self):
        from repro.config import machine_1b1s
        from repro.sim.experiment import sweep
        from repro.workloads.mixes import WorkloadMix

        workloads = [
            WorkloadMix("MH", ("povray", "milc")),
            WorkloadMix("LM", ("gobmk", "bzip2")),
        ]
        machine = machine_1b1s()
        serial = sweep(machine, workloads, ("random", "reliability"),
                       instructions=500_000, jobs=1)
        parallel = sweep(machine, workloads, ("random", "reliability"),
                         instructions=500_000, jobs=2)
        for name in serial:
            assert canonical(serial[name]) == canonical(parallel[name])

#: Short runs for the seed-handoff tests.
INSTRUCTIONS = 150_000


def _dicts(results) -> list[dict]:
    return [run_result_to_dict(result) for result in results]


class TestSeedHandoff:
    """Per-run RNG streams follow spec content, not queue position.

    The random scheduler is the seed-sensitive one: if any stream were
    derived from a run's position in the job queue, dropping or
    reordering neighbors would change its decisions.
    """

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


def _cube(x):
    return x ** 3


def _inverse(x):
    return 1 / x


def _cube_in_parent(item):
    """Cube in the test process; kill any worker process that runs it."""
    parent, x = item
    if os.getpid() != parent:
        os._exit(1)
    return x ** 3


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every worker process forked."""
    made = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return made


class TestMapTasks:
    def test_parallel_map_preserves_item_order(self, forks):
        engine = ExecutionEngine(jobs=2)
        counts = []
        assert engine.map_tasks(_cube, range(7)) == [
            _cube(i) for i in range(7)
        ]
        counts.append(len(forks))
        assert engine.map_tasks(_cube, range(4)) == [
            _cube(i) for i in range(4)
        ]
        counts.append(len(forks))
        assert ExecutionEngine(jobs=4).map_tasks(_cube, range(2)) == [0, 1]
        counts.append(len(forks))
        # min(jobs, items) workers per call, all gone before the call
        # returns; the engine keeps none.
        assert counts == [2, 4, 6]
        assert multiprocessing.active_children() == []
        assert not any(
            isinstance(value, multiprocessing.process.BaseProcess)
            for value in vars(engine).values()
        )

    def test_serial_paths_never_create_a_pool(self, forks):
        assert ExecutionEngine(jobs=1).map_tasks(_cube, range(5)) == [
            _cube(i) for i in range(5)
        ]
        assert ExecutionEngine(jobs=4).map_tasks(_cube, [3]) == [27]
        assert ExecutionEngine(jobs=4).map_tasks(_cube, []) == []
        assert forks == []

    def test_pool_unavailable_maps_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _refuse_fork)
        engine = ExecutionEngine(jobs=2)
        for _ in range(2):  # every call tries to fork, and warns
            with pytest.warns(UserWarning, match="cannot fork workers"):
                assert engine.map_tasks(_cube, range(4)) == [
                    _cube(i) for i in range(4)
                ]

    def test_broken_pool_finishes_in_process(self):
        items = [(os.getpid(), x) for x in range(3)]
        with pytest.warns(UserWarning, match="worker pool broke"):
            assert ExecutionEngine(jobs=2).map_tasks(
                _cube_in_parent, items
            ) == [0, 1, 8]

    def test_worker_exception_is_raised(self):
        with pytest.raises(ZeroDivisionError):
            ExecutionEngine(jobs=2).map_tasks(_inverse, [1, 0, 2])
        assert multiprocessing.active_children() == []

