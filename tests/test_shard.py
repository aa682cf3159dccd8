"""Tests for campaigns on a fleet of engine workers
(`repro.runtime.shard`).

A fleet is one :class:`ExecutionEngine` run whose N workers are the
shards.  Its contract is byte-identity with the in-process engine:
same results, same store bytes, same replayed log facts, for any
worker count and any completion order.  These tests pin what a fleet
records and feeds (its width in the plan, :class:`FleetStatus`, live
metrics) and what it must do: recover lost workers, kill overrunning
or aborted ones, run any machine override, and resume.  The
:class:`ShardCoordinator` shim keeps the ``benchmarks/e2e`` API.
"""

import errno
import json
import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.check import check_resume
from repro.runtime import (
    CallbackSink,
    CampaignError,
    CampaignPlan,
    ExecutionEngine,
    FailurePolicy,
    FaultPlan,
    FleetStatus,
    FleetStatusServer,
    JsonlEventSink,
    ResultStore,
    ResumeState,
    ShardCoordinator,
    merge_event_streams,
    read_events,
    read_events_merged,
)
from repro.runtime import engine as engine_module
from repro.runtime.events import JobFinished, JobStarted
from repro.service.framing import decode_line, encode_line
from repro.sim.campaign import RunSpec
from repro.sim.serialize import run_result_to_dict


def specs_1b1s(count=5, instructions=120_000):
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


class TestCoordinator:
    def test_matches_serial_engine_at_any_shard_count(self, tmp_path):
        # Through the shim's whole API: width, metrics and log sink.
        specs = specs_1b1s(6)
        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        expected = canonical(serial.results)
        digests = {ResultStore(tmp_path / "serial").digest()}
        for shards in (1, 2, 4):
            store = tmp_path / f"s{shards}"
            events = []
            report = ShardCoordinator(
                shards, metrics=True, log_sink=CallbackSink(events.append)
            ).run(specs, store=store)
            assert canonical(report.results) == expected
            assert [o.index for o in report.outcomes] == list(
                range(len(specs))
            )
            assert report.metrics is not None
            (plan,) = [e for e in events if isinstance(e, CampaignPlan)]
            assert plan.shards == shards
            digests.add(ResultStore(store).digest())
        assert len(digests) == 1

    def test_replayed_log_facts_are_shard_count_invariant(self, tmp_path):
        from repro.runtime import replay_timings

        specs = specs_1b1s(5)
        logs = {}
        for shards in (1, 2, 4):
            path = tmp_path / f"log{shards}.jsonl"
            sink = JsonlEventSink(path)
            try:
                ExecutionEngine(shards, sinks=[sink]).run_many(
                    specs, store=tmp_path / f"store{shards}"
                )
            finally:
                sink.close()
            # Event *order* follows each fleet's wall clock; the
            # replayed per-job facts may not.
            logs[shards] = [
                (t.index, t.label, t.status, t.attempts)
                for t in replay_timings(read_events(path))
            ]
        assert logs[1] == logs[2] == logs[4]

    def test_collect_reports_failures_fail_fast_raises(self, tmp_path):
        specs = specs_1b1s(4)
        plan = FaultPlan(fail_attempts={2: 99})
        report = ExecutionEngine(
            2,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=plan,
        ).run_many(specs, store=tmp_path / "a")
        assert [o.index for o in report.failures] == [2]
        assert all(o.ok for i, o in enumerate(report.outcomes) if i != 2)
        with pytest.raises(CampaignError, match="failed"):
            ExecutionEngine(2, fault_plan=plan).run_many(
                specs, store=tmp_path / "b"
            )

    def test_metrics_fold_into_fleet_totals(self, tmp_path):
        specs = specs_1b1s(4)
        serial = ExecutionEngine(metrics=True).run_many(
            specs, store=tmp_path / "serial"
        )
        status = FleetStatus(len(specs))
        fleet = ExecutionEngine(2, metrics=True, sinks=[status]).run_many(
            specs, store=tmp_path / "fleet"
        )
        assert fleet.metrics is not None

        def counters(snapshot):
            # Timer series carry wall-clock values; only the
            # deterministic counters must fold to identical totals.
            return {
                json.dumps(
                    [entry["name"], entry["labels"]], sort_keys=True
                ): entry["data"]
                for entry in snapshot.to_dict()["series"]
                if entry["kind"] == "counter"
            }

        assert counters(fleet.metrics) == counters(serial.metrics)
        # The live exposition folded every snapshot as it arrived.
        assert "repro_sim_runs_total 4" in status.openmetrics()

    def test_resume_after_cut_matches_uninterrupted(self, tmp_path):
        specs = specs_1b1s(6)
        events = []
        full = ExecutionEngine(
            2, sinks=[CallbackSink(events.append)]
        ).run_many(specs, store=tmp_path / "store")
        # Cut the durable log shortly after the plan record: the
        # resume state sees at most a few completions, the store has
        # everything -- resume must reconcile and match bit-for-bit.
        plan_at = next(
            i for i, e in enumerate(events) if isinstance(e, CampaignPlan)
        )
        state = ResumeState.from_events(events[: plan_at + 3])
        assert state.shards == 2
        resumed = ExecutionEngine(state.shards).run_many(
            specs, resume_from=state, store=tmp_path / "store"
        )
        assert check_resume(full, resumed).ok
        assert all(o.cached for o in resumed.outcomes)

    def test_dead_worker_recovers_in_process(self, tmp_path, monkeypatch):
        specs = specs_1b1s(6)
        parent = os.getpid()
        execute = engine_module._execute_job

        def dies_in_worker(job, *args):
            # Job 1's worker exits on its own; the parent runs it.
            if job.index == 1 and os.getpid() != parent:
                os._exit(3)
            return execute(job, *args)

        # The forked workers inherit the patched module.
        monkeypatch.setattr(engine_module, "_execute_job", dies_in_worker)
        with pytest.warns(UserWarning, match="worker pool broke"):
            report = ExecutionEngine(2).run_many(
                specs, store=tmp_path / "store"
            )
        assert len(report.outcomes) == len(specs)
        assert all(o.ok for o in report.outcomes)
        serial = ExecutionEngine().run_many(specs, store=tmp_path / "s2")
        assert canonical(report.results) == canonical(serial.results)
        assert multiprocessing.active_children() == []

    def test_sampling_override_reaches_workers(self):
        # Workers inherit the override by fork; at 20 M instructions
        # the sampling change moves mix 0's SSER, so a worker running
        # the standard machine instead would show.
        from repro.config import STANDARD_MACHINES
        from repro.workloads.mixes import generate_workloads

        machine = STANDARD_MACHINES["2B2S"]().with_sampling(20, 5e-5)
        specs = [
            RunSpec("2B2S", mix.benchmarks, "reliability", 20_000_000,
                    seed=seed)
            for seed, mix in enumerate(generate_workloads(4)[:2])
        ]
        serial = ExecutionEngine().run_many(specs, machines=machine)
        standard = ExecutionEngine().run_many(specs)
        assert canonical(serial.results) != canonical(standard.results)
        report = ExecutionEngine(2).run_many(specs, machines=machine)
        assert canonical(report.results) == canonical(serial.results)
        descriptor = ExecutionEngine._machine_descriptor(machine)
        assert ExecutionEngine.machine_from_descriptor(descriptor) == machine

    def test_machine_list_runs_like_the_engine(self, tmp_path):
        from repro.config import STANDARD_MACHINES

        specs = specs_1b1s(4)
        slow = STANDARD_MACHINES["1B1S"]().with_small_frequency(1.0)
        machines = [None, slow, None, slow]
        serial = ExecutionEngine().run_many(specs, machines=machines)
        events = []
        report = ExecutionEngine(
            2, sinks=[CallbackSink(events.append)]
        ).run_many(specs, machines=machines)
        assert canonical(report.results) == canonical(serial.results)
        (plan,) = [e for e in events if isinstance(e, CampaignPlan)]
        assert plan.machine is None and plan.shards == 2

    def test_undescribable_override_runs_like_the_engine(self):
        import dataclasses

        from repro.config import STANDARD_MACHINES

        machine = dataclasses.replace(
            STANDARD_MACHINES["1B1S"](), migration_overhead_seconds=1e-4
        )
        assert ExecutionEngine._machine_descriptor(machine) is None
        # Long enough to migrate, so the overhead shows in the results.
        specs = specs_1b1s(3, instructions=2_000_000)
        serial = ExecutionEngine().run_many(specs, machines=machine)
        standard = ExecutionEngine().run_many(specs)
        assert canonical(serial.results) != canonical(standard.results)
        report = ExecutionEngine(2).run_many(specs, machines=machine)
        assert canonical(report.results) == canonical(serial.results)


class TestWorkStops:
    """A fleet's overrunning or aborted job leaves no worker behind."""

    def test_timeout_kills_the_stalled_worker(self, tmp_path):
        specs = specs_1b1s(4, instructions=2000)
        started = time.monotonic()
        report = ExecutionEngine(
            2,
            timeout_seconds=0.5,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(sleep_seconds={1: 30.0}),
        ).run_many(specs, store=tmp_path / "store")
        assert time.monotonic() - started < 10.0
        assert report.outcomes[1].error == "timed out after 0.5s"
        assert report.outcomes[1].attempts == 0
        assert all(o.ok for i, o in enumerate(report.outcomes) if i != 1)
        assert multiprocessing.active_children() == []

    def test_fail_fast_kills_the_in_flight_job(self, tmp_path):
        specs = specs_1b1s(4, instructions=2000)
        started = time.monotonic()
        with pytest.raises(CampaignError) as excinfo:
            ExecutionEngine(
                2,
                fault_plan=FaultPlan(
                    sleep_seconds={0: 30.0}, fail_attempts={1: 99}
                ),
            ).run_many(specs, store=tmp_path / "store")
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []
        errors = [o.error for o in excinfo.value.report.outcomes]
        assert "InjectedFault" in errors[1]
        assert errors[0] == "cancelled (fail-fast abort)"


def assert_reaped(pids):
    """Every pid is gone: exited *and* waited for, so no zombie."""
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestProcessTransport:
    """Fleets on the engine's forked worker processes."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_subprocess_fleet_matches_serial(self, tmp_path, shards):
        specs = specs_1b1s(4)
        # The serial run goes first, in this process: the forked
        # workers inherit the memos it warmed.
        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        pids = set()

        def note(event):
            if isinstance(event, JobStarted):
                pids.update(p.pid for p in multiprocessing.active_children())

        report = ExecutionEngine(
            shards, sinks=[CallbackSink(note)]
        ).run_many(specs, store=tmp_path / "fleet")
        assert canonical(report.results) == canonical(serial.results)
        assert (
            ResultStore(tmp_path / "serial").digest()
            == ResultStore(tmp_path / "fleet").digest()
        )
        # One shard runs in-process, as --jobs 1 does.
        if shards == 1:
            assert not pids
        else:
            assert_reaped(pids)

    def test_killed_worker_recovers_in_process(self, tmp_path):
        specs = specs_1b1s(6)
        # Job 1 sleeps, so its worker is still running when job 0's
        # finish event arrives and gets every worker killed.
        faults = FaultPlan(sleep_seconds={1: 0.5})
        killed = []

        def kill_workers(event):
            if isinstance(event, JobFinished) and not killed:
                killed.extend(multiprocessing.active_children())
                for child in killed:
                    os.kill(child.pid, signal.SIGKILL)

        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        with pytest.warns(UserWarning, match="worker pool broke"):
            report = ExecutionEngine(
                2, fault_plan=faults, sinks=[CallbackSink(kill_workers)]
            ).run_many(specs, store=tmp_path / "fleet")
        assert canonical(report.results) == canonical(serial.results)
        assert (
            ResultStore(tmp_path / "serial").digest()
            == ResultStore(tmp_path / "fleet").digest()
        )
        assert_reaped([child.pid for child in killed])

    @pytest.mark.parametrize(
        "module, name, error",
        [
            (os, "fork", OSError(errno.EAGAIN, "fork: no more processes")),
            (multiprocessing, "get_context", ValueError("no fork here")),
        ],
        ids=["fork-fails", "no-fork-platform"],
    )
    def test_unstartable_worker_recovers_in_process(
        self, tmp_path, monkeypatch, module, name, error
    ):
        specs = specs_1b1s(4)
        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, name, refuse)
        with pytest.warns(UserWarning, match="cannot fork workers"):
            report = ExecutionEngine(2).run_many(
                specs, store=tmp_path / "fleet"
            )
        assert canonical(report.results) == canonical(serial.results)
        assert (
            ResultStore(tmp_path / "serial").digest()
            == ResultStore(tmp_path / "fleet").digest()
        )


class TestMergedStreams:
    def make_stream(self, shard, times):
        return [
            JobFinished(
                index=shard * 10 + i,
                label=f"s{shard}/{i}",
                wall_seconds=0.0,
                timestamp=t,
            )
            for i, t in enumerate(times)
        ]

    def test_sorts_by_timestamp_then_shard(self):
        a = self.make_stream(0, [1.0, 3.0])
        b = self.make_stream(1, [1.0, 2.0])
        merged = merge_event_streams([a, b])
        assert [e.index for e in merged] == [0, 10, 11, 1]

    def test_permuting_completion_order_is_invisible(self):
        streams = [
            self.make_stream(s, [0.5 * s + i for i in range(3)])
            for s in range(3)
        ]
        baseline = merge_event_streams(streams)
        # The merge is a pure function of the per-shard streams;
        # arrival interleavings do not exist in its input space, so
        # canonical order survives any completion order.  Equal
        # timestamps break ties by stream position, deterministically.
        assert merge_event_streams(list(streams)) == baseline

    def test_within_stream_order_is_stable_on_ties(self):
        stream = self.make_stream(0, [1.0, 1.0, 1.0])
        assert merge_event_streams([stream]) == stream

    def test_read_events_merged(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, shard, times in (
            (a, 0, [1.0, 3.0]),
            (b, 1, [2.0]),
        ):
            sink = JsonlEventSink(path)
            for event in self.make_stream(shard, times):
                sink.emit(event)
            sink.close()
        merged = read_events_merged([a, b])
        assert [e.index for e in merged] == [0, 10, 1]
        # One path degrades to plain read_events.
        assert [e.index for e in read_events_merged([a])] == [0, 1]


class TestFleetTelemetry:
    def test_status_counts_and_line(self):
        status = FleetStatus(3)
        status.emit(
            JobFinished(index=0, label="a", wall_seconds=0.1,
                        trace={"campaign": "c", "shard": 0})
        )
        snap = status.snapshot()
        assert snap["total"] == 3
        assert snap["done"] == 1
        assert snap["queued"] == 2
        assert snap["shards"] == [{"shard": 0, "done": 1, "failed": 0}]
        assert snap["runs_per_s"] > 0
        assert snap["eta_seconds"] is not None
        line = status.format_line()
        assert "1/3 done" in line and "s0:1" in line

    @pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="needs unix sockets"
    )
    def test_status_server_speaks_service_framing(self, tmp_path):
        status = FleetStatus(1)
        server = FleetStatusServer(status, tmp_path / "fleet.sock")
        server.start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(tmp_path / "fleet.sock"))
                stream = sock.makefile("rw")
                for request, expect in (
                    ({"op": "ping"}, "pong"),
                    ({"op": "fleet"}, "fleet"),
                    ({"op": "nope"}, "error"),
                ):
                    stream.write(encode_line(request) + "\n")
                    stream.flush()
                    response = decode_line(stream.readline())
                    assert expect in response
                stream.write("not json\n")
                stream.flush()
                response = decode_line(stream.readline())
                assert not response["ok"]
                assert "bad json" in response["error"]
        finally:
            server.close()

    def test_coordinator_feeds_status(self, tmp_path):
        specs = specs_1b1s(6)
        store = tmp_path / "store"
        ExecutionEngine().run_many(specs[:2], store=store)
        status = FleetStatus(len(specs))
        report = ExecutionEngine(
            2,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=FaultPlan(fail_attempts={4: 99}),
            sinks=[status],
        ).run_many(specs, store=store)
        snap = status.snapshot()
        assert snap["done"] == 5 and snap["cached"] == 2
        assert snap["failed"] == 1 and snap["queued"] == 0
        # Cache hits are served in the engine's process; the per-slot
        # rows count exactly the jobs the workers ran.
        assert {s["shard"] for s in snap["shards"]} <= {0, 1}
        assert sum(s["done"] + s["failed"] for s in snap["shards"]) == (
            report.executed
        )
        assert sum(s["failed"] for s in snap["shards"]) == 1


class TestShardedStderrEvents:
    def test_live_sinks_see_every_job_event(self, tmp_path):
        specs = specs_1b1s(4)
        seen = []
        ExecutionEngine(2, sinks=[CallbackSink(seen.append)]).run_many(
            specs, store=tmp_path / "store"
        )
        finished = [e for e in seen if isinstance(e, JobFinished)]
        started = [e for e in seen if isinstance(e, JobStarted)]
        assert len(finished) == len(specs)
        assert len(started) == len(specs)
