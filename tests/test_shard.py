"""Tests for sharded campaign execution (`repro.runtime.shard`).

The shard coordinator's contract is byte-identity with the single-host
engine: same results, same store bytes, same canonical event log, for
any shard count, any transport, and any worker completion order.
These tests pin the keyspace partition, the wire protocol, the
coordinator/worker loop over both transports, dead-worker recovery,
kill-and-resume, and the merged fleet telemetry.
"""

import errno
import json
import multiprocessing
import os
import shutil
import signal
import socket

import pytest

from repro.check import check_resume
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime import (
    CallbackSink,
    CampaignError,
    CampaignPlan,
    ExecutionEngine,
    FailurePolicy,
    FaultPlan,
    FleetStatus,
    FleetStatusServer,
    InProcessShardTransport,
    JobOutcome,
    JsonlEventSink,
    ProcessShardTransport,
    ResultStore,
    ResumeState,
    ShardCoordinator,
    ShardPlan,
    ShardProtocolError,
    merge_event_streams,
    partition_indices,
    read_events,
    read_events_merged,
    shard_of,
)
from repro.runtime import shard as shard_module
from repro.runtime.events import JobFinished, JobStarted
from repro.runtime.shard import _SHARD_LOCAL_EVENTS
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


def inprocess_coordinator(shards, **kwargs) -> ShardCoordinator:
    return ShardCoordinator(
        shards, transport_factory=InProcessShardTransport, **kwargs
    )


class TestPartition:
    def test_disjoint_cover(self):
        keys = [spec.key() for spec in specs_1b1s(12)]
        for shards in (1, 2, 3, 4, 7):
            owners = partition_indices(keys, shards)
            assert len(owners) == shards
            flat = sorted(i for indices in owners for i in indices)
            assert flat == list(range(len(keys)))
            for shard, indices in enumerate(owners):
                assert indices == sorted(indices)
                for index in indices:
                    assert shard_of(keys[index], shards) == shard

    def test_single_shard_owns_everything(self):
        keys = [spec.key() for spec in specs_1b1s(4)]
        assert partition_indices(keys, 1) == [list(range(4))]

    def test_stable_across_calls(self):
        keys = [spec.key() for spec in specs_1b1s(8)]
        assert partition_indices(keys, 3) == partition_indices(keys, 3)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shard_of("ff", 0)
        with pytest.raises(ValueError):
            ShardCoordinator(0)


class TestProtocol:
    def make_plan(self, **overrides) -> ShardPlan:
        specs = specs_1b1s(3)
        defaults = dict(
            shard=1,
            shards=2,
            indices=(0, 2, 4),
            specs=tuple(specs),
            labels=("a", "b", "c"),
            store="/tmp/store",
            machine=None,
            metrics=True,
            checks=False,
            max_attempts=2,
            checkpoint_every=4,
            fail_attempts={1: 99},
            sleep_seconds=None,
        )
        defaults.update(overrides)
        return ShardPlan(**defaults)

    def test_plan_roundtrips_through_the_wire(self):
        plan = self.make_plan()
        line = encode_line(plan.to_message())
        again = ShardPlan.from_message(decode_line(line))
        assert again == plan
        # JSON stringifies mapping keys; the codec restores ints.
        assert again.fail_attempts == {1: 99}

    def test_version_mismatch_rejected(self):
        message = self.make_plan().to_message()
        message["protocol"] = 999
        with pytest.raises(ShardProtocolError, match="version"):
            ShardPlan.from_message(message)

    def test_non_plan_message_rejected(self):
        with pytest.raises(ShardProtocolError, match="plan"):
            ShardPlan.from_message({"msg": "done"})

    def test_outcome_roundtrips_through_the_wire(self, tmp_path):
        specs = specs_1b1s(1)
        report = ExecutionEngine().run_many(specs, store=tmp_path)
        outcome = report.outcomes[0]
        line = encode_line({"outcome": outcome.to_dict()})
        again = JobOutcome.from_dict(decode_line(line)["outcome"])
        assert again.index == outcome.index
        assert again.spec == outcome.spec
        assert again.label == outcome.label
        assert again.cached == outcome.cached
        assert run_result_to_dict(again.result) == run_result_to_dict(
            outcome.result
        )


class TestCoordinator:
    def test_matches_serial_engine_at_any_shard_count(self, tmp_path):
        specs = specs_1b1s(6)
        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        expected = canonical(serial.results)
        digests = {ResultStore(tmp_path / "serial").digest()}
        for shards in (1, 2, 4):
            store = tmp_path / f"s{shards}"
            report = inprocess_coordinator(shards).run(specs, store=store)
            assert canonical(report.results) == expected
            assert [o.index for o in report.outcomes] == list(
                range(len(specs))
            )
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
                inprocess_coordinator(shards, log_sink=sink).run(
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
        report = inprocess_coordinator(
            2,
            failure_policy=FailurePolicy.COLLECT,
            fault_plan=plan,
        ).run(specs, store=tmp_path / "a")
        assert [o.index for o in report.failures] == [2]
        assert all(o.ok for i, o in enumerate(report.outcomes) if i != 2)
        with pytest.raises(CampaignError, match="failed"):
            inprocess_coordinator(2, fault_plan=plan).run(
                specs, store=tmp_path / "b"
            )

    def test_metrics_fold_into_fleet_totals(self, tmp_path):
        specs = specs_1b1s(4)
        serial = ExecutionEngine(metrics=True).run_many(
            specs, store=tmp_path / "serial"
        )
        fleet = inprocess_coordinator(2, metrics=True).run(
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

    def test_shard_logs_are_standalone_campaign_logs(self, tmp_path):
        specs = specs_1b1s(5)
        log = tmp_path / "log.jsonl"
        sink = JsonlEventSink(log)
        try:
            inprocess_coordinator(
                2, log_sink=sink, shard_log_base=log
            ).run(specs, store=tmp_path / "store")
        finally:
            sink.close()
        seen = set()
        for shard in (0, 1):
            events = read_events(
                tmp_path / f"log.jsonl.shard{shard}.jsonl"
            )
            plans = [e for e in events if isinstance(e, CampaignPlan)]
            assert len(plans) == 1  # standalone, individually resumable
            state = ResumeState.from_events(events)
            assert state.pending == set()
            seen.update(state.keys)
        assert seen == {spec.key() for spec in specs}

    def test_resume_after_cut_matches_uninterrupted(self, tmp_path):
        specs = specs_1b1s(6)
        events = []
        coordinator = inprocess_coordinator(
            2, log_sink=CallbackSink(events.append)
        )
        full = coordinator.run(specs, store=tmp_path / "store")
        # Cut the durable log shortly after the plan record: the
        # resume state sees at most a few completions, the store has
        # everything -- resume must reconcile and match bit-for-bit.
        plan_at = next(
            i for i, e in enumerate(events) if isinstance(e, CampaignPlan)
        )
        state = ResumeState.from_events(events[: plan_at + 3])
        assert state.shards == 2
        resumed = inprocess_coordinator(2).run(
            specs, resume_from=state, store=tmp_path / "store"
        )
        assert check_resume(full, resumed).ok
        assert all(o.cached for o in resumed.outcomes)

    def test_dead_worker_recovers_in_process(self, tmp_path):
        specs = specs_1b1s(6)

        class DyingTransport(InProcessShardTransport):
            """Shard 1's worker vanishes before sending anything."""

            def start(self, plan, deliver):
                if plan.shard == 1:
                    deliver(None)  # EOF with no done message
                else:
                    super().start(plan, deliver)

        report = ShardCoordinator(
            2, transport_factory=DyingTransport
        ).run(specs, store=tmp_path / "store")
        assert len(report.outcomes) == len(specs)
        assert all(o.ok for o in report.outcomes)
        serial = ExecutionEngine().run_many(specs, store=tmp_path / "s2")
        assert canonical(report.results) == canonical(serial.results)

    def test_machine_list_rejected(self):
        from repro.config import STANDARD_MACHINES

        machines = [STANDARD_MACHINES["1B1S"]()]
        with pytest.raises(ValueError, match="single machine"):
            inprocess_coordinator(2).run(specs_1b1s(2), machines=machines)

    def test_sampling_override_reaches_workers(self):
        # Workers rebuild the override from the plan's descriptor; at
        # 20 M instructions the sampling change moves mix 0's SSER, so
        # a worker running the standard machine instead would show.
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
        report = inprocess_coordinator(2).run(specs, machines=machine)
        assert canonical(report.results) == canonical(serial.results)
        descriptor = ExecutionEngine._machine_descriptor(machine)
        assert ExecutionEngine.machine_from_descriptor(descriptor) == machine

    def test_undescribable_override_rejected(self):
        import dataclasses

        from repro.config import STANDARD_MACHINES

        machine = dataclasses.replace(
            STANDARD_MACHINES["1B1S"](), migration_overhead_seconds=1e-4
        )
        with pytest.raises(ValueError, match="cannot describe"):
            inprocess_coordinator(2).run(specs_1b1s(2), machines=machine)


def spying_transport(on_message):
    """A :class:`ProcessShardTransport` that shows every message to
    ``on_message(shard, message)`` (on its reader thread) first."""

    class SpyingTransport(ProcessShardTransport):
        def start(self, plan, deliver):
            def spy(message):
                if message is not None:
                    on_message(plan.shard, message)
                deliver(message)

            super().start(plan, spy)

    return SpyingTransport


def parent_pid(pid):
    """Parent of a live process, from ``/proc`` (Linux only)."""
    with open(f"/proc/{pid}/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[1])


def assert_reaped(pids):
    """Every pid is gone: exited *and* waited for, so no zombie."""
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestProcessTransport:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_subprocess_fleet_matches_serial(self, tmp_path, shards):
        specs = specs_1b1s(4)
        # The serial run goes first, in this process: the forked
        # workers inherit the memos it warmed.
        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        pids = set()

        def note(shard, message):
            if message.get("msg") == "hello":
                pids.add(message["pid"])

        report = ShardCoordinator(
            shards, transport_factory=spying_transport(note)
        ).run(specs, store=tmp_path / "fleet")
        assert canonical(report.results) == canonical(serial.results)
        assert (
            ResultStore(tmp_path / "serial").digest()
            == ResultStore(tmp_path / "fleet").digest()
        )
        assert_reaped(pids)

    def test_killed_worker_recovers_in_process(self, tmp_path):
        specs = specs_1b1s(6)
        owners = partition_indices([spec.key() for spec in specs], 2)
        victim = max(range(2), key=lambda shard: len(owners[shard]))
        assert len(owners[victim]) >= 2
        # The victim's second job sleeps, so the worker is still alive
        # when its first job's finish event arrives and gets it killed.
        faults = FaultPlan(sleep_seconds={owners[victim][1]: 0.5})
        pids, parents = {}, {}

        def kill_mid_shard(shard, message):
            kind = message.get("msg")
            if kind == "hello":
                pids[shard] = message["pid"]
                if shard == victim and os.path.exists("/proc/self/stat"):
                    parents[shard] = parent_pid(message["pid"])
            elif (
                shard == victim
                and kind == "event"
                and message["event"]["event"] == "job_finished"
            ):
                os.kill(pids[shard], signal.SIGKILL)

        serial = ExecutionEngine().run_many(
            specs, store=tmp_path / "serial"
        )
        with pytest.warns(UserWarning, match="worker died before"):
            report = ShardCoordinator(
                2,
                transport_factory=spying_transport(kill_mid_shard),
                fault_plan=faults,
            ).run(specs, store=tmp_path / "fleet")
        assert canonical(report.results) == canonical(serial.results)
        assert (
            ResultStore(tmp_path / "serial").digest()
            == ResultStore(tmp_path / "fleet").digest()
        )
        if os.path.exists("/proc/self/stat"):
            # The worker is a direct child of the coordinator.
            assert parents == {victim: os.getpid()}
        assert_reaped(pids.values())

    def test_stray_worker_stdout_never_reaches_coordinator(
        self, tmp_path, monkeypatch, capfd
    ):
        run_worker = shard_module.run_worker

        def noisy(plan, send):
            print(f"stray output from shard {plan.shard}")
            run_worker(plan, send)

        # The fork inherits the patched module.
        monkeypatch.setattr(shard_module, "run_worker", noisy)
        specs = specs_1b1s(4)
        capfd.readouterr()
        with pytest.warns(UserWarning, match="non-protocol output"):
            report = ShardCoordinator(2).run(
                specs, store=tmp_path / "fleet"
            )
        assert all(outcome.ok for outcome in report.outcomes)
        assert capfd.readouterr().out == ""

    def test_coordinator_telemetry_stays_out_of_workers(self, tmp_path):
        specs = specs_1b1s(4)
        store = tmp_path / "store"

        def shipped_events():
            shipped = {}

            def note(shard, message):
                if message.get("msg") == "event":
                    event = dict(message["event"])
                    event.pop("timestamp", None)
                    event.pop("wall_seconds", None)
                    shipped.setdefault(shard, []).append(event)

            shutil.rmtree(store, ignore_errors=True)
            ShardCoordinator(
                2, transport_factory=spying_transport(note)
            ).run(specs, store=store)
            return shipped

        outside = shipped_events()
        with obs_tracing.collecting(), obs_metrics.collecting():
            with obs_tracing.span("outer.probe"):
                inside = shipped_events()
        assert inside == outside
        traces = [
            event.get("trace", {})
            for events in inside.values()
            for event in events
        ]
        assert traces and not any("parent" in trace for trace in traces)

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
        with pytest.warns(UserWarning, match="cannot start worker"):
            report = ShardCoordinator(2).run(
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
        status = FleetStatus([2, 1])
        status.mark_started(0)
        status.record_event(
            0, JobFinished(index=0, label="a", wall_seconds=0.1)
        )
        snap = status.snapshot()
        assert snap["total"] == 3
        assert snap["done"] == 1
        assert snap["queued"] == 2
        assert snap["runs_per_s"] > 0
        assert snap["eta_seconds"] is not None
        line = status.format_line()
        assert "1/3 done" in line and "s0:1/2" in line

    @pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="needs unix sockets"
    )
    def test_status_server_speaks_service_framing(self, tmp_path):
        status = FleetStatus([1])
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
        specs = specs_1b1s(4)
        coordinator = inprocess_coordinator(2)
        coordinator.run(specs, store=tmp_path / "store")
        snap = coordinator.status.snapshot()
        assert snap["done"] == len(specs)
        assert snap["failed"] == 0
        assert snap["queued"] == 0
        assert all(s["finished"] for s in snap["shards"])


class TestShardedStderrEvents:
    def test_live_sinks_see_every_job_event(self, tmp_path):
        specs = specs_1b1s(4)
        seen = []
        inprocess_coordinator(2, sinks=[CallbackSink(seen.append)]).run(
            specs, store=tmp_path / "store"
        )
        finished = [e for e in seen if isinstance(e, JobFinished)]
        started = [e for e in seen if isinstance(e, JobStarted)]
        assert len(finished) == len(specs)
        assert len(started) == len(specs)
