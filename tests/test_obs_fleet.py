"""Fleet-wide correlated telemetry: trace propagation, span shipping,
postmortem bundles, the frozen event schema, and old-log compatibility.

These are the integration-level guarantees of the observability layer:
every event in a merged fleet log resolves to one campaign id, span
snapshots from any shard graft into one forest, failures leave a
postmortem bundle behind, and logs written before any of this existed
still replay unchanged.
"""

import json
import socket
import threading
from pathlib import Path

import pytest

from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import tracing as obs_tracing
from repro.obs.openmetrics import counter_totals, parse_exposition
from repro.runtime import (
    ExecutionEngine,
    FailurePolicy,
    FaultPlan,
    FleetStatus,
    FleetStatusServer,
    JsonlEventSink,
    ResultStore,
    ResumeState,
    RetryPolicy,
    read_events,
)
from repro.runtime.events import MetricsSnapshot
from repro.runtime.events import (
    PostmortemWritten,
    SpanSnapshot,
    UnknownEvent,
    event_from_dict,
    event_schema,
    replay_timings,
)
from repro.service.framing import decode_line, encode_line
from repro.sim.campaign import RunSpec

FIXTURES = Path(__file__).parent / "fixtures"


def specs_1b1s(count=5, instructions=120_000):
    pairs = [("povray", "milc"), ("gobmk", "bzip2"), ("mcf", "lbm")]
    return [
        RunSpec("1B1S", pairs[i % len(pairs)], "random", instructions,
                seed=i)
        for i in range(count)
    ]


def run_fleet(shards, specs, *, log=None, store=None, **kwargs):
    """A fleet run (one engine on ``shards`` workers), optionally
    logging to ``log``."""
    sinks = [JsonlEventSink(log)] if log is not None else []
    engine = ExecutionEngine(shards, sinks=sinks, **kwargs)
    try:
        return engine.run_many(specs, store=store)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Frozen event schema
# ---------------------------------------------------------------------------


class TestEventSchemaFrozen:
    def test_schema_matches_fixture(self):
        """The wire schema is frozen: changing an event's fields must be
        a deliberate act that updates tests/fixtures/event_schema.json
        (and considers old-reader compatibility)."""
        with open(FIXTURES / "event_schema.json") as handle:
            frozen = json.load(handle)
        assert event_schema() == frozen

    def test_new_kinds_degrade_for_old_readers(self):
        """A PR-8-era reader sees unknown kinds as UnknownEvent (the
        same mechanism current readers use for any future kind), so new
        logs never crash old tooling."""
        for event in (
            SpanSnapshot(index=0, label="a", spans={"name": "sim.run"}),
            PostmortemWritten(index=1, label="b", key="k", reason="failed"),
        ):
            data = json.loads(json.dumps(event.to_dict()))
            # Simulate an old reader: its registry has no such kind.
            data["event"] = "unreleased_" + data["event"]
            degraded = event_from_dict(data)
            assert isinstance(degraded, UnknownEvent)
            assert degraded.to_dict() == data

    def test_new_kinds_round_trip_for_current_readers(self):
        for event in (
            SpanSnapshot(index=0, label="a", spans={"name": "sim.run"}),
            PostmortemWritten(index=1, label="b", key="k", reason="timeout",
                              path="/tmp/x.json"),
        ):
            data = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(data) == event


class TestOldLogsStillReplay:
    def test_pr8_log_parses_with_its_checkpoint_unknown(self):
        """The log's one ``campaign_checkpoint`` line, a kind that
        restated the terminal job events and is no longer written,
        reads as UnknownEvent, verbatim; every other line parses."""
        events = read_events(FIXTURES / "pr8_event_log.jsonl")
        assert events, "fixture must not be empty"
        unknown = [e for e in events if isinstance(e, UnknownEvent)]
        assert [e.to_dict()["event"] for e in unknown] == [
            "campaign_checkpoint"
        ]
        assert unknown[0].to_dict()["pending"] == []
        assert all(e.trace is None for e in events)

    def test_pr8_log_replays_as_before(self, capsys):
        """What the log printed before checkpoints were retired."""
        from repro.cli.main import main

        log = FIXTURES / "pr8_event_log.jsonl"
        assert ResumeState.load(log).summary() == (
            "3 job(s): 3 completed, 0 failed, 0 pending"
        )
        assert [
            (t.index, t.status, t.attempts, t.wall_seconds)
            for t in replay_timings(log)
        ] == [
            (0, "ok", 1, 0.015117048998945393),
            (1, "ok", 1, 0.007122967999748653),
            (2, "ok", 1, 0.006905739999638172),
        ]
        assert main(["events", str(log)]) == 0
        assert capsys.readouterr().out == (
            "job                            label  status  attempts  wall s\n"
            "----  ------------------------------  ------  --------  ------\n"
            "0          1B1S/random/povray+milc#0      ok         1   0.015\n"
            "1     1B1S/performance/povray+milc#1      ok         1   0.007\n"
            "2     1B1S/reliability/povray+milc#2      ok         1   0.007\n"
            "\n"
            "3 jobs: 3 executed (0.03s simulated wall time), 0 cached, "
            "0 failed\n"
        )

    def test_pr8_log_replays_timings(self):
        timings = replay_timings(FIXTURES / "pr8_event_log.jsonl")
        assert len(timings) == 3
        assert all(t.wall_seconds >= 0 for t in timings)

    def test_pr8_log_loads_as_resume_state(self):
        state = ResumeState.load(FIXTURES / "pr8_event_log.jsonl")
        assert len(state.specs) == 3
        assert len(state.completed) == 3
        assert not state.pending

    def test_retired_job_reconciled_reads_as_unknown(self, tmp_path):
        """Logs written while the engine still reconciled timed-out
        pool jobs carry ``job_reconciled`` lines; they now read as
        UnknownEvent and change neither resume state nor timings."""
        lines = (FIXTURES / "pr8_event_log.jsonl").read_text().splitlines()
        retired = {
            "event": "job_reconciled", "index": 0,
            "label": "1B1S/random/povray+milc#0", "outcome": "completed",
            "wall_seconds": 1.25, "attempts": 1, "stored": True,
            "timestamp": 0.9,
        }
        log = tmp_path / "old.jsonl"
        log.write_text(
            "\n".join(lines[:-1] + [json.dumps(retired), lines[-1]]) + "\n"
        )
        events = read_events(log)
        unknown = [e for e in events if isinstance(e, UnknownEvent)]
        # The fixture's own campaign_checkpoint line is unknown too.
        assert len(unknown) == 2 and unknown[1].to_dict() == retired
        known = [e for e in events if not isinstance(e, UnknownEvent)]
        assert known == [
            e for e in read_events(FIXTURES / "pr8_event_log.jsonl")
            if not isinstance(e, UnknownEvent)
        ]
        assert ResumeState.from_events(events) == ResumeState.from_events(
            known
        )
        assert replay_timings(events) == replay_timings(known)


# ---------------------------------------------------------------------------
# Trace propagation across a fleet
# ---------------------------------------------------------------------------


class TestFleetTracePropagation:
    def test_every_merged_event_carries_one_campaign(self, tmp_path):
        log = tmp_path / "fleet.jsonl"
        report = run_fleet(
            2,
            specs_1b1s(6),
            log=log,
            store=tmp_path / "store",
            metrics=True,
            spans=True,
            fault_plan=FaultPlan(fail_attempts={2: 9}),
            failure_policy=FailurePolicy.COLLECT,
        )
        assert len(report.failures) == 1

        events = read_events(log)
        assert all(e.trace is not None for e in events)
        campaigns = {e.trace["campaign"] for e in events}
        assert len(campaigns) == 1
        shards = {
            e.trace["shard"] for e in events if "shard" in e.trace
        }
        assert shards == {0, 1}

    def test_run_key_resolves_to_store_entry(self, tmp_path):
        log = tmp_path / "fleet.jsonl"
        specs = specs_1b1s(4)
        run_fleet(2, specs, log=log, store=tmp_path / "store")
        keys = {spec.key() for spec in specs}
        stamped = [
            e for e in read_events(log)
            if e.trace and e.trace.get("run_key")
        ]
        assert stamped
        for event in stamped:
            assert event.trace["run_key"] in keys

    def test_ambient_context_is_inherited(self, tmp_path):
        outer = obs_context.TraceContext(campaign="feedf00dcafe")
        log = tmp_path / "fleet.jsonl"
        with obs_context.activate(outer):
            run_fleet(2, specs_1b1s(4), log=log)
        campaigns = {
            e.trace["campaign"] for e in read_events(log) if e.trace
        }
        assert campaigns == {"feedf00dcafe"}

    def test_campaign_id_stable_across_shard_counts(self, tmp_path):
        ids = []
        for shards in (1, 2):
            log = tmp_path / f"fleet{shards}.jsonl"
            run_fleet(shards, specs_1b1s(4), log=log)
            (campaign,) = {
                e.trace["campaign"] for e in read_events(log) if e.trace
            }
            ids.append(campaign)
        assert ids[0] == ids[1]


class TestFleetSpanForest:
    def test_span_forest_merged_across_shards(self, tmp_path):
        report = run_fleet(2, specs_1b1s(6), spans=True)
        assert report.spans is not None
        names = {name for name, _ in report.spans.children}
        assert "sim.run" in names
        total_runs = sum(
            child.count
            for (name, _), child in report.spans.children.items()
            if name == "sim.run"
        )
        assert total_runs == 6

    def test_span_snapshots_in_merged_log(self, tmp_path):
        log = tmp_path / "fleet.jsonl"
        run_fleet(2, specs_1b1s(4), log=log, spans=True)
        snapshots = [
            e for e in read_events(log) if isinstance(e, SpanSnapshot)
        ]
        assert len(snapshots) == 4
        merged = obs_tracing.merge_trees(
            obs_tracing.SpanNode.from_dict(s.spans) for s in snapshots
        )
        assert merged.children

    def test_no_span_events_when_disabled(self, tmp_path):
        log = tmp_path / "fleet.jsonl"
        report = run_fleet(2, specs_1b1s(4), log=log)
        assert report.spans is None
        assert not any(
            isinstance(e, SpanSnapshot) for e in read_events(log)
        )


# ---------------------------------------------------------------------------
# Postmortem bundles
# ---------------------------------------------------------------------------


class TestPostmortems:
    def test_failed_job_dumps_bundle_with_trace(self, tmp_path):
        store = tmp_path / "store"
        specs = specs_1b1s(6)
        report = run_fleet(
            2,
            specs,
            store=store,
            fault_plan=FaultPlan(fail_attempts={2: 9}),
            failure_policy=FailurePolicy.COLLECT,
        )
        (failure,) = report.failures

        bundles = obs_flight.find_bundles(store)
        assert len(bundles) == 1
        bundle = obs_flight.load_bundle(bundles[0])
        assert bundle["key"] == specs[failure.index].key()
        assert bundle["reason"] == "failed"
        assert "InjectedFault" in bundle["error"]
        assert bundle["trace"]["shard"] in (0, 1)
        assert bundle["flight"]["events"], "ring must hold recent events"
        rendered = obs_flight.format_bundle(bundle)
        assert "postmortem" in rendered and "InjectedFault" in rendered

    def test_postmortem_marker_event_in_log(self, tmp_path):
        log = tmp_path / "fleet.jsonl"
        run_fleet(
            2,
            specs_1b1s(5),
            log=log,
            store=tmp_path / "store",
            fault_plan=FaultPlan(fail_attempts={1: 9}),
            failure_policy=FailurePolicy.COLLECT,
        )
        markers = [
            e for e in read_events(log)
            if isinstance(e, PostmortemWritten)
        ]
        assert len(markers) == 1
        assert markers[0].reason == "failed"
        assert markers[0].path.endswith(".json")

    def test_timeout_dumps_timeout_bundle(self, tmp_path):
        store = tmp_path / "store"
        engine = ExecutionEngine(
            jobs=2,
            timeout_seconds=0.5,
            fault_plan=FaultPlan(sleep_seconds={0: 5.0}),
            failure_policy=FailurePolicy.COLLECT,
        )
        report = engine.run_many(
            specs_1b1s(2, instructions=2000), store=store
        )
        engine.close()
        assert len(report.failures) == 1
        (bundle_path,) = obs_flight.find_bundles(store)
        assert obs_flight.load_bundle(bundle_path)["reason"] == "timeout"

    def test_no_bundles_without_store(self):
        engine = ExecutionEngine(
            jobs=1,
            fault_plan=FaultPlan(fail_attempts={0: 9}),
            failure_policy=FailurePolicy.COLLECT,
        )
        report = engine.run_many(specs_1b1s(2))
        assert len(report.failures) == 1  # no store -> nowhere to dump

    def test_clean_fleet_leaves_no_bundles(self, tmp_path):
        store = tmp_path / "store"
        run_fleet(2, specs_1b1s(4), store=store)
        assert obs_flight.find_bundles(store) == []

    def test_retried_recovery_leaves_no_bundle(self, tmp_path):
        store = tmp_path / "store"
        report = run_fleet(
            2,
            specs_1b1s(4),
            store=store,
            retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.0),
            fault_plan=FaultPlan(fail_attempts={0: 1}),
        )
        assert report.ok  # the injected fault was retried away
        assert obs_flight.find_bundles(store) == []

    def test_store_digest_unaffected_by_bundles(self, tmp_path):
        store = tmp_path / "store"
        run_fleet(1, specs_1b1s(4), store=store)
        before = ResultStore(store).digest()
        # postmortems/ is a subdirectory, outside the digest's
        # non-recursive ``*.json`` glob.
        obs_flight.dump_bundle(store, "deadbeef", reason="failed")
        assert obs_flight.find_bundles(store)
        assert ResultStore(store).digest() == before


# ---------------------------------------------------------------------------
# Status socket: metrics op + client-thread hygiene
# ---------------------------------------------------------------------------


def query_socket(path, op):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.connect(str(path))
        with client.makefile("rw") as stream:
            stream.write(encode_line({"op": op}) + "\n")
            stream.flush()
            return decode_line(stream.readline())


class TestStatusSocketMetrics:
    def test_metrics_op_returns_parseable_exposition(self, tmp_path):
        status = FleetStatus(4)
        server = FleetStatusServer(status, tmp_path / "status.sock")
        server.start()
        try:
            response = query_socket(tmp_path / "status.sock", "metrics")
            assert response["ok"] is True
            exposition = parse_exposition(response["openmetrics"])
            assert exposition.saw_eof
            assert exposition.value("repro_fleet_total") == 4
        finally:
            server.close()

    def test_metrics_op_serves_the_campaign_metrics(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("sim.runs").inc()
        status = FleetStatus(2)
        for index in (0, 1):
            status.emit(MetricsSnapshot(
                index=index,
                label=f"job{index}",
                metrics=registry.snapshot().to_dict(),
            ))
        server = FleetStatusServer(status, tmp_path / "status.sock")
        server.start()
        try:
            response = query_socket(tmp_path / "status.sock", "metrics")
            exposition = parse_exposition(response["openmetrics"])
            assert exposition.value("repro_sim_runs_total") == 2
            assert exposition.value("repro_fleet_total") == 2
        finally:
            server.close()

    def test_close_joins_connected_client_threads(self, tmp_path):
        """The satellite fix: serve_client threads must be tracked and
        joined on close, even with a client parked mid-connection."""
        server = FleetStatusServer(FleetStatus(1), tmp_path / "s.sock")
        server.start()
        before = set(threading.enumerate())
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.connect(str(tmp_path / "s.sock"))
        with client.makefile("rw") as stream:
            stream.write(encode_line({"op": "ping"}) + "\n")
            stream.flush()
            assert decode_line(stream.readline())["ok"] is True
            # The client holds its end open; close() must still return
            # and reap the handler thread.
            server.close()
        client.close()
        lingering = [
            t for t in set(threading.enumerate()) - before if t.is_alive()
        ]
        assert lingering == []

    def test_repeated_start_close_cycles(self, tmp_path):
        baseline = threading.active_count()
        for cycle in range(3):
            server = FleetStatusServer(
                FleetStatus(1), tmp_path / f"s{cycle}.sock"
            )
            server.start()
            response = query_socket(tmp_path / f"s{cycle}.sock", "fleet")
            assert response["ok"] is True
            server.close()
        assert threading.active_count() == baseline


# ---------------------------------------------------------------------------
# OpenMetrics totals are shard-count invariant
# ---------------------------------------------------------------------------


class TestFleetMetricsInvariance:
    def test_counter_totals_identical_across_shard_counts(self):
        from repro.obs.openmetrics import render_snapshot

        specs = specs_1b1s(6)
        rendered = {}
        for shards in (1, 2, 4):
            report = run_fleet(shards, specs, metrics=True)
            assert report.metrics is not None
            rendered[shards] = render_snapshot(report.metrics)
        totals = {
            shards: counter_totals(parse_exposition(text))
            for shards, text in rendered.items()
        }
        assert totals[1] == totals[2] == totals[4]
        assert totals[1][("sim_runs", ())] == 6
