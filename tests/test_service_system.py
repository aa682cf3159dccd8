"""Open-system end-to-end tests: conservation, determinism, overload.

The heavy lifting happens in :mod:`repro.service.server`; these tests
pin the properties the service's telemetry is trusted for: every job
is accounted for, the event feed is byte-identical across runs,
overload sheds (rather than queueing unboundedly), and the decision
trace stays chain-valid across mid-stream arrivals, departures and
migrations.
"""

import json

import pytest

from repro.check import check_service
from repro.config import machine_1b1s, machine_2b2s
from repro.obs.decisions import DecisionTraceRecorder, replay_trace
from repro.service import (
    OpenSystem,
    ServiceConfig,
    ServiceFeed,
    make_process,
    run_load_point,
    service_benchmark_pool,
)
from repro.service.load import exact_percentile, format_load_table

#: Deliberate-overload configuration: a 1B1S machine with 2M-instruction
#: jobs arriving at 2000/s cannot keep up, so both shed paths fire.
OVERLOAD = dict(
    machine=machine_1b1s,
    queue_capacity=4,
    deadline_seconds=0.005,
    rate=2000.0,
    instructions=2_000_000,
    arrivals=120,
)


def build_config(machine_factory=machine_2b2s, **overrides):
    return ServiceConfig(machine=machine_factory(), **overrides)


def run_system(config, process, count, *, recorder=None):
    feed = ServiceFeed()
    system = OpenSystem(config, feed=feed, recorder=recorder)
    system.enqueue_arrivals(process.stream(count))
    result = system.run()
    return result, feed, system


def nominal_process(seed=0, rate=400.0, instructions=400_000):
    return make_process(
        "poisson",
        rate,
        service_benchmark_pool(),
        seed=seed,
        instructions=instructions,
    )


class TestConservation:
    def test_every_arrival_is_accounted_for(self):
        config = build_config(queue_capacity=8, deadline_seconds=0.01)
        result, feed, _ = run_system(config, nominal_process(), 40)
        assert result.arrived == 40
        assert result.arrived == result.admitted + result.shed
        assert result.admitted == result.completed + result.in_flight
        assert result.in_flight == 0  # run() drains the system
        assert check_service(result).ok
        counts = feed.counts()
        assert counts["arrive"] == result.arrived
        assert counts["start"] == result.admitted
        assert counts.get("shed", 0) == result.shed
        assert counts["depart"] == result.completed

    def test_invariant_flags_lost_jobs(self):
        import dataclasses

        config = build_config(queue_capacity=8)
        result, _, _ = run_system(config, nominal_process(), 10)
        broken = dataclasses.replace(result, arrived=result.arrived + 1)
        report = check_service(broken)
        assert not report.ok
        assert "open_system_conservation" in report.invariant_names()
        broken = dataclasses.replace(result, completed=result.completed - 1)
        assert not check_service(broken).ok

    def test_completed_jobs_carry_reliability_metrics(self):
        config = build_config(queue_capacity=8)
        result, _, _ = run_system(config, nominal_process(), 20)
        done = [j for j in result.jobs if j["status"] == "completed"]
        assert done
        assert all(j["wser"] > 0 for j in done)
        assert all(j["slowdown"] >= 1.0 for j in done)
        assert result.sser == pytest.approx(sum(j["wser"] for j in done))


class TestDeterminism:
    def test_feed_byte_identical_across_runs(self):
        config = build_config(queue_capacity=8, deadline_seconds=0.01)
        _, first, _ = run_system(config, nominal_process(seed=4), 30)
        _, second, _ = run_system(config, nominal_process(seed=4), 30)
        assert first.lines == second.lines
        assert first.digest() == second.digest()

    def test_different_seeds_differ(self):
        config = build_config(queue_capacity=8)
        _, a, _ = run_system(config, nominal_process(seed=0), 20)
        _, b, _ = run_system(config, nominal_process(seed=1), 20)
        assert a.lines != b.lines

    def test_feed_keeps_each_event_once(self):
        # The JSON line is the one stored copy; the dicts decode from
        # it, so a load point shipped back from a worker carries no
        # second copy of its events.
        config = build_config(queue_capacity=8, deadline_seconds=0.01)
        _, feed, _ = run_system(config, nominal_process(seed=4), 30)
        assert set(vars(feed)) == {"lines", "_stream"}
        events = feed.events
        assert len(events) == len(feed.lines) > 0
        assert [
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in events
        ] == feed.lines
        assert [event["event"] for event in events[:1]] == ["arrive"]


class TestOverload:
    def overload_run(self):
        config = build_config(
            OVERLOAD["machine"],
            queue_capacity=OVERLOAD["queue_capacity"],
            deadline_seconds=OVERLOAD["deadline_seconds"],
            admission="sser",
        )
        process = make_process(
            "poisson",
            OVERLOAD["rate"],
            service_benchmark_pool(),
            seed=0,
            instructions=OVERLOAD["instructions"],
        )
        return run_system(config, process, OVERLOAD["arrivals"])

    def test_overload_sheds_via_both_paths(self):
        result, _, _ = self.overload_run()
        assert result.shed > 0
        assert result.shed_reasons.get("queue_full", 0) > 0
        assert result.shed_reasons.get("deadline", 0) > 0
        assert check_service(result).ok

    def test_shedding_bounds_admitted_queueing_delay(self):
        result, _, system = self.overload_run()
        quantum = system.machine.quantum_seconds
        bound = OVERLOAD["deadline_seconds"] + quantum + 1e-12
        p99 = exact_percentile(result.waits, 0.99)
        assert p99 is not None and p99 <= bound
        assert max(result.waits) <= bound

    def test_load_point_reports_shed_rate(self):
        config = build_config(
            OVERLOAD["machine"],
            queue_capacity=OVERLOAD["queue_capacity"],
            deadline_seconds=OVERLOAD["deadline_seconds"],
        )
        process = make_process(
            "poisson",
            OVERLOAD["rate"],
            service_benchmark_pool(),
            seed=0,
            instructions=OVERLOAD["instructions"],
        )
        point = run_load_point(config, process, 60)
        assert point.shed_rate > 0
        table = format_load_table([point])
        assert "shed%" in table and "p99_wait_ms" in table
        assert f"{point.result.arrived}" in table


class TestDecisionTrace:
    def test_trace_chain_validates_across_churn(self):
        """Arrivals, departures and migrations between quanta must not
        break the before/after chain (satellite: mid-stream churn)."""
        from repro.check import check_decision_trace

        config = build_config(queue_capacity=8, deadline_seconds=0.01)
        recorder = DecisionTraceRecorder()
        result, feed, system = run_system(
            config, nominal_process(seed=3), 30, recorder=recorder
        )
        records = recorder.records
        assert records
        # The stream really churned mid-trace: jobs arrived and departed
        # while others were running, and at least one migration fired.
        assert result.completed == 30
        assert feed.counts().get("migrate", 0) > 0
        phases = {r.phase for r in records}
        assert "admit" in phases and "depart" in phases
        report = check_decision_trace(records)
        assert report.ok, report.format()
        final = replay_trace(records)
        assert final == system.placer.assignment.core_of

    def test_shed_phase_recorded_under_overload(self):
        config = build_config(
            machine_1b1s,
            queue_capacity=2,
            deadline_seconds=0.004,
        )
        recorder = DecisionTraceRecorder()
        process = make_process(
            "poisson",
            2000.0,
            service_benchmark_pool(),
            seed=0,
            instructions=2_000_000,
        )
        result, _, _ = run_system(config, process, 40, recorder=recorder)
        assert result.shed > 0
        assert any(r.phase == "shed" for r in recorder.records)
        from repro.check import check_decision_trace

        assert check_decision_trace(recorder.records).ok


class TestInteraction:
    def test_submit_enqueues_at_current_virtual_time(self):
        config = build_config(queue_capacity=4)
        system = OpenSystem(config, feed=ServiceFeed())
        job_id = system.submit("povray", 200_000, None)
        assert job_id == 0
        for _ in range(40):
            if system.drained():
                break
            system.step()
        result = system.result()
        assert result.completed == 1
        assert result.in_flight == 0
        assert check_service(result).ok

    def test_out_of_order_arrivals_rejected(self):
        from repro.service.arrivals import JobArrival

        config = build_config()
        system = OpenSystem(config, feed=ServiceFeed())
        with pytest.raises(ValueError):
            system.enqueue_arrivals(
                [
                    JobArrival(0, 0.5, "mcf", 1000),
                    JobArrival(1, 0.2, "mcf", 1000),
                ]
            )
