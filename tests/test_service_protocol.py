"""Tests for the line-oriented JSON scheduler-service protocol."""

import asyncio
import io
import json

import pytest

from repro.config import machine_1b1s
from repro.service import (
    OpenSystem,
    SchedulerService,
    ServiceConfig,
    ServiceFeed,
)
from repro.service import server


def build_service(**overrides):
    config = ServiceConfig(machine=machine_1b1s(), **overrides)
    return SchedulerService(OpenSystem(config, feed=ServiceFeed()))


def dispatch(service, request):
    return asyncio.run(service.handle(request))


class TestDispatch:
    def test_submit_step_job_lifecycle(self):
        service = build_service()
        response = dispatch(
            service,
            {"op": "submit", "benchmark": "povray",
             "instructions": 200_000},
        )
        assert response == {"ok": True, "job_id": 0}
        response = dispatch(service, {"op": "step", "quanta": 5})
        assert response["ok"] and response["quantum"] == 5
        assert response["time"] == pytest.approx(5e-3)
        response = dispatch(service, {"op": "job", "job_id": 0})
        assert response["ok"]
        assert response["job"]["status"] == "completed"
        assert response["job"]["wser"] > 0

    def test_submit_uses_default_instructions(self):
        service = build_service()
        service.default_instructions = 50_000
        dispatch(service, {"op": "submit", "benchmark": "mcf"})
        dispatch(service, {"op": "step"})
        assert service.system.jobs[0].instructions == 50_000

    def test_placement_lists_every_slot(self):
        service = build_service()
        dispatch(service, {"op": "submit", "benchmark": "povray"})
        dispatch(service, {"op": "step"})
        response = dispatch(service, {"op": "placement"})
        assert response["ok"]
        placement = response["placement"]
        assert [entry["slot"] for entry in placement] == [0, 1]
        assert {entry["core_type"] for entry in placement} == {
            "big", "small",
        }

    def test_stats_reports_conservation_fields(self):
        service = build_service()
        dispatch(service, {"op": "submit", "benchmark": "povray"})
        dispatch(service, {"op": "step"})  # arrivals drain at boundaries
        response = dispatch(service, {"op": "stats"})
        stats = response["stats"]
        assert stats["arrived"] == 1
        assert stats["arrived"] == stats["admitted"] + stats["shed"]
        assert "queue_depth" in stats

    def test_shutdown_closes_session(self):
        service = build_service()
        assert dispatch(service, {"op": "shutdown"}) == {
            "ok": True, "shutdown": True,
        }
        assert service.closed

    def test_errors_are_reported_not_raised(self):
        service = build_service()
        assert not dispatch(service, {"op": "warp"})["ok"]
        assert not dispatch(service, {"op": "job", "job_id": 99})["ok"]
        assert not dispatch(service, {"op": "step", "quanta": 0})["ok"]
        response = dispatch(service, {"op": "submit", "benchmark": "doom3"})
        assert not response["ok"] and "error" in response

    def test_handle_line_tolerates_bad_input(self):
        service = build_service()
        assert asyncio.run(service.handle_line("")) == ""
        response = json.loads(asyncio.run(service.handle_line("not json")))
        assert not response["ok"] and "bad json" in response["error"]
        response = json.loads(asyncio.run(service.handle_line("[1, 2]")))
        assert not response["ok"]


class TestProfileCache:
    def test_distinct_submissions_leave_no_cached_profiles(self):
        """Each job drops the profile it resolved at admission when it
        departs, and the reference times cached per (benchmark,
        instructions) stay bounded."""
        service = build_service()

        async def session():
            for k in range(3000):
                await service.handle(
                    {"op": "submit", "benchmark": "povray",
                     "instructions": 1_000_000 + k}
                )
                await service.handle({"op": "step"})
            await service.handle({"op": "step"})

        asyncio.run(session())
        system = service.system
        assert system.completed == 3000
        assert all(job.profile is None for job in system.jobs.values())
        assert len(system._reference) <= server.REFERENCE_CACHE_CAP


class TestStdioTransport:
    def test_serve_stdio_round_trip(self):
        service = build_service()
        requests = "\n".join(
            json.dumps(r)
            for r in (
                {"op": "submit", "benchmark": "povray",
                 "instructions": 200_000},
                {"op": "step", "quanta": 3},
                {"op": "stats"},
                {"op": "shutdown"},
            )
        )
        infile, outfile = io.StringIO(requests + "\n"), io.StringIO()
        asyncio.run(service.serve_stdio(infile, outfile))
        responses = [
            json.loads(line) for line in outfile.getvalue().splitlines()
        ]
        assert len(responses) == 4
        assert all(r["ok"] for r in responses)
        assert responses[-1]["shutdown"] is True


class TestSocketTransport:
    def test_serve_socket_round_trip(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")

        async def scenario():
            service = build_service()
            server_task = asyncio.ensure_future(
                service.serve_socket(socket_path)
            )
            # Wait for the socket to come up.
            for _ in range(100):
                try:
                    reader, writer = await asyncio.open_unix_connection(
                        socket_path
                    )
                    break
                except (ConnectionRefusedError, FileNotFoundError):
                    await asyncio.sleep(0.01)
            else:
                pytest.fail("service socket never came up")

            async def rpc(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            submitted = await rpc(
                {"op": "submit", "benchmark": "povray",
                 "instructions": 200_000}
            )
            stepped = await rpc({"op": "step", "quanta": 4})
            job = await rpc({"op": "job", "job_id": 0})
            closed = await rpc({"op": "shutdown"})
            writer.close()
            await asyncio.wait_for(server_task, timeout=5.0)
            return submitted, stepped, job, closed

        submitted, stepped, job, closed = asyncio.run(scenario())
        assert submitted == {"ok": True, "job_id": 0}
        assert stepped["ok"] and stepped["quantum"] == 4
        assert job["job"]["status"] == "completed"
        assert closed["shutdown"] is True
