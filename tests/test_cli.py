"""Tests for the `repro` command-line interface."""

import json
import os

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["run", "--benchmarks", "milc,mcf"]
        )
        args.machine == "2B2S"
        assert args.scheduler == "reliability"
        assert not args.rob_only

    def test_bad_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--benchmarks", "milc", "--scheduler", "fifo"]
            )

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--event-log", "ev.jsonl"]
        )
        assert args.jobs == 4 and args.event_log == "ev.jsonl"
        args = build_parser().parse_args(["figure", "fig06", "--jobs", "2"])
        assert args.jobs == 2 and args.event_log is None


class TestCommands:
    ARGS = ["--benchmarks", "povray,milc,gobmk,bzip2",
            "--instructions", "2000000"]

    def test_run(self, capsys):
        assert main(["run", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "SSER" in out and "milc" in out

    def test_run_with_power_and_rob_only(self, capsys):
        assert main(["run", *self.ARGS, "--power", "--rob-only"]) == 0
        assert "chip" in capsys.readouterr().out

    def test_run_unknown_benchmark(self, capsys):
        code = main(["run", "--benchmarks", "doom3"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_unknown_machine(self, capsys):
        code = main(["run", *self.ARGS, "--machine", "9B9S"])
        assert code == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "SSER (lower is better)" in out
        assert "reliability" in out

    def test_avf(self, capsys):
        assert main(["avf", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "milc" in out
        assert "|" in out  # the chart

    def test_oracle(self, capsys):
        assert main(["oracle", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "reliability oracle" in out
        assert "SER gain" in out

    def test_oracle_wrong_count(self, capsys):
        code = main(["oracle", "--benchmarks", "milc,mcf",
                     "--instructions", "1000000"])
        assert code == 2

    def test_workloads(self, capsys):
        assert main(["workloads", "--programs", "2"]) == 0
        out = capsys.readouterr().out
        assert "HH" in out
        assert out.count("\n") >= 36

    def test_trace(self, capsys):
        assert main(["trace", "mcf", "--length", "5000"]) == 0
        out = capsys.readouterr().out
        assert "branch MPKI" in out

    def test_trace_simulate(self, capsys):
        assert main(["trace", "povray", "--length", "5000",
                     "--simulate"]) == 0
        out = capsys.readouterr().out
        assert "AVF %" in out

    def test_trace_unknown(self, capsys):
        assert main(["trace", "doom3"]) == 2

    def test_inject(self, capsys):
        assert main(["inject", "mcf", "--length", "4000",
                     "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert "fault-injection AVF" in out
        assert "rob" in out

    def test_inject_unknown_benchmark(self, capsys):
        assert main(["inject", "doom3"]) == 2

    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "904" in out and "296" in out and "67" in out

    def test_sweep_small(self, capsys):
        assert main(["sweep", "--machine", "1B1S", "--programs", "2",
                     "--instructions", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "SSER mean" in out

    def test_sweep_parallel_with_event_log(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        assert main(["sweep", "--machine", "1B1S", "--programs", "2",
                     "--instructions", "1000000", "--jobs", "2",
                     "--verbose", "--event-log", str(log)]) == 0
        captured = capsys.readouterr()
        assert "SSER mean" in captured.out
        assert "campaign finished" in captured.err
        from repro.runtime import replay_timings
        timings = replay_timings(log)
        assert len(timings) == 108  # 36 mixes x 3 schedulers
        assert all(t.status == "ok" for t in timings)

    def test_figure_parallel_and_events_replay(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        cache = tmp_path / "cache"
        argv = ["figure", "fig06", "--machine", "1B1S", "--programs", "2",
                "--instructions", "1000000", "--jobs", "2",
                "--cache-dir", str(cache), "--event-log", str(log)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cached runs, 108 simulated" in first
        # Second invocation is fully cache-served.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "108 cached runs, 0 simulated" in second
        # The JSONL log replays to per-job timings.
        # The JSONL log replays to per-job timings; both campaigns
        # appended to it, and the replayed (last) status is "cached".
        assert main(["events", str(log)]) == 0
        replay = capsys.readouterr().out
        assert "status" in replay
        assert "108 jobs: 0 executed" in replay and "108 cached" in replay

    def test_figure_small_frequency_renders_its_own_sweep(
        self, capsys, tmp_path
    ):
        from repro.config import machine_1b1s
        from repro.report.figures import render_fig06
        from repro.sim.experiment import SCHEDULER_NAMES, sweep
        from repro.workloads.mixes import generate_workloads

        argv = ["figure", "fig06", "--machine", "1B1S", "--programs", "2",
                "--instructions", "1000000", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--small-frequency", "1.33"]) == 0
        slow = capsys.readouterr().out
        expected = render_fig06(sweep(
            machine_1b1s().with_small_frequency(1.33), generate_workloads(2),
            SCHEDULER_NAMES, instructions=1_000_000,
        ))
        assert slow.startswith(expected + "\n")
        assert not default.startswith(expected + "\n")
        # The warm default cache serves none of the 1.33 GHz runs.
        assert "(0 cached runs, 108 simulated" in slow

    def test_small_frequency_sweep_misses_a_default_store(
        self, capsys, tmp_path
    ):
        argv = ["sweep", "--machine", "1B1S", "--programs", "2",
                "--instructions", "1000000"]
        assert main([*argv, "--small-frequency", "1.33"]) == 0
        expected = capsys.readouterr().out
        store = ["--store", str(tmp_path / "store")]
        assert main([*argv, *store]) == 0
        assert capsys.readouterr().out != expected
        log = tmp_path / "events.jsonl"
        assert main([*argv, *store, "--small-frequency", "1.33",
                     "--event-log", str(log)]) == 0
        assert capsys.readouterr().out == expected
        kinds = [json.loads(line)["event"]
                 for line in log.read_text().splitlines()]
        assert kinds.count("job_finished") == 108
        assert "job_cached" not in kinds

    def test_events_missing_file(self, capsys):
        assert main(["events", "/nonexistent/events.jsonl"]) == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_small_frequency_flag(self, capsys):
        assert main(["run", *self.ARGS, "--small-frequency", "1.33"]) == 0


class TestCheckCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.seed == 0
        assert args.golden_dir == "tests/golden"
        assert not args.update_goldens

    def test_check_flag_on_sweep_and_figure(self):
        args = build_parser().parse_args(["sweep", "--check"])
        assert args.check
        args = build_parser().parse_args(["figure", "fig06"])
        assert not args.check

    def test_fuzz_only(self, capsys):
        assert main(["check", "--seed", "0", "--skip-goldens",
                     "--model-cases", "0", "--run-cases", "1",
                     "--stack-cases", "1"]) == 0
        out = capsys.readouterr().out
        assert "fuzz seed=0" in out and "run/0" in out

    def test_goldens_roundtrip_in_tmp_dir(self, capsys, tmp_path):
        golden = tmp_path / "golden"
        assert main(["check", "--update-goldens",
                     "--golden-dir", str(golden)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["check", "--skip-fuzz",
                     "--golden-dir", str(golden)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_goldens_fail_with_advice(self, capsys, tmp_path):
        assert main(["check", "--skip-fuzz",
                     "--golden-dir", str(tmp_path / "nowhere")]) == 1
        assert "--update-goldens" in capsys.readouterr().out

    def test_sweep_with_check_flag(self, capsys):
        assert main(["sweep", "--machine", "1B1S", "--programs", "2",
                     "--instructions", "1000000", "--check"]) == 0
        assert "SSER mean" in capsys.readouterr().out


class TestObservability:
    MIX = ["--benchmarks", "soplex,milc,namd,povray",
           "--instructions", "2000000"]

    def test_parser_obs_flags(self):
        args = build_parser().parse_args(["sweep", "--metrics"])
        assert args.metrics
        args = build_parser().parse_args(
            ["run", "--benchmarks", "milc,mcf", "--profile",
             "--obs-out", "obs.json"]
        )
        assert args.profile and args.obs_out == "obs.json"
        args = build_parser().parse_args(["trace", "--spans", "obs.json"])
        assert args.benchmark is None and args.spans == "obs.json"
        args = build_parser().parse_args(["explain", "--schema"])
        assert args.schema and args.scheduler == "reliability"

    def test_trace_without_benchmark_or_spans(self, capsys):
        assert main(["trace"]) == 2
        assert "benchmark" in capsys.readouterr().err

    def test_run_profile_and_trace_spans(self, capsys, tmp_path):
        obs = tmp_path / "obs.json"
        assert main(["run", *self.MIX, "--profile",
                     "--obs-out", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out and "metrics:" in out
        assert "sim.runs" in out
        assert main(["trace", "--spans", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "top self time" in out

    def test_sweep_metrics_then_stats(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        csv = tmp_path / "metrics.csv"
        assert main(["sweep", "--machine", "1B1S", "--programs", "2",
                     "--instructions", "1000000", "--jobs", "2",
                     "--metrics", "--event-log", str(log)]) == 0
        capsys.readouterr()
        assert main(["stats", str(log), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "sim.runs" in out and "108" in out
        assert csv.read_text().startswith("name,labels,kind,field,value")

    def test_stats_without_metrics_advises(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        assert main(["sweep", "--machine", "1B1S", "--programs", "2",
                     "--instructions", "1000000",
                     "--event-log", str(log)]) == 0
        capsys.readouterr()
        assert main(["stats", str(log)]) == 1
        assert "--metrics" in capsys.readouterr().err

    def test_explain_records_and_replays(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["explain", *self.MIX, "--json", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "quantum" in out and "replay" in out
        assert trace.exists()
        assert main(["explain", "--replay", str(trace)]) == 0
        assert "replay" in capsys.readouterr().out

    def test_explain_schema_matches_fixture(self, capsys):
        import json
        from pathlib import Path

        assert main(["explain", "--schema"]) == 0
        printed = json.loads(capsys.readouterr().out)
        fixture = Path("tests/fixtures/decision_trace_schema.json")
        assert printed == json.loads(fixture.read_text())

    def test_explain_wrong_benchmark_count(self, capsys):
        assert main(["explain", "--benchmarks", "milc,mcf"]) == 2
        assert "benchmark" in capsys.readouterr().err


class TestResume:
    SWEEP = ["sweep", "--machine", "1B1S", "--programs", "2",
             "--instructions", "1000000"]

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["resume", "ev.jsonl", "--store", "dir", "--jobs", "2"]
        )
        assert args.path == "ev.jsonl" and args.store == "dir"
        args = build_parser().parse_args(["sweep", "--store", "results"])
        assert args.store == "results"
        args = build_parser().parse_args(["check", "--resume-cases", "1"])
        assert args.resume_cases == 1

    def test_interrupted_sweep_resumes_identically(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        store = tmp_path / "store"
        argv = [*self.SWEEP, "--store", str(store), "--event-log", str(log)]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert "SSER mean" in expected

        # Simulate a kill partway through: drop the tail of the event
        # log and a few persisted results.
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        for path in sorted(store.glob("*.json"))[:5]:
            path.unlink()

        assert main(["resume", str(log)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "resuming" in captured.err

        # Resuming a finished campaign is a cache-served no-op with
        # the same stdout again.
        assert main(["resume", str(log)]) == 0
        assert capsys.readouterr().out == expected

    def test_resume_collects_the_metrics_of_every_job(
        self, capsys, tmp_path
    ):
        log = tmp_path / "events.jsonl"
        store = tmp_path / "store"
        assert main([*self.SWEEP, "--jobs", "2", "--metrics",
                     "--store", str(store), "--event-log", str(log)]) == 0
        capsys.readouterr()

        # Cut the log after 40 terminal events and drop the store
        # entries of every job whose terminal event was cut.
        events = [json.loads(line) for line in log.read_text().splitlines()]
        terminal = [
            position for position, event in enumerate(events)
            if event["event"] in ("job_cached", "job_finished", "job_failed")
        ]
        kept = events[: terminal[39] + 1]
        log.write_text("".join(json.dumps(e) + "\n" for e in kept))
        plan = next(e for e in kept if e["event"] == "campaign_plan")
        done = {plan["keys"][events[p]["index"]] for p in terminal[:40]}
        for path in store.glob("*.json"):
            if path.stem not in done:
                path.unlink()

        assert main(["resume", str(log)]) == 0
        assert "68 executed" in capsys.readouterr().err
        assert main(["stats", str(log)]) == 0
        runs = next(
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("sim.runs ")
        )
        assert runs == ["sim.runs", "counter", "108"]

    def test_resume_without_plan_record_fails(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text('{"kind": "campaign_started", "total": 3}\n')
        assert main(["resume", str(log)]) == 2
        assert "no campaign plan" in capsys.readouterr().err

    def test_resume_without_store_advises(self, capsys, tmp_path):
        from repro.runtime import ExecutionEngine, JsonlEventSink
        from repro.sim.campaign import RunSpec

        log = tmp_path / "events.jsonl"
        engine = ExecutionEngine(sinks=[JsonlEventSink(log)])
        engine.run_many([
            RunSpec("1B1S", ("povray", "milc"), "random", 100_000)
        ])
        engine.close()
        assert main(["resume", str(log)]) == 2
        assert "--store" in capsys.readouterr().err

    def test_events_and_stats_tolerate_unknown_kinds(
        self, capsys, tmp_path
    ):
        # Logs written by a newer engine may contain event kinds this
        # version has never heard of; `repro events` and `repro stats`
        # must keep working on the lines they understand.
        log = tmp_path / "events.jsonl"
        assert main([*self.SWEEP, "--jobs", "2", "--metrics",
                     "--event-log", str(log)]) == 0
        capsys.readouterr()
        with log.open("a") as handle:
            handle.write('{"kind": "from_the_future", "payload": 7}\n')
            handle.write('{"kind": "campaign_paused"}\n')
        assert main(["events", str(log)]) == 0
        replay = capsys.readouterr().out
        assert "108 jobs: 108 executed" in replay
        assert main(["stats", str(log)]) == 0
        assert "sim.runs" in capsys.readouterr().out


class TestServiceCommands:
    LOAD = ["load", "--machine", "1B1S", "--arrivals", "30",
            "--rates", "2000", "--queue-limit", "4",
            "--deadline", "0.005", "--instructions", "2000000",
            "--seed", "0"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scheduler == "reliability"
        assert args.admission == "fifo"
        assert args.queue_limit == 16
        assert args.socket is None
        args = build_parser().parse_args(["load"])
        assert args.arrivals == 200
        assert args.rates == "400"
        assert args.process == "poisson"
        assert args.min_shed_rate is None
        args = build_parser().parse_args(["check", "--service-cases", "0"])
        assert args.service_cases == 0

    def test_load_prints_summary_table(self, capsys):
        assert main(self.LOAD) == 0
        out = capsys.readouterr().out
        assert "rate/s" in out and "shed%" in out and "sser" in out
        assert " 30 " in out  # the arrived column

    def test_load_digest_reproducible(self, capsys):
        assert main([*self.LOAD, "--digest"]) == 0
        first = capsys.readouterr().out
        assert main([*self.LOAD, "--digest"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "feed sha256 @ 2000/s:" in first

    def test_load_min_shed_rate_gate(self, capsys):
        assert main([*self.LOAD, "--min-shed-rate", "0.01"]) == 0
        capsys.readouterr()
        # A lightly loaded system sheds nothing: the gate must fail.
        assert main(["load", "--machine", "1B1S", "--arrivals", "10",
                     "--rates", "100", "--instructions", "200000",
                     "--min-shed-rate", "0.01"]) == 1
        captured = capsys.readouterr()
        assert "below the" in captured.err

    def test_load_event_feed_written(self, capsys, tmp_path):
        feed = tmp_path / "feed.jsonl"
        assert main([*self.LOAD, "--event-feed", str(feed)]) == 0
        capsys.readouterr()
        lines = feed.read_text().splitlines()
        assert lines
        import json as json_mod
        events = [json_mod.loads(line) for line in lines]
        assert {e["event"] for e in events} >= {"arrive", "start", "depart"}

    FANOUT = ["load", "--machine", "1B1S", "--arrivals", "20",
              "--rates", "400,800,2000", "--queue-limit", "4",
              "--instructions", "300000", "--seed", "3",
              "--timeline", "--digest"]

    def load_fanout(self, capsys, feed, jobs):
        assert main([*self.FANOUT, "--event-feed", str(feed),
                     "--jobs", str(jobs)]) == 0
        return capsys.readouterr().out, feed.read_text()

    def test_load_fanout_matches_serial(self, capsys, tmp_path):
        from repro.service.events import feed_digest

        out, feed = self.load_fanout(capsys, tmp_path / "serial.jsonl", 1)
        # The file holds the three points' feeds in rate order: it
        # splits at each point's first arrival into the printed digests.
        points = []
        for line in feed.splitlines():
            if '"event":"arrive"' in line and '"job_id":0,' in line:
                points.append([])
            points[-1].append(line)
        assert [
            f"feed sha256 @ {rate}/s: {feed_digest(lines)}"
            for rate, lines in zip(("400", "800", "2000"), points)
        ] == [line for line in out.splitlines() if "feed sha256" in line]
        assert out.count("timeline @") == 3
        workers = self.load_fanout(capsys, tmp_path / "workers.jsonl", 2)
        assert workers == (out, feed)

    def test_load_fanout_without_process_pool(
        self, capsys, tmp_path, monkeypatch
    ):
        serial = self.load_fanout(capsys, tmp_path / "serial.jsonl", 1)

        def refuse_fork():
            raise OSError("no process support here")

        monkeypatch.setattr(os, "fork", refuse_fork)
        with pytest.warns(UserWarning, match="cannot fork workers"):
            fallback = self.load_fanout(
                capsys, tmp_path / "fallback.jsonl", 2
            )
        assert fallback == serial

    def test_load_bad_rates_rejected(self, capsys):
        assert main(["load", "--rates", "fast"]) == 1
        assert "bad --rates" in capsys.readouterr().err

    def test_load_unknown_machine(self, capsys):
        assert main(["load", "--machine", "9B9S"]) == 1
        assert "unknown machine" in capsys.readouterr().err


class TestShard:
    SWEEP = ["--machine", "1B1S", "--programs", "2",
             "--instructions", "1000000"]

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["shard", "--shards", "4", "--event-log", "ev.jsonl",
             "--status-socket", "fleet.sock", "--timeout", "30"]
        )
        assert args.shards == 4 and args.timeout == 30.0
        assert args.status_socket == "fleet.sock"
        args = build_parser().parse_args(["shard"])
        assert args.shards == 2
        # --jobs sets a resume's width.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume", "ev.jsonl", "--shards", "3"])
        args = build_parser().parse_args(["check", "--shard-cases", "1"])
        assert args.shard_cases == 1
        args = build_parser().parse_args(["bench",
                                          "--min-shard-speedup", "1.6"])
        assert args.min_shard_speedup == 1.6
        for gone in (["--transport", "process"], ["--shard-logs"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["shard", *gone])

    def test_shard_stdout_matches_sweep(self, capsys, tmp_path):
        assert main(["sweep", *self.SWEEP,
                     "--store", str(tmp_path / "sweep")]) == 0
        expected = capsys.readouterr().out
        assert "SSER mean" in expected
        for shards in ("1", "2", "4"):
            assert main(["shard", *self.SWEEP, "--shards", shards,
                         "--store", str(tmp_path / f"s{shards}")]) == 0
            captured = capsys.readouterr()
            assert captured.out == expected
            assert "fleet 108/108 done" in captured.err

    def test_shard_logs_merge_and_resume(self, capsys, tmp_path):
        log = tmp_path / "fleet.jsonl"
        assert main(["shard", *self.SWEEP, "--shards", "2", "--metrics",
                     "--store", str(tmp_path / "store"),
                     "--event-log", str(log)]) == 0
        expected = capsys.readouterr().out

        # The fleet log replays and aggregates like a sweep's.
        assert main(["events", str(log)]) == 0
        out = capsys.readouterr().out
        assert "108 jobs" in out
        assert main(["stats", str(log)]) == 0
        out = capsys.readouterr().out
        assert "sim.runs" in out and "108" in out

        # Split by the worker slot each event carries, the log's job
        # events still merge back to the same per-job facts.
        events = [json.loads(line) for line in log.read_text().splitlines()]
        parts = [tmp_path / f"slot{s}.jsonl" for s in (0, 1)]
        for slot, part in enumerate(parts):
            part.write_text("".join(
                json.dumps(e, sort_keys=True) + "\n" for e in events
                if e.get("trace", {}).get("shard") == slot
            ))
        assert main(["events", *map(str, parts)]) == 0
        assert "108 jobs: 108 executed" in capsys.readouterr().out

        # The log resumes (sharded, as recorded in its plan) to the
        # same stdout.
        assert main(["resume", str(log)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "resuming" in captured.err

    def test_sharded_resume_keeps_the_timeout(self, capsys, tmp_path):
        from repro.runtime import ResumeState

        log = tmp_path / "fleet.jsonl"
        assert main(["shard", *self.SWEEP, "--shards", "2",
                     "--timeout", "30", "--store", str(tmp_path / "store"),
                     "--event-log", str(log)]) == 0
        assert main(["resume", str(log)]) == 0
        capsys.readouterr()
        state = ResumeState.load(log)  # the resume's own plan, last
        assert state.shards == 2 and state.timeout_seconds == 30.0

    def test_multi_log_merge_is_order_insensitive(self, capsys, tmp_path):
        logs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for log in logs:
            assert main(["sweep", *self.SWEEP, "--jobs", "1",
                         "--store", str(tmp_path / "store"),
                         "--event-log", str(log)]) == 0
        capsys.readouterr()
        assert main(["events", str(logs[0]), str(logs[1])]) == 0
        forward = capsys.readouterr().out
        assert main(["events", str(logs[1]), str(logs[0])]) == 0
        backward = capsys.readouterr().out
        # Same jobs either way; per-job facts agree (the second run is
        # all cache hits, so statuses and counts are stable).
        assert "108 jobs" in forward and "108 jobs" in backward
