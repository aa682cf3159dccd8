"""The campaign encoders write the bytes of their deep-copying forms.

Results, specs and events are encoded from shallow dicts of their
fields (``repro.sim.serialize.shallow_dict``), and the event log and
the service feed each keep one JSON encoder.  Each test here pins one
encoder against a test-local copy of the ``dataclasses.asdict`` /
``json.dumps`` code it replaced.  Because a shallow dict shares its
nested payloads, the last test checks that the payloads an engine
campaign hands to its outcomes, event log and flight recorder stay
equal to what each of them recorded.
"""

import dataclasses
import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import flight as obs_flight
from repro.runtime.engine import ExecutionEngine, FaultPlan
from repro.runtime.events import (
    CallbackSink,
    CampaignFinished,
    CampaignPlan,
    CampaignStarted,
    CheckFailed,
    JobCached,
    JobFailed,
    JobFinished,
    JobStarted,
    JsonlEventSink,
    MetricsSnapshot,
    PostmortemWritten,
    SpanSnapshot,
    UnknownEvent,
    event_schema,
    stamp_trace,
)
from repro.runtime.retry import FailurePolicy
from repro.runtime.shard import FleetStatus
from repro.runtime.store import ResultStore
from repro.service.events import EVENT_KINDS, ServiceFeed
from repro.sim.campaign import RunSpec
from repro.sim.results import AppRunRecord, RunResult, TimelinePoint
from repro.sim.serialize import run_result_to_dict

# -- the encoders as they were ----------------------------------------


def asdict_result(result):
    return {
        "format_version": 1,
        "machine_name": result.machine_name,
        "scheduler_name": result.scheduler_name,
        "quanta": result.quanta,
        "duration_seconds": result.duration_seconds,
        "apps": [dataclasses.asdict(app) for app in result.apps],
        "timeline": [dataclasses.asdict(p) for p in result.timeline],
    }


def asdict_event_line(event):
    if isinstance(event, UnknownEvent):
        data = dict(event.data)
    else:
        data = dataclasses.asdict(event)
        data["event"] = event.kind
        if data.get("trace") is None:
            data.pop("trace", None)
    return json.dumps(data, sort_keys=True)


def asdict_spec_key(spec):
    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def dumps_feed_line(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


# -- strategies --------------------------------------------------------

FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
     float("inf"), float("-inf"), float("nan")]
)
INTS = st.integers(min_value=-(2**63), max_value=2**63)
TEXT = st.text(max_size=10) | st.sampled_from(
    ["povray", "naïve", "µ-arch", "ベンチ", "é́", "\x00\x1f\"\\"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | TEXT,
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(TEXT, children, max_size=3)
    ),
    max_leaves=8,
)
TRACES = st.fixed_dictionaries(
    {"campaign": TEXT},
    optional={"shard": INTS, "run_key": TEXT, "parent": TEXT},
)
SPECS = st.builds(
    RunSpec,
    machine=TEXT,
    benchmarks=st.lists(TEXT, max_size=4).map(tuple),
    scheduler=TEXT,
    instructions=st.none() | INTS,
    seed=INTS,
    counter_mode=TEXT,
    small_frequency_ghz=st.none() | FLOATS,
    sampling=st.none() | st.tuples(INTS, FLOATS),
)

#: Field values by name; any other field takes any JSON value.
FIELD_VALUES = {
    "timestamp": FLOATS,
    "invariants": st.lists(TEXT, max_size=3).map(tuple),
    "specs": st.lists(SPECS.map(dataclasses.asdict), max_size=2),
}

EVENT_CLASSES = (
    CampaignStarted, CampaignPlan, JobStarted, JobCached, CheckFailed,
    MetricsSnapshot, SpanSnapshot, PostmortemWritten, JobFinished,
    JobFailed, CampaignFinished,
)


def _event_strategy(cls):
    names = [f.name for f in dataclasses.fields(cls) if f.name != "trace"]
    return st.builds(
        cls, **{n: FIELD_VALUES.get(n, JSON_VALUES) for n in names}
    )


EVENTS = st.one_of(
    [_event_strategy(cls) for cls in EVENT_CLASSES]
    + [st.builds(UnknownEvent,
                 data=st.dictionaries(TEXT, JSON_VALUES, max_size=4),
                 timestamp=FLOATS)]
)

_BY_TYPE = {"str": TEXT, "int": INTS, "float": FLOATS}


def _record_strategy(cls):
    return st.builds(cls, **{
        f.name: _BY_TYPE[f.type] for f in dataclasses.fields(cls)
    })


RESULTS = st.builds(
    RunResult,
    machine_name=TEXT,
    scheduler_name=TEXT,
    quanta=INTS,
    duration_seconds=FLOATS,
    apps=st.lists(_record_strategy(AppRunRecord), max_size=4),
    timeline=st.lists(_record_strategy(TimelinePoint), max_size=3),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def test_every_event_kind_is_drawn():
    kinds = {cls.kind for cls in EVENT_CLASSES}
    assert kinds == set(event_schema()["events"])


# -- byte identity -----------------------------------------------------


class TestStoreFiles:
    @settings(max_examples=150, deadline=None)
    @given(result=RESULTS)
    def test_store_file_text(self, result, scratch):
        store = ResultStore(scratch / "store")
        store.save("result", result)
        store.save_dict("encoded", run_result_to_dict(result))
        expected = json.dumps(asdict_result(result), indent=1)
        assert store.path("result").read_text() == expected
        assert store.path("encoded").read_text() == expected

    def test_result_dict_keeps_the_field_order(self):
        result = RunResult(
            "2B2S", "random", 3, 0.003, [AppRunRecord("mcf")],
            [TimelinePoint(0.001, "mcf", "big", 2.5, 10)],
        )
        data = run_result_to_dict(result)
        assert data == asdict_result(result)
        assert [list(app) for app in data["apps"]] == [
            [f.name for f in dataclasses.fields(AppRunRecord)]
        ]


class TestEventLines:
    @settings(max_examples=400, deadline=None)
    @given(event=EVENTS, trace=TRACES)
    @example(
        event=CheckFailed(index=1, label="naïve", invariants=("a", "b"),
                          timestamp=-0.0),
        trace={"campaign": "c", "shard": 0},
    )
    def test_line_with_and_without_trace(self, event, trace, scratch):
        path = scratch / "events.jsonl"
        path.unlink(missing_ok=True)
        stamped = stamp_trace(event, trace)
        sink = JsonlEventSink(path)
        sink.emit(event)
        sink.emit(stamped)
        sink.close()
        assert path.read_text().splitlines() == [
            asdict_event_line(event), asdict_event_line(stamped)
        ]


class TestSpecKeys:
    @settings(max_examples=300, deadline=None)
    @given(spec=SPECS)
    @example(spec=RunSpec("2B2S", ("mcf", "lbm"), "random", None))
    @example(spec=RunSpec("1B1S", ("milc",), "modes", 5, sampling=(4, 1e-3),
                          small_frequency_ghz=1.33))
    def test_key(self, spec):
        assert spec.key() == asdict_spec_key(spec)


class TestServiceFeedLines:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(EVENT_KINDS),
        time=FLOATS,
        fields=st.dictionaries(
            # Not the names of emit's own parameters.
            TEXT.filter(
                lambda name: name not in ("self", "kind", "time_seconds")
            ),
            JSON_VALUES,
            max_size=4,
        ),
    )
    def test_line(self, kind, time, fields):
        stream = io.StringIO()
        feed = ServiceFeed(stream)
        feed.emit(kind, time, **fields)
        line = dumps_feed_line({"event": kind, "time": time, **fields})
        assert feed.lines == [line]
        assert stream.getvalue() == line + "\n"


# -- shared payloads ---------------------------------------------------


def _canonical(value) -> str:
    # Compares NaN payloads too, which == cannot.
    return JsonlEventSink.encoder.encode(value)


def test_shared_payloads_stay_equal_to_what_was_recorded(tmp_path):
    """A ``jobs=2`` campaign with metrics, spans, a store, a JSONL log,
    a fleet status and one failed job: every consumer holds the same
    nested dicts, and none of them changes what another recorded."""
    specs = [
        RunSpec("1B1S", pair, "reliability", 500_000, seed=seed)
        for seed, pair in enumerate(
            [("povray", "milc"), ("gobmk", "bzip2"), ("mcf", "lbm"),
             ("namd", "astar")]
        )
    ]
    log = tmp_path / "events.jsonl"
    status = FleetStatus(len(specs))
    recorders = set()
    engine = ExecutionEngine(
        2,
        failure_policy=FailurePolicy.COLLECT,
        fault_plan=FaultPlan(fail_attempts={1: 99}),
        metrics=True,
        spans=True,
        sinks=[
            JsonlEventSink(log),
            status,
            CallbackSink(lambda event: recorders.add(obs_flight.ACTIVE)),
        ],
    )
    store = ResultStore(tmp_path / "store")
    report = engine.run_many(specs, store=store)
    engine.close()
    status.openmetrics()  # folds every snapshot it holds

    lines = log.read_text().splitlines()
    logged = [json.loads(line) for line in lines]
    assert [o.ok for o in report.outcomes] == [True, False, True, True]

    def payloads(kind, field):
        return {
            entry["index"]: _canonical(entry[field])
            for entry in logged
            if entry["event"] == kind and entry["index"] >= 0
        }

    ok = [o for o in report.outcomes if o.ok]
    assert payloads("metrics_snapshot", "metrics") == {
        o.index: _canonical(o.metrics) for o in ok
    }
    assert payloads("span_snapshot", "spans") == {
        o.index: _canonical(o.spans) for o in ok
    }
    for outcome in ok:
        assert store.path(specs[outcome.index].key()).read_text() == (
            json.dumps(asdict_result(outcome.result), indent=1)
        )

    # The postmortem ring, dumped when job 1 failed, holds the log's
    # lines up to that failure; the ring the campaign ended with holds
    # every line.
    (bundle_path,) = obs_flight.find_bundles(store.directory)
    ring = obs_flight.load_bundle(bundle_path)["flight"]["events"]
    assert ring[-1]["event"] == "job_failed"
    assert [_canonical(e) for e in ring] == lines[:len(ring)]
    (recorder,) = recorders
    final = recorder.snapshot()
    assert final["dropped"] == 0
    assert [_canonical(e) for e in final["events"]] == lines
