"""Decision replay: sampling schedulers replay their own steady quanta.

A replayed observation yields the sample object it yielded before, and
``SamplingScheduler._optimize`` replays a greedy search it has already
run from a memo keyed by the assignment, the locked applications and
the identities of the samples it reads.  Every test here runs the same
work twice: with replay, and with ``DECISION_MEMO_CAP`` monkeypatched
to 0, the compute-only reference, which stores nothing.  The two must
agree exactly, because the goldens, the decision-trace schema and the
benchmark digests pin outputs byte for byte; the replay runs must also
really replay, or the comparison proves nothing.
"""

from __future__ import annotations

import pytest

from repro.ace.counters import AceCounterMode
from repro.ace.predictor import PredictedReliabilityScheduler, train_predictor
from repro.config.machines import BIG, SMALL, STANDARD_MACHINES, machine_2b2s
from repro.obs import metrics as obs_metrics
from repro.obs.decisions import DecisionTraceRecorder, replay_trace
from repro.sched import sampling
from repro.sched.base import Assignment, Observation, SegmentPlan
from repro.sched.modes import MODE_DMR, ModeAwareReliabilityScheduler
from repro.sched.reliability import ReliabilityScheduler
from repro.sched.sampling import CoreTypeSample, observed_sample
from repro.service import (
    OpenSystem,
    ServiceConfig,
    ServiceFeed,
    make_process,
    service_benchmark_pool,
)
from repro.sim.experiment import make_scheduler
from repro.sim.multicore import MulticoreSimulation
from repro.sim.serialize import run_result_to_dict
from repro.workloads.mixes import generate_workloads
from repro.workloads.spec2006 import benchmark


@pytest.fixture(scope="module")
def predictor():
    return train_predictor()


@pytest.fixture
def searches(monkeypatch):
    """Count the greedy searches, and those computed rather than
    replayed, as ``[searches, computed]``."""
    counts = [0, 0]
    optimize = sampling.SamplingScheduler._optimize
    search = sampling.SamplingScheduler._search

    def counting_optimize(self, *args):
        counts[0] += 1
        return optimize(self, *args)

    def counting_search(self, *args):
        counts[1] += 1
        return search(self, *args)

    monkeypatch.setattr(
        sampling.SamplingScheduler, "_optimize", counting_optimize
    )
    monkeypatch.setattr(sampling.SamplingScheduler, "_search", counting_search)
    return counts


def _compute_only(monkeypatch):
    monkeypatch.setattr(sampling, "DECISION_MEMO_CAP", 0)


def _scheduler(name, machine, num_apps, predictor):
    if name == "predicted":
        return PredictedReliabilityScheduler(machine, num_apps, predictor)
    return make_scheduler(name, machine, num_apps)


def _simulate(machine, scheduler, *, instructions=200_000_000,
              counter_mode=AceCounterMode.FULL, restart=True, mix=3):
    names = generate_workloads(machine.num_cores, seed=42)[mix].benchmarks
    profiles = [benchmark(name).scaled(instructions) for name in names]
    return MulticoreSimulation(
        machine,
        profiles,
        scheduler,
        counter_mode=counter_mode,
        record_timeline=True,
        restart_finished=restart,
    ).run()


RUNS = [
    # (machine, scheduler, counter mode, restart finished applications)
    ("2B2S", "performance", AceCounterMode.FULL, True),
    ("2B2S", "reliability", AceCounterMode.FULL, True),
    ("2B2S", "modes", AceCounterMode.FULL, True),
    ("2B2S", "predicted", AceCounterMode.FULL, True),
    ("2B2S", "reliability", AceCounterMode.ROB_ONLY, True),
    ("2B2S", "performance", AceCounterMode.FULL, False),
    ("2B2S", "reliability", AceCounterMode.ROB_ONLY, False),
    ("1B3S", "performance", AceCounterMode.ROB_ONLY, True),
    ("1B3S", "reliability", AceCounterMode.FULL, True),
    ("1B3S", "modes", AceCounterMode.FULL, False),
    ("1B3S", "predicted", AceCounterMode.ROB_ONLY, False),
    ("4B4S", "performance", AceCounterMode.FULL, True),
    ("4B4S", "reliability", AceCounterMode.FULL, False),
    ("4B4S", "modes", AceCounterMode.ROB_ONLY, True),
    ("4B4S", "predicted", AceCounterMode.FULL, True),
]


class TestReplayIsExact:
    @pytest.mark.parametrize(
        "machine_name, scheduler, counter_mode, restart", RUNS,
        ids=[
            f"{m}-{s}-{c.name}-{'restart' if r else 'complete'}"
            for m, s, c, r in RUNS
        ],
    )
    def test_run_result_equals_compute_only(
        self, monkeypatch, searches, predictor, machine_name, scheduler,
        counter_mode, restart,
    ):
        machine = STANDARD_MACHINES[machine_name]()

        def run():
            sched = _scheduler(scheduler, machine, machine.num_cores, predictor)
            return _simulate(
                machine, sched, counter_mode=counter_mode, restart=restart
            )

        replayed = run()
        total, computed = searches
        searches[:] = [0, 0]
        _compute_only(monkeypatch)
        reference = run()
        assert searches[0] == searches[1] == total
        assert run_result_to_dict(replayed) == run_result_to_dict(reference)
        assert replayed.timeline
        assert computed < total  # some searches replayed


def _traced_run(machine, scheduler):
    """A run's result, metrics (timers excluded) and decision records."""
    sched = make_scheduler(scheduler, machine, machine.num_cores)
    sched.recorder = DecisionTraceRecorder()
    with obs_metrics.collecting() as registry:
        result = _simulate(machine, sched)
    series = {
        key: data
        for key, (kind, data) in registry.snapshot().series.items()
        if kind != "timer"
    }
    replay_trace(sched.recorder.records)
    records = [record.to_dict() for record in sched.recorder.records]
    return run_result_to_dict(result), series, records


class TestObservability:
    @pytest.mark.parametrize("scheduler", ["performance", "reliability", "modes"])
    def test_decision_traces_and_metrics_equal(
        self, monkeypatch, searches, scheduler
    ):
        machine = machine_2b2s()
        replayed = _traced_run(machine, scheduler)
        assert searches[1] < searches[0]
        _compute_only(monkeypatch)
        reference = _traced_run(machine, scheduler)
        assert replayed[1] and replayed[2]
        assert any(
            record["candidates"] for record in replayed[2]
        )
        assert replayed == reference


class TestService:
    def test_slot_placer_feed_digest_equal(self, monkeypatch):
        def run():
            config = ServiceConfig(
                machine=machine_2b2s(), queue_capacity=8,
                deadline_seconds=0.01,
            )
            feed = ServiceFeed()
            system = OpenSystem(
                config, feed=feed, recorder=DecisionTraceRecorder()
            )
            system.enqueue_arrivals(make_process(
                "poisson", 800.0, service_benchmark_pool(), seed=3,
                instructions=400_000,
            ).stream(40))
            result = system.run()
            records = [r.to_dict() for r in system.placer.recorder.records]
            return feed.digest(), result.to_dict(), records, system

        *replayed, system = run()
        # The placer's searches went through the memo.
        assert system.placer.scheduler._decisions
        _compute_only(monkeypatch)
        *reference, system = run()
        assert not system.placer.scheduler._decisions
        assert replayed == reference


class TestBounds:
    def test_maps_stay_under_cap_over_a_long_run(self, monkeypatch):
        sizes = []
        observe = sampling.SamplingScheduler.observe

        def measuring(self, *args):
            observe(self, *args)
            sizes.append((len(self._decisions), len(self._sample_of)))

        monkeypatch.setattr(sampling.SamplingScheduler, "observe", measuring)
        machine = machine_2b2s()
        _simulate(
            machine, make_scheduler("reliability", machine, 4),
            instructions=1_000_000_000, mix=4,
        )
        cap = sampling.DECISION_MEMO_CAP
        assert 0 < max(d for d, _ in sizes) <= cap
        assert max(s for _, s in sizes) <= cap
        # More distinct observations than the map holds: it was emptied.
        assert any(a[1] > b[1] for a, b in zip(sizes, sizes[1:]))

    def test_trimming_keeps_the_samples_that_still_replay(
        self, monkeypatch, searches
    ):
        """Observations of computed segments that never recur fill the
        observation-to-sample map; trimming it must keep the samples of
        steady segments, so a long run computes no more searches than
        with unbounded maps (emptying it computed 214 against 168)."""
        sizes = []
        observe = sampling.SamplingScheduler.observe

        def measuring(self, *args):
            observe(self, *args)
            sizes.append(len(self._sample_of))

        monkeypatch.setattr(sampling.SamplingScheduler, "observe", measuring)
        machine = machine_2b2s()

        def computed_searches():
            """(computed searches, whether the map ever shrank)."""
            sizes.clear()
            before = searches[1]
            _simulate(
                machine, make_scheduler("reliability", machine, 4),
                instructions=1_000_000_000, mix=4,
            )
            shrank = any(a > b for a, b in zip(sizes, sizes[1:]))
            return searches[1] - before, shrank

        capped, trimmed = computed_searches()
        assert trimmed
        monkeypatch.setattr(sampling, "DECISION_MEMO_CAP", 10**9)
        unbounded, trimmed = computed_searches()
        assert not trimmed
        assert capped <= unbounded

    def test_a_small_cap_is_emptied_and_stays_exact(
        self, monkeypatch, searches
    ):
        machine = machine_2b2s()
        monkeypatch.setattr(sampling, "DECISION_MEMO_CAP", 8)
        small = _simulate(machine, make_scheduler("reliability", machine, 4))
        assert searches[1] < searches[0]
        _compute_only(monkeypatch)
        reference = _simulate(
            machine, make_scheduler("reliability", machine, 4)
        )
        assert run_result_to_dict(small) == run_result_to_dict(reference)


def _sample(ips, abc):
    return CoreTypeSample(instructions_per_second=ips, abc_per_second=abc)


def _seeded(sched):
    """Samples under which app 0, on a big core and with a high big-core
    ABC rate, is worth a swap onto a small core."""
    for i in range(sched.num_apps):
        abc = 5e4 if i == 0 else 1e3
        sched._samples[(i, BIG)] = _sample(2e9, abc)
        sched._samples[(i, SMALL)] = _sample(1e9, 1e2)


class TestKey:
    """The memo, driven directly: a stored search must not stand in for
    one that reads different samples or a different locked set."""

    START = Assignment((0, 1, 2, 3))

    def _stored(self, sched, searches):
        for _ in range(3):  # the second sighting stores, the third hits
            result = sched._optimize(self.START)
        assert searches == [3, 2]
        return result

    def test_a_replay_returns_the_stored_search(self, searches):
        sched = ReliabilityScheduler(machine_2b2s(), 4)
        _seeded(sched)
        result = self._stored(sched, searches)
        assert result.core_type_of(0, sched.machine) == SMALL

    def test_a_sample_with_other_rates_misses(self, searches):
        sched = ReliabilityScheduler(machine_2b2s(), 4)
        _seeded(sched)
        self._stored(sched, searches)
        sched._samples[(0, BIG)] = _sample(2e9, 1e3)
        result = sched._optimize(self.START)
        assert searches == [4, 3]
        assert result == self.START  # nothing left worth a swap

    def test_an_equal_sample_of_another_identity_misses(self, searches):
        sched = ReliabilityScheduler(machine_2b2s(), 4)
        _seeded(sched)
        stored = self._stored(sched, searches)
        sched._samples[(0, BIG)] = _sample(2e9, 5e4)
        assert sched._optimize(self.START) == stored
        assert searches == [4, 3]

    def test_a_changed_locked_set_misses(self, searches):
        sched = ModeAwareReliabilityScheduler(
            machine_2b2s(), 4, allowed_modes=("none",)
        )
        _seeded(sched)
        self._stored(sched, searches)
        sched._mode_of[0] = MODE_DMR
        result = sched._optimize(self.START)
        assert searches == [4, 3]
        assert result == self.START  # app 0 is pinned

    def test_a_replay_re_emits_its_candidates(self, searches):
        sched = ReliabilityScheduler(machine_2b2s(), 4)
        _seeded(sched)
        sched.recorder = DecisionTraceRecorder()
        emitted = []
        with obs_metrics.collecting() as registry:
            for quantum in range(3):
                sched._optimize(self.START)
                record = sched.recorder.quantum(
                    quantum=quantum, scheduler="r", phase="greedy",
                    before=(0, 1, 2, 3), after=(0, 1, 2, 3),
                )
                emitted.append(record.candidates)
        assert searches == [3, 2]
        assert emitted[0] and emitted[0] == emitted[1] == emitted[2]
        assert sum(
            data["value"]
            for (name, _), (_, data) in registry.snapshot().series.items()
            if name == "sched.swap_candidates"
        ) == 3 * len(emitted[0])


class TestSamples:
    def _observation(self):
        return Observation(
            app_index=0, core_id=0, core_type=BIG, duration_seconds=1e-3,
            instructions=2_000_000, measured_abc_seconds=3.0,
            l3_accesses=4_000.0, dram_accesses=500.0,
            branch_mispredictions=900.0,
        )

    def test_one_rule_from_observation_to_sample(self):
        obs = self._observation()
        sample = observed_sample(obs)
        assert sample == CoreTypeSample(
            instructions_per_second=obs.instructions_per_second,
            abc_per_second=obs.abc_per_second,
            l3_apki=obs.l3_apki,
            dram_apki=obs.dram_apki,
            branch_mpki=obs.branch_mpki,
            age_quanta=0,
        )
        assert observed_sample(Observation(0, 0, BIG, 1e-3, 0, 0.0)) is None
        assert observed_sample(Observation(0, 0, BIG, 0.0, 10, 0.0)) is None

    def test_a_replayed_observation_yields_its_sample_at_age_zero(self):
        machine = machine_2b2s()
        sched = ReliabilityScheduler(machine, 4)
        obs = self._observation()
        plan = SegmentPlan(1.0, Assignment((0, 1, 2, 3)))
        sched._final_segment = plan
        sched.observe(plan, [obs])
        first = sched.sample(0, BIG)
        assert first.age_quanta == 1
        other = self._observation()
        sched.observe(plan, [other])
        assert sched.sample(0, BIG) is not first
        sched.observe(plan, [obs])
        assert sched.sample(0, BIG) is first
        assert first.age_quanta == 1  # reset to 0, then aged once
