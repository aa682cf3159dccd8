"""Disk-cached experiment campaigns.

A campaign is a named collection of simulation runs (machine ×
workload × scheduler × parameters).  Each run's result is persisted as
JSON under the campaign directory the first time it executes;
re-running the campaign loads cached results, so large sweeps can be
built up incrementally and analyses re-run cheaply.

Batch execution (:meth:`Campaign.run_all`, :meth:`Campaign.sweep`)
goes through the :mod:`repro.runtime` engine, so campaigns
parallelize across CPU cores with ``jobs=N`` and tolerate worker
failures; cache writes are atomic, and corrupt or partial cache
entries are treated as misses rather than raising.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.ace.counters import AceCounterMode
from repro.config.machines import STANDARD_MACHINES, MachineConfig
from repro.sim.experiment import run_workload
from repro.sim.results import RunResult
from repro.workloads.mixes import WorkloadMix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.store import ResultStore


@dataclass(frozen=True)
class RunSpec:
    """A single run's full specification (and cache key).

    Attributes:
        machine: topology name (``"2B2S"``) or a custom tag when a
            machine override is supplied at run time.
        benchmarks: benchmark names, one per core.
        scheduler: scheduler name.
        instructions: per-benchmark instruction count (``None`` runs
            each profile at its full length).
        seed: random-scheduler seed.
        counter_mode: ACE counter architecture.
        small_frequency_ghz: optional small-core frequency override.
        sampling: optional (period quanta, sampling quantum seconds).
    """

    machine: str
    benchmarks: tuple[str, ...]
    scheduler: str
    instructions: int | None
    seed: int = 0
    counter_mode: str = AceCounterMode.FULL.value
    small_frequency_ghz: float | None = None
    sampling: tuple[int, float] | None = None

    def key(self) -> str:
        """Stable content hash used as the cache file name.

        Derived structurally from *every* dataclass field (via
        :func:`dataclasses.asdict`), so a field added to the spec --
        a new scheduler kwarg, say -- can never be silently omitted
        from the cache key and collide two distinct runs.  The JSON
        encoding matches the previous hand-written payload exactly,
        so existing cache directories stay valid.
        """
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from its :func:`dataclasses.asdict` form.

        JSON round-trips tuples as lists; this is the inverse used by
        campaign resume (:class:`repro.runtime.resume.ResumeState`) to
        rebuild specs recorded in an event log's plan record.
        """
        data = dict(data)
        data["benchmarks"] = tuple(data["benchmarks"])
        if data.get("sampling") is not None:
            data["sampling"] = tuple(data["sampling"])
        return cls(**data)

    def build_machine(self) -> MachineConfig:
        try:
            machine = STANDARD_MACHINES[self.machine]()
        except KeyError:
            raise ValueError(
                f"unknown machine {self.machine!r}; known machines: "
                f"{', '.join(STANDARD_MACHINES)}.  Specs with a custom "
                f"tag need an explicit machine override at run time."
            ) from None
        if self.small_frequency_ghz is not None:
            machine = machine.with_small_frequency(self.small_frequency_ghz)
        if self.sampling is not None:
            machine = machine.with_sampling(self.sampling[0], self.sampling[1])
        return machine


class Campaign:
    """A directory-backed collection of cached simulation runs.

    The directory is a :class:`repro.runtime.store.ResultStore` --
    one atomically-written ``<spec key>.json`` per completed run, with
    corrupt entries read as misses -- so a campaign directory doubles
    as the durable half of checkpoint/resume (``repro resume``).
    """

    def __init__(self, directory: str | Path):
        from repro.runtime.store import ResultStore

        self.store = ResultStore(directory)
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> Path:
        return self.store.directory

    def _path(self, spec: RunSpec) -> Path:
        return self.store.path_for(spec)

    def is_cached(self, spec: RunSpec) -> bool:
        return self.store.contains(spec.key())

    def run(
        self, spec: RunSpec, machine: MachineConfig | None = None
    ) -> RunResult:
        """Execute a spec, or load its cached result.

        Args:
            spec: the run to execute.
            machine: optional machine override; required when
                ``spec.machine`` is a custom tag rather than one of
                the standard topology names.
        """
        key = spec.key()
        result = self.store.load(key)
        if result is not None:
            self.hits += 1
            return result
        self.misses += 1
        if machine is None:
            machine = spec.build_machine()
        result = run_workload(
            machine,
            spec.benchmarks,
            spec.scheduler,
            instructions=spec.instructions,
            seed=spec.seed,
            counter_mode=AceCounterMode(spec.counter_mode),
        )
        self.store.save(key, result)
        return result

    def run_all(
        self,
        specs: Sequence[RunSpec],
        *,
        jobs: int = 1,
        engine: "ExecutionEngine | None" = None,
        machines: MachineConfig | Sequence[MachineConfig | None] | None = None,
        checks=None,
    ) -> list[RunResult]:
        """Execute a batch of specs through the runtime engine.

        Results come back in spec order, identically to running each
        spec serially.  With the engine's default fail-fast policy a
        permanent job failure raises
        :class:`~repro.runtime.retry.CampaignError`; under a collect
        policy, failed entries are ``None``.

        ``checks`` is the engine's opt-in per-result invariant hook
        (see :func:`repro.check.default_run_checks`); it validates
        cached and freshly executed results alike.
        """
        from repro.runtime.engine import ExecutionEngine

        if engine is None:
            engine = ExecutionEngine(jobs=jobs, checks=checks)
        elif checks is not None and engine.checks is None:
            engine.checks = checks
        report = engine.run_many(specs, machines=machines, store=self.store)
        self.hits += report.cache_hits
        self.misses += report.executed
        return report.results

    def sweep(
        self,
        machine: str,
        workloads: Sequence[WorkloadMix | Sequence[str]],
        schedulers: Sequence[str],
        instructions: int | None,
        *,
        jobs: int = 1,
        engine: "ExecutionEngine | None" = None,
        checks=None,
        **overrides,
    ) -> dict[str, list[RunResult]]:
        """Cached equivalent of :func:`repro.sim.experiment.sweep`.

        Extra keyword ``overrides`` become :class:`RunSpec` fields
        (e.g. ``counter_mode``, ``small_frequency_ghz``); ``jobs`` and
        ``engine`` control parallel execution, and ``checks`` runs the
        per-result invariant hook on every run.
        """
        specs = []
        for index, mix in enumerate(workloads):
            names = (
                mix.benchmarks if isinstance(mix, WorkloadMix) else tuple(mix)
            )
            for scheduler in schedulers:
                specs.append(
                    RunSpec(
                        machine=machine,
                        benchmarks=names,
                        scheduler=scheduler,
                        instructions=instructions,
                        seed=index,
                        **overrides,
                    )
                )
        flat = self.run_all(specs, jobs=jobs, engine=engine, checks=checks)
        results: dict[str, list[RunResult]] = {s: [] for s in schedulers}
        for spec, result in zip(specs, flat):
            results[spec.scheduler].append(result)
        return results

    def clear(self) -> int:
        """Delete every cached result; returns the number removed."""
        return self.store.clear()
