"""Run specifications: the content-addressed key of a campaign's runs.

A campaign is a list of :class:`RunSpec`s (planned by
:func:`repro.sim.experiment.sweep_specs`) run through
:meth:`repro.runtime.engine.ExecutionEngine.run_many`.  With a
:class:`~repro.runtime.store.ResultStore` each run's result is
persisted as JSON under its spec key the first time it executes, and
re-running the campaign serves it from there.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.ace.counters import AceCounterMode
from repro.config.machines import STANDARD_MACHINES, MachineConfig
from repro.sim.serialize import shallow_dict


def build_machine(
    machine: str,
    small_frequency_ghz: float | None = None,
    sampling: tuple[int, float] | None = None,
) -> MachineConfig:
    """A standard topology with the overrides a :class:`RunSpec` carries."""
    try:
        config = STANDARD_MACHINES[machine]()
    except KeyError:
        raise ValueError(
            f"unknown machine {machine!r}; known machines: "
            f"{', '.join(STANDARD_MACHINES)}.  Specs with a custom "
            f"tag need an explicit machine override at run time."
        ) from None
    if small_frequency_ghz is not None:
        config = config.with_small_frequency(small_frequency_ghz)
    if sampling is not None:
        config = config.with_sampling(sampling[0], sampling[1])
    return config


def machine_fields(machine: MachineConfig) -> dict | None:
    """The spec fields that describe ``machine``: the inverse of
    :func:`build_machine`.

    A setting the standard topology already has reads ``None``, so a
    standard machine's specs keep their keys.  Returns ``None`` when
    :func:`build_machine` cannot rebuild ``machine``: a custom
    topology, or one changed beyond the two overrides.
    """
    factory = STANDARD_MACHINES.get(machine.name)
    if factory is None:
        return None
    reference = factory()
    sampling = (
        machine.sampling_period_quanta,
        machine.sampling_quantum_seconds,
    )
    fields = {
        "machine": machine.name,
        "small_frequency_ghz": (
            machine.small.frequency_ghz
            if machine.small != reference.small
            else None
        ),
        "sampling": (
            sampling
            if sampling
            != (
                reference.sampling_period_quanta,
                reference.sampling_quantum_seconds,
            )
            else None
        ),
    }
    return fields if build_machine(**fields) == machine else None


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
        :func:`~repro.sim.serialize.shallow_dict`), so a field added
        to the spec -- a new scheduler kwarg, say -- can never be
        silently omitted from the cache key and collide two distinct
        runs.  The JSON encoding matches the previous hand-written
        payload exactly, so existing cache directories stay valid.
        """
        payload = json.dumps(shallow_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from its dict of fields
        (:func:`~repro.sim.serialize.shallow_dict`).

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
        return build_machine(
            self.machine, self.small_frequency_ghz, self.sampling
        )
