"""One segment step: the only code that executes a segment of a quantum.

:class:`SegmentStep` executes the segments of scheduler quanta for
:class:`~repro.sim.multicore.MulticoreSimulation` and
:class:`~repro.service.server.OpenSystem`.  It derives the memory
environments from the demands the previous segment measured, charges
migration overhead, runs each slice on its core's model, clips a slice
at its application's end when asked to, and returns per-application
deltas, the observations the scheduler sees and the new demands.  The
callers keep their own bookkeeping.

Inside the step a demand is a plain (L3 accesses per second, DRAM
accesses per second) pair, and the environments are the LLC shares
and the bus multiplier that
:func:`~repro.memory.interference.contention` derives from the pairs,
with every check ``ApplicationDemand`` and ``MemoryEnvironment`` make.
Slices get those plain values; the dataclasses stay at the API edge
(``InterferenceModel.environments``, ``run_cycles``).  A step built
with ``observe=False`` builds no ``Observation``: its caller's
scheduler keeps the base class's no-op ``observe``.

Every slice reaches the step as :data:`SliceColumns`.  Unmodified
mechanistic models hand them over from
``MechanisticCoreModel.run_columns`` directly, so a computed segment
builds no per-structure dict and no ``QuantumResult``; every other
model, and a worker map (``execute``), returns a ``QuantumResult``
that is turned into columns.  The step clips and sums the columns with
the operations of ``QuantumResult.clipped`` and
``QuantumResult.total_ace_bit_cycles``, and reads the counters through
:func:`~repro.ace.counters.counter_reading`, the rule
:func:`~repro.ace.counters.measured_abc` applies to a result.

With unmodified mechanistic models a step also replays segments it
computed before.  The key holds the assignment, the duration, the
incoming demands, the migrated flags and the ids of the applications'
phase objects; an entry pins those objects and a hit is confirmed by
identity.  A segment is stored only when every slice committed an
instruction and ended strictly inside its phase without a clip, and an
entry replays only while each stored slice still ends inside its
application's current phase and, when the step clips, within the
application.  Then ``MechanisticCoreModel.run_columns`` is a pure
function of (phase, cycles, environment), so a replay is exact;
docs/performance.md ("Segment replay") writes out the argument.  A
model that overrides ``run_cycles`` or ``run_columns`` takes the
generic path and never replays; trace-driven models carry cache state
between slices.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.ace.counters import AceCounterMode, counter_reading
from repro.config.cores import CoreConfig
from repro.config.machines import MachineConfig, MemoryConfig
from repro.cores.base import CoreModel, MemoryEnvironment, QuantumResult
from repro.cores.mechanistic import MechanisticCoreModel, SliceColumns
from repro.memory.interference import contention
from repro.obs import tracing
from repro.sched.base import PARKED, Observation

#: Keys one step's replay memo holds before it is emptied.  A
#: sampling-scheduler run at paper scale has a few dozen distinct
#: segments; a random-scheduler run repeats none (docs/performance.md).
SEGMENT_MEMO_CAP = 256

#: Models the process-wide table holds before it is emptied.
MODEL_TABLE_CAP = 16

_MODELS: dict[tuple[CoreConfig, MemoryConfig], MechanisticCoreModel] = {}

#: The demand of an application that did not run: (L3 accesses per
#: second, DRAM accesses per second).
NO_DEMAND = (0.0, 0.0)

#: Memo value of a key seen once.
_SEEN = ()

#: One running application's share of a segment, as a plain tuple:
#: (core id, core type, migrated, overhead seconds, instructions,
#:  cycles, ABC seconds, occupancy bit-seconds, L3 accesses,
#:  DRAM accesses).  Non-running applications get ``None``.
SliceDelta = tuple

#: One slice to execute on a worker map: (model, application, start
#: position, cycles, memory environment).
Slice = tuple


def _result_columns(result: QuantumResult) -> SliceColumns:
    """A core model's result as :data:`SliceColumns`; the occupancy
    column keeps only the values, which the step sums."""
    ace = result.ace_bit_cycles
    return (
        result.instructions, result.cycles, tuple(ace), tuple(ace.values()),
        tuple(result.occupancy_bit_cycles.values()), result.memory_accesses,
        result.l3_accesses, result.branch_mispredictions,
    )


def _generic_slice(model, app, position, cycles, share, multiplier,
                   start_span):
    """Run a slice through ``run_cycles``, the path of every model but
    an unmodified :class:`MechanisticCoreModel`."""
    return _result_columns(model.run_cycles(
        app, position, cycles, MemoryEnvironment(share, multiplier)
    ))


def mechanistic_model(
    core: CoreConfig, memory: MemoryConfig
) -> MechanisticCoreModel:
    """The process's mechanistic model of one (core, memory) pair.

    One table serves every run in a process, so the models' phase
    feature tables outlive a single run.
    """
    key = (core, memory)
    model = _MODELS.get(key)
    if model is None:
        if len(_MODELS) >= MODEL_TABLE_CAP:
            _MODELS.clear()
        model = MechanisticCoreModel(core, memory)
        _MODELS[key] = model
    return model


class SegmentStep:
    """Executes the segments of one simulation or one open system.

    When every model is an unmodified :class:`MechanisticCoreModel`,
    slices run through ``run_columns`` and segments replay; otherwise
    every slice runs through ``run_cycles`` and nothing replays.
    Demands in and out are (L3 accesses per second, DRAM accesses per
    second) pairs; a segment that measures a negative one raises
    ``ValueError``, as constructing an ``ApplicationDemand`` did.

    Args:
        machine: the machine; core ids index its cores.
        models: the core model of each core type.
        counter_mode: the ACE counter architecture observations read.
        clip: cut a slice back at its application's end (run to
            completion); ``False`` lets applications run on past it
            (restarted applications).
        execute: optional; runs a segment's list of slices and returns
            their ``QuantumResult``s in order (a worker pool).  By
            default each slice runs in this process as it is needed.
        observe: build the observations a scheduler reads; ``False``
            returns ``None`` in their place (a scheduler that keeps
            the base class's no-op ``observe``).
    """

    def __init__(
        self,
        machine: MachineConfig,
        models: Mapping[str, CoreModel],
        counter_mode: AceCounterMode,
        *,
        clip: bool,
        execute: Callable[[list[Slice]], list[QuantumResult]] | None = None,
        observe: bool = True,
    ):
        self.counter_mode = counter_mode
        self.clip = clip
        self.execute = execute
        self.observe = observe
        self._bandwidth = machine.memory.dram_bandwidth_gbps * 1e9
        self._overhead = machine.migration_overhead_seconds
        # Per core id: (type, model, frequency in Hz, out-of-order).
        self._cores = []
        for core in range(machine.num_cores):
            config = machine.core_config(core)
            core_type = machine.core_type(core)
            self._cores.append((
                core_type, models[core_type],
                config.frequency_hz, config.out_of_order,
            ))
        # Replays and columns rest on the purity of
        # MechanisticCoreModel.run_columns; a subclass that overrides it
        # or run_cycles takes the generic path and does not replay.
        replays = all(
            isinstance(model, MechanisticCoreModel)
            and type(model).run_cycles is MechanisticCoreModel.run_cycles
            and type(model).run_columns is MechanisticCoreModel.run_columns
            for _, model, _, _ in self._cores
        )
        self._memo: dict[tuple, tuple] | None = {} if replays else None
        self._run_slice = (
            MechanisticCoreModel.run_columns if replays else _generic_slice
        )
        self._idle: dict[tuple[int, int], Observation] = {}

    def run(
        self,
        core_of: tuple[int, ...],
        duration: float,
        demands: Sequence[tuple[float, float]],
        apps: Sequence,
        positions: Sequence[int],
        last_cores: Sequence[int | None],
    ) -> tuple[
        Sequence[SliceDelta | None],
        list[Observation] | None,
        Sequence[tuple[float, float]],
    ]:
        """Execute one segment.

        ``core_of[i]`` is application ``i``'s core (or ``PARKED``),
        ``demands[i]`` its (L3 rate, DRAM rate) pair from the previous
        segment, ``apps[i]`` the application, or ``None`` when its core
        idles (a finished application run to completion, an empty
        slot), and ``last_cores[i]`` the core it last ran on.  Returns
        one :data:`SliceDelta` (``None`` for parked and idle
        applications), one observation (or ``None`` for the whole list
        when the step does not observe) and one new demand pair per
        application.  Replayed deltas and demands are shared, immutable
        tuples; the observation list is always fresh.
        """
        memo = self._memo
        spans = None
        migrated = [
            core != PARKED and app is not None
            and last is not None and last != core
            for core, app, last in zip(core_of, apps, last_cores)
        ]
        entry = None
        if memo is not None:
            # Each running application's (phase, instructions left in
            # it), looked up once: the slice starts from it too.
            spans = [
                None if app is None or core == PARKED
                else app.phase_span(position)
                for core, app, position in zip(core_of, apps, positions)
            ]
            phases = [None if found is None else found[0] for found in spans]
            key: list | tuple = [core_of, duration]
            for demand, flag, chars in zip(demands, migrated, phases):
                key += (demand, flag, id(chars))
            key = tuple(key)
            entry = memo.get(key)
            if entry and self._replays(entry, phases, spans, apps, positions):
                stored = entry[3]
                return (
                    entry[2], None if stored is None else list(stored),
                    entry[4],
                )

        shares, multiplier = contention(demands, self._bandwidth)
        cores = self._cores
        # The state transfer a migrated application pays.
        transfer = min(self._overhead, duration)
        results = None
        if self.execute is not None:
            slices = [
                (cores[core][1], app, position,
                 (duration - (transfer if flag else 0.0)) * cores[core][2],
                 MemoryEnvironment(share, multiplier))
                for core, app, position, share, flag in zip(
                    core_of, apps, positions, shares, migrated
                )
                if core != PARKED and app is not None
            ]
            if slices:
                results = iter(self.execute(slices))
        run_slice = self._run_slice
        if spans is None:
            spans = [None] * len(core_of)
        traced = tracing.ACTIVE is not None

        clip = self.clip
        clipped = False
        counter_mode = self.counter_mode
        deltas: list[SliceDelta | None] = []
        observations: list[Observation] | None = [] if self.observe else None
        new_demands = []
        for i, core in enumerate(core_of):
            app = apps[i]
            if core == PARKED or app is None:
                deltas.append(None)
                if observations is not None:
                    observations.append(self._idle_observation(i, core))
                new_demands.append(NO_DEMAND)
                continue
            core_type, model, freq, out_of_order = cores[core]
            flag = migrated[i]
            overhead = transfer if flag else 0.0
            if results is not None:
                columns = _result_columns(next(results))
            elif traced:
                with tracing.span("sim.exec", core=core_type):
                    columns = run_slice(
                        model, app, positions[i], (duration - overhead) * freq,
                        shares[i], multiplier, spans[i],
                    )
            else:
                columns = run_slice(
                    model, app, positions[i], (duration - overhead) * freq,
                    shares[i], multiplier, spans[i],
                )
            (count, cycles, structures, ace, occupancy,
             dram, l3, mispredictions) = columns
            if clip and count > app.instructions - positions[i]:
                # Clip the slice at the application's end with the
                # operations of ``QuantumResult.clipped``; the rest of
                # the segment idles.
                left = app.instructions - positions[i]
                scale = left / count
                count = left
                cycles = cycles * scale
                ace = [value * scale for value in ace]
                occupancy = [value * scale for value in occupancy]
                dram = dram * scale
                l3 = l3 * scale
                mispredictions = mispredictions * scale
                clipped = True
            total = sum(ace)
            deltas.append((
                core, core_type, flag, overhead, count, cycles,
                total / freq, sum(occupancy) / freq, l3, dram,
            ))
            l3_rate = l3 / duration
            dram_rate = dram / duration
            if l3_rate < 0 or dram_rate < 0:  # as ApplicationDemand checks
                raise ValueError("demands must be non-negative")
            new_demands.append((l3_rate, dram_rate))
            if observations is not None:
                # The counters measure rates over the time the
                # application actually executed; the migration dead
                # time is invisible to them (it still costs wall-clock
                # time in the caller's ground-truth accounting).
                observations.append(Observation(
                    i, core, core_type, duration - overhead, count,
                    counter_reading(
                        total, structures, ace, counter_mode, out_of_order
                    ) / freq,
                    l3, dram, mispredictions,
                ))
        if memo is not None and not clipped and SEGMENT_MEMO_CAP > 0:
            if entry is None:
                # First sighting: remember the key only.  A segment is
                # stored when it recurs, so runs that never repeat one
                # (the random scheduler) build and keep no entries.
                if len(memo) >= SEGMENT_MEMO_CAP:
                    memo.clear()
                memo[key] = _SEEN
            else:
                self._store(
                    key, phases, spans, deltas, observations, new_demands
                )
        return deltas, observations, new_demands

    def _idle_observation(self, i: int, core: int) -> Observation:
        """What the counters of a parked application (oversubscription:
        it waits this segment) or an idle core report; built once."""
        observation = self._idle.get((i, core))
        if observation is None:
            core_type = "parked" if core == PARKED else self._cores[core][0]
            observation = Observation(i, core, core_type, 0.0, 0, 0.0)
            self._idle[(i, core)] = observation
        return observation

    def _store(
        self, key, phases, spans, deltas, observations, new_demands
    ) -> None:
        """Store a computed segment if every slice committed at least
        one instruction and ended strictly inside its phase."""
        counts = tuple([None if d is None else d[4] for d in deltas])
        for count, found in zip(counts, spans):
            if count is not None and not 0 < count < found[1]:
                return
        self._memo[key] = (
            tuple(phases), counts, tuple(deltas),
            None if observations is None else tuple(observations),
            tuple(new_demands),
        )

    def _replays(self, entry, phases, spans, apps, positions) -> bool:
        """Whether a stored segment is exactly what computing would give:
        the same phase objects, and every stored slice still ends
        inside its phase and, when clipping, within its application."""
        clip = self.clip
        for i, (stored, count) in enumerate(zip(entry[0], entry[1])):
            if stored is not phases[i]:
                return False
            if count is not None and (
                count >= spans[i][1]
                or clip and count > apps[i].instructions - positions[i]
            ):
                return False
        return True
