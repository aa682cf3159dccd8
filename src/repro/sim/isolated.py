"""Isolated (single-application) execution helpers.

Two things need isolated runs:

* the **reference times** that weight SSER and STP (``T_ref`` is the
  application's execution time on an isolated big core, Section 3);
* the **oracle schedules** of Section 2.4, which are built purely
  from isolated per-core-type performance and SER numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.machines import BIG, SMALL
from repro.cores.base import ISOLATED, CoreModel, MemoryEnvironment, QuantumResult
from repro.workloads.characteristics import BenchmarkProfile

#: Cycle-budget granularity for isolated runs of generic core models.
_CHUNK_CYCLES = 50e6


def run_isolated(
    model: CoreModel,
    profile: BenchmarkProfile,
    env: MemoryEnvironment = ISOLATED,
    chunk_cycles: float = _CHUNK_CYCLES,
) -> QuantumResult:
    """Run a full profile to completion on an isolated core.

    Works with any :class:`CoreModel` by repeatedly granting cycle
    budgets until the profile's instruction count is reached.
    """
    total = QuantumResult.zero()
    position = 0
    while position < profile.instructions:
        chunk = model.run_cycles(profile, position, chunk_cycles, env)
        if chunk.instructions <= 0:
            raise RuntimeError(
                f"{profile.name}: core model made no progress at {position}"
            )
        # Clip the final chunk at the profile boundary.
        overshoot = position + chunk.instructions - profile.instructions
        if overshoot > 0:
            chunk = chunk.clipped(chunk.instructions - overshoot)
        total = total.merged_with(chunk)
        position += chunk.instructions
    return total


@dataclass(frozen=True)
class IsolatedRun:
    """Summary of one application alone on one core type.

    Attributes:
        core_type: ``"big"`` or ``"small"``.
        time_seconds: full-run execution time.
        abc_seconds: full-run ACE bit-seconds.
        instructions: the profile's instruction count.
    """

    core_type: str
    time_seconds: float
    abc_seconds: float
    instructions: int

    @property
    def ser_rate(self) -> float:
        """ACE bits per second (proportional to SER)."""
        return self.abc_seconds / self.time_seconds


@dataclass(frozen=True)
class IsolatedStats:
    """Isolated big- and small-core summaries of one application."""

    name: str
    big: IsolatedRun
    small: IsolatedRun

    def run(self, core_type: str) -> IsolatedRun:
        if core_type == BIG:
            return self.big
        if core_type == SMALL:
            return self.small
        raise ValueError(f"unknown core type {core_type!r}")

    @property
    def reference_time_seconds(self) -> float:
        """T_ref: the isolated big-core execution time."""
        return self.big.time_seconds


def isolated_stats(
    profile: BenchmarkProfile,
    big_model: CoreModel,
    small_model: CoreModel,
) -> IsolatedStats:
    """Isolated statistics of one profile on both core types."""
    results = {}
    for core_type, model in ((BIG, big_model), (SMALL, small_model)):
        run = run_isolated(model, profile)
        results[core_type] = IsolatedRun(
            core_type=core_type,
            time_seconds=run.cycles / model.core.frequency_hz,
            abc_seconds=run.total_ace_bit_cycles / model.core.frequency_hz,
            instructions=run.instructions,
        )
    return IsolatedStats(name=profile.name, big=results[BIG], small=results[SMALL])


class ReferenceTimes:
    """Isolated big-core time as a function of work done.

    ``seconds_for(n)`` is the time an isolated big core needs for the
    first ``n`` dynamic instructions of the application, with whole-run
    wrap-around for restarted applications.  Built from per-segment
    seconds-per-instruction so mid-run phase changes are respected.
    """

    def __init__(
        self,
        profile,
        segment_seconds_per_instruction: list[float],
        boundaries: list[int] | None = None,
    ):
        """Construct from per-segment rates.

        Args:
            profile: anything with an ``instructions`` attribute; a
                :class:`BenchmarkProfile` supplies segment boundaries
                from its phases when ``boundaries`` is omitted.
            segment_seconds_per_instruction: rate per segment.
            boundaries: cumulative instruction boundaries, length
                ``len(rates) + 1``; defaults to the profile's phase
                boundaries.
        """
        if boundaries is None:
            boundaries = profile.phase_boundaries()
        if len(segment_seconds_per_instruction) != len(boundaries) - 1:
            raise ValueError("need one rate per segment")
        self.profile = profile
        self._spi = list(segment_seconds_per_instruction)
        self._boundaries = list(boundaries)
        self._full = sum(
            (self._boundaries[i + 1] - self._boundaries[i]) * self._spi[i]
            for i in range(len(self._spi))
        )

    @classmethod
    def from_models(
        cls, profile: BenchmarkProfile, big_model
    ) -> "ReferenceTimes":
        """Build from a mechanistic big-core model's phase analyses."""
        spi = []
        for _, chars in profile.phases:
            analysis = big_model.analyze(chars, ISOLATED)
            spi.append(analysis.cpi / big_model.core.frequency_hz)
        return cls(profile, spi)

    @classmethod
    def uniform(cls, profile, total_seconds: float) -> "ReferenceTimes":
        """A single-segment curve: constant seconds per instruction.

        Works for any application object exposing ``instructions``
        (trace-backed applications have no phase structure).
        """
        rate = total_seconds / profile.instructions
        return cls(profile, [rate], boundaries=[0, profile.instructions])

    @property
    def full_run_seconds(self) -> float:
        return self._full

    def seconds_for(self, instructions: int) -> float:
        """Reference time for a number of instructions (wrapping)."""
        if instructions < 0:
            raise ValueError("instruction count cannot be negative")
        full_runs, rest = divmod(instructions, self.profile.instructions)
        seconds = full_runs * self._full
        for i in range(len(self._spi)):
            lo, hi = self._boundaries[i], self._boundaries[i + 1]
            if rest <= lo:
                break
            seconds += (min(rest, hi) - lo) * self._spi[i]
        return seconds
