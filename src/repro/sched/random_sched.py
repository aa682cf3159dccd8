"""Random scheduler: the paper's baseline.

Each scheduler quantum, the applications that run on the big core(s)
are selected at random (Section 6): the whole application-to-core
mapping is drawn as a fresh random permutation every quantum.

The draws are two ``Generator.permutation`` calls per quantum, one
over the cores and one over the applications.  With as many
applications as cores both have the same length, and the scheduler
takes them from a block: ``Generator.permuted`` over the rows of a
tiled ``arange(n)`` yields exactly the rows successive
``permutation(n)`` calls would, and leaves the generator in the same
state (``tests/test_sched_schedulers.py`` pins both).  The generator
belongs to one scheduler, so rows drawn past a run's end change no
output.
"""

from __future__ import annotations

import numpy as np

from repro.config.machines import MachineConfig
from repro.sched.base import PARKED, Assignment, Scheduler, SegmentPlan

#: Permutations one block draws: two per quantum.
_BLOCK_ROWS = 512


class RandomScheduler(Scheduler):
    """Uniformly random application-to-core mapping per quantum.

    With more applications than cores (oversubscription), a random
    subset of applications runs each quantum and the rest are parked;
    such a scheduler draws its two permutations per call, since their
    lengths differ.  Otherwise it takes them from a block (module
    docstring) and hands out one shared, immutable plan per mapping.
    It keeps the base class's no-op ``observe``, so a simulation
    builds no observations for it.
    """

    supports_oversubscription = True

    def __init__(self, machine: MachineConfig, num_apps: int, seed: int = 0):
        super().__init__(machine, num_apps)
        self._rng = np.random.default_rng(seed)
        # Block-drawn mappings, the next one last; and the plan of each
        # mapping seen, which is immutable.
        self._block: list[tuple[int, ...]] = []
        self._plans: dict[tuple[int, ...], SegmentPlan] = {}

    def plan_quantum(self, quantum_index: int) -> list[SegmentPlan]:
        if self.num_apps != self.machine.num_cores:
            cores = self._rng.permutation(self.machine.num_cores)
            apps = self._rng.permutation(self.num_apps)
            core_of = [PARKED] * self.num_apps
            for slot, app in enumerate(apps[: self.machine.num_cores]):
                core_of[int(app)] = int(cores[slot])
            return [SegmentPlan(1.0, Assignment(tuple(core_of)))]
        if not self._block:
            self._block = self._draw_block()
        core_of = self._block.pop()
        plan = self._plans.get(core_of)
        if plan is None:
            plan = self._plans[core_of] = SegmentPlan(1.0, Assignment(core_of))
        return [plan]

    def _draw_block(self) -> list[tuple[int, ...]]:
        """The mappings of the next ``_BLOCK_ROWS // 2`` quanta, last
        first: rows ``2q`` and ``2q + 1`` are quantum ``q``'s core and
        application permutations, and application ``apps[s]`` runs on
        core ``cores[s]``."""
        n = self.num_apps
        rows = self._rng.permuted(np.tile(np.arange(n), (_BLOCK_ROWS, 1)), axis=1)
        core_of = np.empty_like(rows[0::2])
        np.put_along_axis(core_of, rows[1::2], rows[0::2], axis=1)
        return [tuple(mapping) for mapping in reversed(core_of.tolist())]
