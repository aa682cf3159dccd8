"""Outside-in layer timing: wrap public callables of ``repro`` by dotted path.

The benchmark measures layers from outside the program.  A
:class:`LayerTimer` patches each named callable with a timing wrapper,
records calls, busy time and self time per layer, and restores every
patched attribute on exit -- also when the body raises::

    timer = LayerTimer(default_layers())
    with timer:
        with timer.root("paper_fig06"):
            ...  # calls into repro
    timer.stats["cores.mechanistic.analyze"].self_seconds
    timer.tree()  # span tree in repro.obs.tracing.SpanNode format

A target is ``module.attr`` or ``module.Class.attr``.  Patch a function
where its caller looks it up: ``repro.sim.tracedriven.run_isolated``
times the calls made by the trace-driven path, not every caller of
``repro.sim.isolated.run_isolated``.  A target whose module or
attribute is missing is listed in :attr:`LayerTimer.absent` and
skipped.

Only calls made on the thread that entered the timer, inside a
:meth:`LayerTimer.root` block, are timed.  A call's self time is its
duration minus the durations of the timed calls it made, so the self
times of all layers plus the root's own self time add up to the root's
total.  A call into a layer that is already active (recursion, or an
override calling ``super()`` into another patched method) runs
unwrapped: it is neither counted twice nor split.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Layer:
    """One measured layer.

    Attributes:
        name: metric prefix, ``<module>.<callable>``.
        targets: dotted paths of the callables to wrap.
        repeat_key: optional ``(*args, **kwargs) -> key``; a call whose
            key was seen before counts as a repeat (work a memo could
            skip).
        size: optional ``(*args, **kwargs) -> number``, summed over
            calls (for example the accesses in a batch), reported as
            ``<name>.<size_name>``.
    """

    name: str
    targets: tuple[str, ...]
    repeat_key: Callable[..., Any] | None = None
    size: Callable[..., float] | None = None
    size_name: str = "size"


@dataclass
class LayerStats:
    calls: int = 0
    busy_seconds: float = 0.0
    self_seconds: float = 0.0
    repeats: int = 0
    size: float = 0.0


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a dotted target; raises LookupError."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            if not hasattr(owner, part):
                raise LookupError(target)
            owner = getattr(owner, part)
        if not hasattr(owner, parts[-1]):
            raise LookupError(target)
        return owner, parts[-1]
    raise LookupError(target)


class LayerTimer:
    """Context manager that times a set of layers from outside."""

    def __init__(self, layers: tuple[Layer, ...]):
        # Imported here so this module loads without the program.
        from repro.obs.tracing import SpanNode

        self.layers = layers
        self.stats: dict[str, LayerStats] = {
            layer.name: LayerStats() for layer in layers
        }
        self.absent: list[str] = []
        self._root = SpanNode("root")
        self._stack: list[list] = []  # [node, child_seconds] frames
        self._active: dict[str, bool] = {layer.name: False for layer in layers}
        self._seen: dict[str, dict] = {layer.name: {} for layer in layers}
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self._thread = 0
        #: Time inside :meth:`root` blocks, and the part of it spent
        #: outside every timed layer call.
        self.root_seconds = 0.0
        self.unattributed_seconds = 0.0

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "LayerTimer":
        self._thread = threading.get_ident()
        try:
            for layer in self.layers:
                for target in layer.targets:
                    self._patch(layer, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _patch(self, layer: Layer, target: str) -> None:
        try:
            owner, name = _resolve(target)
        except LookupError:
            self.absent.append(target)
            return
        # The raw descriptor, so classmethods stay classmethods; a class
        # that inherits the attribute gets its own patched copy.
        original = inspect.getattr_static(owner, name)
        if isinstance(original, (classmethod, staticmethod)):
            patched: Any = type(original)(self._wrap(layer, original.__func__))
        else:
            patched = self._wrap(layer, original)
        own = not isinstance(owner, type) or name in vars(owner)
        self._patches.append((owner, name, own, original))
        setattr(owner, name, patched)

    def _restore(self) -> None:
        while self._patches:
            owner, name, own, original = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)  # the class inherited it

    def patched_originals(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` of every live patch; after
        exit, ``inspect.getattr_static(owner, attribute)`` is the
        original again."""
        return [(o, n, orig) for o, n, _, orig in self._patches]

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        stats = self.stats[name]
        active = self._active
        stack = self._stack
        seen = self._seen[name]
        repeat_key = layer.repeat_key
        size = layer.size
        thread = self._thread

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if (
                active[name]
                or not stack
                or threading.get_ident() != thread
            ):
                return fn(*args, **kwargs)
            if repeat_key is not None:
                key = repeat_key(*args, **kwargs)
                if key in seen:
                    stats.repeats += 1
                else:
                    seen[key] = args  # keeps id()-based keys unique
            if size is not None:
                stats.size += size(*args, **kwargs)
            node = stack[-1][0].child(name, ())
            frame = [node, 0.0]
            stack.append(frame)
            active[name] = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active[name] = False
                stack.pop()
                stack[-1][1] += elapsed
                stats.calls += 1
                stats.busy_seconds += elapsed
                stats.self_seconds += elapsed - frame[1]
                node.count += 1
                node.total_seconds += elapsed

        return timed

    # -- measurement ---------------------------------------------------

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Time a block of the workload; layers are timed only inside."""
        node = self._root.child(name, ())
        frame = [node, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            node.count += 1
            node.total_seconds += elapsed
            self.root_seconds += elapsed
            self.unattributed_seconds += elapsed - frame[1]

    def tree(self) -> dict[str, Any]:
        """The aggregated span tree (``repro trace --spans`` renders it)."""
        return self._root.to_dict()


# -- the benchmark's layers ------------------------------------------------------


def _analysis_key(model, chars, env):
    """(core, memory, phase, environment): the inputs of a phase analysis."""
    return (
        id(model.core),
        id(model.memory),
        id(chars),
        env.l3_share_fraction,
        env.dram_latency_multiplier,
    )


class _IsolatedRunKey:
    """(core, memory, trace, environment, pass) of an isolated run.

    The pass counts earlier runs of the same model on the same
    application: a second pass starts with warm modelled caches, so it
    is different work from the first.
    """

    def __init__(self) -> None:
        self._passes: dict[tuple[int, int], list] = {}

    def __call__(self, model, app, env=None, *args, **kwargs):
        entry = self._passes.setdefault((id(model), id(app)), [0, model, app])
        entry[0] += 1
        env_key = (
            None if env is None
            else (env.l3_share_fraction, env.dram_latency_multiplier)
        )
        return (
            id(model.core),
            id(model.memory),
            id(getattr(app, "trace", app)),
            env_key,
            entry[0],
        )


def _trace_length(profile, instructions=None, seed=0):
    return instructions if instructions is not None else profile.instructions


def default_layers() -> tuple[Layer, ...]:
    """The layers the benchmark reports, outermost first.

    Fresh objects per call: repeat keys keep per-timer state.
    """
    return (
        Layer("runtime.engine.run_many",
              ("repro.runtime.engine.ExecutionEngine.run_many",)),
        Layer("runtime.engine.codec",
              ("repro.runtime.engine.run_result_to_dict",
               "repro.runtime.engine.run_result_from_dict")),
        Layer("runtime.coordinator.run",
              ("repro.runtime.shard.ShardCoordinator.run",)),
        Layer("runtime.shard.spawn",
              ("repro.runtime.shard.ProcessShardTransport.start",)),
        Layer("runtime.events.emit",
              ("repro.runtime.events.JsonlEventSink.emit",)),
        Layer("sim.experiment.run_workload",
              ("repro.runtime.engine.run_workload",)),
        Layer("sim.tracedriven.run_trace_workload",
              ("repro.sim.tracedriven.run_trace_workload",)),
        Layer("validation.crossmodel.compare_models",
              ("repro.validation.crossmodel.compare_models",)),
        Layer("sim.multicore.run",
              ("repro.sim.multicore.MulticoreSimulation.run",)),
        Layer("sim.isolated.reference_times",
              ("repro.sim.isolated.ReferenceTimes.from_models",)),
        Layer("sim.isolated.run_isolated",
              ("repro.sim.tracedriven.run_isolated",),
              repeat_key=_IsolatedRunKey()),
        Layer("service.step", ("repro.service.server.OpenSystem.step",)),
        Layer("service.placement.plan",
              ("repro.service.placement.SlotPlacer.plan",)),
        Layer("service.run_slice", ("repro.service.server.run_slice",)),
        Layer("service.feed.emit", ("repro.service.events.ServiceFeed.emit",)),
        Layer("sched.plan_quantum",
              ("repro.sched.sampling.SamplingScheduler.plan_quantum",
               "repro.sched.random_sched.RandomScheduler.plan_quantum",
               "repro.sched.modes.ModeAwareReliabilityScheduler.plan_quantum")),
        Layer("sched.observe",
              ("repro.sched.base.Scheduler.observe",
               "repro.sched.sampling.SamplingScheduler.observe")),
        Layer("memory.interference.environments",
              ("repro.memory.interference.InterferenceModel.environments",)),
        Layer("cores.mechanistic.run_cycles",
              ("repro.cores.mechanistic.MechanisticCoreModel.run_cycles",)),
        Layer("cores.mechanistic.analyze",
              ("repro.cores.mechanistic.MechanisticCoreModel.analyze",),
              repeat_key=_analysis_key),
        Layer("cores.base.merged_with",
              ("repro.cores.base.QuantumResult.merged_with",)),
        Layer("workloads.generator.generate_trace",
              ("repro.kernels.trace_cache.generate_trace",),
              size=_trace_length, size_name="instructions"),
        Layer("cores.ooo.simulate_window",
              ("repro.cores.ooo.OutOfOrderCoreModel.simulate_window",)),
        Layer("cores.inorder.run_cycles",
              ("repro.cores.inorder.InOrderCoreModel.run_cycles",)),
        Layer("memory.hierarchy.access_data_batch",
              ("repro.memory.hierarchy.CacheHierarchy.access_data_batch",),
              size=lambda hierarchy, addresses, *a, **k: len(addresses),
              size_name="accesses"),
        Layer("memory.hierarchy.rollback_data",
              ("repro.memory.hierarchy.CacheHierarchy.rollback_data",)),
    )
