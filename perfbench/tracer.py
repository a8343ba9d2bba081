"""Layer spans timed from outside the program.

A :class:`SpanRecorder` keeps every span as (boundary, start, end, parent)
in flat arrays and reduces them to per-boundary counts and self times when
the run ends.  :func:`install` patches the layer boundaries of the ``repro``
package (class and module attributes) with wrappers that record spans, and
returns the :class:`Patches` that put every original back.  Generator
methods are wrapped so that each resumption is one span; plain functions
get one span per call.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (layer, owner path, attribute names).  Owners are ``module:Class`` or a
#: bare module; every attribute listed is replaced while tracing.
BOUNDARIES: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("kernel", "repro.sim.kernel:Simulator",
     ("run_until_processes_finish", "run")),
    ("core", "repro.cpu.core:Core", ("run", "handle")),
    ("protocol.port", "repro.protocols.table:TableCorePort",
     ("store", "load", "atomic", "fence", "drain", "finish", "on_message")),
    ("protocol.dir", "repro.protocols.base:DirectoryNode", ("handle",)),
    ("protocol.dir", "repro.protocols.table:TableDirectory", ("_process",)),
    ("network", "repro.interconnect.network:Network", ("send",)),
    ("faults", "repro.faults:FaultInjector",
     ("accept", "link_ready_ns", "serialization_factor", "retry_delay_ns",
      "release_ns", "duplicate_delay_ns", "assign_seq")),
    ("stats", "repro.sim.stats:Counter", ("add",)),
    ("stats", "repro.sim.stats:Accumulator", ("add",)),
    ("stats", "repro.sim.stats:MaxTracker", ("set", "add")),
    ("check.visited", "repro.litmus.visited:MemoryVisitedSet", ("add",)),
    ("check.visited", "repro.litmus.visited:SqliteVisitedSet", ("add",)),
    ("check.symmetry", "repro.litmus.model_checker", ("find_automorphisms",)),
    ("check.rc", "repro.litmus.model_checker", ("check_rc",)),
]

#: Spans the benchmark opens around its own calls into the program.
EXPLICIT = ("setup.build", "setup.machine", "setup.checker", "harvest",
            "check.explore")


def boundary_names() -> List[str]:
    """Every boundary as ``layer/attribute``, in span-id order."""
    names = [f"{layer}/{attr}" for layer, _, attrs in BOUNDARIES
             for attr in attrs]
    return names + [f"{name}/span" for name in EXPLICIT]


def _resolve(path: str) -> Any:
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class SpanRecorder:
    """Spans kept in memory: boundary id, start, end and parent index."""

    def __init__(self) -> None:
        self.names = boundary_names()
        self.ids = {name: index for index, name in enumerate(self.names)}
        self.boundary = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: List[int] = []

    def enter(self, boundary: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.boundary.append(boundary)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def leave(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.enter(self.ids[f"{name}/span"])
        try:
            yield
        finally:
            self.leave(index)

    def reduce(self) -> Dict[str, Any]:
        """Per-boundary ``{"count", "self_s"}`` plus root-span coverage."""
        count = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        covered = 0.0
        boundary, start, end, parent = (self.boundary, self.start, self.end,
                                        self.parent)
        for index in range(len(start)):
            duration = end[index] - start[index]
            kind = boundary[index]
            count[kind] += 1
            self_s[kind] += duration
            up = parent[index]
            if up < 0:
                covered += duration
            else:
                self_s[boundary[up]] -= duration
        return {
            "spans": len(start),
            "covered_s": covered,
            "boundaries": {
                name: {"count": count[i], "self_s": self_s[i]}
                for i, name in enumerate(self.names) if count[i]
            },
        }


class NullRecorder:
    """Stands in for a recorder in untraced processes: spans cost nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return self._null


def _wrap_call(fn: Callable, boundary: int, rec: SpanRecorder) -> Callable:
    enter, leave = rec.enter, rec.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = enter(boundary)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(index)

    return wrapper


def _wrap_generator(fn: Callable, boundary: int,
                    rec: SpanRecorder) -> Callable:
    enter, leave = rec.enter, rec.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        resume, value = gen.send, None
        while True:
            index = enter(boundary)
            try:
                yielded = resume(value)
            except StopIteration as stop:
                return stop.value
            finally:
                leave(index)
            try:
                value = yield yielded
                resume = gen.send
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as error:  # forwarded into the generator
                resume, value = gen.throw, error

    return wrapper


_MISSING = object()


class Patches:
    """Attributes replaced by :func:`install`, and how to put them back."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self.saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            if original is _MISSING:
                delattr(owner, name)      # it was inherited, not defined here
            else:
                setattr(owner, name, original)


def install(rec: SpanRecorder) -> Patches:
    """Wrap every boundary in :data:`BOUNDARIES`; restore with the result."""
    patches = Patches()
    try:
        for layer, path, attrs in BOUNDARIES:
            owner = _resolve(path)
            for attr in attrs:
                fn = getattr(owner, attr)
                boundary = rec.ids[f"{layer}/{attr}"]
                wrap = (_wrap_generator if inspect.isgeneratorfunction(fn)
                        else _wrap_call)
                patches.replace(owner, attr, wrap(fn, boundary, rec))
    except BaseException:
        patches.restore()
        raise
    return patches


def layer_totals(reduced: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Sum boundary counts and self times per layer (``layer/attr`` keys)."""
    totals: Dict[str, Dict[str, float]] = {}
    for name, row in reduced["boundaries"].items():
        layer = name.split("/", 1)[0]
        slot = totals.setdefault(layer, {"count": 0, "self_s": 0.0})
        slot["count"] += row["count"]
        slot["self_s"] += row["self_s"]
    return totals
