"""Discrete-event simulation kernel.

This module provides the deterministic event-driven core on which the whole
simulator is built.  It intentionally mirrors the small subset of SimPy-style
functionality the coherence models need:

* :class:`Simulator` — an event queue with a monotonically advancing clock.
* generator-based *processes* that ``yield`` either a delay (a number) or a
  :class:`Signal` to suspend themselves.
* :class:`Signal` — a broadcast wake-up primitive used for "retry later"
  protocol semantics (e.g. a stalled Release store waiting for table space).

Determinism is a hard requirement (DESIGN.md §4): events scheduled for the
same timestamp fire in scheduling order (FIFO), so identical configurations
always produce identical executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

__all__ = [
    "Simulator",
    "Signal",
    "Future",
    "Process",
    "SimulationError",
    "DeadlockError",
    "DeadlockDiagnostic",
]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid state (e.g. deadlock)."""


#: One pending event: ``(callback, args)``, dispatched as ``callback(*args)``.
#: Build them with :meth:`Simulator.entry`; the layout is private here.
_Entry = Tuple[Callable[..., None], tuple]


def _fmt_ns(value: Any) -> str:
    """Format a timestamp for diagnostics without assuming its type.

    Batched runs hand diagnostics batch-boundary times that may be plain
    ``int``s (and hooks occasionally contribute ``None`` for "never") —
    rendering a diagnostic must never raise over a formatting detail.
    """
    try:
        return f"{float(value):.1f}"
    except (TypeError, ValueError):
        return str(value)


@dataclass
class DeadlockDiagnostic:
    """Structured description of a stuck simulation.

    ``reason`` is ``"deadlock"`` (event queue drained with unfinished
    processes) or ``"livelock"`` (event budget exhausted).  ``stuck`` lists
    every watched-but-unfinished process with its last-progress time;
    ``pending`` samples the earliest pending events in dispatch order,
    including what is left of a timestamp whose dispatch the budget cut
    short; ``state`` carries whatever the simulator's
    ``diagnostic_hooks`` contributed (e.g. the machine's unacked-table
    snapshots).
    """

    reason: str
    time_ns: float
    processed_events: int
    max_events: Optional[int] = None
    stuck: List[Dict[str, Any]] = field(default_factory=list)
    pending: List[Dict[str, Any]] = field(default_factory=list)
    state: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        if self.reason == "livelock":
            head = (f"livelock: exceeded max_events={self.max_events} at "
                    f"t={_fmt_ns(self.time_ns)}ns with unfinished processes")
        else:
            head = (f"deadlock: event queue empty at "
                    f"t={_fmt_ns(self.time_ns)}ns with unfinished processes")
        lines = [head]
        for proc in self.stuck:
            lines.append(
                f"  stuck {proc['process']!r}: last progress at "
                f"{_fmt_ns(proc.get('last_progress_ns'))}ns"
            )
        if self.pending:
            lines.append(f"  next {len(self.pending)} pending events:")
            for event in self.pending:
                lines.append(
                    f"    t={_fmt_ns(event.get('at_ns'))}ns "
                    f"{event['callback']}({event['args']})"
                )
        for name, value in sorted(self.state.items()):
            lines.append(f"  {name}: {value}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class DeadlockError(SimulationError):
    """A deadlock/livelock with an attached :class:`DeadlockDiagnostic`.

    Subclasses :class:`SimulationError`, so existing handlers keep working;
    ``str(err)`` renders the full diagnostic instead of a bare string.
    """

    def __init__(self, diagnostic: DeadlockDiagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the rendered
        # string instead of the diagnostic; a worker-pool deadlock must
        # cross the process boundary intact.
        return (type(self), (self.diagnostic,))


class Signal:
    """A broadcast event that simulation processes can wait on.

    A process waits by ``yield``-ing the signal; :meth:`trigger` wakes every
    waiter at the current simulation time.  Signals are level-free: a trigger
    with no waiters is a no-op, and waiters registered after a trigger wait
    for the *next* trigger.
    """

    __slots__ = ("sim", "name", "_waiters", "trigger_count")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: The waiting processes' prebuilt wake entries, in waiting order.
        self._waiters: List[_Entry] = []
        self.trigger_count = 0

    def trigger(self, value: Any = None) -> None:
        """Wake all current waiters, delivering ``value`` to each."""
        self.trigger_count += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []
            if value is None:
                self.sim.schedule_entries(0.0, waiters)
            else:
                for resume, _ in waiters:
                    self.sim.schedule(0.0, resume, value)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Future:
    """A one-shot result that processes can wait on without lost wake-ups.

    Unlike a bare :class:`Signal`, waiting on an already-resolved future
    returns immediately — use futures whenever the trigger may fire before
    the waiter reaches its ``yield`` (e.g. fan-out request/response).
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.done = False
        self.value: Any = None
        self._signal = Signal(sim, name=name)

    def resolve(self, value: Any = None) -> None:
        if self.done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self.done = True
        self.value = value
        self._signal.trigger(value)

    def wait(self) -> Generator[Any, Any, Any]:
        """Generator: suspends until resolved, returns the value."""
        if not self.done:
            yield self._signal
        return self.value


class Process:
    """A generator-based simulation process.

    The wrapped generator may yield:

    * a non-negative number — sleep for that many time units;
    * a :class:`Signal` — suspend until the signal triggers;
    * ``None`` — reschedule immediately (yield to other same-time events).

    When the generator returns, :attr:`finished` becomes true and any
    ``on_finish`` callbacks run.
    """

    __slots__ = ("sim", "generator", "name", "finished", "result",
                 "last_progress_ns", "_finish_callbacks", "_wake")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        #: Simulation time of this process's most recent resumption — the
        #: watchdog's "when did it last do anything" attribution.
        self.last_progress_ns: float = 0.0
        self._finish_callbacks: List[Callable[["Process"], None]] = []
        #: The queue entry that resumes this process with ``None``, built
        #: once: every delay, ``yield None`` and value-less signal wake-up
        #: queues this same object instead of a new bound method and tuple.
        self._wake: _Entry = (self._resume, (None,))

    def on_finish(self, callback: Callable[["Process"], None]) -> None:
        if self.finished:
            callback(self)
        else:
            self._finish_callbacks.append(callback)

    def _resume(self, value: Any = None) -> None:
        if self.finished:
            return
        sim = self.sim
        self.last_progress_ns = sim.now
        try:
            yielded = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            for callback in self._finish_callbacks:
                callback(self)
            return
        kind = type(yielded)
        if kind is float or kind is int:
            # Exact-type fast path for the overwhelmingly common yield (a
            # delay); ``type(True) is int`` is False, so bools still fall
            # through to the guard below.  ``now`` is a float, so an int
            # delay gives the same sum ``float(yielded)`` would.
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            when = sim.now + yielded
        elif yielded is None:
            when = sim.now
        elif isinstance(yielded, Signal):
            yielded._waiters.append(self._wake)
            return
        elif isinstance(yielded, bool):
            # bool is an int subclass: without this check ``yield True``
            # would silently sleep 1.0 ns (usually a mistyped condition).
            raise SimulationError(
                f"process {self.name!r} yielded a bool ({yielded}); "
                "yield a delay, a Signal, or None"
            )
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            when = sim.now + float(yielded)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )
        # The bucket append of :meth:`Simulator.schedule`, inline rather
        # than a kernel method: every process wake-up passes here, and a
        # method call per wake-up measured ~2% slower per openloop-pods
        # pass (DESIGN.md decision 9).
        bucket = sim._buckets.get(when)
        if bucket is None:
            sim._buckets[when] = [self._wake]
            heappush(sim._times, when)
        else:
            bucket.append(self._wake)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "active"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Time units are abstract; the coherence models use nanoseconds throughout
    (``repro.config`` converts cycle counts to ns).

    Pending events live in *buckets*: ``_buckets`` maps each exact due
    time to a list of ``(callback, args)`` in scheduling order, and
    ``_times`` is a heap of the distinct due times.  Scheduling is a dict
    lookup and a list append (plus one heap push for a new time); the run
    loops pop one time per bucket and dispatch its list in order.  List
    order is the same-time FIFO, so no sequence number is kept
    (DESIGN.md decision 13).  Process wake-ups, signal triggers and the
    commit board queue entries built once ahead of time (:meth:`entry`,
    :meth:`schedule_entries`); each lands in the bucket and position the
    equivalent :meth:`schedule` call would have used.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._buckets: Dict[float, List[_Entry]] = {}
        self._times: List[float] = []
        self.processed_events = 0
        self._processes: List[Process] = []
        #: Optional :class:`repro.trace.TraceCollector`.  The kernel never
        #: records into it itself; it is the well-known place actors reach
        #: their run's collector (``self.sim.trace``), and ``None`` — the
        #: default — is the zero-overhead disabled mode.
        self.trace = None
        #: Zero-argument callables returning ``{name: summary}`` dicts,
        #: merged into :class:`DeadlockDiagnostic.state` when the watchdog
        #: fires.  The machine registers one that snapshots protocol state
        #: (outstanding acks, unacked epoch tables, directory buffers).
        self.diagnostic_hooks: List[Callable[[], Dict[str, Any]]] = []

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(callback, args)]
            heappush(self._times, when)
        else:
            bucket.append((callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``when``.

        The event is queued in the bucket of ``when`` exactly.  Callers
        that clamp several events to one arrival time (the network's
        per-pair FIFO clamp) rely on this: they then fire in scheduling
        order.  The round trip ``now + (when - now)`` can land one ulp
        below ``when`` for a later call and one ulp above it for an
        earlier one, which puts them in different buckets in the wrong
        order.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past (delay={when - self.now})")
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(callback, args)]
            heappush(self._times, when)
        else:
            bucket.append((callback, args))

    @staticmethod
    def entry(callback: Callable[..., None], *args: Any) -> _Entry:
        """Build a reusable event for :meth:`schedule_entries`: queuing it
        runs ``callback(*args)``, exactly as ``schedule`` would."""
        return (callback, args)

    def schedule_entries(self, delay: float, entries: Sequence[_Entry]) -> None:
        """Queue prebuilt :meth:`entry` events, in order, after ``delay``.

        Each lands where ``schedule(delay, callback, *args)`` would have
        put it, so callers that wake the same set of callbacks over and
        over (the SEQ/Tardis commit board) build the entries once and pay
        one dict lookup and one ``list.extend`` per batch.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if not entries:
            return
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = list(entries)
            heappush(self._times, when)
        else:
            bucket.extend(entries)

    def process(
        self, generator: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        """Register ``generator`` as a process and start it at the current time."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        self.schedule_entries(0.0, (proc._wake,))
        return proc

    def signal(self, name: str = "") -> Signal:
        return Signal(self, name=name)

    def future(self, name: str = "") -> Future:
        return Future(self, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        return self._dispatch(float("inf"), 1, [1]) == 1

    def _dispatch(self, until: float, budget: float,
                  remaining: List[int]) -> int:
        """Dispatch buckets in time order; return the events dispatched.

        Stops when nothing is pending, the next time is past ``until``,
        ``budget`` events have run, or ``remaining[0]`` drops to zero.
        A bucket is dispatched while it is still the entry for its time,
        so an event scheduled at the current time is appended to the list
        being dispatched and runs after every event already due, as
        scheduling order requires, without touching the heap.  A stop
        part-way through a bucket (processes finished, budget exhausted,
        a callback raised) trims the dispatched prefix and leaves the
        rest pending in front of anything scheduled at that time since.
        ``processed_events`` is brought up to date as each bucket ends.

        This loop runs every event of every simulation, so overhead here
        is global overhead.
        """
        buckets = self._buckets
        times = self._times
        events = 0
        while remaining[0] and times:
            when = times[0]
            if when > until or events >= budget:
                break
            if when < self.now:
                raise SimulationError(
                    "event queue corrupted: time went backwards")
            self.now = when
            batch = buckets[when]
            left = budget - events
            done = 0
            try:
                for callback, args in batch:
                    if done >= left:
                        break
                    done += 1
                    callback(*args)
                    if not remaining[0]:
                        break
            finally:
                self.processed_events += done
                events += done
                if done < len(batch):
                    del batch[:done]
                else:
                    del buckets[when]
                    heappop(times)
        return events

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time at exit.
        """
        horizon = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        events = self._dispatch(horizon, budget, [1])
        if events >= budget and self._times and self._times[0] <= horizon:
            # Interrupted mid-horizon: leave the clock at the last
            # processed event so a later run() can resume.
            return self.now
        # The horizon was reached, whether or not any events remain past
        # it: the clock always advances to ``until`` (a drained queue
        # must not leave ``now`` stuck at the last event time).
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_processes_finish(
        self,
        processes: Iterable[Process],
        max_events: Optional[int] = None,
    ) -> float:
        """Run until every process in ``processes`` has finished.

        Raises :class:`DeadlockError` (a :class:`SimulationError`) carrying
        a :class:`DeadlockDiagnostic` on deadlock (queue empty with
        unfinished processes) or livelock (event budget exhausted) — this
        is how the timed litmus runner detects protocol deadlocks, and the
        diagnostic names the stuck processes instead of a bare string.
        """
        watched = list(processes)
        # A finish-callback counter replaces a per-event
        # ``all(p.finished ...)`` scan.
        remaining = [0]

        def _one_finished(_proc: Process) -> None:
            remaining[0] -= 1

        for proc in watched:
            if not proc.finished:
                remaining[0] += 1
                proc.on_finish(_one_finished)
        budget = float("inf") if max_events is None else max_events
        events = self._dispatch(float("inf"), budget, remaining)
        if remaining[0]:
            if events >= budget:
                raise DeadlockError(
                    self.diagnose("livelock", watched, max_events=max_events))
            raise DeadlockError(self.diagnose("deadlock", watched))
        return self.now

    def diagnose(
        self,
        reason: str,
        watched: Iterable[Process],
        max_events: Optional[int] = None,
        pending_sample: int = 8,
    ) -> DeadlockDiagnostic:
        """Build a :class:`DeadlockDiagnostic` for the current state."""
        stuck = [
            {"process": p.name, "last_progress_ns": p.last_progress_ns}
            for p in watched if not p.finished
        ]
        pending = []
        for when in sorted(self._times):
            for callback, args in self._buckets[when]:
                if len(pending) == pending_sample:
                    break
                pending.append({
                    "at_ns": when,
                    "callback": getattr(callback, "__qualname__",
                                        repr(callback)),
                    "args": ", ".join(repr(a)[:60] for a in args),
                })
        state: Dict[str, Any] = {}
        for hook in self.diagnostic_hooks:
            try:
                state.update(hook())
            except Exception as exc:  # diagnosis must never mask the error
                state["diagnostic_hook_error"] = repr(exc)
        return DeadlockDiagnostic(
            reason=reason,
            time_ns=self.now,
            processed_events=self.processed_events,
            max_events=max_events,
            stuck=stuck,
            pending=pending,
            state=state,
        )

    @property
    def pending_events(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
