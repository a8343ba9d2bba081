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

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

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
    ``pending`` samples the earliest pending events — queued *and* any
    not-yet-dispatched remainder of the kernel's current same-timestamp
    batch (usually but not necessarily empty on deadlock); ``state``
    carries whatever the simulator's ``diagnostic_hooks`` contributed
    (e.g. the machine's unacked-table snapshots).
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
        self._waiters: List["Process"] = []
        self.trigger_count = 0

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def trigger(self, value: Any = None) -> None:
        """Wake all current waiters, delivering ``value`` to each."""
        self.trigger_count += 1
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.schedule(0.0, process._resume, value)

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
                 "last_progress_ns", "_finish_callbacks")

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

    def on_finish(self, callback: Callable[["Process"], None]) -> None:
        if self.finished:
            callback(self)
        else:
            self._finish_callbacks.append(callback)

    def _resume(self, value: Any = None) -> None:
        if self.finished:
            return
        self.last_progress_ns = self.sim.now
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
            # through to the guard below.
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            self.sim.schedule(float(yielded), self._resume, None)
        elif yielded is None:
            self.sim.schedule(0.0, self._resume, None)
        elif isinstance(yielded, Signal):
            yielded._add_waiter(self)
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
            self.sim.schedule(float(yielded), self._resume, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "active"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Time units are abstract; the coherence models use nanoseconds throughout
    (``repro.config`` converts cycle counts to ns).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self.processed_events = 0
        self._processes: List[Process] = []
        #: Same-timestamp batch being dispatched by
        #: :meth:`run_until_processes_finish`; ``_batch[_batch_pos:]`` is
        #: the not-yet-executed remainder, which diagnostics and
        #: :attr:`pending_events` count alongside the heap.
        self._batch: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._batch_pos = 0
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
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``when``.

        The event is queued at ``when`` exactly.  Callers that clamp
        several events to one arrival time (the network's per-pair FIFO
        clamp) rely on this: they then fire in scheduling order.  The
        round trip ``now + (when - now)`` can land one ulp below ``when``
        for a later call and one ulp above it for an earlier one, which
        reorders them.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past (delay={when - self.now})")
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, callback, args))

    def process(
        self, generator: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        """Register ``generator`` as a process and start it at the current time."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        self.schedule(0.0, proc._resume, None)
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
        if not self._queue:
            return False
        when, _seq, callback, args = heapq.heappop(self._queue)
        if when < self.now:
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = when
        self.processed_events += 1
        callback(*args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time at exit.
        """
        events = 0
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                break
            if max_events is not None and events >= max_events:
                # Interrupted mid-horizon: leave the clock at the last
                # processed event so a later run() can resume.
                return self.now
            self.step()
            events += 1
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
        # Hot loop: a finish-callback counter replaces the per-event
        # ``all(p.finished ...)`` scan, and the queue is drained in
        # *same-timestamp batches* — one heappop run per distinct
        # timestamp instead of a pop/compare/clock-write per event.  This
        # loop processes every event of every simulation, so overhead
        # here is global overhead.  Dispatch order is identical to the
        # per-event loop: a batch holds one timestamp's events in
        # sequence order, and anything a callback schedules at the *same*
        # timestamp receives a larger sequence number, so it sorts after
        # the drained run and is picked up by the next batch — FIFO
        # within a timestamp is preserved (DESIGN.md decision 13).
        remaining = [0]

        def _one_finished(_proc: Process) -> None:
            remaining[0] -= 1

        for proc in watched:
            if not proc.finished:
                remaining[0] += 1
                proc.on_finish(_one_finished)
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        batch = self._batch
        events = 0
        budget = float("inf") if max_events is None else max_events
        while remaining[0]:
            if events >= budget:
                # Checked before popping so the clock stays at the last
                # processed event (matching the per-event loop); the
                # mid-batch check below covers exhaustion inside a run.
                raise DeadlockError(
                    self.diagnose("livelock", watched, max_events=max_events)
                )
            if not queue:
                raise DeadlockError(self.diagnose("deadlock", watched))
            entry = pop(queue)
            when = entry[0]
            if when < self.now:
                raise SimulationError(
                    "event queue corrupted: time went backwards"
                )
            self.now = when
            del batch[:]
            batch.append(entry)
            while queue and queue[0][0] == when:
                batch.append(pop(queue))
            i = 0
            n = len(batch)
            self._batch_pos = 0
            try:
                while i < n:
                    if events >= budget:
                        # The budget died mid-batch: the remainder is
                        # still pending work — diagnose() and
                        # pending_events see it via _batch_pos.
                        raise DeadlockError(self.diagnose(
                            "livelock", watched, max_events=max_events))
                    _w, _seq, callback, args = batch[i]
                    i += 1
                    self._batch_pos = i
                    self.processed_events += 1
                    callback(*args)
                    events += 1
                    if not remaining[0]:
                        break
            finally:
                # Watched processes finished (or a callback raised)
                # mid-batch: restore the unexecuted remainder so the
                # queue stays consistent for callers and later runs.
                if self._batch_pos < n:
                    for entry in batch[self._batch_pos:]:
                        push(queue, entry)
                del batch[:]
                self._batch_pos = 0
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
        source = list(self._queue)
        if self._batch_pos < len(self._batch):
            # Mid-batch diagnosis (budget exhausted while dispatching a
            # same-timestamp run): the unexecuted remainder is pending
            # work even though it is not on the heap right now.
            source.extend(self._batch[self._batch_pos:])
        for when, _seq, callback, args in sorted(source)[:pending_sample]:
            pending.append({
                "at_ns": when,
                "callback": getattr(callback, "__qualname__", repr(callback)),
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
        return len(self._queue) + max(0, len(self._batch) - self._batch_pos)
