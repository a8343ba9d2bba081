"""The machine-global commit board behind the ``seq<k>`` and ``tardis`` tables.

SEQ-k — the naive monolithic sequence-number baseline (§4.1, Fig. 10) —
and Tardis are transition tables in :mod:`repro.protocols.spec`, run by
:mod:`repro.protocols.table`.  Both gate directory commits on
per-processor state that spans every directory slice; that state lives
here, one board per machine.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

__all__ = ["SeqCommitBoard"]


class SeqCommitBoard:
    """Machine-global per-processor committed-store counts.

    A Release-like ``seq_store`` with number ``n`` waits for *all* earlier
    numbers from the same processor — and those stores fan out across
    directory slices, so the count that gates it must span the machine.
    (Keeping the counts per-directory deadlocks any cross-directory
    release; the model checker always used the global sum.)

    Directories subscribe their retry loop: a commit at one slice
    re-evaluates the others' buffered stores/flushes on a zero-delay
    event (never re-entrantly, and never for the committing slice itself
    — single-slice machines schedule no extra events).  Each
    subscriber's wake-up is built once, at :meth:`subscribe`, so a
    commit queues a slice of one tuple with one kernel call.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.committed: Dict[int, int] = {}
        #: Per-processor logical clocks (Tardis pts): the timestamp of the
        #: latest event each processor has observed.  Monotone — reads and
        #: commits only ever raise them — which is what makes stale lease
        #: hits provably checker-reachable (DESIGN.md).
        self.proc_ts: Dict[int, int] = {}
        #: Subscribers' prebuilt wake-ups, in subscription order, and each
        #: origin's position in that tuple.
        self._wakeups: Tuple = ()
        self._positions: Dict[object, int] = {}

    def subscribe(self, origin: object,
                  callback: Callable[[], None]) -> None:
        """Wake ``callback`` on every commit not made by ``origin`` (one
        subscription per origin)."""
        self._positions[origin] = len(self._wakeups)
        self._wakeups += (self.sim.entry(callback),)

    def count(self, proc: int) -> int:
        return self.committed.get(proc, 0)

    def pts(self, proc: int) -> int:
        return self.proc_ts.get(proc, 0)

    def bump_pts(self, proc: int, ts: int) -> None:
        if ts > self.proc_ts.get(proc, 0):
            self.proc_ts[proc] = ts

    def commit(self, proc: int, origin: object = None) -> None:
        self.committed[proc] = self.committed.get(proc, 0) + 1
        wakeups = self._wakeups
        index = self._positions.get(origin)
        if index is not None:
            wakeups = wakeups[:index] + wakeups[index + 1:]
        self.sim.schedule_entries(0.0, wakeups)
