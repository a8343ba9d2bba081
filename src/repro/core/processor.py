"""CORD processor-side state machine (Algorithm 1).

Tracks the current epoch, per-directory store counters for the current
epoch, and the unacknowledged-epoch table; produces the metadata embedded in
Relaxed stores, Release stores and request-for-notification messages; and
implements the §4.3 stall conditions (table overflow, epoch aliasing).

This class is pure state — no I/O, no timing — so the timed table
interpreter (:mod:`repro.protocols.table`) and the untimed model checker
(:mod:`repro.litmus.model_checker`) share exactly the same logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import CordConfig
from repro.core.messages import (
    ReleaseMeta,
    RelaxedMeta,
    ReqNotifyMeta,
)
from repro.core.seqnum import SequenceSpace
from repro.core.tables import BoundedTable

__all__ = ["ReleaseIssue", "StallReason", "CordProcessorState"]


@dataclass(frozen=True)
class StallReason:
    """Why a store cannot issue right now (§4.3)."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass
class ReleaseIssue:
    """Everything a Release store issue produces: the Release metadata plus
    one request-for-notification per pending directory."""

    release: ReleaseMeta
    notifications: List[Tuple[int, ReqNotifyMeta]] = field(default_factory=list)

    @property
    def pending_directory_count(self) -> int:
        return len(self.notifications)


class CordProcessorState:
    """Per-core CORD state (Fig. 6 left)."""

    def __init__(self, proc: int, config: CordConfig) -> None:
        self.proc = proc
        self.config = config
        self.epoch = SequenceSpace(config.epoch_bits)
        # Relaxed stores per destination directory in the *current* epoch.
        self.store_counters: BoundedTable[int, int] = BoundedTable(
            f"proc{proc}.store_counters",
            config.proc_store_counter_entries,
            config.store_counter_entry_bytes,
        )
        # Unacknowledged Release epochs: (directory, epoch) -> True.
        self.unacked: BoundedTable[Tuple[int, int], bool] = BoundedTable(
            f"proc{proc}.unacked_epochs",
            config.proc_unacked_epoch_entries,
            config.epoch_entry_bytes,
        )
        self.relaxed_issued = 0
        self.releases_issued = 0
        self.stalls: Dict[str, int] = {}
        #: Optional observer ``(name, value)`` invoked on state
        #: transitions (epoch advance, store-counter bump, unacked-table
        #: size, stall-reason occurrence).  Set by the timed CORD port
        #: when tracing is enabled; the state stays pure — the observer
        #: only watches, it never feeds back.
        self.on_transition = None

    def clone(self) -> "CordProcessorState":
        """An independent copy of the protocol state.

        ``config`` is shared (immutable provisioning) and ``on_transition``
        is not carried over: clones are made by the model checker, which
        never traces, and a cloned observer would double-report.
        """
        new = CordProcessorState.__new__(CordProcessorState)
        new.proc = self.proc
        new.config = self.config
        new.epoch = self.epoch.clone()
        new.store_counters = self.store_counters.clone()
        new.unacked = self.unacked.clone()
        new.relaxed_issued = self.relaxed_issued
        new.releases_issued = self.releases_issued
        new.stalls = dict(self.stalls)
        new.on_transition = None
        return new

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def unacked_epochs_for(self, directory: int) -> List[int]:
        return sorted(ep for (d, ep), _ in self.unacked if d == directory)

    def total_unacked(self) -> int:
        return len(self.unacked)

    def last_unacked_epoch(self, directory: int) -> Optional[int]:
        epochs = self.unacked_epochs_for(directory)
        return epochs[-1] if epochs else None

    def oldest_outstanding_epoch(self) -> int:
        epochs = [ep for (_d, ep), _ in self.unacked]
        return min(epochs) if epochs else self.epoch.value

    def pending_directories(self, exclude: Optional[int] = None) -> List[int]:
        """Directories with Relaxed stores in the current epoch or
        unacknowledged Release stores (§4.2), optionally excluding the
        Release's own destination (its ordering travels in the Release)."""
        dirs = {d for d, count in self.store_counters if count > 0}
        dirs.update(d for (d, _ep), _ in self.unacked)
        if exclude is not None:
            dirs.discard(exclude)
        return sorted(dirs)

    # ------------------------------------------------------------------
    # Stall checks (§4.3)
    # ------------------------------------------------------------------
    def relaxed_stall_reason(self, directory: int) -> Optional[StallReason]:
        if directory not in self.store_counters and self.store_counters.full:
            return StallReason(
                "proc-store-counter-full",
                f"no free store-counter entry for directory {directory}",
            )
        count = self.store_counters.get(directory, 0)
        if count + 1 >= self.config.counter_modulus:
            return StallReason(
                "store-counter-overflow",
                f"counter for directory {directory} at modulus "
                f"{self.config.counter_modulus}",
            )
        return None

    def release_stall_reason(self, directory: int) -> Optional[StallReason]:
        if not self.unacked.has_room():
            return StallReason(
                "unacked-table-full",
                f"{len(self.unacked)} unacked epochs at capacity",
            )
        if self.epoch.would_alias(self.oldest_outstanding_epoch()):
            return StallReason(
                "epoch-wrap",
                f"epoch window would exceed modulus {self.epoch.modulus}",
            )
        # Conservative bound on the destination/pending directories'
        # statically-partitioned tables: every unacked Release plus the
        # current epoch can hold one entry per table (§4.3).
        bound = self.total_unacked() + 2
        if bound > self.config.dir_store_counter_entries_per_proc:
            return StallReason(
                "dir-store-counter-full",
                f"{self.total_unacked()} unacked releases vs "
                f"{self.config.dir_store_counter_entries_per_proc} entries",
            )
        if bound > self.config.dir_notification_entries_per_proc:
            return StallReason(
                "dir-notification-full",
                f"{self.total_unacked()} unacked releases vs "
                f"{self.config.dir_notification_entries_per_proc} entries",
            )
        return None

    def record_stall(self, reason: StallReason) -> None:
        self.stalls[reason.code] = self.stalls.get(reason.code, 0) + 1
        if self.on_transition is not None:
            self.on_transition(f"stalls.{reason.code}",
                               self.stalls[reason.code])

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def on_relaxed_store(self, directory: int) -> RelaxedMeta:
        """Issue a Relaxed store to ``directory`` (Alg. 1 lines 1-4)."""
        reason = self.relaxed_stall_reason(directory)
        if reason is not None:
            raise RuntimeError(f"relaxed store must stall: {reason}")
        count = self.store_counters.get(directory, 0)
        self.store_counters.put(directory, count + 1)
        self.relaxed_issued += 1
        if self.on_transition is not None:
            self.on_transition(f"store_counter.d{directory}", count + 1)
        return RelaxedMeta(proc=self.proc, epoch=self.epoch.value)

    def on_release_store(
        self, directory: int, barrier: bool = False
    ) -> ReleaseIssue:
        """Issue a Release store to ``directory`` (Alg. 1 lines 5-13)."""
        reason = self.release_stall_reason(directory)
        if reason is not None:
            raise RuntimeError(f"release store must stall: {reason}")

        epoch = self.epoch.value
        pending = self.pending_directories(exclude=directory)
        notifications: List[Tuple[int, ReqNotifyMeta]] = []
        for pending_dir in pending:
            notifications.append((
                pending_dir,
                ReqNotifyMeta(
                    proc=self.proc,
                    epoch=epoch,
                    counter=self.store_counters.get(pending_dir, 0),
                    last_prev_epoch=self.last_unacked_epoch(pending_dir),
                    noti_dst=directory,
                ),
            ))

        release = ReleaseMeta(
            proc=self.proc,
            epoch=epoch,
            counter=self.store_counters.get(directory, 0),
            last_prev_epoch=self.last_unacked_epoch(directory),
            noti_cnt=len(pending),
            barrier=barrier,
        )

        # Track the epoch as unacknowledged, advance, reset counters.
        self.unacked.put((directory, epoch), True)
        self.epoch.advance()
        for pending_dir in list(self.store_counters.keys()):
            self.store_counters.remove(pending_dir)
        self.releases_issued += 1
        if self.on_transition is not None:
            self.on_transition("epoch", self.epoch.value)
            self.on_transition("unacked_epochs", len(self.unacked))
        return ReleaseIssue(release=release, notifications=notifications)

    def on_release_ack(self, directory: int, epoch: int) -> None:
        """Mark an epoch acknowledged (Alg. 1 lines 14-15)."""
        if self.unacked.remove((directory, epoch)) is None:
            raise RuntimeError(
                f"ack for unknown (dir={directory}, epoch={epoch}) at "
                f"proc {self.proc}"
            )
        if self.on_transition is not None:
            self.on_transition("unacked_epochs", len(self.unacked))
