"""CORD wire metadata (the fields Algorithms 1-2 embed in messages).

All epoch/counter fields here are *unwrapped* for simulator bookkeeping; the
traffic model charges only the wrapped wire widths (``repro.config``
``CordConfig.epoch_bits`` / ``counter_bits``) against link bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "RelaxedMeta",
    "ReleaseMeta",
    "ReqNotifyMeta",
    "NotifyMeta",
]


@dataclass(frozen=True)
class RelaxedMeta:
    """Metadata on a Relaxed write-through store: just the epoch (§4.1)."""

    proc: int
    epoch: int


@dataclass(frozen=True)
class ReleaseMeta:
    """Metadata on a Release write-through store (§4.1-§4.2).

    * ``epoch`` — the epoch this Release closes.
    * ``counter`` — Relaxed stores sent to the destination directory in this
      epoch; the directory commits only once its own count matches.
    * ``last_prev_epoch`` — most recent earlier epoch whose Release targeted
      the same directory and is still unacknowledged (None if none); the
      directory commits only once that epoch has committed.
    * ``noti_cnt`` — number of pending directories that will send
      notifications before this Release may commit.
    * ``barrier`` — True for the "empty" Release stores broadcast by
      Release/SC barriers (§4.4); they carry no data payload.
    """

    proc: int
    epoch: int
    counter: int
    last_prev_epoch: Optional[int]
    noti_cnt: int
    barrier: bool = False


@dataclass(frozen=True)
class ReqNotifyMeta:
    """Request-for-notification sent to a pending directory (§4.2)."""

    proc: int
    epoch: int                      # the issuing Release's epoch
    counter: int                    # Relaxed stores owed to this pending dir
    last_prev_epoch: Optional[int]  # unacked Release epoch at this pending dir
    noti_dst: int                   # directory id to notify


@dataclass(frozen=True)
class NotifyMeta:
    """Notification from a pending directory to the destination directory."""

    proc: int
    epoch: int
