"""CORD protocol core: the paper's contribution (§4).

Pure (untimed, I/O-free) state machines for the processor side (Algorithm 1)
and directory side (Algorithm 2), shared by the timed protocol actors in
:mod:`repro.protocols` and the model checker in :mod:`repro.litmus`.
"""

from repro.core.directory import CordDirectoryState
from repro.core.messages import (
    NotifyMeta,
    ReleaseMeta,
    RelaxedMeta,
    ReqNotifyMeta,
)
from repro.core.processor import CordProcessorState, ReleaseIssue, StallReason
from repro.core.seqnum import SequenceSpace, unwrap, wrap
from repro.core.tables import BoundedTable, PartitionedTable, TableFullError

__all__ = [
    "CordProcessorState",
    "CordDirectoryState",
    "ReleaseIssue",
    "StallReason",
    "RelaxedMeta",
    "ReleaseMeta",
    "ReqNotifyMeta",
    "NotifyMeta",
    "SequenceSpace",
    "wrap",
    "unwrap",
    "BoundedTable",
    "PartitionedTable",
    "TableFullError",
]
