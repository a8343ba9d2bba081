"""Memory operation model: kinds, ordering annotations, cache policies.

These are the release-consistency annotations of §2.2: ``Relaxed``,
``Release``, ``Acquire`` and ``AcqRel``.  Stores additionally carry a cache
policy — write-through (committed at the home LLC slice, the focus of the
paper) or write-back (allocated in the private hierarchy).
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Mapping, Optional, Tuple

__all__ = ["Ordering", "Policy", "OpKind", "AtomicOp", "MemOp", "NO_META"]


class Ordering(enum.Enum):
    RELAXED = "rlx"
    RELEASE = "rel"
    ACQUIRE = "acq"
    ACQ_REL = "acq_rel"

    @property
    def is_release(self) -> bool:
        return self in (Ordering.RELEASE, Ordering.ACQ_REL)

    @property
    def is_acquire(self) -> bool:
        return self in (Ordering.ACQUIRE, Ordering.ACQ_REL)


class Policy(enum.Enum):
    WRITE_THROUGH = "wt"
    WRITE_BACK = "wb"


class OpKind(enum.Enum):
    STORE = "store"
    LOAD = "load"
    LOAD_UNTIL = "load_until"   # poll a location until it holds a value
    ATOMIC = "atomic"           # read-modify-write at the home LLC
    FENCE = "fence"
    COMPUTE = "compute"         # local work for ``duration_ns``


class AtomicOp(enum.Enum):
    """Read-modify-write flavours (performed atomically at the home LLC,
    like the write-through atomics of AMBA CHI / Spandex)."""

    EXCHANGE = "xchg"
    FETCH_ADD = "faa"
    COMPARE_SWAP = "cas"

    def apply(self, old: int, operand: int, compare: Optional[int]) -> int:
        """New memory value after the RMW."""
        if self is AtomicOp.EXCHANGE:
            return operand
        if self is AtomicOp.FETCH_ADD:
            return old + operand
        if self is AtomicOp.COMPARE_SWAP:
            return operand if old == compare else old
        raise AssertionError(self)


#: The ``meta`` of every op built without one: a shared read-only empty
#: mapping, so an op costs no dict of its own and nothing can write into
#: metadata that another op shares.  Attach metadata with ``meta=``.
NO_META: Mapping[str, Any] = MappingProxyType({})

_STORE = OpKind.STORE
_LOAD = OpKind.LOAD
_ATOMIC = OpKind.ATOMIC
_RELAXED = Ordering.RELAXED
_RELEASE = Ordering.RELEASE
_WRITE_THROUGH = Policy.WRITE_THROUGH


class MemOp:
    """One operation in a core's program-order stream.

    ``value`` is the value written (stores) or the value polled for
    (``LOAD_UNTIL``).  ``register`` names where a load's result lands, so
    litmus tests can assert final register states.  ``size`` is in bytes and
    may span multiple cache lines (coarse-grained stores, §5.3).  ``meta``
    holds per-op extras (an RMW's flavour, an open-loop arrival time); an
    op built without it shares the read-only :data:`NO_META`.

    A plain ``__slots__`` class with the old dataclass's signature,
    field-by-field ``__eq__`` and ``__repr__``, and no hash: workload
    builders construct hundreds of thousands of ops per sweep, and slots
    cut both the per-op memory and the construction time.  Kept
    hand-written because ``dataclass(slots=True)`` needs Python 3.10.
    """

    __slots__ = ("kind", "addr", "size", "ordering", "policy", "value",
                 "register", "duration_ns", "meta")

    def __init__(
        self,
        kind: OpKind,
        addr: int = 0,
        size: int = 8,
        ordering: Ordering = Ordering.RELAXED,
        policy: Policy = Policy.WRITE_THROUGH,
        value: Optional[int] = None,
        register: Optional[str] = None,
        duration_ns: float = 0.0,
        meta: Mapping[str, Any] = NO_META,
    ) -> None:
        self.kind = kind
        self.addr = addr
        self.size = size
        self.ordering = ordering
        self.policy = policy
        self.value = value
        self.register = register
        self.duration_ns = duration_ns
        self.meta = meta

    def _fields(self) -> Tuple:
        return (self.kind, self.addr, self.size, self.ordering, self.policy,
                self.value, self.register, self.duration_ns, self.meta)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass

    def __repr__(self) -> str:
        meta = {} if self.meta is NO_META else self.meta
        return (f"MemOp(kind={self.kind!r}, addr={self.addr!r}, "
                f"size={self.size!r}, ordering={self.ordering!r}, "
                f"policy={self.policy!r}, value={self.value!r}, "
                f"register={self.register!r}, "
                f"duration_ns={self.duration_ns!r}, meta={meta!r})")

    def __reduce__(self) -> Tuple:
        # The shared empty mapping cannot be pickled; an op without
        # metadata rebuilds with the default and shares it again.
        fields = self._fields()
        return (MemOp, fields[:-1] if self.meta is NO_META else fields)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def store(
        addr: int,
        value: int = 1,
        size: int = 8,
        ordering: Ordering = Ordering.RELAXED,
        policy: Policy = Policy.WRITE_THROUGH,
    ) -> "MemOp":
        return MemOp(_STORE, addr, size, ordering, policy, value)

    @staticmethod
    def release_store(
        addr: int, value: int = 1, size: int = 8,
        policy: Policy = Policy.WRITE_THROUGH,
    ) -> "MemOp":
        return MemOp(_STORE, addr, size, _RELEASE, policy, value)

    @staticmethod
    def load(
        addr: int,
        register: str,
        size: int = 8,
        ordering: Ordering = Ordering.RELAXED,
    ) -> "MemOp":
        return MemOp(_LOAD, addr, size, ordering, _WRITE_THROUGH, None,
                     register)

    @staticmethod
    def load_until(
        addr: int,
        value: int,
        register: Optional[str] = None,
        ordering: Ordering = Ordering.ACQUIRE,
    ) -> "MemOp":
        return MemOp(OpKind.LOAD_UNTIL, addr, 8, ordering, _WRITE_THROUGH,
                     value, register)

    @staticmethod
    def atomic(
        kind: "AtomicOp",
        addr: int,
        operand: int,
        register: Optional[str] = None,
        compare: Optional[int] = None,
        ordering: Ordering = Ordering.ACQ_REL,
        size: int = 8,
    ) -> "MemOp":
        """A read-modify-write performed atomically at the home LLC slice.

        The old value lands in ``register``.  ``compare`` is the expected
        value for :attr:`AtomicOp.COMPARE_SWAP`.
        """
        return MemOp(_ATOMIC, addr, size, ordering, _WRITE_THROUGH, operand,
                     register, 0.0, {"atomic": kind, "compare": compare})

    @staticmethod
    def fetch_add(addr: int, operand: int = 1,
                  register: Optional[str] = None,
                  ordering: Ordering = Ordering.ACQ_REL) -> "MemOp":
        return MemOp.atomic(AtomicOp.FETCH_ADD, addr, operand, register,
                            ordering=ordering)

    @staticmethod
    def exchange(addr: int, operand: int,
                 register: Optional[str] = None,
                 ordering: Ordering = Ordering.ACQUIRE) -> "MemOp":
        return MemOp.atomic(AtomicOp.EXCHANGE, addr, operand, register,
                            ordering=ordering)

    @staticmethod
    def compare_swap(addr: int, compare: int, operand: int,
                     register: Optional[str] = None,
                     ordering: Ordering = Ordering.ACQ_REL) -> "MemOp":
        return MemOp.atomic(AtomicOp.COMPARE_SWAP, addr, operand, register,
                            compare=compare, ordering=ordering)

    @staticmethod
    def fence(ordering: Ordering = Ordering.ACQ_REL) -> "MemOp":
        return MemOp(OpKind.FENCE, 0, 8, ordering)

    @staticmethod
    def compute(duration_ns: float) -> "MemOp":
        return MemOp(OpKind.COMPUTE, 0, 8, _RELAXED, _WRITE_THROUGH, None,
                     None, duration_ns)

    @property
    def is_store(self) -> bool:
        return self.kind is OpKind.STORE

    @property
    def is_load(self) -> bool:
        return self.kind in (OpKind.LOAD, OpKind.LOAD_UNTIL)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is OpKind.COMPUTE:
            return f"compute({self.duration_ns}ns)"
        if self.kind is OpKind.FENCE:
            return f"fence.{self.ordering.value}"
        return (
            f"{self.kind.value}.{self.ordering.value} "
            f"[{self.addr:#x}+{self.size}] val={self.value}"
        )
