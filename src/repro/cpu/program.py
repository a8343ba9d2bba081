"""Programs: per-core instruction streams for the timed simulator.

A :class:`Program` is the unit of work a :class:`~repro.cpu.core.Core`
executes — a list of :class:`~repro.consistency.ops.MemOp` in program order.
:class:`ProgramBuilder` provides a small fluent DSL used by the litmus suite
and the workload generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.consistency.ops import AtomicOp, MemOp, OpKind, Ordering, Policy

__all__ = ["Program", "ProgramBuilder"]


@dataclass
class Program:
    """An ordered stream of operations bound to one core."""

    ops: List[MemOp] = field(default_factory=list)
    name: str = ""

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def store_count(self) -> int:
        return sum(1 for op in self.ops if op.is_store)

    @property
    def bytes_stored(self) -> int:
        return sum(op.size for op in self.ops if op.is_store)


class ProgramBuilder:
    """Fluent builder for programs.

    >>> program = (ProgramBuilder("producer")
    ...     .store(0x100, value=1)
    ...     .release_store(0x200, value=1)
    ...     .build())

    :meth:`store_run` and :meth:`load_run` append a whole run of accesses
    with one ``list.extend``.
    """

    def __init__(self, name: str = "") -> None:
        self._ops: List[MemOp] = []
        self._name = name

    def store(
        self,
        addr: int,
        value: int = 1,
        size: int = 8,
        ordering: Ordering = Ordering.RELAXED,
        policy: Policy = Policy.WRITE_THROUGH,
    ) -> "ProgramBuilder":
        self._ops.append(MemOp.store(addr, value, size, ordering, policy))
        return self

    def release_store(
        self, addr: int, value: int = 1, size: int = 8,
        policy: Policy = Policy.WRITE_THROUGH,
    ) -> "ProgramBuilder":
        self._ops.append(MemOp.release_store(addr, value, size, policy))
        return self

    def store_run(
        self, addrs: Iterable[int], values: Iterable[int], size: int,
        ordering: Ordering = Ordering.RELAXED, issue_ns: float = 0.0,
    ) -> "ProgramBuilder":
        """Write-through stores of ``size`` bytes, the i-th writing the
        i-th of ``values`` to the i-th of ``addrs``.  With ``issue_ns`` > 0
        each store follows a ``compute(issue_ns)`` (the core-side gap
        between stores)."""
        kind, policy = OpKind.STORE, Policy.WRITE_THROUGH
        run = [MemOp(kind, addr, size, ordering, policy, value)
               for addr, value in zip(addrs, values)]
        if issue_ns > 0:
            paced: List[MemOp] = run * 2
            paced[0::2] = [MemOp.compute(issue_ns) for _ in run]
            paced[1::2] = run
            run = paced
        self._ops.extend(run)
        return self

    def load(
        self,
        addr: int,
        register: str,
        size: int = 8,
        ordering: Ordering = Ordering.RELAXED,
    ) -> "ProgramBuilder":
        self._ops.append(MemOp.load(addr, register, size, ordering))
        return self

    def load_run(self, addrs: Iterable[int], register: str
                 ) -> "ProgramBuilder":
        """Relaxed 8-byte loads from ``addrs`` in order, each into
        ``register``."""
        kind, ordering = OpKind.LOAD, Ordering.RELAXED
        policy = Policy.WRITE_THROUGH
        self._ops.extend([MemOp(kind, addr, 8, ordering, policy, None,
                                register) for addr in addrs])
        return self

    def acquire_load(self, addr: int, register: str, size: int = 8) -> "ProgramBuilder":
        return self.load(addr, register, size, Ordering.ACQUIRE)

    def load_until(
        self, addr: int, value: int, register: Optional[str] = None,
        ordering: Ordering = Ordering.ACQUIRE,
    ) -> "ProgramBuilder":
        self._ops.append(MemOp.load_until(addr, value, register, ordering))
        return self

    def fetch_add(
        self, addr: int, operand: int = 1, register: Optional[str] = None,
        ordering: Ordering = Ordering.ACQ_REL,
    ) -> "ProgramBuilder":
        self._ops.append(MemOp.fetch_add(addr, operand, register, ordering))
        return self

    def exchange(
        self, addr: int, operand: int, register: Optional[str] = None,
        ordering: Ordering = Ordering.ACQUIRE,
    ) -> "ProgramBuilder":
        self._ops.append(MemOp.exchange(addr, operand, register, ordering))
        return self

    def compare_swap(
        self, addr: int, compare: int, operand: int,
        register: Optional[str] = None,
        ordering: Ordering = Ordering.ACQ_REL,
    ) -> "ProgramBuilder":
        self._ops.append(MemOp.compare_swap(addr, compare, operand, register,
                                            ordering))
        return self

    def lock(self, addr: int) -> "ProgramBuilder":
        """Spinlock acquire: exchange(addr, 1) with Acquire ordering,
        retried until the old value is 0."""
        self._ops.append(MemOp(
            OpKind.ATOMIC, addr, ordering=Ordering.ACQUIRE, value=1,
            meta={"atomic": AtomicOp.EXCHANGE, "compare": None,
                  "retry_until_old": 0}))
        return self

    def unlock(self, addr: int) -> "ProgramBuilder":
        """Spinlock release: a Release store of 0."""
        return self.release_store(addr, value=0)

    def fence(self, ordering: Ordering = Ordering.ACQ_REL) -> "ProgramBuilder":
        self._ops.append(MemOp.fence(ordering))
        return self

    def compute(self, duration_ns: float) -> "ProgramBuilder":
        self._ops.append(MemOp.compute(duration_ns))
        return self

    def op(self, op: MemOp) -> "ProgramBuilder":
        self._ops.append(op)
        return self

    def build(self) -> Program:
        return Program(ops=list(self._ops), name=self._name)
