"""The processor core actor: executes a program through a protocol port."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from repro.consistency.history import EventKind
from repro.consistency.ops import MemOp, OpKind
from repro.cpu.program import Program
from repro.interconnect.message import Message, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import CorePort
    from repro.protocols.machine import Machine

__all__ = ["Core"]


class Core:
    """One simulated core bound to a program and a protocol port.

    The core walks its program in order.  All protocol-specific behaviour —
    which stores stall, which messages fly — lives in the port; the core
    provides program sequencing, register state, flag polling and history
    recording.
    """

    #: Delay between successive polls of a not-yet-set flag (``LOAD_UNTIL``).
    POLL_INTERVAL_NS = 30.0

    def __init__(self, machine: "Machine", core_id: int, program: Program) -> None:
        self.machine = machine
        self.core_id = core_id
        self.program: Optional[Program] = program
        self.node_id = NodeId.core(core_id, machine.config.host_of_core(core_id))
        self.registers: Dict[str, Optional[int]] = {}
        self.port: Optional["CorePort"] = None  # set by the machine
        self.finish_time_ns: Optional[float] = None
        machine.network.register(self.node_id, self.handle)

    def handle(self, message: Message) -> None:
        assert self.port is not None
        self.port.on_message(message)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The core's simulation process body."""
        assert self.port is not None, "core has no protocol port"
        # Hot loop: hoist the per-op attribute chains to locals.
        port = self.port
        sim = self.machine.sim
        stats = self.machine.stats
        cycle_ns = self.machine.config.cycle_ns
        for index, op in enumerate(self.program.ops):
            if op.kind is OpKind.COMPUTE:
                if op.meta and "until_ns" in op.meta:
                    # Open-loop arrival: idle until an *absolute* simulation
                    # time (a request's scheduled arrival), regardless of
                    # how long earlier requests took.  Never waits backwards
                    # — a core running behind its arrival schedule starts
                    # the request immediately (queueing shows up in the
                    # sampled latency, as open-loop load generators intend).
                    delay = op.meta["until_ns"] - sim.now
                    if delay > 0:
                        yield delay
                elif op.duration_ns > 0:
                    yield op.duration_ns
            elif op.kind is OpKind.STORE:
                # Issue bandwidth: one store per core cycle, uniform across
                # protocols (protocol-specific costs live in the ports).
                yield cycle_ns
                yield from port.store(op, index)
            elif op.kind is OpKind.LOAD:
                value = yield from port.load(op, index)
                self._record_load(index, op, value)
            elif op.kind is OpKind.LOAD_UNTIL:
                yield from self._poll(index, op)
            elif op.kind is OpKind.ATOMIC:
                yield from self._atomic(index, op)
            elif op.kind is OpKind.FENCE:
                yield from self.port.fence(op, index)
            else:  # pragma: no cover - exhaustive over OpKind
                raise RuntimeError(f"unhandled op kind {op.kind}")
            if op.meta and "sample_ns" in op.meta:
                # Per-request latency sampling (open-loop workloads): the
                # op completing at sim.now was triggered by a request that
                # arrived at t0; record the elapsed time into a
                # sample-keeping accumulator so runs export percentiles.
                name, t0 = op.meta["sample_ns"]
                stats.accumulator(name, keep_samples=True).add(sim.now - t0)
        # Every op has retired: let the program go, so a finished machine
        # (a reference cycle, freed only by the cyclic collector) does
        # not keep a whole op stream alive until that collection runs.
        self.program = None
        yield from self.port.finish()
        self.finish_time_ns = self.machine.sim.now
        for register, value in self.registers.items():
            self.machine.history.set_register(self.core_id, register, value)

    def _poll(self, index: int, op: MemOp) -> Generator:
        """Spin on a location until it holds at least the target value.

        Flags are monotonic counters: a fast producer may have advanced the
        flag past the awaited value before the consumer's first poll.  The
        model checker polls with the same ``>=`` condition.
        """
        while True:
            value = yield from self.port.load(op, index)
            if value >= op.value:
                break
            yield self.POLL_INTERVAL_NS
        self._record_load(index, op, value)

    def _atomic(self, index: int, op: MemOp) -> Generator:
        """Execute a read-modify-write; optionally spin until it succeeds.

        An op built with ``meta={..., "retry_until_old": v}`` retries the
        RMW until the old value equals ``v`` — the classic spinlock acquire
        (``exchange(lock, 1)`` until the old value is 0).
        """
        retry_target = op.meta.get("retry_until_old")
        while True:
            old = yield from self.port.atomic(op, index)
            if retry_target is None or old == retry_target:
                break
            yield self.POLL_INTERVAL_NS
        if op.register is not None:
            self.registers[op.register] = old

    def _record_load(self, index: int, op: MemOp, value: int) -> None:
        if op.register is not None:
            self.registers[op.register] = value
        self.machine.history.record(
            core=self.core_id,
            program_index=index,
            kind=EventKind.LOAD,
            ordering=op.ordering,
            addr=op.addr,
            value=value,
        )
