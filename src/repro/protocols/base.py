"""Shared infrastructure for timed protocol actors.

Every protocol runs as a pair of classes:

* a :class:`CorePort` — the protocol logic at the processor side, driven as a
  generator by :class:`repro.cpu.core.Core` (so it can stall, wait on acks,
  and interleave with the core's program);
* a :class:`DirectoryNode` — the protocol logic at an LLC slice/directory,
  driven by network message delivery.

The table-driven protocols get their pair from
:func:`repro.protocols.table.make_table_protocol` (one family of classes
per ``ProtocolSpec.core_state``); WB's MESI machine is
:mod:`repro.protocols.wb`.

The base classes implement what every protocol shares: the load/response
path, value storage at the commit point (for litmus value checking), LLC
service latency, and history recording.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.consistency.history import EventKind
from repro.consistency.ops import AtomicOp, MemOp, Ordering
from repro.interconnect.message import Message, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.core import Core
    from repro.protocols.machine import Machine

__all__ = ["CorePort", "DirectoryNode"]


class CorePort(abc.ABC):
    """Protocol-specific processor-side logic for one core."""

    def __init__(self, core: "Core") -> None:
        self.core = core
        self.machine = core.machine
        # Bound once at construction (the machine wires sim/network/config
        # before building ports): every protocol touches these on each
        # store/load, and a plain attribute beats a property call on the
        # hot path.
        self.sim = core.machine.sim
        self.network = core.machine.network
        self.config = core.machine.config
        self.sizes = core.machine.config.message_sizes
        self.node: NodeId = core.node_id
        # One response signal for every load and RMW round trip: the core
        # issues one op at a time and each of these blocks until its
        # ``load_resp``, so a port never has two round trips in flight.
        self._response = self.sim.signal(f"response@core{core.core_id}")
        self._pending_req: Optional[int] = None
        self._next_req = 0
        self._load_req_bytes = self.sizes.control_bytes()
        # Source-side write-combining buffer (§2.1); inert when the config
        # leaves write_combining_lines at 0 or under TSO (coalescing would
        # blur the total store order).
        from repro.protocols.write_combining import WriteCombiningBuffer
        lines = (self.machine.config.write_combining_lines
                 if self.machine.consistency == "rc" else 0)
        self.wc = WriteCombiningBuffer(
            lines, line_bytes=self.machine.config.llc_slice.line_bytes
        )
        # cause -> (global counter, per-core counter); stall() runs on the
        # hot path and must not re-resolve registry names per call.
        self._stall_counters: Dict[str, Any] = {}

    def home(self, addr: int) -> NodeId:
        return self.machine.address_map.home_directory(addr)

    def stall(self, cause: str, duration_ns: float) -> None:
        """Account stall time against this core (Fig. 2's wait breakdown).

        The flat counters and the trace's attribution spans are fed from
        this one site, so span-derived breakdowns are guaranteed to agree
        with counter-derived ones (pinned differentially by the tests).
        """
        if duration_ns > 0:
            counters = self._stall_counters.get(cause)
            if counters is None:
                counters = self._stall_counters[cause] = (
                    self.machine.stats.counter(f"stall.{cause}"),
                    self.machine.stats.counter(
                        f"core{self.core.core_id}.stall.{cause}"
                    ),
                )
            counters[0].add(duration_ns)
            counters[1].add(duration_ns)
            trace = self.machine.trace
            if trace:
                now = self.sim.now
                trace.stall(str(self.node), cause, now - duration_ns, now,
                            core=self.core.core_id)

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def store(self, op: MemOp, program_index: int) -> Generator:
        """Execute a store per the protocol's ordering rules."""

    def fence(self, op: MemOp, program_index: int) -> Generator:
        """Default fence: drain everything this port has outstanding."""
        yield from self.drain()

    def drain(self) -> Generator:
        """Wait until all outstanding operations complete (default no-op)."""
        return
        yield  # pragma: no cover - makes this a generator

    def finish(self) -> Generator:
        """Called after the program's last op (lets protocols flush)."""
        return
        yield  # pragma: no cover - makes this a generator

    def on_message(self, message: Message) -> None:
        """Handle a protocol response delivered to this core."""
        if message.msg_type == "load_resp":
            self._complete_load(message)
        # Subclasses handle their own message types and call super() for
        # the shared ones.

    # ------------------------------------------------------------------
    # Write-combining plumbing
    # ------------------------------------------------------------------
    def _emit_relaxed(self, write, program_index: int) -> Generator:
        """Send one (possibly combined) Relaxed write-through store.

        Overridden by protocols that support write-combining; the default
        rejects combining (WB keeps its own store path)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support write-combining"
        )

    def wc_store(self, op: MemOp, program_index: int) -> Generator:
        """Route a Relaxed store through the write-combining buffer."""
        for write in self.wc.add(op, program_index):
            yield from self._emit_relaxed(write, write.program_index)

    def wc_flush(self) -> Generator:
        """Drain the combining buffer (ordering points)."""
        for write in self.wc.flush():
            yield from self._emit_relaxed(write, write.program_index)

    def wc_flush_line(self, addr: int) -> Generator:
        line = addr - (addr % self.wc.line_bytes)
        for write in self.wc.flush_line(line):
            yield from self._emit_relaxed(write, write.program_index)

    # ------------------------------------------------------------------
    # Shared load path (all WT protocols read at the home slice)
    # ------------------------------------------------------------------
    def sc_load_barrier(self) -> Generator:
        """Under sequential consistency a load may not bypass the core's
        earlier stores; default: drain everything outstanding."""
        yield from self.drain()

    def load(self, op: MemOp, program_index: int) -> Generator:
        """Round-trip read at the home directory; yields, returns the value."""
        if self.machine.consistency == "sc":
            yield from self.sc_load_barrier()
        if self.wc.enabled:
            # Read-own-write: surface any buffered store to this line first.
            yield from self.wc_flush_line(op.addr)
        req_id = self._pending_req = self._next_req
        self._next_req += 1
        self.network.send(Message(
            self.node, self.home(op.addr), "load_req", self._load_req_bytes,
            True, {"addr": op.addr, "size": op.size, "req_id": req_id}))
        value = yield self._response
        return value

    def _complete_load(self, message: Message) -> None:
        """Deliver a ``load_resp`` (loads and RMWs share it) to the round
        trip waiting for its ``req_id``."""
        if message.payload["req_id"] != self._pending_req:
            raise RuntimeError(f"unexpected load response {message}")
        self._pending_req = None
        self._response.trigger(message.payload.get("value", 0))

    # ------------------------------------------------------------------
    # Atomics: read-modify-write at the home LLC slice.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def atomic(self, op: MemOp, program_index: int) -> Generator:
        """Execute a read-modify-write per the protocol's ordering rules;
        yields, returns the old value."""

    def _atomic_round_trip(self, op: MemOp, program_index: int) -> Generator:
        req_id = self._pending_req = self._next_req
        self._next_req += 1
        self.network.send(Message(
            self.node, self.home(op.addr), "atomic_req",
            self.sizes.data_bytes(op.size), False, {
                "addr": op.addr,
                "value": op.value,
                "size": op.size,
                "core": self.core.core_id,
                "program_index": program_index,
                "ordering": op.ordering,
                "atomic": op.meta["atomic"],
                "compare": op.meta.get("compare"),
                "req_id": req_id,
            }))
        old = yield self._response
        return old


class DirectoryNode:
    """Base class for a directory/LLC-slice actor.

    Subclasses add ``on_<msg_type>`` handlers; messages are dispatched to
    them after the slice's service latency.  The node owns the authoritative
    value map for its addresses (commit point of write-through stores).
    """

    def __init__(self, machine: "Machine", node_id: NodeId) -> None:
        self.machine = machine
        self.node_id = node_id
        # Bound once, like CorePort's accessors: the dispatch and respond
        # paths hit these per message.
        self.sim = machine.sim
        self.network = machine.network
        self.sizes = machine.config.message_sizes
        self.values: Dict[int, int] = {}
        self.llc = machine.new_llc_slice()
        self.service_ns = machine.config.cycles_to_ns(
            machine.config.llc_slice.latency_cycles
        )
        machine.network.register(node_id, self.handle)
        # msg_type -> bound on_<msg_type> handler (memoized getattr).
        self._handler_cache: Dict[str, Any] = {}
        # Load size -> ``load_resp`` wire bytes (sizes repeat heavily;
        # ``on_load_req`` overrides fill it with their own response size).
        self._load_resp_bytes: Dict[int, int] = {}
        # Peak count of buffered (stalled/recycled) protocol messages — the
        # "network buffer" component of Fig. 12.
        self.peak_buffered = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        self.sim.schedule(self.service_ns, self._process, message)

    def _process(self, message: Message) -> None:
        handler = self._handler_cache.get(message.msg_type)
        if handler is None:
            handler = getattr(self, f"on_{message.msg_type}", None)
            if handler is None:
                raise RuntimeError(
                    f"{type(self).__name__} has no handler for "
                    f"{message.msg_type}"
                )
            self._handler_cache[message.msg_type] = handler
        handler(message)

    def track_buffered(self, count: int) -> None:
        if count > self.peak_buffered:
            self.peak_buffered = count
        trace = self.machine.trace
        if trace:
            trace.counter(str(self.node_id), "buffered_msgs", count,
                          self.sim.now)

    # ------------------------------------------------------------------
    # Commit point
    # ------------------------------------------------------------------
    def commit_store(self, message: Message) -> None:
        """Make a store visible: update values, the slice's commit count and
        the history."""
        payload = message.payload
        addr = payload["addr"]
        if payload.get("values"):
            # Write-combined store: apply the coalesced per-address values.
            self.values.update(payload["values"])
        elif payload.get("value") is not None:
            self.values[addr] = payload["value"]
        self.llc.commit_write_through()
        if not payload.get("barrier", False):
            self.machine.history.record(
                core=payload["core"],
                program_index=payload["program_index"],
                kind=EventKind.STORE,
                ordering=payload.get("ordering", Ordering.RELAXED),
                addr=addr,
                value=payload.get("value"),
            )

    def read_value(self, addr: int) -> int:
        return self.values.get(addr, 0)

    def perform_atomic(self, message: Message) -> int:
        """Execute an RMW at the commit point; returns the old value.

        The resulting store is recorded in the history; the old value is
        delivered back to the core (which holds it in a register).  Atomic
        reads are deliberately not recorded as history load events — the
        value-matching reads-from inference cannot disambiguate RMW chains
        (e.g. a ping-ponging lock word).
        """
        payload = message.payload
        addr = payload["addr"]
        atomic: AtomicOp = payload["atomic"]
        old = self.values.get(addr, 0)
        new = atomic.apply(old, payload["value"], payload.get("compare"))
        self.values[addr] = new
        self.llc.commit_write_through()
        self.machine.history.record(
            core=payload["core"],
            program_index=payload["program_index"],
            kind=EventKind.STORE,
            ordering=payload.get("ordering", Ordering.RELAXED),
            addr=addr,
            value=new,
        )
        return old

    def respond_atomic(self, message: Message, old: int) -> None:
        # ``load_resp``: the RMW rides the shared response path.
        self.network.send(Message(
            self.node_id, message.src, "load_resp",
            self.sizes.data_bytes(message.payload.get("size", 8)), False,
            {"req_id": message.payload["req_id"], "value": old,
             "addr": message.payload["addr"]}))

    # ------------------------------------------------------------------
    # Shared load handler
    # ------------------------------------------------------------------
    def on_load_req(self, message: Message) -> None:
        payload = message.payload
        addr = payload["addr"]
        size = payload.get("size", 8)
        nbytes = self._load_resp_bytes.get(size)
        if nbytes is None:
            nbytes = self._load_resp_bytes[size] = self.sizes.data_bytes(size)
        self.network.send(Message(
            self.node_id, message.src, "load_resp", nbytes, False, {
                "req_id": payload["req_id"],
                "value": self.read_value(addr),
                "addr": addr,
            }))
