"""Timed interpreter for :mod:`repro.protocols.spec` transition tables.

A core port and a directory per protocol *family* (SO/MP, CORD, SEQ-k,
Tardis) run any rule-complete :class:`~repro.protocols.spec.ProtocolSpec`
— the same table object the model checker interprets.
:class:`TableCorePort` and :class:`TableDirectory` hold what every family
shares: the event-loop plumbing (signals, generators, stall accounting),
the wire transport (payload assembly, message sizes), the retry queues
and the closure path, which runs a row through its guard/effect
callables.  Each family subclass owns its protocol state, its wake
signal, its escape mechanism and the inline paths of its per-store rows.

:func:`protocol_classes` resolves a protocol name to its (core port,
directory) pair.  :func:`make_table_protocol` is the one place that maps
``spec.core_state`` to a family, and it binds each row once per spec,
into class attributes: its escape to the family's mechanism, and its
compiled opcode to the family's inline path, or to the closure path
when the family has none for that opcode.

Inline paths exist only for *per-store* rows, which run once per store:
the issue, acknowledgment and commit of SO/MP stores, the issue and
commit of CORD Relaxed stores, and the issue and commit of SEQ and
Tardis stores.  Every synchronization row — CORD Releases, requests for
notification, notifications and release acks, SEQ flushes and flush
acks, RMWs — runs the :mod:`repro.protocols.spec` closures the model
checker runs.  The shared methods therefore carry no per-protocol test,
and every protocol *decision* still comes from the table (an inline path
is a byte-identical expansion of its row's closures), so the timed
simulator and the checker cannot diverge on them.

Timed behaviour is pinned byte-for-byte by the final-state-hash basket
(``tests/test_state_hash.py``) and by the dispatch differential in
``tests/protocols/test_compile.py``, which reruns each protocol with every
row on the closure path; the ``seq<k>`` commit gating and release-fence
draining regressions live in ``tests/protocols/test_seq_divergence.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Any, Callable, Dict, Generator, List, Mapping, Optional,
                    Tuple, Type)

from repro.consistency.ops import MemOp, Ordering
from repro.core.directory import CordDirectoryState
from repro.core.processor import CordProcessorState
from repro.interconnect.message import Message
from repro.protocols.base import CorePort, DirectoryNode
from repro.protocols.compile import (
    A_CORD_RELAXED,
    A_MP_POSTED,
    A_SEQ_STORE,
    A_SO_STORE,
    A_TARDIS_STORE,
    CompiledDelivery,
    CompiledIssue,
    D_POSTED,
    D_SEQ_STORE,
    D_SO_ACK,
    D_TARDIS_STORE,
    D_WT_RLX,
    D_WT_STORE,
    compile_spec,
)
from repro.protocols.spec import (
    TARDIS_LEASE,
    DeliveryContext,
    Emit,
    ProtocolSpec,
    available_protocols,
    get_spec,
    named_protocols,
    parse_seq_bits,
)

__all__ = ["TableCorePort", "TableDirectory", "SoCorePort", "SoDirectory",
           "CordCorePort", "CordDirectory", "SeqCorePort", "SeqDirectory",
           "TardisCorePort", "TardisDirectory", "make_table_protocol",
           "protocol_classes"]

#: One issue row bound to its family: (row, gate, sender), both plain
#: functions taking the port first.  ``gate(port, row, dir_index,
#: program_index)`` returns ``None`` when the op may issue now, else a
#: generator that clears the stall; ``None`` gates never stall.
BoundIssue = Tuple[CompiledIssue, Optional[Callable], Callable]


# ---------------------------------------------------------------------------
# The closure path for delivery rows (one function per row, built when the
# row is bound)
# ---------------------------------------------------------------------------
def _core_closure(rule) -> Callable:
    def deliver(port: "TableCorePort", message: Message) -> None:
        rule.effects(port._core_ctx, message.payload)
    return deliver


def _apply_closure(rule) -> Callable:
    def apply(node: "TableDirectory", message: Message) -> None:
        rule.effects(_TimedDirCtx(node, message), message.payload)
    return apply


def _retry_closure(rule) -> Callable:
    def drain(node: "TableDirectory", queue: List[Message]) -> bool:
        changed = False
        for message in list(queue):
            ctx = _TimedDirCtx(node, message)
            if rule.enabled(ctx, message.payload):
                queue.remove(message)
                rule.effects(ctx, message.payload)
                changed = True
        return changed
    return drain


def _enqueue(name: str) -> Callable:
    def enqueue(node: "TableDirectory", message: Message) -> None:
        node._retry[name].append(message)
        node._buffered_total += 1
    return enqueue


# ---------------------------------------------------------------------------
# Delivery contexts (the spec's adapter surface, timed flavour)
# ---------------------------------------------------------------------------
class _TimedCoreCtx(DeliveryContext):
    """Core-side context: ``core`` is the port itself (it exposes the
    ``_CoreState``-shaped protocol fields the effects mutate)."""

    def __init__(self, port: "TableCorePort") -> None:
        self.core = port

    def wake(self) -> None:
        self.core.wake_signal.trigger()


class _TimedDirCtx(DeliveryContext):
    """Directory-side context bound to one in-flight message."""

    __slots__ = ("node", "message", "dir_state", "core")

    def __init__(self, node: "TableDirectory", message: Message) -> None:
        self.node = node
        self.message = message
        self.dir_state = node.state
        self.core = None

    def commit(self, fields: Mapping[str, Any]) -> None:
        self.node.commit_store(self.message)

    def commit_barrier(self) -> None:
        self.node.llc.commit_write_through()

    def perform_atomic(self, fields: Mapping[str, Any]) -> None:
        old = self.node.perform_atomic(self.message)
        self.node.respond_atomic(self.message, old)

    def send_core(self, message: str, fields: Mapping[str, Any]) -> None:
        self.node._reply(self.message.src, message, dict(fields))

    def send_dir(self, message: str, dst_dir: int,
                 fields: Mapping[str, Any]) -> None:
        node = self.node
        node._reply(node.machine.directory_id(dst_dir), message, dict(fields))

    def ack_release(self, meta: Any) -> None:
        self.node._ack_release(self.message.src, meta)

    def seq_committed(self, proc: int) -> int:
        return self.node.board.count(proc)

    def seq_commit(self, proc: int) -> None:
        self.node.board.commit(proc, origin=self.node)


# ---------------------------------------------------------------------------
# The core port
# ---------------------------------------------------------------------------
class TableCorePort(CorePort):
    """Processor side shared by every family.

    The port *is* the protocol-state object the table's guards and
    effects run against: it carries every ``_CoreState``-shaped field
    (``cord``, ``so_outstanding``, ``seq_next``/``seq_watermark``/
    ``seq_outstanding``), exactly like the checker's per-core state.

    ``store``/``atomic``/``fence``/``drain``/``on_message`` are the
    entry points (the benchmark's tracer wraps them on this class, so
    families extend them through the bound gates, senders, drains and
    handlers rather than by overriding them).  The bindings are class
    attributes, computed once per spec by :meth:`_bindings`."""

    SPEC: ProtocolSpec = None           # bound by make_table_protocol
    #: Name of the signal blocked ops wait on (diagnostics only).
    WAKE = "ack"
    #: ``IssueRule.escape`` -> gate method this family implements (``None``:
    #: the row never stalls at issue).
    ESCAPES: Mapping[str, Optional[str]] = {"wait": "_wait_gate",
                                            "none": None}
    #: ``FenceRule.timed_drain`` -> drain method (``None``: nothing to drain).
    DRAINS: Mapping[str, Optional[str]] = {"acks": "_drain_acks",
                                           "none": None}
    #: Compiled action opcode -> inline sender (same signature as
    #: :meth:`_send_call`).
    SEND_PATHS: Mapping[int, str] = {}
    #: Compiled delivery opcode -> inline handler of one core-side message.
    DELIVERY_PATHS: Mapping[int, str] = {}

    def __init__(self, core) -> None:
        super().__init__(core)
        self.cord: Optional[CordProcessorState] = None
        self.so_outstanding = 0
        self.seq_next = 0
        self.seq_watermark = 0
        self.seq_outstanding = 0
        self.wake_signal = self.sim.signal(f"{self.WAKE}@core{core.core_id}")
        # Interned message ids and per-mid wire constants (they depend on
        # the machine's config) hoisted off the per-event hot path.
        compiled = compile_spec(self.SPEC)
        self._compiled = compiled
        cord_cfg = self.config.cord
        msgs = compiled.messages
        self._wire_names = tuple(m.wire_name for m in msgs)
        self._msg_bits = tuple(m.bit_width(cord_cfg) for m in msgs)
        self._msg_control = tuple(m.control for m in msgs)
        self._ctl_bytes = tuple(
            self.sizes.control_bytes(b) for b in self._msg_bits)
        # Per-mid {store size -> wire bytes} (sizes repeat heavily).
        self._data_bytes_cache = tuple({} for _ in msgs)
        self._dir_ids = tuple(d.node_id for d in self.machine.directories)
        self._cid = core.core_id
        self._always_ordered = self.machine.consistency in ("tso", "sc")
        self._values_carriers = compiled.values_carriers
        self._barrier_carrier = compiled.barrier_carrier
        self._core_ctx = _TimedCoreCtx(self)
        self._combining = self._store_f[0].combining and self.wc.enabled

    # -- binding -----------------------------------------------------------
    @classmethod
    def _bindings(cls, spec: ProtocolSpec) -> Dict[str, Any]:
        """The class attributes binding ``spec``'s rows to this family:
        each issue row as a :data:`BoundIssue`, the fence drain, and the
        core-consumed rows by wire msg_type (the shared ``load_resp``,
        load and atomic responses alike, is completed by
        :meth:`on_message`)."""
        compiled = compile_spec(spec)
        issue = compiled.issue

        def bind_issue(row: CompiledIssue) -> BoundIssue:
            path = cls.SEND_PATHS.get(row.action_op)
            return (row, _bind(cls, spec, cls.ESCAPES, row.escape, "escape"),
                    cls._send_call if path is None else getattr(cls, path))

        def bind_delivery(row: CompiledDelivery) -> Callable:
            path = cls.DELIVERY_PATHS.get(row.op)
            return (getattr(cls, path) if path is not None
                    else _core_closure(row.rule))

        return {
            "_store_t": bind_issue(issue[("store", True)]),
            "_store_f": bind_issue(issue[("store", False)]),
            "_atomic_t": bind_issue(issue[("atomic", True)]),
            "_atomic_f": bind_issue(issue[("atomic", False)]),
            "_fence_drain": _bind(cls, spec, cls.DRAINS,
                                  spec.fence.timed_drain, "drain"),
            "_drain_on_acquire": spec.fence.timed_drain_on_acquire,
            "_core_handlers": {
                compiled.messages[row.mid].wire_name: bind_delivery(row)
                for row in compiled.core_wire.values()
            },
        }

    # -- diagnostics surface (machine watchdog reads this by name) --------
    @property
    def outstanding_acks(self) -> int:
        return self.so_outstanding

    @outstanding_acks.setter
    def outstanding_acks(self, value: int) -> None:
        self.so_outstanding = value

    # ------------------------------------------------------------------
    # Issue side
    # ------------------------------------------------------------------
    def _wait_gate(self, row: CompiledIssue, dir_index: int,
                   program_index: int) -> Optional[Generator]:
        """``escape="wait"``: block on the wake signal until the guard
        clears, attributing the stall to the row's cause."""
        if row.guard(self, dir_index) is None:
            return None
        return self._wait(row, dir_index)

    def _wait(self, row: CompiledIssue, dir_index: int) -> Generator:
        started = self.sim.now
        while True:
            reason = row.guard(self, dir_index)
            if reason is None:
                break
            self._note_stall(reason)
            yield self.wake_signal
        self.stall(row.stall_cause, self.sim.now - started)

    def _note_stall(self, reason: Any) -> None:
        """A guard held an op back (CORD counts the reasons)."""

    def _post(self, mid: int, dir_index: int, payload: Dict[str, Any],
              size: Optional[int] = None) -> None:
        """Send message ``mid`` to directory ``dir_index``: data-sized for
        ``size`` payload bytes, or control-sized when ``size`` is None
        (side-channel messages, §4.4 barrier Releases)."""
        if size is None:
            nbytes, control = self._ctl_bytes[mid], True
        else:
            cache = self._data_bytes_cache[mid]
            nbytes = cache.get(size)
            if nbytes is None:
                nbytes = cache[size] = self.sizes.data_bytes(
                    size, self._msg_bits[mid])
            control = self._msg_control[mid]
        self.network.send(Message(self.node, self._dir_ids[dir_index],
                                  self._wire_names[mid], nbytes, control,
                                  payload))

    def _send_emit(self, emit: Emit, *, addr: int, size: int, value,
                   program_index: int, home_index: int, ordering,
                   values=None, barrier: bool = False) -> None:
        """Wrap one table emission in its wire transport."""
        mid = self._compiled.msg_id[emit.message]
        dst_index = emit.dst_dir if emit.dst_dir is not None else home_index
        if not emit.carries_op:
            self._post(mid, dst_index, dict(emit.fields))
            return
        payload = {"addr": addr, "value": value, "size": size}
        if emit.message in self._values_carriers:
            payload["values"] = values
        payload["core"] = self._cid
        payload["program_index"] = program_index
        payload["ordering"] = ordering
        payload.update(emit.fields)
        if emit.message == self._barrier_carrier:
            payload["barrier"] = barrier
        # A §4.4 empty barrier Release is control-class: no data payload.
        self._post(mid, dst_index, payload, None if barrier else size)

    def _send_call(self, row: CompiledIssue, addr: int, size: int, value,
                   program_index: int, dir_index: int, ordering,
                   values=None, barrier: bool = False) -> None:
        """The closure path: run ``row.effects`` (mutating protocol
        state) and put each emission on the wire."""
        for emit in row.effects(self, dir_index, row.ordered,
                                barrier=barrier):
            self._send_emit(emit, addr=addr, size=size, value=value,
                            program_index=program_index,
                            home_index=dir_index, ordering=ordering,
                            values=values, barrier=barrier)

    def _issue(self, bound: BoundIssue, addr: int, size: int, value,
               program_index: int, dir_index: int, ordering, values=None,
               barrier: bool = False) -> Generator:
        """Run one bound issue row: clear its gate, then send."""
        row, gate, send = bound
        if gate is not None:
            stall = gate(self, row, dir_index, program_index)
            if stall is not None:
                yield from stall
        send(self, row, addr, size, value, program_index, dir_index,
             ordering, values, barrier)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def store(self, op: MemOp, program_index: int) -> Generator:
        home_index = self.home(op.addr).index
        if op.ordering.is_release or self._always_ordered:
            yield from self._store_ordered(op, program_index, home_index)
        elif self._combining:
            yield from self.wc_store(op, program_index)
        else:
            # ``_issue`` inlined: most relaxed stores never stall, so they
            # skip a nested generator.
            row, gate, send = self._store_f
            if gate is not None:
                stall = gate(self, row, home_index, program_index)
                if stall is not None:
                    yield from stall
            send(self, row, op.addr, op.size, op.value, program_index,
                 home_index, op.ordering)

    def _store_ordered(self, op: MemOp, program_index: int,
                       home_index: int) -> Generator:
        yield from self.wc_flush()          # a Release orders buffered stores
        yield from self._issue(self._store_t, op.addr, op.size, op.value,
                               program_index, home_index, op.ordering)

    def _emit_relaxed(self, write, program_index: int) -> Generator:
        yield from self._issue(self._store_f, write.addr, write.size,
                               write.value, program_index,
                               self.home(write.addr).index, Ordering.RELAXED,
                               write.values)

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------
    def atomic(self, op: MemOp, program_index: int) -> Generator:
        yield from self.wc_flush()          # RMWs never bypass buffered stores
        ordered = op.ordering.is_release or self._always_ordered
        home_index = self.home(op.addr).index
        row, gate, _send = self._atomic_t if ordered else self._atomic_f
        if gate is not None:
            stall = gate(self, row, home_index, program_index)
            if stall is not None:
                yield from stall
        emits = row.effects(self, home_index, ordered)
        # Everything before the carrier is side-channel traffic (CORD's
        # requests-for-notification ahead of a Release RMW).
        for emit in emits[:-1]:
            self._send_emit(emit, addr=op.addr, size=op.size, value=op.value,
                            program_index=program_index,
                            home_index=home_index, ordering=op.ordering)
        old = yield from self._rmw_round_trip(op, program_index, emits[-1],
                                              home_index)
        return old

    def _rmw_round_trip(self, op: MemOp, program_index: int, emit: Emit,
                        home_index: int) -> Generator:
        """Send the RMW on its carrier (``atomic``, or the ordered-store
        carrier for a CORD Release RMW, which the directory performs when
        the Release commits) and wait for the old value."""
        mid = self._compiled.msg_id[emit.message]
        req_id = self._pending_req = self._next_req
        self._next_req += 1
        payload = {
            "addr": op.addr,
            "value": op.value,
            "size": op.size,
            "core": self._cid,
            "program_index": program_index,
            "ordering": op.ordering,
        }
        payload.update(emit.fields)
        payload["atomic"] = op.meta["atomic"]
        payload["compare"] = op.meta.get("compare")
        payload["req_id"] = req_id
        # Metadata bits are charged when the RMW carries protocol fields
        # (a relaxed SEQ RMW carries no sequence number).
        bits = self._msg_bits[mid] if emit.fields else 0
        self.network.send(Message(self.node, self._dir_ids[home_index],
                                  self._wire_names[mid],
                                  self.sizes.data_bytes(op.size, bits),
                                  False, payload))
        old = yield self._response
        return old

    # ------------------------------------------------------------------
    # Fences / drains
    # ------------------------------------------------------------------
    def fence(self, op: MemOp, program_index: int) -> Generator:
        # Acquire barriers are free (§4.4) unless the table drains on them.
        drain = self._fence_drain       # a class-level function: bound
        if drain is not None and (op.ordering.is_release
                                  or self._drain_on_acquire):
            yield from drain(program_index)

    def drain(self) -> Generator:
        drain = self._fence_drain
        if drain is not None:
            yield from drain(-1)

    def _drain_acks(self, program_index: int) -> Generator:
        """``timed_drain="acks"``: wait until the fence rule's completion
        predicate holds."""
        yield from self.wc_flush()
        fr = self.SPEC.fence
        started = self.sim.now
        while not fr.done(self):
            yield self.wake_signal
        self.stall(fr.stall_cause, self.sim.now - started)

    # ------------------------------------------------------------------
    # Responses (flat table dispatch)
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        msg_type = message.msg_type
        if msg_type == "load_resp":
            self._complete_load(message)
            return
        handler = self._core_handlers.get(msg_type)
        if handler is not None:
            handler(self, message)


class SoCorePort(TableCorePort):
    """SO and MP processor side: write-through stores, acknowledged (SO,
    counted in ``so_outstanding``) or posted on a FIFO channel (MP)."""

    WAKE = "so_ack"
    SEND_PATHS = {A_SO_STORE: "_send_so_store", A_MP_POSTED: "_send_posted"}
    DELIVERY_PATHS = {D_SO_ACK: "_on_so_ack"}

    def _send_so_store(self, row: CompiledIssue, addr: int, size: int, value,
                       program_index: int, dir_index: int, ordering,
                       values=None, barrier: bool = False) -> None:
        self.so_outstanding += 1
        self._send_posted(row, addr, size, value, program_index, dir_index,
                          ordering, values)

    def _send_posted(self, row: CompiledIssue, addr: int, size: int, value,
                     program_index: int, dir_index: int, ordering,
                     values=None, barrier: bool = False) -> None:
        self._post(row.emit_mids[0], dir_index, {
            "addr": addr, "value": value, "size": size, "values": values,
            "core": self._cid, "program_index": program_index,
            "ordering": ordering}, size)

    def _on_so_ack(self, message: Message) -> None:
        self.so_outstanding -= 1
        if self.so_outstanding == 0:
            self.wake_signal.trigger()


class CordCorePort(TableCorePort):
    """CORD processor side: the epoch and unacked-epoch tables
    (:class:`~repro.core.processor.CordProcessorState`), and §4.4's empty
    barrier Releases as the escape for stalled Relaxed ops and as the
    release-fence drain."""

    WAKE = "cord_ack"
    ESCAPES = {**TableCorePort.ESCAPES, "barrier": "_barrier_gate"}
    DRAINS = {**TableCorePort.DRAINS, "barriers": "_drain_barriers"}
    SEND_PATHS = {A_CORD_RELAXED: "_send_relaxed"}

    def __init__(self, core) -> None:
        super().__init__(core)
        self.cord = CordProcessorState(core.core_id, self.config.cord)
        self.state = self.cord          # storage/diagnostics surface
        trace = self.machine.trace
        if trace:
            actor, sim = str(self.node), self.sim
            self.cord.on_transition = (
                lambda name, value: trace.counter(actor, name, value,
                                                  sim.now)
            )

    def _note_stall(self, reason: Any) -> None:
        self.cord.record_stall(reason)

    # -- fast path ---------------------------------------------------------
    def _send_relaxed(self, row: CompiledIssue, addr: int, size: int, value,
                      program_index: int, dir_index: int, ordering,
                      values=None, barrier: bool = False) -> None:
        self._post(row.emit_mids[0], dir_index, {
            "addr": addr, "value": value, "size": size, "values": values,
            "core": self._cid, "program_index": program_index,
            "ordering": ordering,
            "meta": self.cord.on_relaxed_store(dir_index)}, size)

    # -- §4.4 barrier Releases ---------------------------------------------
    def _store_ordered(self, op: MemOp, program_index: int,
                       home_index: int) -> Generator:
        if self._store_t[0].source_drain:
            # cord-nonotify: drain every other pending directory at the
            # source, so the Release has nothing left to request
            # notifications for.
            pending = self.cord.pending_directories(exclude=home_index)
            if pending:
                started = self.sim.now
                yield from self._barrier_broadcast(pending, program_index)
                self.stall("cross_dir_drain", self.sim.now - started)
        yield from super()._store_ordered(op, program_index, home_index)

    def _barrier_gate(self, row: CompiledIssue, dir_index: int,
                      program_index: int) -> Optional[Generator]:
        """``escape="barrier"``: clear a stalled Relaxed op's rare stall
        conditions by injecting empty barrier Releases."""
        if row.guard(self, dir_index) is None:
            return None
        return self._barrier_escape(row, dir_index, program_index)

    def _barrier_escape(self, row: CompiledIssue, dir_index: int,
                        program_index: int) -> Generator:
        while True:
            reason = row.guard(self, dir_index)
            if reason is None:
                return
            self.cord.record_stall(reason)
            yield from self._barrier_release(dir_index, program_index)

    def _issue_barrier(self, dir_index: int,
                       program_index: int) -> Generator:
        """One empty barrier Release through the ordered-store row."""
        yield from self._issue(self._store_t, 0, 0, None, program_index,
                               dir_index, Ordering.RELEASE, barrier=True)

    def _barrier_broadcast(self, pending: List[int],
                           program_index: int) -> Generator:
        """Send one empty barrier Release (§4.4) to each ``pending``
        directory, then wait until all of them are acknowledged.

        Returns the time the last barrier issued (the fence accounts its
        stall from there)."""
        issued: List[Tuple[int, int]] = []
        for dir_index in pending:
            epoch = self.cord.epoch.value
            yield from self._issue_barrier(dir_index, program_index)
            issued.append((dir_index, epoch))
        issued_at = self.sim.now
        while any(key in self.cord.unacked for key in issued):
            yield self.wake_signal
        return issued_at

    def _barrier_release(self, dir_index: int,
                         program_index: int) -> Generator:
        """An empty directory-ordered Release (§4.4), then wait for its
        acknowledgment so the stall condition is guaranteed to clear."""
        epoch = self.cord.epoch.value
        yield from self._issue_barrier(dir_index, program_index)
        started = self.sim.now
        while (dir_index, epoch) in self.cord.unacked:
            yield self.wake_signal
        self.stall("barrier_ack", self.sim.now - started)

    def _drain_barriers(self, program_index: int) -> Generator:
        """``timed_drain="barriers"``: broadcast empty barrier Releases to
        every pending directory, then wait for their acknowledgments."""
        yield from self.wc_flush()
        issued_at = yield from self._barrier_broadcast(
            self.cord.pending_directories(), program_index)
        self.stall(self.SPEC.fence.stall_cause, self.sim.now - issued_at)

    def sc_load_barrier(self) -> Generator:
        # SC store->load ordering under CORD: every store is already
        # Release-ordered and acknowledged, so a load only waits for the
        # epoch table to drain — no extra messages.
        started = self.sim.now
        while not self.SPEC.fence.done(self):
            yield self.wake_signal
        self.stall("sc_load_order", self.sim.now - started)


class SeqCorePort(TableCorePort):
    """SEQ-k processor side: a per-core sequence stream whose window is
    kept unambiguous by flushes — ``seq_flush`` to every directory the
    core has sent to, finished by the first acknowledgment that echoes
    the flush's ``upto`` (the counts it checks are machine-global)."""

    WAKE = "seq_flush"
    ESCAPES = {**TableCorePort.ESCAPES, "flush": "_flush_gate"}
    DRAINS = {**TableCorePort.DRAINS, "flush": "_drain_flush"}
    SEND_PATHS = {A_SEQ_STORE: "_send_seq_store"}

    def __init__(self, core) -> None:
        super().__init__(core)
        self._seen_dirs = set()

    def _send_seq_store(self, row: CompiledIssue, addr: int, size: int,
                        value, program_index: int, dir_index: int, ordering,
                        values=None, barrier: bool = False) -> None:
        seq = self.seq_next
        self.seq_next = seq + 1
        self.seq_outstanding += 1
        self._post(row.emit_mids[0], dir_index, {
            "addr": addr, "value": value, "size": size, "core": self._cid,
            "program_index": program_index, "ordering": ordering,
            "seq": seq, "ordered": row.ordered}, size)

    def _flush_gate(self, row: CompiledIssue, dir_index: int,
                    program_index: int) -> Optional[Generator]:
        """``escape="flush"``: note the op's home as a directory a later
        flush must ask, and flush first if the op would overrun the
        sequence window."""
        self._seen_dirs.add(dir_index)
        guard = row.timed_guard or row.guard
        if guard(self, dir_index) is None:
            return None
        return self._flush(row.stall_cause)

    def _drain_flush(self, program_index: int) -> Generator:
        """``timed_drain="flush"``: a release fence must not complete with
        uncommitted sequence numbers outstanding (the checker gates on
        ``seq_outstanding == 0``)."""
        if self.seq_next > self.seq_watermark:
            yield from self._flush(self.SPEC.fence.stall_cause)

    def _flush(self, cause: str) -> Generator:
        """Stall until the directories confirm all prior seqs committed."""
        started = self.sim.now
        upto = self.seq_next
        mid = self._compiled.msg_id["seq_flush"]
        for dir_index in sorted(self._seen_dirs):
            self._post(mid, dir_index, {"core": self._cid, "upto": upto})
        while self.seq_watermark < upto:
            yield self.wake_signal
        self.stall(cause, self.sim.now - started)


class TardisCorePort(TableCorePort):
    """Tardis processor side: the table's rows plus the timed-only lease
    cache, read-own-write forwarding and logical clock (Tardis 2.0,
    PAPERS.md).

    The ``load``/``atomic``/``fence`` lease rules extend the shared entry
    points through ``super()``."""

    WAKE = "tardis_ack"
    SEND_PATHS = {A_TARDIS_STORE: "_send_tardis_store"}

    def __init__(self, core) -> None:
        super().__init__(core)
        # Per-proc logical clocks (pts) live on the machine-global commit
        # board: directory-side commits raise the issuing core's clock
        # without an extra ack message.
        self.board = self.machine.seq_board()
        # addr -> (value, rts): leased read-only copies, readable while
        # rts >= this core's pts.
        self._tardis_lease: Dict[int, Tuple[Any, int]] = {}
        # addr -> (value, seq): own stores still in flight, for
        # read-own-write forwarding, in seq order (a re-stored address
        # moves to the end), so the committed entries are a prefix that
        # each new store trims.
        self._tardis_fwd: OrderedDict[int, Tuple[Any, int]] = OrderedDict()
        self._tardis_resp_ts: Optional[Tuple[int, int]] = None
        self._lease_hits = self.machine.stats.counter("tardis.lease_hits")
        self._lease_misses = self.machine.stats.counter(
            "tardis.lease_misses")

    def _tardis_note_store(self, addr: int, value, values,
                           seq: int) -> None:
        """Issue-side Tardis bookkeeping: an own store supersedes any
        lease on its line(s) and enters the read-own-write forward map
        until the directory commits it (the board count passes ``seq``).

        A load never forwards a committed entry, and the board count
        only grows, so the committed prefix is dropped here, oldest
        first: each entry leaves at most once, O(1) amortized per store."""
        lease, fwd = self._tardis_lease, self._tardis_fwd
        if values:
            for a, v in values.items():
                lease.pop(a, None)
                fwd[a] = (v, seq)
                fwd.move_to_end(a)
        else:
            lease.pop(addr, None)
            fwd[addr] = (value, seq)
            fwd.move_to_end(addr)
        # The store just posted cannot have committed yet (its delivery is
        # a later event), so the loop stops at it at the latest.
        committed = self.board.count(self._cid)
        while fwd[next(iter(fwd))][1] < committed:
            fwd.popitem(last=False)

    def _send_tardis_store(self, row: CompiledIssue, addr: int, size: int,
                           value, program_index: int, dir_index: int,
                           ordering, values=None,
                           barrier: bool = False) -> None:
        seq = self.seq_next
        self.seq_next = seq + 1
        self.seq_outstanding += 1
        self._post(row.emit_mids[0], dir_index, {
            "addr": addr, "value": value, "size": size, "values": values,
            "core": self._cid, "program_index": program_index,
            "ordering": ordering, "seq": seq, "ordered": row.ordered}, size)
        self._tardis_note_store(addr, value, values, seq)

    def _send_emit(self, emit: Emit, *, addr: int, size: int, value,
                   program_index: int, home_index: int, ordering,
                   values=None, barrier: bool = False) -> None:
        super()._send_emit(emit, addr=addr, size=size, value=value,
                           program_index=program_index,
                           home_index=home_index, ordering=ordering,
                           values=values, barrier=barrier)
        if emit.message == "tardis_store":
            # Closure path: same lease/forward bookkeeping as the
            # A_TARDIS_STORE fast path, keyed by the emitted seq.
            self._tardis_note_store(addr, value, values, emit.fields["seq"])

    # ------------------------------------------------------------------
    # Loads (leases)
    # ------------------------------------------------------------------
    def load(self, op: MemOp, program_index: int) -> Generator:
        lease = self._tardis_lease
        if self.machine.consistency == "sc":
            yield from self.sc_load_barrier()
        if self.wc.enabled:
            # Surface buffered own stores into the forward map first.
            yield from self.wc_flush_line(op.addr)
        acquire = op.ordering.is_acquire or self._always_ordered
        if acquire:
            # An acquire read observes current logical time: drop every
            # lease so this read (and subsequent reads) go remote.
            lease.clear()
        board, cid = self.board, self._cid
        fwd = self._tardis_fwd.get(op.addr)
        if fwd is not None:
            value, seq = fwd
            if board.count(cid) <= seq:
                return value        # read-own-write: store still in flight
            del self._tardis_fwd[op.addr]
        if not acquire:
            entry = lease.get(op.addr)
            if entry is not None:
                value, rts = entry
                pts = board.pts(cid)
                if rts >= pts:
                    # Tardis 2.0 self-increment: each hit advances pts,
                    # so a grant serves at most TARDIS_LEASE hits before
                    # the copy expires against the core's own clock.
                    board.bump_pts(cid, pts + 1)
                    self._lease_hits.add(1)
                    return value
                del lease[op.addr]
        self._lease_misses.add(1)
        value = yield from super().load(op, program_index)
        ts = self._tardis_resp_ts
        if ts is not None:
            self._tardis_resp_ts = None
            wts, rts = ts
            # Observing the line pulls this core's clock up to the write
            # timestamp — the transitive-causality edge that makes stale
            # lease hits provably checker-reachable (DESIGN.md).
            board.bump_pts(cid, wts)
            lease[op.addr] = (value, rts)
        return value

    def _complete_load(self, message: Message) -> None:
        payload = message.payload
        if "wts" in payload:
            # Lease grant riding the load response (atomic responses
            # share the wire type but carry no timestamps).
            self._tardis_resp_ts = (payload["wts"], payload["rts"])
        super()._complete_load(message)

    # ------------------------------------------------------------------
    # Synchronization: RMWs and acquire fences drop the leases
    # ------------------------------------------------------------------
    def atomic(self, op: MemOp, program_index: int) -> Generator:
        # Buffered stores enter the forward map first, so the RMW result
        # supersedes a buffered store to its own line too.
        yield from self.wc_flush()
        # An RMW synchronizes at the directory: drop the leases (the RMW
        # observes and advances logical time — the directory bumps this
        # core's pts at the commit) and the own-store forward for the
        # line (the RMW result supersedes it).
        self._tardis_lease.clear()
        self._tardis_fwd.pop(op.addr, None)
        old = yield from super().atomic(op, program_index)
        return old

    def fence(self, op: MemOp, program_index: int) -> Generator:
        if op.ordering.is_acquire:
            # Acquire side: jump to current logical time by dropping the
            # leases; the next read of each line goes remote.
            self._tardis_lease.clear()
        yield from super().fence(op, program_index)


# ---------------------------------------------------------------------------
# The directory
# ---------------------------------------------------------------------------
class TableDirectory(DirectoryNode):
    """Directory side shared by every family.

    Messages with a retry queue are buffered ("recycled", Alg. 2) and
    re-evaluated by :meth:`_progress`; everything else is applied on
    arrival.  :meth:`_bindings` binds each row once per spec, to the
    family's fast path for its delivery opcode or to the closure path.
    ``_process`` is the entry point the benchmark's tracer wraps, so
    families do not override it."""

    SPEC: ProtocolSpec = None           # bound by make_table_protocol
    #: Delivery opcode -> inline handler applying one arriving message.
    APPLY_PATHS: Mapping[int, str] = {}
    #: Delivery opcode -> inline drain of one retry queue (returns whether
    #: it consumed anything).
    RETRY_PATHS: Mapping[int, str] = {}

    def __init__(self, machine, node_id) -> None:
        super().__init__(machine, node_id)
        #: Directory-side protocol state a family keeps (CORD's tables).
        self.state: Optional[CordDirectoryState] = None
        compiled = compile_spec(self.SPEC)
        self._compiled = compiled
        cord_cfg = machine.config.cord
        msgs = compiled.messages
        self._wire_names = tuple(m.wire_name for m in msgs)
        self._ctl_bytes = tuple(
            self.sizes.control_bytes(m.bit_width(cord_cfg)) for m in msgs)
        self._retry: Dict[str, List[Message]] = {
            name: [] for name, _drain in self._retry_rows
        }
        self._buffered_total = 0

    @classmethod
    def _bindings(cls, spec: ProtocolSpec) -> Dict[str, Any]:
        """The class attributes binding ``spec``'s rows to this family:
        ``_handlers`` maps each wire msg_type to (handler, whether to sweep
        the retry queues afterwards) — the shared load round trip sits
        outside the table — and ``_retry_rows`` lists the retry queues in
        evaluation order, each with its drain."""
        compiled = compile_spec(spec)
        sweep_after = frozenset(spec.progress_on) if spec.retry_order else ()
        handlers: Dict[str, Tuple[Callable, bool]] = {
            "load_req": (cls.on_load_req, False),
        }
        rows = {row.name: row for row in compiled.dir_wire.values()}
        for row in rows.values():
            if row.name in spec.retry_order:
                entry = (_enqueue(row.name), True)
            else:
                path = cls.APPLY_PATHS.get(row.op)
                entry = (getattr(cls, path) if path is not None
                         else _apply_closure(row.rule),
                         row.name in sweep_after)
            handlers[compiled.messages[row.mid].wire_name] = entry

        def bind_retry(row: CompiledDelivery) -> Callable:
            path = cls.RETRY_PATHS.get(row.op)
            return (getattr(cls, path) if path is not None
                    else _retry_closure(row.rule))

        return {
            "_handlers": handlers,
            "_retry_rows": tuple((name, bind_retry(rows[name]))
                                 for name in spec.retry_order),
        }

    def _reply(self, dst, name: str, payload: Dict[str, Any]) -> None:
        """Send the table's control message ``name`` to ``dst``."""
        mid = self._compiled.msg_id[name]
        self.network.send(Message(self.node_id, dst, self._wire_names[mid],
                                  self._ctl_bytes[mid], True, payload))

    def _process(self, message: Message) -> None:
        entry = self._handlers.get(message.msg_type)
        if entry is None:
            super()._process(message)   # names the missing handler
            return
        handler, sweep = entry
        handler(self, message)
        if sweep:
            self._progress()

    def _progress(self) -> None:
        """Re-evaluate the retry queues until a full sweep changes
        nothing (Alg. 2 "Retry later").

        When nothing is buffered and no trace is attached the sweep is
        skipped outright — the overwhelmingly common case on
        commit-heavy workloads.
        """
        if self._buffered_total == 0 and self.machine.trace is None:
            return
        retry = self._retry
        changed = True
        while changed:
            changed = False
            for name, drain in self._retry_rows:
                queue = retry[name]
                if queue and drain(self, queue):
                    changed = True
        total = 0
        for queue in retry.values():
            total += len(queue)
        self._buffered_total = total
        self.track_buffered(total)


class SoDirectory(TableDirectory):
    """SO and MP directory side: commit on arrival (SO acknowledges)."""

    APPLY_PATHS = {D_WT_STORE: "_apply_wt_store", D_POSTED: "commit_store"}

    def _apply_wt_store(self, message: Message) -> None:
        self.commit_store(message)
        self._reply(message.src, "so_ack", {})


class CordDirectory(TableDirectory):
    """CORD directory side: the store-counter and notification tables
    (:class:`~repro.core.directory.CordDirectoryState`) that order
    Releases at the directory (Alg. 2)."""

    APPLY_PATHS = {D_WT_RLX: "_apply_wt_rlx"}

    def __init__(self, machine, node_id) -> None:
        super().__init__(machine, node_id)
        self.state = CordDirectoryState(
            node_id.index, machine.config.total_cores, machine.config.cord)

    def _ack_release(self, dst, meta: Any) -> None:
        trace = self.machine.trace
        if trace:
            trace.counter(str(self.node_id), f"committed_epoch.p{meta.proc}",
                          meta.epoch, self.sim.now)
        self._reply(dst, "rel_ack",
                    {"dir": self.node_id.index, "epoch": meta.epoch})

    def _apply_wt_rlx(self, message: Message) -> None:
        self.commit_store(message)
        self.state.on_relaxed(message.payload["meta"])


class SeqDirectory(TableDirectory):
    """SEQ-k directory side: stores and flushes gate on the machine-global
    commit board (per-directory counts deadlock cross-directory
    releases)."""

    RETRY_PATHS = {D_SEQ_STORE: "_retry_seq_store"}

    def __init__(self, machine, node_id) -> None:
        super().__init__(machine, node_id)
        self.board = machine.seq_board()
        self.board.subscribe(self, self._progress)

    def _retry_seq_store(self, queue: List[Message]) -> bool:
        board = self.board
        changed = False
        for message in list(queue):
            payload = message.payload
            core = payload["core"]
            if payload["ordered"] and board.count(core) < payload["seq"]:
                continue
            queue.remove(message)
            self.commit_store(message)
            board.commit(core, origin=self)
            changed = True
        return changed


class TardisDirectory(TableDirectory):
    """Tardis directory side: per-core in-order commit on the
    machine-global board, plus per-line timestamps — write-ts and
    read-lease end, both directory-resident (no sharer lists, no
    invalidations).  The commit, RMW and load hooks extend the base ones
    through ``super()``."""

    RETRY_PATHS = {D_TARDIS_STORE: "_retry_tardis_store"}

    def __init__(self, machine, node_id) -> None:
        super().__init__(machine, node_id)
        self.board = machine.seq_board()
        self.board.subscribe(self, self._progress)
        self._tardis_wts: Dict[int, int] = {}
        self._tardis_rts: Dict[int, int] = {}
        self._lease_resp_bits = self.SPEC.messages["load_resp"].bit_width(
            machine.config.cord)

    def _retry_tardis_store(self, queue: List[Message]) -> bool:
        board = self.board
        changed = False
        for message in list(queue):
            core = message.payload["core"]
            if board.count(core) < message.payload["seq"]:
                continue        # strict per-core in-order commit
            queue.remove(message)
            self.commit_store(message)
            board.commit(core, origin=self)
            changed = True
        return changed

    def commit_store(self, message: Message) -> None:
        super().commit_store(message)
        # Commit point: the write lands strictly after every granted
        # lease (max over rts) and after everything the writer has
        # observed (max over its pts) — §Tardis write rule.
        payload = message.payload
        core = payload["core"]
        wts_map, rts_map = self._tardis_wts, self._tardis_rts
        board = self.board
        ts = board.pts(core)
        values = payload.get("values")
        for addr in (values if values else (payload["addr"],)):
            ts = max(wts_map.get(addr, 0), rts_map.get(addr, 0), ts) + 1
            wts_map[addr] = ts
            rts_map[addr] = ts
        board.bump_pts(core, ts)

    def perform_atomic(self, message: Message) -> int:
        old = super().perform_atomic(message)
        payload = message.payload
        addr = payload["addr"]
        core = payload["core"]
        ts = max(self._tardis_wts.get(addr, 0), self._tardis_rts.get(addr, 0),
                 self.board.pts(core)) + 1
        self._tardis_wts[addr] = ts
        self._tardis_rts[addr] = ts
        # Bumping the issuer's pts here (before the response leaves)
        # threads causality through RMW chains without carrying any
        # timestamp in the atomic response.
        self.board.bump_pts(core, ts)
        return old

    def on_load_req(self, message: Message) -> None:
        # Lease grant: extend the line's read end-time and ship
        # (value, wts, rts) back — two extra timestamps on the wire.
        payload = message.payload
        addr = payload["addr"]
        wts = self._tardis_wts.get(addr, 0)
        rts = max(self._tardis_rts.get(addr, 0), wts + TARDIS_LEASE)
        self._tardis_rts[addr] = rts
        size = payload.get("size", 8)
        nbytes = self._load_resp_bytes.get(size)
        if nbytes is None:
            nbytes = self._load_resp_bytes[size] = self.sizes.data_bytes(
                size, self._lease_resp_bits)
        self.network.send(Message(
            self.node_id, message.src, "load_resp", nbytes, False, {
                "req_id": payload["req_id"],
                "value": self.read_value(addr),
                "addr": addr,
                "wts": wts,
                "rts": rts,
            }))


# ---------------------------------------------------------------------------
# Class factory
# ---------------------------------------------------------------------------
def _bind(family: type, spec: ProtocolSpec,
          table: Mapping[Any, Optional[str]], key: Any,
          what: str) -> Optional[Callable]:
    """The family method ``table`` names for ``key`` (``None``: nothing
    to run)."""
    if key not in table:
        raise ValueError(f"protocol {spec.name!r}: {family.__name__} "
                         f"implements no {what} {key!r}")
    name = table[key]
    return None if name is None else getattr(family, name)


#: ``ProtocolSpec.core_state`` -> the family's (core port, directory) pair.
_FAMILIES: Dict[str, Tuple[Type[TableCorePort], Type[TableDirectory]]] = {
    "so": (SoCorePort, SoDirectory),
    "cord": (CordCorePort, CordDirectory),
    "seq": (SeqCorePort, SeqDirectory),
    "tardis": (TardisCorePort, TardisDirectory),
}

#: ``id(spec)`` -> (spec, port class, directory class).  Holding the spec
#: keeps its id from being reused while the entry lives, so two specs that
#: share a name never share classes.
_CLASS_CACHE: Dict[int, Tuple[ProtocolSpec, Type[TableCorePort],
                              Type[TableDirectory]]] = {}


def make_table_protocol(
    spec: ProtocolSpec,
) -> Tuple[Type[TableCorePort], Type[TableDirectory]]:
    """Build (core port, directory) classes interpreting ``spec``:
    subclasses of the family pair its ``core_state`` names, built once
    per spec object."""
    cached = _CLASS_CACHE.get(id(spec))
    if cached is not None:
        return cached[1], cached[2]
    if not spec.rules_complete:
        if spec.actors is not None:
            # Messages-only spec with a declared actor pair (wb): the
            # table cannot interpret it, but the spec still names the
            # implementation.
            return spec.actors()
        raise ValueError(
            f"protocol {spec.name!r} has a messages-only table and "
            f"declares no actor pair"
        )
    family = _FAMILIES.get(spec.core_state)
    if family is None:
        raise ValueError(
            f"protocol {spec.name!r} names core_state "
            f"{spec.core_state!r}; choose from {sorted(_FAMILIES)}")
    port_base, dir_base = family
    title = spec.name.replace("-", " ").title().replace(" ", "")
    port_cls = type(f"Table{title}CorePort", (port_base,),
                    {"SPEC": spec, **port_base._bindings(spec)})
    dir_cls = type(f"Table{title}Directory", (dir_base,),
                   {"SPEC": spec, **dir_base._bindings(spec)})
    _CLASS_CACHE[id(spec)] = (spec, port_cls, dir_cls)
    return port_cls, dir_cls


def protocol_classes(name: str) -> Tuple[Type[CorePort], Type[DirectoryNode]]:
    """Resolve a protocol name to its (core port, directory) classes.

    Raises :class:`ValueError` for an unknown name (naming the valid
    choices) or an out-of-range ``seq<k>`` width, before any actor is
    built.
    """
    if name not in named_protocols() and parse_seq_bits(name) is None:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {available_protocols()}"
        )
    return make_table_protocol(get_spec(name))
