"""Timed interpreter for :mod:`repro.protocols.spec` transition tables.

One generic core-port class and one generic directory class run any
rule-complete :class:`~repro.protocols.spec.ProtocolSpec` — the same
table object the model checker interprets — with flat table dispatch
instead of per-protocol actors and per-message ``on_<type>`` handler
lookups.

What lives here is strictly *interpreter scaffolding*: the event-loop
plumbing (signals, generators, stall accounting), the wire transport
(payload assembly, message sizes) and the retry queues.  Every protocol
*decision* — when an op may issue, what it emits, when a message may
commit, what a commit does — is executed straight from the table, so the
timed simulator and the checker cannot diverge on them.  The one
exception is Tardis's timed-only lease and timestamp machinery, which
:class:`TardisCorePort` and :class:`TardisDirectory` add on top of the
generic classes.

Timed behaviour is pinned byte-for-byte by the final-state-hash basket
(``tests/test_state_hash.py``); the ``seq<k>`` commit gating and
release-fence draining regressions live in
``tests/protocols/test_seq_divergence.py``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Generator, List, Mapping, Optional, Tuple, Type

from repro.consistency.ops import MemOp, Ordering
from repro.core.directory import CordDirectoryState
from repro.core.processor import CordProcessorState
from repro.interconnect.message import Message
from repro.protocols.base import CorePort, DirectoryNode
from repro.protocols.compile import (
    A_CALL,
    A_CORD_RELAXED,
    A_CORD_RELEASE,
    A_MP_POSTED,
    A_SEQ_STORE,
    A_SO_STORE,
    A_TARDIS_STORE,
    CompiledIssue,
    D_CALL,
    D_NOTIFY,
    D_POSTED,
    D_REL_ACK,
    D_REQ_NOTIFY,
    D_SEQ_FLUSH,
    D_SEQ_FLUSH_ACK,
    D_SEQ_STORE,
    D_SO_ACK,
    D_TARDIS_STORE,
    D_WT_REL,
    D_WT_RLX,
    D_WT_STORE,
    compile_spec,
)
from repro.protocols.spec import (
    TARDIS_LEASE,
    DeliveryContext,
    Emit,
    ProtocolSpec,
    get_spec,
)

__all__ = ["TableCorePort", "TableDirectory", "TardisCorePort",
           "TardisDirectory", "make_table_protocol",
           "table_protocol_classes", "interpreted_tables_enabled",
           "INTERPRETED_ENV"]


#: Environment toggle: run the compiled tables through the original
#: guard/action closures instead of the int-coded fast paths (the
#: compiled-vs-interpreted differential seam; also mixed into the
#: executor's cache key).
INTERPRETED_ENV = "REPRO_INTERPRETED_TABLES"


def interpreted_tables_enabled() -> bool:
    """Whether ``REPRO_INTERPRETED_TABLES`` disables compiled dispatch."""
    return os.environ.get(INTERPRETED_ENV, "").strip().lower() in (
        "1", "true", "yes", "on"
    )


# ---------------------------------------------------------------------------
# Delivery contexts (the spec's adapter surface, timed flavour)
# ---------------------------------------------------------------------------
class _TimedCoreCtx(DeliveryContext):
    """Core-side context: ``core`` is the port itself (it exposes the
    ``_CoreState``-shaped protocol fields the effects mutate)."""

    def __init__(self, port: "TableCorePort") -> None:
        self.core = port

    def wake(self) -> None:
        self.core._wake()


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
        self.node.llc.write_through_commits += 1

    def perform_atomic(self, fields: Mapping[str, Any]) -> None:
        old = self.node.perform_atomic(self.message)
        self.node.respond_atomic(self.message, old)

    def send_core(self, message: str, fields: Mapping[str, Any]) -> None:
        node = self.node
        mspec = node.SPEC.messages[message]
        payload = dict(fields)
        if message == "so_ack":
            # The wire ack names the acknowledged address (transport
            # detail; the table effect carries no protocol fields).
            payload["addr"] = self.message.payload["addr"]
        node.network.send(Message(
            src=node.node_id,
            dst=self.message.src,
            msg_type=mspec.wire_name,
            size_bytes=node.sizes.control_bytes(
                mspec.bit_width(node.machine.config.cord)),
            control=True,
            payload=payload,
        ))

    def send_dir(self, message: str, dst_dir: int,
                 fields: Mapping[str, Any]) -> None:
        node = self.node
        mspec = node.SPEC.messages[message]
        node.network.send(Message(
            src=node.node_id,
            dst=node.machine.directory_id(dst_dir),
            msg_type=mspec.wire_name,
            size_bytes=node.sizes.control_bytes(
                mspec.bit_width(node.machine.config.cord)),
            control=True,
            payload=dict(fields),
        ))

    def ack_release(self, meta: Any) -> None:
        node = self.node
        trace = node.machine.trace
        if trace:
            trace.counter(str(node.node_id),
                          f"committed_epoch.p{meta.proc}",
                          meta.epoch, node.sim.now)
        mspec = node.SPEC.messages["rel_ack"]
        node.network.send(Message(
            src=node.node_id,
            dst=self.message.src,
            msg_type=mspec.wire_name,
            size_bytes=node.sizes.control_bytes(
                mspec.bit_width(node.machine.config.cord)),
            control=True,
            payload={"meta": meta},
        ))

    def seq_committed(self, proc: int) -> int:
        return self.node.board.count(proc)

    def seq_commit(self, proc: int) -> None:
        self.node.board.commit(proc, origin=self.node)


# ---------------------------------------------------------------------------
# The core port
# ---------------------------------------------------------------------------
class TableCorePort(CorePort):
    """Processor side of any rule-complete table.

    The port *is* the protocol-state object the table's guards and
    effects run against: it carries every ``_CoreState``-shaped field
    (``cord``, ``so_outstanding``, ``seq_next``/``seq_watermark``/
    ``seq_outstanding``), exactly like the checker's per-core state."""

    SPEC: ProtocolSpec = None           # bound by make_table_protocol
    SEQ_BITS: Optional[int] = None

    def __init__(self, core) -> None:
        super().__init__(core)
        spec = self.SPEC
        self.cord: Optional[CordProcessorState] = None
        self.so_outstanding = 0
        self.seq_next = 0
        self.seq_watermark = 0
        self.seq_outstanding = 0
        if spec.core_state == "cord":
            self.cord = CordProcessorState(core.core_id, self.config.cord)
            self.state = self.cord      # storage/diagnostics surface
            self.ack_signal = self.sim.signal(f"cord_ack@core{core.core_id}")
            trace = self.machine.trace
            if trace:
                actor, sim = str(self.node), self.sim
                self.cord.on_transition = (
                    lambda name, value: trace.counter(actor, name, value,
                                                      sim.now)
                )
        elif spec.core_state == "so":
            self.ack_signal = self.sim.signal(f"so_ack@core{core.core_id}")
        elif spec.core_state == "seq":
            self.flush_signal = self.sim.signal(
                f"seq_flush@core{core.core_id}")
            self._flush_pending = False
            self._seen_dirs = set()
        # Compiled dispatch: int-coded rows, interned message ids, and
        # per-mid wire constants hoisted off the per-event hot path.
        compiled = compile_spec(spec)
        self._compiled = compiled
        fast = not interpreted_tables_enabled()
        self._fast = fast
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
        # Flat rule dispatch (compiled rows mirror IssueRule's surface).
        self._rule_store_t = compiled.issue.get(("store", True))
        self._rule_store_f = compiled.issue.get(("store", False))
        self._rule_atomic_t = compiled.issue.get(("atomic", True))
        self._rule_atomic_f = compiled.issue.get(("atomic", False))
        self._values_carriers = compiled.values_carriers
        self._barrier_carrier = compiled.barrier_carrier
        mid_of = compiled.msg_id.get
        self._mid_req_notify = mid_of("req_notify")
        self._mid_wt_rel = mid_of("wt_rel")
        self._store_escape_flush = self._rule_store_t.escape == "flush"
        self._source_drain = self._rule_store_t.source_drain
        self._relaxed_combining = self._rule_store_f.combining
        self._relaxed_barrier = self._rule_store_f.escape == "barrier"
        self._wc_enabled = self.wc.enabled
        self._core_ctx = _TimedCoreCtx(self)
        # wire msg_type -> (canonical name, core-side rule, delivery
        # opcode); the shared ``load_resp`` (load and atomic responses) is
        # completed by :meth:`on_message` before this lookup.
        self._core_rules: Dict[str, Tuple[str, Any, int]] = {}
        for row in compiled.core_wire.values():
            wire = self._wire_names[row.mid]
            self._core_rules[wire] = (
                row.name, row.rule, row.op if fast else D_CALL)

    # -- diagnostics surface (machine watchdog reads this by name) --------
    @property
    def outstanding_acks(self) -> int:
        return self.so_outstanding

    @outstanding_acks.setter
    def outstanding_acks(self, value: int) -> None:
        self.so_outstanding = value

    def _wake(self) -> None:
        if self.SPEC.core_state == "seq":
            self._flush_pending = False
            self.flush_signal.trigger()
        else:
            self.ack_signal.trigger()

    # ------------------------------------------------------------------
    # Issue-side interpretation
    # ------------------------------------------------------------------
    def _ordered(self, op: MemOp) -> bool:
        return (op.ordering.is_release
                or self.machine.consistency in ("tso", "sc"))

    def _wait_guard(self, rule: CompiledIssue, dir_index: int) -> Generator:
        """``escape="wait"``: block on the ack signal until the guard
        clears, attributing the stall to the rule's cause."""
        started = self.sim.now
        while True:
            reason = rule.guard(self, dir_index)
            if reason is None:
                break
            if self.cord is not None:
                self.cord.record_stall(reason)
            yield self.ack_signal
        self.stall(rule.stall_cause, self.sim.now - started)

    def _data_bytes(self, mid: int, size: int) -> int:
        cache = self._data_bytes_cache[mid]
        nbytes = cache.get(size)
        if nbytes is None:
            nbytes = cache[size] = self.sizes.data_bytes(
                size, self._msg_bits[mid])
        return nbytes

    def _send_emit(self, emit: Emit, *, addr: int, size: int, value,
                   program_index: int, home_index: int, ordering,
                   values=None, barrier: bool = False) -> None:
        """Wrap one table emission in its wire transport."""
        mid = self._compiled.msg_id[emit.message]
        dst_index = emit.dst_dir if emit.dst_dir is not None else home_index
        if not emit.carries_op:
            self.network.send(Message(
                src=self.node,
                dst=self._dir_ids[dst_index],
                msg_type=self._wire_names[mid],
                size_bytes=self._ctl_bytes[mid],
                control=True,
                payload=dict(emit.fields),
            ))
            return
        payload = {"addr": addr, "value": value, "size": size}
        if emit.message in self._values_carriers:
            payload["values"] = values
        payload["proc"] = self._cid
        payload["program_index"] = program_index
        payload["ordering"] = ordering
        payload.update(emit.fields)
        if emit.message == self._barrier_carrier:
            payload["barrier"] = barrier
        if barrier:
            # §4.4 empty barrier Release: control-class, no data payload.
            size_bytes = self._ctl_bytes[mid]
            control = True
        else:
            size_bytes = self._data_bytes(mid, size)
            control = self._msg_control[mid]
        self.network.send(Message(
            src=self.node,
            dst=self._dir_ids[dst_index],
            msg_type=self._wire_names[mid],
            size_bytes=size_bytes,
            control=control,
            payload=payload,
        ))

    def _issue_and_send(self, rule: CompiledIssue, addr: int, size: int,
                        value, program_index: int, dir_index: int, ordering,
                        values=None, barrier: bool = False) -> None:
        """Run one issue row: mutate protocol state, emit onto the wire.

        The compiled action opcode selects an inline expansion of the
        row's effect (state mutation + payload assembly, byte-identical
        to the closure path); ``A_CALL`` — and interpreted mode — fall
        back to driving ``rule.effects`` through :meth:`_send_emit`.
        """
        aop = rule.action_op if self._fast else A_CALL
        if aop == A_CORD_RELAXED:
            mid = rule.emit_mids[0]
            self.network.send(Message(
                src=self.node,
                dst=self._dir_ids[dir_index],
                msg_type=self._wire_names[mid],
                size_bytes=self._data_bytes(mid, size),
                control=self._msg_control[mid],
                payload={"addr": addr, "value": value, "size": size,
                         "values": values, "proc": self._cid,
                         "program_index": program_index,
                         "ordering": ordering,
                         "meta": self.cord.on_relaxed_store(dir_index)},
            ))
            return
        if aop == A_SO_STORE or aop == A_MP_POSTED:
            if aop == A_SO_STORE:
                self.so_outstanding += 1
            mid = rule.emit_mids[0]
            self.network.send(Message(
                src=self.node,
                dst=self._dir_ids[dir_index],
                msg_type=self._wire_names[mid],
                size_bytes=self._data_bytes(mid, size),
                control=self._msg_control[mid],
                payload={"addr": addr, "value": value, "size": size,
                         "values": values, "proc": self._cid,
                         "program_index": program_index,
                         "ordering": ordering},
            ))
            return
        if aop == A_SEQ_STORE:
            seq = self.seq_next
            self.seq_next = seq + 1
            self.seq_outstanding += 1
            mid = rule.emit_mids[0]
            self.network.send(Message(
                src=self.node,
                dst=self._dir_ids[dir_index],
                msg_type=self._wire_names[mid],
                size_bytes=self._data_bytes(mid, size),
                control=self._msg_control[mid],
                payload={"addr": addr, "value": value, "size": size,
                         "proc": self._cid,
                         "program_index": program_index,
                         "ordering": ordering,
                         "seq": seq, "ordered": rule.ordered},
            ))
            return
        if aop == A_TARDIS_STORE:
            seq = self.seq_next
            self.seq_next = seq + 1
            self.seq_outstanding += 1
            mid = rule.emit_mids[0]
            self.network.send(Message(
                src=self.node,
                dst=self._dir_ids[dir_index],
                msg_type=self._wire_names[mid],
                size_bytes=self._data_bytes(mid, size),
                control=self._msg_control[mid],
                payload={"addr": addr, "value": value, "size": size,
                         "values": values, "proc": self._cid,
                         "program_index": program_index,
                         "ordering": ordering,
                         "seq": seq, "ordered": rule.ordered},
            ))
            self._tardis_note_store(addr, value, values, seq)
            return
        if aop == A_CORD_RELEASE:
            # Alg. 1 lines 5-13: requests-for-notification fan out to
            # pending directories before the Release goes to its home.
            issue = self.cord.on_release_store(dir_index, barrier=barrier)
            rmid = self._mid_req_notify
            for pending_dir, req_meta in issue.notifications:
                self.network.send(Message(
                    src=self.node,
                    dst=self._dir_ids[pending_dir],
                    msg_type=self._wire_names[rmid],
                    size_bytes=self._ctl_bytes[rmid],
                    control=True,
                    payload={"meta": req_meta},
                ))
            mid = self._mid_wt_rel
            if barrier:
                size_bytes = self._ctl_bytes[mid]
                control = True
            else:
                size_bytes = self._data_bytes(mid, size)
                control = self._msg_control[mid]
            self.network.send(Message(
                src=self.node,
                dst=self._dir_ids[dir_index],
                msg_type=self._wire_names[mid],
                size_bytes=size_bytes,
                control=control,
                payload={"addr": addr, "value": value, "size": size,
                         "proc": self._cid,
                         "program_index": program_index,
                         "ordering": ordering,
                         "meta": issue.release, "barrier": barrier},
            ))
            return
        emits = rule.effects(self, dir_index, rule.ordered, barrier=barrier)
        for emit in emits:
            self._send_emit(emit, addr=addr, size=size, value=value,
                            program_index=program_index,
                            home_index=dir_index, ordering=ordering,
                            values=values, barrier=barrier)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def store(self, op: MemOp, program_index: int) -> Generator:
        ordered = op.ordering.is_release or self._always_ordered
        home_index = self.home(op.addr).index
        if self._store_escape_flush:        # SEQ: one path for both classes
            rule = self._rule_store_t if ordered else self._rule_store_f
            yield from self._seq_store(rule, op, program_index, home_index)
        elif ordered:
            yield from self._release_to(op, program_index, home_index)
        elif self._relaxed_combining and self._wc_enabled:
            yield from self.wc_store(op, program_index)
        elif self._relaxed_barrier:
            # Common case first: the guard is pure, so probing it costs
            # nothing and the non-stalling store (the overwhelming
            # majority) skips a nested generator per issue.
            rule = self._rule_store_f
            if rule.guard(self, home_index) is None:
                self._issue_and_send(rule, op.addr, op.size, op.value,
                                     program_index, home_index,
                                     Ordering.RELAXED)
            else:
                yield from self._emit_relaxed_to(
                    op.addr, op.size, op.value, program_index, home_index)
        else:
            self._issue_and_send(self._rule_store_f, op.addr, op.size,
                                 op.value, program_index, home_index,
                                 op.ordering)

    def _release_to(self, op: MemOp, program_index: int, dir_index: int,
                    barrier: bool = False) -> Generator:
        """The ordered-store row: guard-wait, then emit (fire-and-forget).

        A ``source_drain`` row (``cord-nonotify``) first drains every
        other pending directory at the source, so the Release has nothing
        left to request notifications for."""
        rule = self._rule_store_t
        if not barrier:
            if self._source_drain:
                pending = self.cord.pending_directories(exclude=dir_index)
                if pending:
                    started = self.sim.now
                    yield from self._barrier_broadcast(pending,
                                                       program_index)
                    self.stall("cross_dir_drain", self.sim.now - started)
            yield from self.wc_flush()      # a Release orders buffered stores
        yield from self._wait_guard(rule, dir_index)
        self._issue_and_send(rule, op.addr, op.size, op.value, program_index,
                             dir_index, op.ordering, barrier=barrier)

    def _emit_relaxed_to(self, addr: int, size: int, value,
                         program_index: int, dir_index: int,
                         values=None) -> Generator:
        """Relaxed row with the ``"barrier"`` escape (CORD §4.4): clear the
        rare stall conditions by injecting empty barrier Releases."""
        rule = self._rule_store_f
        while True:
            reason = rule.guard(self, dir_index)
            if reason is None:
                break
            self.cord.record_stall(reason)
            yield from self._barrier_release(dir_index, program_index)
        self._issue_and_send(rule, addr, size, value, program_index,
                             dir_index, Ordering.RELAXED, values=values)

    def _emit_relaxed(self, write, program_index: int) -> Generator:
        rule = self._rule_store_f
        dir_index = self.home(write.addr).index
        if rule.escape == "barrier":
            yield from self._emit_relaxed_to(
                write.addr, write.size, write.value, program_index,
                dir_index, values=write.values)
        else:
            self._issue_and_send(rule, write.addr, write.size, write.value,
                                 program_index, dir_index, Ordering.RELAXED,
                                 values=write.values)

    def _barrier_broadcast(self, pending: List[int],
                           program_index: int) -> Generator:
        """Send one empty barrier Release (§4.4) to each ``pending``
        directory, then wait until all of them are acknowledged.

        Returns the time the last barrier issued (the fence accounts its
        stall from there)."""
        issued: List[Tuple[int, int]] = []
        for dir_index in pending:
            epoch = self.cord.epoch.value
            fake = MemOp.release_store(addr=0, value=None, size=0)
            yield from self._release_to(fake, program_index, dir_index,
                                        barrier=True)
            issued.append((dir_index, epoch))
        issued_at = self.sim.now
        while any(key in self.cord.unacked for key in issued):
            yield self.ack_signal
        return issued_at

    def _barrier_release(self, dir_index: int,
                         program_index: int) -> Generator:
        """An empty directory-ordered Release (§4.4), then wait for its
        acknowledgment so the stall condition is guaranteed to clear."""
        epoch = self.cord.epoch.value
        fake = MemOp.release_store(addr=0, value=None, size=0)
        yield from self._release_to(fake, program_index, dir_index,
                                    barrier=True)
        started = self.sim.now
        while (dir_index, epoch) in self.cord.unacked:
            yield self.ack_signal
        self.stall("barrier_ack", self.sim.now - started)

    # ------------------------------------------------------------------
    # SEQ issue path (escape="flush")
    # ------------------------------------------------------------------
    def _seq_store(self, rule: CompiledIssue, op: MemOp, program_index: int,
                   home_index: int) -> Generator:
        yield from self._seq_window(rule, home_index)
        self._issue_and_send(rule, op.addr, op.size, op.value,
                             program_index, home_index, op.ordering)

    def _seq_window(self, rule: CompiledIssue, home_index: int) -> Generator:
        """Note the op's home as a directory a later flush must ask, and
        flush first if the op would overrun the sequence window."""
        self._seen_dirs.add(home_index)
        guard = rule.timed_guard or rule.guard
        if guard(self, home_index) is not None:
            yield from self._flush(rule.stall_cause)

    def _flush(self, cause: str) -> Generator:
        """Stall until the directories confirm all prior seqs committed."""
        started = self.sim.now
        self._flush_pending = True
        bits = self.SPEC.seq_bits
        for dir_index in sorted(self._seen_dirs):
            self.network.send(Message(
                src=self.node,
                dst=self.machine.directory_id(dir_index),
                msg_type="seq_flush",
                size_bytes=self.sizes.control_bytes(bits),
                control=True,
                payload={"proc": self.core.core_id, "upto": self.seq_next},
            ))
        while self._flush_pending:
            yield self.flush_signal
        self.stall(cause, self.sim.now - started)

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------
    def atomic(self, op: MemOp, program_index: int) -> Generator:
        yield from self.wc_flush()          # RMWs never bypass buffered stores
        ordered = self._ordered(op)
        rule = self._rule_atomic_t if ordered else self._rule_atomic_f
        home_index = self.home(op.addr).index
        if rule.escape == "wait" and ordered:
            yield from self._wait_guard(rule, home_index)
        elif rule.escape == "barrier":
            while True:
                reason = rule.guard(self, home_index)
                if reason is None:
                    break
                self.cord.record_stall(reason)
                yield from self._barrier_release(home_index, program_index)
        elif rule.escape == "flush":
            yield from self._seq_window(rule, home_index)
        emits = rule.effects(self, home_index, ordered)
        last = emits[-1]
        if last.message == "atomic":
            meta = last.fields.get("meta")
            if meta is not None:            # CORD Relaxed RMW metadata
                op.meta["cord_meta"] = meta
            seq = last.fields.get("seq")
            bits = 0
            if seq is not None:             # SEQ/Tardis: RMW rides the seq chain
                op.meta["seq"] = seq
                bits = self._msg_bits[self._compiled.msg_id["atomic"]]
            old = yield from self._atomic_round_trip(op, program_index,
                                                     metadata_bits=bits)
            return old
        # Release-ordered RMW through the ordered-store carrier (CORD):
        # the directory performs the RMW when the Release commits and
        # returns the old value with the acknowledgment.
        for emit in emits[:-1]:
            self._send_emit(emit, addr=op.addr, size=op.size, value=op.value,
                            program_index=program_index,
                            home_index=home_index, ordering=op.ordering)
        mspec = self.SPEC.messages[last.message]
        req_id = self._next_req
        self._next_req += 1
        signal = self.sim.signal(f"rel_atomic{req_id}@core{self.core.core_id}")
        self._load_waiters[req_id] = signal
        payload = {
            "addr": op.addr,
            "value": op.value,
            "size": op.size,
            "proc": self.core.core_id,
            "program_index": program_index,
            "ordering": op.ordering,
        }
        payload.update(last.fields)
        payload["atomic"] = op.meta["atomic"]
        payload["compare"] = op.meta.get("compare")
        payload["req_id"] = req_id
        self.network.send(Message(
            src=self.node,
            dst=self.machine.directory_id(home_index),
            msg_type=mspec.wire_name,
            size_bytes=self.sizes.data_bytes(
                op.size, mspec.bit_width(self.config.cord)),
            control=False,
            payload=payload,
        ))
        old = yield signal
        return old

    # ------------------------------------------------------------------
    # Fences / drains
    # ------------------------------------------------------------------
    def fence(self, op: MemOp, program_index: int) -> Generator:
        fr = self.SPEC.fence
        if not op.ordering.is_release and not fr.timed_drain_on_acquire:
            return                          # acquire barriers are free (§4.4)
        yield from self._drain(program_index)

    def drain(self) -> Generator:
        yield from self._drain(-1)

    def _drain(self, program_index: int) -> Generator:
        fr = self.SPEC.fence
        if fr.timed_drain == "barriers":
            # CORD §4.4: broadcast empty barrier Releases to every pending
            # directory, then wait for their acknowledgments.
            yield from self.wc_flush()
            issued_at = yield from self._barrier_broadcast(
                self.cord.pending_directories(), program_index)
            self.stall(fr.stall_cause, self.sim.now - issued_at)
        elif fr.timed_drain == "flush":
            # SEQ: a release fence must not complete with uncommitted
            # sequence numbers outstanding (the checker gates on
            # seq_outstanding == 0).
            if self.seq_next > self.seq_watermark:
                yield from self._flush(fr.stall_cause)
        elif fr.timed_drain == "none":
            # MP posted writes: nothing is ever outstanding and ordering
            # comes entirely from the channel FIFO, so a release fence is
            # a pure no-op — it does not flush the write-combining buffer
            # either.
            return
        else:                               # "acks"
            yield from self.wc_flush()
            started = self.sim.now
            while not fr.done(self):
                yield self.ack_signal
            self.stall(fr.stall_cause, self.sim.now - started)

    def sc_load_barrier(self) -> Generator:
        fr = self.SPEC.fence
        if fr.barrier_broadcast:
            # SC store->load ordering under CORD: every store is already
            # Release-ordered and acknowledged, so a load only waits for
            # the epoch table to drain — no extra messages.
            started = self.sim.now
            while not fr.done(self):
                yield self.ack_signal
            self.stall("sc_load_order", self.sim.now - started)
        else:
            yield from self.drain()

    # ------------------------------------------------------------------
    # Responses (flat table dispatch)
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        msg_type = message.msg_type
        if msg_type == "load_resp":
            self._complete_load(message)
            return
        entry = self._core_rules.get(msg_type)
        if entry is None:
            return
        name, rule, dop = entry
        if dop == D_REL_ACK:
            self.cord.on_release_ack(message.src.index,
                                     message.payload["meta"].epoch)
            self.ack_signal.trigger()
            return
        if dop == D_SO_ACK:
            self.so_outstanding -= 1
            if self.so_outstanding == 0:
                self.ack_signal.trigger()
            return
        if dop == D_SEQ_FLUSH_ACK:
            if not self._flush_pending:
                return  # stale ack from a multi-directory flush broadcast
            self.seq_watermark = self.seq_next
            self._flush_pending = False
            self.flush_signal.trigger()
            return
        if name == "rel_ack":
            fields = {"dir": message.src.index,
                      "epoch": message.payload["meta"].epoch}
        elif name == "seq_flush_ack":
            if not self._flush_pending:
                return  # stale ack from a multi-directory flush broadcast
            fields = message.payload
        else:
            fields = message.payload
        rule.effects(self._core_ctx, fields)


class TardisCorePort(TableCorePort):
    """Tardis processor side: the table's rows plus the timed-only lease
    cache, read-own-write forwarding and logical clock (Tardis 2.0,
    PAPERS.md).

    :func:`make_table_protocol` binds this subclass for
    ``core_state == "tardis"``, so no shared method tests for Tardis.
    Overrides reach the base methods through ``super()``."""

    def __init__(self, core) -> None:
        super().__init__(core)
        self.ack_signal = self.sim.signal(f"tardis_ack@core{core.core_id}")
        # Per-proc logical clocks (pts) live on the machine-global commit
        # board: directory-side commits raise the issuing core's clock
        # without an extra ack message.
        self.board = self.machine.seq_board()
        # addr -> (value, rts): leased read-only copies, readable while
        # rts >= this core's pts.
        self._tardis_lease: Dict[int, Tuple[Any, int]] = {}
        # addr -> (value, seq): own stores still in flight, for
        # read-own-write forwarding (dropped once committed).
        self._tardis_fwd: Dict[int, Tuple[Any, int]] = {}
        self._tardis_resp_ts: Optional[Tuple[int, int]] = None
        self._lease_hits = self.machine.stats.counter("tardis.lease_hits")
        self._lease_misses = self.machine.stats.counter(
            "tardis.lease_misses")

    def _tardis_note_store(self, addr: int, value, values,
                           seq: int) -> None:
        """Issue-side Tardis bookkeeping: an own store supersedes any
        lease on its line(s) and enters the read-own-write forward map
        until the directory commits it (the board count passes ``seq``)."""
        lease, fwd = self._tardis_lease, self._tardis_fwd
        if values:
            for a, v in values.items():
                lease.pop(a, None)
                fwd[a] = (v, seq)
        else:
            lease.pop(addr, None)
            fwd[addr] = (value, seq)

    def _send_emit(self, emit: Emit, *, addr: int, size: int, value,
                   program_index: int, home_index: int, ordering,
                   values=None, barrier: bool = False) -> None:
        super()._send_emit(emit, addr=addr, size=size, value=value,
                           program_index=program_index,
                           home_index=home_index, ordering=ordering,
                           values=values, barrier=barrier)
        if emit.message == "tardis_store":
            # Interpreted mode: same lease/forward bookkeeping as the
            # A_TARDIS_STORE fast path, keyed by the emitted seq.
            self._tardis_note_store(addr, value, values, emit.fields["seq"])

    # ------------------------------------------------------------------
    # Loads (leases)
    # ------------------------------------------------------------------
    def load(self, op: MemOp, program_index: int) -> Generator:
        lease = self._tardis_lease
        if self.machine.consistency == "sc":
            yield from self.sc_load_barrier()
        if self._wc_enabled:
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
    """Directory side of any rule-complete table.

    Messages with a delivery guard and a retry queue are buffered
    ("recycled", Alg. 2) and re-evaluated by :meth:`_progress`;
    everything else is applied immediately through the table's effect."""

    SPEC: ProtocolSpec = None           # bound by make_table_protocol

    def __init__(self, machine, node_id) -> None:
        super().__init__(machine, node_id)
        spec = self.SPEC
        self.state: Optional[CordDirectoryState] = None
        if spec.core_state == "cord":
            self.state = CordDirectoryState(
                node_id.index, machine.config.total_cores,
                machine.config.cord)
        self.board = None
        if spec.core_state in ("seq", "tardis"):
            # Machine-global committed counts (per-directory counts
            # deadlock cross-directory releases).
            self.board = machine.seq_board()
            self.board.subscribe(self, self._progress)
        self._retry: Dict[str, List[Message]] = {
            name: [] for name in spec.retry_order
        }
        self._buffered_total = 0
        # Compiled dispatch mirrors the core port: per-mid wire constants
        # and delivery opcodes replace the per-message name lookups.
        compiled = compile_spec(spec)
        self._compiled = compiled
        fast = not interpreted_tables_enabled()
        cord_cfg = machine.config.cord
        msgs = compiled.messages
        self._wire_names = tuple(m.wire_name for m in msgs)
        self._dir_ctl_bytes = tuple(
            self.sizes.control_bytes(m.bit_width(cord_cfg)) for m in msgs)
        self._wire_rules: Dict[str, Tuple[str, Any, int]] = {}
        for row in compiled.dir_wire.values():
            self._wire_rules[self._wire_names[row.mid]] = (
                row.name, row.rule, row.op if fast else D_CALL)
        self._retry_rows: Tuple[Tuple[str, Any, int], ...] = tuple(
            (name,
             spec.delivery[name],
             compiled.dir_wire[
                 self._wire_names[compiled.msg_id[name]]].op
             if fast else D_CALL)
            for name in spec.retry_order
        )

        def _reply_wire(name: str):
            mid = compiled.msg_id.get(name)
            if mid is None:
                return None
            return (self._wire_names[mid], self._dir_ctl_bytes[mid])

        self._so_ack_wire = _reply_wire("so_ack")
        self._rel_ack_wire = _reply_wire("rel_ack")
        self._notify_wire = _reply_wire("notify")
        self._flush_ack_wire = _reply_wire("seq_flush_ack")
        self._progress_kinds = frozenset(spec.progress_on)
        # Handlers for messages outside the table (the shared load round
        # trip, and atomics for specs without an ``atomic`` delivery row),
        # bound once here rather than resolved per delivery.
        self._requests: Dict[str, Any] = {
            "load_req": self.on_load_req,
            "atomic_req": self.on_atomic_req,
        }

    def _fields(self, name: str, message: Message) -> Mapping[str, Any]:
        payload = message.payload
        if name in ("seq_store", "seq_flush", "tardis_store", "atomic"):
            # The wire names the issuing core "proc"; the table reads the
            # checker's canonical "core".
            fields = dict(payload)
            fields["core"] = payload["proc"]
            return fields
        return payload

    def _process(self, message: Message) -> None:
        entry = self._wire_rules.get(message.msg_type)
        if entry is None:
            handler = self._requests.get(message.msg_type)
            if handler is None:
                super()._process(message)   # names the missing handler
                return
            handler(message)
            return
        name, rule, dop = entry
        if name in self._retry:
            self._retry[name].append(message)
            self._buffered_total += 1
            self._progress()
            return
        if dop == D_WT_RLX:
            self.commit_store(message)
            self.state.on_relaxed(message.payload["meta"])
        elif dop == D_WT_STORE:
            self.commit_store(message)
            wire, nbytes = self._so_ack_wire
            self.network.send(Message(
                src=self.node_id,
                dst=message.src,
                msg_type=wire,
                size_bytes=nbytes,
                control=True,
                payload={"addr": message.payload["addr"]},
            ))
        elif dop == D_POSTED:
            self.commit_store(message)
        elif dop == D_NOTIFY:
            self.state.on_notify(message.payload["meta"])
        else:
            rule.effects(_TimedDirCtx(self, message),
                         self._fields(name, message))
        if name in self._progress_kinds and self._retry:
            self._progress()

    def _progress(self) -> None:
        """Re-evaluate the retry queues until a full sweep changes
        nothing (Alg. 2 "Retry later").

        Retry rows run through their delivery opcodes (guard + effect
        inlined, byte-identical to the closure path); ``D_CALL`` rows and
        interpreted mode take the generic context path.  When nothing is
        buffered and no trace is attached the sweep is skipped outright —
        the overwhelmingly common case on commit-heavy workloads.
        """
        if self._buffered_total == 0 and self.machine.trace is None:
            return
        retry = self._retry
        changed = True
        while changed:
            changed = False
            for name, rule, dop in self._retry_rows:
                queue = retry[name]
                if not queue:
                    continue
                if dop == D_WT_REL:
                    state = self.state
                    for message in list(queue):
                        meta = message.payload["meta"]
                        if state.release_block_reason(meta) is not None:
                            continue
                        queue.remove(message)
                        state.commit_release(meta)
                        if "atomic" in message.payload:
                            old = self.perform_atomic(message)
                            self.respond_atomic(message, old)
                        elif meta.barrier:
                            # §4.4 escape / fence barrier: no value.
                            self.llc.write_through_commits += 1
                        else:
                            self.commit_store(message)
                        trace = self.machine.trace
                        if trace:
                            trace.counter(str(self.node_id),
                                          f"committed_epoch.p{meta.proc}",
                                          meta.epoch, self.sim.now)
                        wire, nbytes = self._rel_ack_wire
                        self.network.send(Message(
                            src=self.node_id,
                            dst=message.src,
                            msg_type=wire,
                            size_bytes=nbytes,
                            control=True,
                            payload={"meta": meta},
                        ))
                        changed = True
                elif dop == D_REQ_NOTIFY:
                    state = self.state
                    for message in list(queue):
                        meta = message.payload["meta"]
                        if state.req_notify_block_reason(meta) is not None:
                            continue
                        queue.remove(message)
                        notify = state.consume_req_notify(meta)
                        wire, nbytes = self._notify_wire
                        self.network.send(Message(
                            src=self.node_id,
                            dst=self.machine.directory_id(meta.noti_dst),
                            msg_type=wire,
                            size_bytes=nbytes,
                            control=True,
                            payload={"meta": notify},
                        ))
                        changed = True
                elif dop == D_SEQ_STORE:
                    board = self.board
                    for message in list(queue):
                        payload = message.payload
                        proc = payload["proc"]
                        if (payload["ordered"]
                                and board.count(proc) < payload["seq"]):
                            continue
                        queue.remove(message)
                        self.commit_store(message)
                        board.commit(proc, origin=self)
                        changed = True
                elif dop == D_TARDIS_STORE:
                    board = self.board
                    for message in list(queue):
                        payload = message.payload
                        proc = payload["proc"]
                        if board.count(proc) < payload["seq"]:
                            continue    # strict per-core in-order commit
                        queue.remove(message)
                        self.commit_store(message)
                        board.commit(proc, origin=self)
                        changed = True
                elif dop == D_SEQ_FLUSH:
                    board = self.board
                    for message in list(queue):
                        payload = message.payload
                        if board.count(payload["proc"]) < payload["upto"]:
                            continue
                        queue.remove(message)
                        wire, nbytes = self._flush_ack_wire
                        self.network.send(Message(
                            src=self.node_id,
                            dst=message.src,
                            msg_type=wire,
                            size_bytes=nbytes,
                            control=True,
                            payload={},
                        ))
                        changed = True
                else:
                    for message in list(queue):
                        ctx = _TimedDirCtx(self, message)
                        fields = self._fields(name, message)
                        if rule.enabled(ctx, fields):
                            queue.remove(message)
                            rule.effects(ctx, fields)
                            changed = True
        total = 0
        for q in retry.values():
            total += len(q)
        self._buffered_total = total
        self.track_buffered(total)


class TardisDirectory(TableDirectory):
    """Tardis directory side: the table's rows plus per-line timestamps —
    write-ts and read-lease end, both directory-resident (no sharer
    lists, no invalidations).

    :func:`make_table_protocol` binds this subclass for
    ``core_state == "tardis"``; the commit, RMW and load hooks below
    extend the base ones through ``super()``."""

    def __init__(self, machine, node_id) -> None:
        super().__init__(machine, node_id)
        self._tardis_wts: Dict[int, int] = {}
        self._tardis_rts: Dict[int, int] = {}
        self._lease_resp_bits = self.SPEC.messages["load_resp"].bit_width(
            machine.config.cord)

    def commit_store(self, message: Message) -> None:
        super().commit_store(message)
        # Commit point: the write lands strictly after every granted
        # lease (max over rts) and after everything the writer has
        # observed (max over its pts) — §Tardis write rule.
        payload = message.payload
        proc = payload["proc"]
        wts_map, rts_map = self._tardis_wts, self._tardis_rts
        board = self.board
        ts = board.pts(proc)
        values = payload.get("values")
        for addr in (values if values else (payload["addr"],)):
            ts = max(wts_map.get(addr, 0), rts_map.get(addr, 0), ts) + 1
            wts_map[addr] = ts
            rts_map[addr] = ts
        board.bump_pts(proc, ts)

    def perform_atomic(self, message: Message) -> int:
        old = super().perform_atomic(message)
        payload = message.payload
        addr = payload["addr"]
        proc = payload["proc"]
        ts = max(self._tardis_wts.get(addr, 0), self._tardis_rts.get(addr, 0),
                 self.board.pts(proc)) + 1
        self._tardis_wts[addr] = ts
        self._tardis_rts[addr] = ts
        # Bumping the issuer's pts here (before the response leaves)
        # threads causality through RMW chains without carrying any
        # timestamp in the atomic response.
        self.board.bump_pts(proc, ts)
        return old

    def on_load_req(self, message: Message) -> None:
        # Lease grant: extend the line's read end-time and ship
        # (value, wts, rts) back — two extra timestamps on the wire.
        payload = message.payload
        addr = payload["addr"]
        self.llc.read_line(addr)
        wts = self._tardis_wts.get(addr, 0)
        rts = max(self._tardis_rts.get(addr, 0), wts + TARDIS_LEASE)
        self._tardis_rts[addr] = rts
        size = payload.get("size", 8)
        nbytes = self._load_resp_bytes.get(size)
        if nbytes is None:
            nbytes = self._load_resp_bytes[size] = self.sizes.data_bytes(
                size, self._lease_resp_bits)
        self.network.send(Message(
            src=self.node_id,
            dst=message.src,
            msg_type="load_resp",
            size_bytes=nbytes,
            control=False,
            payload={
                "req_id": payload["req_id"],
                "value": self.read_value(addr),
                "addr": addr,
                "wts": wts,
                "rts": rts,
            },
        ))


# ---------------------------------------------------------------------------
# Class factory
# ---------------------------------------------------------------------------
_CLASS_CACHE: Dict[str, Tuple[Type[TableCorePort], Type[TableDirectory]]] = {}


def make_table_protocol(
    spec: ProtocolSpec,
) -> Tuple[Type[TableCorePort], Type[TableDirectory]]:
    """Build (core port, directory) classes interpreting ``spec``."""
    cached = _CLASS_CACHE.get(spec.name)
    if cached is not None:
        return cached
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
    if spec.core_state == "tardis":
        port_base, dir_base = TardisCorePort, TardisDirectory
    else:
        port_base, dir_base = TableCorePort, TableDirectory
    title = spec.name.replace("-", " ").title().replace(" ", "")
    port_cls = type(f"Table{title}CorePort", (port_base,),
                    {"SPEC": spec, "SEQ_BITS": spec.seq_bits})
    dir_cls = type(f"Table{title}Directory", (dir_base,),
                   {"SPEC": spec})
    _CLASS_CACHE[spec.name] = (port_cls, dir_cls)
    return port_cls, dir_cls


def table_protocol_classes(
    name: str,
) -> Tuple[Type[TableCorePort], Type[TableDirectory]]:
    """Resolve a protocol name to its table-driven actor classes."""
    return make_table_protocol(get_spec(name))
