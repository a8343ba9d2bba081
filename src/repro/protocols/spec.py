"""One declarative protocol spec, two interpreters.

Every protocol used to exist twice: as a timed coroutine actor in
:mod:`repro.protocols` and as an untimed operational model hard-coded into
:mod:`repro.litmus.model_checker`, and the duplication bred real
divergence bugs.  This module is the fix, following the shape of the
Edinburgh lazy-coherence verification work (Banks et al.) and BedRock:
each protocol is a *transition table* — state-predicate guards,
state-update actions and emitted messages, with an explicit FIFO/ordering
class per message type — and both the timed simulator
(:mod:`repro.protocols.table`) and the model checker interpret the *same*
table object.

Row schema
----------
* :class:`MessageSpec` — one wire message type: canonical (checker) name,
  timed wire name, FIFO/ordering class, control-vs-data wire class,
  metadata bit-width (the traffic model), and the structural flags the
  checker derives its ample (partial-order reduction) and
  read-own-write-forwarding sets from.
* :class:`IssueRule` — one processor-side row, keyed ``(op_class,
  ordered)``: a *guard* (why the op may not issue now, ``None`` = may
  issue), an *escape* describing what an interpreter does about a failing
  guard (``"wait"``: block until state changes; ``"barrier"``: inject a
  CORD §4.4 empty Release; ``"flush"``: SEQ's watermark flush — timed
  side only), and *effects* that mutate the core's protocol state and
  return the emitted messages.
* :class:`FenceRule` — release-fence semantics: a completion predicate
  over core state plus the CORD two-phase barrier-broadcast flag.
* :class:`DeliveryRule` — one directory/core-side row: a guard (may this
  message be consumed now?  failing guards buffer the message — the
  paper's "retry later") and effects applied through a small adapter
  (:class:`DeliveryContext`) each interpreter implements.

Guard/action semantics
----------------------
Guards and effects are *pure functions over the shared protocol state*:
they operate on any object exposing the ``_CoreState``-shaped fields
(``cord``, ``so_outstanding``, ``seq_next``, ``seq_outstanding``) and on
the shared :class:`~repro.core.processor.CordProcessorState` /
:class:`~repro.core.directory.CordDirectoryState` machines.  The checker
passes its ``_CoreState`` and the timed interpreter passes its
port-state twin — both execute the very same callables, so a divergence
in guard or commit logic is structurally impossible.  Scaffolding that is
inherently per-interpreter (event loops, stall accounting, wire payload
transport fields) stays in the interpreters; every protocol *decision*
lives here.

Ordering classes
----------------
:class:`FifoClass` materializes the checker's three FIFO schemes
(per-location, per-pair, unordered) as a declared property of each
message type; :meth:`FifoClass.key` derives the concrete ``fifo_class``
tuple the checker attaches to an in-flight message, from the table of
the core that sent it.  A new message type therefore cannot silently
land in the wrong class.

Registry
--------
``_NAMED_SPECS`` plus the ``seq<k>`` family is the one list of protocols:
:func:`available_protocols`, :func:`checkable_protocols` and
:func:`validate_checkable_protocol` are computed from it and from the one
declaration of the timed-only tables beside it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.processor import StallReason

__all__ = [
    "FifoClass",
    "MessageSpec",
    "Emit",
    "IssueRule",
    "FenceRule",
    "DeliveryRule",
    "DeliveryContext",
    "ProtocolSpec",
    "get_spec",
    "named_protocols",
    "available_protocols",
    "checkable_protocols",
    "validate_checkable_protocol",
    "parse_seq_bits",
    "has_spec",
    "cord_barrier_batch_reason",
    "lint_spec",
    "LintError",
]


# ---------------------------------------------------------------------------
# Ordering classes
# ---------------------------------------------------------------------------
class FifoClass(enum.Enum):
    """Network ordering class of a message type (model-checker semantics).

    * ``PER_LOCATION`` — one core's messages to one *address* stay in
      send order (``("addr", core, addr)``): per-location coherence for
      store/atomic carriers.  Address-less instances (CORD barrier
      Releases) degrade to unordered.
    * ``PER_PAIR`` — FIFO per source-destination pair ``(core, dst_dir)``:
      MP's posted-write channel (§3.2).
    * ``NONE`` — adversarial/unordered: acks, notifications, responses.
    """

    PER_LOCATION = "per-location"
    PER_PAIR = "per-pair"
    NONE = "unordered"

    def key(self, core: Optional[int] = None, addr: Optional[int] = None,
            dst_dir: Optional[int] = None) -> Optional[Tuple[Any, ...]]:
        """The concrete ``_Msg.fifo_class`` tuple for one send."""
        if self is FifoClass.NONE:
            return None
        if self is FifoClass.PER_LOCATION:
            if addr is None:        # address-less barrier Release
                return None
            return ("addr", core, addr)
        return (core, dst_dir)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MessageSpec:
    """One message type: ordering class, wire class, bit-width, consumers.

    ``name`` is the canonical (checker) kind; ``timed_name`` is the wire
    ``msg_type`` the timed simulator uses when the two historically
    differ (``so_ack``/``wt_ack``, ``atomic``/``atomic_req``,
    ``atomic_resp``/``load_resp``).  ``bits`` maps a
    :class:`~repro.config.CordConfig` to the metadata bit-width charged
    on the wire (the traffic model); ``None`` charges no metadata.
    ``ample``/``forwards_store`` feed the checker's derived POR and
    read-own-write sets.  Some messages exist on the timed wire only (the
    checker models SEQ flushes as issue-side blocking, and its loads read
    directory state directly); the checker never sends them.
    """

    name: str
    fifo: FifoClass
    control: bool
    consumer: str                       # "directory" | "core"
    timed_name: Optional[str] = None
    bits: Optional[Callable[[Any], int]] = None
    ample: bool = False
    forwards_store: bool = False
    #: This message is the carrier of barrier (address-less) Releases.
    #: Exactly one message per barrier-broadcasting spec declares it; the
    #: timed interpreter derives its control-sized barrier wire class from
    #: this flag instead of assuming the ordered-store row's *last* emit
    #: (an unenforced ordering assumption — see ``lint_spec``).
    barrier_carrier: bool = False

    @property
    def wire_name(self) -> str:
        return self.timed_name or self.name

    def bit_width(self, cord_config: Any) -> int:
        return self.bits(cord_config) if self.bits is not None else 0


# ---------------------------------------------------------------------------
# Issue side (processor)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Emit:
    """One message emission produced by an issue effect.

    ``fields`` holds only the *protocol* fields (metadata, sequence
    numbers, flags); the interpreter adds its transport fields (address,
    value, issuing core, program position, wire sizes)."""

    message: str
    fields: Dict[str, Any] = field(default_factory=dict)
    #: Destination directory when it differs from the op's home (CORD
    #: requests-for-notification fan out to *pending* directories).
    dst_dir: Optional[int] = None
    #: Whether the emission carries the op's address/value payload (and
    #: therefore its per-location FIFO key); ``False`` for side-channel
    #: control messages like ``req_notify``.
    carries_op: bool = True


@dataclass(frozen=True)
class IssueRule:
    """One processor-side table row, keyed ``(op_class, ordered)``.

    ``guard(ps, home)`` returns ``None`` when the op may issue, else the
    reason (a :class:`~repro.core.processor.StallReason` or a plain
    label).  ``escape`` says what a failing guard means:

    * ``"wait"`` — the op blocks until other transitions clear the guard
      (checker: the core action is disabled; timed: wait on the
      protocol's ack signal, accounting ``stall_cause``);
    * ``"barrier"`` — CORD's §4.4 hatch: inject an empty *barrier*
      Release (via the ``("store", True)`` row) and retry;
    * ``"flush"`` — SEQ's watermark flush protocol.  Timed-side only:
      the checker's guard *is* the window bound, so the core action is
      simply disabled until commits drain (``timed_guard`` carries the
      watermark form the timed interpreter checks instead).

    ``effects(ps, home, ordered, barrier)`` mutates the core's protocol
    state and returns the ordered list of :class:`Emit`.
    """

    name: str
    op_class: str                       # "store" | "atomic"
    ordered: bool
    guard: Callable[[Any, int], Optional[Any]]
    escape: str                         # "wait" | "barrier" | "flush" | "none"
    stall_cause: str
    effects: Callable[..., List[Emit]]
    #: Timed-interpreter guard override (SEQ's issued-since-flush
    #: watermark vs the checker's uncommitted-window bound — both keep
    #: the wire window unambiguous; the timed form matches the paper's
    #: flush-every-2^k behaviour measured in Fig. 10).
    timed_guard: Optional[Callable[[Any, int], Optional[Any]]] = None
    #: For ``escape="barrier"`` rows only: the predicate that decides
    #: whether the *escape itself* may fire.  CORD's barrier Release does
    #: not source-order against outstanding SO-style stores (the barrier
    #: carries no data), so its enabling condition is strictly the §4.3
    #: Release-table bound — narrower than ``("store", True)``'s guard.
    escape_guard: Optional[Callable[[Any, int], Optional[Any]]] = None
    #: Write-combining: Relaxed stores route through the combining
    #: buffer; ordered ops flush it first.
    combining: bool = False
    #: Ordered-store rows only, timed side: before the op issues, drain
    #: every *other* directory with pending epoch state through
    #: acknowledged barrier Releases (source ordering across
    #: directories, the ``cord-nonotify`` ablation of §4.2's
    #: notifications).  Barrier Releases themselves never drain.
    source_drain: bool = False


@dataclass(frozen=True)
class FenceRule:
    """Release-fence semantics (acquire fences are free in the model).

    ``done(ps)`` is the completion predicate both interpreters wait on.
    ``barrier_broadcast`` selects CORD's two-phase §4.4 behaviour:
    broadcast empty barrier Releases to every pending directory, then
    wait for their acknowledgments.  ``timed_drain`` names the timed
    interpreter's drain mechanism (``"acks"``: wait for the ack counter;
    ``"barriers"``: CORD's broadcast; ``"flush"``: SEQ's flush protocol)
    and ``timed_drain_on_acquire`` keeps SO's timed conservatism of
    draining on *any* fence — outcome-invariant, timing-visible.
    """

    done: Callable[[Any], bool]
    barrier_broadcast: bool = False
    timed_drain: str = "acks"
    stall_cause: str = "fence_ack"
    timed_drain_on_acquire: bool = False


# ---------------------------------------------------------------------------
# Delivery side (directory / core)
# ---------------------------------------------------------------------------
class DeliveryContext:
    """Adapter surface a delivery effect runs against.

    The checker backs this with ``_State`` mutations (events list, value
    maps, ``seq_committed``) and the timed interpreter with the live
    actors (``commit_store``, network sends, the SEQ commit board) — the
    *rule* decides what happens; the context only says how.
    """

    dir_state: Any = None               # CordDirectoryState or None
    #: Core-side contexts: the protocol-state block of the *receiving*
    #: core (``so_outstanding``/``cord``/``seq_watermark`` fields).
    core: Any = None

    def commit(self, fields: Mapping[str, Any]) -> None:
        """Make the carried store visible (value map + history event)."""
        raise NotImplementedError

    def commit_barrier(self) -> None:
        """An address-less barrier Release commits no value."""
        raise NotImplementedError

    def perform_atomic(self, fields: Mapping[str, Any]) -> None:
        """RMW at the commit point; respond to the issuing core."""
        raise NotImplementedError

    def send_core(self, message: str, fields: Mapping[str, Any]) -> None:
        """Reply to the issuing core."""
        raise NotImplementedError

    def send_dir(self, message: str, dst_dir: int,
                 fields: Mapping[str, Any]) -> None:
        """Forward to another directory (CORD notifications)."""
        raise NotImplementedError

    def ack_release(self, meta: Any) -> None:
        """Acknowledge a committed Release to its issuing processor."""
        raise NotImplementedError

    def seq_committed(self, proc: int) -> int:
        """SEQ: stores of ``proc`` committed *machine-wide* (global
        across directories — the per-directory form deadlocks
        cross-directory releases; see ``test_seq_divergence``)."""
        raise NotImplementedError

    def seq_commit(self, proc: int) -> None:
        """SEQ: record one committed store for ``proc``."""
        raise NotImplementedError

    def complete_atomic(self, fields: Mapping[str, Any]) -> None:
        """Core side: an RMW response arrived — write the register back
        and unblock the issuing core."""
        raise NotImplementedError

    def wake(self) -> None:
        """Core side: protocol state changed in a way blocked ops wait
        on (checker: no-op — enabledness is re-evaluated per state)."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeliveryRule:
    """One delivery-side table row.

    ``guard(ctx, fields)`` returns ``True`` when the message may be
    consumed now; a ``False`` guard buffers the message for retry (the
    paper's "recycled" messages — Fig. 12's network-buffer storage).
    ``effects(ctx, fields)`` applies the transition; emission order
    inside an effect is semantic (it fixes message sequence numbers and
    history order) and both interpreters preserve it.
    """

    message: str
    effects: Callable[[DeliveryContext, Mapping[str, Any]], None]
    guard: Optional[Callable[[DeliveryContext, Mapping[str, Any]], bool]] = None
    #: Consumed at the issuing core, not a directory.
    core_side: bool = False

    def enabled(self, ctx: DeliveryContext,
                fields: Mapping[str, Any]) -> bool:
        return True if self.guard is None else self.guard(ctx, fields)


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol as one transition table, interpreted by both engines."""

    name: str
    #: Which core-state block the protocol mutates, and so which family of
    #: timed classes runs it: "so" (SO, MP) | "cord" | "seq" | "tardis".
    core_state: str
    messages: Mapping[str, MessageSpec]
    issue: Mapping[Tuple[str, bool], IssueRule]
    delivery: Mapping[str, DeliveryRule]
    fence: Optional[FenceRule] = None
    #: Directory retry-queue evaluation order (Alg. 2 "Retry later"):
    #: within one progress sweep, queues are drained in this order until
    #: a full sweep changes nothing.
    retry_order: Tuple[str, ...] = ()
    #: Directory-side message kinds whose arrival can un-gate a queued
    #: retry (the timed interpreter sweeps the retry queues after these).
    progress_on: Tuple[str, ...] = ()
    #: SEQ-k wire width; None for non-SEQ protocols.
    seq_bits: Optional[int] = None
    #: Messages-only spec: wire metadata, no interpreted rules.
    rules_complete: bool = True
    #: For messages-only specs ``protocol_classes`` still resolves: a
    #: zero-argument callable returning the
    #: ``(CorePortClass, DirectoryClass)`` actor pair.  WB's MESI state
    #: machine is request/response-shaped rather than guard/action-shaped,
    #: so its spec declares messages plus actors instead of rules.
    actors: Optional[Callable[[], Tuple[Any, Any]]] = None

    def issue_rule(self, op_class: str, ordered: bool) -> IssueRule:
        return self.issue[(op_class, ordered)]


# ---------------------------------------------------------------------------
# Shared guard/effect functions
# ---------------------------------------------------------------------------
# --- SO ---------------------------------------------------------------------
def _so_guard(ps: Any, home: int) -> Optional[str]:
    """A Release-class store may not issue before all prior write-through
    stores are acknowledged (Ordered Write Observation, §3.1)."""
    return "wait_wt_ack" if ps.so_outstanding > 0 else None


def _so_relaxed_guard(ps: Any, home: int) -> Optional[str]:
    return None


def _so_issue(ps: Any, home: int, ordered: bool,
              barrier: bool = False) -> List[Emit]:
    ps.so_outstanding += 1
    return [Emit("wt_store")]


def _so_issue_atomic(ps: Any, home: int, ordered: bool,
                     barrier: bool = False) -> List[Emit]:
    # The RMW round trip is synchronous: nothing stays outstanding.
    return [Emit("atomic")]


def _so_fence_done(ps: Any) -> bool:
    return ps.so_outstanding == 0


def _so_ack_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    ctx.core.so_outstanding -= 1
    if ctx.core.so_outstanding == 0:
        ctx.wake()


def _wt_store_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    ctx.commit(fields)
    ctx.send_core("so_ack", {})


# --- MP ---------------------------------------------------------------------
# Posted write-through (§3.2): stores ride a per-pair FIFO channel with no
# acknowledgments.  Nothing is ever outstanding on the issuing core, so
# every guard passes and the release fence completes immediately — ordering
# comes entirely from the channel FIFO.
def _mp_ordered_guard(ps: Any, home: int) -> Optional[str]:
    return None


def _mp_relaxed_guard(ps: Any, home: int) -> Optional[str]:
    return None


def _mp_issue(ps: Any, home: int, ordered: bool,
              barrier: bool = False) -> List[Emit]:
    return [Emit("posted")]


def _mp_issue_atomic(ps: Any, home: int, ordered: bool,
                     barrier: bool = False) -> List[Emit]:
    return [Emit("atomic")]


def _mp_fence_done(ps: Any) -> bool:
    return True


def _posted_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    ctx.commit(fields)


# --- CORD -------------------------------------------------------------------
def _cord_release_guard(ps: Any, home: int) -> Optional[Any]:
    """§4.3 Release stall conditions, plus source ordering of any
    outstanding SO-style stores this core issued (mixed-mode, §4.5)."""
    if ps.so_outstanding > 0:
        return StallReason("so-outstanding",
                           "source-ordered stores unacknowledged")
    return ps.cord.release_stall_reason(home)


def _cord_relaxed_guard(ps: Any, home: int) -> Optional[Any]:
    return ps.cord.relaxed_stall_reason(home)


def _cord_barrier_escape_guard(ps: Any, home: int) -> Optional[Any]:
    """May the §4.4 barrier-Release escape fire towards ``home``?

    A barrier carries no data, so it is *not* source-ordered behind
    outstanding SO-style stores — only the Release-table bound applies.
    """
    return ps.cord.release_stall_reason(home)


def _cord_issue_release(ps: Any, home: int, ordered: bool,
                        barrier: bool = False) -> List[Emit]:
    """Alg. 1 lines 5-13: requests-for-notification fan out to pending
    directories *before* the Release itself goes to its home.  Both
    Release rows use it: a Release RMW rides the ``wt_rel`` carrier too."""
    issue = ps.cord.on_release_store(home, barrier=barrier)
    emits = [
        Emit("req_notify", {"meta": req_meta}, dst_dir=pending_dir,
             carries_op=False)
        for pending_dir, req_meta in issue.notifications
    ]
    emits.append(Emit("wt_rel", {"meta": issue.release}))
    return emits


def _cord_issue_relaxed(ps: Any, home: int, ordered: bool,
                        barrier: bool = False) -> List[Emit]:
    return [Emit("wt_rlx", {"meta": ps.cord.on_relaxed_store(home)})]


def _cord_issue_atomic_relaxed(ps: Any, home: int, ordered: bool,
                               barrier: bool = False) -> List[Emit]:
    return [Emit("atomic", {"meta": ps.cord.on_relaxed_store(home)})]


def _cord_fence_done(ps: Any) -> bool:
    return ps.cord.total_unacked() == 0


def cord_barrier_batch_reason(cord: Any) -> Optional[StallReason]:
    """Why a CORD release fence cannot broadcast its barrier Releases yet.

    A fence issues one empty Release per pending directory *atomically*
    (the pending set is computed once — issuing the first barrier clears
    the store counters, which would otherwise shrink the set mid-fence).
    Guarding only the first issue would let a batch of ``k`` barriers
    blow through the unacked-epoch table or the epoch window mid-step
    and crash exploration (``release store must stall``)
    exactly in the under-provisioned §4.5 corner the checker exists to
    probe.  This predicate bounds the *whole batch*: ``k`` free
    unacked-table entries, ``k`` epoch advances inside the alias window,
    and the destination tables' ``total_unacked + k + 1`` static bound.

    If a batch can *never* fit (more pending directories than table
    capacity with nothing left to acknowledge), the fence reports as a
    deadlock witness rather than a crash; the timed interpreter drains
    sequentially and is immune.
    """
    pending = cord.pending_directories()
    batch = len(pending)
    if batch == 0:
        return None
    first = cord.release_stall_reason(pending[0])
    if first is not None:
        return first
    if not cord.unacked.has_room(batch):
        return StallReason(
            "unacked-table-full",
            f"fence needs {batch} entries, "
            f"{cord.unacked.capacity - len(cord.unacked)} free",
        )
    oldest = min(cord.oldest_outstanding_epoch(), cord.epoch.value)
    if (cord.epoch.value + batch) - oldest >= cord.epoch.modulus:
        return StallReason(
            "epoch-wrap",
            f"fence batch of {batch} would exceed modulus "
            f"{cord.epoch.modulus}",
        )
    bound = cord.total_unacked() + batch + 1
    if bound > cord.config.dir_store_counter_entries_per_proc:
        return StallReason(
            "dir-store-counter-full",
            f"fence batch bound {bound} vs "
            f"{cord.config.dir_store_counter_entries_per_proc} entries",
        )
    if bound > cord.config.dir_notification_entries_per_proc:
        return StallReason(
            "dir-notification-full",
            f"fence batch bound {bound} vs "
            f"{cord.config.dir_notification_entries_per_proc} entries",
        )
    return None


def _wt_rlx_guard(ctx: DeliveryContext, fields: Mapping[str, Any]) -> bool:
    return True


def _wt_rlx_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    ctx.commit(fields)
    ctx.dir_state.on_relaxed(fields["meta"])


def _wt_rel_guard(ctx: DeliveryContext, fields: Mapping[str, Any]) -> bool:
    return ctx.dir_state.release_block_reason(fields["meta"]) is None


def _wt_rel_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    """Alg. 2 Release commit: order is semantic — the directory state
    commits first, then the value/RMW becomes visible, then the epoch is
    acknowledged back to the processor."""
    meta = fields["meta"]
    ctx.dir_state.commit_release(meta)
    if "atomic" in fields:
        ctx.perform_atomic(fields)
    elif meta.barrier:
        # The §4.4 escape hatch / fence barrier: no value to commit.
        # (Branch on the metadata, not the fields — the timed wire pads
        # barrier payloads with a zero address.)
        ctx.commit_barrier()
    else:
        ctx.commit(fields)
    ctx.ack_release(meta)


def _req_notify_guard(ctx: DeliveryContext,
                      fields: Mapping[str, Any]) -> bool:
    return ctx.dir_state.req_notify_block_reason(fields["meta"]) is None


def _req_notify_effect(ctx: DeliveryContext,
                       fields: Mapping[str, Any]) -> None:
    meta = fields["meta"]
    notify = ctx.dir_state.consume_req_notify(meta)
    ctx.send_dir("notify", meta.noti_dst, {"meta": notify})


def _notify_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    ctx.dir_state.on_notify(fields["meta"])


def _rel_ack_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    ctx.core.cord.on_release_ack(fields["dir"], fields["epoch"])
    ctx.wake()


# --- shared atomics ---------------------------------------------------------
def _atomic_effect(ctx: DeliveryContext, fields: Mapping[str, Any]) -> None:
    meta = fields.get("meta")
    if meta is not None:                 # CORD Relaxed RMW carries metadata
        ctx.dir_state.on_relaxed(meta)
    ctx.perform_atomic(fields)


def _atomic_resp_effect(ctx: DeliveryContext,
                        fields: Mapping[str, Any]) -> None:
    ctx.complete_atomic(fields)


# --- SEQ --------------------------------------------------------------------
def _make_seq_guard(bits: int):
    def guard(ps: Any, home: int) -> Optional[str]:
        # The wire window of *uncommitted* sequence numbers may not reach
        # the modulus, or wrapped wire values become ambiguous (§4.1).
        if ps.seq_outstanding + 1 < (1 << bits):
            return None
        return "seq-window-full"
    return guard


def _make_seq_timed_guard(bits: int):
    def guard(ps: Any, home: int) -> Optional[str]:
        # Timed form: issued-since-flush watermark (the processor cannot
        # observe commits without acks, so it flushes every 2^k stores —
        # the Fig. 10 behaviour).  Strictly more conservative than the
        # checker's uncommitted-window bound, so timed executions stay a
        # subset of checked ones.
        if (ps.seq_next + 1) - ps.seq_watermark < (1 << bits):
            return None
        return "seq-window-full"
    return guard


def _seq_issue(ps: Any, home: int, ordered: bool,
               barrier: bool = False) -> List[Emit]:
    seq = ps.seq_next
    ps.seq_next += 1
    ps.seq_outstanding += 1
    return [Emit("seq_store", {"seq": seq, "ordered": ordered})]


def _seq_issue_atomic(ps: Any, home: int, ordered: bool,
                      barrier: bool = False) -> List[Emit]:
    # A Release RMW takes a slot in the per-core sequence stream, so its
    # delivery waits for every earlier store (MP+faa.rel).  A relaxed RMW
    # orders nothing and stays outside the stream: the core blocks on
    # the round trip, so it completes before any later Release issues.
    if not ordered:
        return [Emit("atomic")]
    seq = ps.seq_next
    ps.seq_next += 1
    ps.seq_outstanding += 1
    return [Emit("atomic", {"seq": seq})]


def _seq_fence_done(ps: Any) -> bool:
    return ps.seq_outstanding == 0


def _seq_store_guard(ctx: DeliveryContext, fields: Mapping[str, Any]) -> bool:
    """A Release-like store commits only after *all* earlier sequence
    numbers from the same processor have committed — machine-wide, not
    per-directory (stores fan out across directories; the committed
    count that gates seq ``n`` includes commits at every slice)."""
    if not fields["ordered"]:
        return True
    return ctx.seq_committed(fields["core"]) >= fields["seq"]


def _seq_store_effect(ctx: DeliveryContext,
                      fields: Mapping[str, Any]) -> None:
    ctx.commit(fields)
    ctx.seq_commit(fields["core"])


def _seq_flush_guard(ctx: DeliveryContext, fields: Mapping[str, Any]) -> bool:
    return ctx.seq_committed(fields["core"]) >= fields["upto"]


def _seq_flush_effect(ctx: DeliveryContext,
                      fields: Mapping[str, Any]) -> None:
    ctx.send_core("seq_flush_ack", {"upto": fields["upto"]})


def _seq_flush_ack_effect(ctx: DeliveryContext,
                          fields: Mapping[str, Any]) -> None:
    """Every sequence number below the echoed ``upto`` has committed
    machine-wide.  A flush asks every directory the core has sent to and
    finishes on the first ack, so acks of an older flush (and the current
    flush's later duplicates) still arrive; their ``upto`` is already
    covered by the watermark and they change nothing."""
    core = ctx.core
    if fields["upto"] > core.seq_watermark:
        core.seq_watermark = fields["upto"]
        ctx.wake()


def _sequenced_atomic_guard(ctx: DeliveryContext,
                            fields: Mapping[str, Any]) -> bool:
    """An RMW that carries a ``seq`` (SEQ Release RMWs, every Tardis RMW)
    commits in the per-core stream like any store.

    A seq-less ``atomic`` (one of SEQ's relaxed RMWs) passes through
    unguarded."""
    seq = fields.get("seq")
    if seq is None:
        return True
    return ctx.seq_committed(fields["core"]) >= seq


def _sequenced_atomic_effect(ctx: DeliveryContext,
                             fields: Mapping[str, Any]) -> None:
    ctx.perform_atomic(fields)
    if fields.get("seq") is not None:
        ctx.seq_commit(fields["core"])


# --- Tardis -----------------------------------------------------------------
#: Logical-timestamp width carried per store and (doubled: wts + rts) per
#: lease-granting load response.  32 bits never wraps within a run.
TARDIS_TS_BITS = 32

#: Lease length in logical-timestamp units: a read reservation extends the
#: line's rts to ``wts + TARDIS_LEASE``, bounding how long a cached copy
#: stays readable before the core's own clock (pts) invalidates it.
TARDIS_LEASE = 8


# Tardis never blocks at issue: stores commit in per-core issue order at
# the directories (the timestamp order subsumes it), so there is nothing
# for the processor to wait on — no ack counter, no epoch table, no
# sequence window.  Ordered and relaxed rows need *distinct* (trivial)
# guards because they declare different escapes and the linter rejects one
# guard with two escapes.
def _tardis_ordered_guard(ps: Any, home: int) -> Optional[str]:
    return None


def _tardis_relaxed_guard(ps: Any, home: int) -> Optional[str]:
    return None


def _tardis_issue(ps: Any, home: int, ordered: bool,
                  barrier: bool = False) -> List[Emit]:
    seq = ps.seq_next
    ps.seq_next += 1
    ps.seq_outstanding += 1
    return [Emit("tardis_store", {"seq": seq, "ordered": ordered})]


def _tardis_issue_atomic(ps: Any, home: int, ordered: bool,
                         barrier: bool = False) -> List[Emit]:
    # RMWs take the synchronous round trip but stay *in* the per-core
    # commit stream: the RMW consumes a sequence slot and its delivery
    # gates on all prior stores, so a Release RMW cannot commit before
    # the stores it orders (MP+faa.rel).
    seq = ps.seq_next
    ps.seq_next += 1
    ps.seq_outstanding += 1
    return [Emit("atomic", {"seq": seq})]


def _tardis_fence_done(ps: Any) -> bool:
    # Fences are free: ordering is enforced where stores *commit* (the
    # directory bumps wts past every granted lease), not where they
    # issue — the no-ack-collection property Tardis trades leases for.
    return True


def _tardis_store_guard(ctx: DeliveryContext,
                        fields: Mapping[str, Any]) -> bool:
    """Every store commits in per-core issue order, machine-wide.

    Timestamp order must respect each core's program order (pts is
    monotone), so store ``n`` waits for all earlier stores of the same
    core — Release or Relaxed alike.  Unlike SEQ, *relaxed* stores gate
    too: that is what lets the fence complete immediately."""
    return ctx.seq_committed(fields["core"]) >= fields["seq"]


def _tardis_store_effect(ctx: DeliveryContext,
                         fields: Mapping[str, Any]) -> None:
    ctx.commit(fields)
    ctx.seq_commit(fields["core"])


# ---------------------------------------------------------------------------
# Bit-width functions (the traffic model, formerly actor properties)
# ---------------------------------------------------------------------------
def _relaxed_bits(cord: Any) -> int:
    return cord.epoch_bits


def _release_bits(cord: Any) -> int:
    # epoch + store counter + lastPrevEp + notification counter.
    return (cord.epoch_bits + cord.counter_bits + cord.epoch_bits
            + cord.notification_bits)


def _req_notify_bits(cord: Any) -> int:
    # pending counter + lastPrevEp + current epoch + NotiDst id.
    return cord.counter_bits + 2 * cord.epoch_bits + 8


def _notify_bits(cord: Any) -> int:
    return cord.epoch_bits + 8


def _rel_ack_bits(cord: Any) -> int:
    return cord.epoch_bits


# ---------------------------------------------------------------------------
# Shared message blocks
# ---------------------------------------------------------------------------
_ATOMIC_MESSAGES = {
    "atomic": MessageSpec(
        name="atomic", fifo=FifoClass.PER_LOCATION, control=False,
        consumer="directory", timed_name="atomic_req"),
    "atomic_resp": MessageSpec(
        name="atomic_resp", fifo=FifoClass.NONE, control=False,
        consumer="core", timed_name="load_resp", ample=True),
}

_LOAD_MESSAGES = {
    # The checker reads directory state directly (with in-flight
    # read-own-write forwarding); loads exist only on the timed wire.
    "load_req": MessageSpec(
        name="load_req", fifo=FifoClass.NONE, control=True,
        consumer="directory"),
    "load_resp": MessageSpec(
        name="load_resp", fifo=FifoClass.NONE, control=False,
        consumer="core"),
}

_SHARED_DELIVERY = {
    "atomic": DeliveryRule(message="atomic", effects=_atomic_effect),
    "atomic_resp": DeliveryRule(message="atomic_resp",
                                effects=_atomic_resp_effect,
                                core_side=True),
}


# ---------------------------------------------------------------------------
# The shipped tables
# ---------------------------------------------------------------------------
SO_SPEC = ProtocolSpec(
    name="so",
    core_state="so",
    messages={
        "wt_store": MessageSpec(
            name="wt_store", fifo=FifoClass.PER_LOCATION, control=False,
            consumer="directory", forwards_store=True),
        "so_ack": MessageSpec(
            name="so_ack", fifo=FifoClass.NONE, control=True,
            consumer="core", timed_name="wt_ack", ample=True),
        **_ATOMIC_MESSAGES,
        **_LOAD_MESSAGES,
    },
    issue={
        ("store", True): IssueRule(
            name="so-ordered-store", op_class="store", ordered=True,
            guard=_so_guard, escape="wait", stall_cause="wait_wt_ack",
            effects=_so_issue),
        ("store", False): IssueRule(
            name="so-relaxed-store", op_class="store", ordered=False,
            guard=_so_relaxed_guard, escape="none", stall_cause="",
            effects=_so_issue, combining=True),
        ("atomic", True): IssueRule(
            name="so-ordered-atomic", op_class="atomic", ordered=True,
            guard=_so_guard, escape="wait", stall_cause="wait_wt_ack",
            effects=_so_issue_atomic),
        ("atomic", False): IssueRule(
            name="so-relaxed-atomic", op_class="atomic", ordered=False,
            guard=_so_relaxed_guard, escape="none", stall_cause="",
            effects=_so_issue_atomic),
    },
    delivery={
        "wt_store": DeliveryRule(message="wt_store",
                                 effects=_wt_store_effect),
        "so_ack": DeliveryRule(message="so_ack", effects=_so_ack_effect,
                               core_side=True),
        **_SHARED_DELIVERY,
    },
    fence=FenceRule(done=_so_fence_done, timed_drain="acks",
                    stall_cause="wait_drain",
                    timed_drain_on_acquire=True),
)


CORD_SPEC = ProtocolSpec(
    name="cord",
    core_state="cord",
    messages={
        "wt_rlx": MessageSpec(
            name="wt_rlx", fifo=FifoClass.PER_LOCATION, control=False,
            consumer="directory", bits=_relaxed_bits, forwards_store=True),
        "wt_rel": MessageSpec(
            name="wt_rel", fifo=FifoClass.PER_LOCATION, control=False,
            consumer="directory", bits=_release_bits, forwards_store=True,
            barrier_carrier=True),
        "req_notify": MessageSpec(
            name="req_notify", fifo=FifoClass.NONE, control=True,
            consumer="directory", bits=_req_notify_bits),
        "notify": MessageSpec(
            name="notify", fifo=FifoClass.NONE, control=True,
            consumer="directory", bits=_notify_bits, ample=True),
        "rel_ack": MessageSpec(
            name="rel_ack", fifo=FifoClass.NONE, control=True,
            consumer="core", bits=_rel_ack_bits),
        **_ATOMIC_MESSAGES,
        **_LOAD_MESSAGES,
    },
    issue={
        ("store", True): IssueRule(
            name="cord-release-store", op_class="store", ordered=True,
            guard=_cord_release_guard, escape="wait",
            stall_cause="release_table", effects=_cord_issue_release),
        ("store", False): IssueRule(
            name="cord-relaxed-store", op_class="store", ordered=False,
            guard=_cord_relaxed_guard, escape="barrier", stall_cause="",
            effects=_cord_issue_relaxed, combining=True,
            escape_guard=_cord_barrier_escape_guard),
        ("atomic", True): IssueRule(
            name="cord-release-atomic", op_class="atomic", ordered=True,
            guard=_cord_release_guard, escape="wait",
            stall_cause="release_table", effects=_cord_issue_release),
        ("atomic", False): IssueRule(
            name="cord-relaxed-atomic", op_class="atomic", ordered=False,
            guard=_cord_relaxed_guard, escape="barrier", stall_cause="",
            effects=_cord_issue_atomic_relaxed,
            escape_guard=_cord_barrier_escape_guard),
    },
    delivery={
        "wt_rlx": DeliveryRule(message="wt_rlx", guard=_wt_rlx_guard,
                               effects=_wt_rlx_effect),
        "wt_rel": DeliveryRule(message="wt_rel", guard=_wt_rel_guard,
                               effects=_wt_rel_effect),
        "req_notify": DeliveryRule(message="req_notify",
                                   guard=_req_notify_guard,
                                   effects=_req_notify_effect),
        "notify": DeliveryRule(message="notify", effects=_notify_effect),
        "rel_ack": DeliveryRule(message="rel_ack", effects=_rel_ack_effect,
                                core_side=True),
        **_SHARED_DELIVERY,
    },
    fence=FenceRule(done=_cord_fence_done, barrier_broadcast=True,
                    timed_drain="barriers", stall_cause="fence_ack"),
    retry_order=("req_notify", "wt_rel"),
    progress_on=("wt_rlx", "atomic", "wt_rel", "req_notify", "notify"),
)


#: Ablation: CORD without inter-directory notifications.  Directory
#: ordering still holds *within* each directory, but a Release whose epoch
#: has pending state at other directories first drains them at the source
#: (``source_drain``), so its own issue finds nothing to notify.  At
#: fan-out 1 this is exactly CORD; at higher fan-outs it re-introduces the
#: processor stalls notifications exist to avoid
#: (``benchmarks/test_ablation_notifications.py`` measures the gap).
#: Timed-only: the checker models CORD itself.
CORD_NONOTIFY_SPEC = replace(
    CORD_SPEC,
    name="cord-nonotify",
    issue={
        **CORD_SPEC.issue,
        ("store", True): replace(
            CORD_SPEC.issue[("store", True)],
            name="cord-nonotify-release-store", source_drain=True),
    },
)


MP_SPEC = ProtocolSpec(
    name="mp",
    core_state="so",
    messages={
        "posted": MessageSpec(
            name="posted", fifo=FifoClass.PER_PAIR, control=False,
            consumer="directory", timed_name="wt_store",
            forwards_store=True),
        "atomic": MessageSpec(
            name="atomic", fifo=FifoClass.PER_PAIR, control=False,
            consumer="directory", timed_name="atomic_req"),
        "atomic_resp": _ATOMIC_MESSAGES["atomic_resp"],
        **_LOAD_MESSAGES,
    },
    issue={
        ("store", True): IssueRule(
            name="mp-ordered-store", op_class="store", ordered=True,
            guard=_mp_ordered_guard, escape="wait", stall_cause="posted",
            effects=_mp_issue),
        ("store", False): IssueRule(
            name="mp-relaxed-store", op_class="store", ordered=False,
            guard=_mp_relaxed_guard, escape="none", stall_cause="",
            effects=_mp_issue, combining=True),
        ("atomic", True): IssueRule(
            name="mp-ordered-atomic", op_class="atomic", ordered=True,
            guard=_mp_ordered_guard, escape="wait", stall_cause="posted",
            effects=_mp_issue_atomic),
        ("atomic", False): IssueRule(
            name="mp-relaxed-atomic", op_class="atomic", ordered=False,
            guard=_mp_relaxed_guard, escape="none", stall_cause="",
            effects=_mp_issue_atomic),
    },
    delivery={
        "posted": DeliveryRule(message="posted", effects=_posted_effect),
        **_SHARED_DELIVERY,
    },
    fence=FenceRule(done=_mp_fence_done, timed_drain="none",
                    stall_cause=""),
)


def _wb_actors() -> Tuple[Any, Any]:
    from repro.protocols.wb import WbCorePort, WbDirectory
    return WbCorePort, WbDirectory


#: WB's MESI writeback machine is request/response-shaped (GetS/GetM,
#: invalidation fan-out, data responses) rather than guard/action-shaped,
#: so the spec declares the wire vocabulary plus the actor pair;
#: :func:`repro.protocols.table.protocol_classes` routes ``wb`` through
#: :func:`ProtocolSpec.actors`.  Timed-only: the checker does not model WB.
WB_SPEC = ProtocolSpec(
    name="wb",
    core_state="so",
    messages={
        name: MessageSpec(name=name, fifo=FifoClass.NONE, control=control,
                          consumer=consumer)
        for name, control, consumer in (
            ("gets", True, "directory"),
            ("getm", True, "directory"),
            ("wb_data", False, "directory"),
            ("wt_store", False, "directory"),
            ("inv_ack", True, "directory"),
            ("fetch_resp", False, "directory"),
            ("data_resp", False, "core"),
            ("inv", True, "core"),
            ("fetch", True, "core"),
            ("wb_ack", True, "core"),
            ("wt_ack", True, "core"),
        )
    },
    issue={},
    delivery={},
    rules_complete=False,
    actors=_wb_actors,
)


#: A flush ack names its flush with an 8-bit tag.  A core has one flush
#: outstanding at a time, so the tag tells the current flush's ack from a
#: late one, and 8 bits fit the header's reserved bits
#: (``MessageSizeConfig.reserved_bits``): the ack costs no extra bytes.
#: The simulator carries the flush's full ``upto``; the tag stands for it
#: as long as no ack arrives 256 or more flushes late.
SEQ_FLUSH_TAG_BITS = 8


def _seq_flush_tag_bits(cord: Any) -> int:
    return SEQ_FLUSH_TAG_BITS


def _make_seq_spec(bits: int) -> ProtocolSpec:
    seq_guard = _make_seq_guard(bits)
    seq_timed_guard = _make_seq_timed_guard(bits)

    def seq_bits_fn(cord: Any, _bits: int = bits) -> int:
        return _bits

    return ProtocolSpec(
        name=f"seq{bits}",
        core_state="seq",
        messages={
            "seq_store": MessageSpec(
                name="seq_store", fifo=FifoClass.PER_LOCATION,
                control=False, consumer="directory", bits=seq_bits_fn,
                forwards_store=True),
            "seq_flush": MessageSpec(
                name="seq_flush", fifo=FifoClass.NONE, control=True,
                consumer="directory", bits=seq_bits_fn),
            "seq_flush_ack": MessageSpec(
                name="seq_flush_ack", fifo=FifoClass.NONE, control=True,
                consumer="core", bits=_seq_flush_tag_bits),
            **_ATOMIC_MESSAGES,
            # A sequenced (Release) RMW carries its sequence number on
            # the wire, as seq_store does; a relaxed one carries none.
            "atomic": replace(_ATOMIC_MESSAGES["atomic"],
                              bits=seq_bits_fn),
            **_LOAD_MESSAGES,
        },
        issue={
            ("store", True): IssueRule(
                name="seq-ordered-store", op_class="store", ordered=True,
                guard=seq_guard, escape="flush",
                stall_cause="seq_overflow", effects=_seq_issue,
                timed_guard=seq_timed_guard),
            ("store", False): IssueRule(
                name="seq-relaxed-store", op_class="store", ordered=False,
                guard=seq_guard, escape="flush",
                stall_cause="seq_overflow", effects=_seq_issue,
                timed_guard=seq_timed_guard),
            ("atomic", True): IssueRule(
                name="seq-ordered-atomic", op_class="atomic", ordered=True,
                guard=seq_guard, escape="flush",
                stall_cause="seq_overflow", effects=_seq_issue_atomic,
                timed_guard=seq_timed_guard),
            ("atomic", False): IssueRule(
                name="seq-relaxed-atomic", op_class="atomic",
                ordered=False, guard=seq_guard, escape="flush",
                stall_cause="seq_overflow", effects=_seq_issue_atomic,
                timed_guard=seq_timed_guard),
        },
        delivery={
            "seq_store": DeliveryRule(message="seq_store",
                                      guard=_seq_store_guard,
                                      effects=_seq_store_effect),
            "seq_flush": DeliveryRule(message="seq_flush",
                                      guard=_seq_flush_guard,
                                      effects=_seq_flush_effect),
            "seq_flush_ack": DeliveryRule(message="seq_flush_ack",
                                          effects=_seq_flush_ack_effect,
                                          core_side=True),
            **_SHARED_DELIVERY,
            "atomic": DeliveryRule(message="atomic",
                                   guard=_sequenced_atomic_guard,
                                   effects=_sequenced_atomic_effect),
        },
        fence=FenceRule(done=_seq_fence_done, timed_drain="flush",
                        stall_cause="seq_drain"),
        retry_order=("seq_store", "seq_flush", "atomic"),
        progress_on=("seq_store", "seq_flush", "atomic"),
        seq_bits=bits,
    )


def _tardis_store_bits(cord: Any) -> int:
    # The store carries its proposed write timestamp (Tardis 2.0's hint);
    # leases make acks unnecessary, but the timestamp bits are not free —
    # that is the honest bandwidth trade against CORD's epoch metadata.
    return TARDIS_TS_BITS


def _tardis_lease_bits(cord: Any) -> int:
    # A lease-granting load response returns the line's wts and the
    # extended rts alongside the data.
    return 2 * TARDIS_TS_BITS


#: Timestamp-counter coherence (Tardis / Tardis 2.0, PAPERS.md): the
#: directory keeps per-line write/read timestamps (wts/rts), reads take
#: bounded *leases* instead of registering sharers, and writes bump wts
#: past every granted lease — no invalidation multicast, no ack
#: collection, so release fences complete immediately.  The checker sees
#: the protocol's ordering contract (per-core in-order commit at the
#: directories); the lease/timestamp machinery itself is timed-only
#: state in :mod:`repro.protocols.table` (wts/rts at directories, pts
#: and the lease cache at cores) and provably stays within the checker's
#: reachable set — see DESIGN.md.
TARDIS_SPEC = ProtocolSpec(
    name="tardis",
    core_state="tardis",
    messages={
        "tardis_store": MessageSpec(
            name="tardis_store", fifo=FifoClass.PER_LOCATION,
            control=False, consumer="directory", bits=_tardis_store_bits,
            forwards_store=True),
        **_ATOMIC_MESSAGES,
        "load_req": _LOAD_MESSAGES["load_req"],
        "load_resp": MessageSpec(
            name="load_resp", fifo=FifoClass.NONE, control=False,
            consumer="core", bits=_tardis_lease_bits),
    },
    issue={
        ("store", True): IssueRule(
            name="tardis-ordered-store", op_class="store", ordered=True,
            guard=_tardis_ordered_guard, escape="wait", stall_cause="",
            effects=_tardis_issue),
        ("store", False): IssueRule(
            name="tardis-relaxed-store", op_class="store", ordered=False,
            guard=_tardis_relaxed_guard, escape="none", stall_cause="",
            effects=_tardis_issue, combining=True),
        ("atomic", True): IssueRule(
            name="tardis-ordered-atomic", op_class="atomic", ordered=True,
            guard=_tardis_ordered_guard, escape="wait", stall_cause="",
            effects=_tardis_issue_atomic),
        ("atomic", False): IssueRule(
            name="tardis-relaxed-atomic", op_class="atomic", ordered=False,
            guard=_tardis_relaxed_guard, escape="none", stall_cause="",
            effects=_tardis_issue_atomic),
    },
    delivery={
        "tardis_store": DeliveryRule(message="tardis_store",
                                     guard=_tardis_store_guard,
                                     effects=_tardis_store_effect),
        **_SHARED_DELIVERY,
        # Override the shared unguarded RMW: Tardis RMWs carry a seq and
        # commit in the per-core stream.
        "atomic": DeliveryRule(message="atomic",
                               guard=_sequenced_atomic_guard,
                               effects=_sequenced_atomic_effect),
    },
    fence=FenceRule(done=_tardis_fence_done, timed_drain="none",
                    stall_cause=""),
    retry_order=("tardis_store", "atomic"),
    progress_on=("tardis_store",),
)


#: The fixed-name tables, in the order protocol listings use.  ``seq<k>``
#: tables are built on first use and cached in ``_SPECS`` beside them.
_NAMED_SPECS = (SO_SPEC, CORD_SPEC, CORD_NONOTIFY_SPEC, MP_SPEC, WB_SPEC,
                TARDIS_SPEC)
#: The fixed-name tables the model checker has no untimed model for.
_TIMED_ONLY = (CORD_NONOTIFY_SPEC, WB_SPEC)
_SPECS: Dict[str, ProtocolSpec] = {spec.name: spec for spec in _NAMED_SPECS}

#: ``seq<k>`` with ``k`` in decimal and no leading zeros.
_SEQ_NAME = re.compile(r"seq(0|[1-9][0-9]*)")


def named_protocols() -> Tuple[str, ...]:
    """Every protocol name with a fixed table (all but ``seq<k>``)."""
    return tuple(spec.name for spec in _NAMED_SPECS)


def available_protocols() -> Tuple[str, ...]:
    """Every protocol a :class:`~repro.protocols.machine.Machine` runs."""
    return named_protocols() + ("seq<k>",)


def checkable_protocols() -> Tuple[str, ...]:
    """The protocols the model checker has an untimed model for."""
    return tuple(spec.name for spec in _NAMED_SPECS
                 if spec not in _TIMED_ONLY) + ("seq<k>",)


def validate_checkable_protocol(name: str) -> None:
    """Raise :class:`ValueError`, naming the choices, unless the model
    checker can check ``name`` (an out-of-range ``seq<k>`` width raises
    :func:`parse_seq_bits`'s error)."""
    if name in (spec.name for spec in _TIMED_ONLY):
        detail = "is timed-only"
    elif name in _SPECS or parse_seq_bits(name) is not None:
        return
    else:
        detail = "is unknown"
    raise ValueError(
        f"protocol {name!r} {detail} for model checking; "
        f"choose from {checkable_protocols()}"
    )


def parse_seq_bits(protocol: str) -> Optional[int]:
    """The width ``k`` of a ``seq<k>`` protocol name; None for any name
    not of that form (``seq007`` is not: ``k`` has no leading zeros).

    Raises :class:`ValueError` when ``k`` is outside 1..64.
    """
    match = _SEQ_NAME.fullmatch(protocol)
    if match is None:
        return None
    bits = int(match.group(1))
    if not 1 <= bits <= 64:
        raise ValueError(f"seq bit-width out of range: {bits}")
    return bits


def get_spec(protocol: str) -> ProtocolSpec:
    """The transition table for ``protocol`` (``KeyError`` if none)."""
    spec = _SPECS.get(protocol)
    if spec is not None:
        return spec
    try:
        bits = parse_seq_bits(protocol)
    except ValueError:
        bits = None
    if bits is None:
        raise KeyError(f"no transition table for protocol {protocol!r}")
    spec = _SPECS[protocol] = _make_seq_spec(bits)
    return spec


def has_spec(protocol: str) -> bool:
    """Whether ``protocol`` has a table with full rules (``wb``'s table
    declares only its messages)."""
    try:
        return get_spec(protocol).rules_complete
    except KeyError:
        return False


# ---------------------------------------------------------------------------
# Structural linter (run by tests/protocols/test_spec_linter.py)
# ---------------------------------------------------------------------------
class LintError(ValueError):
    """A shipped table violates a structural invariant."""


#: Message field names the checker's symmetry permutation understands
#: (see ``ModelChecker._perm_msg``); emitting any other field would make
#: orbit canonicalization silently identity-blind to it.
_PERMUTABLE_FIELDS = frozenset({
    "core", "addr", "value", "old", "compare", "dir", "register", "meta",
    "pc", "ordering", "seq", "ordered", "atomic", "upto", "proc", "epoch",
})


def lint_spec(spec: ProtocolSpec) -> List[str]:
    """Structural problems in one table (empty list = clean).

    Checks, per the ISSUE-7 satellite:

    * every issue rule's guard is exercisable (rows exist for both the
      ordered and relaxed class of stores and atomics) and names a valid
      escape;
    * every emitted message type has a :class:`MessageSpec` (an ordering
      class) and a consumer :class:`DeliveryRule` on the side its
      ``consumer`` declares;
    * no two rows share a key (enforced by the mapping) and rows that
      share a guard do not disagree on escape (overlapping guards with
      conflicting actions);
    * ``source_drain`` sits only on a CORD ordered-store row, the one
      place the timed interpreter reads it;
    * delivery rules only reference declared messages.
    """
    problems: List[str] = []
    if not spec.rules_complete:
        return problems

    for op_class in ("store", "atomic"):
        for ordered in (True, False):
            if (op_class, ordered) not in spec.issue:
                problems.append(
                    f"{spec.name}: no ({op_class}, ordered={ordered}) row")

    by_guard: Dict[Any, IssueRule] = {}
    for key, rule in spec.issue.items():
        if rule.escape not in ("wait", "barrier", "flush", "none"):
            problems.append(
                f"{spec.name}/{rule.name}: unknown escape {rule.escape!r}")
        if rule.escape == "barrier" and ("store", True) not in spec.issue:
            problems.append(
                f"{spec.name}/{rule.name}: barrier escape without an "
                f"ordered store row to issue it through")
        if rule.source_drain and (key != ("store", True)
                                  or spec.core_state != "cord"):
            problems.append(
                f"{spec.name}/{rule.name}: source_drain is only "
                f"interpreted on a CORD ordered-store row")
        prior = by_guard.get((rule.guard, rule.op_class))
        if prior is not None and prior.escape != rule.escape:
            problems.append(
                f"{spec.name}: rows {prior.name!r} and {rule.name!r} share "
                f"a guard but disagree on escape")
        by_guard[(rule.guard, rule.op_class)] = rule

    emitted, fields_by_message = _emitted_messages(spec)
    for name, fields in sorted(fields_by_message.items()):
        stray = fields - _PERMUTABLE_FIELDS
        if stray:
            problems.append(
                f"{spec.name}: {name!r} emits fields {sorted(stray)} the "
                f"symmetry permutation does not understand")
    for name in emitted:
        message = spec.messages.get(name)
        if message is None:
            problems.append(
                f"{spec.name}: emits {name!r} with no MessageSpec "
                f"(no ordering class)")
            continue
        rule = spec.delivery.get(name)
        if rule is None:
            problems.append(
                f"{spec.name}: emitted message {name!r} has no consumer "
                f"DeliveryRule")
        elif rule.core_side != (message.consumer == "core"):
            problems.append(
                f"{spec.name}: {name!r} consumer side mismatch "
                f"(spec says {message.consumer}, rule core_side="
                f"{rule.core_side})")
    for name, rule in spec.delivery.items():
        if name not in spec.messages:
            problems.append(
                f"{spec.name}: delivery rule for undeclared message "
                f"{name!r}")
        if rule.message != name:
            problems.append(
                f"{spec.name}: delivery rule keyed {name!r} claims message "
                f"{rule.message!r}")
    for name in spec.retry_order:
        if name not in spec.delivery:
            problems.append(
                f"{spec.name}: retry_order references {name!r} with no "
                f"delivery rule")
    problems.extend(_lint_barrier_carrier(spec))
    return problems


def _lint_barrier_carrier(spec: ProtocolSpec) -> List[str]:
    """Barrier-Release carrier checks (ISSUE-8 satellite).

    A spec with barrier semantics (a broadcasting fence, or a
    ``"barrier"`` issue escape) must *declare* exactly one
    ``barrier_carrier`` message, and the ordered-store row driven with
    ``barrier=True`` must emit that carrier as its only op-carrying and
    final emission.  The timed interpreter used to guess the carrier as
    ``emits[-1].message`` — a spec emitting the barrier first would have
    silently mis-tagged carriers; now the guess is gone and ambiguous
    emit orders are rejected here.
    """
    problems: List[str] = []
    needs_barrier = (
        (spec.fence is not None and spec.fence.barrier_broadcast)
        or any(rule.escape == "barrier" for rule in spec.issue.values()))
    declared = sorted(
        name for name, message in spec.messages.items()
        if message.barrier_carrier)
    if not needs_barrier:
        if declared:
            problems.append(
                f"{spec.name}: declares barrier carrier(s) {declared} but "
                f"has no barrier semantics (no broadcasting fence or "
                f"barrier escape)")
        return problems
    if len(declared) != 1:
        problems.append(
            f"{spec.name}: barrier semantics require exactly one "
            f"barrier_carrier message, found {declared or 'none'}")
        return problems
    carrier = declared[0]
    rule = spec.issue.get(("store", True))
    if rule is None:        # already reported by the row-coverage check
        return problems
    emits = rule.effects(_scratch_core_state(spec), 0, True, barrier=True)
    carrying = [emit.message for emit in emits if emit.carries_op]
    if carrying != [carrier]:
        problems.append(
            f"{spec.name}: barrier Release must ride exactly "
            f"[{carrier!r}], ordered-store row emits carriers {carrying}")
    elif emits[-1].message != carrier:
        problems.append(
            f"{spec.name}: ambiguous emit order — barrier carrier "
            f"{carrier!r} must be the final emission, got "
            f"{[emit.message for emit in emits]}")
    return problems


def _scratch_core_state(spec: ProtocolSpec) -> Any:
    """A throwaway core-state block for driving rules off-line (linting,
    emit-template discovery).  For CORD cores, pending state at another
    directory is seeded so the Release path also exercises its
    notification fan-out."""
    from repro.config import CordConfig
    from repro.core.processor import CordProcessorState

    class _Scratch:
        def __init__(self) -> None:
            self.cord = CordProcessorState(0, CordConfig())
            self.so_outstanding = 0
            self.seq_next = 0
            self.seq_outstanding = 0
            self.seq_watermark = 0

    ps = _Scratch()
    if spec.core_state == "cord":
        ps.cord.on_relaxed_store(1)
    return ps


def _emitted_messages(spec: ProtocolSpec):
    """Message names the spec's issue rules can emit (discovered by
    driving the rules against scratch state) plus the delivery-side
    replies, and the protocol field names each emission carried."""
    emitted = set()
    fields_by_message: Dict[str, set] = {}

    for (op_class, ordered), rule in spec.issue.items():
        ps = _scratch_core_state(spec)
        for emit in rule.effects(ps, 0, ordered):
            emitted.add(emit.message)
            fields_by_message.setdefault(emit.message, set()).update(
                emit.fields)
    # Delivery replies (acks, notifications, responses) are emissions too.
    reply_of = {
        "wt_store": ["so_ack"],
        "wt_rel": ["rel_ack", "atomic_resp"],
        "req_notify": ["notify"],
        "seq_flush": ["seq_flush_ack"],
        "atomic": ["atomic_resp"],
    }
    for name in list(emitted) + list(spec.delivery):
        for reply in reply_of.get(name, ()):
            if name in spec.delivery or name in emitted:
                emitted.add(reply)
    return sorted(emitted), fields_by_message
