"""Compiler: lower a linted :class:`~repro.protocols.spec.ProtocolSpec`
into int-coded rule rows.

Interpreting a table closure-by-closure would resolve each store's
:class:`MessageSpec` by name, rebuild its wire sizes, and dispatch through
``rule.effects`` returning freshly allocated ``Emit`` lists.  This module
performs that resolution **once per spec**:

* message names are interned to dense integer ids (``mid``); per-mid
  wire names, control classes and bit-width callables live in flat
  tuples indexed by ``mid``;
* each issue rule gets a *guard opcode* and an *action opcode* — small
  integers naming the shipped closure the row runs, with the original
  callables kept behind the ``*_CALL`` fallback (exotic or user-authored
  specs compile to the generic opcodes and run exactly as before);
* each delivery rule gets a *delivery opcode* covering both its guard
  and its effect (the two are paired 1:1 in every shipped table);
* emit templates (the static message-id sequence a rule produces) are
  precomputed by driving the rule once against scratch state.

The timed interpreter (:mod:`repro.protocols.table`) binds each row once
per spec: a protocol family that has an inline fast path for the row's
opcode runs it, every other row runs its closures.

Compilation is **lint-gated**: a spec that fails
:func:`~repro.protocols.spec.lint_spec` raises :class:`LintError` before
any actor is built, so the fast paths never run against a structurally
ambiguous table (e.g. an undeclared barrier carrier).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.protocols import spec as _spec_mod
from repro.protocols.spec import (
    DeliveryRule,
    IssueRule,
    LintError,
    ProtocolSpec,
    lint_spec,
)

__all__ = [
    "CompiledMessage",
    "CompiledIssue",
    "CompiledDelivery",
    "CompiledProtocol",
    "compile_spec",
    # guard opcodes
    "G_CALL", "G_TRUE", "G_SO_OUTSTANDING", "G_CORD_RELEASE",
    "G_CORD_RELAXED", "G_SEQ_WINDOW",
    # action opcodes
    "A_CALL", "A_SO_STORE", "A_CORD_RELAXED", "A_CORD_RELEASE",
    "A_SEQ_STORE", "A_MP_POSTED", "A_TARDIS_STORE",
    # delivery opcodes
    "D_CALL", "D_WT_STORE", "D_SO_ACK", "D_WT_RLX", "D_WT_REL",
    "D_REQ_NOTIFY", "D_NOTIFY", "D_REL_ACK", "D_SEQ_STORE", "D_SEQ_FLUSH",
    "D_SEQ_FLUSH_ACK", "D_POSTED", "D_TARDIS_STORE",
]


# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------
# Guard opcodes: why an op may not issue yet.  G_CALL = run rule.guard.
G_CALL = 0            # generic: evaluate the original guard closure
G_TRUE = 1            # guard statically always passes (SO relaxed, MP)
G_SO_OUTSTANDING = 2  # ps.so_outstanding > 0
G_CORD_RELEASE = 3    # §4.3 release-table bound (+ SO source order)
G_CORD_RELAXED = 4    # relaxed_stall_reason
G_SEQ_WINDOW = 5      # issued-since-flush watermark (timed form)

# Action opcodes: what issuing emits.  A_CALL = run rule.effects.
A_CALL = 0
A_SO_STORE = 1        # so_outstanding += 1; emit wt_store
A_CORD_RELAXED = 2    # on_relaxed_store; emit wt_rlx
A_CORD_RELEASE = 3    # on_release_store; emit req_notify*, wt_rel
A_SEQ_STORE = 4       # seq counters; emit seq_store
A_MP_POSTED = 5       # emit posted (no state)
A_TARDIS_STORE = 6    # seq counters; emit tardis_store (+ lease pop)

# Delivery opcodes: guard + effect of one consumed message.
D_CALL = 0
D_WT_STORE = 1        # commit + so_ack reply
D_SO_ACK = 2          # core: so_outstanding -= 1, wake at zero
D_WT_RLX = 3          # commit + dir_state.on_relaxed
D_WT_REL = 4          # release_block_reason gate; commit_release path
D_REQ_NOTIFY = 5      # req_notify_block_reason gate; forward notify
D_NOTIFY = 6          # dir_state.on_notify
D_REL_ACK = 7         # core: on_release_ack + wake
D_SEQ_STORE = 8       # machine-global commit gate; commit + board
D_SEQ_FLUSH = 9       # watermark gate; flush-ack reply
D_SEQ_FLUSH_ACK = 10  # core: watermark advance + wake
D_POSTED = 11         # commit only (MP posted writes)
D_TARDIS_STORE = 12   # per-core in-order gate; commit + ts bump + board


def _known_guards() -> Dict[Any, int]:
    return {
        _spec_mod._so_relaxed_guard: G_TRUE,
        _spec_mod._mp_ordered_guard: G_TRUE,
        _spec_mod._mp_relaxed_guard: G_TRUE,
        _spec_mod._so_guard: G_SO_OUTSTANDING,
        _spec_mod._cord_release_guard: G_CORD_RELEASE,
        _spec_mod._cord_relaxed_guard: G_CORD_RELAXED,
        _spec_mod._tardis_ordered_guard: G_TRUE,
        _spec_mod._tardis_relaxed_guard: G_TRUE,
    }


def _known_actions() -> Dict[Any, int]:
    return {
        _spec_mod._so_issue: A_SO_STORE,
        _spec_mod._cord_issue_relaxed: A_CORD_RELAXED,
        _spec_mod._cord_issue_release: A_CORD_RELEASE,
        _spec_mod._seq_issue: A_SEQ_STORE,
        _spec_mod._mp_issue: A_MP_POSTED,
        _spec_mod._tardis_issue: A_TARDIS_STORE,
    }


def _known_deliveries() -> Dict[Any, int]:
    return {
        _spec_mod._wt_store_effect: D_WT_STORE,
        _spec_mod._so_ack_effect: D_SO_ACK,
        _spec_mod._wt_rlx_effect: D_WT_RLX,
        _spec_mod._wt_rel_effect: D_WT_REL,
        _spec_mod._req_notify_effect: D_REQ_NOTIFY,
        _spec_mod._notify_effect: D_NOTIFY,
        _spec_mod._rel_ack_effect: D_REL_ACK,
        _spec_mod._seq_store_effect: D_SEQ_STORE,
        _spec_mod._seq_flush_effect: D_SEQ_FLUSH,
        _spec_mod._seq_flush_ack_effect: D_SEQ_FLUSH_ACK,
        _spec_mod._posted_effect: D_POSTED,
        _spec_mod._tardis_store_effect: D_TARDIS_STORE,
    }


def _guard_opcode(rule: IssueRule) -> int:
    opcode = _known_guards().get(rule.guard)
    if opcode is not None:
        return opcode
    # seq<k> guards are per-bit-width closures; recognize them by origin.
    timed = rule.timed_guard or rule.guard
    qualname = getattr(timed, "__qualname__", "")
    if qualname.startswith(("_make_seq_timed_guard.", "_make_seq_guard.")):
        return G_SEQ_WINDOW
    return G_CALL


def _action_opcode(rule: IssueRule) -> int:
    return _known_actions().get(rule.effects, A_CALL)


def _delivery_opcode(rule: DeliveryRule) -> int:
    return _known_deliveries().get(rule.effects, D_CALL)


# ---------------------------------------------------------------------------
# Compiled rows
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompiledMessage:
    """One interned message type: dense id + hoisted wire attributes."""

    mid: int
    name: str
    wire_name: str
    control: bool
    bits: Optional[Callable[[Any], int]]

    def bit_width(self, cord_config: Any) -> int:
        return self.bits(cord_config) if self.bits is not None else 0


@dataclass(frozen=True)
class CompiledIssue:
    """One int-coded issue row.

    Mirrors the :class:`IssueRule` attributes the interpreter reads
    (``guard``/``effects``/``escape``/…) so generic code paths work
    unchanged, and adds the opcodes plus the precomputed emit template
    the fast paths dispatch on.
    """

    rule: IssueRule
    guard_op: int
    action_op: int
    #: Static emission template: interned ids of the messages this row
    #: emits when driven against scratch state.  Dynamic fan-out rows
    #: (CORD Release notifications) still list one id per *distinct*
    #: message; the fast path knows how to expand them.
    emit_mids: Tuple[int, ...]

    # -- IssueRule mirror (kept flat: the interpreter reads these per
    # issue) ---------------------------------------------------------------
    name: str = ""
    ordered: bool = False
    guard: Any = None
    escape: str = "none"
    stall_cause: str = ""
    effects: Any = None
    timed_guard: Any = None
    combining: bool = False
    source_drain: bool = False


@dataclass(frozen=True)
class CompiledDelivery:
    """One int-coded delivery row."""

    rule: DeliveryRule
    mid: int
    name: str
    op: int


@dataclass(frozen=True)
class CompiledProtocol:
    """A spec lowered to interned ids and opcode rows."""

    spec: ProtocolSpec
    #: Messages indexed by mid.
    messages: Tuple[CompiledMessage, ...]
    msg_id: Mapping[str, int]
    issue: Mapping[Tuple[str, bool], CompiledIssue]
    #: Directory-consumed rows by wire ``msg_type``.
    dir_wire: Mapping[str, CompiledDelivery]
    #: Core-consumed rows by wire ``msg_type`` (shared ``load_resp``
    #: responses stay with the base-class path).
    core_wire: Mapping[str, CompiledDelivery]
    values_carriers: frozenset
    barrier_carrier: Optional[str]

    def message(self, name: str) -> CompiledMessage:
        return self.messages[self.msg_id[name]]


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------
_COMPILE_CACHE: Dict[str, CompiledProtocol] = {}


def _issue_template(spec: ProtocolSpec, rule: IssueRule,
                    msg_id: Mapping[str, int]) -> Tuple[int, ...]:
    """Drive ``rule`` once against scratch state to discover its static
    emit template (distinct message ids, in emission order)."""
    ps = _spec_mod._scratch_core_state(spec)
    mids: List[int] = []
    for emit in rule.effects(ps, 0, rule.ordered):
        mid = msg_id[emit.message]
        if mid not in mids:     # fan-out repeats one template entry
            mids.append(mid)
    return tuple(mids)


def compile_spec(spec: ProtocolSpec) -> CompiledProtocol:
    """Lower ``spec`` to a :class:`CompiledProtocol` (cached per name).

    Raises :class:`~repro.protocols.spec.LintError` when the spec fails
    the structural linter — compilation is the enforcement point for the
    invariants the fast paths rely on (declared barrier carrier,
    consumer sides, complete rows).
    """
    cached = _COMPILE_CACHE.get(spec.name)
    if cached is not None and cached.spec is spec:
        return cached
    if not spec.rules_complete:
        raise LintError(
            f"protocol {spec.name!r} has a messages-only table; "
            f"nothing to compile")
    problems = lint_spec(spec)
    if problems:
        raise LintError(
            f"refusing to compile {spec.name!r}: " + "; ".join(problems))

    msg_id: Dict[str, int] = {}
    values_carriers = set()
    for rule in spec.issue.values():
        if not rule.combining:
            continue
        ps = _spec_mod._scratch_core_state(spec)
        for emit in rule.effects(ps, 0, rule.ordered):
            values_carriers.add(emit.message)
    declared = [name for name, message in spec.messages.items()
                if message.barrier_carrier]
    barrier_carrier = declared[0] if declared else None

    messages: List[CompiledMessage] = []
    for name, message in spec.messages.items():
        mid = len(messages)
        msg_id[sys.intern(name)] = mid
        messages.append(CompiledMessage(
            mid=mid,
            name=name,
            wire_name=sys.intern(message.wire_name),
            control=message.control,
            bits=message.bits,
        ))

    issue: Dict[Tuple[str, bool], CompiledIssue] = {}
    for key, rule in spec.issue.items():
        issue[key] = CompiledIssue(
            rule=rule,
            guard_op=_guard_opcode(rule),
            action_op=_action_opcode(rule),
            emit_mids=_issue_template(spec, rule, msg_id),
            name=rule.name,
            ordered=rule.ordered,
            guard=rule.guard,
            escape=rule.escape,
            stall_cause=rule.stall_cause,
            effects=rule.effects,
            timed_guard=rule.timed_guard,
            combining=rule.combining,
            source_drain=rule.source_drain,
        )

    dir_wire: Dict[str, CompiledDelivery] = {}
    core_wire: Dict[str, CompiledDelivery] = {}
    for name, rule in spec.delivery.items():
        message = messages[msg_id[name]]
        row = CompiledDelivery(
            rule=rule,
            mid=message.mid,
            name=name,
            op=_delivery_opcode(rule),
        )
        if rule.core_side:
            if message.wire_name != "load_resp":
                core_wire[message.wire_name] = row
        else:
            dir_wire[message.wire_name] = row

    compiled = CompiledProtocol(
        spec=spec,
        messages=tuple(messages),
        msg_id=msg_id,
        issue=issue,
        dir_wire=dir_wire,
        core_wire=core_wire,
        values_carriers=frozenset(values_carriers),
        barrier_carrier=barrier_carrier,
    )
    _COMPILE_CACHE[spec.name] = compiled
    return compiled
