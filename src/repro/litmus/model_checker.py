"""Explicit-state model checker for the coherence protocols (§4.5).

This is the reproduction's Murphi substitute: an *untimed* operational model
of each protocol (CORD, SO, MP, SEQ-k, Tardis — individually or mixed per
thread) explored exhaustively by DFS over all interleavings of core steps
and message deliveries.  Like the paper's Murphi setup, state space is kept
tractable by bounding addresses, values and nodes to litmus-test scale.

The protocol logic is not re-implemented: the model interprets each
protocol's :mod:`repro.protocols.spec` transition table and reuses the exact
:class:`~repro.core.processor.CordProcessorState` and
:class:`~repro.core.directory.CordDirectoryState` state machines that drive
the timed simulator, so the artifact that is model-checked is the artifact
that is measured.

Network semantics are adversarial for the coherence protocols — messages
deliver in any order, with one exception: stores from the same core to the
same *address* stay ordered (real sources never have two conflicting writes
in flight: MSHRs merge or serialize them; this is per-location coherence,
orthogonal to the consistency ordering CORD provides).  MP's posted writes
are additionally FIFO per source-destination pair — which is precisely the
modelling difference that lets the checker exhibit MP's ISA2
release-consistency violation (§3.2) while proving CORD safe.

FIFO classes
------------
Each in-flight :class:`_Msg` carries an optional ``fifo_class`` tag: two
messages in the same class deliver in send (``seq``) order, everything else
is adversarial.  Three schemes are in play:

* ``("addr", core, addr)`` — per-location coherence for SO-, SEQ- and
  CORD-issued stores and atomics: one core's conflicting writes to one
  address never race each other.
* ``(core, dst_dir)`` — MP's posted-write channel: FIFO per
  source-destination pair (the point-to-point ordering of §3.2).
* ``None`` — unordered: acks, notifications, atomic responses and
  address-less barrier Releases.

The ``"addr"`` head tag keeps the per-address 3-tuples disjoint from MP's
2-tuple pairs, so mixed-protocol tests cannot alias the two schemes.

Performance
-----------
Exploration scales with transitions, so successor construction is
incremental: :meth:`_State.clone` shallow-copies the container lists and
clones a core/directory/value map only when a transition actually mutates
it (copy-on-write via the ``mutable_*`` accessors), untouched components
stay shared between states.  Visited-set keys memoize each component's
frozen form on the component itself (``_frozen_memo``) — valid because
every mutation path goes through clone-on-write, which starts from a fresh,
memo-less copy.  A sound partial-order reduction (see
:meth:`ModelChecker._reduce`) collapses the interleavings of commuting
deliveries (acks, notifications, atomic responses).

For every reachable final state the checker records the register outcome and
one representative execution history, validates the history with the
axiomatic RC checker, and reports deadlocks (unfinished programs with no
enabled transition) along with a witness of the first deadlocked state.
"""

from __future__ import annotations

import enum
import hashlib
import marshal
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.config import CordConfig, SystemConfig
from repro.consistency.checker import Violation, check_rc
from repro.consistency.history import EventKind, ExecutionHistory
from repro.consistency.ops import MemOp, OpKind, Ordering
from repro.core.directory import CordDirectoryState
from repro.core.messages import NotifyMeta, ReleaseMeta, RelaxedMeta, ReqNotifyMeta
from repro.core.processor import CordProcessorState
from repro.core.seqnum import SequenceSpace
from repro.core.tables import BoundedTable, PartitionedTable
from repro.litmus.dsl import LitmusTest
from repro.litmus.symmetry import Automorphism, find_automorphisms
from repro.litmus.visited import make_visited
from repro.memory.address import AddressMap
from repro.protocols.spec import (
    DeliveryContext,
    DeliveryRule,
    FifoClass,
    cord_barrier_batch_reason,
    get_spec,
    validate_checkable_protocol,
)
from repro.sim.stats import StatRegistry

__all__ = [
    "ModelChecker",
    "CheckResult",
    "FinalState",
    "DeadlockWitness",
    "ModelCheckError",
]


class ModelCheckError(RuntimeError):
    """Raised when exploration exceeds its configured bounds.

    The work completed before the budget ran out is not discarded:
    ``partial_result`` holds a :class:`CheckResult` with
    ``complete=False`` covering everything explored so far, and
    ``states_explored``/``finals``/``deadlocks`` mirror its fields for
    convenience.  (Construct the checker with ``partial=True`` to receive
    that partial result as a return value instead of an exception.)
    """

    def __init__(self, message: str,
                 partial_result: Optional["CheckResult"] = None) -> None:
        super().__init__(message)
        self.partial_result = partial_result

    @property
    def states_explored(self) -> int:
        return self.partial_result.states_explored if self.partial_result else 0

    @property
    def finals(self) -> List["FinalState"]:
        return self.partial_result.finals if self.partial_result else []

    @property
    def deadlocks(self) -> int:
        return self.partial_result.deadlocks if self.partial_result else 0


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------
@dataclass
class _Msg:
    seq: int
    kind: str
    dst_dir: Optional[int]
    dst_core: Optional[int]
    fields: Dict[str, Any]
    #: FIFO-ordering class (see the module docstring): ``("addr", core,
    #: addr)`` for per-location coherence, ``(core, dst_dir)`` for MP's
    #: posted-write pairs, ``None`` for unordered messages.
    fifo_class: Optional[Tuple[Any, ...]] = None
    #: Memoized frozen form of ``fields`` — messages are immutable once
    #: sent, so the form is computed at most once per message.
    _frozen: Optional[Tuple] = field(default=None, repr=False, compare=False)

    def frozen_fields(self) -> Tuple:
        if self._frozen is None:
            self._frozen = _freeze(self.fields)
        return self._frozen


@dataclass
class _CoreState:
    pc: int = 0
    regs: Dict[str, int] = field(default_factory=dict)
    cord: Optional[CordProcessorState] = None
    so_outstanding: int = 0
    fence_issued: bool = False
    blocked: bool = False        # awaiting an atomic RMW response
    seq_next: int = 0            # SEQ-k: next sequence number to assign
    seq_outstanding: int = 0     # SEQ-k: stores not yet committed

    def clone(self) -> "_CoreState":
        return _CoreState(
            pc=self.pc,
            regs=dict(self.regs),
            cord=self.cord.clone() if self.cord is not None else None,
            so_outstanding=self.so_outstanding,
            fence_issued=self.fence_issued,
            blocked=self.blocked,
            seq_next=self.seq_next,
            seq_outstanding=self.seq_outstanding,
        )


@dataclass
class _State:
    """One explored interleaving point.

    Cloning is copy-on-write: :meth:`clone` shallow-copies the component
    lists, and a transition that mutates core ``i`` / directory ``d`` /
    value map ``d`` must first take it via :meth:`mutable_core` /
    :meth:`mutable_dir` / :meth:`mutable_values`, which clones the
    component once per state.  Read paths (:meth:`ModelChecker._enabled`,
    key construction) use the plain lists.  ``events``, ``seq_committed``
    and ``network`` are copied eagerly — they are flat containers of
    immutable entries, so a list/dict copy suffices.
    """

    cores: List[_CoreState]
    dirs: List[CordDirectoryState]
    values: List[Dict[int, int]]     # per directory
    network: List[_Msg]
    next_seq: int
    events: List[Tuple] = field(default_factory=list)  # history log
    # SEQ-k: committed-store watermark per (directory, core).
    seq_committed: Dict[Tuple[int, int], int] = field(default_factory=dict)
    # Components this state owns (already cloned since the last clone()).
    _owned_cores: Set[int] = field(default_factory=set, repr=False)
    _owned_dirs: Set[int] = field(default_factory=set, repr=False)
    _owned_values: Set[int] = field(default_factory=set, repr=False)

    def clone(self) -> "_State":
        return _State(
            cores=list(self.cores),
            dirs=list(self.dirs),
            values=list(self.values),
            network=list(self.network),
            next_seq=self.next_seq,
            events=list(self.events),
            seq_committed=dict(self.seq_committed),
        )

    def mutable_core(self, index: int) -> _CoreState:
        if index not in self._owned_cores:
            self.cores[index] = self.cores[index].clone()
            self._owned_cores.add(index)
        return self.cores[index]

    def mutable_dir(self, index: int) -> CordDirectoryState:
        if index not in self._owned_dirs:
            self.dirs[index] = self.dirs[index].clone()
            self._owned_dirs.add(index)
        return self.dirs[index]

    def mutable_values(self, index: int) -> Dict[int, int]:
        if index not in self._owned_values:
            self.values[index] = dict(self.values[index])
            self._owned_values.add(index)
        return self.values[index]


def _attr_state(obj: Any) -> Optional[Dict[str, Any]]:
    """``name -> value`` attribute map, or ``None`` for non-object values.

    Covers plain ``__dict__`` instances *and* ``__slots__``-only classes
    (slots collected across the MRO), so a slots adoption in a class that
    reaches the generic walk cannot silently shrink its frozen form to an
    empty attribute tuple.
    """
    state: Dict[str, Any] = {}
    found = False
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            found = True
            if name in ("__dict__", "__weakref__"):
                continue
            try:
                state[name] = getattr(obj, name)
            except AttributeError:
                pass  # slot declared but never assigned
    if hasattr(obj, "__dict__"):
        found = True
        state.update(obj.__dict__)
    return state if found else None


# Compact frozen forms of the CORD protocol components (DESIGN.md §4.10).
# Each keeps only the fields a transition can change.  Everything else is
# fixed for the whole run or is bookkeeping no transition reads: the
# ``CordConfig``, table names/capacities/entry widths and the epoch's bit
# width all come from the run's one ``cord_config``; ``proc``/``directory``
# equal the component's position in the key; ``on_transition`` is always
# None in the checker; and the issue/commit/stall/occupancy counters only
# count.  tests/litmus/test_checker_keys.py classifies every attribute of
# these classes, so a new field cannot drop out of the key unnoticed.
# Table entries are immutable ints and int tuples, so they need no freezing.

def _freeze_table(table: BoundedTable) -> Tuple:
    return tuple(sorted(table._entries.items()))


def _freeze_partitioned(table: PartitionedTable) -> Tuple:
    return tuple((proc, _freeze_table(part))
                 for proc, part in sorted(table._partitions.items()))


def _freeze_proc(proc: CordProcessorState) -> Tuple:
    return (proc.epoch.value, _freeze_table(proc.store_counters),
            _freeze_table(proc.unacked))


def _freeze_dir(directory: CordDirectoryState) -> Tuple:
    return (_freeze_partitioned(directory.store_counters),
            _freeze_partitioned(directory.notification_counters),
            tuple(sorted(directory.largest_committed.items())))


#: Exact-type table of compact frozen forms (subclasses take the generic
#: walk, so they cannot inherit a form that misses their own fields).
_COMPACT_FORMS: Dict[type, Callable[[Any], Any]] = {
    CordProcessorState: _freeze_proc,
    CordDirectoryState: _freeze_dir,
    BoundedTable: _freeze_table,
    PartitionedTable: _freeze_partitioned,
    SequenceSpace: lambda space: space.value,
}

#: Values that are their own frozen form (exact types: an ``IntEnum`` must
#: still take the enum branch).
_ATOMIC_TYPES = frozenset((int, float, str, bool, type(None)))


def _freeze(obj: Any) -> Any:
    """Canonical hashable form of protocol state (for the visited set)."""
    kind = type(obj)
    if kind in _ATOMIC_TYPES:
        return obj
    compact = _COMPACT_FORMS.get(kind)
    if compact is not None:
        return compact(obj)
    if isinstance(obj, enum.Enum):
        return (kind.__name__, obj.value)
    if isinstance(obj, dict):
        return tuple(sorted((_freeze(k), _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(_freeze(x) for x in obj))
    if isinstance(obj, (int, float, str)):
        return obj  # non-enum subclasses of the atomic types
    attrs = _attr_state(obj)
    if attrs is not None:
        return (kind.__name__, tuple(
            (name, _freeze(value)) for name, value in sorted(attrs.items())
        ))
    raise TypeError(f"cannot freeze {type(obj)}")


def _freeze_cached(obj: Any) -> Any:
    """Per-component ``_freeze`` memoization keyed on mutation.

    The memo lives on the component itself; it stays valid because every
    checker mutation goes through clone-on-write and clones never carry
    the memo.  (The compact forms read only protocol fields, so the memo
    never perturbs the frozen form.)  Objects that cannot take the
    attribute — ``__slots__``-only classes without a ``_frozen_memo``
    slot — are simply re-frozen each time.
    """
    memo = getattr(obj, "_frozen_memo", None)
    if memo is None:
        memo = _freeze(obj)
        try:
            obj._frozen_memo = memo
        except AttributeError:
            pass
    return memo


# ---------------------------------------------------------------------------
# Symmetry: component permutation (DESIGN.md §4.11)
# ---------------------------------------------------------------------------
# The frozen forms of the protocol components embed core/directory indices
# as table keys (directory ids, per-processor partitions), so permuting a
# frozen form textually would couple this code to the form's layout.
# Instead each component is rebuilt as the object the permuted execution
# would have produced and frozen with the ordinary ``_freeze`` — one code
# path, no format assumptions.  Like ``_freeze_cached``, the result is
# memoized on the component per automorphism (``_frozen_perm``, which no
# compact form reads and every clone drops), so COW sharing amortizes the
# rebuild across states.

def _digest_of(key: Any) -> bytes:
    """Canonical 128-bit digest of a visited-set key.

    BLAKE2b hashes the key's ``marshal`` bytes at format version 2.  On the
    key domain (nested tuples of ints, floats, strings, bools and None —
    ``_freeze`` guarantees no live objects remain) the encoding is
    injective and type-tagged, so ``True``, ``1`` and ``1.0`` differ.
    Version 2 writes no back-references: equal keys give equal bytes
    whichever sub-tuples or strings are shared or interned objects.  Later
    versions (the default) and ``pickle`` memoize shared objects, so their
    bytes depend on how the key was built.  A value outside the domain
    raises ``ValueError``.

    marshal's format may change between Python versions.  That is harmless
    here: a digest never leaves the process that computed it, and the
    SQLite spill file is scratch for one run.
    """
    return hashlib.blake2b(marshal.dumps(key, 2), digest_size=16).digest()


def _permuted_frozen(component: Any, auto: Automorphism, builder) -> Tuple:
    memo = component.__dict__.get("_frozen_perm")
    if memo is None:
        memo = {}
        component._frozen_perm = memo
    form = memo.get(auto.index)
    if form is None:
        form = _freeze(builder(component, auto))
        memo[auto.index] = form
    return form


def _build_permuted_proc(proc: CordProcessorState,
                         auto: Automorphism) -> CordProcessorState:
    """The processor state core σ(i) would hold in the permuted run."""
    twin = CordProcessorState.__new__(CordProcessorState)
    twin.proc = auto.cores[proc.proc]
    twin.config = proc.config
    twin.epoch = proc.epoch  # per-core epoch counting is identity-blind
    counters: BoundedTable = BoundedTable(
        "proc{}.store_counters".format(twin.proc),
        proc.store_counters.capacity, proc.store_counters.entry_bytes,
    )
    for directory, count in proc.store_counters:
        counters._entries[auto.dirs.get(directory, directory)] = count
    twin.store_counters = counters
    unacked: BoundedTable = BoundedTable(
        "proc{}.unacked_epochs".format(twin.proc),
        proc.unacked.capacity, proc.unacked.entry_bytes,
    )
    for (directory, epoch), flag in proc.unacked:
        unacked._entries[(auto.dirs.get(directory, directory), epoch)] = flag
    twin.unacked = unacked
    # Statistics and the observer are outside the compact frozen form; set
    # them so the twin is a complete instance.
    twin.relaxed_issued = 0
    twin.releases_issued = 0
    twin.stalls = {}
    twin.on_transition = None
    return twin


def _permute_partitioned(table: PartitionedTable, name: str,
                         auto: Automorphism) -> PartitionedTable:
    twin = PartitionedTable.__new__(PartitionedTable)
    twin.name = name
    twin.entries_per_proc = table.entries_per_proc
    twin.entry_bytes = table.entry_bytes
    twin._partitions = {}
    for proc, sub in table._partitions.items():
        image = auto.cores[proc]
        part: BoundedTable = BoundedTable(
            "{}[p{}]".format(name, image), sub.capacity, sub.entry_bytes)
        part._entries = dict(sub._entries)  # keyed by epoch: invariant
        twin._partitions[image] = part
    return twin


def _build_permuted_dir(directory: CordDirectoryState,
                        auto: Automorphism) -> CordDirectoryState:
    """The directory state slice δ(d) would hold in the permuted run."""
    twin = CordDirectoryState.__new__(CordDirectoryState)
    twin.directory = auto.dirs.get(directory.directory, directory.directory)
    twin.config = directory.config
    twin.store_counters = _permute_partitioned(
        directory.store_counters,
        "dir{}.store_counters".format(twin.directory), auto)
    twin.notification_counters = _permute_partitioned(
        directory.notification_counters,
        "dir{}.notification_counters".format(twin.directory), auto)
    twin.largest_committed = {
        auto.cores[proc]: epoch
        for proc, epoch in directory.largest_committed.items()
    }
    twin.relaxed_committed = 0
    twin.releases_committed = 0
    twin.notifications_sent = 0
    return twin


def _permute_meta(meta: Any, auto: Automorphism) -> Any:
    if isinstance(meta, ReqNotifyMeta):
        return replace(meta, proc=auto.cores[meta.proc],
                       noti_dst=auto.dirs.get(meta.noti_dst, meta.noti_dst))
    if isinstance(meta, (RelaxedMeta, ReleaseMeta, NotifyMeta)):
        return replace(meta, proc=auto.cores[meta.proc])
    raise TypeError("cannot permute meta {!r}".format(meta))


@dataclass
class FinalState:
    """One distinct terminal outcome."""

    outcome: Dict[str, int]
    history: ExecutionHistory
    violations: List[Violation]


@dataclass
class DeadlockWitness:
    """Snapshot of the first deadlocked state (§4.5 debugging aid).

    ``cores`` holds one dict per core — program counter (``pc`` of
    ``ops``), ``blocked``/outstanding-store status and the op it was
    stuck on; ``messages`` lists the in-flight message kinds with their
    destinations.  Serializes losslessly for the harness result cache.
    """

    cores: List[Dict[str, Any]]
    messages: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {"cores": [dict(c) for c in self.cores],
                "messages": [dict(m) for m in self.messages]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeadlockWitness":
        return cls(cores=[dict(c) for c in data["cores"]],
                   messages=[dict(m) for m in data["messages"]])

    def __str__(self) -> str:
        lines = ["deadlock witness:"]
        for core in self.cores:
            status = []
            if core["done"]:
                status.append("done")
            else:
                status.append(f"next={core['next_op']}")
            if core["blocked"]:
                status.append("blocked-on-rmw")
            if core["so_outstanding"]:
                status.append(f"so_out={core['so_outstanding']}")
            if core["seq_outstanding"]:
                status.append(f"seq_out={core['seq_outstanding']}")
            if core["fence_issued"]:
                status.append("fence-issued")
            if core.get("cord_unacked"):
                status.append(f"unacked={core['cord_unacked']}")
            lines.append(
                f"  P{core['core']} [{core['protocol']}] "
                f"pc={core['pc']}/{core['ops']} " + " ".join(status)
            )
        if self.messages:
            flight = ", ".join(
                m["kind"] + (
                    f"->dir{m['dst_dir']}" if m["dst_dir"] is not None
                    else f"->P{m['dst_core']}" if m["dst_core"] is not None
                    else ""
                )
                for m in self.messages
            )
            lines.append(f"  in flight: {flight}")
        else:
            lines.append("  in flight: (none)")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Result of exhaustively checking one litmus test under one protocol."""

    test: LitmusTest
    protocol: str
    finals: List[FinalState]
    deadlocks: int
    states_explored: int
    #: False when exploration stopped at ``max_states`` (``partial=True``
    #: runs only; the default behaviour raises :class:`ModelCheckError`).
    complete: bool = True
    #: Snapshot of the first deadlocked state, if any.
    first_deadlock: Optional[DeadlockWitness] = None
    #: Exploration observability: states/sec, transitions, visited-set
    #: hit rate, peak frontier, POR prunes (see :meth:`ModelChecker.run`).
    stats: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def states_per_sec(self) -> float:
        return self.states_explored / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def outcomes(self) -> List[Dict[str, int]]:
        return [f.outcome for f in self.finals]

    @property
    def forbidden_reached(self) -> List[Dict[str, int]]:
        reached = []
        for final in self.finals:
            if self.test.matches_forbidden(final.outcome) is not None:
                reached.append(final.outcome)
        return reached

    @property
    def rc_violations(self) -> List[Violation]:
        return [v for final in self.finals for v in final.violations]

    @property
    def passed(self) -> bool:
        """Safe: no forbidden outcome, no RC violation, no deadlock."""
        return (
            not self.forbidden_reached
            and not self.rc_violations
            and self.deadlocks == 0
        )

    def reaches(self, pattern: Dict[str, int]) -> bool:
        return any(
            all(outcome.get(reg) == val for reg, val in pattern.items())
            for outcome in self.outcomes
        )


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------
class _CheckerContext(DeliveryContext):
    """Backs a table :class:`~repro.protocols.spec.DeliveryRule` with
    ``_State`` mutations.

    Delivery guards run read-only against the shared components; effects
    run against the copy-on-write ``mutable_*`` accessors.  The message
    wire format (field names, reply shapes, FIFO classes) produced here is
    pinned by the committed checker signatures (states/transitions/finals,
    not just outcomes).
    """

    __slots__ = ("_checker", "_state", "_msg", "_mutate", "_dir", "_core")

    def __init__(self, checker: "ModelChecker", state: _State, msg: _Msg,
                 mutate: bool) -> None:
        self._checker = checker
        self._state = state
        self._msg = msg
        self._mutate = mutate
        self._dir = None
        self._core = None

    @property
    def dir_state(self) -> Any:
        dir_state = self._dir
        if dir_state is None:
            directory = self._msg.dst_dir
            dir_state = self._dir = (
                self._state.mutable_dir(directory) if self._mutate
                else self._state.dirs[directory]
            )
        return dir_state

    @property
    def core(self) -> Any:
        core = self._core
        if core is None:
            core = self._core = self._state.mutable_core(self._msg.dst_core)
        return core

    def commit(self, fields: Any) -> None:
        state = self._state
        state.mutable_values(self._msg.dst_dir)[fields["addr"]] = \
            fields["value"]
        state.events.append((
            fields["core"], fields["pc"], EventKind.STORE,
            fields["ordering"], fields["addr"], fields["value"],
        ))

    def commit_barrier(self) -> None:
        pass  # barrier Releases carry no value

    def perform_atomic(self, fields: Any) -> None:
        self._checker._perform_atomic(self._state, self._msg)

    def send_core(self, message: str, fields: Any) -> None:
        self._checker._send(
            self._state, message, dict(fields),
            dst_core=self._msg.fields["core"],
            fifo_class=self._checker._reply_fifo[message],
        )

    def send_dir(self, message: str, dst_dir: int, fields: Any) -> None:
        self._checker._send(
            self._state, message, dict(fields), dst_dir=dst_dir,
            fifo_class=self._checker._reply_fifo[message],
        )

    def ack_release(self, meta: Any) -> None:
        self._checker._send(
            self._state, "rel_ack",
            {"dir": self._msg.dst_dir, "epoch": meta.epoch},
            dst_core=meta.proc,
            fifo_class=self._checker._reply_fifo["rel_ack"],
        )

    def seq_committed(self, proc: int) -> int:
        return sum(
            count for (d, c), count in self._state.seq_committed.items()
            if c == proc
        )

    def seq_commit(self, proc: int) -> None:
        state = self._state
        key = (self._msg.dst_dir, proc)
        state.seq_committed[key] = state.seq_committed.get(key, 0) + 1
        state.mutable_core(proc).seq_outstanding -= 1

    def complete_atomic(self, fields: Any) -> None:
        core = self.core
        register = fields.get("register")
        if register is not None:
            core.regs[register] = fields["old"]
        core.blocked = False
        core.pc += 1

    def wake(self) -> None:
        pass  # enabledness is re-evaluated per state


def _by_issuer(rules: List[Optional[DeliveryRule]]) -> DeliveryRule:
    """A delivery row that runs ``rules[core]`` for a message issued by
    ``core`` (its ``core`` field)."""
    def guard(ctx: DeliveryContext, fields: Any) -> bool:
        return rules[fields["core"]].enabled(ctx, fields)

    def effects(ctx: DeliveryContext, fields: Any) -> None:
        rules[fields["core"]].effects(ctx, fields)

    first = next(rule for rule in rules if rule is not None)
    return replace(first, guard=guard, effects=effects)


class ModelChecker:
    """Exhaustive interleaving exploration of a litmus test.

    Parameters
    ----------
    test:
        The litmus test.
    protocol:
        ``"cord"``, ``"so"``, ``"mp"``, ``"seq<k>"`` or ``"tardis"`` —
        the protocol each thread uses (overridden per-thread by
        ``test.thread_protocols``).
    config:
        System geometry (defaults to one host per location-home plus one).
    cord_config:
        CORD table provisioning — pass small tables to explore the
        under-provisioned corner cases of §4.5.
    tso:
        Model TSO mode (§6): every store is ordered.
    sc:
        Model sequential consistency: TSO's store ordering plus
        store->load ordering (loads wait for the issuing core's stores
        to commit).
    max_states:
        Exploration budget; exceeding it raises :class:`ModelCheckError`
        (or returns a ``complete=False`` result with ``partial=True``).
    partial:
        Return the partial :class:`CheckResult` instead of raising when
        the budget is exhausted.
    por:
        Enable the partial-order reduction over commuting deliveries
        (sound: reduced and unreduced exploration reach identical
        outcome sets, deadlock counts and violations — pinned by the
        differential test).  Disable to explore every interleaving.
    stats:
        Optional :class:`~repro.sim.stats.StatRegistry`; when given, the
        run accumulates ``modelcheck.*`` counters (states, transitions,
        visited hits, POR prunes, peak frontier, wall seconds, symmetry
        canonicalizations) into it.
    symmetry:
        Canonicalize visited-set keys under the litmus test's
        automorphism group (core-id, location/address, value and
        register permutations — see :mod:`repro.litmus.symmetry` and
        DESIGN.md §4.11).  Sound: final-outcome sets are recorded
        orbit-expanded, so verdicts and outcome sets match the
        unreduced exploration exactly.  Tests with a trivial group pay
        nothing.
    visited_db:
        Path for a disk-backed visited set: exploration starts in RAM
        and spills to SQLite at ``spill_threshold`` entries, bounding
        memory for overnight full-bound runs.  None keeps the visited
        set purely in memory.
    spill_threshold:
        Entry count at which a ``visited_db`` run spills to disk
        (default :data:`repro.litmus.visited.DEFAULT_SPILL_THRESHOLD`).

    Successor generation interprets each core's declarative transition
    table (:mod:`repro.protocols.spec`) — the same table objects the
    timed interpreter executes — so the checked protocol is the measured
    protocol.  ``tests/data/checker_signatures.json`` pins the resulting
    state graphs (states, transitions, deadlocks, outcome sets).
    """

    def __init__(
        self,
        test: LitmusTest,
        protocol: str = "cord",
        config: Optional[SystemConfig] = None,
        cord_config: Optional[CordConfig] = None,
        tso: bool = False,
        sc: bool = False,
        max_states: int = 2_000_000,
        partial: bool = False,
        por: bool = True,
        stats: Optional[StatRegistry] = None,
        symmetry: bool = True,
        visited_db: Optional[str] = None,
        spill_threshold: Optional[int] = None,
    ) -> None:
        self.test = test
        self.protocol = protocol
        self.sc = sc
        if sc:
            tso = True  # SC subsumes TSO's store-store ordering
        self.config = config or test.default_config()
        self.cord_config = cord_config or self.config.cord
        self.tso = tso
        self.max_states = max_states
        self.partial = partial
        self.por = por
        self.stats = stats
        self.symmetry = symmetry
        self.visited_db = visited_db
        self.spill_threshold = spill_threshold
        self.address_map = AddressMap(self.config)
        self.programs = test.compile(self.config)
        #: ``(loc, "mem:" + loc, address)`` per location, resolved once
        #: for every terminal state's outcome.
        self._final_locs = tuple(
            (loc, "mem:" + loc, test.resolve_address(self.config, loc))
            for loc in test.locations)
        self.core_protocols = list(
            test.thread_protocols or [protocol] * test.threads
        )
        if len(self.core_protocols) != test.threads:
            raise ValueError("thread_protocols length != thread count")
        for proto in self.core_protocols:
            validate_checkable_protocol(proto)
        # Per-core transition table: successor generation runs the same
        # rows the timed interpreter executes.
        self._specs = [get_spec(proto) for proto in self.core_protocols]
        so_spec = get_spec("so")  # mixed-mode ``via: so`` carriers
        # The table each op issues by, resolved once per core and pc: a
        # CORD core's ``via: so`` stores and RMWs take SO's rows (§4.5
        # mixed mode).
        self._issue_specs = [
            [so_spec if spec.core_state == "cord"
             and op.meta.get("via") == "so" else spec for op in program]
            for spec, program in zip(self._specs, self.programs)
        ]
        # Each core's table, with SO's rules underneath for the via-so
        # carriers a CORD core can emit.  A kind whose rule differs between
        # this test's cores (``atomic`` on a SEQ or Tardis core next to a
        # CORD or SO one) is delivered by the rule of the core that issued
        # it.
        tables = [{**so_spec.delivery, **spec.delivery}
                  for spec in self._specs]
        self._delivery_rules: Dict[str, Any] = {}
        for table in tables:
            self._delivery_rules.update(table)
        for kind in list(self._delivery_rules):
            rules = [table.get(kind) for table in tables]
            if len(set(rules) - {None}) > 1:
                self._delivery_rules[kind] = _by_issuer(rules)
        # Every ordering fact comes from the same tables, built the same
        # way.  An issued message takes its FIFO class from its core's
        # table; a reply (ack, notification, RMW response) takes its class
        # from the tables in play, unless they disagree on it.
        self._messages = [{**so_spec.messages, **spec.messages}
                          for spec in self._specs]
        in_play = [message for table in self._messages
                   for message in table.values()]
        fifos: Dict[str, Set[FifoClass]] = {}
        for message in in_play:
            fifos.setdefault(message.name, set()).add(message.fifo)
        self._reply_fifo = {kind: classes.pop().key()
                            for kind, classes in fifos.items()
                            if len(classes) == 1}
        #: Kinds whose delivery commutes with every other enabled or
        #: future action (``MessageSpec.ample``): singleton ample sets,
        #: see :meth:`_reduce`.
        self._ample = frozenset(
            message.name for message in in_play if message.ample)
        #: In-flight store carriers a core's own later load observes
        #: (``MessageSpec.forwards_store``, :meth:`_read_for_core`).
        #: Disjoint from ``_ample``, so forwarding never reads state
        #: an ample delivery writes and the POR argument is untouched.
        self._forwarding = frozenset(
            message.name for message in in_play if message.forwards_store)
        self._autos: List[Automorphism] = (
            find_automorphisms(self) if symmetry else []
        )
        self._sym_canon = 0

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _initial(self) -> _State:
        cores = []
        for core_index, spec in enumerate(self._specs):
            core = _CoreState()
            if spec.core_state == "cord":
                core.cord = CordProcessorState(core_index, self.cord_config)
            cores.append(core)
        dirs = [
            CordDirectoryState(d, self.test.threads, self.cord_config)
            for d in range(self.config.total_directories)
        ]
        values = [dict() for _ in dirs]
        return _State(cores=cores, dirs=dirs, values=values, network=[],
                      next_seq=0)

    def _home(self, addr: int) -> int:
        return self.address_map.home_directory(addr).index

    def _read(self, state: _State, addr: int) -> int:
        return state.values[self._home(addr)].get(addr, 0)

    def _read_for_core(self, state: _State, core_index: int,
                       addr: int) -> int:
        """What a load by ``core_index`` observes: the youngest of the
        core's own in-flight stores to ``addr``, else the committed value.

        The timed machine gets read-own-write for free — a ``load_req``
        queues behind the core's earlier store on the same FIFO link to
        the home (and the write-combining buffer flushes before loads) —
        but here loads read directory state directly, so without this
        forwarding the adversarial network could delay a store past its
        own core's later load and fabricate a stale read no
        release-consistent machine exhibits.  Atomics never need it: the
        issuing core blocks until the RMW response.
        """
        forwarding = self._forwarding
        for msg in reversed(state.network):
            if (msg.kind in forwarding
                    and msg.fields.get("core") == core_index
                    and msg.fields.get("addr") == addr):
                return msg.fields["value"]
        return self._read(state, addr)

    # ------------------------------------------------------------------
    # Enabled actions
    # ------------------------------------------------------------------
    def _enabled(self, state: _State) -> List[Tuple]:
        actions: List[Tuple] = []
        for core_index in range(self.test.threads):
            if self._core_enabled(state, core_index):
                actions.append(("core", core_index))
        fifo_heads: Dict[Tuple, int] = {}
        for msg in state.network:
            if msg.fifo_class is not None:
                head = fifo_heads.get(msg.fifo_class)
                if head is None or msg.seq < head:
                    fifo_heads[msg.fifo_class] = msg.seq
        for position, msg in enumerate(state.network):
            if msg.fifo_class is not None and msg.seq != fifo_heads[msg.fifo_class]:
                continue
            if self._delivery_enabled(state, msg):
                actions.append(("deliver", position))
        return actions

    def _reduce(self, state: _State, actions: List[Tuple]) -> List[Tuple]:
        """Partial-order reduction: collapse commuting deliveries.

        If some enabled action delivers a message whose kind is in
        ``_ample``, explore *only* that delivery (a singleton
        persistent/ample set).  Soundness (DESIGN.md §4 has the full
        argument): such a delivery (1) is always enabled and stays
        enabled (``fifo_class is None`` and ``_delivery_enabled`` is
        unconditional for these kinds), (2) only *enables* other actions
        — ``so_ack`` decrements a guard counter toward zero, ``notify``
        raises a monotone notification count, ``atomic_resp`` unblocks
        its core — so no pruned action is ever lost, and (3) commutes
        with every coenabled action: the state it writes (one core's ack
        counter / one directory's notification counter / a blocked
        core's registers) is read by no action that can fire before it.
        Terminal states (finals *and* deadlocks) of the reduced graph
        therefore coincide with the full graph's, which the differential
        test verifies over the whole litmus suite.
        """
        if len(actions) <= 1:
            return actions
        ample = self._ample
        for action in actions:
            if action[0] != "deliver":
                continue
            if state.network[action[1]].kind in ample:
                return [action]
        return actions

    def _core_enabled(self, state: _State, core_index: int) -> bool:
        core = state.cores[core_index]
        program = self.programs[core_index]
        if core.blocked or core.pc >= len(program):
            return False
        op = program[core.pc]
        ordered = op.ordering.is_release or self.tso

        if op.kind is OpKind.COMPUTE:
            return True
        if op.kind in (OpKind.LOAD, OpKind.LOAD_UNTIL):
            if self.sc and not self._stores_drained(state, core_index):
                return False  # SC: loads wait for the core's own stores
        if op.kind is OpKind.LOAD:
            return True
        if op.kind is OpKind.LOAD_UNTIL:
            return (self._read_for_core(state, core_index, op.addr)
                    >= op.value)
        spec = self._issue_specs[core_index][core.pc]
        if op.kind is OpKind.FENCE:
            if not op.ordering.is_release:
                return True
            fence = spec.fence
            if (fence.barrier_broadcast and not core.fence_issued
                    and core.cord.pending_directories()):
                # The whole barrier batch must fit before the fence
                # fires (never-fitting batches report as deadlocks,
                # not mid-step crashes).
                return cord_barrier_batch_reason(core.cord) is None
            return fence.done(core)
        # Stores and atomics (RMWs follow the same issue rules per class).
        op_class = "atomic" if op.kind is OpKind.ATOMIC else "store"
        rule = spec.issue_rule(op_class, ordered)
        reason = rule.guard(core, self._home(op.addr))
        if reason is None:
            return True
        if rule.escape == "barrier":
            # Stalled Relaxed op: enabled if the barrier-release escape
            # hatch can fire (§4.4).
            return rule.escape_guard(core, self._home(op.addr)) is None
        return False

    def _stores_drained(self, state: _State, core_index: int) -> bool:
        """True when the core has no store still in flight (SC gating).

        A store is in flight while its carrier (a ``_forwarding``
        message from this core) is on the network, or while the core's
        completion counters still wait for its ack or commit.  MP stores
        have no completion signal, so only the network test sees them;
        for the other tables the counters already imply it.
        """
        core = state.cores[core_index]
        if core.so_outstanding > 0:
            return False
        if core.seq_outstanding > 0:
            # SEQ stores complete at commit; SC load gating must wait for
            # them like any other in-flight store (divergence fix: the
            # timed interpreter drains, the checker previously did not).
            return False
        if core.cord is not None and core.cord.total_unacked() > 0:
            return False
        forwarding = self._forwarding
        return not any(
            msg.kind in forwarding
            and msg.fields.get("core") == core_index
            for msg in state.network
        )

    def _delivery_enabled(self, state: _State, msg: _Msg) -> bool:
        rule = self._delivery_rules[msg.kind]
        if rule.guard is None:
            return True
        ctx = _CheckerContext(self, state, msg, mutate=False)
        return rule.guard(ctx, msg.fields)

    # ------------------------------------------------------------------
    # Transition
    # ------------------------------------------------------------------
    def _apply(self, state: _State, action: Tuple) -> _State:
        new = state.clone()
        if action[0] == "core":
            self._step_core(new, action[1])
        else:
            msg = new.network.pop(action[1])
            self._deliver(new, msg)
        return new

    def _send(
        self,
        state: _State,
        kind: str,
        fields: Dict[str, Any],
        dst_dir: Optional[int] = None,
        dst_core: Optional[int] = None,
        fifo_class: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        state.network.append(_Msg(
            seq=state.next_seq, kind=kind, dst_dir=dst_dir, dst_core=dst_core,
            fields=fields, fifo_class=fifo_class,
        ))
        state.next_seq += 1

    def _step_core(self, state: _State, core_index: int) -> None:
        core = state.mutable_core(core_index)
        op = self.programs[core_index][core.pc]
        ordered = op.ordering.is_release or self.tso

        if op.kind is OpKind.COMPUTE:
            core.pc += 1
            return
        if op.kind in (OpKind.LOAD, OpKind.LOAD_UNTIL):
            value = self._read_for_core(state, core_index, op.addr)
            if op.register is not None:
                core.regs[op.register] = value
            state.events.append(
                (core_index, core.pc, EventKind.LOAD, op.ordering, op.addr, value)
            )
            core.pc += 1
            return
        spec = self._issue_specs[core_index][core.pc]
        if op.kind is OpKind.FENCE:
            # Only a barrier-broadcasting (CORD) release fence issues
            # messages; every other fence gates in ``_core_enabled``
            # (SO/SEQ drain their outstanding stores; MP and Tardis order
            # nothing here — Tardis commits strictly in order, so its
            # fences are free) and then simply advances.
            if not op.ordering.is_release or not spec.fence.barrier_broadcast:
                core.pc += 1
                return
            pending = core.cord.pending_directories()
            if not core.fence_issued and pending:
                rule = spec.issue_rule("store", True)
                for directory in pending:
                    self._table_issue(state, core_index, spec, rule, None,
                                      directory, barrier=True)
                core.fence_issued = True
                return
            core.fence_issued = False
            core.pc += 1
            return

        home = self._home(op.addr)
        if op.kind is OpKind.ATOMIC:
            self._table_step_atomic(state, core_index, spec, op, home,
                                    ordered)
            return

        rule = spec.issue_rule("store", ordered)
        if rule.escape == "barrier" and rule.guard(core, home) is not None:
            # Escape hatch: inject an empty Release barrier (§4.4); the pc
            # does not advance — the store retries afterwards.
            self._table_issue(state, core_index, spec,
                              spec.issue_rule("store", True), None, home,
                              barrier=True)
            return
        self._table_issue(state, core_index, spec, rule, op, home)
        core.pc += 1

    # ------------------------------------------------------------------
    # Table-driven issue (the untimed interpreter over protocols.spec)
    # ------------------------------------------------------------------
    def _table_issue(
        self,
        state: _State,
        core_index: int,
        spec: Any,
        rule: Any,
        op: Optional[MemOp],
        home: int,
        barrier: bool = False,
    ) -> None:
        """Run one issue rule's effects and put its emissions on the wire.

        The rule mutates the core's protocol state and returns the ordered
        :class:`~repro.protocols.spec.Emit` list; emission order fixes
        message sequence numbers, so it is semantic.
        """
        core = state.mutable_core(core_index)
        messages = self._messages[core_index]
        emits = rule.effects(core, home, rule.ordered, barrier=barrier)
        for emit in emits:
            fields = dict(emit.fields)
            addr = None
            if emit.carries_op:
                if op is not None:
                    fields["addr"] = op.addr
                    fields["value"] = op.value
                    fields["pc"] = core.pc
                    fields["ordering"] = op.ordering
                    addr = op.addr
                fields["core"] = core_index
            dst = emit.dst_dir if emit.dst_dir is not None else home
            self._send(state, emit.message, fields, dst_dir=dst,
                       fifo_class=messages[emit.message].fifo.key(
                           core=core_index, addr=addr, dst_dir=dst))

    def _table_step_atomic(self, state: _State, core_index: int, spec: Any,
                           op: MemOp, home: int, ordered: bool) -> None:
        """Issue an RMW via the table; the core blocks until the response."""
        core = state.mutable_core(core_index)
        messages = self._messages[core_index]
        rule = spec.issue_rule("atomic", ordered)
        if rule.escape == "barrier" and rule.guard(core, home) is not None:
            # §4.4 escape: barrier Release; the RMW retries afterwards.
            self._table_issue(state, core_index, spec,
                              spec.issue_rule("store", True), None, home,
                              barrier=True)
            return
        emits = rule.effects(core, home, ordered)
        base = {
            "addr": op.addr, "value": op.value, "core": core_index,
            "pc": core.pc, "ordering": op.ordering,
            "atomic": op.meta["atomic"], "compare": op.meta.get("compare"),
            "register": op.register,
        }
        for emit in emits:
            if emit.carries_op:
                fields = dict(base)
                fields.update(emit.fields)
                self._send(state, emit.message, fields, dst_dir=home,
                           fifo_class=messages[emit.message].fifo.key(
                               core=core_index, addr=op.addr, dst_dir=home))
            else:
                self._send(state, emit.message, dict(emit.fields),
                           dst_dir=emit.dst_dir,
                           fifo_class=messages[emit.message].fifo.key(
                               core=core_index, dst_dir=emit.dst_dir))
        core.blocked = True

    def _perform_atomic(self, state: _State, msg: _Msg) -> None:
        fields = msg.fields
        directory = msg.dst_dir
        values = state.mutable_values(directory)
        old = values.get(fields["addr"], 0)
        new = fields["atomic"].apply(old, fields["value"],
                                     fields.get("compare"))
        values[fields["addr"]] = new
        state.events.append((
            fields["core"], fields["pc"], EventKind.STORE,
            fields["ordering"], fields["addr"], new,
        ))
        self._send(state, "atomic_resp", {
            "old": old, "register": fields.get("register"),
        }, dst_core=fields["core"],
            fifo_class=self._reply_fifo["atomic_resp"])

    def _deliver(self, state: _State, msg: _Msg) -> None:
        # The same DeliveryRule the timed interpreter dispatches, run
        # against _State via _CheckerContext.
        self._delivery_rules[msg.kind].effects(
            _CheckerContext(self, state, msg, mutate=True), msg.fields)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def _key(self, state: _State) -> Tuple:
        return (
            tuple(
                (c.pc, _freeze(c.regs),
                 _freeze_cached(c.cord) if c.cord else None,
                 c.so_outstanding, c.fence_issued, c.blocked,
                 c.seq_next, c.seq_outstanding)
                for c in state.cores
            ),
            tuple(_freeze_cached(d) for d in state.dirs),
            tuple(tuple(sorted(v.items())) for v in state.values),
            tuple(sorted(state.seq_committed.items())),
            tuple(
                (m.kind, m.dst_dir, m.dst_core, m.frozen_fields(), m.fifo_class,
                 # preserve relative FIFO order, not absolute seq
                 sum(1 for o in state.network
                     if o.fifo_class == m.fifo_class and o.seq < m.seq))
                for m in sorted(
                    state.network,
                    key=lambda m: (m.kind, str(m.dst_dir), str(m.dst_core), m.seq),
                )
            ),
        )

    # ------------------------------------------------------------------
    # Symmetry canonicalization (DESIGN.md §4.11)
    # ------------------------------------------------------------------
    def _perm_msg(self, msg: _Msg, auto: Automorphism) -> Tuple:
        """Permuted ``(kind, dst_dir, dst_core, frozen_fields, fifo)`` of an
        in-flight message, memoized per automorphism (messages are
        immutable once sent and shared across states)."""
        memo = msg.__dict__.get("_frozen_perm")
        if memo is None:
            memo = {}
            msg._frozen_perm = memo
        entry = memo.get(auto.index)
        if entry is None:
            dst_dir = (auto.dirs.get(msg.dst_dir, msg.dst_dir)
                       if msg.dst_dir is not None else None)
            dst_core = (auto.cores[msg.dst_core]
                        if msg.dst_core is not None else None)
            # atomic_resp has no "core" field; the register belongs to the
            # destination (issuing) core.
            owner = msg.fields.get("core", msg.dst_core)
            fields: Dict[str, Any] = {}
            for name, value in msg.fields.items():
                if value is None:
                    fields[name] = None
                elif name == "core":
                    fields[name] = auto.cores[value]
                elif name == "addr":
                    fields[name] = auto.addrs.get(value, value)
                elif name in ("value", "old", "compare"):
                    fields[name] = auto.values.get(value, value)
                elif name == "dir":
                    fields[name] = auto.dirs.get(value, value)
                elif name == "register":
                    fields[name] = auto.regs[owner].get(value, value)
                elif name == "meta":
                    fields[name] = _permute_meta(value, auto)
                else:  # pc, ordering, seq, ordered, atomic flavour
                    fields[name] = value
            if msg.fifo_class is None:
                fifo = None
            elif msg.fifo_class[0] == "addr":
                _, core, addr = msg.fifo_class
                fifo = ("addr", auto.cores[core], auto.addrs.get(addr, addr))
            else:
                core, directory = msg.fifo_class
                fifo = (auto.cores[core],
                        auto.dirs.get(directory, directory))
            entry = (msg.kind, dst_dir, dst_core, _freeze(fields), fifo)
            memo[auto.index] = entry
        return entry

    def _permuted_key(self, state: _State, auto: Automorphism) -> Tuple:
        """The key :meth:`_key` would produce for the ``auto``-image of
        ``state`` — built without materializing the permuted state."""
        threads = self.test.threads
        cores_out: List[Optional[Tuple]] = [None] * threads
        for i, core in enumerate(state.cores):
            regs = tuple(sorted(
                (auto.regs[i].get(r, r), auto.values.get(v, v))
                for r, v in core.regs.items()
            ))
            cord = (_permuted_frozen(core.cord, auto, _build_permuted_proc)
                    if core.cord is not None else None)
            cores_out[auto.cores[i]] = (
                core.pc, regs, cord, core.so_outstanding, core.fence_issued,
                core.blocked, core.seq_next, core.seq_outstanding,
            )
        total = len(state.dirs)
        dirs_out: List[Optional[Tuple]] = [None] * total
        values_out: List[Optional[Tuple]] = [None] * total
        for index, directory in enumerate(state.dirs):
            dirs_out[auto.dirs.get(index, index)] = _permuted_frozen(
                directory, auto, _build_permuted_dir)
        for index, values in enumerate(state.values):
            values_out[auto.dirs.get(index, index)] = tuple(sorted(
                (auto.addrs.get(a, a), auto.values.get(v, v))
                for a, v in values.items()
            ))
        seq_out = tuple(sorted(
            ((auto.dirs.get(d, d), auto.cores[c]), count)
            for (d, c), count in state.seq_committed.items()
        ))
        entries = []
        for msg in state.network:
            kind, dst_dir, dst_core, fields, fifo = self._perm_msg(msg, auto)
            # Relative FIFO position is invariant (seq order and class
            # membership are preserved), so compute it on the original.
            rel = sum(1 for other in state.network
                      if other.fifo_class == msg.fifo_class
                      and other.seq < msg.seq)
            entries.append(((kind, str(dst_dir), str(dst_core), msg.seq),
                            (kind, dst_dir, dst_core, fields, fifo, rel)))
        entries.sort(key=lambda e: e[0])
        return (
            tuple(cores_out), tuple(dirs_out), tuple(values_out), seq_out,
            tuple(entry for _, entry in entries),
        )

    def _canonical_digest(self, state: _State) -> bytes:
        """Orbit-canonical digest: the minimum of the state's own key
        digest and every automorphic image's.  States in the same orbit
        share it, so the visited set prunes whole orbits."""
        best = identity = _digest_of(self._key(state))
        for auto in self._autos:
            candidate = _digest_of(self._permuted_key(state, auto))
            if candidate < best:
                best = candidate
        if best != identity:
            self._sym_canon += 1
        return best

    def _state_key(self, state: _State, digest_mode: bool) -> Any:
        if digest_mode:
            return self._canonical_digest(state)
        return self._key(state)

    def _is_final(self, state: _State) -> bool:
        return (
            all(
                core.pc >= len(self.programs[i])
                for i, core in enumerate(state.cores)
            )
            and not state.network
        )

    def _witness(self, state: _State) -> DeadlockWitness:
        cores = []
        for core_index, core in enumerate(state.cores):
            program = self.programs[core_index]
            done = core.pc >= len(program)
            cores.append({
                "core": core_index,
                "protocol": self.core_protocols[core_index],
                "pc": core.pc,
                "ops": len(program),
                "done": done,
                "next_op": None if done else str(program[core.pc]),
                "blocked": core.blocked,
                "so_outstanding": core.so_outstanding,
                "seq_outstanding": core.seq_outstanding,
                "fence_issued": core.fence_issued,
                "cord_unacked": (core.cord.total_unacked()
                                 if core.cord is not None else 0),
            })
        messages = [
            {"kind": m.kind, "dst_dir": m.dst_dir, "dst_core": m.dst_core}
            for m in state.network
        ]
        return DeadlockWitness(cores=cores, messages=messages)

    def _history(self, state: _State) -> ExecutionHistory:
        history = ExecutionHistory()
        for core_index, pc, kind, ordering, addr, value in state.events:
            history.record(core_index, pc, kind, ordering, addr=addr,
                           value=value)
        for core_index, core in enumerate(state.cores):
            for register, value in core.regs.items():
                history.set_register(core_index, register, value)
        return history

    def _permuted_history(self, state: _State,
                          auto: Automorphism) -> ExecutionHistory:
        """The execution history the ``auto``-image run would have logged
        (same interleaving order, permuted identities)."""
        history = ExecutionHistory()
        for core_index, pc, kind, ordering, addr, value in state.events:
            history.record(
                auto.cores[core_index], pc, kind, ordering,
                addr=auto.addrs.get(addr, addr),
                value=auto.values.get(value, value),
            )
        for core_index, core in enumerate(state.cores):
            renaming = auto.regs[core_index]
            for register, value in core.regs.items():
                history.set_register(
                    auto.cores[core_index], renaming.get(register, register),
                    auto.values.get(value, value),
                )
        return history

    def _record_final(self, state: _State,
                      finals: Dict[Tuple, FinalState]) -> None:
        """Record a terminal state's outcome — and, under symmetry, its
        entire orbit.  Orbit expansion is what keeps the reported outcome
        set *exactly* equal to the unreduced exploration's: a pruned orbit
        member's finals are the automorphic images of its representative's
        (DESIGN.md §4.11), each validated against its own permuted history
        so RC verdicts stay honest per outcome."""
        memory = {key: self._read(state, addr)
                  for _, key, addr in self._final_locs}
        outcome_key = _freeze(dict(
            {"P{}:{}".format(i, r): v
             for i, c in enumerate(state.cores)
             for r, v in c.regs.items()},
            **memory,
        ))
        if outcome_key not in finals:
            history = self._history(state)
            finals[outcome_key] = FinalState(
                outcome=dict(history.register_outcome(), **memory),
                history=history,
                violations=check_rc(history),
            )
        for auto in self._autos:
            perm_memory = {
                "mem:" + auto.locs.get(loc, loc):
                    auto.values.get(memory[key], memory[key])
                for loc, key, _ in self._final_locs
            }
            perm_key = _freeze(dict(
                {"P{}:{}".format(auto.cores[i], auto.regs[i].get(r, r)):
                     auto.values.get(v, v)
                 for i, c in enumerate(state.cores)
                 for r, v in c.regs.items()},
                **perm_memory,
            ))
            if perm_key not in finals:
                history = self._permuted_history(state, auto)
                finals[perm_key] = FinalState(
                    outcome=dict(history.register_outcome(), **perm_memory),
                    history=history,
                    violations=check_rc(history),
                )

    def run(self) -> CheckResult:
        """Exhaustively explore; returns all distinct final outcomes."""
        started = time.perf_counter()
        self._sym_canon = 0
        visited = make_visited(self.visited_db, self.spill_threshold)
        # Raw key tuples are the historical fast path; digests are needed
        # once keys must be canonicalized (symmetry) or stored compactly
        # on disk.
        digest_mode = bool(self._autos) or visited.wants_bytes
        initial = self._initial()
        visited.add(self._state_key(initial, digest_mode))
        stack = [initial]
        finals: Dict[Tuple, FinalState] = {}
        deadlocks = 0
        explored = 0
        transitions = 0
        visited_hits = 0
        ample_pruned = 0
        peak_frontier = 1
        first_deadlock: Optional[DeadlockWitness] = None
        complete = True

        try:
            while stack:
                state = stack.pop()
                explored += 1
                if explored > self.max_states:
                    explored -= 1  # this state was not expanded
                    complete = False
                    break
                actions = self._enabled(state)
                if not actions:
                    if self._is_final(state):
                        self._record_final(state, finals)
                    else:
                        deadlocks += 1
                        if first_deadlock is None:
                            first_deadlock = self._witness(state)
                    continue
                if self.por:
                    reduced = self._reduce(state, actions)
                    ample_pruned += len(actions) - len(reduced)
                    actions = reduced
                for action in actions:
                    successor = self._apply(state, action)
                    transitions += 1
                    if visited.add(self._state_key(successor, digest_mode)):
                        stack.append(successor)
                        if len(stack) > peak_frontier:
                            peak_frontier = len(stack)
                    else:
                        visited_hits += 1
            spilled = visited.spilled
        finally:
            visited.close()

        elapsed = time.perf_counter() - started
        run_stats = {
            "states": float(explored),
            "transitions": float(transitions),
            "visited_hits": float(visited_hits),
            "visited_hit_rate": (visited_hits / transitions
                                 if transitions else 0.0),
            "peak_frontier": float(peak_frontier),
            "ample_pruned": float(ample_pruned),
            "automorphisms": float(len(self._autos)),
            "symmetry_canon": float(self._sym_canon),
            "visited_spilled": 1.0 if spilled else 0.0,
            "wall_s": elapsed,
            "states_per_sec": explored / elapsed if elapsed > 0 else 0.0,
        }
        self._accumulate_registry(run_stats)

        result = CheckResult(
            test=self.test,
            protocol=self.protocol,
            finals=list(finals.values()),
            deadlocks=deadlocks,
            states_explored=explored,
            complete=complete,
            first_deadlock=first_deadlock,
            stats=run_stats,
            elapsed_s=elapsed,
        )
        if not complete and not self.partial:
            raise ModelCheckError(
                "{}: exceeded {} states ({} finals, {} deadlocks so far)"
                .format(self.test.name, self.max_states, len(result.finals),
                        result.deadlocks),
                partial_result=result,
            )
        return result

    def _accumulate_registry(self, run_stats: Dict[str, float]) -> None:
        if self.stats is None:
            return
        self.stats.counter("modelcheck.states").add(run_stats["states"])
        self.stats.counter("modelcheck.transitions").add(
            run_stats["transitions"])
        self.stats.counter("modelcheck.visited_hits").add(
            run_stats["visited_hits"])
        self.stats.counter("modelcheck.ample_pruned").add(
            run_stats["ample_pruned"])
        self.stats.counter("modelcheck.symmetry_canon").add(
            run_stats["symmetry_canon"])
        self.stats.counter("modelcheck.wall_s").add(run_stats["wall_s"])
        self.stats.max_tracker("modelcheck.frontier").set(
            run_stats["peak_frontier"])
