"""WB: source-ordered write-back MESI coherence (the paper's WB baseline).

Stores allocate lines in the core's private cache, acquiring ownership from
the home directory (invalidating remote sharers) — ownership requests overlap
(miss-level parallelism), as in the out-of-order cores the paper simulates.
Dirty data stays in the cache: coherence itself makes it visible (a remote
reader's GetS is forwarded to the owner), so a Release does not flush.  What
a Release *does* do is source-order: it waits for every prior store to be
performed (ownership held, eviction writebacks acknowledged) before the
release flag is written through — the same source-side stall SO pays.

Loads fill the private cache in Shared state with a small next-line
prefetcher; the home directory forwards requests to the current owner when a
line is Modified remotely.  This yields WB's paper-observed profile: wins
only for workloads with enough locality/reuse to amortize ownership,
invalidation and forwarding costs (e.g. PR), loses to CORD elsewhere.

Value tracking is approximate for bulk data (timing fidelity is the goal;
the consistency proofs target the write-through protocols), but flag
visibility is exact: write-through flag stores invalidate sharers before
committing, so polling consumers always observe releases correctly.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Set

from repro.consistency.history import EventKind
from repro.consistency.ops import MemOp
from repro.interconnect.message import Message
from repro.memory.cache import MesiState, SetAssocCache
from repro.memory.llc import DirEntryState
from repro.protocols.base import CorePort, DirectoryNode

__all__ = ["WbCorePort", "WbDirectory"]

_req_ids = itertools.count()

#: Degree of the consumer-side next-line prefetcher (models the miss-level
#: parallelism an out-of-order core extracts from streaming reads).
PREFETCH_DEGREE = 8


class WbCorePort(CorePort):
    """Processor side: private MESI cache, overlapped misses, release-time
    source ordering."""

    def __init__(self, core) -> None:
        super().__init__(core)
        self.cache = SetAssocCache(self.config.l2)
        self.cached_values: Dict[int, int] = {}
        # Addresses written locally whose values have not yet reached the
        # home directory; incoming data never overwrites these.
        self._dirty_addrs: Set[int] = set()
        self.outstanding_flush = 0
        self.flush_signal = self.sim.signal(f"wb_flush@core{core.core_id}")
        self._resp_waiters: Dict[int, object] = {}
        # Lines with an ownership/share request in flight: line -> Future.
        self._pending_lines: Dict[int, object] = {}
        self._wt_outstanding = 0
        self._wt_signal = self.sim.signal(f"wb_wt@core{core.core_id}")
        self._hit_ns = self.config.cycles_to_ns(self.config.l2.latency_cycles)

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def store(self, op: MemOp, program_index: int) -> Generator:
        if op.ordering.is_release or self.machine.consistency in ("tso", "sc"):
            yield from self._perform_prior_stores("wait_wb_order")
        if op.ordering.is_release:
            yield from self._write_through_flag(op, program_index)
            return
        self._local_store(op, program_index)

    def _local_store(self, op: MemOp, program_index: int) -> None:
        line_bytes = self.cache.line_bytes
        first = self.cache.line_address(op.addr)
        last = self.cache.line_address(op.addr + max(op.size, 1) - 1)
        for line in range(first, last + 1, line_bytes):
            self._request_modified(line)
        if op.value is not None:
            self.cached_values[op.addr] = op.value
            self._dirty_addrs.add(op.addr)
        self.machine.history.record(
            core=self.core.core_id,
            program_index=program_index,
            kind=EventKind.STORE,
            ordering=op.ordering,
            addr=op.addr,
            value=op.value,
        )

    def _request_modified(self, line: int) -> None:
        """Ensure the line is (or will be) Modified; misses overlap."""
        cached = self.cache.lookup(line)
        if cached is not None and cached.state in (
            MesiState.MODIFIED, MesiState.EXCLUSIVE
        ):
            self.cache.set_state(line, MesiState.MODIFIED)
            return
        pending = self._pending_lines.get(line)
        if pending is not None:
            if not getattr(pending, "want_modified", False):
                # A GetS is in flight; upgrade to ownership once it lands.
                pending.upgrade = True
            return
        self._issue_request(line, "getm", want_modified=True)

    def _issue_request(self, line: int, msg_type: str, want_modified: bool):
        req_id = next(_req_ids)
        future = self.sim.future(f"{msg_type}{req_id}@core{self.core.core_id}")
        future.want_modified = want_modified
        self._resp_waiters[req_id] = future
        self._pending_lines[line] = future
        self.network.send(Message(
            src=self.node,
            dst=self.home(line),
            msg_type=msg_type,
            size_bytes=self.sizes.control_bytes(),
            control=True,
            payload={"line": line, "req_id": req_id, "proc": self.core.core_id},
        ))
        return future

    def _perform_prior_stores(self, cause: str) -> Generator:
        """Source ordering: wait until every prior store is performed —
        all in-flight ownership requests done, all eviction writebacks
        acknowledged."""
        started = self.sim.now
        while self._pending_lines:
            line = next(iter(self._pending_lines))
            yield from self._pending_lines[line].wait()
        while self.outstanding_flush > 0:
            yield self.flush_signal
        while self._wt_outstanding > 0:
            yield self._wt_signal
        self.stall(cause, self.sim.now - started)

    def _line_values(self, line: int) -> Dict[int, int]:
        return {
            addr: value
            for addr, value in self.cached_values.items()
            if line <= addr < line + self.cache.line_bytes
        }

    def _clear_dirty(self, line: int) -> None:
        """The line's values have been shipped to the directory."""
        self._dirty_addrs -= {
            addr for addr in self._dirty_addrs
            if line <= addr < line + self.cache.line_bytes
        }

    def _writeback(self, line: int) -> None:
        self.outstanding_flush += 1
        values = self._line_values(line)
        self._clear_dirty(line)
        self.network.send(Message(
            src=self.node,
            dst=self.home(line),
            msg_type="wb_data",
            size_bytes=self.sizes.data_bytes(self.cache.line_bytes),
            control=False,
            payload={"line": line, "values": values, "proc": self.core.core_id},
        ))

    def _write_through_flag(self, op: MemOp, program_index: int) -> Generator:
        """Release flags are written through (and acknowledged) so polling
        consumers observe them at the LLC."""
        self._wt_outstanding += 1
        self.cache.invalidate(op.addr)  # don't serve the stale flag locally
        self.network.send(Message(
            src=self.node,
            dst=self.home(op.addr),
            msg_type="wt_store",
            size_bytes=self.sizes.data_bytes(op.size),
            control=False,
            payload={
                "addr": op.addr,
                "value": op.value,
                "size": op.size,
                "core": self.core.core_id,
                "program_index": program_index,
                "ordering": op.ordering,
            },
        ))
        # Posted like SO's release: the ack is awaited at the next ordering
        # point (_perform_prior_stores), not inline.
        return
        yield  # pragma: no cover - keeps this a generator

    # ------------------------------------------------------------------
    # Loads: private cache first, then GetS (+ next-line prefetch).
    # ------------------------------------------------------------------
    def load(self, op: MemOp, program_index: int) -> Generator:
        line = self.cache.line_address(op.addr)
        if self.cache.lookup(line) is not None:
            yield self._hit_ns
            return self.cached_values.get(op.addr, 0)
        pending = self._pending_lines.get(line)
        if pending is None:
            pending = self._issue_request(line, "gets", want_modified=False)
            self._prefetch(line)
        yield from pending.wait()
        return self.cached_values.get(op.addr, 0)

    def _prefetch(self, line: int) -> None:
        for ahead in range(1, PREFETCH_DEGREE):
            next_line = line + ahead * self.cache.line_bytes
            try:
                same_home = self.home(next_line) == self.home(line)
            except ValueError:
                break
            if not same_home:
                continue
            if self.cache.contains(next_line) or next_line in self._pending_lines:
                continue
            self._issue_request(next_line, "gets", want_modified=False)

    # ------------------------------------------------------------------
    # Atomics: performed at the home directory (far atomics), bypassing
    # the private cache.
    # ------------------------------------------------------------------
    def atomic(self, op, program_index: int) -> Generator:
        if op.ordering.is_release or self.machine.consistency in ("tso", "sc"):
            yield from self._perform_prior_stores("wait_wb_order")
        line = self.cache.line_address(op.addr)
        self.cache.invalidate(line)   # don't serve a stale copy afterwards
        self._clear_dirty(line)
        old = yield from self._atomic_round_trip(op, program_index)
        return old

    # ------------------------------------------------------------------
    # Ordering points
    # ------------------------------------------------------------------
    def drain(self) -> Generator:
        yield from self._perform_prior_stores("wait_drain")

    def finish(self) -> Generator:
        yield from self._perform_prior_stores("finish_order")

    # ------------------------------------------------------------------
    # Responses and remote requests
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        msg_type = message.msg_type
        payload = message.payload
        if msg_type == "data_resp":
            future = self._resp_waiters.pop(payload["req_id"])
            line = payload["line"]
            self._pending_lines.pop(line, None)
            # The directory's copy is authoritative except for addresses we
            # have written locally and not yet shipped back.
            for addr, value in payload.get("values", {}).items():
                if addr not in self._dirty_addrs:
                    self.cached_values[addr] = value
            state = (
                MesiState.MODIFIED
                if getattr(future, "want_modified", False)
                else MesiState.SHARED
            )
            eviction = self.cache.insert(line, state)
            if eviction is not None and eviction.dirty:
                self._writeback(eviction.addr)
            if getattr(future, "upgrade", False) and state is MesiState.SHARED:
                # A store arrived while the GetS was in flight: upgrade.
                self._issue_request(line, "getm", want_modified=True)
            future.resolve(payload.get("values", {}))
        elif msg_type == "wb_ack":
            self.outstanding_flush -= 1
            if self.outstanding_flush == 0:
                self.flush_signal.trigger()
        elif msg_type == "wt_ack":
            self._wt_outstanding -= 1
            if self._wt_outstanding == 0:
                self._wt_signal.trigger()
        elif msg_type == "inv":
            self.cache.invalidate(payload["line"])
            self._clear_dirty(payload["line"])
            self.network.send(Message(
                src=self.node,
                dst=message.src,
                msg_type="inv_ack",
                size_bytes=self.sizes.control_bytes(),
                control=True,
                payload={"req_id": payload["req_id"]},
            ))
        elif msg_type == "fetch":
            line = payload["line"]
            values = self._line_values(line)
            self._clear_dirty(line)
            if payload.get("downgrade"):
                if self.cache.contains(line):
                    self.cache.set_state(line, MesiState.SHARED)
            else:
                self.cache.invalidate(line)
            self.network.send(Message(
                src=self.node,
                dst=message.src,
                msg_type="fetch_resp",
                size_bytes=self.sizes.data_bytes(self.cache.line_bytes),
                control=False,
                payload={"req_id": payload["req_id"], "values": values},
            ))
        else:
            super().on_message(message)


class WbDirectory(DirectoryNode):
    """Home directory: MESI sharer tracking with per-line serialization."""

    def __init__(self, machine, node_id) -> None:
        super().__init__(machine, node_id)
        self._busy: Set[int] = set()
        self._line_free: Dict[int, object] = {}
        self._waiters: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Per-line locking (transient-state serialization)
    # ------------------------------------------------------------------
    def _lock(self, line: int) -> Generator:
        while line in self._busy:
            signal = self._line_free.setdefault(
                line, self.sim.signal(f"line{line:#x}@{self.node_id}")
            )
            yield signal
        self._busy.add(line)

    def _unlock(self, line: int) -> None:
        self._busy.discard(line)
        signal = self._line_free.pop(line, None)
        if signal is not None:
            signal.trigger()

    # ------------------------------------------------------------------
    # Core <-> directory round trips within a transaction
    # ------------------------------------------------------------------
    def _ask_async(self, core: int, msg_type: str, payload: dict):
        """Send a request to a core; returns a Future for the response."""
        req_id = next(_req_ids)
        future = self.sim.future(f"{msg_type}{req_id}@{self.node_id}")
        self._waiters[req_id] = future
        self.network.send(Message(
            src=self.node_id,
            dst=self.machine.core_id(core),
            msg_type=msg_type,
            size_bytes=self.sizes.control_bytes(),
            control=True,
            payload=dict(payload, req_id=req_id),
        ))
        return future

    def _ask(self, core: int, msg_type: str, payload: dict) -> Generator:
        future = self._ask_async(core, msg_type, payload)
        response = yield from future.wait()
        return response

    def _reply_data(self, message: Message, line: int) -> None:
        values = {
            addr: value
            for addr, value in self.values.items()
            if line <= addr < line + self.llc.line_bytes
        }
        self.network.send(Message(
            src=self.node_id,
            dst=message.src,
            msg_type="data_resp",
            size_bytes=self.sizes.data_bytes(self.llc.line_bytes),
            control=False,
            payload={
                "req_id": message.payload["req_id"],
                "values": values,
                "line": line,
            },
        ))

    # ------------------------------------------------------------------
    # Handlers spawn transactions
    # ------------------------------------------------------------------
    def on_gets(self, message: Message) -> None:
        self.sim.process(self._gets_txn(message), name=f"gets@{self.node_id}")

    def on_getm(self, message: Message) -> None:
        self.sim.process(self._getm_txn(message), name=f"getm@{self.node_id}")

    def on_wt_store(self, message: Message) -> None:
        self.sim.process(self._wt_txn(message), name=f"wt@{self.node_id}")

    def on_atomic_req(self, message: Message) -> None:
        self.sim.process(self._atomic_txn(message),
                         name=f"atomic@{self.node_id}")

    def on_wb_data(self, message: Message) -> None:
        payload = message.payload
        line = payload["line"]
        entry = self.llc.directory_entry(line)
        if entry.owner == payload["proc"]:
            entry.state = DirEntryState.UNCACHED
            entry.owner = None
        self.values.update(payload.get("values", {}))
        self.llc.commit_write_through()
        self.network.send(Message(
            src=self.node_id,
            dst=message.src,
            msg_type="wb_ack",
            size_bytes=self.sizes.control_bytes(),
            control=True,
            payload={},
        ))

    def on_fetch_resp(self, message: Message) -> None:
        future = self._waiters.pop(message.payload["req_id"])
        future.resolve(message.payload.get("values", {}))

    def on_inv_ack(self, message: Message) -> None:
        future = self._waiters.pop(message.payload["req_id"])
        future.resolve(None)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def _gets_txn(self, message: Message) -> Generator:
        line = message.payload["line"]
        requester = message.payload["proc"]
        yield from self._lock(line)
        entry = self.llc.directory_entry(line)
        if entry.state is DirEntryState.OWNED and entry.owner != requester:
            values = yield from self._ask(
                entry.owner, "fetch", {"line": line, "downgrade": True}
            )
            self.values.update(values)
            entry.sharers = {entry.owner, requester}
            entry.owner = None
            entry.state = DirEntryState.SHARED
        else:
            entry.sharers.add(requester)
            if entry.state is DirEntryState.UNCACHED:
                entry.state = DirEntryState.SHARED
        self._reply_data(message, line)
        self._unlock(line)

    def _getm_txn(self, message: Message) -> Generator:
        line = message.payload["line"]
        requester = message.payload["proc"]
        yield from self._lock(line)
        entry = self.llc.directory_entry(line)
        if entry.state is DirEntryState.OWNED and entry.owner != requester:
            values = yield from self._ask(
                entry.owner, "fetch", {"line": line, "downgrade": False}
            )
            self.values.update(values)
        elif entry.state is DirEntryState.SHARED:
            yield from self._invalidate_sharers(entry, line, exclude=requester)
        entry.state = DirEntryState.OWNED
        entry.owner = requester
        entry.sharers = set()
        self._reply_data(message, line)
        self._unlock(line)

    def _wt_txn(self, message: Message) -> Generator:
        """Write-through flag store: invalidate sharers, commit, acknowledge."""
        line = self.llc.line_address(message.payload["addr"])
        yield from self._lock(line)
        entry = self.llc.directory_entry(line)
        if entry.state is DirEntryState.OWNED and entry.owner is not None:
            values = yield from self._ask(
                entry.owner, "fetch", {"line": line, "downgrade": False}
            )
            self.values.update(values)
            entry.owner = None
        elif entry.state is DirEntryState.SHARED:
            yield from self._invalidate_sharers(entry, line, exclude=None)
        entry.state = DirEntryState.UNCACHED
        self.commit_store(message)
        self.network.send(Message(
            src=self.node_id,
            dst=message.src,
            msg_type="wt_ack",
            size_bytes=self.sizes.control_bytes(),
            control=True,
            payload={},
        ))
        self._unlock(line)

    def _atomic_txn(self, message: Message) -> Generator:
        """Far atomic: reclaim the line from any owner/sharers, RMW at the
        LLC, respond with the old value."""
        line = self.llc.line_address(message.payload["addr"])
        yield from self._lock(line)
        entry = self.llc.directory_entry(line)
        if entry.state is DirEntryState.OWNED and entry.owner is not None:
            values = yield from self._ask(
                entry.owner, "fetch", {"line": line, "downgrade": False}
            )
            self.values.update(values)
            entry.owner = None
        elif entry.state is DirEntryState.SHARED:
            yield from self._invalidate_sharers(entry, line, exclude=None)
        entry.state = DirEntryState.UNCACHED
        old = self.perform_atomic(message)
        self.respond_atomic(message, old)
        self._unlock(line)

    def _invalidate_sharers(self, entry, line: int, exclude) -> Generator:
        """Invalidate all (other) sharers in parallel, wait for every ack."""
        sharers: List[int] = [s for s in sorted(entry.sharers) if s != exclude]
        futures = [
            self._ask_async(sharer, "inv", {"line": line}) for sharer in sharers
        ]
        for future in futures:
            yield from future.wait()
        entry.sharers = set() if exclude is None else {exclude}
        if entry.state is DirEntryState.SHARED and exclude is None:
            entry.state = DirEntryState.UNCACHED