"""Write-combining buffers for write-through stores (§2.1).

Inter-PU coherence protocols support *write-combining* alongside plain
write-through: a small source-side buffer merges consecutive Relaxed stores
to the same cache line into one larger message, amortizing per-message
header overhead for word-granular producers (exactly the PR/SSSP access
pattern).

The buffer holds up to ``lines`` open lines.  A store to an open line
merges; a store to a new line opens one (evicting the oldest if full); any
ordering point — a Release store, an RMW, a fence — flushes everything
first, preserving release consistency (combined stores are still Relaxed
write-throughs, just fewer and fatter).

Enable it via ``SystemConfig.write_combining_lines`` (> 0); the SO, CORD
and MP core ports consult the buffer for every Relaxed write-through store.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.consistency.ops import MemOp

__all__ = ["CombinedWrite", "WriteCombiningBuffer"]


@dataclass
class CombinedWrite:
    """One flushed buffer entry: a contiguous span within a single line."""

    addr: int
    size: int
    value: Optional[int]
    program_index: int
    merged: int          # how many stores were coalesced
    #: Per-address values of the coalesced stores (the line's byte image).
    values: Dict[int, int] = field(default_factory=dict)


class WriteCombiningBuffer:
    """A source-side coalescing buffer for Relaxed write-through stores."""

    def __init__(self, lines: int, line_bytes: int = 64) -> None:
        if lines < 0:
            raise ValueError("lines must be >= 0")
        self.lines = lines
        self.line_bytes = line_bytes
        # line address -> CombinedWrite (insertion order = age).
        self._open: "OrderedDict[int, CombinedWrite]" = OrderedDict()
        self.stores_seen = 0
        self.messages_out = 0

    @property
    def enabled(self) -> bool:
        return self.lines > 0

    def _line(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def add(self, op: MemOp, program_index: int) -> List[CombinedWrite]:
        """Offer a Relaxed store; returns writes that must be sent *now*.

        Multi-line stores and disabled buffers pass straight through.
        """
        self.stores_seen += 1
        if not self.enabled:
            out = [CombinedWrite(op.addr, op.size, op.value, program_index, 1,
                                 values=self._values_of(op))]
            self.messages_out += len(out)
            return out
        first_line = self._line(op.addr)
        last_line = self._line(op.addr + max(op.size, 1) - 1)
        if first_line != last_line or op.size >= self.line_bytes:
            # Already line-sized or larger: combining buys nothing.  Flush
            # *every* line the store overlaps first — an older buffered
            # entry on any of them emitted after this store would overwrite
            # the overlap with stale bytes at the directory (per-pair FIFO
            # would faithfully preserve the wrong order).
            flushed: List[CombinedWrite] = []
            line = first_line
            while line <= last_line:
                flushed += self.flush_line(line)
                line += self.line_bytes
            out = flushed + [
                CombinedWrite(op.addr, op.size, op.value, program_index, 1,
                              values=self._values_of(op))
            ]
            self.messages_out += 1
            return out

        entry = self._open.get(first_line)
        if entry is not None:
            # Merge: widen the span to cover both writes.
            start = min(entry.addr, op.addr)
            end = max(entry.addr + entry.size, op.addr + op.size)
            entry.addr = start
            entry.size = end - start
            entry.value = op.value
            entry.program_index = program_index
            entry.merged += 1
            entry.values.update(self._values_of(op))
            self._open.move_to_end(first_line)
            return []

        evicted: List[CombinedWrite] = []
        if len(self._open) >= self.lines:
            _, oldest = self._open.popitem(last=False)
            evicted.append(oldest)
            self.messages_out += 1
        self._open[first_line] = CombinedWrite(
            op.addr, op.size, op.value, program_index, 1,
            values=self._values_of(op),
        )
        return evicted

    @staticmethod
    def _values_of(op: MemOp) -> Dict[int, int]:
        return {op.addr: op.value} if op.value is not None else {}

    def flush_line(self, line: int) -> List[CombinedWrite]:
        entry = self._open.pop(line, None)
        if entry is None:
            return []
        self.messages_out += 1
        return [entry]

    def flush(self) -> List[CombinedWrite]:
        """Drain everything (ordering point)."""
        drained = list(self._open.values())
        self._open.clear()
        self.messages_out += len(drained)
        return drained

    @property
    def occupancy(self) -> int:
        return len(self._open)

    @property
    def combining_ratio(self) -> float:
        """Stores seen per message emitted (>= 1; higher is better)."""
        if self.messages_out == 0:
            return 1.0
        return self.stores_seen / self.messages_out
