"""Set-associative cache with MESI line states and LRU replacement.

This model backs the write-back protocol's private cache.  It tracks
*state*, not data values — the timed simulator measures latency and
traffic; value-level correctness is the model checker's job
(``repro.litmus``).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import CacheConfig

__all__ = ["MesiState", "CacheLine", "SetAssocCache", "Eviction"]


class MesiState(enum.Enum):
    """Classic MESI stable states."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass
class CacheLine:
    addr: int
    state: MesiState

    @property
    def dirty(self) -> bool:
        return self.state is MesiState.MODIFIED


@dataclass
class Eviction:
    """A line displaced to make room; ``dirty`` evictions must be written back."""

    addr: int
    dirty: bool


class SetAssocCache:
    """LRU set-associative cache keyed by line address."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_bytes = config.line_bytes
        self.sets = config.sets
        self.ways = config.ways
        # Each set is an OrderedDict: line_addr -> CacheLine, LRU-first,
        # built by the first insert into it.  ``None`` is an empty set:
        # most runs touch few sets, so building them all up front
        # dominated machine construction.
        self._sets: List[Optional["OrderedDict[int, CacheLine]"]] = (
            [None] * self.sets)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def line_address(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def set_index(self, addr: int) -> int:
        return (self.line_address(addr) // self.line_bytes) % self.sets

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the line holding ``addr`` (any non-invalid state), or None."""
        line_addr = self.line_address(addr)
        cache_set = self._sets[self.set_index(addr)]
        line = cache_set.get(line_addr) if cache_set is not None else None
        if line is None or line.state is MesiState.INVALID:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            cache_set.move_to_end(line_addr)
        return line

    def contains(self, addr: int) -> bool:
        cache_set = self._sets[self.set_index(addr)]
        if cache_set is None:
            return False
        line = cache_set.get(self.line_address(addr))
        return line is not None and line.state is not MesiState.INVALID

    def insert(self, addr: int, state: MesiState) -> Optional[Eviction]:
        """Install (or upgrade) a line; returns the eviction it forced, if any."""
        line_addr = self.line_address(addr)
        index = self.set_index(addr)
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.state = state
            cache_set.move_to_end(line_addr)
            return None
        eviction = None
        if len(cache_set) >= self.ways:
            victim_addr, victim = cache_set.popitem(last=False)
            if victim.state is not MesiState.INVALID:
                eviction = Eviction(victim_addr, victim.dirty)
        cache_set[line_addr] = CacheLine(line_addr, state)
        return eviction

    def set_state(self, addr: int, state: MesiState) -> None:
        line_addr = self.line_address(addr)
        cache_set = self._sets[self.set_index(addr)]
        line = cache_set.get(line_addr) if cache_set is not None else None
        if line is None:
            raise KeyError(f"line {line_addr:#x} not present")
        line.state = state
        if state is MesiState.INVALID:
            del cache_set[line_addr]

    def invalidate(self, addr: int) -> bool:
        """Drop the line if present; returns whether it was dirty."""
        cache_set = self._sets[self.set_index(addr)]
        if cache_set is None:
            return False
        line = cache_set.pop(self.line_address(addr), None)
        return line is not None and line.dirty

    def _built_sets(self) -> List["OrderedDict[int, CacheLine]"]:
        return [cache_set for cache_set in self._sets if cache_set is not None]

    def dirty_lines(self) -> List[int]:
        return [
            line.addr
            for cache_set in self._built_sets()
            for line in cache_set.values()
            if line.dirty
        ]

    def occupancy(self) -> int:
        return sum(len(s) for s in self._built_sets())

    def state_counts(self) -> Dict[MesiState, int]:
        counts: Dict[MesiState, int] = {s: 0 for s in MesiState}
        for cache_set in self._built_sets():
            for line in cache_set.values():
                counts[line.state] += 1
        return counts
