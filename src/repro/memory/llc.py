"""Shared LLC slice with its co-located cache directory.

Each slice is the *commit point* for write-through stores whose home it is
(§2.1), and for the write-back protocol it tracks line ownership/sharers the
way a classic MESI directory does.  A slice's access time is the owning
directory's fixed ``service_ns``; no tag or DRAM state is modelled, because
no result would read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.config import CacheConfig

__all__ = ["DirEntryState", "DirectoryEntry", "LlcSlice"]


class DirEntryState(enum.Enum):
    """Directory-visible state of a line."""

    UNCACHED = "U"     # no private copies; LLC/memory is authoritative
    SHARED = "S"       # one or more read-only private copies
    OWNED = "M"        # exactly one private modified copy


@dataclass
class DirectoryEntry:
    state: DirEntryState = DirEntryState.UNCACHED
    owner: Optional[int] = None          # core id holding M copy
    sharers: Set[int] = field(default_factory=set)


class LlcSlice:
    """One LLC slice: its write-through commit count (priced by
    :mod:`repro.overheads.energy`) and per-line directory entries."""

    def __init__(self, cache_config: CacheConfig) -> None:
        self.line_bytes = cache_config.line_bytes
        self._directory: Dict[int, DirectoryEntry] = {}
        self.write_through_commits = 0

    def line_address(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    # ------------------------------------------------------------------
    # Write-through commit point
    # ------------------------------------------------------------------
    def commit_write_through(self) -> None:
        """Count one write-through store (or barrier) committed here."""
        self.write_through_commits += 1

    # ------------------------------------------------------------------
    # Directory entries (write-back protocol)
    # ------------------------------------------------------------------
    def directory_entry(self, line_addr: int) -> DirectoryEntry:
        entry = self._directory.get(line_addr)
        if entry is None:
            entry = DirectoryEntry()
            self._directory[line_addr] = entry
        return entry

    def drop_entry(self, line_addr: int) -> None:
        self._directory.pop(line_addr, None)

    def tracked_lines(self) -> int:
        return len(self._directory)
