"""Execution histories: the value-level record of a run.

Both the untimed model checker and the timed litmus runner emit an
:class:`ExecutionHistory`; the consistency checkers in
:mod:`repro.consistency.checker` validate these histories against release
consistency or TSO.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.consistency.ops import Ordering

__all__ = ["EventKind", "HistoryEvent", "ExecutionHistory"]


class EventKind(enum.Enum):
    STORE = "store"
    LOAD = "load"
    FENCE = "fence"


class HistoryEvent(NamedTuple):
    """One committed/performed memory event.

    For stores, ``value`` is the value written; for loads, the value read.
    ``uid`` is unique per event; stores in litmus programs write unique values
    so reads-from edges are unambiguous.  Timed runs build one per
    committed store, so this is a named tuple: it is built in one call,
    where a frozen dataclass pays one ``object.__setattr__`` per field.
    """

    uid: int
    core: int
    program_index: int
    kind: EventKind
    ordering: Ordering
    addr: Optional[int] = None
    value: Optional[int] = None

    @property
    def is_store(self) -> bool:
        return self.kind is EventKind.STORE

    @property
    def is_load(self) -> bool:
        return self.kind is EventKind.LOAD


class ExecutionHistory:
    """An append-only log of events, grouped by core in program order."""

    def __init__(self) -> None:
        self._events: List[HistoryEvent] = []
        self._next_uid = 0
        self.registers: Dict[Tuple[int, str], Optional[int]] = {}

    def record(
        self,
        core: int,
        program_index: int,
        kind: EventKind,
        ordering: Ordering,
        addr: Optional[int] = None,
        value: Optional[int] = None,
    ) -> HistoryEvent:
        event = HistoryEvent(self._next_uid, core, program_index, kind,
                             ordering, addr, value)
        self._next_uid += 1
        self._events.append(event)
        return event

    def set_register(self, core: int, register: str, value: Optional[int]) -> None:
        self.registers[(core, register)] = value

    def register(self, core: int, register: str) -> Optional[int]:
        return self.registers.get((core, register))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[HistoryEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[HistoryEvent]:
        return list(self._events)

    def by_core(self) -> Dict[int, List[HistoryEvent]]:
        cores: Dict[int, List[HistoryEvent]] = {}
        for event in self._events:
            cores.setdefault(event.core, []).append(event)
        for events in cores.values():
            events.sort(key=lambda e: e.program_index)
        return cores

    def stores_to(self, addr: int) -> List[HistoryEvent]:
        return [e for e in self._events if e.is_store and e.addr == addr]

    def register_outcome(self) -> Dict[str, Optional[int]]:
        """Registers flattened to ``"P{core}:{name}"`` keys for assertions."""
        return {
            f"P{core}:{name}": value
            for (core, name), value in sorted(self.registers.items())
        }
