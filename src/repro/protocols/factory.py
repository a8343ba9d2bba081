"""Protocol registry: name -> (core-port class, directory class).

Names accepted everywhere a protocol is selected (Machine, harness, CLI-ish
helpers):

* ``"so"``   — source-ordered write-through (baseline, §3.1)
* ``"cord"`` — directory-ordered write-through (the paper, §4)
* ``"cord-nonotify"`` — ablation: CORD without inter-directory
  notifications (cross-directory ordering done at the source)
* ``"mp"``   — message passing / posted writes (§3.2)
* ``"wb"``   — source-ordered write-back MESI
* ``"seq<k>"`` — monolithic k-bit sequence numbers (e.g. ``seq8``, ``seq40``)
* ``"tardis"`` — timestamp-counter coherence (lease-based reads, no
  invalidations or ack collection; Yu & Devadas' Tardis adapted to the
  write-through directory setting)

Every protocol but ``wb`` resolves to the *table-driven* interpreter
(:mod:`repro.protocols.table` running the compiled
:mod:`repro.protocols.spec` transition tables — the same tables the model
checker executes).  ``wb`` is a MESI cache state machine rather than a
guard/action table, so its messages-only spec declares its actor pair.
"""

from __future__ import annotations

from typing import Tuple, Type

from repro.protocols.spec import named_protocols, parse_seq_bits
from repro.protocols.table import table_protocol_classes

__all__ = [
    "protocol_classes",
    "available_protocols",
    "checkable_protocols",
    "validate_checkable_protocol",
]

_NAMED = named_protocols()

#: Known protocols the model checker has no untimed model for.
_TIMED_ONLY = ("cord-nonotify", "wb")


def protocol_classes(name: str) -> Tuple[Type, Type]:
    """Resolve a protocol name to its (core port, directory) classes.

    Raises :class:`ValueError` for unknown names (naming the valid
    choices) and out-of-range ``seq<k>`` widths — at factory time, never
    deep inside actor construction.
    """
    if name not in _NAMED and parse_seq_bits(name) is None:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {available_protocols()}"
        )
    return table_protocol_classes(name)


def available_protocols() -> Tuple[str, ...]:
    return _NAMED + ("seq<k>",)


def checkable_protocols() -> Tuple[str, ...]:
    """Protocols the model checker has an untimed operational model for.

    ``wb`` (cache-state machine) and the ``cord-nonotify`` ablation are
    timed-only.
    """
    return ("so", "cord", "mp", "seq<k>", "tardis")


def validate_checkable_protocol(name: str) -> None:
    """Raise a clear :class:`ValueError` if ``name`` cannot be model
    checked (previously an ``AttributeError`` deep inside exploration)."""
    if name in ("so", "cord", "mp", "tardis"):
        return
    if parse_seq_bits(name) is not None:
        return
    detail = "is timed-only" if name in _TIMED_ONLY else "is unknown"
    raise ValueError(
        f"protocol {name!r} {detail} for model checking; "
        f"choose from {checkable_protocols()}"
    )
