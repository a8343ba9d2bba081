"""A compact litmus-test DSL.

Tests are written with symbolic locations and abstract ops::

    ISA2 = LitmusTest(
        name="ISA2",
        locations={"X": 2, "Y": 1, "Z": 2},          # location -> home host
        programs=[
            [st("X", 1), st_rel("Y", 1)],
            [poll_acq("Y", 1, "r1"), st_rel("Z", 1)],
            [poll_acq("Z", 1, "r2"), ld("X", "r3")],
        ],
        forbidden=[{"P1:r1": 1, "P2:r2": 1, "P2:r3": 0}],
    )

``locations`` pins each variable to a host so cross-directory behaviour is
exercised; within a host the variable lands in a distinct cache line.
``forbidden`` lists partial register outcomes release consistency forbids
(herd-style assertions); the model checker additionally validates every
reachable execution with the axiomatic RC checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.consistency.ops import AtomicOp, MemOp, OpKind, Ordering
from repro.memory.address import AddressMap

__all__ = [
    "LitmusTest",
    "st", "st_rel", "st_so", "ld", "ld_acq", "poll_acq", "poll", "fence",
    "fence_rel", "faa", "faa_rel", "xchg", "cas",
]

_LOC_BASE = 0x0004_0000
_LOC_STRIDE = 0x1000  # distinct cache lines (and usually distinct slices)


# ---------------------------------------------------------------------------
# Abstract ops (location names resolved at compile time)
# ---------------------------------------------------------------------------
def st(loc: str, value: int, size: int = 8) -> Tuple:
    return ("st", loc, value, size, Ordering.RELAXED)


def st_rel(loc: str, value: int, size: int = 8) -> Tuple:
    return ("st", loc, value, size, Ordering.RELEASE)


def st_so(loc: str, value: int, size: int = 8) -> Tuple:
    """A source-ordered (acknowledged) store issued from any core — used by
    the mixed directory-/source-ordering litmus tests (§4.5)."""
    return ("st_so", loc, value, size, Ordering.RELAXED)


def ld(loc: str, register: str) -> Tuple:
    return ("ld", loc, register, Ordering.RELAXED)


def ld_acq(loc: str, register: str) -> Tuple:
    return ("ld", loc, register, Ordering.ACQUIRE)


def poll_acq(loc: str, value: int, register: str) -> Tuple:
    return ("poll", loc, value, register, Ordering.ACQUIRE)


def poll(loc: str, value: int, register: str) -> Tuple:
    return ("poll", loc, value, register, Ordering.RELAXED)


def faa(loc: str, operand: int, register: str,
        ordering: Ordering = Ordering.ACQ_REL) -> Tuple:
    """Fetch-and-add RMW; the old value lands in ``register``."""
    return ("atomic", "faa", loc, operand, None, register, ordering)


def faa_rel(loc: str, operand: int, register: str) -> Tuple:
    return ("atomic", "faa", loc, operand, None, register, Ordering.RELEASE)


def xchg(loc: str, operand: int, register: str,
         ordering: Ordering = Ordering.ACQUIRE) -> Tuple:
    return ("atomic", "xchg", loc, operand, None, register, ordering)


def cas(loc: str, compare: int, operand: int, register: str,
        ordering: Ordering = Ordering.ACQ_REL) -> Tuple:
    return ("atomic", "cas", loc, operand, compare, register, ordering)


def fence() -> Tuple:
    return ("fence", Ordering.ACQ_REL)


def fence_rel() -> Tuple:
    return ("fence", Ordering.RELEASE)


@dataclass
class LitmusTest:
    """A litmus test over symbolic locations."""

    name: str
    locations: Dict[str, int]            # location -> home host index
    programs: List[List[Tuple]]          # abstract ops per thread
    forbidden: List[Dict[str, int]] = field(default_factory=list)
    #: Outcomes that MUST be reachable for the test to be meaningful
    #: (e.g. the relaxed outcome of a test without synchronization).
    required: List[Dict[str, int]] = field(default_factory=list)
    #: Per-thread protocol override (e.g. mixed CORD/SO systems, §4.5);
    #: None means "use the protocol under test for every thread".
    thread_protocols: Optional[List[str]] = None

    @property
    def threads(self) -> int:
        return len(self.programs)

    def default_config(self) -> SystemConfig:
        """The system a run of this test gets when given none: one host
        per thread and per home host.  The timed runner and the model
        checker both use it, so their differential compares one machine."""
        hosts = max(
            max(self.locations.values()) + 1 if self.locations else 1,
            self.threads,
        )
        return SystemConfig().scaled(hosts=hosts)

    def resolve_address(self, config: SystemConfig, loc: str) -> int:
        """Physical address of a symbolic location."""
        address_map = AddressMap(config)
        index = sorted(self.locations).index(loc)
        return address_map.address_in_host(
            self.locations[loc], _LOC_BASE + index * _LOC_STRIDE
        )

    def compile(self, config: SystemConfig) -> List[List[MemOp]]:
        """Resolve symbolic ops into concrete MemOps for ``config``."""
        hosts_needed = max(self.locations.values()) + 1
        if hosts_needed > config.hosts:
            raise ValueError(
                f"test {self.name!r} needs {hosts_needed} hosts, config has "
                f"{config.hosts}"
            )
        addresses = {loc: self.resolve_address(config, loc)
                     for loc in self.locations}
        compiled: List[List[MemOp]] = []
        for program in self.programs:
            ops: List[MemOp] = []
            for abstract in program:
                kind = abstract[0]
                if kind == "st":
                    _, loc, value, size, ordering = abstract
                    ops.append(MemOp.store(addresses[loc], value, size,
                                           ordering))
                elif kind == "st_so":
                    _, loc, value, size, ordering = abstract
                    ops.append(MemOp(OpKind.STORE, addresses[loc], size,
                                     ordering, value=value,
                                     meta={"via": "so"}))
                elif kind == "ld":
                    _, loc, register, ordering = abstract
                    ops.append(MemOp.load(addresses[loc], register,
                                          ordering=ordering))
                elif kind == "poll":
                    _, loc, value, register, ordering = abstract
                    ops.append(MemOp.load_until(addresses[loc], value,
                                                register, ordering=ordering))
                elif kind == "atomic":
                    _, flavour, loc, operand, compare, register, ordering = \
                        abstract
                    ops.append(MemOp.atomic(
                        AtomicOp(flavour), addresses[loc], operand,
                        register=register, compare=compare,
                        ordering=ordering,
                    ))
                elif kind == "fence":
                    ops.append(MemOp.fence(abstract[1]))
                else:
                    raise ValueError(f"unknown abstract op {abstract!r}")
            compiled.append(ops)
        return compiled

    def matches_forbidden(self, outcome: Dict[str, int]) -> Optional[Dict[str, int]]:
        """Return the forbidden pattern this outcome matches, if any."""
        for pattern in self.forbidden:
            if all(outcome.get(reg) == val for reg, val in pattern.items()):
                return pattern
        return None
