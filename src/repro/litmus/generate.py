"""Seeded random litmus-program generation (§4.5's conformance layer).

The hand-written suites pin down the *named* weak-memory shapes; this
module samples the space between them.  Programs are drawn from a small
op menu (relaxed/release stores, relaxed/acquire loads, optional fences
and fetch-and-adds) over bounded cores, locations and values — the
paper's full-bound configuration is 4 cores / 2 addresses / 2 values —
and every draw is reproducible from ``(seed, params)``.

Two termination/observability invariants are enforced by construction:

* no polls — a random wait-for-value almost always deadlocks, and the
  checker's deadlock detector would drown signal in noise;
* every thread ends with at least one load, so every interleaving leaves
  a register fingerprint the differential tests can compare.

The generated programs feed two consumers: the property-based
differential test (timed-simulator outcomes ⊆ model-checker outcomes,
and :func:`repro.consistency.check_rc` accepts every final), and the
``modelcheck`` CLI's ``generated`` suite for overnight full-bound runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.litmus.dsl import (
    LitmusTest, faa, fence, ld, ld_acq, st, st_rel,
)
from repro.litmus.suite import CheckSpec
from repro.sim import DeterministicRng

__all__ = ["GeneratorParams", "generate_test", "generated_suite"]


@dataclass(frozen=True)
class GeneratorParams:
    """Bounds and op-menu switches for one generation batch.

    ``values`` bounds the *distinct non-zero* store values per test;
    reusing values within the bound is what keeps the full-bound state
    space finite where the unique-value convention of the hand suites
    would not.
    """

    threads: int = 2
    locations: int = 2
    values: int = 2
    ops_per_thread: int = 3
    release_stores: bool = True
    acquire_loads: bool = True
    fences: bool = True
    atomics: bool = False

    def menu(self) -> List[str]:
        # Stores and loads twice: keep fences/atomics seasoning, not diet.
        kinds = ["st", "ld", "st", "ld"]
        if self.release_stores:
            kinds.append("st_rel")
        if self.acquire_loads:
            kinds.append("ld_acq")
        if self.fences:
            kinds.append("fence")
        if self.atomics:
            kinds.append("faa")
        return kinds


def generate_test(seed: int,
                  params: GeneratorParams = GeneratorParams()) -> LitmusTest:
    """One reproducible random litmus test; same ``(seed, params)`` →
    identical test (the differential and caching layers rely on it)."""
    rng = DeterministicRng(seed)
    names = [chr(ord("A") + i) for i in range(params.locations)]
    locations = {name: rng.randint(0, params.threads - 1) for name in names}
    menu = params.menu()
    programs = []
    for _thread in range(params.threads):
        ops: List[Tuple] = []
        registers = 0
        has_load = False
        for _ in range(params.ops_per_thread):
            kind = rng.choice(menu)
            loc = rng.choice(names)
            if kind == "st":
                ops.append(st(loc, rng.randint(1, params.values)))
            elif kind == "st_rel":
                ops.append(st_rel(loc, rng.randint(1, params.values)))
            elif kind == "ld":
                ops.append(ld(loc, "r{}".format(registers)))
                registers += 1
                has_load = True
            elif kind == "ld_acq":
                ops.append(ld_acq(loc, "r{}".format(registers)))
                registers += 1
                has_load = True
            elif kind == "fence":
                ops.append(fence())
            else:  # faa
                ops.append(faa(loc, 1, "r{}".format(registers)))
                registers += 1
                has_load = True  # the RMW's old value is an observation
        if not has_load:
            ops.append(ld(rng.choice(names), "r{}".format(registers)))
        programs.append(ops)
    name = "gen{}.t{}l{}v{}".format(
        seed, params.threads, params.locations, params.values)
    return LitmusTest(name=name, locations=locations, programs=programs)


def generated_suite(
    count: int = 32,
    seed: int = 0,
    params: GeneratorParams = GeneratorParams(),
    protocols: Tuple[str, ...] = ("cord", "so", "tardis"),
) -> List[CheckSpec]:
    """``count`` generated tests × ``protocols`` as check specs, seeded
    ``seed .. seed+count-1``."""
    cases: List[CheckSpec] = []
    for offset in range(count):
        test = generate_test(seed + offset, params)
        for protocol in protocols:
            cases.append(CheckSpec(test=test, protocol=protocol))
    return cases
