"""The litmus-test suites (§4.5) and :class:`CheckSpec`, the one
description of a model-checker run.

Two collections mirror the paper's methodology:

* :func:`classic_tests` — the standard weak-memory shapes (MP, ISA2, WRC,
  SB, LB, CoRR/CoWW coherence, 2+2W, fence variants) instantiated over
  several location-to-host placements, standing in for the herd-generated
  Armv8 release-consistency tests;
* :func:`custom_tests` — the paper's bespoke corner cases: mixed CORD/SO
  cores, a single core mixing directory- and source-ordered stores,
  under-provisioned look-up tables, and epoch/store-counter overflow.

Every test is checked exhaustively by
:class:`~repro.litmus.model_checker.ModelChecker`; whole collections are
swept as :class:`CheckSpec` lists through the harness executor
(:mod:`repro.harness.modelcheck`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.config import CordConfig
from repro.litmus.dsl import (
    LitmusTest,
    faa,
    faa_rel,
    fence_rel,
    ld,
    ld_acq,
    poll_acq,
    st,
    st_rel,
    st_so,
)

__all__ = [
    "CheckSpec",
    "classic_tests",
    "custom_tests",
    "full_suite",
]


@dataclass(frozen=True)
class CheckSpec:
    """One model-checker run: a litmus test and the configuration it is
    checked under.

    ``protocol``, ``cord_config`` and ``tso`` choose the machine;
    ``max_states``, ``por`` and ``symmetry`` choose the search.  Frozen
    and picklable, so it crosses pool-worker boundaries and canonicalizes
    for the executor's content-addressed cache
    (:mod:`repro.harness.modelcheck` registers it).

    ``visited_db`` (a directory for per-case disk-backed visited sets) and
    ``spill_threshold`` only say where the visited set lives.  They are
    ``compare=False`` fields, which the cache key leaves out: the verdict
    is the same wherever the visited set lived, so a suite checked in
    memory is a warm cache for the same suite with a spilling visited set.
    """

    test: LitmusTest
    protocol: str = "cord"
    cord_config: Optional[CordConfig] = None
    tso: bool = False
    max_states: int = 500_000
    por: bool = True
    symmetry: bool = True
    experiment: str = "modelcheck"
    kind: str = "modelcheck"
    visited_db: Optional[str] = field(default=None, compare=False)
    spill_threshold: Optional[int] = field(default=None, compare=False)

    @property
    def workload_label(self) -> str:
        """The suite-style case name (``ISA2.split@cord.tiny``)."""
        suffix = f"@{self.protocol}"
        if self.cord_config is not None:
            suffix += ".tiny"
        if self.tso:
            suffix += ".tso"
        return self.test.name + suffix


# ---------------------------------------------------------------------------
# Classic shapes
# ---------------------------------------------------------------------------
def _mp(locs: Dict[str, int], tag: str) -> LitmusTest:
    return LitmusTest(
        name=f"MP{tag}",
        locations=locs,
        programs=[
            [st("X", 1), st_rel("Y", 1)],
            [poll_acq("Y", 1, "r1"), ld("X", "r2")],
        ],
        forbidden=[{"P1:r1": 1, "P1:r2": 0}],
    )


def _mp_relaxed(locs: Dict[str, int], tag: str) -> LitmusTest:
    # No release/acquire: the weak outcome must be *reachable* (sanity that
    # the checker is not over-synchronizing).
    return LitmusTest(
        name=f"MP+rlx{tag}",
        locations=locs,
        programs=[
            [st("X", 1), st("Y", 1)],
            [ld("Y", "r1"), ld("X", "r2")],
        ],
        required=[{"P1:r1": 1, "P1:r2": 0}] if locs["X"] != locs["Y"] else [],
    )


def _mp_fence(locs: Dict[str, int], tag: str) -> LitmusTest:
    return LitmusTest(
        name=f"MP+fence{tag}",
        locations=locs,
        programs=[
            [st("X", 1), fence_rel(), st("Y", 1)],
            [poll_acq("Y", 1, "r1"), ld("X", "r2")],
        ],
        forbidden=[{"P1:r1": 1, "P1:r2": 0}],
    )


def _isa2(locs: Dict[str, int], tag: str) -> LitmusTest:
    return LitmusTest(
        name=f"ISA2{tag}",
        locations=locs,
        programs=[
            [st("X", 1), st_rel("Y", 1)],
            [poll_acq("Y", 1, "r1"), st_rel("Z", 1)],
            [poll_acq("Z", 1, "r2"), ld("X", "r3")],
        ],
        forbidden=[{"P2:r2": 1, "P2:r3": 0}],
    )


def _wrc(locs: Dict[str, int], tag: str) -> LitmusTest:
    return LitmusTest(
        name=f"WRC{tag}",
        locations=locs,
        programs=[
            [st("X", 1)],
            [poll_acq("X", 1, "r1"), st_rel("Y", 1)],
            [poll_acq("Y", 1, "r2"), ld("X", "r3")],
        ],
        forbidden=[{"P1:r1": 1, "P2:r2": 1, "P2:r3": 0}],
    )


def _sb(locs: Dict[str, int], tag: str) -> LitmusTest:
    # Store buffering: both-zero is allowed under RC (no store-load order).
    return LitmusTest(
        name=f"SB{tag}",
        locations=locs,
        programs=[
            [st("X", 1), ld("Y", "r1")],
            [st("Y", 1), ld("X", "r2")],
        ],
        required=[{"P0:r1": 0, "P1:r2": 0}],
    )


def _lb(locs: Dict[str, int], tag: str) -> LitmusTest:
    # Load buffering: forbidden here (in-order cores never speculate stores
    # above loads).
    return LitmusTest(
        name=f"LB{tag}",
        locations=locs,
        programs=[
            [ld("X", "r1"), st("Y", 1)],
            [ld("Y", "r2"), st("X", 1)],
        ],
        forbidden=[{"P0:r1": 1, "P1:r2": 1}],
    )


def _corr(locs: Dict[str, int], tag: str) -> LitmusTest:
    # Coherence: two reads of one location may not go backwards.
    return LitmusTest(
        name=f"CoRR{tag}",
        locations=locs,
        programs=[
            [st("X", 1)],
            [ld("X", "r1"), ld("X", "r2")],
        ],
        forbidden=[{"P1:r1": 1, "P1:r2": 0}],
    )


def _coww(locs: Dict[str, int], tag: str) -> LitmusTest:
    # Coherence of writes: program order of same-location stores holds.
    return LitmusTest(
        name=f"CoWW{tag}",
        locations=locs,
        programs=[[st("X", 1), st_rel("X", 2)]],
        forbidden=[{"mem:X": 1}],
    )


def _2p2w(locs: Dict[str, int], tag: str) -> LitmusTest:
    # 2+2W with releases: the final state must be one writer's last value.
    return LitmusTest(
        name=f"2+2W{tag}",
        locations=locs,
        programs=[
            [st_rel("X", 1), st_rel("Y", 2)],
            [st_rel("Y", 1), st_rel("X", 2)],
        ],
        required=[],
    )


def _s(locs: Dict[str, int], tag: str) -> LitmusTest:
    # S: Release/Acquire chain forbids the stale final value.
    return LitmusTest(
        name=f"S{tag}",
        locations=locs,
        programs=[
            [st("X", 2), st_rel("Y", 1)],
            [poll_acq("Y", 1, "r1"), st("X", 1)],
        ],
        forbidden=[{"P1:r1": 1, "mem:X": 2}],
    )


def _faa_atomicity(locs: Dict[str, int], tag: str) -> LitmusTest:
    # Concurrent fetch-adds must not lose updates.
    return LitmusTest(
        name=f"FAA-atomic{tag}",
        locations={"X": locs["X"]},
        programs=[[faa("X", 1, "r0")], [faa("X", 1, "r1")]],
        forbidden=[{"mem:X": 1}, {"mem:X": 0}],
    )


def _mp_atomic_rel(locs: Dict[str, int], tag: str) -> LitmusTest:
    # A Release-ordered RMW publishes prior Relaxed stores (MP shape with
    # the flag updated atomically).
    return LitmusTest(
        name=f"MP+faa.rel{tag}",
        locations={"X": locs["X"], "Y": locs["Y"]},
        programs=[
            [st("X", 1), faa_rel("Y", 1, "r0")],
            [poll_acq("Y", 1, "r1"), ld("X", "r2")],
        ],
        forbidden=[{"P1:r1": 1, "P1:r2": 0}],
    )


def _iriw(locs: Dict[str, int], tag: str) -> LitmusTest:
    # Independent reads of independent writes.  With only release/acquire
    # (no SC fences) the discrepant outcome is *allowed* by RC; the checker
    # verifies safety (no stale reads through sync) and deadlock freedom.
    # Our single-commit-point stores are multi-copy atomic, so the
    # implementation happens to forbid it — either way is RC-correct.
    return LitmusTest(
        name=f"IRIW{tag}",
        locations={"X": locs["X"], "Y": locs["Y"]},
        programs=[
            [st_rel("X", 1)],
            [st_rel("Y", 1)],
            [poll_acq("X", 1, "r1"), ld("Y", "r2")],
            [poll_acq("Y", 1, "r3"), ld("X", "r4")],
        ],
    )


_SHAPES = [
    _mp, _mp_relaxed, _mp_fence, _isa2, _wrc, _sb, _lb, _corr, _coww,
    _2p2w, _s, _faa_atomicity, _mp_atomic_rel, _iriw,
]

#: Location-to-host placements: same host, all-different hosts, and a mix —
#: exercising single-directory and multi-directory (notification) ordering.
_PLACEMENTS: List[Tuple[str, Dict[str, int]]] = [
    (".same", {"X": 1, "Y": 1, "Z": 1}),
    (".split", {"X": 2, "Y": 1, "Z": 2}),
    (".spread", {"X": 0, "Y": 1, "Z": 2}),
    (".cons", {"X": 1, "Y": 2, "Z": 0}),
]


def classic_tests() -> List[LitmusTest]:
    """The classic RC litmus shapes over all placements (~44 tests)."""
    tests: List[LitmusTest] = []
    for tag, locations in _PLACEMENTS:
        for shape in _SHAPES:
            needed = {"X", "Y", "Z"}
            tests.append(shape(
                {k: v for k, v in locations.items() if k in needed}, tag
            ))
    return tests


# ---------------------------------------------------------------------------
# Customized corner cases (§4.5)
# ---------------------------------------------------------------------------
_TINY = CordConfig(
    epoch_bits=2,
    counter_bits=2,
    proc_store_counter_entries=1,
    proc_unacked_epoch_entries=1,
    dir_store_counter_entries_per_proc=3,
    dir_notification_entries_per_proc=3,
)


def _mixed_store_test(tag: str, locs: Dict[str, int]) -> LitmusTest:
    """One core issues both directory-ordered and source-ordered stores."""
    return LitmusTest(
        name=f"MIXED-OPS{tag}",
        locations=locs,
        programs=[
            [st("X", 1), st_so("Z", 1), st_rel("Y", 1)],
            [poll_acq("Y", 1, "r1"), ld("X", "r2"), ld("Z", "r3")],
        ],
        forbidden=[
            {"P1:r1": 1, "P1:r2": 0},
            {"P1:r1": 1, "P1:r3": 0},
        ],
    )


def _overflow_test(tag: str, locs: Dict[str, int]) -> LitmusTest:
    """Many releases back-to-back: epoch numbers wrap (2-bit epochs)."""
    program = []
    for i in range(1, 7):
        program.append(st("X", i))
        program.append(st_rel("Y", i))
    return LitmusTest(
        name=f"EPOCH-WRAP{tag}",
        locations=locs,
        programs=[
            program,
            [poll_acq("Y", 6, "r1"), ld("X", "r2")],
        ],
        forbidden=[{"P1:r1": 6, "P1:r2": 0}],
    )


def _counter_overflow_test(tag: str, locs: Dict[str, int]) -> LitmusTest:
    """More Relaxed stores than a 2-bit store counter can count."""
    program = [st("X", i) for i in range(1, 7)]
    program.append(st_rel("Y", 1))
    return LitmusTest(
        name=f"CNT-WRAP{tag}",
        locations=locs,
        programs=[
            program,
            [poll_acq("Y", 1, "r1"), ld("X", "r2")],
        ],
        forbidden=[{"P1:r1": 1, "P1:r2": 0}],
    )


def custom_tests() -> List[CheckSpec]:
    """The §4.5 corner-case matrix (~190 checker runs)."""
    cases: List[CheckSpec] = []

    # 1) Mixed CORD/SO cores on the causality shapes, over placements.
    for tag, locations in _PLACEMENTS:
        for shape in (_mp, _isa2, _wrc):
            base = shape({k: v for k, v in locations.items()}, tag)
            threads = base.threads
            for assignment in _protocol_assignments(threads):
                if all(p == "cord" for p in assignment):
                    continue  # covered by the classic sweep
                test = replace(
                    base,
                    name=f"{base.name}.mix-{'-'.join(assignment)}",
                    thread_protocols=list(assignment),
                )
                cases.append(CheckSpec(test=test, protocol="cord"))

    # 2) One core mixing directory- and source-ordered stores.
    for tag, locations in _PLACEMENTS:
        cases.append(CheckSpec(test=_mixed_store_test(tag, locations)))

    # 3) Under-provisioned look-up tables (stall paths must stay safe
    #    and deadlock-free).
    for tag, locations in _PLACEMENTS:
        for shape in (_mp, _isa2):
            base = shape(dict(locations), tag)
            test = replace(base, name=base.name + ".tiny")
            cases.append(CheckSpec(test=test, cord_config=_TINY))

    # 4) Epoch-number and store-counter overflow.
    for tag, locations in _PLACEMENTS:
        cases.append(CheckSpec(
            test=_overflow_test(tag, dict(locations)), cord_config=_TINY,
        ))
        cases.append(CheckSpec(
            test=_counter_overflow_test(tag, dict(locations)),
            cord_config=_TINY,
        ))

    # 5) TSO mode (§6): store-store ordering enforced for every store.
    for tag, locations in _PLACEMENTS:
        tso_mp = LitmusTest(
            name=f"TSO-MP{tag}",
            locations={k: v for k, v in locations.items() if k != "Z"},
            programs=[
                [st("X", 1), st("Y", 1)],
                [poll_acq("Y", 1, "r1"), ld("X", "r2")],
            ],
            forbidden=[{"P1:r1": 1, "P1:r2": 0}],
        )
        for protocol in ("cord", "so"):
            cases.append(CheckSpec(test=tso_mp, protocol=protocol, tso=True))

    return cases


def _protocol_assignments(threads: int) -> List[Tuple[str, ...]]:
    import itertools
    return list(itertools.product(("cord", "so"), repeat=threads))


def full_suite() -> List[CheckSpec]:
    """Classic shapes under CORD and SO, plus all custom cases."""
    cases: List[CheckSpec] = []
    for test in classic_tests():
        for protocol in ("cord", "so"):
            cases.append(CheckSpec(test=test, protocol=protocol))
    cases.extend(custom_tests())
    return cases
