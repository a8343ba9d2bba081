"""Litmus tests, the explicit-state model checker, and the timed runner."""

from repro.litmus.dsl import (
    LitmusTest,
    cas,
    faa,
    faa_rel,
    fence,
    fence_rel,
    ld,
    ld_acq,
    poll,
    poll_acq,
    st,
    st_rel,
    st_so,
    xchg,
)
from repro.litmus.model_checker import (
    CheckResult,
    FinalState,
    ModelChecker,
    ModelCheckError,
)
from repro.litmus.generate import (
    GeneratorParams,
    generate_test,
    generated_suite,
)
from repro.litmus.symmetry import Automorphism, find_automorphisms
from repro.litmus.visited import (
    MemoryVisitedSet,
    SqliteVisitedSet,
    VisitedSet,
    make_visited,
)
from repro.litmus.runner import (
    FaultSweepReport,
    FuzzReport,
    TimedLitmusResult,
    fault_suite,
    fault_sweep,
    fuzz_timed,
    run_timed,
)
from repro.litmus.suite import (
    CheckSpec,
    classic_tests,
    custom_tests,
    full_suite,
)

__all__ = [
    "LitmusTest",
    "st", "st_rel", "st_so", "ld", "ld_acq", "poll", "poll_acq",
    "fence", "fence_rel", "faa", "faa_rel", "xchg", "cas",
    "ModelChecker",
    "CheckResult",
    "FinalState",
    "ModelCheckError",
    "run_timed",
    "fuzz_timed",
    "FuzzReport",
    "fault_sweep",
    "fault_suite",
    "FaultSweepReport",
    "TimedLitmusResult",
    "GeneratorParams",
    "generate_test",
    "generated_suite",
    "Automorphism",
    "find_automorphisms",
    "VisitedSet",
    "MemoryVisitedSet",
    "SqliteVisitedSet",
    "make_visited",
    "classic_tests",
    "custom_tests",
    "full_suite",
    "CheckSpec",
]
