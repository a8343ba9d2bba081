"""Timed litmus runs: execute a litmus test on the cycle-approximate Machine.

The model checker (:mod:`repro.litmus.model_checker`) is the exhaustive
correctness oracle; this runner complements it by executing the same test
end-to-end through the *timed* protocol actors — the code path that produces
the paper's performance numbers — and validating the observed execution with
the axiomatic RC checker.  One timed run explores a single interleaving, so
it can demonstrate liveness and value-correctness of the timed actors but
not absence of weak outcomes.

:func:`fault_sweep` adds the resilience angle: the same timed tests under a
:class:`~repro.faults.FaultPlan` (drop/dup/flap/degrade/stall).  The model
checker owns adversarial *reordering*; the sweep asserts that transport
adversity on the timed fabric never produces a forbidden outcome, an RC
violation, or a deadlock (and that any deadlock that does occur surfaces as
a structured :class:`~repro.sim.DeadlockDiagnostic`, never a hang).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig
from repro.consistency.checker import Violation, check_rc
from repro.cpu.program import Program
from repro.faults import FaultPlan, parse_faults
from repro.litmus.dsl import LitmusTest
from repro.protocols.machine import Machine, RunResult
from repro.sim import DeadlockError, SimulationError

__all__ = [
    "TimedLitmusResult",
    "run_timed",
    "fuzz_timed",
    "FuzzReport",
    "fault_sweep",
    "FaultSweepReport",
]


@dataclass
class TimedLitmusResult:
    """Outcome of one timed execution of a litmus test."""

    test: LitmusTest
    protocol: str
    outcome: Dict[str, int]
    violations: List[Violation]
    run: RunResult

    @property
    def forbidden_hit(self) -> Optional[Dict[str, int]]:
        return self.test.matches_forbidden(self.outcome)

    @property
    def passed(self) -> bool:
        return self.forbidden_hit is None and not self.violations


def run_timed(
    test: LitmusTest,
    protocol: str = "cord",
    config: Optional[SystemConfig] = None,
    latency_jitter: float = 0.0,
    seed: int = 0,
    faults: Optional[Union[str, FaultPlan]] = None,
) -> TimedLitmusResult:
    """Execute ``test`` once on the timed simulator under ``protocol``.

    ``latency_jitter`` perturbs per-message latencies (deterministically,
    per ``seed``), letting repeated runs explore different timed
    interleavings — see :func:`fuzz_timed`.  ``faults`` attaches a
    fault-injection plan (see :mod:`repro.faults`)."""
    config = config or test.default_config()
    machine = Machine(config, protocol=protocol, latency_jitter=latency_jitter,
                      seed=seed, faults=faults)
    compiled = test.compile(config)
    programs: Dict[int, Program] = {}
    for thread, ops in enumerate(compiled):
        core_id = thread * config.cores_per_host
        programs[core_id] = Program(ops=ops, name=f"{test.name}.P{thread}")

    result = machine.run(programs)
    # Thread indices in the litmus test map to core ids; rebase registers.
    outcome: Dict[str, int] = {}
    for (core, register), value in result.history.registers.items():
        thread = core // config.cores_per_host
        outcome[f"P{thread}:{register}"] = value
    violations = check_rc(result.history)
    return TimedLitmusResult(
        test=test,
        protocol=protocol,
        outcome=outcome,
        violations=violations,
        run=result,
    )


@dataclass
class FuzzReport:
    """Aggregate of many jittered timed executions of one litmus test."""

    test: LitmusTest
    protocol: str
    runs: int
    outcomes: List[Dict[str, int]]
    forbidden_hits: List[Dict[str, int]]
    violation_runs: int

    @property
    def passed(self) -> bool:
        return not self.forbidden_hits and self.violation_runs == 0

    def reaches(self, pattern: Dict[str, int]) -> bool:
        return any(
            all(outcome.get(k) == v for k, v in pattern.items())
            for outcome in self.outcomes
        )


def fuzz_timed(
    test: LitmusTest,
    protocol: str = "cord",
    runs: int = 20,
    latency_jitter: float = 0.4,
    config: Optional[SystemConfig] = None,
    faults: Optional[Union[str, FaultPlan]] = None,
) -> FuzzReport:
    """Run ``test`` many times through the *timed* simulator with randomized
    message latencies — a dynamic-verification complement to the exhaustive
    model checker, exercising the production actors themselves."""
    if isinstance(faults, str):
        faults = parse_faults(faults)
    outcomes: List[Dict[str, int]] = []
    forbidden: List[Dict[str, int]] = []
    violation_runs = 0
    for seed in range(runs):
        plan = replace(faults, seed=seed) if faults is not None else None
        result = run_timed(test, protocol=protocol, config=config,
                           latency_jitter=latency_jitter, seed=seed,
                           faults=plan)
        outcomes.append(result.outcome)
        if result.forbidden_hit is not None:
            forbidden.append(result.outcome)
        if result.violations:
            violation_runs += 1
    return FuzzReport(
        test=test, protocol=protocol, runs=runs, outcomes=outcomes,
        forbidden_hits=forbidden, violation_runs=violation_runs,
    )


# ---------------------------------------------------------------------------
# Fault-enabled litmus sweeps
# ---------------------------------------------------------------------------
@dataclass
class FaultSweepReport:
    """Aggregate of a fault-enabled timed litmus sweep.

    ``passed`` asserts the fabric-resilience contract: under the given
    fault plan no test produced a forbidden outcome, an RC violation, or a
    deadlock.  ``required`` outcomes are deliberately *not* checked — a
    single timed run cannot witness reachability, and faults only shrink
    the set of interleavings a run explores.
    """

    protocol: str
    faults: FaultPlan
    runs: int = 0
    tests: List[str] = field(default_factory=list)
    forbidden_hits: List[Tuple[str, Dict[str, int]]] = field(
        default_factory=list
    )
    violations: List[Tuple[str, str]] = field(default_factory=list)
    #: Rendered :class:`~repro.sim.DeadlockDiagnostic` per stuck run.
    deadlocks: List[str] = field(default_factory=list)
    faults_injected: float = 0.0

    @property
    def passed(self) -> bool:
        return not (self.forbidden_hits or self.violations or self.deadlocks)


def fault_suite(protocol: str) -> List[LitmusTest]:
    """Default test selection for :func:`fault_sweep`.

    CORD and SO enforce release consistency over any placement, so they
    sweep the full classic suite.  MP's only ordering tool is per-pair
    FIFO: it is *by design* unsafe on multi-location/multi-directory
    causality shapes (the paper's motivation), so its resilience sweep
    uses the shapes its contract does cover — single-directory MP,
    fenced MP, and same-location coherence.
    """
    from repro.litmus.suite import _corr, _coww, _mp, _mp_fence, classic_tests

    if protocol == "mp":
        same = {"X": 1, "Y": 1, "Z": 1}
        return [shape(dict(same), ".same")
                for shape in (_mp, _mp_fence, _corr, _coww)]
    return classic_tests()


def fault_sweep(
    tests: Optional[Sequence[LitmusTest]] = None,
    protocol: str = "cord",
    faults: Union[str, FaultPlan] = "drop+dup+flap",
    runs: int = 3,
    latency_jitter: float = 0.2,
    config: Optional[SystemConfig] = None,
) -> FaultSweepReport:
    """Run litmus tests through the timed simulator under fault injection.

    Each (test, run) pair uses a distinct machine seed and fault-plan seed,
    so repeated runs sample different injection patterns while staying
    fully deterministic.  Deadlocks are caught and recorded as rendered
    diagnostics rather than propagating — an induced hang is itself a
    sweep failure, not a crash.
    """
    if isinstance(faults, str):
        faults = parse_faults(faults)
    if tests is None:
        tests = fault_suite(protocol)
    report = FaultSweepReport(protocol=protocol, faults=faults)
    for test in tests:
        report.tests.append(test.name)
        for run in range(runs):
            report.runs += 1
            plan = replace(faults, seed=faults.seed + run)
            try:
                result = run_timed(
                    test, protocol=protocol, config=config,
                    latency_jitter=latency_jitter, seed=run, faults=plan,
                )
            except DeadlockError as err:
                report.deadlocks.append(
                    f"{test.name}@{protocol} run {run}: "
                    f"{err.diagnostic.render()}"
                )
                continue
            except SimulationError as err:
                report.deadlocks.append(
                    f"{test.name}@{protocol} run {run}: {err}"
                )
                continue
            report.faults_injected += result.run.stats.value("faults.injected")
            if result.forbidden_hit is not None:
                report.forbidden_hits.append((test.name, result.outcome))
            for violation in result.violations:
                report.violations.append((test.name, str(violation)))
    return report
