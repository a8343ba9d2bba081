"""Suite-wide model checking through the harness executor (§4.5).

Each litmus case is an independent, deterministic unit of work, so suite
sweeps get the same infrastructure as the figure experiments:

* :class:`~repro.litmus.suite.CheckSpec` — a frozen, picklable description
  of one checker run (litmus test x protocol x CORD provisioning x
  exploration options), defined with the suites and registered here with
  :mod:`repro.harness.executor`, so ``Executor.map`` content-addresses,
  caches and parallelizes it exactly like a
  :class:`~repro.harness.executor.RunSpec`.
* :class:`CheckRecord` — the serializable verdict of one checker run:
  pass/fail, outcome sets, forbidden outcomes reached, RC-violation and
  deadlock counts, the first-deadlock witness and the exploration stats
  (states/sec, visited-set hit rate, peak frontier).
* :func:`check_suite` — runs a list of specs through an executor and
  prints each failing case's reasons plus one summary line; both
  ``python -m repro litmus`` and ``python -m repro modelcheck`` report
  through it.
* :func:`suite_cases` — the named case sets (quick/classic/custom/
  generated/full) that ``python -m repro modelcheck SUITE`` checks.

The cache key includes the repo-wide code version, so editing the model
checker or any protocol state machine invalidates cached verdicts; an
unchanged tree re-verifies the whole suite from cache in milliseconds.

``--visited-db DIR`` / ``--spill-threshold N`` set the spec's
``visited_db`` and ``spill_threshold`` fields.  Both are declared
``compare=False``, which keeps them out of the cache key: the verdict is
identical wherever the visited set lived, so a suite checked in memory is
a warm cache for the same suite re-run with a spilling visited set and
vice versa.  Multi-core sweeps fan cases out with the executor's
``--jobs``.  ``--symmetry`` is an ordinary field — it changes the search,
and flipping it is exactly what the soundness differential wants to
re-explore.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.harness.executor import Executor, register_spec_type, spec_key
from repro.litmus.suite import (
    CheckSpec,
    classic_tests,
    custom_tests,
    full_suite,
)
from repro.sim.stats import StatRegistry

__all__ = [
    "CheckSpec",
    "CheckRecord",
    "suite_cases",
    "make_specs",
    "check_suite",
]


@dataclass
class CheckRecord:
    """Serializable verdict of one completed checker run.

    Carries the run-log fields the executor expects from any record
    (``time_ns``/``quiesce_ns`` are 0 — exploration is untimed — and
    ``events`` counts explored states), plus the checking verdict.
    """

    spec_key: str
    experiment: str
    kind: str
    protocol: str
    workload: str
    passed: bool
    complete: bool
    states_explored: int
    deadlocks: int
    outcomes: List[Dict[str, int]]
    forbidden_reached: List[Dict[str, int]]
    rc_violations: List[str]
    required_missing: List[Dict[str, int]]
    stats: Dict[str, float]
    wall_time_s: float
    deadlock_witness: Optional[Dict[str, Any]] = None
    time_ns: float = 0.0
    quiesce_ns: float = 0.0
    trace_path: Optional[str] = None
    cached: bool = False

    @property
    def events(self) -> int:
        return self.states_explored

    @property
    def states_per_sec(self) -> float:
        return self.stats.get("states_per_sec", 0.0)

    # -- executor/run-log compatible accessors -------------------------
    def stat(self, name: str) -> float:
        return self.stats.get(name, 0.0)

    @property
    def inter_host_bytes(self) -> float:
        return 0.0

    def failure_lines(self) -> List[str]:
        """Human-readable reasons this case failed (empty when passed)."""
        lines: List[str] = []
        if not self.complete:
            lines.append(
                f"incomplete: budget exhausted after "
                f"{self.states_explored} states"
            )
        for outcome in self.forbidden_reached:
            lines.append(f"forbidden outcome reached: {outcome}")
        for violation in self.rc_violations:
            lines.append(f"RC violation: {violation}")
        for pattern in self.required_missing:
            lines.append(f"required outcome unreachable: {pattern}")
        if self.deadlocks:
            lines.append(f"{self.deadlocks} deadlocked interleavings")
            if self.deadlock_witness is not None:
                from repro.litmus.model_checker import DeadlockWitness
                witness = DeadlockWitness.from_dict(self.deadlock_witness)
                lines.extend(str(witness).splitlines())
        return lines

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data.pop("cached")
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any], cached: bool = False
                  ) -> "CheckRecord":
        return cls(cached=cached, **data)


def _execute_check(spec: CheckSpec,
                   trace_dir: Optional[str] = None) -> CheckRecord:
    """Worker entry point: model-check one case, harvest the verdict.

    ``trace_dir`` is part of the shared worker signature but unused —
    exploration has no timed message trace.  Runs with ``partial=True``
    so a budget-exhausted case records ``complete=False`` (and fails)
    instead of aborting the rest of the sweep.  With ``spec.visited_db``
    set, the case's visited set may spill to
    ``<visited_db>/<spec key>.visited.sqlite``.
    """
    from repro.litmus.model_checker import ModelChecker

    key = spec_key(spec)
    visited_db = (os.path.join(spec.visited_db, key + ".visited.sqlite")
                  if spec.visited_db else None)

    started = time.perf_counter()
    checker = ModelChecker(
        spec.test,
        protocol=spec.protocol,
        cord_config=spec.cord_config,
        tso=spec.tso,
        max_states=spec.max_states,
        por=spec.por,
        symmetry=spec.symmetry,
        visited_db=visited_db,
        spill_threshold=spec.spill_threshold,
        partial=True,
        stats=StatRegistry(),
    )
    result = checker.run()
    required_missing = [
        pattern for pattern in spec.test.required
        if not result.reaches(pattern)
    ]
    passed = result.passed and result.complete and not required_missing
    return CheckRecord(
        spec_key=key,
        experiment=spec.experiment,
        kind=spec.kind,
        protocol=spec.protocol,
        workload=spec.workload_label,
        passed=passed,
        complete=result.complete,
        states_explored=result.states_explored,
        deadlocks=result.deadlocks,
        outcomes=result.outcomes,
        forbidden_reached=result.forbidden_reached,
        rc_violations=[str(v) for v in result.rc_violations],
        required_missing=required_missing,
        stats=dict(result.stats),
        wall_time_s=time.perf_counter() - started,
        deadlock_witness=(result.first_deadlock.to_dict()
                          if result.first_deadlock is not None else None),
    )


register_spec_type(CheckSpec, _execute_check, ["modelcheck"],
                   CheckRecord.from_dict)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------
def suite_cases(suite: str, gen_count: int = 32, gen_seed: int = 0,
                gen_params=None) -> List[CheckSpec]:
    """Named case sets for the CLI and CI.

    ``quick`` is the curated smoke subset: the causality shapes (MP/ISA2)
    under CORD and SO over every placement, plus SEQ-8 and
    tiny-provisioning corners — the cases that cover every protocol path
    while staying under a second even cold.

    ``generated`` samples ``gen_count`` seeded random programs from
    :mod:`repro.litmus.generate` (``gen_params`` is a
    :class:`~repro.litmus.generate.GeneratorParams`; default bounds when
    None) — the overnight full-bound conformance sweep.
    """
    if suite == "generated":
        from repro.litmus.generate import GeneratorParams, generated_suite
        return generated_suite(count=gen_count, seed=gen_seed,
                               params=gen_params or GeneratorParams())
    if suite == "classic":
        return [CheckSpec(test=test, protocol=protocol)
                for test in classic_tests() for protocol in ("cord", "so")]
    if suite == "custom":
        return custom_tests()
    if suite == "full":
        return full_suite()
    if suite == "quick":
        shapes = ("MP.", "ISA2.")
        cases = [
            CheckSpec(test=test, protocol=protocol)
            for test in classic_tests()
            if test.name.startswith(shapes)
            for protocol in ("cord", "so")
        ]
        cases.extend(
            CheckSpec(test=test, protocol="seq8")
            for test in classic_tests()
            if test.name.startswith(shapes) and test.name.endswith(".same")
        )
        cases.extend(
            case for case in custom_tests()
            if case.cord_config is not None
            and case.test.name.startswith(shapes)
        )
        return cases
    raise ValueError(
        f"unknown suite {suite!r}; choose from classic, custom, full, "
        f"quick, generated"
    )


def make_specs(specs: List[CheckSpec], max_states: int = 500_000,
               por: bool = True, symmetry: bool = True) -> List[CheckSpec]:
    """``specs`` with their exploration options replaced."""
    return [dataclasses.replace(spec, max_states=max_states, por=por,
                                symmetry=symmetry)
            for spec in specs]


def check_suite(specs: List[CheckSpec], executor: Executor,
                label: str) -> bool:
    """Check every spec through ``executor``; True when all pass.

    Prints each failing case with its :meth:`CheckRecord.failure_lines`,
    then one summary line headed ``label``: cases, states explored, this
    sweep's cache hits and misses, wall time, the states/second rate of
    the cases explored in this sweep and the verdict.
    """
    hits, misses = executor.hits, executor.misses
    started = time.perf_counter()
    records = executor.map(specs)
    wall = time.perf_counter() - started
    hits, misses = executor.hits - hits, executor.misses - misses

    failed = [r for r in records if not r.passed]
    for record in failed:
        print(f"FAILED {record.workload}")
        for line in record.failure_lines():
            print(f"  {line}")

    states = sum(r.states_explored for r in records)
    fresh = [r for r in records if not r.cached]
    explored_wall = sum(r.stats.get("wall_s", 0.0) for r in fresh)
    rate = (sum(r.states_explored for r in fresh) / explored_wall
            if explored_wall > 0 else 0.0)
    status = "ALL PASSED" if not failed else f"{len(failed)} FAILED"
    print(f"{label}: {len(records)} cases, {states} states "
          f"explored, {hits} cached / {misses} run "
          f"in {wall:.2f}s"
          + (f" ({rate:,.0f} states/s explored)" if rate else "")
          + f" — {status}")
    return not failed
