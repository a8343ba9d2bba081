"""Symmetry reduction: automorphism discovery and soundness differential.

The canonicalization layer is only allowed to *shrink the explored graph*,
never to change what the checker concludes: the differential here re-runs
suites with and without symmetry and asserts identical verdicts, identical
final-outcome sets (exactly equal — finals are orbit-expanded, not just
equal up to permutation) and identical deadlock freedom.
"""

import pytest

from repro.litmus.dsl import LitmusTest, faa, ld, ld_acq, st, st_rel
from repro.litmus.model_checker import ModelChecker
from repro.litmus.suite import CheckSpec, classic_tests, full_suite
from repro.harness.modelcheck import suite_cases


def _checker(case, symmetry=True, **kw):
    return ModelChecker(
        case.test, protocol=case.protocol, cord_config=case.cord_config,
        tso=case.tso, partial=True, symmetry=symmetry, **kw,
    )


def _case_named(name, protocol="cord"):
    return next(c for c in full_suite()
                if c.test.name == name and c.protocol == protocol)


class TestDiscovery:
    def test_sb_has_the_thread_swap(self):
        # SB's threads run mirrored programs on swapped locations: the
        # (swap threads, swap locations) automorphism must be found.
        checker = _checker(_case_named("SB.same"))
        assert len(checker._autos) >= 1
        assert any(auto.cores == (1, 0) for auto in checker._autos)

    def test_mp_is_asymmetric(self):
        # MP's producer and consumer run different programs.
        assert _checker(_case_named("MP.same"))._autos == []

    def test_isa2_is_asymmetric(self):
        assert _checker(_case_named("ISA2.same"))._autos == []

    def test_iriw_readers_swap(self):
        checker = _checker(_case_named("IRIW.same"))
        assert len(checker._autos) >= 1

    def test_atomics_force_value_identity(self):
        test = LitmusTest(
            name="faa2", locations={"A": 0},
            programs=[[faa("A", 1, "r0")], [faa("A", 1, "r1")]],
        )
        checker = ModelChecker(test, protocol="cord", partial=True)
        assert checker._autos  # the thread swap survives...
        for auto in checker._autos:
            assert auto.is_value_identity  # ...but may not remap values

    def test_mismatched_values_break_symmetry(self):
        # Threads store *different* values to swapped locations in a way
        # no bijection fixing 0 can reconcile with the mirrored reads.
        test = LitmusTest(
            name="asym-values", locations={"A": 0, "B": 0},
            programs=[
                [st("A", 1), ld("B", "r0")],
                [st("B", 2), ld("A", "r1"), ld("B", "r2")],
            ],
        )
        checker = ModelChecker(test, protocol="cord", partial=True)
        assert checker._autos == []

    def test_disabled_symmetry_has_no_autos(self):
        checker = _checker(_case_named("SB.same"), symmetry=False)
        assert checker._autos == []


def _run_pair(case):
    base = _checker(case, symmetry=False).run()
    reduced = _checker(case, symmetry=True).run()
    return base, reduced


def _outcome_set(result):
    return {tuple(sorted(f.outcome.items())) for f in result.finals}


def _verdict(result):
    return (
        result.passed,
        result.complete,
        bool(result.forbidden_reached),
        bool(result.rc_violations),
        result.deadlocks == 0,
    )


class TestSoundnessDifferential:
    @pytest.mark.parametrize("case", suite_cases("quick"),
                             ids=lambda c: c.test.name + "@" + c.protocol)
    def test_quick_suite_equivalent(self, case):
        base, reduced = _run_pair(case)
        assert _verdict(base) == _verdict(reduced)
        assert _outcome_set(base) == _outcome_set(reduced)
        assert reduced.states_explored <= base.states_explored

    @pytest.mark.slow
    def test_classic_suite_equivalent(self):
        nontrivial = 0
        for test in classic_tests():
            for protocol in ("cord", "so"):
                case = CheckSpec(test=test, protocol=protocol)
                reduced_checker = _checker(case, symmetry=True)
                if reduced_checker._autos:
                    nontrivial += 1
                base = _checker(case, symmetry=False).run()
                reduced = reduced_checker.run()
                assert _verdict(base) == _verdict(reduced), test.name
                assert _outcome_set(base) == _outcome_set(reduced), test.name
        # The symmetric shapes (SB/LB/2+2W/IRIW/CoRR/CoWW...) must
        # actually exercise the reduction, not silently all be trivial.
        assert nontrivial >= 10

    def test_reduction_shrinks_symmetric_state_space(self):
        case = _case_named("2+2W.spread")
        base, reduced = _run_pair(case)
        assert reduced.states_explored < base.states_explored
        assert reduced.stats["symmetry_canon"] > 0
        assert reduced.stats["automorphisms"] >= 1
