"""Model-checking the Tardis backend.

The exhaustive checker itself is the oracle here: every classic litmus
shape must pass (forbidden outcomes unreachable, RC-clean finals, no
deadlocks) under the tardis spec, driven by the same transition table the
timed simulator interprets.
"""

import pytest

from repro.litmus.model_checker import ModelChecker
from repro.litmus.runner import run_timed
from repro.litmus.suite import classic_tests
from tests.litmus.test_differential import _config_for, _registers_only


def _check(test):
    return ModelChecker(test, protocol="tardis").run()


def _explain(test, result):
    return (f"{test.name}: forbidden={result.forbidden_reached} "
            f"deadlocks={result.deadlocks} "
            f"rc={[str(v) for v in result.rc_violations[:3]]}")


class TestAtomics:
    def test_release_rmw_orders_prior_stores(self):
        """Regression: the release FAA in MP+faa.rel used to commit at
        the directory before a program-order-earlier relaxed store.  The
        RMW now consumes a sequence slot and its delivery gates on all
        prior stores, so the stale-data outcome is unreachable."""
        shapes = [t for t in classic_tests()
                  if t.name.startswith("MP+faa.rel")]
        assert shapes, "MP+faa.rel missing from the classic suite"
        for test in shapes:
            result = _check(test)
            assert result.passed, _explain(test, result)


@pytest.mark.slow
class TestClassicSweep:
    def test_every_classic_shape_passes(self):
        failures = []
        for test in classic_tests():
            result = _check(test)
            if not result.passed:
                failures.append(_explain(test, result))
        assert not failures, failures

    def test_timed_outcomes_subset_of_checker(self):
        """Classic-suite differential: the one interleaving each timed
        run selects must be among the checker's reachable outcomes, and
        every timed history must be RC-clean."""
        for test in classic_tests():
            config = _config_for(test)
            check = ModelChecker(test, protocol="tardis",
                                 config=config).run()
            reachable = {_registers_only(o) for o in check.outcomes}
            timed = run_timed(test, protocol="tardis", config=config)
            observed = _registers_only(timed.outcome)
            assert observed in reachable, (
                f"{test.name}: timed outcome {sorted(observed)} "
                f"unreachable in the checker")
            assert timed.violations == [], test.name
