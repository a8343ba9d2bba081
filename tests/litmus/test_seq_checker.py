"""Model-checking the SEQ-k baseline (§4.1's naive design, Fig. 10)."""

from dataclasses import replace

import pytest

from repro.litmus import LitmusTest, ModelChecker, ld, poll_acq, st, st_rel
from repro.litmus.runner import run_timed
from repro.litmus.suite import classic_tests
from tests.litmus.test_differential import _config_for, _registers_only

MP = LitmusTest(
    name="MP",
    locations={"X": 2, "Y": 1},
    programs=[
        [st("X", 1), st_rel("Y", 1)],
        [poll_acq("Y", 1, "r1"), ld("X", "r2")],
    ],
    forbidden=[{"P1:r1": 1, "P1:r2": 0}],
)

ISA2 = LitmusTest(
    name="ISA2",
    locations={"X": 2, "Y": 1, "Z": 2},
    programs=[
        [st("X", 1), st_rel("Y", 1)],
        [poll_acq("Y", 1, "r1"), st_rel("Z", 1)],
        [poll_acq("Z", 1, "r2"), ld("X", "r3")],
    ],
    forbidden=[{"P2:r2": 1, "P2:r3": 0}],
)


class TestSeqSafety:
    @pytest.mark.parametrize("protocol", ["seq8", "seq40"])
    @pytest.mark.parametrize("test", [MP, ISA2], ids=lambda t: t.name)
    def test_seq_preserves_rc(self, protocol, test):
        result = ModelChecker(test, protocol=protocol).run()
        assert result.passed

    def test_tiny_window_still_safe(self):
        """seq2's 4-entry window forces overflow stalls mid-program."""
        program = [st("X", value) for value in range(1, 7)]
        program.append(st_rel("Y", 1))
        test = LitmusTest(
            name="seq-overflow",
            locations={"X": 1, "Y": 1},
            programs=[
                program,
                [poll_acq("Y", 1, "r1"), ld("X", "r2")],
            ],
            forbidden=[{"P1:r1": 1, "P1:r2": 0}],
        )
        result = ModelChecker(test, protocol="seq2").run()
        assert result.passed
        assert all(o["P1:r2"] == 6 for o in result.outcomes
                   if o.get("P1:r1") == 1)

    def test_mixed_seq_and_cord_cores(self):
        mixed = replace(MP, name="MP.seq-cord",
                        thread_protocols=["seq8", "cord"])
        result = ModelChecker(mixed, protocol="cord").run()
        assert result.passed


class TestSeqReleaseFence:
    def test_release_fence_advances_after_drain(self):
        """Regression: a Release FENCE on a seq<k> core used to fall
        through to the CORD barrier path and crash on ``core.cord =
        None``; it must simply wait for the store window to drain and
        advance."""
        from repro.litmus.dsl import fence_rel
        test = LitmusTest(
            name="seq-fence-mp",
            locations={"X": 2, "Y": 1},
            programs=[
                [st("X", 1), fence_rel(), st("Y", 1)],
                [poll_acq("Y", 1, "r1"), ld("X", "r2")],
            ],
            forbidden=[{"P1:r1": 1, "P1:r2": 0}],
        )
        result = ModelChecker(test, protocol="seq8").run()
        assert result.passed
        assert result.deadlocks == 0
        # The fence drains X before Y issues, so the flag implies the data.
        assert all(o["P1:r2"] == 1 for o in result.outcomes
                   if o.get("P1:r1") == 1)

    def test_release_fence_mixed_with_cord_core(self):
        from repro.litmus.dsl import fence_rel
        test = LitmusTest(
            name="seq-fence-mixed",
            locations={"X": 2, "Y": 1},
            programs=[
                [st("X", 1), fence_rel(), st("Y", 1)],
                [poll_acq("Y", 1, "r1"), ld("X", "r2")],
            ],
            forbidden=[{"P1:r1": 1, "P1:r2": 0}],
            thread_protocols=["seq8", "cord"],
        )
        result = ModelChecker(test, protocol="cord").run()
        assert result.passed


class TestReleaseRmw:
    @pytest.mark.parametrize("protocol", ["seq2", "seq8"])
    def test_release_rmw_orders_prior_stores(self, protocol):
        """Regression: SEQ sent every RMW outside the per-core sequence
        stream, so the release FAA in MP+faa.rel could commit before the
        program-order-earlier store and the checker reached the forbidden
        outcome.  The RMW now takes a sequence slot and its delivery
        waits for every earlier store: the checker passes, and each timed
        run lands on a checker-reachable, RC-clean outcome."""
        shapes = [t for t in classic_tests()
                  if t.name.startswith("MP+faa.rel")]
        assert len(shapes) == 4, "MP+faa.rel shapes missing from the suite"
        for test in shapes:
            config = _config_for(test)
            check = ModelChecker(test, protocol=protocol,
                                 config=config).run()
            assert check.passed, (test.name, check.forbidden_reached)
            reachable = {_registers_only(o) for o in check.outcomes}
            for seed in range(3):
                timed = run_timed(test, protocol=protocol, config=config,
                                  latency_jitter=0.85 if seed else 0.0,
                                  seed=seed)
                assert timed.passed, (test.name, seed, timed.outcome)
                assert _registers_only(timed.outcome) in reachable, (
                    test.name, seed, timed.outcome)


class TestMixedProtocolRmw:
    @pytest.mark.parametrize("other", ["cord", "so"])
    @pytest.mark.parametrize("sequenced", ["seq8", "tardis"])
    def test_rmw_is_delivered_by_its_issuing_core(self, sequenced, other):
        """Regression: the checker merged every core's delivery rules by
        message name, so the last core's ``atomic`` rule delivered every
        RMW.  With a CORD or SO core after a SEQ or Tardis producer, the
        producer's sequenced release FAA committed ahead of its earlier
        store and MP+faa.rel reached the forbidden outcome.  Each RMW now
        runs the rule of the core that issued it, in either core order.
        Only RC-ordered producers: ``mp`` reaches that outcome by design."""
        shapes = [t for t in classic_tests()
                  if t.name.startswith("MP+faa.rel")]
        assert len(shapes) == 4, "MP+faa.rel shapes missing from the suite"
        for test in shapes:
            for protocols in ([sequenced, other], [other, sequenced]):
                mixed = replace(test, thread_protocols=protocols)
                check = ModelChecker(mixed, config=_config_for(mixed)).run()
                assert check.passed, (test.name, protocols,
                                      check.forbidden_reached)
