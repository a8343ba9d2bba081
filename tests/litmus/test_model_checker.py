"""Tests for the explicit-state model checker (§4.5)."""

import typing

import pytest

from repro.config import CordConfig
from repro.litmus import (
    LitmusTest,
    ModelChecker,
    ld,
    poll_acq,
    st,
    st_rel,
    st_so,
)
from repro.litmus.model_checker import _State

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

MP = LitmusTest(
    name="MP",
    locations={"X": 2, "Y": 1},
    programs=[
        [st("X", 1), st_rel("Y", 1)],
        [poll_acq("Y", 1, "r1"), ld("X", "r2")],
    ],
    forbidden=[{"P1:r1": 1, "P1:r2": 0}],
)


class TestCordSafety:
    def test_cord_forbids_isa2_outcome(self):
        result = ModelChecker(ISA2, protocol="cord").run()
        assert result.passed
        assert result.forbidden_reached == []
        assert result.deadlocks == 0

    def test_cord_forbids_mp_pattern_outcome(self):
        result = ModelChecker(MP, protocol="cord").run()
        assert result.passed
        # The only outcome: the load sees the fresh value.
        assert all(o["P1:r2"] == 1 for o in result.outcomes)

    def test_all_histories_pass_axiomatic_rc(self):
        result = ModelChecker(ISA2, protocol="cord").run()
        assert result.rc_violations == []


class TestSoSafety:
    def test_so_forbids_isa2_outcome(self):
        result = ModelChecker(ISA2, protocol="so").run()
        assert result.passed


class TestMpViolation:
    def test_mp_reaches_forbidden_isa2_outcome(self):
        """The paper's Fig. 3: point-to-point ordering lacks cumulativity."""
        result = ModelChecker(ISA2, protocol="mp").run()
        assert not result.passed
        assert result.forbidden_reached
        # The axiomatic checker independently flags the same execution.
        assert result.rc_violations

    def test_mp_is_safe_for_two_party_sync(self):
        """Point-to-point ordering is exactly what MP *can* provide: when
        data and flag share a destination, per-pair FIFO preserves RC."""
        from dataclasses import replace
        same_dest = replace(MP, locations={"X": 1, "Y": 1})
        result = ModelChecker(same_dest, protocol="mp").run()
        assert result.passed

    def test_mp_violates_even_mp_pattern_across_destinations(self):
        """With data and flag on different hosts, MP's point-to-point
        ordering cannot even preserve the two-thread MP pattern."""
        result = ModelChecker(MP, protocol="mp").run()
        assert not result.passed
        assert result.forbidden_reached


class TestMixedProtocols:
    def test_mixed_cord_so_cores_safe(self):
        from dataclasses import replace
        mixed = replace(ISA2, thread_protocols=["cord", "so", "cord"])
        result = ModelChecker(mixed, protocol="cord").run()
        assert result.passed

    def test_mixed_op_types_single_core(self):
        test = LitmusTest(
            name="mixed-ops",
            locations={"X": 1, "Y": 1, "Z": 2},
            programs=[
                [st("X", 1), st_so("Z", 1), st_rel("Y", 1)],
                [poll_acq("Y", 1, "r1"), ld("X", "r2"), ld("Z", "r3")],
            ],
            forbidden=[{"P1:r2": 0}, {"P1:r3": 0}],
        )
        result = ModelChecker(test, protocol="cord").run()
        assert result.passed


class TestBoundedResources:
    def test_tiny_tables_safe_and_deadlock_free(self):
        tiny = CordConfig(
            epoch_bits=2, counter_bits=2,
            proc_store_counter_entries=1, proc_unacked_epoch_entries=1,
            dir_store_counter_entries_per_proc=3,
            dir_notification_entries_per_proc=3,
        )
        result = ModelChecker(ISA2, protocol="cord", cord_config=tiny).run()
        assert result.passed

    def test_max_states_guard(self):
        from repro.litmus import ModelCheckError
        with pytest.raises(ModelCheckError):
            ModelChecker(ISA2, protocol="cord", max_states=3).run()

    def test_max_states_error_carries_partial_results(self):
        from repro.litmus import ModelCheckError
        with pytest.raises(ModelCheckError) as exc_info:
            ModelChecker(ISA2, protocol="cord", max_states=3).run()
        error = exc_info.value
        assert error.states_explored == 3
        assert error.deadlocks == 0
        assert isinstance(error.finals, list)
        assert error.partial_result is not None
        assert not error.partial_result.complete

    def test_partial_mode_returns_incomplete_result(self):
        partial = ModelChecker(ISA2, protocol="cord", max_states=3,
                               partial=True).run()
        assert not partial.complete
        assert partial.states_explored == 3
        full = ModelChecker(ISA2, protocol="cord").run()
        assert full.complete
        assert full.states_explored > partial.states_explored


class TestDeadlockWitness:
    STUCK = LitmusTest(
        name="stuck",
        locations={"X": 1, "Y": 1},
        programs=[
            [st("X", 1), poll_acq("Y", 1, "r1")],  # Y is never written
        ],
    )

    def test_witness_captures_first_deadlock(self):
        result = ModelChecker(self.STUCK, protocol="cord").run()
        assert result.deadlocks > 0
        assert not result.passed
        witness = result.first_deadlock
        assert witness is not None
        core = witness.cores[0]
        assert core["pc"] == 1 and core["ops"] == 2
        assert not core["done"]
        assert core["next_op"]  # the stuck op is rendered
        assert witness.messages == []  # network fully drained

    def test_witness_renders_and_round_trips(self):
        from repro.litmus.model_checker import DeadlockWitness
        result = ModelChecker(self.STUCK, protocol="cord").run()
        witness = result.first_deadlock
        text = str(witness)
        assert "deadlock witness" in text
        assert "P0" in text and "pc=1/2" in text
        assert DeadlockWitness.from_dict(witness.to_dict()) == witness

    def test_no_witness_when_deadlock_free(self):
        result = ModelChecker(ISA2, protocol="cord").run()
        assert result.deadlocks == 0
        assert result.first_deadlock is None


class TestTsoMode:
    def test_tso_forbids_store_store_reorder(self):
        test = LitmusTest(
            name="tso-mp",
            locations={"X": 2, "Y": 1},
            programs=[
                [st("X", 1), st("Y", 1)],   # both relaxed
                [poll_acq("Y", 1, "r1"), ld("X", "r2")],
            ],
            forbidden=[{"P1:r1": 1, "P1:r2": 0}],
        )
        rc_result = ModelChecker(test, protocol="cord", tso=False).run()
        tso_result = ModelChecker(test, protocol="cord", tso=True).run()
        # Allowed under RC...
        assert rc_result.reaches({"P1:r2": 0})
        # ...forbidden under TSO.
        assert not tso_result.reaches({"P1:r2": 0})
        assert tso_result.passed


class TestWeakOutcomesReachable:
    def test_relaxed_mp_weak_outcome_reachable(self):
        """Sanity: without release/acquire the checker must find the weak
        outcome (it is not over-synchronizing)."""
        test = LitmusTest(
            name="mp-rlx",
            locations={"X": 2, "Y": 1},
            programs=[
                [st("X", 1), st("Y", 1)],
                [poll_acq("Y", 1, "r1"), ld("X", "r2")],
            ],
        )
        result = ModelChecker(test, protocol="cord").run()
        assert result.reaches({"P1:r1": 1, "P1:r2": 0})
        assert result.reaches({"P1:r1": 1, "P1:r2": 1})


#: Store buffering across two hosts: swapping the threads and locations is
#: an automorphism, so its outcomes go through the orbit loop too.
SB = LitmusTest(
    name="SB",
    locations={"X": 0, "Y": 1},
    programs=[
        [st("X", 1), ld("Y", "r1")],
        [st("Y", 1), ld("X", "r2")],
    ],
)


class TestFinalStateAddresses:
    @pytest.mark.parametrize("test", [ISA2, SB], ids=lambda t: t.name)
    def test_run_resolves_no_address(self, test, monkeypatch):
        """Every terminal state reads the location addresses resolved at
        construction; a run never resolves one again."""
        checker = ModelChecker(test, protocol="cord")
        calls = []
        monkeypatch.setattr(LitmusTest, "resolve_address",
                            lambda *args: calls.append(args))
        result = checker.run()
        assert calls == []
        assert result.passed and result.outcomes


class TestAnnotations:
    def test_state_type_hints_resolve(self):
        # Every name the state record's annotations use is imported.
        hints = typing.get_type_hints(_State)
        assert hints["_owned_cores"] == typing.Set[int]
