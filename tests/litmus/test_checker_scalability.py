"""Tests for the model checker's scalability machinery.

Covers the incremental (copy-on-write) state cloning, the freeze
memoization, the ``__slots__``-hardened canonicalizer, the partial-order
reduction (differentially against unreduced exploration), the exploration
statistics, and one program well past litmus size explored exhaustively.
"""

import copy
import sys

import pytest

from repro.config import CordConfig
from repro.litmus import (
    LitmusTest, ModelChecker, faa, ld, poll_acq, st, st_rel,
)
from repro.litmus import model_checker as mc
from repro.litmus.suite import full_suite
from repro.sim.stats import StatRegistry

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


def _verdict(result):
    """Everything soundness requires two explorations to agree on."""
    return (
        frozenset(mc._freeze(o) for o in result.outcomes),
        result.deadlocks,
        frozenset(mc._freeze(o) for o in result.forbidden_reached),
        bool(result.rc_violations),
        result.passed,
    )


# ---------------------------------------------------------------------------
# Partial-order reduction
# ---------------------------------------------------------------------------
class TestPartialOrderReduction:
    def test_por_prunes_interleavings(self):
        # Under SO every store produces an ack that commutes with the
        # other cores' steps; pure CORD runs only prune when so_ack/
        # notify/atomic_resp deliveries are coenabled with other actions.
        reduced = ModelChecker(ISA2, "so", por=True).run()
        assert reduced.stats["ample_pruned"] > 0
        unreduced = ModelChecker(ISA2, "so", por=False).run()
        assert reduced.states_explored < unreduced.states_explored

    def test_por_differential_full_suite(self):
        """Reduced and unreduced exploration must agree on outcome sets,
        deadlock counts and violation verdicts for EVERY suite case —
        the empirical half of the soundness argument (DESIGN.md §4)."""
        mismatches = []
        for case in full_suite():
            kwargs = dict(protocol=case.protocol, cord_config=case.cord_config,
                          tso=case.tso)
            with_por = ModelChecker(case.test, por=True, **kwargs).run()
            without = ModelChecker(case.test, por=False, **kwargs).run()
            if _verdict(with_por) != _verdict(without):
                mismatches.append(case.workload_label)
        assert mismatches == []

    def test_por_can_be_disabled(self):
        unreduced = ModelChecker(ISA2, "cord", por=False).run()
        assert unreduced.stats["ample_pruned"] == 0


# ---------------------------------------------------------------------------
# Incremental cloning
# ---------------------------------------------------------------------------
class TestIncrementalCloning:
    @pytest.mark.parametrize("protocol,test", [
        ("cord", ISA2), ("so", ISA2), ("mp", ISA2), ("seq8", MP),
    ])
    def test_cow_clone_matches_deepcopy(self, monkeypatch, protocol, test):
        """Swapping the COW clone back to ``copy.deepcopy`` (memos cleared,
        since a deep copy would otherwise carry stale frozen forms) must
        not change any verdict."""
        incremental = ModelChecker(test, protocol).run()

        def deep_clone(state):
            new = copy.deepcopy(state)
            for core in new.cores:
                if core.cord is not None:
                    core.cord.__dict__.pop("_frozen_memo", None)
            for directory in new.dirs:
                directory.__dict__.pop("_frozen_memo", None)
            return new

        monkeypatch.setattr(mc._State, "clone", deep_clone)
        monkeypatch.setattr(mc, "_freeze_cached", mc._freeze)
        reference = ModelChecker(test, protocol).run()
        assert _verdict(incremental) == _verdict(reference)
        assert incremental.states_explored == reference.states_explored

    def test_clone_shares_until_mutated(self):
        checker = ModelChecker(ISA2, "cord")
        state = checker._initial()
        clone = state.clone()
        assert clone.cores[0] is state.cores[0]
        assert clone.dirs[0] is state.dirs[0]
        mutated = clone.mutable_core(0)
        mutated.pc = 7
        assert clone.cores[0] is not state.cores[0]
        assert state.cores[0].pc == 0
        # Taking the same component twice clones it exactly once.
        assert clone.mutable_core(0) is mutated

    def test_component_clones_are_independent(self):
        from repro.config import CordConfig
        from repro.core.directory import CordDirectoryState
        from repro.core.processor import CordProcessorState

        config = CordConfig()
        proc = CordProcessorState(0, config)
        proc.on_relaxed_store(1)
        twin = proc.clone()
        twin.on_relaxed_store(1)
        assert proc.store_counters.get(1) == 1
        assert twin.store_counters.get(1) == 2
        assert mc._freeze(proc) != mc._freeze(twin)

        directory = CordDirectoryState(0, procs=2, config=config)
        clean = CordProcessorState(1, config)
        issue = clean.on_release_store(0)
        dtwin = directory.clone()
        dtwin.commit_release(issue.release)
        assert directory.largest_committed[1] is None
        assert dtwin.largest_committed[1] == issue.release.epoch


# ---------------------------------------------------------------------------
# Freeze memoization and __slots__ hardening
# ---------------------------------------------------------------------------
class _SlottedPair:
    __slots__ = ("x", "y")

    def __init__(self, x, y=None):
        self.x = x
        if y is not None:
            self.y = y


class _SlottedChild(_SlottedPair):
    __slots__ = ("z",)

    def __init__(self, x, y, z):
        super().__init__(x, y)
        self.z = z


class TestFreeze:
    def test_freeze_slots_only_object(self):
        frozen = mc._freeze(_SlottedPair(1, 2))
        assert frozen == mc._freeze(_SlottedPair(1, 2))
        assert frozen != mc._freeze(_SlottedPair(1, 3))
        assert ("x", 1) in frozen[1] and ("y", 2) in frozen[1]

    def test_freeze_slots_across_mro(self):
        frozen = mc._freeze(_SlottedChild(1, 2, 3))
        names = [name for name, _ in frozen[1]]
        assert names == ["x", "y", "z"]

    def test_freeze_skips_unassigned_slot(self):
        frozen = mc._freeze(_SlottedPair(1))
        assert [name for name, _ in frozen[1]] == ["x"]

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="dataclass(slots=True) needs Python 3.10")
    def test_freeze_slotted_dataclass(self):
        from dataclasses import make_dataclass
        Point = make_dataclass("Point", [("x", int), ("y", int)], slots=True)
        assert mc._freeze(Point(1, 2)) == mc._freeze(Point(1, 2))
        assert mc._freeze(Point(1, 2)) != mc._freeze(Point(2, 1))

    def test_freeze_cached_on_slots_object_recomputes(self):
        pair = _SlottedPair(1, 2)
        assert mc._freeze_cached(pair) == mc._freeze(pair)
        assert not hasattr(pair, "_frozen_memo")

    def test_freeze_cached_memo_invisible_and_mutation_safe(self):
        from repro.config import CordConfig
        from repro.core.processor import CordProcessorState

        proc = CordProcessorState(0, CordConfig())
        plain = mc._freeze(proc)
        cached = mc._freeze_cached(proc)
        assert cached == plain
        # The memo attribute itself must not leak into later freezes.
        assert mc._freeze(proc) == plain
        # Clones drop the memo, so a mutated clone freezes fresh.
        twin = proc.clone()
        twin.on_relaxed_store(0)
        assert mc._freeze_cached(twin) != cached
        assert mc._freeze_cached(proc) == cached


# ---------------------------------------------------------------------------
# Exploration statistics
# ---------------------------------------------------------------------------
class TestExplorationStats:
    def test_result_carries_stats(self):
        result = ModelChecker(ISA2, "cord").run()
        assert result.stats["states"] == result.states_explored
        assert result.stats["transitions"] >= result.states_explored - 1
        assert 0.0 <= result.stats["visited_hit_rate"] <= 1.0
        assert result.stats["peak_frontier"] >= 1
        assert result.elapsed_s > 0
        assert result.states_per_sec > 0

    def test_registry_accumulates_across_runs(self):
        registry = StatRegistry()
        first = ModelChecker(ISA2, "cord", stats=registry).run()
        second = ModelChecker(MP, "cord", stats=registry).run()
        stats = registry.as_dict()
        assert stats["modelcheck.states"] == (
            first.states_explored + second.states_explored
        )
        assert stats["modelcheck.visited_hits"] == (
            first.stats["visited_hits"] + second.stats["visited_hits"]
        )
        assert stats["modelcheck.frontier.max"] == max(
            first.stats["peak_frontier"], second.stats["peak_frontier"]
        )


# ---------------------------------------------------------------------------
# Programs past litmus size
# ---------------------------------------------------------------------------
class TestLongPrograms:
    def test_long_program_explored_exhaustively(self):
        """A longer 3-thread program with atomics and table pressure —
        eight release pairs under tiny CORD tables — is still explored
        exhaustively (about 4,000 states with POR and symmetry)."""
        program0 = []
        for index in range(1, 9):
            program0.append(st("X", index))
            program0.append(st_rel("Y", index))
        big = LitmusTest(
            name="big-chain",
            locations={"X": 1, "Y": 1, "C": 2},
            programs=[
                program0,
                [poll_acq("Y", 8, "r1"), ld("X", "r2"), faa("C", 1, "r3")],
                [faa("C", 1, "r4")],
            ],
            forbidden=[{"P1:r1": 8, "P1:r2": 0}, {"mem:C": 1}],
        )
        tiny = CordConfig(
            epoch_bits=3, counter_bits=4,
            proc_unacked_epoch_entries=2,
            dir_store_counter_entries_per_proc=4,
            dir_notification_entries_per_proc=4,
        )
        result = ModelChecker(big, protocol="cord", cord_config=tiny).run()
        assert result.complete and result.passed
        assert result.outcomes
        # The final X must be the last value published before Y=8.
        assert all(o["P1:r2"] == 8 for o in result.outcomes
                   if o.get("P1:r1") == 8)
