"""Checker regressions the classic-suite signatures do not cover.

``tests/data/checker_signatures.json`` pins the state graph (states,
transitions, deadlocks, outcome sets) of every classic litmus test under
every checkable protocol.  This module adds the CORD fence-batch bound
under starved tables — pinned by its own recorded signature — and the
SEQ stores-drained gate.
"""

from repro.config import CordConfig
from repro.litmus.dsl import (
    LitmusTest,
    fence_rel,
    ld,
    ld_acq,
    st,
    st_rel,
)
from repro.litmus.model_checker import ModelChecker

def _signature(test, protocol, **kwargs):
    result = ModelChecker(test, protocol, max_states=200_000,
                          **kwargs).run()
    outcomes = sorted(
        tuple(sorted(final.outcome.items())) for final in result.finals
    )
    return (result.states_explored, result.stats["transitions"],
            result.deadlocks, outcomes)


#: Relaxed stores to two homes, then a release fence: the fence must
#: broadcast one barrier Release per pending directory in a single step.
FENCE_BATCH = LitmusTest(
    name="fence-batch",
    locations={"x": 0, "y": 1, "flag": 1},
    programs=[
        [st("x", 1), st("y", 1), fence_rel(), st("flag", 1)],
        [ld_acq("flag", "r0"), ld("x", "r1"), ld("y", "r2")],
    ],
    forbidden=[{"P1:r0": 1, "P1:r1": 0}, {"P1:r0": 1, "P1:r2": 0}],
)

#: Starved tables: a 2-entry unacked-epoch table and 3-entry directory
#: partitions make the 2-barrier fence batch brush every capacity bound.
TINY_CORD = CordConfig(
    epoch_bits=2,
    proc_unacked_epoch_entries=2,
    proc_store_counter_entries=2,
    dir_store_counter_entries_per_proc=3,
    dir_notification_entries_per_proc=3,
)


#: FENCE_BATCH under TINY_CORD: (states, transitions, deadlocks) and the
#: outcome set, recorded when the checker still carried a second,
#: hand-written CORD model that explored the identical graph.
STARVED_SIGNATURE = (193, 329, 0, sorted(
    (("P1:r0", r0), ("P1:r1", r1), ("P1:r2", r2),
     ("mem:flag", 1), ("mem:x", 1), ("mem:y", 1))
    for r0, r1, r2 in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                       (1, 1, 1))
))


class TestCordFenceBatch:
    """Divergence fix: a release fence issues its barrier batch atomically,
    so the whole batch — not just the first barrier — must fit the
    unacked-epoch table, the epoch window and the directory partitions.
    Guarding only the first issue crashed exploration (``release store
    must stall``) on under-provisioned configs."""

    def test_starved_tables_explore_without_crashing(self):
        result = ModelChecker(FENCE_BATCH, "cord", cord_config=TINY_CORD,
                              max_states=200_000).run()
        assert result.states_explored > 0
        for final in result.finals:
            assert FENCE_BATCH.matches_forbidden(final.outcome) is None

    def test_starved_signature_is_pinned(self):
        assert (_signature(FENCE_BATCH, "cord", cord_config=TINY_CORD)
                == STARVED_SIGNATURE)

    def test_batch_reason_bounds_whole_batch(self):
        from repro.core.processor import CordProcessorState
        from repro.protocols.spec import cord_barrier_batch_reason

        config = CordConfig(proc_unacked_epoch_entries=2,
                            proc_store_counter_entries=8)

        # No pending directories: nothing to broadcast, nothing to stall.
        idle = CordProcessorState(0, config)
        assert cord_barrier_batch_reason(idle) is None

        # Three pending directories vs a 2-entry unacked table: the first
        # barrier alone would fit (a first-issue-only guard passes), the
        # batch cannot.
        cord = CordProcessorState(0, config)
        for directory in (0, 1, 2):
            cord.on_relaxed_store(directory)
        reason = cord_barrier_batch_reason(cord)
        assert reason is not None
        assert cord.release_stall_reason(0) is None  # first-issue guard blind

        # Two pending directories fit the 2-entry table: the batch clears.
        cord = CordProcessorState(0, config)
        cord.on_relaxed_store(0)
        cord.on_relaxed_store(1)
        assert cord_barrier_batch_reason(cord) is None


class TestStoresDrainedGate:
    """Divergence fix: terminal states must drain *every* protocol's
    in-flight stores — the gate ignored SEQ's outstanding sequence
    numbers, so exploration could declare a state final (or deadlocked)
    with seq stores still buffered at a directory."""

    def test_seq_message_passing_is_clean(self):
        test = LitmusTest(
            name="seq-mp",
            locations={"x": 0, "flag": 1},
            programs=[
                [st("x", 1), st_rel("flag", 1)],
                [ld_acq("flag", "r0"), ld("x", "r1")],
            ],
            forbidden=[{"P1:r0": 1, "P1:r1": 0}],
        )
        result = ModelChecker(test, "seq2", max_states=200_000).run()
        assert result.deadlocks == 0
        for final in result.finals:
            assert test.matches_forbidden(final.outcome) is None
