"""Tests for programs and the builder DSL."""

from itertools import repeat

from repro.consistency import MemOp, OpKind, Ordering, Policy
from repro.cpu import Program, ProgramBuilder


class TestBuilder:
    def test_builds_in_order(self):
        program = (ProgramBuilder("p")
                   .store(0x100, value=1)
                   .release_store(0x200, value=2)
                   .load(0x100, "r0")
                   .build())
        kinds = [op.kind for op in program.ops]
        assert kinds == [OpKind.STORE, OpKind.STORE, OpKind.LOAD]
        assert program.ops[1].ordering is Ordering.RELEASE
        assert program.name == "p"

    def test_acquire_load(self):
        program = ProgramBuilder().acquire_load(0x100, "r1").build()
        assert program.ops[0].ordering is Ordering.ACQUIRE

    def test_load_until(self):
        program = ProgramBuilder().load_until(0x100, 3, "r1").build()
        op = program.ops[0]
        assert op.kind is OpKind.LOAD_UNTIL
        assert op.value == 3

    def test_fence_and_compute(self):
        program = ProgramBuilder().fence().compute(10.0).build()
        assert program.ops[0].kind is OpKind.FENCE
        assert program.ops[1].duration_ns == 10.0

    def test_write_back_policy(self):
        program = ProgramBuilder().store(0x0, policy=Policy.WRITE_BACK).build()
        assert program.ops[0].policy is Policy.WRITE_BACK

    def test_builder_is_reusable_snapshot(self):
        builder = ProgramBuilder()
        builder.store(0x0)
        first = builder.build()
        builder.store(0x40)
        second = builder.build()
        assert len(first) == 1
        assert len(second) == 2


class TestRuns:
    """``store_run``/``load_run`` emit exactly the ops the one-at-a-time
    fluent calls would."""

    def test_store_run_matches_single_stores(self):
        run = ProgramBuilder().store_run([0x100, 0x140, 0x180], range(4, 7),
                                         64).build()
        one = ProgramBuilder()
        for addr, value in zip([0x100, 0x140, 0x180], range(4, 7)):
            one.store(addr, value=value, size=64)
        assert run.ops == one.build().ops

    def test_store_run_with_issue_gaps(self):
        run = ProgramBuilder().store_run(range(0, 192, 64), range(1, 4), 64,
                                         issue_ns=25.0).build()
        one = ProgramBuilder()
        for index in range(3):
            one.compute(25.0).store(index * 64, value=index + 1, size=64)
        assert run.ops == one.build().ops
        assert len({id(op) for op in run.ops}) == 6

    def test_release_run_with_one_value(self):
        run = ProgramBuilder().store_run([0x40, 0x80], repeat(9), 8,
                                         Ordering.RELEASE).build()
        assert run.ops == [MemOp.release_store(0x40, 9),
                           MemOp.release_store(0x80, 9)]

    def test_load_run_matches_single_loads(self):
        run = ProgramBuilder().load_run([0x0, 0x40], "r").build()
        assert run.ops == [MemOp.load(0x0, "r"), MemOp.load(0x40, "r")]

    def test_empty_runs_add_nothing(self):
        builder = ProgramBuilder().store_run([], range(1, 1), 8, issue_ns=5.0)
        assert len(builder.load_run([], "r").build()) == 0


class TestProgramStats:
    def test_store_count_and_bytes(self):
        program = (ProgramBuilder()
                   .store(0x0, size=64)
                   .store(0x40, size=8)
                   .load(0x0, "r")
                   .build())
        assert program.store_count == 2
        assert program.bytes_stored == 72

    def test_len(self):
        assert len(Program(ops=[])) == 0
