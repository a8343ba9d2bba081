"""§4.5 — the full model-checking sweep (the Murphi substitute).

Paper: 122 herd-generated release-consistency litmus tests plus 180
customized tests (mixed CORD/SO cores, mixed per-op ordering,
under-provisioned tables, counter overflow) all pass, establishing safety
and deadlock freedom.  This sweep runs our equivalent suite exhaustively.
"""

from benchmarks.conftest import run_once
from repro.litmus import CheckSpec, full_suite
from repro.litmus.dsl import LitmusTest, ld, poll_acq, st, st_rel


def test_full_litmus_suite(benchmark, shared_executor):
    records = run_once(benchmark, shared_executor.map, full_suite())
    states = sum(record.states_explored for record in records)
    print(f"\n== §4.5: litmus sweep — {len(records)} checker runs, "
          f"{states} states explored ==")
    assert len(records) >= 180
    assert [r.workload for r in records if not r.passed] == []


def test_isa2_mp_violation(benchmark, shared_executor):
    """Fig. 3's headline: MP reaches the RC-forbidden ISA2 outcome."""
    isa2 = LitmusTest(
        name="ISA2",
        locations={"X": 2, "Y": 1, "Z": 2},
        programs=[
            [st("X", 1), st_rel("Y", 1)],
            [poll_acq("Y", 1, "r1"), st_rel("Z", 1)],
            [poll_acq("Z", 1, "r2"), ld("X", "r3")],
        ],
        forbidden=[{"P2:r2": 1, "P2:r3": 0}],
    )

    specs = [CheckSpec(test=isa2, protocol=protocol)
             for protocol in ("cord", "so", "mp")]
    cord, so, mp = run_once(benchmark, shared_executor.map, specs)
    assert cord.passed
    assert so.passed
    assert not mp.passed
    assert mp.forbidden_reached
