"""Differential testing: timed simulator vs the untimed model checker.

For seeded random programs at litmus scale, every register outcome the
*timed* protocol actors produce must be among the outcomes the exhaustive
*untimed* model checker reaches for the same test — both drive the same
protocol state machines, so any divergence means the two executions of the
shared artifact have drifted apart (the class of bug related verification
work — Banks et al.'s lazy-coherence proof, Tardis — guards against by
cross-checking the measured artifact itself).

The subset direction is the sound one: one timed run explores a single
interleaving (latency jitter selects different ones per seed), while the
checker enumerates all of them under an adversarial network, which is a
superset of the timed network's orderings for every protocol here (MP's
FIFO posted writes included — the checker models that FIFO class, and the
timed network is FIFO per (source node, destination node) pair).
"""

import pytest

from repro.config import SystemConfig
from repro.litmus.dsl import LitmusTest, ld, poll_acq, st, st_rel
from repro.litmus.model_checker import ModelChecker
from repro.litmus.runner import run_timed
from repro.sim import DeterministicRng

PROTOCOLS = ("cord", "so", "mp", "seq2", "seq8", "tardis")

#: The producer overshoots the value its consumer polls for.  Both engines
#: poll for ``>=``, so the consumer reads 2 instead of spinning forever.
POLL_PAST_ITS_VALUE = LitmusTest(
    name="poll-past-its-value",
    locations={"F": 0},
    programs=[[st_rel("F", 2)], [poll_acq("F", 1, "r0")]],
)


def random_litmus(
    seed: int, threads: int = 2, n_locs: int = 2, ops_per_thread: int = 3
) -> LitmusTest:
    """A seeded random store/release-store/load program at litmus scale.

    Polls are deliberately excluded so every schedule terminates (no
    wait-for-value cycles); loads give each interleaving an observable
    register outcome, and globally unique store values make outcomes
    identify which writes were observed.
    """
    rng = DeterministicRng(seed)
    names = [chr(ord("A") + i) for i in range(n_locs)]
    locations = {name: rng.randint(0, threads - 1) for name in names}
    value = 0
    programs = []
    for _thread in range(threads):
        ops, registers, has_load = [], 0, False
        for _ in range(ops_per_thread):
            kind = rng.choice(["st", "st_rel", "ld"])
            loc = rng.choice(names)
            if kind == "ld":
                ops.append(ld(loc, f"r{registers}"))
                registers += 1
                has_load = True
            elif kind == "st":
                value += 1
                ops.append(st(loc, value))
            else:
                value += 1
                ops.append(st_rel(loc, value))
        if not has_load:  # guarantee an observable outcome per thread
            ops.append(ld(rng.choice(names), f"r{registers}"))
        programs.append(ops)
    return LitmusTest(name=f"rand{seed}", locations=locations,
                      programs=programs)


def _config_for(test: LitmusTest) -> SystemConfig:
    hosts = max(max(test.locations.values()) + 1, test.threads)
    return SystemConfig().scaled(hosts=hosts, cores_per_host=1)


def _registers_only(outcome):
    return frozenset(
        (key, value) for key, value in outcome.items()
        if not key.startswith("mem:")
    )


def assert_timed_subset_of_checker(test, protocol, timed_seeds=3):
    config = _config_for(test)
    check = ModelChecker(test, protocol=protocol, config=config).run()
    assert check.finals, f"{test.name}/{protocol}: checker found no finals"
    reachable = {_registers_only(o) for o in check.outcomes}
    for seed in range(timed_seeds):
        timed = run_timed(
            test, protocol=protocol, config=config,
            latency_jitter=0.85 if seed else 0.0, seed=seed,
        )
        observed = _registers_only(timed.outcome)
        assert observed in reachable, (
            f"{test.name}/{protocol} seed={seed}: timed outcome "
            f"{sorted(observed)} unreachable in the model checker "
            f"({len(reachable)} reachable outcomes)"
        )
        if protocol != "mp":
            # Ordered protocols must also produce RC-clean histories
            # (SEQ commits a Release after every earlier store of its
            # core, and Tardis commits every store in per-core order).
            assert timed.violations == [], (test.name, protocol, seed)


class TestGenerator:
    def test_same_seed_same_test(self):
        a, b = random_litmus(7), random_litmus(7)
        assert a.locations == b.locations
        assert a.programs == b.programs

    def test_seeds_vary_programs(self):
        assert any(
            random_litmus(s).programs != random_litmus(s + 1).programs
            for s in range(3)
        )

    def test_every_thread_observes_something(self):
        for seed in range(8):
            test = random_litmus(seed)
            for program in test.programs:
                assert any(op[0] == "ld" for op in program)


@pytest.mark.slow
class TestTimedVsChecker:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_two_thread_outcomes_are_subset(self, protocol):
        for seed in range(4):
            assert_timed_subset_of_checker(random_litmus(seed), protocol)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_poll_holds_once_its_value_is_passed(self, protocol):
        check = ModelChecker(POLL_PAST_ITS_VALUE, protocol=protocol,
                             config=_config_for(POLL_PAST_ITS_VALUE)).run()
        assert check.deadlocks == 0
        assert check.outcomes == [{"P1:r0": 2, "mem:F": 2}]
        assert_timed_subset_of_checker(POLL_PAST_ITS_VALUE, protocol)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_three_thread_outcomes_are_subset(self, protocol):
        test = random_litmus(99, threads=3, n_locs=2, ops_per_thread=2)
        assert_timed_subset_of_checker(test, protocol)
