"""Tests for the model-check harness (CheckSpec/CheckRecord + CLI)."""

import dataclasses
import json

import pytest

from repro.config import CordConfig
from repro.harness import (
    CheckRecord,
    CheckSpec,
    Executor,
    read_run_log,
    spec_key,
    suite_cases,
)
from repro.harness.modelcheck import _execute_check, check_suite, make_specs
from repro.litmus import LitmusTest, ld, poll_acq, st, st_rel
from repro.__main__ import main

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


def check_spec(test=MP, **overrides):
    defaults = dict(test=test, protocol="cord")
    defaults.update(overrides)
    return CheckSpec(**defaults)


def verdict_dict(record):
    """Record contents minus wall-clock and stats timing fields."""
    data = record.to_dict()
    data.pop("wall_time_s")
    data["stats"] = {k: v for k, v in data["stats"].items()
                     if k not in ("wall_s", "states_per_sec")}
    return data


class TestSpecKey:
    def test_same_spec_same_key(self):
        assert spec_key(check_spec()) == spec_key(check_spec())

    def test_exploration_options_change_key(self):
        base = spec_key(check_spec())
        assert base != spec_key(check_spec(por=False))
        assert base != spec_key(check_spec(max_states=1000))
        assert base != spec_key(check_spec(protocol="so"))
        assert base != spec_key(check_spec(tso=True))
        assert base != spec_key(
            check_spec(cord_config=CordConfig(epoch_bits=4)))

    def test_keys_disjoint_from_run_specs(self):
        # A CheckSpec can never collide with a RunSpec in a shared cache.
        assert spec_key(check_spec()).strip()

    def test_workload_label(self):
        assert check_spec().workload_label == "MP@cord"
        tiny = check_spec(cord_config=CordConfig(epoch_bits=2))
        assert tiny.workload_label == "MP@cord.tiny"
        assert check_spec(tso=True).workload_label == "MP@cord.tso"


class TestRecord:
    def test_execute_produces_passing_record(self):
        record = _execute_check(check_spec(ISA2))
        assert record.passed and record.complete
        assert record.deadlocks == 0
        assert record.forbidden_reached == []
        assert record.events == record.states_explored > 0
        assert record.states_per_sec > 0
        assert record.failure_lines() == []

    def test_violation_record_explains_itself(self):
        record = _execute_check(check_spec(ISA2, protocol="mp"))
        assert not record.passed
        lines = record.failure_lines()
        assert any("forbidden outcome" in line for line in lines)
        assert any("RC violation" in line for line in lines)

    def test_json_round_trip_is_lossless(self):
        record = _execute_check(check_spec())
        data = json.loads(json.dumps(record.to_dict()))
        again = CheckRecord.from_dict(data, cached=True)
        assert again.cached and not record.cached
        assert dataclasses.replace(again, cached=False) == record


class TestCacheAndParallel:
    SPECS = [
        check_spec(MP), check_spec(ISA2),
        check_spec(MP, protocol="so"), check_spec(ISA2, protocol="mp"),
    ]

    def test_cold_miss_then_warm_hit(self, tmp_path):
        cold = Executor(jobs=1, cache_dir=tmp_path)
        first = cold.map(self.SPECS)
        assert (cold.hits, cold.misses) == (0, len(self.SPECS))
        warm = Executor(jobs=1, cache_dir=tmp_path)
        second = warm.map(self.SPECS)
        assert (warm.hits, warm.misses) == (len(self.SPECS), 0)
        assert all(r.cached for r in second)
        assert ([verdict_dict(r) for r in first]
                == [verdict_dict(r) for r in second])

    def test_pool_matches_inline(self, tmp_path):
        serial = Executor(jobs=1, cache_dir=None).map(self.SPECS)
        pooled = Executor(jobs=2, cache_dir=None).map(self.SPECS)
        assert ([verdict_dict(r) for r in serial]
                == [verdict_dict(r) for r in pooled])

    def test_visited_db_setting_reuses_cache(self, tmp_path):
        """Storage fields stay out of the spec key: a case checked in memory
        is a warm cache for the same case with a disk-backed visited set."""
        specs = [check_spec(ISA2)]
        cold = Executor(jobs=1, cache_dir=tmp_path / "cache")
        records = cold.map(specs)
        assert cold.misses == 1 and not records[0].cached

        spilling = [check_spec(ISA2, visited_db=str(tmp_path / "visited"),
                               spill_threshold=3)]
        warm = Executor(jobs=1, cache_dir=tmp_path / "cache")
        reused = warm.map(spilling)
        assert (warm.hits, warm.misses) == (1, 0)
        assert reused[0].cached
        assert reused[0].states_explored == records[0].states_explored

    def test_pool_workers_spill_to_the_visited_db(self, tmp_path):
        """The storage fields travel with the spec into pool workers: every
        case spills, explores what an in-memory run explores, and removes
        its scratch database."""
        visited = tmp_path / "visited"
        spilling = [dataclasses.replace(spec, visited_db=str(visited),
                                        spill_threshold=0)
                    for spec in self.SPECS]
        pooled = Executor(jobs=2, cache_dir=None).map(spilling)
        memory = Executor(jobs=1, cache_dir=None).map(self.SPECS)
        assert all(r.stats["visited_spilled"] == 1.0 for r in pooled)
        assert all(r.stats["visited_spilled"] == 0.0 for r in memory)

        def verdicts(records):
            return [{k: v for k, v in verdict_dict(r).items()
                     if k != "stats"} for r in records]

        assert verdicts(pooled) == verdicts(memory)
        assert not visited.exists() or not any(visited.iterdir())


class _RecordingExecutor(Executor):
    """An executor that keeps the records of its last sweep."""

    def map(self, specs):
        self.records = super().map(specs)
        return self.records


class TestCheckSuiteSummary:
    """The summary line describes only the sweep it heads."""

    @staticmethod
    def _second_sweep(tmp_path, capsys):
        """Run two sweeps on one executor; the second is half warm (MP is
        cached, the two SO cases are not).  Returns the executor and the
        second sweep's output."""
        executor = _RecordingExecutor(jobs=1, cache_dir=tmp_path)
        assert check_suite([check_spec(MP), check_spec(ISA2)], executor,
                           "first")
        capsys.readouterr()
        specs = [check_spec(MP), check_spec(MP, protocol="so"),
                 check_spec(ISA2, protocol="so")]
        assert check_suite(specs, executor, "second")
        return executor, capsys.readouterr().out

    def test_cache_counts_are_this_sweeps(self, tmp_path, capsys):
        _, out = self._second_sweep(tmp_path, capsys)
        assert "1 cached / 2 run" in out

    def test_rate_counts_only_the_explored_cases(self, tmp_path, capsys):
        executor, out = self._second_sweep(tmp_path, capsys)
        fresh = [r for r in executor.records if not r.cached]
        assert len(fresh) == 2
        rate = (sum(r.states_explored for r in fresh)
                / sum(r.stats["wall_s"] for r in fresh))
        assert f"({rate:,.0f} states/s explored)" in out


class TestSuites:
    def test_quick_suite_is_curated_subset(self):
        quick = {case.workload_label for case in suite_cases("quick")}
        full = {case.workload_label for case in suite_cases("full")}
        assert quick and len(quick) < len(full)
        assert quick & full  # overlaps the full sweep (plus seq8 extras)
        assert any("@seq8" in name for name in quick)
        assert any(name.endswith(".tiny") for name in quick)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_cases("nope")

    def test_make_specs_propagates_options(self):
        specs = make_specs(suite_cases("quick"), max_states=123, por=False)
        assert all(s.max_states == 123 and not s.por for s in specs)
        assert len(specs) == len(suite_cases("quick"))


class TestCli:
    def test_quick_suite_passes_and_caches(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        log = tmp_path / "runs.jsonl"
        args = ["modelcheck", "quick", "--jobs", "2",
                "--cache-dir", str(cache), "--run-log", str(log)]
        assert main(args) == 0
        assert "ALL PASSED" in capsys.readouterr().out
        cold = read_run_log(log)
        assert cold and not any(entry["cached"] for entry in cold)
        assert main(args) == 0  # warm: everything from cache
        warm = read_run_log(log)[len(cold):]
        assert len(warm) == len(cold)
        assert all(entry["cached"] for entry in warm)

    def test_bad_arguments_are_usage_errors(self):
        assert main(["modelcheck", "--nope"]) == 2
        assert main(["modelcheck", "--jobs"]) == 2
        assert main(["modelcheck", "--jobs", "zero"]) == 2
        assert main(["modelcheck", "no-such-suite"]) == 2
