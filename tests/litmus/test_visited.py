"""Visited-set storage: novelty contract and the SQLite spill path."""

import glob
import os

from repro.litmus.model_checker import ModelChecker
from repro.litmus.suite import full_suite
from repro.litmus.visited import (
    MemoryVisitedSet,
    SqliteVisitedSet,
    make_visited,
)


class TestMemoryVisitedSet:
    def test_add_reports_novelty(self):
        visited = MemoryVisitedSet()
        assert visited.add(("a", 1))
        assert not visited.add(("a", 1))
        assert visited.add(("b", 2))
        assert len(visited) == 2
        assert not visited.spilled
        assert not visited.wants_bytes


class TestSqliteVisitedSet:
    def test_stays_in_ram_below_threshold(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        visited = SqliteVisitedSet(path, spill_threshold=10)
        for i in range(5):
            assert visited.add(bytes([i]) * 16)
        assert not visited.spilled
        assert not os.path.exists(path)
        visited.close()

    def test_spills_past_threshold_and_keeps_novelty(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        visited = SqliteVisitedSet(path, spill_threshold=4)
        keys = [bytes([i]) * 16 for i in range(8)]
        for key in keys:
            assert visited.add(key)
        assert visited.spilled
        assert os.path.exists(path)
        # Pre-spill and post-spill keys both dedup after the spill.
        for key in keys:
            assert not visited.add(key)
        assert visited.add(b"\xff" * 16)
        assert len(visited) == 9

        visited.close()
        assert not os.path.exists(path)  # scratch removed by default

    def test_keep_preserves_database(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        visited = SqliteVisitedSet(path, spill_threshold=0, keep=True)
        visited.add(b"\x01" * 16)
        assert visited.spilled
        visited.close()
        assert os.path.exists(path)

    def test_replaces_stale_scratch_file(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        with open(path, "w") as handle:
            handle.write("stale")
        visited = SqliteVisitedSet(path, spill_threshold=0)
        assert visited.add(b"\x02" * 16)
        assert not visited.add(b"\x02" * 16)
        visited.close()


class TestMakeVisited:
    def test_default_is_memory(self):
        assert isinstance(make_visited(None), MemoryVisitedSet)

    def test_path_selects_sqlite(self, tmp_path):
        visited = make_visited(str(tmp_path / "v.sqlite"), 7)
        assert isinstance(visited, SqliteVisitedSet)
        assert visited.spill_threshold == 7
        visited.close()


class TestCheckerSpill:
    def test_spilled_run_matches_in_memory_run(self, tmp_path):
        """Where the visited set lives changes nothing the checker reports."""
        case = next(c for c in full_suite() if c.name == "ISA2.split@cord")

        def check(**storage):
            return ModelChecker(case.test, protocol=case.protocol,
                                partial=True, **storage).run()

        def outcomes(result):
            return {tuple(sorted(o.items())) for o in result.outcomes}

        memory = check()
        db = str(tmp_path / "visited.sqlite")
        spilled = check(visited_db=db, spill_threshold=3)
        assert spilled.states_explored == memory.states_explored
        assert spilled.deadlocks == memory.deadlocks
        for key in ("transitions", "visited_hits"):
            assert spilled.stats[key] == memory.stats[key]
        assert outcomes(spilled) == outcomes(memory)
        assert spilled.stats["visited_spilled"] == 1.0
        assert memory.stats["visited_spilled"] == 0.0
        assert glob.glob(db + "*") == []  # scratch database removed
