"""Visited-set storage: novelty contract and the SQLite spill path."""

import glob
import os

import pytest

from repro.litmus.model_checker import ModelChecker
from repro.litmus.suite import classic_tests, full_suite
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


def _outcomes(result):
    return {tuple(sorted(o.items())) for o in result.outcomes}


def _exploration(result):
    """The counts and outcomes a merged or split state would move."""
    return (result.states_explored, result.deadlocks,
            result.stats["transitions"], result.stats["visited_hits"],
            _outcomes(result))


class TestDigestKeys:
    @pytest.mark.parametrize("protocol",
                             ["so", "cord", "mp", "seq2", "tardis"])
    def test_digest_keys_explore_what_raw_keys_explore(self, protocol,
                                                       tmp_path):
        """Without symmetry, an in-memory run keys the visited set by raw
        tuples and a ``visited_db`` run that never spills keys it by their
        digests; nothing else about the search differs."""
        db = str(tmp_path / "visited.sqlite")
        mismatches = []
        for test in classic_tests():
            raw = ModelChecker(test, protocol=protocol, symmetry=False,
                               partial=True).run()
            digest = ModelChecker(test, protocol=protocol, symmetry=False,
                                  partial=True, visited_db=db).run()
            assert digest.stats["visited_spilled"] == 0.0
            if _exploration(digest) != _exploration(raw):
                mismatches.append(test.name)
        assert not mismatches


class TestCheckerSpill:
    def test_spilled_run_matches_in_memory_run(self, tmp_path):
        """Where the visited set lives changes nothing the checker reports."""
        case = next(c for c in full_suite()
                    if c.workload_label == "ISA2.split@cord")

        def check(**storage):
            return ModelChecker(case.test, protocol=case.protocol,
                                partial=True, **storage).run()

        memory = check()
        db = str(tmp_path / "visited.sqlite")
        spilled = check(visited_db=db, spill_threshold=3)
        assert _exploration(spilled) == _exploration(memory)
        assert spilled.stats["visited_spilled"] == 1.0
        assert memory.stats["visited_spilled"] == 0.0
        assert glob.glob(db + "*") == []  # scratch database removed
