"""Tests for the litmus suites (fast subsets; the full sweep is a bench)."""

from repro.harness.executor import Executor
from repro.litmus import CheckSpec, classic_tests, custom_tests


def check(cases):
    """Model-check ``cases`` the way the CLI sweeps do, uncached."""
    return Executor(jobs=1, cache_dir=None).map(cases)


def failures(records):
    return [record.workload for record in records if not record.passed]


class TestSuiteConstruction:
    def test_classic_count_covers_shapes_and_placements(self):
        tests = classic_tests()
        assert len(tests) == 56  # 14 shapes x 4 placements
        names = {t.name for t in tests}
        assert any(n.startswith("ISA2") for n in names)
        assert any(n.startswith("IRIW") or n.startswith("2+2W") for n in names)

    def test_custom_covers_paper_axes(self):
        cases = custom_tests()
        names = [c.workload_label for c in cases]
        assert any("mix-" in n for n in names)          # mixed CORD/SO cores
        assert any("MIXED-OPS" in n for n in names)     # per-op mixing
        assert any(".tiny" in n for n in names)         # under-provisioning
        assert any("EPOCH-WRAP" in n for n in names)    # epoch overflow
        assert any("CNT-WRAP" in n for n in names)      # counter overflow
        assert any(".tso" in n for n in names)          # TSO mode

    def test_suite_sizes_are_paper_scale(self):
        # Paper: 122 classic + 180 custom.  Ours: 88 classic runs
        # (44 tests x {cord, so}) + ~96 custom cases.
        from repro.litmus import full_suite
        assert len(full_suite()) >= 180


class TestSubsetSweeps:
    def test_split_placement_classics_pass_under_cord(self):
        subset = [
            CheckSpec(test=t, protocol="cord")
            for t in classic_tests() if t.name.endswith(".split")
        ]
        assert failures(check(subset)) == []

    def test_spread_placement_classics_pass_under_so(self):
        subset = [
            CheckSpec(test=t, protocol="so")
            for t in classic_tests() if t.name.endswith(".spread")
        ]
        assert failures(check(subset)) == []

    def test_overflow_customs_pass(self):
        subset = [c for c in custom_tests() if "WRAP" in c.workload_label][:4]
        assert subset
        assert failures(check(subset)) == []

    def test_report_counts(self):
        subset = [CheckSpec(test=classic_tests()[0])]
        records = check(subset)
        assert len(records) == 1
        assert records[0].states_explored > 0
