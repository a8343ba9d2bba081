"""Tests for the statistics registry."""

import pytest

from repro.sim import StatRegistry


class TestCounters:
    def test_counter_starts_at_zero(self):
        stats = StatRegistry()
        assert stats.counter("x").value == 0.0

    def test_counter_accumulates(self):
        stats = StatRegistry()
        stats.counter("bytes").add(10)
        stats.counter("bytes").add(2.5)
        assert stats.value("bytes") == 12.5

    def test_counter_identity_is_stable(self):
        stats = StatRegistry()
        assert stats.counter("a") is stats.counter("a")

    def test_missing_counter_reads_zero(self):
        assert StatRegistry().value("nope") == 0.0

    def test_sum_matching_prefix(self):
        stats = StatRegistry()
        stats.counter("traffic.ctrl").add(3)
        stats.counter("traffic.data").add(4)
        stats.counter("other").add(100)
        assert stats.sum_matching("traffic.") == 7


class TestMaxTracker:
    def test_tracks_maximum(self):
        stats = StatRegistry()
        tracker = stats.max_tracker("occupancy")
        tracker.set(3)
        tracker.set(10)
        tracker.set(5)
        assert tracker.maximum == 10
        assert tracker.current == 5

    def test_add_delta(self):
        stats = StatRegistry()
        tracker = stats.max_tracker("o")
        tracker.add(4)
        tracker.add(-2)
        tracker.add(5)
        assert tracker.current == 7
        assert tracker.maximum == 7

    def test_max_value_query(self):
        stats = StatRegistry()
        stats.max_tracker("t").set(9)
        assert stats.max_value("t") == 9
        assert stats.max_value("missing") == 0.0


class TestAccumulator:
    def test_count_sum_mean(self):
        stats = StatRegistry()
        acc = stats.accumulator("lat")
        for value in (1.0, 2.0, 3.0):
            acc.add(value)
        assert acc.count == 3
        assert acc.total == 6.0
        assert acc.mean == 2.0

    def test_min_max(self):
        stats = StatRegistry()
        acc = stats.accumulator("lat")
        for value in (5.0, 1.0, 9.0):
            acc.add(value)
        assert acc.minimum == 1.0
        assert acc.maximum == 9.0

    def test_empty_mean_is_zero(self):
        assert StatRegistry().accumulator("x").mean == 0.0

    def test_samples_kept_only_when_requested(self):
        stats = StatRegistry()
        keep = stats.accumulator("keep", keep_samples=True)
        keep.add(1.0)
        assert keep.samples == [1.0]
        drop = stats.accumulator("drop")
        drop.add(1.0)
        assert drop.samples == []


class TestPercentiles:
    def _acc(self, *values):
        acc = StatRegistry().accumulator("lat", keep_samples=True)
        for value in values:
            acc.add(value)
        return acc

    def test_empty_percentile_is_none(self):
        """Regression: an empty accumulator used to report 0.0, which is
        indistinguishable from a genuine zero-latency percentile."""
        acc = self._acc()
        assert acc.percentile(99.0) is None
        assert acc.p50 is None and acc.p95 is None and acc.p99 is None

    def test_genuine_zero_percentile_stays_zero(self):
        acc = self._acc(0.0, 0.0, 0.0)
        assert acc.percentile(99.0) == 0.0
        assert acc.p50 == 0.0

    def test_single_sample_is_every_percentile(self):
        acc = self._acc(7.0)
        assert acc.p50 == acc.p95 == acc.p99 == 7.0

    def test_linear_interpolation_between_closest_ranks(self):
        # numpy's default method: rank = q/100 * (n-1), interpolated.
        acc = self._acc(40.0, 10.0, 30.0, 20.0)   # order must not matter
        assert acc.percentile(0.0) == 10.0
        assert acc.percentile(100.0) == 40.0
        assert acc.p50 == pytest.approx(25.0)
        assert acc.percentile(25.0) == pytest.approx(17.5)

    @pytest.mark.parametrize("q", [150.0, -10.0, 100.5, float("nan")])
    def test_out_of_range_q_is_rejected(self, q):
        """Regression: q=150 raised IndexError and q=-10 silently
        extrapolated to 8.0, below the smallest sample."""
        acc = self._acc(10.0, 20.0, 30.0)
        with pytest.raises(ValueError, match="0-100"):
            acc.percentile(q)

    def test_range_bounds_are_inclusive(self):
        acc = self._acc(10.0, 20.0, 30.0)
        assert acc.percentile(0.0) == 10.0
        assert acc.percentile(100.0) == 30.0

    def test_tail_orders_correctly(self):
        acc = self._acc(*[1.0] * 99, 1000.0)
        assert acc.p50 == 1.0
        assert acc.p99 > acc.p95 >= acc.p50

    def test_as_dict_exports_percentiles_only_with_samples(self):
        stats = StatRegistry()
        stats.accumulator("kept", keep_samples=True).add(2.0)
        stats.accumulator("dropped").add(2.0)
        flattened = stats.as_dict()
        assert flattened["kept.p50"] == 2.0
        assert flattened["kept.p95"] == 2.0
        assert flattened["kept.p99"] == 2.0
        assert "dropped.p50" not in flattened

    def test_as_dict_omits_percentiles_for_never_sampled_accumulators(self):
        """A keep_samples accumulator nothing was ever added to exports
        no percentile keys at all — not a fake measured 0.0."""
        stats = StatRegistry()
        stats.accumulator("idle", keep_samples=True)
        flattened = stats.as_dict()
        assert "idle.p50" not in flattened
        assert "idle.p95" not in flattened
        assert "idle.p99" not in flattened
        assert flattened["idle.count"] == 0


class TestViews:
    def test_as_dict_contains_all_kinds(self):
        stats = StatRegistry()
        stats.counter("c").add(1)
        stats.max_tracker("m").set(2)
        stats.accumulator("a").add(3)
        flattened = stats.as_dict()
        assert flattened["c"] == 1
        assert flattened["m.max"] == 2
        assert flattened["a.count"] == 1
        assert flattened["a.mean"] == 3

    def test_as_dict_exports_accumulator_tails(self):
        """Regression: ``as_dict`` used to export only count/mean, so
        cached records silently lost an accumulator's total/min/max."""
        stats = StatRegistry()
        acc = stats.accumulator("lat")
        for value in (4.0, 1.0, 7.0):
            acc.add(value)
        flattened = stats.as_dict()
        assert flattened["lat.count"] == 3
        assert flattened["lat.total"] == 12.0
        assert flattened["lat.mean"] == 4.0
        assert flattened["lat.min"] == 1.0
        assert flattened["lat.max"] == 7.0

    def test_as_dict_empty_accumulator_tails_are_zero(self):
        stats = StatRegistry()
        stats.accumulator("lat")
        flattened = stats.as_dict()
        assert flattened["lat.min"] == 0.0
        assert flattened["lat.max"] == 0.0
        assert flattened["lat.total"] == 0.0

    def test_grouped_by_head(self):
        stats = StatRegistry()
        stats.counter("traffic.ctrl").add(1)
        stats.counter("traffic.data").add(2)
        stats.counter("stall.ack").add(3)
        groups = stats.grouped()
        assert set(groups) >= {"traffic", "stall"}
        assert groups["traffic"]["ctrl"] == 1


class TestAccumulatorFlagUpgrade:
    """Regression: ``accumulator(name, keep_samples=True)`` used to return
    a previously-created instance with ``keep_samples=False`` unchanged,
    silently dropping every subsequent sample."""

    def test_keep_samples_upgrades_existing_accumulator(self):
        stats = StatRegistry()
        first = stats.accumulator("lat")          # created without samples
        first.add(1.0)
        second = stats.accumulator("lat", keep_samples=True)
        assert second is first                     # same instance...
        assert second.keep_samples                 # ...flag upgraded
        second.add(2.0)
        assert second.samples == [2.0]             # kept from upgrade on
        assert second.count == 2                   # aggregates unaffected

    def test_keep_samples_never_downgrades(self):
        stats = StatRegistry()
        stats.accumulator("lat", keep_samples=True).add(1.0)
        again = stats.accumulator("lat")           # plain re-lookup
        again.add(2.0)
        assert again.samples == [1.0, 2.0]
