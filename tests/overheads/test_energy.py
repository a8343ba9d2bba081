"""Tests for the §5.4 energy model."""

import pytest

from repro import Machine, SystemConfig
from repro.harness.experiments import default_config
from repro.overheads.energy import energy_comparison, estimate_energy
from repro.workloads import APPLICATIONS, app, build_workload_programs


@pytest.fixture(scope="module")
def runs():
    config = SystemConfig().scaled(hosts=4, cores_per_host=2)
    spec = app("CR").scaled(iterations=3)
    out = {}
    for protocol in ("mp", "cord", "so"):
        machine = Machine(config, protocol=protocol)
        out[protocol] = machine.run(build_workload_programs(spec, config))
    return out


class TestEstimate:
    def test_components_positive(self, runs):
        report = estimate_energy(runs["cord"])
        assert report.link_nj > 0
        assert report.llc_nj > 0
        assert report.table_nj > 0
        assert report.total_nj == pytest.approx(
            report.link_nj + report.llc_nj + report.table_nj
        )

    def test_link_energy_tracks_traffic(self, runs):
        cord = estimate_energy(runs["cord"])
        so = estimate_energy(runs["so"])
        ratio_energy = so.link_nj / cord.link_nj
        ratio_traffic = (runs["so"].inter_host_bytes
                         / runs["cord"].inter_host_bytes)
        assert ratio_energy == pytest.approx(ratio_traffic)

    def test_cord_table_energy_below_one_percent(self, runs):
        """§5.4: protocol dynamic energy is < 1 % of link + LLC energy."""
        report = estimate_energy(runs["cord"])
        assert report.protocol_overhead_fraction < 0.01

    def test_non_cord_protocols_have_no_table_energy(self, runs):
        assert estimate_energy(runs["mp"]).table_nj == 0
        assert estimate_energy(runs["so"]).table_nj == 0

    def test_so_costs_more_energy_than_cord(self, runs):
        """Acknowledgments cost energy proportional to their bytes (§3.1)."""
        assert estimate_energy(runs["so"]).total_nj > \
            estimate_energy(runs["cord"]).total_nj


class TestComparison:
    def test_rows_normalized_to_cord(self):
        rows = energy_comparison("CR")
        by_protocol = {r["protocol"]: r for r in rows}
        assert by_protocol["cord"]["vs_cord"] == pytest.approx(1.0)
        assert by_protocol["so"]["vs_cord"] > 1.0
        assert by_protocol["mp"]["vs_cord"] <= 1.0 + 1e-9

    def test_rows_equal_direct_seed0_runs(self):
        # Reference: the seed-0 Machine runs its executor specs describe,
        # priced live by estimate_energy.
        config = default_config()
        reports = {}
        for protocol in ("mp", "cord", "so"):
            machine = Machine(config, protocol=protocol, seed=0)
            reports[protocol] = estimate_energy(machine.run(
                build_workload_programs(APPLICATIONS["CR"], config)))
        cord_total = reports["cord"].total_nj
        expected = [{
            "app": "CR",
            "protocol": protocol,
            "link_nJ": report.link_nj,
            "llc_nJ": report.llc_nj,
            "table_nJ": report.table_nj,
            "total_nJ": report.total_nj,
            "vs_cord": report.total_nj / cord_total,
            "protocol_overhead_pct": 100 * report.protocol_overhead_fraction,
        } for protocol, report in reports.items()]
        assert energy_comparison("CR") == expected
