"""Tests for message breakdown accounting."""

import pytest

from repro import Machine, SystemConfig
from repro.harness import Executor, RunSpec, read_run_log
from repro.harness.breakdown import (
    CONTROL_TYPES,
    message_breakdown,
    protocol_comparison,
)
from repro.harness.experiments import default_config
from repro.overheads.energy import estimate_energy
from repro.workloads import APPLICATIONS, app, build_workload_programs


def _seed0_cr_run(protocol):
    config = default_config()
    machine = Machine(config, protocol=protocol, seed=0)
    return machine.run(build_workload_programs(APPLICATIONS["CR"], config))


@pytest.fixture(scope="module")
def cr_runs():
    config = SystemConfig().scaled(hosts=4, cores_per_host=2)
    spec = app("CR").scaled(iterations=3)
    runs = {}
    for protocol in ("cord", "so", "mp"):
        machine = Machine(config, protocol=protocol)
        runs[protocol] = machine.run(build_workload_programs(spec, config))
    return runs


class TestMessageBreakdown:
    def test_shares_sum_to_hundred(self, cr_runs):
        rows = message_breakdown(cr_runs["cord"])
        assert sum(r["share_pct"] for r in rows) == pytest.approx(100.0)

    def test_sorted_by_bytes(self, cr_runs):
        rows = message_breakdown(cr_runs["cord"])
        sizes = [r["bytes"] for r in rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_so_dominated_by_store_plus_ack(self, cr_runs):
        rows = {r["type"]: r for r in message_breakdown(cr_runs["so"])}
        assert "wt_ack" in rows
        assert rows["wt_ack"]["control"] is True
        # One ack per write-through store.
        assert rows["wt_ack"]["messages"] == rows["wt_store"]["messages"]

    def test_cord_breakdown_has_notifications_not_acks(self, cr_runs):
        rows = {r["type"]: r for r in message_breakdown(cr_runs["cord"])}
        assert "wt_ack" not in rows
        assert "rel_ack" in rows
        assert rows["wt_rlx"]["messages"] > 0

    def test_mp_has_no_control_messages(self, cr_runs):
        rows = message_breakdown(cr_runs["mp"])
        assert all(not r["control"] for r in rows)

    def test_scope_selection(self, cr_runs):
        intra = message_breakdown(cr_runs["cord"], scope="intra_host")
        assert isinstance(intra, list)


class TestControlLabels:
    def test_control_types_are_the_tables_control_messages(self):
        assert CONTROL_TYPES == {
            "wt_ack", "rel_ack", "req_notify", "notify", "load_req",
            "seq_flush", "seq_flush_ack", "getm", "gets", "inv", "inv_ack",
            "wb_ack", "fetch",
        }

    def test_wb_fetch_is_control(self):
        rows = {r["type"]: r for r in message_breakdown(_seed0_cr_run("wb"))}
        assert rows["fetch"]["messages"] == 640
        assert rows["fetch"]["control"] is True


class TestBarrierRows:
    """Inter-host rows agree with the network's control and data
    counters: CORD's §4.4 barrier Releases ride the data carrier
    ``wt_rel`` as control messages and get a control row of their own."""

    @pytest.mark.parametrize("protocol", ["so", "cord", "cord-nonotify",
                                          "mp", "wb", "seq8", "tardis"])
    def test_rows_sum_to_the_traffic_counters(self, protocol):
        result = _seed0_cr_run(protocol)
        rows = message_breakdown(result)
        control = [row for row in rows if row["control"]]
        data = [row for row in rows if not row["control"]]
        assert sum(row["messages"] for row in control) == result.stat(
            "msgs.inter_host.ctrl_count")
        assert (sum(row["bytes"] for row in control)
                == result.inter_host_control_bytes)
        assert (sum(row["bytes"] for row in data)
                == result.inter_host_data_bytes)
        split = [row["type"] for row in control
                 if row["type"] not in CONTROL_TYPES]
        if protocol.startswith("cord"):
            assert split == ["wt_rel"]
        else:
            # One row per type, labelled by its table.
            assert split == []
            assert len({row["type"] for row in rows}) == len(rows)


class TestMessageTotals:
    """Every inter-host message total counts a control message once."""

    def test_totals_equal_the_breakdown_sum(self, tmp_path):
        result = _seed0_cr_run("cord")
        rows = message_breakdown(result)
        assert sum(row["messages"] for row in rows) == 848
        assert result.stat("msgs.inter_host.ctrl_count") > 0
        assert estimate_energy(result).total_messages == 848

        log = tmp_path / "runs.jsonl"
        Executor(run_log=log).run(RunSpec(
            kind="app", protocol="cord", workload=APPLICATIONS["CR"],
            config=default_config(), seed=0))
        assert read_run_log(log)[0]["inter_host_msgs"] == 848


class TestProtocolComparison:
    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            protocol_comparison("NOPE")

    def test_rows_tagged_with_protocol_and_app(self):
        rows = protocol_comparison("CR", protocols=("cord",))
        assert rows
        assert all(r["protocol"] == "cord" and r["app"] == "CR"
                   for r in rows)

    @pytest.mark.parametrize("consistency", ["rc", "tso"])
    def test_rows_equal_direct_seed0_runs(self, consistency):
        # Reference: the seed-0 Machine runs its executor specs describe.
        config = default_config()
        expected = []
        for protocol in ("mp", "cord", "so"):
            machine = Machine(config, protocol=protocol,
                              consistency=consistency, seed=0)
            result = machine.run(
                build_workload_programs(APPLICATIONS["CR"], config))
            expected += [dict(row, protocol=protocol, app="CR")
                         for row in message_breakdown(result)]
        assert protocol_comparison("CR", consistency=consistency) == expected
