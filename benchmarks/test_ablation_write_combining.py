"""Ablation — write-combining on word-granular workloads (§2.1).

PR and SSSP store at word (8 B) granularity, so every write-through message
is dominated by its header.  A small source-side combining buffer merges
same-line stores before they hit the wire; this benchmark quantifies the
traffic (and message-count) reduction per protocol, and checks that CORD's
advantage over SO is preserved with combining enabled.
"""

import pytest

from benchmarks.conftest import run_once, show
from repro.harness import RunSpec, default_config, default_executor
from repro.workloads import app


def _sweep():
    spec = app("PR").scaled(iterations=4)
    points = [(wc_lines, protocol)
              for wc_lines in (0, 4) for protocol in ("cord", "so", "mp")]
    specs = [
        RunSpec(kind="app", protocol=protocol, workload=spec,
                config=default_config().with_write_combining(wc_lines),
                seed=0, experiment="ablation-wc")
        for wc_lines, protocol in points
    ]
    rows = []
    for (wc_lines, protocol), record in zip(
        points, default_executor().map(specs)
    ):
        rows.append({
            "wc_lines": wc_lines,
            "protocol": protocol,
            "time_ns": record.time_ns,
            "traffic_B": record.inter_host_bytes,
            "data_msgs": record.message_count("wt_rlx")
            + record.message_count("wt_store"),
        })
    return rows


def test_ablation_write_combining(benchmark):
    rows = run_once(benchmark, _sweep)
    show("Ablation: write-combining on PR (8 B stores)", rows)

    def pick(wc, protocol):
        return next(r for r in rows
                    if r["wc_lines"] == wc and r["protocol"] == protocol)

    for protocol in ("cord", "so", "mp"):
        plain = pick(0, protocol)
        combined = pick(4, protocol)
        # Word stores coalesce into lines: ~8x fewer data messages and a
        # large traffic cut.
        assert combined["data_msgs"] < plain["data_msgs"] / 4
        assert combined["traffic_B"] < plain["traffic_B"] * 0.7

    # CORD still beats SO with combining on (acks remain per message).
    assert pick(4, "so")["time_ns"] > pick(4, "cord")["time_ns"]
    assert pick(4, "so")["traffic_B"] > pick(4, "cord")["traffic_B"]
