"""Ablation — what do inter-directory notifications buy? (DESIGN.md §4)

``cord-nonotify`` keeps single-directory ordering but source-orders across
directories (draining pending directories before each cross-directory
Release).  At fan-out 1 it matches CORD exactly; at higher fan-outs it
re-introduces the processor stalls §4.2's notifications eliminate — the gap
quantifies the mechanism's contribution.
"""

import pytest

from benchmarks.conftest import run_once, show
from repro.harness import RunSpec, default_config, default_executor
from repro.workloads import MicroSpec

FANOUTS = (1, 3, 7)


def _sweep():
    points = [(fanout, protocol) for fanout in FANOUTS
              for protocol in ("cord", "cord-nonotify", "so")]
    specs = [
        RunSpec(kind="micro", protocol=protocol,
                workload=MicroSpec(fanout=fanout, sync_granularity=1024,
                                   total_bytes=32 * 1024),
                config=default_config(hosts=max(2, fanout + 1),
                                      cores_per_host=1),
                seed=0, experiment="ablation-notify")
        for fanout, protocol in points
    ]
    measured = dict(zip(points, default_executor().map(specs)))
    rows = []
    for fanout in FANOUTS:
        cord = measured[fanout, "cord"]
        ablated = measured[fanout, "cord-nonotify"]
        so = measured[fanout, "so"]
        rows.append({
            "fanout": fanout,
            "cord_time_ns": cord.quiesce_ns,
            "nonotify_vs_cord": ablated.quiesce_ns / cord.quiesce_ns,
            "so_vs_cord": so.quiesce_ns / cord.quiesce_ns,
            "nonotify_stall_ns": ablated.stall_ns("cross_dir_drain"),
        })
    return rows


def test_ablation_inter_directory_notifications(benchmark):
    rows = run_once(benchmark, _sweep)
    show("Ablation: CORD vs CORD-without-notifications", rows)

    fanout1 = next(r for r in rows if r["fanout"] == 1)
    # No other directories pending at fan-out 1: the variants coincide.
    assert fanout1["nonotify_vs_cord"] == pytest.approx(1.0, abs=0.02)
    assert fanout1["nonotify_stall_ns"] == 0

    # With real fan-out the ablated variant stalls at the source.
    for row in rows:
        if row["fanout"] > 1:
            assert row["nonotify_stall_ns"] > 0
            assert row["nonotify_vs_cord"] > 1.02

    # The penalty grows with fan-out (more directories to drain).
    by_fanout = sorted(rows, key=lambda r: r["fanout"])
    assert by_fanout[-1]["nonotify_vs_cord"] >= by_fanout[1]["nonotify_vs_cord"]
