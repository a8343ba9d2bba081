"""Scalability — CORD's benefit as the system grows (the title's claim).

The paper's "scalable" claim rests on the inter-directory notification
mechanism keeping cross-directory ordering off the processor's critical
path as hosts (and therefore directories) multiply.  This benchmark sweeps
the host count on a communication-heavy workload and checks that CORD's
advantage over SO neither collapses nor inverts, and that its protocol
tables stay bounded.
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import run_once, show
from repro.config import CXL
from repro.harness import RunSpec, default_config, default_executor
from repro.workloads import app

HOST_COUNTS = (2, 4, 8)


def _sweep():
    base = app("MOCFE").scaled(iterations=6)
    points = [(hosts, protocol) for hosts in HOST_COUNTS
              for protocol in ("cord", "so")]
    specs = [
        RunSpec(kind="app", protocol=protocol,
                workload=replace(base, fanout=min(base.fanout, hosts - 1)),
                config=default_config(CXL, hosts=hosts),
                seed=0, experiment="scalability")
        for hosts, protocol in points
    ]
    measured = dict(zip(points, default_executor().map(specs)))
    rows = []
    for hosts in HOST_COUNTS:
        cord = measured[hosts, "cord"]
        storage = cord.storage_report()
        rows.append({
            "hosts": hosts,
            "cord_time_ns": cord.time_ns,
            "so_vs_cord": measured[hosts, "so"].time_ns / cord.time_ns,
            "max_proc_B": storage.max_proc_bytes,
            "max_dir_B": storage.max_dir_bytes,
        })
    return rows


def test_scalability(benchmark):
    rows = run_once(benchmark, _sweep)
    show("Scalability: MOCFE (high fan-out) across 2-8 hosts", rows)

    # CORD keeps a meaningful edge at every scale.
    for row in rows:
        assert row["so_vs_cord"] > 1.05

    # Protocol state stays within the paper's Fig.-11 bounds at 8 hosts.
    biggest = max(rows, key=lambda r: r["hosts"])
    assert biggest["max_proc_B"] <= 64
    assert biggest["max_dir_B"] <= 2048
