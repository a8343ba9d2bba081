"""Energy accounting (§5.4) and hierarchical-topology extension.

Two supplementary sweeps: (1) the interconnect-energy comparison the paper's
§3.1/§5.4 reasoning implies — SO's acknowledgments cost energy proportional
to their bytes, while CORD's table accesses are noise; (2) a two-level
(pod) fabric sweep showing CORD's round-trip savings grow with topology
depth, the concern the paper's introduction raises about increasingly
complex interconnects.
"""

import pytest

from benchmarks.conftest import run_once, show
from repro.config import SystemConfig
from repro.harness import RunSpec, default_executor
from repro.overheads import energy_comparison
from repro.workloads import app


def _energy_rows():
    rows = []
    for name in ("CR", "PR", "MOCFE"):
        rows.extend(energy_comparison(name))
    return rows


def test_energy_comparison(benchmark):
    rows = run_once(benchmark, _energy_rows)
    show("Energy: link + LLC + protocol tables, normalized to CORD", rows)

    for name in ("CR", "PR", "MOCFE"):
        sub = {r["protocol"]: r for r in rows if r["app"] == name}
        if name != "MOCFE":
            # SO burns more energy than CORD, proportional to its ack bytes.
            assert sub["so"]["vs_cord"] > 1.0
        else:
            # MOCFE is the paper's exception (fine sync + high fan-out):
            # CORD's notifications outweigh the saved acks, in energy as in
            # traffic (Fig. 7).
            assert sub["so"]["vs_cord"] < 1.0
        # MP is the lower bound.
        assert sub["mp"]["vs_cord"] <= 1.0 + 1e-9
        # CORD's table energy is noise (§5.4: ~1 %).
        assert sub["cord"]["protocol_overhead_pct"] < 1.5


POD_COUNTS = (1, 2, 4)


def _pod_rows():
    spec = app("CR").scaled(iterations=4)
    points = [(pods, protocol) for pods in POD_COUNTS
              for protocol in ("cord", "so")]
    specs = [
        RunSpec(kind="app", protocol=protocol, workload=spec,
                config=(SystemConfig().scaled(hosts=4, cores_per_host=2)
                        .with_pods(pods)),
                seed=0, experiment="topology-pods")
        for pods, protocol in points
    ]
    measured = dict(zip(points, default_executor().map(specs)))
    rows = []
    for pods in POD_COUNTS:
        cord = measured[pods, "cord"].time_ns
        so = measured[pods, "so"].time_ns
        rows.append({
            "pods": pods,
            "cord_time_ns": cord,
            "so_vs_cord": so / cord,
        })
    return rows


def test_topology_depth(benchmark):
    rows = run_once(benchmark, _pod_rows)
    show("Topology: CORD's edge vs pod count (two-level fabric)", rows)
    ratios = [r["so_vs_cord"] for r in rows]
    # Deeper fabric -> longer round trips -> larger CORD advantage.
    assert ratios == sorted(ratios)
    assert ratios[-1] > ratios[0]
