"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Usage::

    python3 perfbench/run.py --workload apps-closed --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` runs the workload untraced in a child process and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced pass and one traced pass,
each in its own process, and prints the per-layer metrics.  Either way the
outputs are checked (failed units, and identical final-state digests across
passes and between traced and untraced runs), every metric is printed by
name with its unit, and the last line is one JSON object::

    {"correct": true, "attempted": 126, "failed": 0, "metrics": {...}}

Exit status: 0 when the outputs are correct, 1 when they are not (the JSON
line still prints), 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import WORKLOADS  # noqa: E402
from tracer import layer_totals  # noqa: E402

#: Whole-invocation budget; each child gets what is left of it.
DEADLINE_S = 170.0
#: Time of ``child.calibration_loop`` on the reference host (a 2.0 GHz Xeon
#: vCPU under Python 3.11).  Every host time reported is scaled by this over
#: the loop time sampled while the time was measured, so a host that is
#: busier or slower during one run does not read as a regression.
REF_LOOP_S = 5.0e-4
#: Fresh interpreters that time ``import repro``: one import varies by about
#: a fifth from process to process, and it is most of check-suite's set-up.
IMPORT_RUNS = 5


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def host_record(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_loop_ms": [run["calibration_s"] * 1e3 for run in runs],
    }


def _scale(one_pass: Dict[str, Any]) -> float:
    """Factor that puts a pass's host times at the reference host speed."""
    return REF_LOOP_S / one_pass["calibration_s"]


def spawn(mode: str, args: argparse.Namespace, deadline: float
          ) -> Dict[str, Any]:
    """Run ``child.py`` in ``mode`` and return its JSON result."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}   # default program paths only
    command = [sys.executable, str(HERE / "child.py"), mode, args.workload,
               str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} child timed out") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def _mismatches(reference: List[List[str]], other: List[List[str]],
                what: str) -> List[str]:
    if [label for label, _ in reference] != [label for label, _ in other]:
        return [f"{what}: the runs executed different units"]
    return [f"{what}: {label} digest {a[:12]} != {b[:12]}"
            for (label, a), (_, b) in zip(reference, other) if a != b]


def end_to_end(child: Dict[str, Any], imports: List[Dict[str, Any]]
               ) -> Dict[str, float]:
    passes = child["passes"]
    facts = passes[0]["facts"]

    def scaled(key: str) -> float:
        return statistics.median(p[key] * _scale(p) for p in passes)

    wall = scaled("wall_s")
    import_s = statistics.median(run["import_s"] * _scale(run)
                                 for run in imports)
    return {
        "setup_s": import_s + scaled("setup_s"),
        "wall_s": wall,
        "cpu_s": scaled("cpu_s"),
        "peak_rss_mb": child["peak_rss_mb"],
        "work_per_s": (facts["events"] or facts["states"]) / wall,
    }


def per_layer(base: Dict[str, Any], traced: Dict[str, Any]
              ) -> Dict[str, float]:
    facts = base["passes"][0]["facts"]
    spans = traced["spans"]
    layers = layer_totals(spans)

    def count(layer: str) -> int:
        return layers.get(layer, {}).get("count", 0)

    traced_pass, base_pass = traced["passes"][0], base["passes"][0]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0) * _scale(traced_pass)

    def per(numerator: float, denominator: float, scale: float) -> float:
        return numerator / denominator * scale if denominator else 0.0

    events, states = facts["events"], facts["states"]
    traced_s = traced_pass["setup_s"] + traced_pass["wall_s"]
    return {
        "kernel.events": events,
        "kernel.self_s": self_s("kernel"),
        "kernel.ns_per_event": per(self_s("kernel"), events, 1e9),
        "core.ops": count("core"),
        "core.self_s": self_s("core"),
        "protocol.port.calls": count("protocol.port"),
        "protocol.port.self_s": self_s("protocol.port"),
        "protocol.dir.msgs": spans["boundaries"].get(
            "protocol.dir/handle", {}).get("count", 0),
        "protocol.dir.self_s": self_s("protocol.dir"),
        "protocol.ns_per_event": per(
            self_s("protocol.port") + self_s("protocol.dir"), events, 1e9),
        "protocol.call_rows": base["call_rows"],
        "network.sends": count("network"),
        "network.self_s": self_s("network"),
        "network.ns_per_send": per(self_s("network"), count("network"), 1e9),
        "network.inter_host_msgs": facts["inter_host_msgs"],
        "network.pod_queue_ns": facts["pod_queue_ns"],
        "faults.calls": count("faults"),
        "faults.self_s": self_s("faults"),
        "faults.injected": facts["faults_injected"],
        "stats.calls": count("stats"),
        "stats.self_s": self_s("stats"),
        "harvest.self_s": self_s("harvest"),
        "setup.build_s": self_s("setup.build"),
        "setup.machine_s": self_s("setup.machine"),
        "setup.checker_s": self_s("setup.checker"),
        "check.states": states,
        "check.explore.self_s": self_s("check.explore"),
        "check.us_per_state": per(self_s("check.explore"), states, 1e6),
        "check.transitions": facts["transitions"],
        "check.visited_hit_rate": per(facts["visited_hits"],
                                      facts["transitions"], 1.0),
        "check.ample_pruned": facts["ample_pruned"],
        "check.symmetry_canon": facts["symmetry_canon"],
        "check.peak_frontier": facts["peak_frontier"],
        "check.visited.calls": count("check.visited"),
        "check.visited.self_s": self_s("check.visited"),
        "check.symmetry.setup_s": self_s("check.symmetry"),
        "check.rc.calls": count("check.rc"),
        "check.rc.self_s": self_s("check.rc"),
        "sim.time_ns": facts["time_ns"],
        "sim.inter_host_bytes": facts["inter_host_bytes"],
        "sim.p99_delivery_ns.cord": facts["p99.cord"],
        "sim.p99_delivery_ns.so": facts["p99.so"],
        "sim.p99_delivery_ns.tardis": facts["p99.tardis"],
        "trace.overhead_frac": (traced_pass["wall_s"] * _scale(traced_pass)
                                / (base_pass["wall_s"] * _scale(base_pass))
                                - 1.0),
        "trace.unattributed_frac": 1.0 - spans["covered_s"] / traced_s,
    }


def _units(key: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in data[key]}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "full checkout", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace == 0:
            imports = [spawn("import", args, deadline)
                       for _ in range(IMPORT_RUNS)]
            child = spawn("measure", args, deadline)
            runs = [child]
            metrics = end_to_end(child, imports)
            units = _units("end_to_end")
            first = child["passes"][0]["digests"]
            problems = [m for index, later in enumerate(child["passes"][1:], 2)
                        for m in _mismatches(first, later["digests"],
                                             f"pass 1 vs pass {index}")]
        else:
            base = spawn("once", args, deadline)
            traced = spawn("traced", args, deadline)
            runs = [base, traced]
            metrics = per_layer(base, traced)
            units = _units("per_layer")
            problems = _mismatches(base["passes"][0]["digests"],
                                   traced["passes"][0]["digests"],
                                   "untraced vs traced")
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if list(metrics) != list(units):
        print(f"perfbench: metrics {list(metrics)} differ from "
              f"BENCHMARK.json {list(units)}", file=sys.stderr)
        return 2

    print("host " + json.dumps(host_record(runs)))
    passes = [p for run in runs for p in run["passes"]]
    for index, one_pass in enumerate(passes, 1):
        print(f"pass {index}: {one_pass['wall_s']:.4f} s host wall, scaled "
              f"by {_scale(one_pass):.4f} to the reference host")
    attempted = sum(len(p["digests"]) for p in passes)
    failures = [reason for p in passes for reason in p["failures"]]
    for reason in dict.fromkeys(failures):
        print(f"FAILED {reason}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"checks: {attempted} units attempted, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:g}), "
          f"{len(problems)} digest mismatches")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
