"""Metric definitions of the repository benchmark: one row per metric.

Each row holds the contract fields ``BENCHMARK.json`` carries (name, unit,
direction, bound) and what a reader needs to use the number: where it comes
from, which layer it belongs to, and which end-to-end metric on which
workload it should move.  ``python3 perfbench/metrics.py`` rewrites
``METRICS.md`` and the workload and metric lists of ``BENCHMARK.json`` from
these rows; the benchmark's tests check that the three agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = {
    "apps-closed": (
        "closed loop: ten Table-2 apps (2 iterations each) under so, cord, "
        "seq8 and tardis plus the 1 MB micro stream under cord and tardis; "
        "kernel, cpu.core and protocol dispatch dominate"),
    "openloop-pods": (
        "open loop: 16 hosts in 4 pods, Poisson arrivals every 1,000 ns, "
        "cord/so/tardis with and without drop+dup faults; stresses the "
        "network tiers and is the only workload that runs the faults layer"),
    "check-suite": (
        "serial model checking with POR and symmetry: the full suite, the "
        "classic tests under mp/seq2/tardis and a seeded batch of generated "
        "programs; only the checker layers do work"),
}

#: Seed reserved for confirming a gain claim on inputs nobody tuned against
#: (choosing-metrics guide, section 6.3).  Never use it while developing.
HELD_OUT_SEED = 4242


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    source: str
    moves: str
    bound: Optional[float] = None


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "set-up",
           "median over five fresh interpreters of `import repro`, plus the "
           "median over the run's passes of program builds and "
           "`Machine(...)`/`ModelChecker(...)` construction; scaled to the "
           "reference host",
           "itself, on every workload", 0.25),
    Metric("wall_s", "s", "lower", "all",
           "median over passes of host wall time of `Machine.run` plus "
           "harvest (timed workloads) or `ModelChecker.run` (check-suite); "
           "scaled to the reference host",
           "itself, on every workload", 0.25),
    Metric("cpu_s", "s", "lower", "all",
           "`time.process_time()` over the same intervals as `wall_s`; "
           "scaled to the reference host",
           "itself, on every workload", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", "all",
           "`ru_maxrss` of the untraced workload process",
           "itself, on every workload", 0.10),
    Metric("work_per_s", "1/s", "higher", "all",
           "work of one pass / `wall_s`: simulator events "
           "(`Simulator.processed_events`) on the timed workloads, explored "
           "states on check-suite",
           "itself, on every workload", 0.25),
]

PER_LAYER: List[Metric] = [
    Metric("kernel.events", "count", "lower", "sim.kernel",
           "summed `Simulator.processed_events`",
           "none for a speed-only change"),
    Metric("kernel.self_s", "s", "lower", "sim.kernel",
           "self time of `Simulator.run_until_processes_finish` and "
           "`Simulator.run`",
           "work_per_s and wall_s on apps-closed / none on check-suite"),
    Metric("kernel.ns_per_event", "ns", "lower", "sim.kernel",
           "kernel.self_s / kernel.events",
           "work_per_s on apps-closed"),
    Metric("core.ops", "count", "lower", "cpu.core",
           "resumptions of `Core.run` plus calls of `Core.handle`",
           "none for a speed-only change"),
    Metric("core.self_s", "s", "lower", "cpu.core",
           "self time of the same spans",
           "wall_s on apps-closed / none on check-suite"),
    Metric("protocol.port.calls", "count", "lower", "protocols.table",
           "resumptions of `TableCorePort.store/load/atomic/fence/drain/"
           "finish` plus calls of `TableCorePort.on_message`",
           "none for a speed-only change"),
    Metric("protocol.port.self_s", "s", "lower", "protocols.table",
           "self time of the same spans",
           "wall_s on apps-closed / less on openloop-pods"),
    Metric("protocol.dir.msgs", "count", "lower", "protocols.table",
           "calls of `DirectoryNode.handle`",
           "none for a speed-only change"),
    Metric("protocol.dir.self_s", "s", "lower", "protocols.table",
           "self time of `DirectoryNode.handle` and "
           "`TableDirectory._process`",
           "wall_s on apps-closed / less on openloop-pods"),
    Metric("protocol.ns_per_event", "ns", "lower", "protocols.table",
           "(protocol.port.self_s + protocol.dir.self_s) / kernel.events",
           "work_per_s on apps-closed"),
    Metric("protocol.call_rows", "count", "lower", "protocols.compile",
           "rows `compile_spec` lowered to G_CALL/A_CALL/D_CALL for the "
           "workload's protocols (static)",
           "wall_s on apps-closed and check-suite"),
    Metric("network.sends", "count", "lower", "interconnect.network",
           "calls of `Network.send`",
           "none for a speed-only change"),
    Metric("network.self_s", "s", "lower", "interconnect.network",
           "self time of `Network.send`",
           "wall_s on openloop-pods / little on apps-closed"),
    Metric("network.ns_per_send", "ns", "lower", "interconnect.network",
           "network.self_s / network.sends",
           "wall_s on openloop-pods"),
    Metric("network.inter_host_msgs", "count", "lower",
           "interconnect.network",
           "summed `msgs.inter_host.*` stats",
           "none for a speed-only change"),
    Metric("network.pod_queue_ns", "sim_ns", "lower", "interconnect.network",
           "summed `traffic.pod_uplink.queue_ns` + "
           "`traffic.inter_pod.queue_ns` (simulated)",
           "none for a speed-only change"),
    Metric("faults.calls", "count", "lower", "faults",
           "calls of `FaultInjector.accept/link_ready_ns/"
           "serialization_factor/retry_delay_ns/release_ns/"
           "duplicate_delay_ns/assign_seq`",
           "none for a speed-only change; zero off openloop-pods"),
    Metric("faults.self_s", "s", "lower", "faults",
           "self time of the same calls",
           "wall_s on the faulted openloop-pods runs / zero elsewhere"),
    Metric("faults.injected", "count", "lower", "faults",
           "summed `faults.injected` stat",
           "none for a speed-only change"),
    Metric("stats.calls", "count", "lower", "sim.stats",
           "calls of `Counter.add`, `Accumulator.add`, `MaxTracker.set/add`",
           "none for a speed-only change"),
    Metric("stats.self_s", "s", "lower", "sim.stats",
           "self time of the same calls",
           "wall_s on openloop-pods and apps-closed"),
    Metric("harvest.self_s", "s", "lower", "sim.stats, overheads",
           "self time of `StatRegistry.as_dict`, `collect_storage` and "
           "`estimate_energy`",
           "wall_s on apps-closed / little on openloop-pods"),
    Metric("setup.build_s", "s", "lower", "workloads",
           "self time of `build_workload_programs`/`build_micro_programs`/"
           "`build_openloop_programs` and of building the checker cases",
           "setup_s on every workload"),
    Metric("setup.machine_s", "s", "lower", "protocols.machine",
           "self time of `Machine(...)`",
           "setup_s on apps-closed and openloop-pods"),
    Metric("setup.checker_s", "s", "lower", "litmus.model_checker",
           "self time of `ModelChecker(...)` (symmetry discovery excluded)",
           "setup_s on check-suite"),
    Metric("check.states", "count", "lower", "litmus.model_checker",
           "summed `CheckResult.states_explored`",
           "none for a speed-only change"),
    Metric("check.explore.self_s", "s", "lower", "litmus.model_checker",
           "self time of `ModelChecker.run` (visited set and RC checks "
           "excluded)",
           "work_per_s on check-suite / none on the timed workloads"),
    Metric("check.us_per_state", "us", "lower", "litmus.model_checker",
           "check.explore.self_s / check.states",
           "work_per_s on check-suite"),
    Metric("check.transitions", "count", "lower", "litmus.model_checker",
           "summed `CheckResult.stats['transitions']`",
           "none for a speed-only change"),
    Metric("check.visited_hit_rate", "ratio", "higher",
           "litmus.model_checker",
           "summed visited hits / summed transitions",
           "none for a speed-only change"),
    Metric("check.ample_pruned", "count", "higher", "litmus.model_checker",
           "summed `CheckResult.stats['ample_pruned']`",
           "none for a speed-only change"),
    Metric("check.symmetry_canon", "count", "lower", "litmus.model_checker",
           "summed `CheckResult.stats['symmetry_canon']`",
           "none for a speed-only change"),
    Metric("check.peak_frontier", "count", "lower", "litmus.model_checker",
           "largest `CheckResult.stats['peak_frontier']`",
           "peak_rss_mb on check-suite"),
    Metric("check.visited.calls", "count", "lower", "litmus.visited",
           "calls of `add` on `MemoryVisitedSet`/`SqliteVisitedSet`",
           "none for a speed-only change"),
    Metric("check.visited.self_s", "s", "lower", "litmus.visited",
           "self time of the same calls",
           "work_per_s on check-suite"),
    Metric("check.symmetry.setup_s", "s", "lower", "litmus.symmetry",
           "self time of `find_automorphisms`",
           "setup_s on check-suite"),
    Metric("check.rc.calls", "count", "lower", "consistency.checker",
           "calls of `check_rc`",
           "none for a speed-only change"),
    Metric("check.rc.self_s", "s", "lower", "consistency.checker",
           "self time of `check_rc`",
           "work_per_s on check-suite"),
    Metric("sim.time_ns", "sim_ns", "lower", "simulated machine",
           "summed simulated completion time (`RunResult.time_ns`, Fig. 7's "
           "quantity)",
           "none for a speed-only change"),
    Metric("sim.inter_host_bytes", "B", "lower", "simulated machine",
           "summed `traffic.inter_host.total` (the paper's bandwidth claim)",
           "none for a speed-only change"),
    Metric("sim.p99_delivery_ns.cord", "sim_ns", "lower", "simulated machine",
           "p99 of `openloop.delivery_latency_ns`, cord run without faults",
           "none for a speed-only change"),
    Metric("sim.p99_delivery_ns.so", "sim_ns", "lower", "simulated machine",
           "p99 of `openloop.delivery_latency_ns`, so run without faults",
           "none for a speed-only change"),
    Metric("sim.p99_delivery_ns.tardis", "sim_ns", "lower",
           "simulated machine",
           "p99 of `openloop.delivery_latency_ns`, tardis run without faults",
           "none for a speed-only change"),
    Metric("trace.overhead_frac", "ratio", "lower", "the traced run",
           "traced wall_s / untraced wall_s of one pass - 1", "none"),
    Metric("trace.unattributed_frac", "ratio", "lower", "the traced run",
           "share of the traced pass's wall time covered by no span", "none"),
]


def benchmark_entries() -> Dict[str, List[Dict[str, object]]]:
    """The ``end_to_end``/``per_layer`` lists as ``BENCHMARK.json`` holds them."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def render_reference() -> str:
    """The text of ``METRICS.md``."""
    lines = [
        "# Benchmark metric reference",
        "",
        "Generated from `perfbench/metrics.py` "
        "(`python3 perfbench/metrics.py` rewrites this file).",
        "",
        "Run one workload with "
        "`python3 perfbench/run.py --workload NAME --seed N --seconds S "
        "--trace 0|1`.",
        "`--trace 0` prints the end-to-end metrics, measured in a process "
        "that never installs a wrapper.",
        "`--trace 1` prints the per-layer metrics of a separate traced pass.",
        "Metrics whose unit is `sim_ns`, `B` or `count` are simulated or "
        "counted; they repeat exactly for a seed.",
        "Host times (unit `s`, `ns`, `us`) are scaled to the reference host: "
        "the child process times a fixed pure-Python loop every 50 ms, and "
        "each time is multiplied by the loop's reference time (`REF_LOOP_S` "
        "in `run.py`) over the loop time sampled while it was measured. "
        "The host record line prints the sampled loop times; the pass lines "
        "print the unscaled wall times.",
        "A per-layer metric reads 0 on a workload that never enters its layer.",
        "A traced self time includes the wrapper cost of entering and leaving "
        "its child spans, so layers with many children (network, protocol) "
        "read high; `trace.overhead_frac` is the total cost of tracing.",
        "",
        "Seeds: `--seed` is the only input. Machine seeds, open-loop arrival "
        "seeds and the generated litmus programs derive from it "
        "(`work.derive`). The faulted open-loop runs replay one fixed scenario "
        "(`FAULT_SCENARIO_SEED`), because CORD livelocks under drop+dup on "
        "some seeds.",
        "",
        f"Held-out seed: `{HELD_OUT_SEED}`. It was not used while the benchmark "
        "was written; confirm gain claims on it.",
        "",
        "## Workloads",
        "",
        "| workload | what and why |",
        "| --- | --- |",
    ]
    lines += [f"| `{name}` | {why} |" for name, why in WORKLOADS.items()]
    for title, rows in (("End-to-end metrics", END_TO_END),
                        ("Per-layer metrics", PER_LAYER)):
        lines += [
            "",
            f"## {title}",
            "",
            "| metric | unit | better | bound | layer | source | "
            "should move |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for m in rows:
            bound = "" if m.bound is None else f"{m.bound:g}"
            lines.append(f"| `{m.name}` | {m.unit} | {m.better} | {bound} | "
                         f"{m.layer} | {m.source} | {m.moves} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    (here / "METRICS.md").write_text(render_reference())
    contract_path = here.parent / "BENCHMARK.json"
    contract = json.loads(contract_path.read_text())
    contract["workloads"] = [{"name": name, "why": why}
                             for name, why in WORKLOADS.items()]
    contract.update(benchmark_entries())
    contract_path.write_text(json.dumps(contract, indent=2) + "\n")
    print(f"wrote {here / 'METRICS.md'} and {contract_path}")
