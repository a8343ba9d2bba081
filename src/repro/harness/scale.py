"""The ``scale`` experiment: protocol x topology x offered load, open loop.

The paper's headline scaling claim — CORD stays low-latency and
bandwidth-efficient as the system grows while SO's acknowledgment storms do
not — is a *curve*, not a point.  This harness produces that curve: it
sweeps protocol x system size (single- and multi-pod topologies) x offered
load with the open-loop workload (:mod:`repro.workloads.openloop`) through
the cached executor, and emits one ``run_table.csv`` row per run x
repetition with throughput, latency percentiles, traffic, fault and energy
columns.  :func:`crossover_report` then reads the table back and reports
where each protocol's tail latency crosses the baseline's.

Every row is derived purely from the executor's :class:`RunRecord` and the
spec that produced it — never from wall-clock or worker state — so the
table is byte-identical across ``--jobs`` values and across cache
hits/misses.  ``python -m repro scale [--quick]`` is the CLI entry point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import CXL, InterconnectConfig, SystemConfig
from repro.harness.executor import Executor, RunSpec, default_executor
from repro.harness.export import export_csv
from repro.workloads.openloop import (
    DELIVERY_LATENCY_STAT,
    SOURCE_LATENCY_STAT,
    OpenLoopSpec,
)

__all__ = [
    "RUN_TABLE_COLUMNS",
    "FULL_SIZES",
    "QUICK_SIZES",
    "scale_sweep",
    "write_run_table",
    "read_run_table",
    "validate_run_table",
    "crossover_report",
]

#: (hosts, pods) topology points of the full sweep: the paper's Table-1
#: octet, scaled down and up, with pods growing so each pod holds at most
#: eight hosts (64 hosts = 8 pods of 8).
FULL_SIZES: Tuple[Tuple[int, int], ...] = (
    (2, 1), (4, 1), (8, 2), (16, 4), (64, 8),
)
#: CI / --quick topology points (still >= 3 sizes, incl. one multi-pod).
QUICK_SIZES: Tuple[Tuple[int, int], ...] = ((2, 1), (4, 1), (8, 2))

FULL_PROTOCOLS = ("mp", "cord", "so", "tardis")
QUICK_PROTOCOLS = ("cord", "so", "tardis")

#: Mean per-producer interarrival times (ns); offered load rises to the
#: right.  The quick grid keeps two points (>= 2 load points).
FULL_LOADS = (4_000.0, 2_000.0, 1_000.0)
QUICK_LOADS = (4_000.0, 1_500.0)

#: ``run_table.csv`` column contract: name -> meaning.  ``write_run_table``
#: asserts every produced row matches this exactly and writes it next to
#: the CSV as ``run_table.columns.md``; ``validate_run_table`` (CI) checks
#: a written table against it.
RUN_TABLE_COLUMNS: Dict[str, str] = {
    "experiment": "Always 'scale' (run-log compatible label).",
    "protocol": "Protocol under test (mp | cord | so | ...).",
    "interconnect": "Inter-host link model (CXL | UPI).",
    "hosts": "CPU hosts in the simulated system.",
    "pods": "Pods the hosts are grouped into (1 = single switch).",
    "cores_per_host": "Cores per host (producer + consumer = 2).",
    "arrival": "Arrival process: poisson | deterministic.",
    "interarrival_ns": "Mean gap between requests per producer (ns).",
    "offered_rps_per_host": "Offered load per producer (requests/s).",
    "rep": "Repetition index (varies machine + arrival seeds).",
    "requests": "Requests issued across all producers.",
    "sampled": ("Latency samples per distribution (warmup excluded).  "
                "A never-sampled distribution exports no percentile "
                "stats at all — its p50/p95/p99 columns would read 0.0 "
                "only through the stat-missing fallback, which "
                "validate_run_table rejects."),
    "sim_time_ns": "Last core finish time (ns).",
    "quiesce_ns": "Simulated time once all traffic drained (ns).",
    "throughput_rps": "Completed requests per second of simulated time.",
    "source_latency_avg_ns": "Mean arrival->release-retired latency (ns).",
    "source_latency_p50_ns": "p50 of the source latency distribution (ns).",
    "source_latency_p95_ns": "p95 of the source latency distribution (ns).",
    "source_latency_p99_ns": "p99 of the source latency distribution (ns).",
    "delivery_latency_avg_ns": "Mean arrival->consumer-visible latency (ns).",
    "delivery_latency_p50_ns": "p50 of the delivery latency distribution (ns).",
    "delivery_latency_p95_ns": "p95 of the delivery latency distribution (ns).",
    "delivery_latency_p99_ns": "p99 of the delivery latency distribution (ns).",
    "inter_host_bytes": "Total inter-host traffic (bytes).",
    "inter_host_ctrl_bytes": "Control-class share of inter-host traffic.",
    "bytes_per_request": "Inter-host bytes per issued request.",
    "pod_uplink_bytes": "Bytes serialized on pod uplinks (0 when pods=1).",
    "pod_uplink_queue_ns": "Total queueing on pod uplinks (ns).",
    "inter_pod_bytes": "Bytes crossing the inter-pod spine (0 when pods=1).",
    "inter_pod_queue_ns": "Total queueing on pod downlinks (ns).",
    "retries": "Link-level retransmissions (faults.drop count).",
    "duplicates": "Fault-injected duplicate deliveries.",
    "faults_injected": "Total fault injections of any kind.",
    "energy_link_nj": "Link transmission energy (nJ, 5.4 constants).",
    "energy_total_nj": "Total dynamic energy estimate (nJ).",
    "events": "Simulator events processed.",
    "spec_key": "Content-addressed cache key of the run.",
}


def _scale_config(interconnect: InterconnectConfig, hosts: int,
                  pods: int) -> SystemConfig:
    config = SystemConfig().scaled(hosts, 2).with_interconnect(interconnect)
    if pods > 1:
        config = config.with_pods(pods)
    return config


def _workload(interarrival_ns: float, requests: int, warmup: int,
              rep: int, arrival: str) -> OpenLoopSpec:
    return OpenLoopSpec(
        arrival=arrival,
        interarrival_ns=interarrival_ns,
        requests=requests,
        warmup=warmup,
        seed=rep,
    )


def scale_sweep(
    protocols: Optional[Sequence[str]] = None,
    sizes: Optional[Sequence[Tuple[int, int]]] = None,
    loads_ns: Optional[Sequence[float]] = None,
    repetitions: int = 2,
    requests: Optional[int] = None,
    warmup: int = 2,
    arrival: str = "poisson",
    interconnect: InterconnectConfig = CXL,
    quick: bool = False,
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """Run the scale grid; returns one ``run_table`` row per run x rep.

    ``quick`` selects the CI-sized grid (3 sizes x 3 protocols x 2 loads
    x ``repetitions``, short horizons); explicit arguments override the
    selected defaults either way.  Rows come out in deterministic sweep
    order (protocol, then size, then load, then rep).
    """
    protocols = tuple(protocols if protocols is not None
                      else QUICK_PROTOCOLS if quick else FULL_PROTOCOLS)
    sizes = tuple(sizes if sizes is not None
                  else QUICK_SIZES if quick else FULL_SIZES)
    loads_ns = tuple(loads_ns if loads_ns is not None
                     else QUICK_LOADS if quick else FULL_LOADS)
    if requests is None:
        requests = 12 if quick else 32
    executor = executor if executor is not None else default_executor()

    points: List[Tuple[str, int, int, float, int]] = []
    specs: List[RunSpec] = []
    for protocol in protocols:
        for hosts, pods in sizes:
            config = _scale_config(interconnect, hosts, pods)
            for interarrival_ns in loads_ns:
                for rep in range(repetitions):
                    workload = _workload(interarrival_ns, requests, warmup,
                                         rep, arrival)
                    points.append((protocol, hosts, pods, interarrival_ns,
                                   rep))
                    specs.append(RunSpec(
                        kind="openloop", protocol=protocol,
                        workload=workload, config=config, seed=rep,
                        experiment="scale",
                    ))

    records = executor.map(specs)
    rows = []
    for (protocol, hosts, pods, interarrival_ns, rep), spec, record in zip(
        points, specs, records
    ):
        rows.append(_row(protocol, hosts, pods, interarrival_ns, rep,
                         spec, record, interconnect))
    return rows


def _row(protocol: str, hosts: int, pods: int, interarrival_ns: float,
         rep: int, spec: RunSpec, record: Any,
         interconnect: InterconnectConfig) -> Dict[str, Any]:
    workload: OpenLoopSpec = spec.workload
    issued = hosts * workload.requests
    quiesce = record.quiesce_ns or 1.0
    row = {
        "experiment": "scale",
        "protocol": protocol,
        "interconnect": interconnect.name,
        "hosts": hosts,
        "pods": pods,
        "cores_per_host": spec.config.cores_per_host,
        "arrival": workload.arrival,
        "interarrival_ns": interarrival_ns,
        "offered_rps_per_host": 1e9 / interarrival_ns,
        "rep": rep,
        "requests": issued,
        "sampled": int(record.stat(f"{DELIVERY_LATENCY_STAT}.count")),
        "sim_time_ns": record.time_ns,
        "quiesce_ns": record.quiesce_ns,
        "throughput_rps": issued / (quiesce * 1e-9),
        "source_latency_avg_ns": record.stat(f"{SOURCE_LATENCY_STAT}.mean"),
        "source_latency_p50_ns": record.stat(f"{SOURCE_LATENCY_STAT}.p50"),
        "source_latency_p95_ns": record.stat(f"{SOURCE_LATENCY_STAT}.p95"),
        "source_latency_p99_ns": record.stat(f"{SOURCE_LATENCY_STAT}.p99"),
        "delivery_latency_avg_ns": record.stat(
            f"{DELIVERY_LATENCY_STAT}.mean"),
        "delivery_latency_p50_ns": record.stat(
            f"{DELIVERY_LATENCY_STAT}.p50"),
        "delivery_latency_p95_ns": record.stat(
            f"{DELIVERY_LATENCY_STAT}.p95"),
        "delivery_latency_p99_ns": record.stat(
            f"{DELIVERY_LATENCY_STAT}.p99"),
        "inter_host_bytes": record.inter_host_bytes,
        "inter_host_ctrl_bytes": record.inter_host_control_bytes,
        "bytes_per_request": record.inter_host_bytes / issued,
        "pod_uplink_bytes": record.stat("traffic.pod_uplink.bytes"),
        "pod_uplink_queue_ns": record.stat("traffic.pod_uplink.queue_ns"),
        "inter_pod_bytes": record.stat("traffic.inter_pod.bytes"),
        "inter_pod_queue_ns": record.stat("traffic.inter_pod.queue_ns"),
        "retries": record.stat("faults.drop"),
        "duplicates": record.stat("faults.duplicate"),
        "faults_injected": record.stat("faults.injected"),
        "energy_link_nj": record.energy.get("link_nj", 0.0),
        "energy_total_nj": record.energy.get("total_nj", 0.0),
        "events": record.events,
        "spec_key": record.spec_key,
    }
    assert list(row) == list(RUN_TABLE_COLUMNS), (
        "run_table row drifted from the documented column contract"
    )
    return row


# ---------------------------------------------------------------------------
# The run-table artifact
# ---------------------------------------------------------------------------
def write_run_table(rows: Sequence[Dict[str, Any]],
                    out_dir: Union[str, Path]) -> Tuple[Path, Path]:
    """Write ``run_table.csv`` + ``run_table.columns.md`` into ``out_dir``.

    Returns ``(csv_path, columns_path)``.  The columns doc is generated
    from :data:`RUN_TABLE_COLUMNS`, so table and contract cannot drift.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = export_csv(rows, out_dir / "run_table.csv",
                          columns=list(RUN_TABLE_COLUMNS))
    lines = [
        "# run_table.csv column contract",
        "",
        "One row per (protocol, hosts, pods, offered load, repetition) "
        "run of the `scale` experiment.",
        "Rows are deterministic: identical across `--jobs` values and "
        "across cache hits and misses.",
        "",
        "| column | meaning |",
        "| --- | --- |",
    ]
    lines += [f"| `{name}` | {meaning} |"
              for name, meaning in RUN_TABLE_COLUMNS.items()]
    columns_path = out_dir / "run_table.columns.md"
    columns_path.write_text("\n".join(lines) + "\n")
    return csv_path, columns_path


def read_run_table(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a written ``run_table.csv`` back into typed rows."""
    import csv

    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        rows = []
        for raw in reader:
            row: Dict[str, Any] = {}
            for name, value in raw.items():
                if name in ("experiment", "protocol", "interconnect",
                            "arrival", "spec_key"):
                    row[name] = value
                elif name in ("hosts", "pods", "cores_per_host", "rep",
                              "requests", "sampled", "events"):
                    row[name] = int(value)
                else:
                    row[name] = float(value)
            rows.append(row)
    return rows


def validate_run_table(path: Union[str, Path]) -> int:
    """Schema-validate a written ``run_table.csv`` (used by CI).

    Checks the header matches :data:`RUN_TABLE_COLUMNS` exactly, every
    row parses to the expected types, and the latency percentiles are
    populated (p99 >= p95 >= p50 > 0).  A never-sampled latency
    distribution exports no percentile keys (:meth:`StatRegistry.as_dict`)
    and surfaces here as 0.0 via ``RunRecord.stat``'s default — caught by
    the ``> 0`` bound rather than masquerading as a measured zero.
    Returns the row count.
    """
    import csv

    path = Path(path)
    with path.open(newline="") as handle:
        header = next(csv.reader(handle))
    if header != list(RUN_TABLE_COLUMNS):
        raise ValueError(
            f"run_table header drifted from the documented contract:\n"
            f"  expected {list(RUN_TABLE_COLUMNS)}\n  found    {header}"
        )
    rows = read_run_table(path)
    if not rows:
        raise ValueError(f"{path} contains no rows")
    for index, row in enumerate(rows):
        for prefix in ("source_latency", "delivery_latency"):
            p50 = row[f"{prefix}_p50_ns"]
            p95 = row[f"{prefix}_p95_ns"]
            p99 = row[f"{prefix}_p99_ns"]
            if not (p99 >= p95 >= p50 > 0):
                raise ValueError(
                    f"row {index}: {prefix} percentiles unpopulated "
                    f"(never-sampled distributions export no percentiles) "
                    f"or non-monotonic (p50={p50}, p95={p95}, p99={p99})"
                )
        if row["sampled"] <= 0 or row["requests"] <= 0:
            raise ValueError(f"row {index}: no sampled requests")
    return len(rows)


# ---------------------------------------------------------------------------
# Crossover analysis
# ---------------------------------------------------------------------------
def crossover_report(
    rows: Sequence[Dict[str, Any]],
    baseline: str = "cord",
    metric: str = "delivery_latency_p99_ns",
) -> List[Dict[str, Any]]:
    """Where does each protocol's tail latency cross the baseline's?

    Repetitions are averaged per (protocol, hosts, pods, load) point;
    for every non-baseline protocol and load the report walks system
    sizes in order and names the smallest size where the protocol's
    ``metric`` exceeds the baseline's (``crossover_size``, of the form
    ``"<hosts>x<pods>"``; empty when the curves never cross), plus the
    ratio at the smallest and largest size — the shape of the scaling
    gap the paper plots.

    Sizes are identified by the full (hosts, pods) pair throughout: a
    sweep that revisits a host count at a different pod count (say 8x1
    and 8x2) keeps both points distinct — keying by host count alone
    used to collide their ratio columns, silently dropping one and
    misattributing the crossover.
    """
    averaged: Dict[Tuple[str, int, int, float], float] = {}
    counts: Dict[Tuple[str, int, int, float], int] = {}
    for row in rows:
        key = (row["protocol"], row["hosts"], row["pods"],
               row["interarrival_ns"])
        averaged[key] = averaged.get(key, 0.0) + row[metric]
        counts[key] = counts.get(key, 0) + 1
    for key in averaged:
        averaged[key] /= counts[key]

    sizes = sorted({(row["hosts"], row["pods"]) for row in rows})
    loads = sorted({row["interarrival_ns"] for row in rows})
    protocols = sorted({row["protocol"] for row in rows})

    report: List[Dict[str, Any]] = []
    for protocol in protocols:
        if protocol == baseline:
            continue
        for load in loads:
            ratios: List[Tuple[Tuple[int, int], float]] = []
            for hosts, pods in sizes:
                value = averaged.get((protocol, hosts, pods, load))
                base = averaged.get((baseline, hosts, pods, load))
                if value is None or base is None or base <= 0:
                    continue
                ratios.append(((hosts, pods), value / base))
            if not ratios:
                continue
            crossover = next(
                (size for size, ratio in ratios if ratio > 1.0), None
            )
            (first_h, first_p), first_ratio = ratios[0]
            (last_h, last_p), last_ratio = ratios[-1]
            report.append({
                "protocol": protocol,
                "baseline": baseline,
                "metric": metric,
                "interarrival_ns": load,
                f"ratio_at_{first_h}h{first_p}p": first_ratio,
                f"ratio_at_{last_h}h{last_p}p": last_ratio,
                "crossover_size": ""
                if crossover is None else f"{crossover[0]}x{crossover[1]}",
            })
    return report
