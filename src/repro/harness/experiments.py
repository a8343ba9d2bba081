"""Experiment runners: one function per paper figure/table.

Every function returns structured rows that correspond directly to the
series the paper plots; ``print_*`` wrappers render them as text tables.
The default system is a scaled-down instance of Table 1 (4 hosts x 2 cores,
the full cache/interconnect parameters) so each experiment completes in
seconds while preserving relative protocol behaviour; pass a different
``SystemConfig`` to scale up.

Every simulation-backed experiment expands into a flat list of independent
:class:`~repro.harness.executor.RunSpec` points and runs them through an
:class:`~repro.harness.executor.Executor` — pass ``executor=`` (or install
one with :func:`~repro.harness.executor.set_default_executor`) to
parallelize sweeps across a worker pool and memoize completed runs on disk.
Row values are computed from the executor's :class:`RunRecord`s, so serial,
parallel and cache-recalled invocations produce byte-identical rows.

See EXPERIMENTS.md for the paper-vs-measured record produced by these
harnesses.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import CXL, UPI, CordConfig, InterconnectConfig, SystemConfig
from repro.faults import DegradeSpec, DropSpec, FaultPlan
from repro.harness.executor import Executor, RunSpec, default_executor
from repro.harness.report import format_table, normalize_to
from repro.overheads.cacti import cord_overhead_table, overhead_ratios
from repro.workloads.ata import AtaSpec
from repro.workloads.micro import MicroSpec
from repro.workloads.table2 import APPLICATIONS, app_names

__all__ = [
    "default_config",
    "fig2_source_ordering_overheads",
    "fig5_message_counts",
    "fig7_end_to_end",
    "fig8_sensitivity",
    "fig9_latency_sweep",
    "fig10_bitwidth",
    "fig11_storage",
    "fig12_storage_breakdown",
    "fig13_tso",
    "table3_area_power",
    "resilience_sweep",
]

#: Protocols shown in Fig. 7 / Fig. 13, in the paper's order.
PROTOCOLS = ("mp", "cord", "so", "wb")


def default_config(
    interconnect: InterconnectConfig = CXL,
    hosts: int = 4,
    cores_per_host: int = 2,
) -> SystemConfig:
    """The scaled-down Table-1 system used by the harnesses."""
    return SystemConfig().scaled(hosts, cores_per_host).with_interconnect(
        interconnect
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _producer_cores(config: SystemConfig) -> List[int]:
    return [h * config.cores_per_host for h in range(config.hosts)]


def _app_spec(
    name: str,
    protocol: str,
    config: SystemConfig,
    consistency: str = "rc",
    experiment: str = "",
) -> RunSpec:
    return RunSpec(
        kind="app", protocol=protocol, workload=APPLICATIONS[name],
        config=config, consistency=consistency, seed=0,
        experiment=experiment,
    )


def _micro_spec(
    spec: MicroSpec,
    protocol: str,
    config: SystemConfig,
    cord_config: Optional[CordConfig] = None,
    experiment: str = "",
) -> RunSpec:
    return RunSpec(
        kind="micro", protocol=protocol, workload=spec, config=config,
        cord_config=cord_config, seed=0, experiment=experiment,
    )


# ---------------------------------------------------------------------------
# Fig. 2 — source ordering's acknowledgment overheads
# ---------------------------------------------------------------------------
def fig2_source_ordering_overheads(
    interconnects: Sequence[InterconnectConfig] = (CXL, UPI),
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """% execution time spent waiting for WT acks and % traffic from acks,
    per application, under source ordering."""
    executor = executor or default_executor()
    points = [
        (interconnect, name)
        for interconnect in interconnects
        for name in apps or app_names()
    ]
    specs = [
        _app_spec(name, "so", default_config(interconnect),
                  experiment="fig2")
        for interconnect, name in points
    ]
    rows: List[Dict[str, Any]] = []
    for (interconnect, name), record in zip(points, executor.map(specs)):
        config = default_config(interconnect)
        producers = _producer_cores(config)
        stall = sum(
            record.core_stall_ns(core, "wait_wt_ack")
            + record.core_stall_ns(core, "wait_drain")
            for core in producers
        )
        time_pct = 100.0 * stall / (record.time_ns * len(producers))
        ack_bytes = record.stat("bytes.inter_host.wt_ack")
        traffic_pct = 100.0 * ack_bytes / max(record.inter_host_bytes, 1)
        rows.append({
            "interconnect": interconnect.name,
            "app": name,
            "exec_time_waiting_pct": time_pct,
            "ack_traffic_pct": traffic_pct,
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 5 — control messages and stall hops (analytic)
# ---------------------------------------------------------------------------
def fig5_message_counts(m: int, n: int) -> List[Dict[str, Any]]:
    """The analytical comparison of Fig. 5: m Relaxed stores to n-1
    directories followed by one Release to the n-th."""
    return [
        {
            "scheme": "SO",
            "stall_hops": 2,
            "release_delay_hops": 3,
            "control_messages": m + 1,
        },
        {
            "scheme": "CORD",
            "stall_hops": 0,
            "release_delay_hops": 2,
            "control_messages": 2 * n - 1,
        },
    ]


# ---------------------------------------------------------------------------
# Fig. 7 / Fig. 13 — end-to-end workloads
# ---------------------------------------------------------------------------
def _end_to_end(
    consistency: str,
    interconnects: Sequence[InterconnectConfig],
    apps: Optional[Sequence[str]],
    mp_tqh_na: bool,
    executor: Optional[Executor],
    experiment: str,
) -> List[Dict[str, Any]]:
    executor = executor or default_executor()

    def skip(name: str, protocol: str) -> bool:
        # §3.2: TQH hits the ISA2-style error pattern under MP and cannot
        # be evaluated (reproduced by the model checker on the ISA2
        # variant).
        return (mp_tqh_na and protocol == "mp" and name == "TQH"
                and consistency == "rc")

    points = [
        (interconnect, name, protocol)
        for interconnect in interconnects
        for name in apps or app_names()
        for protocol in PROTOCOLS
        if not skip(name, protocol)
    ]
    specs = [
        _app_spec(name, protocol, default_config(interconnect),
                  consistency, experiment=experiment)
        for interconnect, name, protocol in points
    ]
    measured = {
        point: record for point, record in zip(points, executor.map(specs))
    }

    rows: List[Dict[str, Any]] = []
    for interconnect in interconnects:
        for name in apps or app_names():
            times: Dict[str, Optional[float]] = {}
            traffic: Dict[str, Optional[float]] = {}
            for protocol in PROTOCOLS:
                record = measured.get((interconnect, name, protocol))
                times[protocol] = record.time_ns if record else None
                traffic[protocol] = (
                    record.inter_host_bytes if record else None
                )
            norm_t = normalize_to(times, "cord")
            norm_b = normalize_to(traffic, "cord")
            row: Dict[str, Any] = {
                "interconnect": interconnect.name,
                "app": name,
            }
            for protocol in PROTOCOLS:
                row[f"time_{protocol}"] = norm_t[protocol]
                row[f"traffic_{protocol}"] = norm_b[protocol]
            rows.append(row)
    return rows


def fig7_end_to_end(
    interconnects: Sequence[InterconnectConfig] = (CXL, UPI),
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """End-to-end time and traffic under release consistency, normalized to
    CORD (Fig. 7)."""
    return _end_to_end("rc", interconnects, apps, mp_tqh_na=True,
                       executor=executor, experiment="fig7")


def fig13_tso(
    interconnects: Sequence[InterconnectConfig] = (CXL, UPI),
    apps: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """End-to-end time and traffic under TSO (Fig. 13, §6)."""
    return _end_to_end("tso", interconnects, apps, mp_tqh_na=False,
                       executor=executor, experiment="fig13")


# ---------------------------------------------------------------------------
# Fig. 8 — sensitivity to store/sync granularity and fan-out
# ---------------------------------------------------------------------------
_F8_PROTOCOLS = ("mp", "cord", "so")


def _sensitivity_point(
    parameter: str, value: int, total_bytes: int,
    interconnect: InterconnectConfig,
) -> Tuple[MicroSpec, SystemConfig]:
    """The Fig. 8/9 micro-benchmark with ``parameter`` set to ``value`` and
    the others at the paper's defaults (64 B stores, 4 KB sync, fan-out 1).

    Single-producer micro: one core, so one LLC slice, per host keeps the
    directories touched per epoch within Table 3's processor-table
    provisioning."""
    params = {"store": 64, "sync": 4 * 1024, "fanout": 1}
    params[parameter] = value
    if params["sync"] < params["store"]:
        params["store"] = params["sync"]
    spec = MicroSpec(
        store_granularity=params["store"],
        sync_granularity=params["sync"],
        fanout=params["fanout"],
        total_bytes=max(total_bytes, params["sync"] * 4),
    )
    config = default_config(
        interconnect, hosts=max(2, params["fanout"] + 1), cores_per_host=1,
    )
    return spec, config


def fig8_sensitivity(
    parameter: str,
    values: Optional[Sequence[int]] = None,
    interconnects: Sequence[InterconnectConfig] = (CXL, UPI),
    total_bytes: int = 64 * 1024,
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """One panel of Fig. 8.  ``parameter`` is ``"store"``, ``"sync"`` or
    ``"fanout"``; other parameters stay at the paper's defaults (64 B
    stores, 4 KB sync, fan-out 1)."""
    executor = executor or default_executor()
    sweep = {
        "store": values or (8, 64, 256, 1024, 4096),
        "sync": values or (64, 512, 4 * 1024, 32 * 1024, 256 * 1024),
        "fanout": values or (1, 3, 7),
    }[parameter]

    points = []
    specs = []
    for interconnect in interconnects:
        for value in sweep:
            spec, config = _sensitivity_point(parameter, value, total_bytes,
                                              interconnect)
            for protocol in _F8_PROTOCOLS:
                points.append((interconnect, value, protocol))
                specs.append(_micro_spec(spec, protocol, config,
                                         experiment="fig8"))
    measured = {
        point: record for point, record in zip(points, executor.map(specs))
    }

    rows: List[Dict[str, Any]] = []
    for interconnect in interconnects:
        for value in sweep:
            times: Dict[str, float] = {}
            traffic: Dict[str, float] = {}
            for protocol in _F8_PROTOCOLS:
                record = measured[(interconnect, value, protocol)]
                times[protocol] = record.quiesce_ns
                traffic[protocol] = record.inter_host_bytes
            norm_t = normalize_to(times, "cord")
            norm_b = normalize_to(traffic, "cord")
            row: Dict[str, Any] = {
                "interconnect": interconnect.name,
                parameter: value,
            }
            for protocol in _F8_PROTOCOLS:
                row[f"time_{protocol}"] = norm_t[protocol]
                row[f"traffic_{protocol}"] = norm_b[protocol]
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — inter-PU directory access latency sweep
# ---------------------------------------------------------------------------
def fig9_latency_sweep(
    latencies_ns: Sequence[float] = (100, 200, 300, 400),
    parameter: str = "store",
    values: Optional[Sequence[int]] = None,
    total_bytes: int = 64 * 1024,
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """SO's time and traffic normalized to CORD as inter-PU latency varies,
    for several settings of one application parameter (Fig. 9)."""
    executor = executor or default_executor()
    sweep = {
        "store": values or (8, 64, 4096),
        "sync": values or (64, 4 * 1024, 256 * 1024),
        "fanout": values or (1, 3, 7),
    }[parameter]

    points = []
    specs = []
    for value in sweep:
        for latency in latencies_ns:
            interconnect = InterconnectConfig(
                name=f"L{latency}", inter_host_latency_ns=float(latency)
            )
            spec, config = _sensitivity_point(parameter, value, total_bytes,
                                              interconnect)
            for protocol in ("so", "cord"):
                points.append((value, latency, protocol))
                specs.append(_micro_spec(spec, protocol, config,
                                         experiment="fig9"))
    measured = {
        point: record for point, record in zip(points, executor.map(specs))
    }

    rows: List[Dict[str, Any]] = []
    for value in sweep:
        for latency in latencies_ns:
            so = measured.get((value, latency, "so"))
            cord = measured.get((value, latency, "cord"))
            if so is None or cord is None:
                continue
            rows.append({
                parameter: value,
                "latency_ns": latency,
                "so_time_norm": so.quiesce_ns / cord.quiesce_ns,
                "so_traffic_norm": so.inter_host_bytes / cord.inter_host_bytes,
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 — epoch/store-counter bit-width vs SEQ baselines
# ---------------------------------------------------------------------------
def fig10_bitwidth(
    counter_bits: Sequence[int] = (8, 16, 32),
    epoch_bits: Sequence[int] = (4, 8, 16),
    interconnects: Sequence[InterconnectConfig] = (CXL, UPI),
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """CORD under varying epoch/store-counter widths vs the SEQ-8/SEQ-40
    monolithic sequence-number baselines (Fig. 10).

    Times are normalized to SEQ-40 (the no-overflow baseline); traffic to
    SEQ-8 (the no-inflation baseline).
    """
    executor = executor or default_executor()
    # Fine stores, many per release: overflows 8-bit counters; enough
    # releases to cycle small epoch spaces.
    spec = MicroSpec(
        store_granularity=64,
        sync_granularity=64 * 1024,
        fanout=1,
        total_bytes=256 * 1024,
    )
    points = []
    specs = []
    for interconnect in interconnects:
        config = default_config(interconnect, hosts=2, cores_per_host=1)
        for baseline in ("seq8", "seq40"):
            points.append((interconnect.name, baseline, None))
            specs.append(_micro_spec(spec, baseline, config,
                                     experiment="fig10"))
        for bits in counter_bits:
            points.append((interconnect.name, "counter", bits))
            specs.append(_micro_spec(
                spec, "cord", config,
                cord_config=replace(config.cord, counter_bits=bits),
                experiment="fig10",
            ))
        for bits in epoch_bits:
            points.append((interconnect.name, "epoch", bits))
            specs.append(_micro_spec(
                spec, "cord", config,
                cord_config=replace(config.cord, epoch_bits=bits),
                experiment="fig10",
            ))
    measured = {
        point: record for point, record in zip(points, executor.map(specs))
    }

    rows: List[Dict[str, Any]] = []
    for interconnect in interconnects:
        seq8 = measured[(interconnect.name, "seq8", None)]
        seq40 = measured[(interconnect.name, "seq40", None)]
        base = {
            "interconnect": interconnect.name,
            "seq8_time": seq8.quiesce_ns,
            "seq40_time": seq40.quiesce_ns,
            "seq8_traffic": seq8.inter_host_bytes,
            "seq40_traffic": seq40.inter_host_bytes,
        }
        for sweep_name, bits_list in (("counter", counter_bits),
                                      ("epoch", epoch_bits)):
            for bits in bits_list:
                result = measured[(interconnect.name, sweep_name, bits)]
                rows.append(dict(
                    base,
                    sweep=sweep_name,
                    bits=bits,
                    cord_time_vs_seq40=result.quiesce_ns / seq40.quiesce_ns,
                    cord_traffic_vs_seq8=(
                        result.inter_host_bytes / seq8.inter_host_bytes
                    ),
                ))
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 / Fig. 12 — storage overheads
# ---------------------------------------------------------------------------
_STORAGE_APPS = ("SSSP", "PAD", "PR")


def _storage_spec(
    workload: str, hosts: int, interconnect: InterconnectConfig,
    experiment: str,
) -> RunSpec:
    config = default_config(interconnect, hosts=hosts)
    if workload == "ATA":
        return RunSpec(kind="ata", protocol="cord",
                       workload=AtaSpec(rounds=12), config=config, seed=0,
                       experiment=experiment)
    spec = APPLICATIONS[workload]
    fanout = min(spec.fanout, hosts - 1)
    spec = replace(spec, fanout=fanout)
    return RunSpec(kind="app", protocol="cord", workload=spec, config=config,
                   seed=0, experiment=experiment)


def fig11_storage(
    host_counts: Sequence[int] = (2, 4, 8),
    workloads: Sequence[str] = _STORAGE_APPS + ("ATA",),
    interconnects: Sequence[InterconnectConfig] = (CXL, UPI),
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """Peak processor and directory storage vs number of PUs (Fig. 11)."""
    executor = executor or default_executor()
    points = [
        (interconnect, workload, hosts)
        for interconnect in interconnects
        for workload in workloads
        for hosts in host_counts
    ]
    specs = [
        _storage_spec(workload, hosts, interconnect, "fig11")
        for interconnect, workload, hosts in points
    ]
    rows: List[Dict[str, Any]] = []
    for (interconnect, workload, hosts), record in zip(
        points, executor.map(specs)
    ):
        report = record.storage_report()
        rows.append({
            "interconnect": interconnect.name,
            "workload": workload,
            "hosts": hosts,
            "proc_storage_B": report.max_proc_bytes,
            "dir_storage_B": report.max_dir_bytes,
        })
    return rows


def fig12_storage_breakdown(
    host_counts: Sequence[int] = (2, 4, 8),
    interconnects: Sequence[InterconnectConfig] = (CXL, UPI),
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """ATA storage broken down by component (Fig. 12)."""
    executor = executor or default_executor()
    points = [
        (interconnect, hosts)
        for interconnect in interconnects
        for hosts in host_counts
    ]
    specs = [
        _storage_spec("ATA", hosts, interconnect, "fig12")
        for interconnect, hosts in points
    ]
    rows: List[Dict[str, Any]] = []
    for (interconnect, hosts), record in zip(points, executor.map(specs)):
        report = record.storage_report()
        proc = report.proc_breakdown()
        directory = report.dir_breakdown()
        rows.append({
            "interconnect": interconnect.name,
            "hosts": hosts,
            "proc_store_counters_B": proc.get("store_counters", 0),
            "proc_other_tables_B": proc.get("unacked_epochs", 0),
            "dir_lookup_tables_B": (
                directory.get("store_counters", 0)
                + directory.get("notification_counters", 0)
                + directory.get("largest_committed", 0)
            ),
            "dir_network_buffer_B": directory.get("network_buffer", 0),
        })
    return rows


# ---------------------------------------------------------------------------
# Resilience — protocol behaviour under injected transport adversity
# ---------------------------------------------------------------------------
_RESILIENCE_PROTOCOLS = ("so", "cord", "mp", "tardis")


def resilience_sweep(
    loss_rates: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    degrade_factors: Sequence[float] = (1.0, 2.0, 4.0),
    protocols: Sequence[str] = _RESILIENCE_PROTOCOLS,
    executor: Optional[Executor] = None,
) -> List[Dict[str, Any]]:
    """Execution time and traffic vs link loss rate and bandwidth
    degradation depth (see :mod:`repro.faults`), per protocol.

    Each protocol is normalized to its own fault-free run, so the rows
    answer "how gracefully does each ordering scheme absorb transport
    adversity" rather than re-ranking the protocols.  SO pays on every
    store (each WT ack round-trip eats the retransmit latency), CORD on
    release edges, MP only on delivery, Tardis only on lease-miss read
    round trips (stores and fences are ack-free) — the sweep quantifies
    that.
    """
    executor = executor or default_executor()
    spec = MicroSpec(
        store_granularity=64,
        sync_granularity=1024,
        fanout=1,
        total_bytes=16 * 1024,
    )
    config = default_config(hosts=2, cores_per_host=1)

    points = []
    specs = []
    # Baselines carry an explicit *disabled* plan (not None) so an
    # Executor-level default fault plan cannot rewrite them.
    for protocol in protocols:
        for rate in loss_rates:
            plan = (FaultPlan(drop=DropSpec(rate=rate)) if rate > 0
                    else FaultPlan())
            points.append((protocol, "loss", rate))
            specs.append(RunSpec(
                kind="micro", protocol=protocol, workload=spec,
                config=config, seed=0, experiment="resilience",
                faults=plan,
            ))
        for factor in degrade_factors:
            plan = (FaultPlan(degrade=DegradeSpec(
                period_ns=10_000.0, window_ns=2_500.0, factor=factor,
            )) if factor != 1.0 else FaultPlan())
            points.append((protocol, "degrade", factor))
            specs.append(RunSpec(
                kind="micro", protocol=protocol, workload=spec,
                config=config, seed=0, experiment="resilience",
                faults=plan,
            ))
    measured = {
        point: record for point, record in zip(points, executor.map(specs))
    }

    rows: List[Dict[str, Any]] = []
    for protocol in protocols:
        base_time = measured[(protocol, "loss", loss_rates[0])].quiesce_ns
        base_bytes = measured[
            (protocol, "loss", loss_rates[0])
        ].inter_host_bytes
        for axis, values in (("loss", loss_rates),
                             ("degrade", degrade_factors)):
            for value in values:
                record = measured[(protocol, axis, value)]
                rows.append({
                    "protocol": protocol,
                    "axis": axis,
                    "value": value,
                    "time_norm": record.quiesce_ns / base_time,
                    "traffic_norm": record.inter_host_bytes / base_bytes,
                    "faults_injected": record.stat("faults.injected"),
                })
    return rows


# ---------------------------------------------------------------------------
# Table 3 — area and power
# ---------------------------------------------------------------------------
def table3_area_power(
    config: Optional[SystemConfig] = None,
) -> List[Dict[str, Any]]:
    """Look-up table sizes, area, power and access energy (Table 3).

    Purely analytic (no simulation), so it does not go through the
    executor."""
    config = config or SystemConfig()
    rows: List[Dict[str, Any]] = []
    table = cord_overhead_table(config)
    for row in table:
        rows.append({
            "location": row.location,
            "component": row.component,
            "entries": row.entries,
            "area_mm2": row.area_mm2,
            "power_mW": row.power_mw,
            "read_nJ": row.read_energy_nj,
            "write_nJ": row.write_energy_nj,
        })
    ratios = overhead_ratios(table)
    rows.append({
        "location": "summary",
        "component": "dir area ratio vs LLC slice",
        "entries": None,
        "area_mm2": ratios["dir_area_ratio"],
        "power_mW": ratios["dir_power_ratio"],
        "read_nJ": ratios["dynamic_energy_ratio"],
        "write_nJ": None,
    })
    return rows


# ---------------------------------------------------------------------------
# Pretty-printers
# ---------------------------------------------------------------------------
def print_rows(rows: List[Dict[str, Any]], title: str = "") -> str:
    text = (f"== {title} ==\n" if title else "") + format_table(rows)
    print(text)
    return text
