"""Interconnect + protocol energy estimation (§5.4's energy analysis).

The paper prices the three energy components of a write-through store:
moving it over the link (4.6 pJ/bit for CXL 3.0 / PCIe 6.0 transceivers),
writing it into the LLC (3.407 nJ per 64 B line, CACTI), and CORD's
look-up table accesses (0.016–0.025 nJ) — concluding the protocol's dynamic
energy overhead is < 1 %.  :func:`estimate_energy` applies those constants
to a finished run, so every experiment can report energy alongside time and
traffic (source ordering's acknowledgments cost energy *proportional to the
communicated data size*, §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.overheads.cacti import (
    LINK_ENERGY_PJ_PER_BIT,
    LLC_WRITE_ENERGY_NJ_64B,
)
from repro.protocols.machine import RunResult
from repro.sim.stats import inter_host_messages

__all__ = ["EnergyReport", "estimate_energy", "energy_comparison"]

# Per-access energy for the protocol look-up tables (Table 3's range).
_TABLE_ACCESS_NJ = 0.020


@dataclass(frozen=True)
class EnergyReport:
    """Dynamic energy estimate for one run, in nanojoules."""

    link_nj: float           # inter-host transmission
    llc_nj: float            # LLC line writes at commit points
    table_nj: float          # protocol look-up table accesses (CORD)
    total_messages: int

    @property
    def total_nj(self) -> float:
        return self.link_nj + self.llc_nj + self.table_nj

    @property
    def protocol_overhead_fraction(self) -> float:
        """Table energy relative to everything else (§5.4: < 1 %)."""
        base = self.link_nj + self.llc_nj
        return self.table_nj / base if base else 0.0


def estimate_energy(result: RunResult) -> EnergyReport:
    """Price a finished run with the paper's §5.4 energy constants."""
    link_nj = (
        result.inter_host_bytes * 8 * LINK_ENERGY_PJ_PER_BIT / 1000.0
    )

    commits = sum(
        node.llc.write_through_commits
        for node in result.machine.directories
    )
    llc_nj = commits * LLC_WRITE_ENERGY_NJ_64B

    # Table accesses: roughly two (read + update) per protocol event.
    table_events = 0
    for node in result.machine.directories:
        state = getattr(node, "state", None)
        if state is not None and hasattr(state, "relaxed_committed"):
            table_events += 2 * state.relaxed_committed
            table_events += 4 * state.releases_committed
            table_events += 2 * state.notifications_sent
    table_nj = table_events * _TABLE_ACCESS_NJ

    return EnergyReport(
        link_nj=link_nj, llc_nj=llc_nj, table_nj=table_nj,
        total_messages=inter_host_messages(result.stat_items()),
    )


def energy_comparison(
    app_name: str,
    protocols: Sequence[str] = ("mp", "cord", "so"),
    config=None,
) -> List[Dict[str, Any]]:
    """Energy rows for one Table-2 application across protocols,
    normalized to CORD: one seed-0 run each through the default executor,
    priced from each record's ``energy`` (see :func:`estimate_energy`)."""
    from repro.harness.executor import default_executor
    from repro.harness.experiments import _app_spec, default_config

    config = config or default_config()
    specs = [_app_spec(app_name, protocol, config, experiment="energy")
             for protocol in protocols]
    energies: Dict[str, Dict[str, float]] = {
        protocol: record.energy
        for protocol, record in zip(protocols, default_executor().map(specs))
    }
    cord_total = energies["cord"]["total_nj"] if "cord" in energies else None
    rows: List[Dict[str, Any]] = []
    for protocol, energy in energies.items():
        base = energy["link_nj"] + energy["llc_nj"]
        rows.append({
            "app": app_name,
            "protocol": protocol,
            "link_nJ": energy["link_nj"],
            "llc_nJ": energy["llc_nj"],
            "table_nJ": energy["table_nj"],
            "total_nJ": energy["total_nj"],
            "vs_cord": (energy["total_nj"] / cord_total) if cord_total else None,
            # EnergyReport.protocol_overhead_fraction, as a percentage.
            "protocol_overhead_pct":
                100 * (energy["table_nj"] / base if base else 0.0),
        })
    return rows
