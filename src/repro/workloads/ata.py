"""ATA: the synthetic all-to-all storage-stress workload (§5.4).

Every host continuously issues the MPI ``alltoall`` primitive broadcasting
8 B of data: per round, an 8 B Relaxed payload store plus an 8 B Release
flag to every other host, with no consumer-side pacing.  Its extreme
communication fan-out and very fine synchronization granularity make it the
worst observed case for CORD's look-up tables — the workload Fig. 11 and
Fig. 12 use to bound storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict

from repro.config import SystemConfig
from repro.consistency.ops import Ordering
from repro.cpu.program import Program, ProgramBuilder
from repro.memory.address import AddressMap

__all__ = ["AtaSpec", "build_ata_programs"]

_SLOT_BASE = 0x0003_0000


@dataclass(frozen=True)
class AtaSpec:
    """All-to-all broadcast parameters."""

    rounds: int = 16
    payload_bytes: int = 8


def build_ata_programs(spec: AtaSpec, config: SystemConfig) -> Dict[int, Program]:
    """One broadcaster core per host; every round sends each peer an 8 B
    payload (Relaxed) followed by an 8 B flag (Release)."""
    address_map = AddressMap(config)
    programs: Dict[int, Program] = {}
    for host in range(config.hosts):
        builder = ProgramBuilder(f"ata@h{host}")
        peers = [p for p in range(config.hosts) if p != host]
        slot = _SLOT_BASE + host * 0x1000
        data = [address_map.address_in_host(peer, slot) for peer in peers]
        flags = [address_map.address_in_host(peer, slot + 0x100)
                 for peer in peers]
        size = spec.payload_bytes
        for round_index in range(spec.rounds):
            value = round_index + 1
            # alltoall: deliver every peer's payload first ...
            builder.store_run(data, repeat(value), size)
            # ... then synchronize with each peer.
            builder.store_run(flags, repeat(value), size, Ordering.RELEASE)
        builder.fence()
        programs[host * config.cores_per_host] = builder.build()
    return programs
