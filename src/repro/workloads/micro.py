"""The §5.3 sensitivity micro-benchmark.

A single thread repeatedly issues write-through stores to other CPU hosts'
memory with configurable store granularity, synchronization granularity and
communication fan-out, then drains.  Matches the micro-benchmark used for
Fig. 8 (parameter sweeps), Fig. 9 (latency sweep) and Fig. 10 (bit-width
study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import SystemConfig
from repro.cpu.program import Program, ProgramBuilder
from repro.memory.address import AddressMap

__all__ = ["MicroSpec", "build_micro_programs"]

_DATA_BASE = 0x0010_0000
_FLAG_BASE = 0x0001_0000


@dataclass(frozen=True)
class MicroSpec:
    """Parameters of the single-producer micro-benchmark (§5.3 defaults:
    64B stores, 4KB synchronization, fan-out 1)."""

    store_granularity: int = 64
    sync_granularity: int = 4 * 1024
    fanout: int = 1
    total_bytes: int = 64 * 1024      # payload per target host
    #: Core-side gap between stores (address generation / loop overhead of
    #: the micro-benchmark thread).
    store_issue_ns: float = 25.0

    @property
    def stores_per_release(self) -> int:
        return max(1, self.sync_granularity // self.store_granularity)

    @property
    def releases(self) -> int:
        return max(1, self.total_bytes // self.sync_granularity)


def build_micro_programs(
    spec: MicroSpec, config: SystemConfig
) -> Dict[int, Program]:
    """One producer on host 0 streaming to hosts 1..fanout."""
    if spec.fanout >= config.hosts:
        raise ValueError(
            f"fanout {spec.fanout} requires more than {config.hosts} hosts"
        )
    address_map = AddressMap(config)
    targets = list(range(1, spec.fanout + 1))

    builder = ProgramBuilder(
        f"micro.g{spec.store_granularity}.s{spec.sync_granularity}"
        f".f{spec.fanout}"
    )
    granularity = spec.store_granularity
    stores = spec.stores_per_release
    # The Release flag lives at the *last* target (the Fig. 5 pattern:
    # m Relaxed stores to the first n-1 directories, one Release to the
    # n-th).
    flag = address_map.address_in_host(targets[-1], _FLAG_BASE)
    value = 1
    for release_index in range(spec.releases):
        offset = release_index * spec.sync_granularity
        # The Fig. 5 pattern: m Relaxed stores *in total*, spread round-robin
        # across the first n-1 directories.
        runs = [address_map.run_in_host(target, _DATA_BASE + offset, stores,
                                        granularity)
                for target in targets]
        addrs = (runs[0] if len(runs) == 1
                 else [runs[i % len(runs)][i] for i in range(stores)])
        builder.store_run(addrs, range(value, value + stores), granularity,
                          issue_ns=spec.store_issue_ns)
        value += stores
        builder.release_store(flag, value=release_index + 1)
    builder.fence()  # drain: completion includes global visibility
    return {0: builder.build()}
