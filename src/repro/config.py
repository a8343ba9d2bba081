"""System configuration for the simulated multi-PU architecture.

The defaults mirror Table 1 of the paper: 8 CPU hosts, 8 cores per host
arranged in a 2x4 mesh, private L1/L2 caches, one shared-LLC slice (with a
co-located cache directory) per core, HBM memory behind each host, and an
inter-host interconnect modelled after either CXL 3.0 (150 ns link latency)
or Intel UPI (50 ns).

The harness typically runs scaled-down instances of this configuration (fewer
hosts/cores and shorter traces) — relative protocol behaviour, which is what
the paper's figures report, is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "CacheConfig",
    "InterconnectConfig",
    "MemoryConfig",
    "CordConfig",
    "MessageSizeConfig",
    "SystemConfig",
    "CXL",
    "UPI",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = 64

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.line_bytes}B lines"
            )


@dataclass(frozen=True)
class InterconnectConfig:
    """Latency/bandwidth parameters of the interconnect fabric.

    ``inter_host_latency_ns`` is the one-way latency of the link between a
    host and the central switch, per Table 1 (150 ns for CXL, 50 ns for UPI).
    """

    name: str
    inter_host_latency_ns: float
    intra_host_hop_cycles: int = 10
    link_bandwidth_gbps: float = 64.0  # GB/s, bidirectional

    @property
    def bytes_per_ns(self) -> float:
        return self.link_bandwidth_gbps  # 64 GB/s == 64 B/ns

    def serialization_ns(self, size_bytes: int) -> float:
        """Time to push ``size_bytes`` onto the link."""
        return size_bytes / self.bytes_per_ns


CXL = InterconnectConfig(name="CXL", inter_host_latency_ns=150.0)
UPI = InterconnectConfig(name="UPI", inter_host_latency_ns=50.0)


@dataclass(frozen=True)
class MemoryConfig:
    """Per-host memory (HBM4 in Table 1).

    The simulator reads only ``size_bytes`` (each host's address region);
    no DRAM timing is modelled.  The Table-1 timing fields stay because
    :class:`SystemConfig` is part of every run's cache key and seed.
    """

    size_bytes: int = 4 * 1024**3
    channels: int = 8
    channel_bandwidth_gbps: float = 64.0
    access_latency_ns: float = 40.0


@dataclass(frozen=True)
class CordConfig:
    """CORD protocol parameters (§4.1-§4.3) and look-up table provisioning.

    Table sizes default to the provisioning reported in Table 3 of the paper:
    8-entry store-counter and unacked-epoch tables per processor; at each
    directory, 8 store-counter entries and 16 notification-counter entries
    statically partitioned per processor, plus an 8-entry largest-committed-
    epoch table.
    """

    epoch_bits: int = 8
    counter_bits: int = 32
    notification_bits: int = 8
    # Processor-side tables (entries shared across directories / epochs).
    proc_store_counter_entries: int = 8
    proc_unacked_epoch_entries: int = 8
    # Directory-side per-processor static partitions.
    dir_store_counter_entries_per_proc: int = 8
    dir_notification_entries_per_proc: int = 16
    # Entry widths in bytes, used by the storage/area model.
    store_counter_entry_bytes: int = 4
    epoch_entry_bytes: int = 1
    notification_entry_bytes: int = 2

    @property
    def epoch_modulus(self) -> int:
        return 1 << self.epoch_bits

    @property
    def counter_modulus(self) -> int:
        return 1 << self.counter_bits

    def __post_init__(self) -> None:
        if self.epoch_bits < 1 or self.counter_bits < 1:
            raise ValueError("bit widths must be >= 1")


@dataclass(frozen=True)
class MessageSizeConfig:
    """Wire sizes of protocol messages.

    ``header_bytes`` models the transaction-layer header of a CXL/UPI flit.
    ``reserved_bits`` are spare header bits usable for free metadata — the
    paper exploits CXL 3.0 reserved bits to carry 8-bit epoch numbers in
    Relaxed stores at zero traffic cost (§4.1).
    """

    header_bytes: int = 16
    reserved_bits: int = 8

    def metadata_overhead_bytes(self, metadata_bits: int) -> int:
        """Extra payload bytes needed to carry ``metadata_bits`` of metadata."""
        extra_bits = max(0, metadata_bits - self.reserved_bits)
        return (extra_bits + 7) // 8

    def control_bytes(self, metadata_bits: int = 0) -> int:
        return self.header_bytes + self.metadata_overhead_bytes(metadata_bits)

    def data_bytes(self, payload: int, metadata_bits: int = 0) -> int:
        return self.header_bytes + payload + self.metadata_overhead_bytes(metadata_bits)


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated system (Table 1 defaults)."""

    hosts: int = 8
    cores_per_host: int = 8
    mesh_dims: Tuple[int, int] = (2, 4)
    clock_ghz: float = 2.0
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 8, 4)
    )
    llc_slice: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 8, 8)
    )
    interconnect: InterconnectConfig = CXL
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cord: CordConfig = field(default_factory=CordConfig)
    message_sizes: MessageSizeConfig = field(default_factory=MessageSizeConfig)
    #: Source-side write-combining buffer depth in cache lines (§2.1);
    #: 0 disables combining.  Applies to Relaxed write-through stores under
    #: release consistency.
    write_combining_lines: int = 0
    #: Two-level interconnect: hosts are grouped into this many pods, each
    #: with its own switch; crossing pods adds ``inter_pod_extra_ns`` on top
    #: of the normal inter-host latency.  1 = the paper's single switch.
    pods: int = 1
    inter_pod_extra_ns: float = 150.0
    #: Bandwidth of each pod switch's uplink into the inter-pod tier
    #: (GB/s).  Cross-pod messages serialize on the source pod's uplink
    #: and the destination pod's downlink in addition to the host egress
    #: port.  ``None`` = same as ``interconnect.link_bandwidth_gbps``, so
    #: the shared uplink becomes the scaling bottleneck once a pod holds
    #: more than one host.  Ignored when ``pods == 1``.
    pod_uplink_gbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mesh_dims[0] * self.mesh_dims[1] < self.cores_per_host:
            raise ValueError(
                f"mesh {self.mesh_dims} too small for {self.cores_per_host} cores"
            )
        if self.pods < 1 or self.hosts % self.pods != 0:
            raise ValueError(
                f"{self.hosts} hosts cannot be split into {self.pods} pods"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.hosts * self.cores_per_host

    @property
    def slices_per_host(self) -> int:
        # One LLC slice (and thus one directory) co-located with each core.
        return self.cores_per_host

    @property
    def total_directories(self) -> int:
        return self.hosts * self.slices_per_host

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.cycle_ns

    def host_of_core(self, core_id: int) -> int:
        return core_id // self.cores_per_host

    def host_of_directory(self, dir_id: int) -> int:
        return dir_id // self.slices_per_host

    def with_interconnect(self, interconnect: InterconnectConfig) -> "SystemConfig":
        return replace(self, interconnect=interconnect)

    def with_write_combining(self, lines: int = 4) -> "SystemConfig":
        return replace(self, write_combining_lines=lines)

    def with_pods(self, pods: int,
                  inter_pod_extra_ns: float = 150.0,
                  uplink_gbps: Optional[float] = None) -> "SystemConfig":
        return replace(self, pods=pods, inter_pod_extra_ns=inter_pod_extra_ns,
                       pod_uplink_gbps=uplink_gbps)

    def pod_of_host(self, host: int) -> int:
        return host // (self.hosts // self.pods)

    def scaled(self, hosts: int, cores_per_host: int = 1) -> "SystemConfig":
        """A scaled-down instance (for fast experiment runs).

        The mesh is kept near-square (the largest divisor pair of
        ``cores_per_host``), matching how real tiled meshes are laid out;
        a 1xN row would make intra-host edge walks — and therefore every
        inter-host message's on-mesh latency — grow linearly with core
        count, skewing scaled-host comparisons.
        """
        return replace(
            self, hosts=hosts, cores_per_host=cores_per_host,
            mesh_dims=_near_square_mesh(max(1, cores_per_host)),
        )


def _near_square_mesh(tiles: int) -> Tuple[int, int]:
    """``(rows, cols)`` with ``rows * cols == tiles``, as square as possible."""
    rows = 1
    for candidate in range(2, int(tiles ** 0.5) + 1):
        if tiles % candidate == 0:
            rows = candidate
    return (rows, tiles // rows)
