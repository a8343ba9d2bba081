"""Physical address mapping: addresses -> hosts -> home LLC slices.

Per Table 1, each host owns a contiguous region of the shared physical
address space (4 GB of HBM by default).  Within a host, cache lines are
interleaved across its LLC slices, so the *home directory* of a line is a
deterministic function of the address.
"""

from __future__ import annotations

from typing import Dict

from repro.config import SystemConfig
from repro.interconnect.message import NodeId

__all__ = ["AddressMap"]


class AddressMap:
    """Maps physical addresses to home hosts, slices and directory nodes."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.line_bytes = config.llc_slice.line_bytes
        self.host_region_bytes = config.memory.size_bytes
        #: Global slice index -> its one node id, shared by every address
        #: the slice homes; filled on first use.
        self._directories: Dict[int, NodeId] = {}
        # addr -> its slice's NodeId.  Workloads touch a bounded working set
        # but resolve the home directory on every store issue; memoizing
        # keeps the arithmetic off the hot path.
        self._home_cache: dict = {}

    def line_address(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def host_of(self, addr: int) -> int:
        host = addr // self.host_region_bytes
        if host >= self.config.hosts:
            raise ValueError(
                f"address {addr:#x} beyond host {self.config.hosts - 1}'s region"
            )
        return host

    def slice_of(self, addr: int) -> int:
        """Local slice index within the home host (line interleaving)."""
        line = self.line_address(addr) // self.line_bytes
        return line % self.config.slices_per_host

    def home_directory(self, addr: int) -> NodeId:
        node = self._home_cache.get(addr)
        if node is None:
            host = self.host_of(addr)
            global_slice = host * self.config.slices_per_host + self.slice_of(addr)
            node = self._directories.get(global_slice)
            if node is None:
                node = self._directories[global_slice] = NodeId.directory(
                    global_slice, host)
            self._home_cache[addr] = node
        return node

    def address_in_host(self, host: int, offset: int) -> int:
        """Physical address at byte ``offset`` into ``host``'s memory region."""
        if offset >= self.host_region_bytes:
            raise ValueError(f"offset {offset:#x} outside host region")
        return host * self.host_region_bytes + offset

    def run_in_host(self, host: int, offset: int, count: int,
                    stride: int) -> range:
        """Addresses of ``count`` accesses ``stride`` bytes apart, the first
        at byte ``offset`` into ``host``'s region.  One region check covers
        the whole run: its last access starts furthest in."""
        self.address_in_host(host, offset + max(count - 1, 0) * stride)
        start = self.address_in_host(host, offset)
        return range(start, start + count * stride, stride)

    def lines_spanned(self, addr: int, size: int) -> int:
        """Number of cache lines a [addr, addr+size) access touches."""
        first = self.line_address(addr)
        last = self.line_address(addr + size - 1)
        return (last - first) // self.line_bytes + 1
