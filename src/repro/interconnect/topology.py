"""Interconnect topology: per-host 2D mesh of cores/slices + inter-host switch.

Matches Table 1: each host is a ``mesh_dims`` mesh (2x4 by default) where
every tile holds a core and its co-located LLC slice/directory; hosts attach
to a single central switch.  One mesh hop costs ``intra_host_hop_cycles``
core cycles; crossing hosts costs the configured inter-host link latency.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import SystemConfig
from repro.interconnect.message import NodeId

__all__ = ["Topology"]


class Topology:
    """Computes hop counts and zero-load latencies between endpoints.

    Routes are static for a given config, so every per-pair query is
    memoized: the first lookup of a (src, dst) pair computes latency, hop
    count and host-crossing together; subsequent lookups are one dict hit.
    ``Network`` calls :meth:`route` once per node pair, when it opens the
    pair's channel, and keeps the result there; sends do not read
    :attr:`routes`.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        # (src, dst) -> (latency_ns, hop_count, crosses_hosts, crosses_pods);
        # lazy.
        self.routes: Dict[
            Tuple[NodeId, NodeId], Tuple[float, int, bool, bool]
        ] = {}

    # ------------------------------------------------------------------
    # Memoized per-pair route
    # ------------------------------------------------------------------
    def route(self, src: NodeId, dst: NodeId
              ) -> Tuple[float, int, bool, bool]:
        """``(latency_ns, hop_count, crosses_hosts, crosses_pods)``, cached."""
        key = (src, dst)
        entry = self.routes.get(key)
        if entry is None:
            entry = (
                self._latency_ns(src, dst),
                self._hop_count(src, dst),
                src.host != dst.host,
                self.crosses_pods(src, dst),
            )
            self.routes[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def tile_of(self, node: NodeId) -> int:
        """Mesh tile (local index within host) of a core or directory."""
        per_host = (
            self.config.cores_per_host
            if node.kind == "core"
            else self.config.slices_per_host
        )
        return node.index % per_host

    def tile_position(self, tile: int) -> Tuple[int, int]:
        rows, cols = self.config.mesh_dims
        return (tile // cols, tile % cols)

    def mesh_hops(self, tile_a: int, tile_b: int) -> int:
        """Manhattan distance between two tiles of the same host."""
        ra, ca = self.tile_position(tile_a)
        rb, cb = self.tile_position(tile_b)
        return abs(ra - rb) + abs(ca - cb)

    def edge_hops(self, tile: int) -> int:
        """Hops from a tile to the host's switch port at the (0, 0) corner
        (Manhattan distance: row walk plus column walk)."""
        row, col = self.tile_position(tile)
        return col + row

    def hop_count(self, src: NodeId, dst: NodeId) -> int:
        """Total switch hops from ``src`` to ``dst`` (trace metadata).

        Same host: mesh Manhattan distance (minimum 1, matching
        :meth:`latency_ns`).  Cross host: both edge walks plus the
        host-level switch, plus two more hops when the hosts sit in
        different pods (the inter-pod spine and the remote pod's switch —
        the full extra tier :meth:`latency_ns` charges
        ``inter_pod_extra_ns`` for).
        """
        return self.route(src, dst)[1]

    def _hop_count(self, src: NodeId, dst: NodeId) -> int:
        if src.host == dst.host:
            return max(1, self.mesh_hops(self.tile_of(src), self.tile_of(dst)))
        hops = self.edge_hops(self.tile_of(src)) + 1 + self.edge_hops(
            self.tile_of(dst)
        )
        if self.crosses_pods(src, dst):
            # A cross-pod route traverses a whole extra switch tier: up
            # through the inter-pod spine, then down through the remote
            # pod's switch.  A single +1 here used to undercount what
            # _latency_ns already prices as a full tier.
            hops += 2
        return hops

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    def crosses_hosts(self, src: NodeId, dst: NodeId) -> bool:
        return src.host != dst.host

    def crosses_pods(self, src: NodeId, dst: NodeId) -> bool:
        cfg = self.config
        return (cfg.pods > 1 and src.host != dst.host
                and cfg.pod_of_host(src.host) != cfg.pod_of_host(dst.host))

    def latency_ns(self, src: NodeId, dst: NodeId) -> float:
        """Zero-load one-way latency from ``src`` to ``dst``."""
        return self.route(src, dst)[0]

    def _latency_ns(self, src: NodeId, dst: NodeId) -> float:
        cfg = self.config
        hop_ns = cfg.cycles_to_ns(cfg.interconnect.intra_host_hop_cycles)
        if src.host == dst.host:
            hops = self.mesh_hops(self.tile_of(src), self.tile_of(dst))
            return max(1, hops) * hop_ns
        local = self.edge_hops(self.tile_of(src)) * hop_ns
        remote = self.edge_hops(self.tile_of(dst)) * hop_ns
        latency = local + cfg.interconnect.inter_host_latency_ns + remote
        if self.crosses_pods(src, dst):
            # Two-level fabric: an extra switch tier between pods.
            latency += cfg.inter_pod_extra_ns
        return latency
