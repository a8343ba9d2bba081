"""MPI-style primitives over release-consistent shared memory.

The paper evaluates the DOE mini-apps by porting their MPI primitives to
Relaxed/Release write-through stores (§5.1).  :class:`MpiWorld` provides
that port as a reusable library: point-to-point ``send``/``recv`` (eager,
write-through into the receiver's memory), ``barrier`` (a fetch-add
counter), ``broadcast``, ``alltoall`` and ``reduce`` — each compiled into
per-rank programs runnable on any protocol.

Example::

    world = MpiWorld(config, ranks=4)
    for rank in range(4):
        world.compute(rank, 500.0)
        world.send(rank, (rank + 1) % 4, nbytes=4096)
        world.recv((rank + 1) % 4, rank)
    world.barrier()
    programs = world.build()
    result = Machine(config, protocol="cord").run(programs)
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.consistency.ops import Ordering
from repro.cpu.program import Program, ProgramBuilder
from repro.memory.address import AddressMap

__all__ = ["MpiWorld"]

# Address-space layout inside each host's region.
_CHANNEL_FLAG_BASE = 0x0005_0000     # per-sender receive flags
_BARRIER_BASE = 0x0006_0000          # global barrier counters (on host 0)
_REDUCE_BASE = 0x0007_0000           # per-rank reduction slots
_CHANNEL_DATA_BASE = 0x0040_0000     # per-sender receive buffers
_CHANNEL_DATA_STRIDE = 0x0008_0000   # 512 KB per sender


class MpiWorld:
    """Builds per-rank programs from MPI-style collective/point-to-point
    calls.

    Rank *r* runs on the first core of host *r*; payloads land in the
    receiving rank's memory region (write-through, like the paper's port),
    so receives are local polls plus local reads.
    """

    def __init__(
        self,
        config: SystemConfig,
        ranks: Optional[int] = None,
        granularity: int = 64,
    ) -> None:
        self.config = config
        self.ranks = ranks if ranks is not None else config.hosts
        if self.ranks > config.hosts:
            raise ValueError(
                f"{self.ranks} ranks need {self.ranks} hosts, config has "
                f"{config.hosts}"
            )
        self.granularity = granularity
        self.address_map = AddressMap(config)
        self._builders: List[ProgramBuilder] = [
            ProgramBuilder(f"rank{r}") for r in range(self.ranks)
        ]
        # Monotonic per-channel message counts (for flag values).
        self._sent: Dict[tuple, int] = {}
        self._received: Dict[tuple, int] = {}
        self._barriers = 0
        self._reductions = 0
        self._built = False

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def _core_of(self, rank: int) -> int:
        return rank * self.config.cores_per_host

    def _flag(self, dst: int, src: int) -> int:
        return self.address_map.address_in_host(
            dst, _CHANNEL_FLAG_BASE + src * 0x100
        )

    def _barrier_counter(self, index: int) -> int:
        return self.address_map.address_in_host(0, _BARRIER_BASE + index * 0x100)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range 0..{self.ranks - 1}")

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int) -> None:
        """Eager send: stream ``nbytes`` into ``dst``'s receive buffer with
        Relaxed write-through stores, then Release-bump the channel flag."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError("send to self")
        builder = self._builders[src]
        count = self._sent.get((src, dst), 0)
        granularity = self.granularity
        stores = max(1, math.ceil(nbytes / granularity))
        window = (count % 4) * _CHANNEL_DATA_STRIDE // 8  # rotate buffers
        addrs = self.address_map.run_in_host(
            dst, _CHANNEL_DATA_BASE + src * _CHANNEL_DATA_STRIDE + window,
            stores, granularity)
        first = count * stores + 1
        # Every store but the last carries a full granule.
        builder.store_run(addrs[:-1], range(first, first + stores - 1),
                          granularity)
        tail = nbytes - (stores - 1) * granularity
        builder.store(addrs[-1], value=first + stores - 1,
                      size=max(1, min(granularity, tail)))
        builder.release_store(self._flag(dst, src), value=count + 1)
        self._sent[(src, dst)] = count + 1

    def recv(self, dst: int, src: int, read_fraction: float = 1.0) -> None:
        """Blocking receive: acquire-poll the channel flag, then read the
        delivered lines (all local — the data was written through into this
        rank's memory)."""
        self._check_rank(src)
        self._check_rank(dst)
        builder = self._builders[dst]
        count = self._received.get((dst, src), 0)
        builder.load_until(self._flag(dst, src), count + 1)
        self._received[(dst, src)] = count + 1

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """All ranks rendezvous: fetch-add a counter (Release semantics),
        then acquire-poll until every rank has arrived."""
        index = self._barriers
        self._barriers += 1
        counter = self._barrier_counter(index)
        for rank in range(self.ranks):
            builder = self._builders[rank]
            builder.fetch_add(counter, 1, register=f"_bar{index}",
                              ordering=Ordering.ACQ_REL)
            builder.load_until(counter, self.ranks)

    def broadcast(self, root: int, nbytes: int) -> None:
        """Root sends to every other rank; they receive."""
        self._check_rank(root)
        for rank in range(self.ranks):
            if rank == root:
                continue
            self.send(root, rank, nbytes)
            self.recv(rank, root)

    def alltoall(self, nbytes: int) -> None:
        """Every rank exchanges ``nbytes`` with every other rank."""
        for src in range(self.ranks):
            for dst in range(self.ranks):
                if src != dst:
                    self.send(src, dst, nbytes)
        for dst in range(self.ranks):
            for src in range(self.ranks):
                if src != dst:
                    self.recv(dst, src)

    def reduce(self, root: int, nbytes: int = 8) -> None:
        """Naive reduction: every rank sends its contribution to the root,
        which receives them all (the combine is local compute)."""
        self._check_rank(root)
        for rank in range(self.ranks):
            if rank == root:
                continue
            self.send(rank, root, nbytes)
        for rank in range(self.ranks):
            if rank == root:
                continue
            self.recv(root, rank)

    def allreduce(self, nbytes: int = 8) -> None:
        self.reduce(0, nbytes)
        self.broadcast(0, nbytes)

    def compute(self, rank: int, duration_ns: float) -> None:
        self._check_rank(rank)
        self._builders[rank].compute(duration_ns)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def build(self) -> Dict[int, Program]:
        """Finalize: every rank drains outstanding stores, then returns the
        per-core program map."""
        if self._built:
            raise RuntimeError("MpiWorld.build() may only be called once")
        self._built = True
        programs: Dict[int, Program] = {}
        for rank, builder in enumerate(self._builders):
            builder.fence()
            programs[self._core_of(rank)] = builder.build()
        return programs
