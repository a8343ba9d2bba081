"""Workload generation: producer-consumer phase traces over shared memory.

The paper's applications (Table 2) are characterized by four communication
parameters — Relaxed store granularity, Release (synchronization)
granularity, communication fan-out, and compute-to-communication ratio.
:class:`WorkloadSpec` captures those parameters plus the locality/reuse
fraction that drives the write-back comparisons, and
:func:`build_workload_programs` synthesizes per-core programs with the same
communication signature:

Each host runs a *producer* core and a *consumer* core.  Per iteration, a
producer computes, streams ``release_granularity / relaxed_granularity``
Relaxed write-through stores round-robin across its fan-out target hosts,
then publishes one Release flag per target.  Consumers poll the flags of the
hosts that target them, read a fraction of the delivered data, compute, and
(in lock-step mode) send an acknowledgment Release back, which the producer
awaits before its next iteration — the MPI-style exchange the DOE mini-apps
perform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.config import SystemConfig
from repro.cpu.program import Program, ProgramBuilder
from repro.memory.address import AddressMap

__all__ = ["WorkloadSpec", "build_workload_programs", "producer_core", "consumer_core"]

# Address-space layout inside each host's memory region.
_FLAG_BASE = 0x0001_0000      # data flags: producer -> this host
_ACK_BASE = 0x0002_0000       # ack flags: consumer -> producer on this host
_DATA_BASE = 0x0010_0000      # bulk data buffers
_DATA_STRIDE = 0x0010_0000    # per-producer buffer spacing (1 MB)


@dataclass(frozen=True)
class WorkloadSpec:
    """Communication signature of one application (Table 2 + §5.1)."""

    name: str
    relaxed_granularity: int          # bytes per Relaxed store message
    release_granularity: int          # bytes communicated per Release
    fanout: int                       # peer hosts each producer writes to
    iterations: int = 8
    producer_compute_ns: float = 0.0  # local work before producing
    consumer_compute_ns: float = 0.0  # local work after consuming
    read_fraction: float = 1.0        # fraction of delivered lines read back
    reuse_fraction: float = 0.0       # fraction of buffer reused across iters
    lockstep: bool = True             # producer waits for consumer acks
    window: int = 1                   # iterations in flight before ack wait

    @property
    def stores_per_release(self) -> int:
        return max(1, self.release_granularity // self.relaxed_granularity)

    def scaled(self, iterations: int) -> "WorkloadSpec":
        return replace(self, iterations=iterations)


def producer_core(config: SystemConfig, host: int) -> int:
    """Global core id of ``host``'s producer."""
    return host * config.cores_per_host


def consumer_core(config: SystemConfig, host: int) -> int:
    """Global core id of ``host``'s consumer (distinct core when available)."""
    return host * config.cores_per_host + (1 if config.cores_per_host > 1 else 0)


def _targets(host: int, hosts: int, fanout: int) -> List[int]:
    if fanout >= hosts:
        raise ValueError(f"fanout {fanout} needs more than {hosts} hosts")
    return [(host + k) % hosts for k in range(1, fanout + 1)]


def _sources(host: int, hosts: int, fanout: int) -> List[int]:
    return [(host - k) % hosts for k in range(1, fanout + 1)]


def _flag_addr(address_map: AddressMap, at_host: int, from_host: int) -> int:
    return address_map.address_in_host(at_host, _FLAG_BASE + from_host * 0x100)

def _ack_addr(address_map: AddressMap, at_host: int, from_host: int) -> int:
    return address_map.address_in_host(at_host, _ACK_BASE + from_host * 0x100)


def _stagger(config: SystemConfig, host: int, target: int) -> int:
    """Per-(producer, target) base stagger.

    Host memory regions are power-of-two sized, so identical buffer offsets
    in different targets' regions alias to the same private-cache sets; a
    small odd-line stagger (what a real allocator's layout provides for
    free) removes the pathological conflict misses.
    """
    line = config.llc_slice.line_bytes
    return ((host * 5 + target * 11) % 97) * line


def _buffer_offset(
    spec: WorkloadSpec, iteration: int, per_target_bytes: int
) -> int:
    """Start offset of this iteration's data within the per-producer buffer.

    ``reuse_fraction == 1`` rewrites the same region every iteration (full
    locality); ``0`` walks fresh addresses until the buffer wraps.
    """
    step = int(round(per_target_bytes * (1.0 - spec.reuse_fraction)))
    span = max(per_target_bytes, 1)
    budget = _DATA_STRIDE - span
    return (iteration * step) % max(budget, 1)


def build_workload_programs(
    spec: WorkloadSpec, config: SystemConfig
) -> Dict[int, Program]:
    """Synthesize the per-core programs for ``spec`` on ``config``.

    Every host both produces (to its fan-out targets) and consumes (from the
    hosts that target it), mirroring the all-peers structure of the evaluated
    workloads.
    """
    address_map = AddressMap(config)
    hosts = config.hosts
    if spec.fanout >= hosts:
        raise ValueError(
            f"workload {spec.name!r} fanout {spec.fanout} requires more than "
            f"{hosts} hosts"
        )

    per_target = spec.stores_per_release
    granularity = spec.relaxed_granularity
    line = config.llc_slice.line_bytes
    programs: Dict[int, Program] = {}

    for host in range(hosts):
        targets = _targets(host, hosts, spec.fanout)
        sources = _sources(host, hosts, spec.fanout)
        # Per target: the staggered start of this producer's buffer, and
        # the flag and ack addresses, none of which change per iteration.
        starts = [_DATA_BASE + host * _DATA_STRIDE + _stagger(config, host, t)
                  for t in targets]
        flags = [_flag_addr(address_map, target, host) for target in targets]
        acks = [_ack_addr(address_map, host, target) for target in targets]

        producer = ProgramBuilder(f"{spec.name}.producer@h{host}")
        for iteration in range(spec.iterations):
            if spec.producer_compute_ns > 0:
                producer.compute(spec.producer_compute_ns)
            offset = _buffer_offset(spec, iteration, per_target * granularity)
            values = range(iteration * per_target + 1,
                           (iteration + 1) * per_target + 1)
            # Stream the payload as one burst per target (the way an MPI
            # port copies each destination's buffer in turn).
            for target, start in zip(targets, starts):
                producer.store_run(
                    address_map.run_in_host(target, start + offset,
                                            per_target, granularity),
                    values, granularity)
            for flag in flags:
                producer.release_store(flag, value=iteration + 1)
            if spec.lockstep:
                # Pipelined synchronization: wait for the ack of iteration
                # (k - window + 1); window == 1 is strict lock-step.
                ack_target = iteration + 2 - spec.window
                if ack_target >= 1:
                    for ack in acks:
                        producer.load_until(ack, ack_target)
        producer.fence()  # final drain so completion includes commitment
        programs[producer_core(config, host)] = producer.build()

        consumer = ProgramBuilder(f"{spec.name}.consumer@h{host}")
        lines_delivered = math.ceil(per_target * granularity / line)
        lines_read = max(1, int(lines_delivered * spec.read_fraction))
        starts = [_DATA_BASE + source * _DATA_STRIDE
                  + _stagger(config, source, host) for source in sources]
        flags = [_flag_addr(address_map, host, source) for source in sources]
        acks = [_ack_addr(address_map, source, host) for source in sources]
        for iteration in range(spec.iterations):
            offset = _buffer_offset(spec, iteration, per_target * granularity)
            for flag, start in zip(flags, starts):
                consumer.load_until(flag, iteration + 1)
                consumer.load_run(
                    address_map.run_in_host(host, start + offset, lines_read,
                                            line),
                    "_scratch")
            if spec.consumer_compute_ns > 0:
                consumer.compute(spec.consumer_compute_ns)
            if spec.lockstep:
                for ack in acks:
                    consumer.release_store(ack, value=iteration + 1)
        consumer.fence()
        consumer_id = consumer_core(config, host)
        if consumer_id == producer_core(config, host):
            raise ValueError(
                "workloads need >= 2 cores per host (producer + consumer)"
            )
        programs[consumer_id] = consumer.build()

    return programs
