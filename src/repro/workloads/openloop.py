"""Open-loop load generation: seeded arrivals + per-request latency samples.

The closed-loop workloads (:mod:`repro.workloads.base`) measure completion
time of a fixed exchange; the paper's *scaling* claim — CORD stays
low-latency while SO's ack storms do not — needs the complementary
open-loop view: requests arrive on a schedule that does not slow down when
the system backs up, and the interesting output is the latency
*distribution* (p50/p95/p99) at each offered load.

:class:`OpenLoopSpec` describes one such workload: every host runs a
producer that issues requests at seeded Poisson (or deterministic,
evenly-spaced) arrival times, each request streaming a burst of Relaxed
stores to a peer host followed by one Release flag; the peer's consumer
polls the flags in global arrival order.  Two latency distributions are
sampled per run into sample-keeping accumulators (percentiles come out in
``RunRecord.stats`` as ``<name>.p50/.p95/.p99``):

* ``openloop.source_latency_ns`` — scheduled arrival to the producer
  retiring the request's Release (local completion; includes the queueing
  delay of a producer running behind its arrival schedule).
* ``openloop.delivery_latency_ns`` — scheduled arrival to the consumer
  observing the request's Release flag (end-to-end visibility latency;
  this is the distribution the scale experiment's crossover analysis
  compares across protocols).

Arrivals are *absolute* times (the core idles until each one via the
``until_ns`` op meta), so a backed-up system accumulates queueing delay
instead of silently throttling the load — the defining property of an
open-loop generator.  All randomness comes from one
:class:`~repro.sim.rng.DeterministicRng` stream per producer derived from
``spec.seed``, so the same spec always generates the same schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import SystemConfig
from repro.cpu.program import Program, ProgramBuilder
from repro.consistency.ops import NO_META, MemOp, OpKind, Ordering
from repro.memory.address import AddressMap
from repro.sim.rng import DeterministicRng
from repro.workloads.base import consumer_core, producer_core

__all__ = [
    "OpenLoopSpec",
    "build_openloop_programs",
    "SOURCE_LATENCY_STAT",
    "DELIVERY_LATENCY_STAT",
]

#: Accumulator names the programs sample into (percentiles are exported as
#: ``<name>.p50/.p95/.p99`` in every run's stats dict).
SOURCE_LATENCY_STAT = "openloop.source_latency_ns"
DELIVERY_LATENCY_STAT = "openloop.delivery_latency_ns"

# Address-space layout inside each host's memory region (disjoint from the
# closed-loop workloads' bases so mixed suites never alias).
_FLAG_BASE = 0x0004_0000      # request flags: producer -> this host
_DATA_BASE = 0x0040_0000      # bulk request payloads
_DATA_STRIDE = 0x0010_0000    # per-producer buffer spacing (1 MB)


@dataclass(frozen=True)
class OpenLoopSpec:
    """One open-loop run: arrival process x request shape x fan-out."""

    #: ``"poisson"`` (seeded exponential gaps) or ``"deterministic"``
    #: (evenly spaced at exactly ``interarrival_ns``).
    arrival: str = "poisson"
    #: Mean gap between successive requests *per producer* (ns); the
    #: per-producer offered load is ``1 / interarrival_ns``.
    interarrival_ns: float = 2_000.0
    #: Requests each producer issues.
    requests: int = 32
    #: Relaxed stores per request and their granularity (bytes).
    stores_per_request: int = 4
    store_granularity: int = 64
    #: Peer hosts each producer rotates its requests across.
    fanout: int = 1
    #: Leading requests per producer excluded from latency sampling
    #: (cold caches and empty tables would skew the tail).
    warmup: int = 2
    #: Arrival-schedule seed (decorrelated from the machine seed).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "deterministic"):
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                "choose 'poisson' or 'deterministic'"
            )
        if self.interarrival_ns <= 0:
            raise ValueError("interarrival_ns must be positive")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 0 <= self.warmup < self.requests:
            raise ValueError("warmup must be in [0, requests)")

    @property
    def sampled_requests(self) -> int:
        """Requests per producer that contribute latency samples."""
        return self.requests - self.warmup

    @property
    def request_bytes(self) -> int:
        return self.stores_per_request * self.store_granularity


def arrival_schedule(spec: OpenLoopSpec, host: int) -> List[float]:
    """The absolute request arrival times for ``host``'s producer.

    Deterministic in (spec.seed, host): the same spec always offers the
    same load, so executor records are reproducible across processes.
    """
    rng = DeterministicRng(spec.seed).child(f"openloop.h{host}")
    times: List[float] = []
    now = 0.0
    for _ in range(spec.requests):
        if spec.arrival == "poisson":
            # Inverse-CDF exponential gap; rng.random() < 1 so log1p is
            # finite.
            gap = -spec.interarrival_ns * math.log1p(-rng.random())
        else:
            gap = spec.interarrival_ns
        now += gap
        times.append(now)
    return times


def _targets(host: int, hosts: int, fanout: int) -> List[int]:
    if fanout >= hosts:
        raise ValueError(f"fanout {fanout} needs more than {hosts} hosts")
    return [(host + k) % hosts for k in range(1, fanout + 1)]


def build_openloop_programs(
    spec: OpenLoopSpec, config: SystemConfig
) -> Dict[int, Program]:
    """Synthesize producer/consumer programs for ``spec`` on ``config``.

    Every host produces (requests rotate across its fan-out targets) and
    consumes (requests from the hosts targeting it), like the closed-loop
    all-peers workloads — but paced by the arrival schedule instead of
    acks, and never blocking on the consumer side.
    """
    if config.cores_per_host < 2:
        raise ValueError(
            "open-loop workloads need >= 2 cores per host "
            "(producer + consumer)"
        )
    address_map = AddressMap(config)
    hosts = config.hosts

    # (target) -> [(arrival_ns, source, flag_seq, sampled)] collected while
    # building producers, then replayed by each consumer in arrival order.
    inbound: Dict[int, List[Tuple[float, int, int, bool]]] = {
        host: [] for host in range(hosts)
    }
    programs: Dict[int, Program] = {}

    for host in range(hosts):
        targets = _targets(host, hosts, spec.fanout)
        arrivals = arrival_schedule(spec, host)
        sent: Dict[int, int] = {target: 0 for target in targets}
        flags = {target: address_map.address_in_host(
                     target, _FLAG_BASE + host * 0x100)
                 for target in targets}
        stores = spec.stores_per_request
        data_base = _DATA_BASE + host * _DATA_STRIDE

        producer = ProgramBuilder(f"openloop.producer@h{host}")
        for index, arrival in enumerate(arrivals):
            target = targets[index % len(targets)]
            sent[target] += 1
            sampled = index >= spec.warmup

            producer.op(MemOp(OpKind.COMPUTE, meta={"until_ns": arrival}))
            offset = (index * spec.request_bytes) % max(
                _DATA_STRIDE - spec.request_bytes, 1
            )
            first = index * stores + 1
            producer.store_run(
                address_map.run_in_host(target, data_base + offset, stores,
                                        spec.store_granularity),
                range(first, first + stores), spec.store_granularity)
            producer.op(MemOp(
                OpKind.STORE, flags[target], ordering=Ordering.RELEASE,
                value=sent[target],
                meta={"sample_ns": (SOURCE_LATENCY_STAT, arrival)}
                if sampled else NO_META))
            inbound[target].append((arrival, host, sent[target], sampled))
        producer.fence()  # drain so completion includes global visibility
        programs[producer_core(config, host)] = producer.build()

    for host in range(hosts):
        consumer = ProgramBuilder(f"openloop.consumer@h{host}")
        # Poll in global scheduled-arrival order: flags are monotonic
        # counters and the poll is >=, so a request that landed while the
        # consumer was waiting elsewhere completes its poll instantly.
        polls = sorted(inbound[host])
        flags = {source: address_map.address_in_host(
                     host, _FLAG_BASE + source * 0x100)
                 for _, source, _, _ in polls}
        for arrival, source, flag_seq, sampled in polls:
            consumer.op(MemOp(
                OpKind.LOAD_UNTIL, flags[source], ordering=Ordering.ACQUIRE,
                value=flag_seq,
                meta={"sample_ns": (DELIVERY_LATENCY_STAT, arrival)}
                if sampled else NO_META))
        consumer.fence()
        consumer_id = consumer_core(config, host)
        assert consumer_id != producer_core(config, host)
        programs[consumer_id] = consumer.build()

    return programs
