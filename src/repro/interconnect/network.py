"""Timed network fabric with serialization, port contention and accounting.

The network delivers :class:`~repro.interconnect.message.Message` objects to
registered endpoint handlers after

``latency = zero-load topology latency + serialization + egress queuing``

where serialization models the 64 GB/s link of Table 1 and egress queuing
models contention at each host's switch port (the shared inter-host link is
the bottleneck resource in these systems; the intra-host mesh is treated as
latency-only).

On multi-pod configs (``config.pods > 1``) cross-pod messages additionally
serialize on two shared tier resources: the source pod's uplink into the
inter-pod spine and the destination pod's downlink out of it, each at
``config.pod_uplink_gbps`` (defaulting to the host-link bandwidth, so the
shared uplink becomes the scaling bottleneck once pods hold several
hosts).  Queue time and bytes are accounted under ``traffic.pod_uplink.*``
and ``traffic.inter_pod.*``; for ``pods == 1`` configs none of this code
runs and results are byte-identical to the single-switch fabric (pinned by
the state-hash basket).

Each (src-node, dst-node) pair gets a channel on its first send, which
holds the destination handler, the route, the pair's last arrival and its
wire sequence counts, so a send costs one hash of the pair.  Delivery on a
channel is FIFO — messages between the same two endpoints arrive in send
order — which matches real load/store interconnects and is the
point-to-point ordering the MP (PCIe-like) protocol relies on.  A message
that would overtake the pair's previous one is clamped to that message's
arrival time and scheduled at exactly that time (``Simulator.schedule_at``
queues ``when`` itself), so the kernel's same-timestamp FIFO delivers the
two in send order.  Disjoint node pairs are independent even within one
host: their mesh paths do not serialize against each other.  Protocol
*correctness* under adversarial reordering is checked separately by the
untimed model checker (``repro.litmus``).

:meth:`Network.send` computes every transmission in one block, from the
egress departure to the FIFO clamp and accounting.  With a
:class:`~repro.faults.FaultInjector` attached it calls only the hooks whose
scenario the plan contains (decided once, at construction) and stamps each
message with its channel's wire sequence count.  A fault duplicate is a
real second transmission: the block runs once more for it, with the
original's arrival plus the duplicate delay as a not-before floor.  A
faulted delivery runs :meth:`~repro.faults.FaultInjector.accept` on the
channel, which calls the channel's handler only for a first delivery, so
endpoints never see a duplicate.

When a :class:`~repro.trace.TraceCollector` is attached, every send is
recorded as a flight span (size/class/hops), every delivery as an instant,
and the original's pre-departure waits as stall spans against the source
node — split by cause: time queued behind a busy egress port is
``egress_queue``; any further fault-induced hold (a link flap/down window)
is ``fault.link_down``.  Untraced, unfaulted deliveries call the
channel's handler straight from the kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.interconnect.message import Message, NodeId
from repro.interconnect.topology import Topology
from repro.sim import Simulator, StatRegistry

__all__ = ["Network"]

Handler = Callable[[Message], None]


class _Channel:
    """One (src, dst) node pair: its destination handler, route fields,
    source host (egress port), ``last``, the pair's latest arrival (the
    FIFO clamp), ``sent`` and ``accepted``, the numbers of the pair's
    latest message and latest first delivery (counted only while a fault
    injector is attached), and a cross-pod pair's two pod indices."""

    __slots__ = ("handler", "latency", "hops", "cross", "cross_pod", "host",
                 "last", "sent", "accepted", "src_pod", "dst_pod")

    def __init__(self, handler: Handler, route: tuple, host: int) -> None:
        self.handler = handler
        self.latency, self.hops, self.cross, self.cross_pod = route
        self.host = host
        self.last = 0.0
        self.sent = 0
        self.accepted = 0


class Network:
    """Connects endpoint handlers through the Table-1 fabric."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: Optional[StatRegistry] = None,
        latency_jitter: float = 0.0,
        rng=None,
        trace=None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.topology = Topology(config)
        self.stats = stats if stats is not None else StatRegistry()
        #: Optional :class:`repro.trace.TraceCollector` (None = disabled).
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector` (None = disabled —
        #: the default; each consultation in ``send`` is one test).
        self.faults = faults
        # Host-link bandwidth, so serialization is one division per send.
        self._bytes_per_ns = config.interconnect.bytes_per_ns
        self._handlers: Dict[NodeId, Handler] = {}
        # (src, dst) -> its channel.  The FIFO clamp is per *node* pair:
        # keying on hosts would serialize disjoint same-host mesh paths
        # against each other (all intra-host traffic would share one
        # (h, h) key); per node pair is the ordering MP actually relies on.
        self._channels: Dict[Tuple[NodeId, NodeId], _Channel] = {}
        # [cross][control] -> {msg_type: tuple of Counter handles}, so the
        # per-message accounting builds no key and resolves no names.
        self._accounts = (({}, {}), ({}, {}))
        # Next time each host's switch egress port is free.
        self._egress_free: Dict[int, float] = {}
        # Two-level fabric (pods > 1 only): next time each pod's uplink
        # into the inter-pod spine / downlink out of it is free, plus the
        # cached accounting handles.  Never touched on pods == 1 configs,
        # keeping single-switch results byte-identical.
        if config.pods > 1:
            uplink_gbps = (config.pod_uplink_gbps
                           if config.pod_uplink_gbps is not None
                           else config.interconnect.link_bandwidth_gbps)
            self._uplink_bytes_per_ns = uplink_gbps  # GB/s == B/ns
            self._uplink_free: Dict[int, float] = {}
            self._downlink_free: Dict[int, float] = {}
            self._pod_counters = (
                self.stats.counter("traffic.pod_uplink.bytes"),
                self.stats.counter("traffic.pod_uplink.queue_ns"),
                self.stats.counter("traffic.inter_pod.bytes"),
                self.stats.counter("traffic.inter_pod.queue_ns"),
            )
        # Optional per-message latency perturbation (timed litmus fuzzing).
        # Jitter is applied before the per-pair FIFO clamp, so same-path
        # ordering is preserved while cross-path races are explored.
        if latency_jitter < 0 or latency_jitter >= 1:
            raise ValueError("latency_jitter must be in [0, 1)")
        self.latency_jitter = latency_jitter
        if latency_jitter > 0 and rng is None:
            from repro.sim import DeterministicRng
            rng = DeterministicRng(0)
        self._rng = rng

    def register(self, node: NodeId, handler: Handler) -> None:
        if node in self._handlers:
            raise ValueError(f"handler already registered for {node}")
        self._handlers[node] = handler

    def _open(self, src: NodeId, dst: NodeId) -> _Channel:
        handler = self._handlers.get(dst)
        if handler is None:
            raise KeyError(f"no handler registered for {dst}")
        channel = self._channels[(src, dst)] = _Channel(
            handler, self.topology.route(src, dst), src.host)
        if channel.cross_pod:
            channel.src_pod = self.config.pod_of_host(src.host)
            channel.dst_pod = self.config.pod_of_host(dst.host)
        return channel

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> float:
        """Inject ``message``; returns its arrival time."""
        channel = self._channels.get((message.src, message.dst))
        if channel is None:
            channel = self._open(message.src, message.dst)
        latency = channel.latency
        if self.latency_jitter > 0:
            factor = 1.0 + self.latency_jitter * (2.0 * self._rng.random() - 1.0)
            latency *= factor

        faults = self.faults
        if faults is not None:
            channel.sent += 1
            faults.assign_seq(message, channel.sent)
        sim = self.sim
        now = not_before = sim.now
        cross = channel.cross
        original = None
        # One pass per transmission: the original, then at most one fault
        # duplicate, which arrives no earlier than ``not_before``.
        while True:
            # ``queued`` ends the egress-port contention; any later
            # departure is a fault hold (link down).
            depart = queued = now
            if cross:
                host = channel.host
                port_free = self._egress_free.get(host, 0.0)
                if port_free > now:
                    depart = queued = port_free
                serialization = message.size_bytes / self._bytes_per_ns
                if faults is not None:
                    if faults.has_flaps:
                        depart = faults.link_ready_ns(message, depart)
                    if faults.has_degrade:
                        serialization *= faults.serialization_factor(message,
                                                                     depart)
                finish = depart + serialization
                self._egress_free[host] = finish
                if channel.cross_pod:
                    finish = self._pod_transit(channel, message, finish)
                arrival = finish + latency
            else:
                arrival = now + latency
            if faults is not None:
                # Only a duplicate's floor can bind.  Then transient loss
                # (retry latency) and per-node stall windows, all before
                # the FIFO clamp, so same-pair ordering holds.
                if not_before > arrival:
                    arrival = not_before
                if cross and faults.has_drops:
                    arrival += faults.retry_delay_ns(message)
                if faults.has_stalls:
                    arrival = faults.release_ns(message, arrival)
            # Enforce per node-pair FIFO delivery.
            if channel.last > arrival:
                arrival = channel.last
            channel.last = arrival
            self._account(message, cross)
            trace = self.trace
            if trace:
                if original is None:
                    # Suppress the zero-length spans every uncontended (and
                    # every intra-host) send would otherwise emit.
                    if queued > now:
                        trace.stall(str(message.src), "egress_queue", now,
                                    queued)
                    if depart > queued:
                        trace.stall(str(message.src), "fault.link_down",
                                    queued, depart)
                trace.message_send(message, depart, arrival, cross,
                                   channel.hops)
                sim.schedule_at(arrival, self._deliver, channel, message)
            elif faults is not None:
                sim.schedule_at(arrival, faults.accept, channel, message)
            else:
                sim.schedule_at(arrival, channel.handler, message)
            if faults is None:
                return arrival
            if original is not None:
                return original
            delay = faults.duplicate_delay_ns(message)
            if delay is None:
                return arrival
            original, not_before = arrival, arrival + delay

    def _deliver(self, channel: _Channel, message: Message) -> None:
        self.trace.message_deliver(message, self.sim.now)
        if self.faults is not None:
            self.faults.accept(channel, message)
        else:
            channel.handler(message)

    # ------------------------------------------------------------------
    # Two-level fabric (pods > 1 only)
    # ------------------------------------------------------------------
    def _pod_transit(self, channel: _Channel, message: Message,
                     finish: float) -> float:
        """Serialize a cross-pod message on the source pod's uplink and
        the destination pod's downlink; returns the new link-exit time.

        Both are shared, contended resources (every host in a pod funnels
        through them), modelled exactly like the host egress port: a
        busy-until time per pod, FIFO occupancy, queue time accounted.
        """
        src_pod, dst_pod = channel.src_pod, channel.dst_pod
        serialization = message.size_bytes / self._uplink_bytes_per_ns
        up_bytes, up_queue, spine_bytes, spine_queue = self._pod_counters

        up_depart = self._uplink_free.get(src_pod, 0.0)
        if up_depart < finish:
            up_depart = finish
        up_finish = up_depart + serialization
        self._uplink_free[src_pod] = up_finish
        up_bytes.add(message.size_bytes)
        if up_depart > finish:
            up_queue.add(up_depart - finish)
            if self.trace:
                self.trace.stall(f"pod{src_pod}", "pod_uplink_queue",
                                 finish, up_depart)

        down_depart = self._downlink_free.get(dst_pod, 0.0)
        if down_depart < up_finish:
            down_depart = up_finish
        down_finish = down_depart + serialization
        self._downlink_free[dst_pod] = down_finish
        spine_bytes.add(message.size_bytes)
        if down_depart > up_finish:
            spine_queue.add(down_depart - up_finish)
            if self.trace:
                self.trace.stall(f"pod{dst_pod}", "inter_pod_queue",
                                 up_finish, down_depart)
        return down_finish

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account(self, message: Message, cross: bool) -> None:
        control = message.control
        accounts = self._accounts[cross][1 if control else 0]
        counters = accounts.get(message.msg_type)
        if counters is None:
            scope = "inter_host" if cross else "intra_host"
            klass = "ctrl" if control else "data"
            counters = accounts[message.msg_type] = (
                self.stats.counter(f"traffic.{scope}.{klass}"),
                self.stats.counter(f"traffic.{scope}.total"),
                self.stats.counter(f"msgs.{scope}.{message.msg_type}"),
                self.stats.counter(f"bytes.{scope}.{message.msg_type}"),
                self.stats.counter("msgs.inter_host.ctrl_count")
                if cross and control else None,
            )
        size = message.size_bytes
        klass_bytes, total_bytes, msg_count, type_bytes, ctrl_count = counters
        klass_bytes.add(size)
        total_bytes.add(size)
        msg_count.add(1)
        type_bytes.add(size)
        if ctrl_count is not None:
            ctrl_count.add(1)
