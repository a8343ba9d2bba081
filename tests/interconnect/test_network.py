"""Tests for the timed network fabric."""

import pytest

from repro.config import SystemConfig
from repro.interconnect import Message, Network, NodeId
from repro.sim import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    config = SystemConfig().scaled(hosts=2, cores_per_host=2)
    network = Network(sim, config)
    inbox = []
    core = NodeId.core(0, 0)
    local_dir = NodeId.directory(1, 0)
    remote_dir = NodeId.directory(2, 1)
    for node in (core, local_dir, remote_dir):
        network.register(node, inbox.append)
    return sim, network, inbox, core, local_dir, remote_dir


def _msg(src, dst, size=64, control=False, msg_type="wt_store"):
    return Message(src=src, dst=dst, msg_type=msg_type, size_bytes=size,
                   control=control)


class _Draws:
    """Jitter source returning fixed draws in order."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


class TestDelivery:
    def test_message_delivered_to_handler(self, setup):
        sim, network, inbox, core, local_dir, _ = setup
        message = _msg(core, local_dir)
        network.send(message)
        sim.run()
        assert inbox == [message]

    def test_unregistered_destination_rejected(self, setup):
        sim, network, _, core, _, _ = setup
        stranger = NodeId.directory(99, 1)
        with pytest.raises(KeyError):
            network.send(_msg(core, stranger))

    def test_pair_delivers_once_its_destination_registers(self, setup):
        sim, network, inbox, core, _, _ = setup
        late = NodeId.directory(3, 1)
        with pytest.raises(KeyError):
            network.send(_msg(core, late))
        network.register(late, inbox.append)
        message = _msg(core, late)
        network.send(message)
        sim.run()
        assert inbox == [message]

    def test_duplicate_registration_rejected(self, setup):
        _, network, _, core, _, _ = setup
        with pytest.raises(ValueError):
            network.register(core, lambda m: None)

    def test_intra_host_faster_than_inter_host(self, setup):
        sim, network, _, core, local_dir, remote_dir = setup
        local_arrival = network.send(_msg(core, local_dir))
        remote_arrival = network.send(_msg(core, remote_dir))
        assert remote_arrival > local_arrival

    def test_inter_host_latency_includes_link(self, setup):
        sim, network, _, core, _, remote_dir = setup
        arrival = network.send(_msg(core, remote_dir, size=64))
        config = network.config
        assert arrival >= config.interconnect.inter_host_latency_ns

    def test_serialization_grows_with_size(self, setup):
        sim, network, _, core, _, remote_dir = setup
        small = network.send(_msg(core, remote_dir, size=16))
        # Fresh network to avoid port queuing from the first message.
        sim2 = Simulator()
        network2 = Network(sim2, network.config)
        network2.register(remote_dir, lambda m: None)
        big = network2.send(_msg(core, remote_dir, size=4096))
        assert big > small

    def test_egress_port_serializes_cross_host_messages(self, setup):
        sim, network, _, core, _, remote_dir = setup
        first = network.send(_msg(core, remote_dir, size=4096))
        second = network.send(_msg(core, remote_dir, size=4096))
        serialization = network.config.interconnect.serialization_ns(4096)
        assert second - first == pytest.approx(serialization)

    def test_per_host_pair_fifo(self, setup):
        sim, network, inbox, core, _, remote_dir = setup
        big = _msg(core, remote_dir, size=4096)
        small = _msg(core, remote_dir, size=8)
        network.send(big)
        network.send(small)
        sim.run()
        assert inbox == [big, small]


class TestAccounting:
    def test_inter_host_bytes_counted(self, setup):
        sim, network, _, core, _, remote_dir = setup
        network.send(_msg(core, remote_dir, size=100))
        assert network.stats.value("traffic.inter_host.total") == 100

    def test_intra_host_not_counted_as_inter(self, setup):
        sim, network, _, core, local_dir, _ = setup
        network.send(_msg(core, local_dir, size=100))
        assert network.stats.value("traffic.inter_host.total") == 0
        assert network.stats.value("traffic.intra_host.total") == 100

    def test_control_vs_data_split(self, setup):
        sim, network, _, core, _, remote_dir = setup
        network.send(_msg(core, remote_dir, size=16, control=True))
        network.send(_msg(core, remote_dir, size=80, control=False))
        assert network.stats.value("traffic.inter_host.ctrl") == 16
        assert network.stats.value("traffic.inter_host.data") == 80

    def test_per_message_type_counts_and_bytes(self, setup):
        sim, network, _, core, _, remote_dir = setup
        network.send(_msg(core, remote_dir, size=24, msg_type="ack",
                          control=True))
        network.send(_msg(core, remote_dir, size=24, msg_type="ack",
                          control=True))
        assert network.stats.value("msgs.inter_host.ack") == 2
        assert network.stats.value("bytes.inter_host.ack") == 48


class TestFifoScope:
    """The FIFO clamp is per (src, dst) *node* pair, not per host pair.

    Regression for a bug where the FIFO clamp was keyed on
    ``(src.host, dst.host)``: all intra-host traffic shared the ``(h, h)``
    key, so disjoint mesh paths within one host serialized against each
    other (a short 1-hop message could not overtake an unrelated 7-hop
    one between different endpoints).
    """

    def _network(self, cores_per_host=8):
        sim = Simulator()
        config = SystemConfig().scaled(hosts=2, cores_per_host=cores_per_host)
        network = Network(sim, config)
        return sim, network

    def test_independent_same_host_pairs_do_not_serialize(self):
        sim, network = self._network()
        far_src, far_dst = NodeId.core(0, 0), NodeId.directory(7, 0)
        near_src, near_dst = NodeId.core(1, 0), NodeId.directory(2, 0)
        for node in (far_src, far_dst, near_src, near_dst):
            network.register(node, lambda m: None)

        slow = network.send(_msg(far_src, far_dst))     # 7 mesh hops
        fast = network.send(_msg(near_src, near_dst))   # 1 mesh hop
        assert fast < slow
        # The near pair pays exactly its own zero-load latency: no clamp
        # against the unrelated far pair's in-flight message.
        assert fast == network.topology.latency_ns(near_src, near_dst)

    def test_same_node_pair_still_fifo(self):
        sim, network = self._network()
        src, dst = NodeId.core(0, 0), NodeId.directory(7, 0)
        network.register(dst, lambda m: None)
        first = network.send(_msg(src, dst))
        second = network.send(_msg(src, dst))
        assert second >= first

    def test_clamped_later_send_delivered_after_the_earlier_one(self):
        # Regression: a send clamped to the pair's last arrival was queued
        # at now + (arrival - now), one ulp below the arrival for the send
        # time below, so it was delivered before the earlier message.
        sim = Simulator()
        config = SystemConfig().scaled(hosts=2, cores_per_host=2)
        # Jitter draws: a long latency for the first message and the
        # shortest for the second, which is then clamped to the first's
        # arrival.
        network = Network(sim, config, latency_jitter=0.5,
                          rng=_Draws(0.8674198235869027, 0.0))
        src, dst = NodeId.core(0, 0), NodeId.directory(1, 0)
        inbox = []
        network.register(dst, inbox.append)
        arrival = network.send(_msg(src, dst, msg_type="first"))
        later = 2.065
        assert later + (arrival - later) < arrival
        sim.schedule_at(later, network.send, _msg(src, dst, msg_type="second"))
        sim.run()
        assert [m.msg_type for m in inbox] == ["first", "second"]
        assert sim.now == arrival

    def test_faulted_path_clamps_exactly_like_the_fast_path(self):
        # The same overtaking pair of sends as above, once without faults
        # and once through a fault injector whose only scenario (a far-off
        # stall window) never holds anything.  Every send runs the same
        # block; an inert plan must change no arrival and no delivery
        # order.
        from repro.faults import FaultInjector, FaultPlan, StallSpec
        from repro.sim import StatRegistry

        plan = FaultPlan(stalls=(StallSpec(start_ns=1e9, duration_ns=1.0),))

        def deliveries(faulted):
            sim, stats = Simulator(), StatRegistry()
            config = SystemConfig().scaled(hosts=2, cores_per_host=2)
            injector = FaultInjector(plan, sim, stats) if faulted else None
            network = Network(sim, config, stats, latency_jitter=0.5,
                              rng=_Draws(0.8674198235869027, 0.0),
                              faults=injector)
            src, dst = NodeId.core(0, 0), NodeId.directory(1, 0)
            inbox = []
            network.register(dst, lambda m: inbox.append((m.msg_type,
                                                          sim.now)))
            network.send(_msg(src, dst, msg_type="first"))
            sim.schedule_at(2.065, network.send,
                            _msg(src, dst, msg_type="second"))
            sim.run()
            return inbox

        plain = deliveries(faulted=False)
        assert [kind for kind, _ in plain] == ["first", "second"]
        assert plain[0][1] == plain[1][1]        # the second was clamped
        assert deliveries(faulted=True) == plain

    def test_disjoint_cross_host_pairs_not_clamped_to_each_other(self):
        sim, network = self._network()
        a_src, a_dst = NodeId.core(7, 0), NodeId.directory(15, 1)
        b_src, b_dst = NodeId.core(1, 0), NodeId.directory(9, 1)
        for node in (a_dst, b_dst):
            network.register(node, lambda m: None)
        # Both share host 0's egress port (which still serializes
        # departures), but the long-path arrival no longer clamps the
        # short-path pair's arrival beyond that.
        far = network.send(_msg(a_src, a_dst, size=8))
        near = network.send(_msg(b_src, b_dst, size=8))
        assert near < far


class TestTracing:
    def test_send_deliver_and_egress_queue_recorded(self):
        from repro.trace import TraceCollector

        sim = Simulator()
        config = SystemConfig().scaled(hosts=2, cores_per_host=2)
        trace = TraceCollector()
        network = Network(sim, config, trace=trace)
        src, dst = NodeId.core(0, 0), NodeId.directory(2, 1)
        network.register(dst, lambda m: None)
        network.send(_msg(src, dst, size=4096))
        network.send(_msg(src, dst, size=4096))  # queues behind msg 1
        sim.run()

        kinds = [e.kind for e in trace]
        assert kinds.count("msg_send") == 2
        assert kinds.count("msg_recv") == 2
        sends = [e for e in trace if e.kind == "msg_send"]
        assert all(e.args["scope"] == "inter_host" for e in sends)
        assert all(e.args["hops"] >= 1 for e in sends)
        queued = [e for e in trace
                  if e.kind == "stall" and e.name == "egress_queue"]
        assert len(queued) == 1  # only the second send waited
        serialization = config.interconnect.serialization_ns(4096)
        assert queued[0].dur_ns == pytest.approx(serialization)

    def test_untraced_network_records_nothing(self, setup):
        sim, network, _, core, _, remote_dir = setup
        assert network.trace is None
        network.send(_msg(core, remote_dir))
        sim.run()  # would raise if any trace call were attempted
