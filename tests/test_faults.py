"""Fault-injection layer: determinism, disabled-mode purity, dedup, sweeps.

The contract under test (ISSUE 3 / DESIGN.md fault model):

* same (machine seed, plan) -> byte-identical injections and results;
* ``faults=None`` and a disabled plan are byte-identical to each other
  (single-branch integration — the layer is invisible when off);
* duplicates are always suppressed on the pair channel via wire sequence
  numbers, before any endpoint sees them, so every protocol stays safe
  under duplicate delivery;
* the fault-enabled litmus sweep passes (safety + deadlock freedom) under
  the drop/dup/flap presets.
"""

import dataclasses

import pytest

from repro.config import CXL, SystemConfig
from repro.core.seqnum import unwrap, wrap
from repro.faults import (
    DegradeSpec,
    DropSpec,
    DuplicateSpec,
    FaultInjector,
    FaultPlan,
    FlapSpec,
    StallSpec,
    fault_presets,
    parse_faults,
)
from repro.interconnect.message import Message, NodeId
from repro.interconnect.network import Network
from repro.sim import Simulator, StatRegistry
from repro.harness import RunSpec
from repro.harness.executor import _execute_spec
from repro.harness.experiments import default_config
from repro.litmus import fault_suite, fault_sweep, run_timed
from repro.litmus.suite import classic_tests
from repro.protocols.machine import Machine
from repro.workloads.micro import MicroSpec
from repro.workloads.openloop import (
    DELIVERY_LATENCY_STAT,
    OpenLoopSpec,
    build_openloop_programs,
)

MICRO = MicroSpec(store_granularity=64, sync_granularity=1024,
                  fanout=1, total_bytes=8 * 1024)

DROP_DUP = FaultPlan(drop=DropSpec(rate=0.1),
                     duplicate=DuplicateSpec(rate=0.1))


def _spec(protocol="cord", faults=None, **kwargs):
    return RunSpec(
        kind="micro", protocol=protocol, workload=MICRO,
        config=default_config(CXL, hosts=2, cores_per_host=1), seed=0,
        faults=faults, **kwargs,
    )


def _fingerprint(record):
    return (record.final_state_hash, record.time_ns, record.quiesce_ns,
            record.events, record.stats)


# ---------------------------------------------------------------------------
# Plans and presets
# ---------------------------------------------------------------------------
class TestPlans:
    def test_default_plan_is_disabled(self):
        assert not FaultPlan().enabled

    def test_each_preset_is_enabled(self):
        for name, plan in fault_presets().items():
            assert plan.enabled, name

    def test_parse_merges_presets(self):
        plan = parse_faults("drop+dup+flap")
        assert plan.drop is not None and plan.drop.rate > 0
        assert plan.duplicate is not None and plan.duplicate.rate > 0
        assert len(plan.flaps) == 1
        assert plan.enabled

    def test_parse_rejects_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown fault preset"):
            parse_faults("drop+bogus")

    def test_merge_concatenates_windows(self):
        a = FaultPlan(flaps=(FlapSpec(period_ns=10.0, down_ns=1.0),))
        b = FaultPlan(flaps=(FlapSpec(period_ns=20.0, down_ns=2.0),),
                      stalls=(StallSpec(start_ns=1.0, duration_ns=1.0),))
        merged = a.merge(b)
        assert len(merged.flaps) == 2
        assert len(merged.stalls) == 1

    @pytest.mark.parametrize("bits", (0, 1))
    def test_dedup_bits_below_two_rejected(self, bits):
        # With one bit, unwrap ties between the next in-order value and
        # the last one, so every in-order message after the first would
        # be suppressed as a duplicate.
        with pytest.raises(ValueError, match="dedup_bits"):
            FaultPlan(dedup_bits=bits)

    def test_plan_survives_canonicalization(self):
        # A FaultPlan must be cache-key compatible (frozen, JSON-able).
        from repro.harness.executor import _canonical_json
        text = _canonical_json(_spec(faults=DROP_DUP))
        assert "DropSpec" in text and "DuplicateSpec" in text


# ---------------------------------------------------------------------------
# Duplicate suppression on the pair channel
# ---------------------------------------------------------------------------
class _StubChannel:
    """The two fields ``FaultInjector.accept`` reads off a pair channel:
    the last accepted number and the destination handler."""

    def __init__(self):
        self.accepted = 0
        self.delivered = []
        self.handler = self.delivered.append


def _dedup(bits=16):
    """``accept(channel, wire)``: whether an injector with ``bits``-bit
    wire numbers hands a message numbered ``wire`` to the channel's
    handler."""
    injector = FaultInjector(FaultPlan(dedup_bits=bits), Simulator(),
                             StatRegistry())
    src, dst = NodeId.core(0, 0), NodeId.directory(1, 1)

    def accept(channel, wire):
        before = len(channel.delivered)
        injector.accept(channel, Message(src, dst, "wt_rlx", 64, seq=wire))
        return len(channel.delivered) > before

    return accept


class TestDedupFilter:
    def test_accepts_fresh_rejects_repeats(self):
        accept, channel = _dedup(16), _StubChannel()
        assert accept(channel, 1)
        assert accept(channel, 2)
        assert not accept(channel, 2)
        assert not accept(channel, 1)
        assert accept(channel, 3)

    def test_independent_per_source(self):
        # Each source reaches a destination on a channel of its own.
        accept, a, b = _dedup(16), _StubChannel(), _StubChannel()
        assert accept(a, 1)
        assert accept(b, 1)
        assert not accept(a, 1)

    def test_wraps_across_sequence_space(self):
        accept, channel = _dedup(4), _StubChannel()
        for seq in range(1, 40):        # wraps the 4-bit space twice
            assert accept(channel, seq % 16)
            assert not accept(channel, seq % 16)

    @pytest.mark.parametrize("bits", (2, 3, 16))
    def test_in_order_shortcut_agrees_with_unwrap(self, bits):
        # An in-order arrival is accepted as last + 1 without unwrap; that
        # must be exactly what unwrap reconstructs, across every wrap.
        accept, channel = _dedup(bits), _StubChannel()
        for value in range(1, 2 * (1 << bits) + 3):
            wire = wrap(value, bits)
            assert unwrap(wire, value - 1, bits) == value
            assert accept(channel, wire)
            assert not accept(channel, wire)


class TestChannelDedup:
    def test_raw_handler_runs_once_per_message_under_full_duplication(self):
        """Every message is transmitted twice, and both transmissions are
        counted as traffic, but a handler registered on the network sees
        each message once: the pair channel suppresses the duplicate."""
        plan = FaultPlan(duplicate=DuplicateSpec(rate=1.0, delay_ns=5.0))
        sim, stats = Simulator(), StatRegistry()
        config = default_config(CXL, hosts=2, cores_per_host=2)
        network = Network(sim, config, stats,
                          faults=FaultInjector(plan, sim, stats))
        src = NodeId.core(0, 0)
        near, far = NodeId.directory(1, 0), NodeId.directory(2, 1)
        seen = []
        for node in (near, far):
            network.register(node, lambda message: seen.append(message.uid))
        sent = []
        for index in range(12):
            message = _cross_msg(src, far if index % 3 else near,
                                 size=64 + 8 * index)
            sim.schedule(index * 7.0, network.send, message)
            sent.append(message)
        sim.run()

        assert sorted(seen) == sorted(message.uid for message in sent)
        assert stats.value("faults.duplicate") == len(sent)
        assert stats.value("faults.dup_suppressed") == len(sent)
        for scope, dst in (("intra_host", near), ("inter_host", far)):
            sizes = [m.size_bytes for m in sent if m.dst == dst]
            assert stats.value(f"msgs.{scope}.wt_rlx") == 2 * len(sizes)
            assert stats.value(f"bytes.{scope}.wt_rlx") == 2 * sum(sizes)
            assert stats.value(f"traffic.{scope}.data") == 2 * sum(sizes)
            assert stats.value(f"traffic.{scope}.total") == 2 * sum(sizes)

    def test_endpoints_handle_only_first_deliveries(self, monkeypatch):
        """On a drop+dup micro, ``Core.handle`` and
        ``DirectoryNode.handle`` run once per message received minus the
        duplicates suppressed."""
        from repro.cpu.core import Core
        from repro.protocols.base import DirectoryNode
        calls = {"received": 0, "handled": 0}

        def counting(fn, key):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(FaultInjector, "accept",
                            counting(FaultInjector.accept, "received"))
        for cls in (Core, DirectoryNode):
            monkeypatch.setattr(cls, "handle",
                                counting(cls.handle, "handled"))
        record = _execute_spec(_spec(faults=DROP_DUP))
        suppressed = record.stat("faults.dup_suppressed")
        assert suppressed > 0
        assert calls["handled"] == calls["received"] - suppressed


# ---------------------------------------------------------------------------
# Determinism & disabled-mode purity
# ---------------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("protocol", ("cord", "so", "mp"))
    def test_same_plan_same_run(self, protocol):
        first = _execute_spec(_spec(protocol, faults=DROP_DUP))
        second = _execute_spec(_spec(protocol, faults=DROP_DUP))
        assert first.stat("faults.injected") > 0
        assert _fingerprint(first) == _fingerprint(second)

    def test_plan_seed_changes_injections(self):
        base = _execute_spec(_spec(faults=DROP_DUP))
        other = _execute_spec(_spec(
            faults=dataclasses.replace(DROP_DUP, seed=1)
        ))
        # Different fault stream; both deterministic, not byte-equal.
        assert base.stat("faults.injected") > 0
        assert _fingerprint(base) != _fingerprint(other)

    @pytest.mark.parametrize("protocol", ("cord", "so", "mp", "wb"))
    def test_disabled_plan_byte_identical_to_none(self, protocol):
        off = _execute_spec(_spec(protocol, faults=None))
        disabled = _execute_spec(_spec(protocol, faults=FaultPlan()))
        assert off.stat("faults.injected") == 0
        assert off.final_state_hash == disabled.final_state_hash
        assert off.stats == disabled.stats
        assert off.time_ns == disabled.time_ns

    def test_faults_change_cache_key(self):
        from repro.harness.executor import spec_key
        assert spec_key(_spec()) != spec_key(_spec(faults=DROP_DUP))
        assert spec_key(_spec(faults=FaultPlan())) != spec_key(
            _spec(faults=DROP_DUP)
        )


# ---------------------------------------------------------------------------
# Duplicate delivery is tolerated by every protocol
# ---------------------------------------------------------------------------
DUP_HEAVY = FaultPlan(duplicate=DuplicateSpec(rate=0.5))


class TestDuplicateTolerance:
    @pytest.mark.parametrize("protocol", ("cord", "so", "mp"))
    def test_mp_shape_safe_under_heavy_duplication(self, protocol):
        test = fault_suite("mp")[0]      # MP.same: safe for all three
        result = run_timed(test, protocol=protocol, faults=DUP_HEAVY)
        assert result.passed
        stats = result.run.stats
        duplicated = stats.value("faults.duplicate")
        assert duplicated > 0
        # Every injected duplicate must be suppressed at its endpoint.
        assert stats.value("faults.dup_suppressed") == duplicated

    def test_duplicates_consume_bandwidth(self):
        record = _execute_spec(_spec(faults=DUP_HEAVY))
        baseline = _execute_spec(_spec())
        assert record.stat("faults.duplicate") > 0
        assert record.inter_host_bytes > baseline.inter_host_bytes


def _fabric(plan, trace=None):
    """A two-host network with ``plan`` injected, one registered endpoint."""
    sim, stats = Simulator(), StatRegistry()
    config = default_config(CXL, hosts=2, cores_per_host=1)
    injector = FaultInjector(plan, sim, stats, trace=trace)
    network = Network(sim, config, stats, trace=trace, faults=injector)
    src = NodeId.core(0, 0)
    dst = NodeId.directory(1, 1)
    network.register(dst, lambda message: None)
    return network, src, dst


def _cross_msg(src, dst, size=640):
    return Message(src=src, dst=dst, msg_type="wt_rlx", size_bytes=size,
                   control=False)


# ---------------------------------------------------------------------------
# Fault-induced waits on the fabric: accounting regressions
# ---------------------------------------------------------------------------
class TestFaultWaitAccounting:
    def test_duplicates_occupy_the_egress_port(self):
        """Regression: a duplicate must serialize through the source's
        egress port like the original — it used to charge bytes without
        ever occupying the port, so dup-heavy runs inflated byte counters
        without inducing any contention."""
        plan = FaultPlan(duplicate=DuplicateSpec(rate=1.0, delay_ns=5.0))
        network, src, dst = _fabric(plan)
        ser = network.config.interconnect.serialization_ns(640)
        latency = network.topology.latency_ns(src, dst)
        network.send(_cross_msg(src, dst))
        second = network.send(_cross_msg(src, dst))
        # The second send queues behind the original AND its duplicate.
        assert second == pytest.approx(3 * ser + latency)

    def test_flap_wait_split_from_egress_queue(self):
        """Regression: a fault-delayed departure used to be traced entirely
        as an ``egress_queue`` contention span; only the port-busy portion
        is contention — the remainder is ``fault.link_down``."""
        from repro.trace import TraceCollector
        trace = TraceCollector()
        plan = FaultPlan(flaps=(
            # Down windows [0, 100) and [105, 400) on the source's link.
            FlapSpec(period_ns=1e6, down_ns=100.0),
            FlapSpec(period_ns=1e6, down_ns=295.0, offset_ns=105.0),
        ))
        network, src, dst = _fabric(plan, trace=trace)
        network.send(_cross_msg(src, dst))   # departs at 100, frees at 110
        network.send(_cross_msg(src, dst))   # queued to 110, flapped to 400
        spans = [(e.name, e.ts_ns, e.ts_ns + e.dur_ns)
                 for e in trace if e.kind == "stall"]
        # First send: uncontended — its whole wait is the down window.
        assert ("fault.link_down", 0.0, 100.0) in spans
        # Second send: split — port-busy until 110, link-down 110 -> 400.
        assert ("egress_queue", 0.0, 110.0) in spans
        assert ("fault.link_down", 110.0, 400.0) in spans
        assert not any(name == "egress_queue" and end > 110.0
                       for name, _start, end in spans)


# ---------------------------------------------------------------------------
# Duplicates pass through the same fault holds as first transmissions
# ---------------------------------------------------------------------------
CROSS_HOST_DIR = NodeId.directory(1, 1)
SAME_HOST_DIR = NodeId.directory(0, 0)


def _delivery_times(plan, dst=CROSS_HOST_DIR):
    """A two-host fabric with a traced destination ``dst`` (by default on
    the other host from the sending core), and ``times()``, the arrival
    time of every wire message it has delivered so far, duplicates
    included, read from the trace's ``msg_recv`` events."""
    from repro.trace import TraceCollector
    sim, stats, trace = Simulator(), StatRegistry(), TraceCollector()
    config = default_config(CXL, hosts=2, cores_per_host=1)
    injector = FaultInjector(plan, sim, stats, trace=trace)
    network = Network(sim, config, stats, trace=trace, faults=injector)
    src = NodeId.core(0, 0)
    network.register(dst, lambda message: None)

    def times():
        return [event.ts_ns for event in trace if event.kind == "msg_recv"]

    return network, src, dst, times


class TestDuplicateFaultHolds:
    @pytest.mark.parametrize("dst", [CROSS_HOST_DIR, SAME_HOST_DIR],
                             ids=["inter", "intra"])
    def test_duplicate_respects_straddling_stall_window(self, dst):
        """Regression: a fault-injected duplicate used to bypass the
        destination's stall windows entirely — with a window opening after
        the original's arrival but before the duplicate's, the duplicate
        was delivered *inside* the window its original would have been
        held out of."""
        probe = FaultPlan(duplicate=DuplicateSpec(rate=1.0, delay_ns=5.0))
        network, src, dst, _times = _delivery_times(probe, dst)
        latency = network.topology.latency_ns(src, dst)
        if dst.host == src.host:
            # The mesh has no egress port: the duplicate follows its
            # original by the duplicate delay alone.
            orig_arrival = latency
            unheld_dup_arrival = orig_arrival + 5.0
        else:
            ser = network.config.interconnect.serialization_ns(640)
            orig_arrival = ser + latency
            unheld_dup_arrival = max(2 * ser + latency, orig_arrival + 5.0)

        # Window straddles the duplicate: opens just after the original
        # lands, closes well past the duplicate's unheld arrival.
        window = StallSpec(start_ns=orig_arrival + 0.25,
                           duration_ns=unheld_dup_arrival + 100.0)
        plan = dataclasses.replace(probe, stalls=(window,))
        network, src, dst, times = _delivery_times(plan, dst)
        first = network.send(_cross_msg(src, dst))
        network.sim.run()

        assert first == pytest.approx(orig_arrival)   # original: unheld
        window_end = window.start_ns + window.duration_ns
        assert times() == [pytest.approx(orig_arrival),
                           pytest.approx(window_end)]

    def test_duplicate_pays_retry_latency(self):
        """Regression: the duplicate is a real second transmission, so it
        is exposed to transient loss like the original — it used to skip
        the retry delay entirely."""
        plan = FaultPlan(
            # rate=1.0 makes the geometric retry chain deterministic:
            # every transmission pays max_retries * retransmit_ns.
            drop=DropSpec(rate=1.0, retransmit_ns=40.0, max_retries=2),
            duplicate=DuplicateSpec(rate=1.0, delay_ns=5.0),
        )
        network, src, dst, times = _delivery_times(plan)
        ser = network.config.interconnect.serialization_ns(640)
        latency = network.topology.latency_ns(src, dst)
        retry = 2 * 40.0
        arrival = network.send(_cross_msg(src, dst))
        network.sim.run()

        assert arrival == pytest.approx(ser + latency + retry)
        # Duplicate: queues behind the original on the egress port, then
        # chains from the original's (retried) arrival and pays its own
        # retry delay on top.
        expected_dup = max(2 * ser + latency, arrival + 5.0) + retry
        assert times() == [pytest.approx(arrival),
                           pytest.approx(expected_dup)]

    def test_duplicate_waits_out_a_link_down_window(self):
        """Regression: the duplicate left the egress port when the
        original's serialization ended, even inside a link-down window."""
        plan = FaultPlan(
            duplicate=DuplicateSpec(rate=1.0, delay_ns=0.0),
            # The link is down over [10, 510): after the original departs
            # at 0, before its duplicate can.
            flaps=(FlapSpec(period_ns=1e6, down_ns=500.0, offset_ns=10.0),),
        )
        network, src, dst, times = _delivery_times(plan)
        ser = network.config.interconnect.serialization_ns(1024)
        latency = network.topology.latency_ns(src, dst)
        assert 10.0 <= ser < 510.0
        arrival = network.send(_cross_msg(src, dst, size=1024))
        network.sim.run()

        assert arrival == ser + latency                  # 166 ns on CXL
        assert times() == [arrival, 510.0 + ser + latency]  # 676 ns on CXL

    def test_duplicate_serializes_at_its_own_departure(self):
        """Regression: the duplicate reused its original's degrade-scaled
        serialization, even when it left the port after the window."""
        plan = FaultPlan(
            duplicate=DuplicateSpec(rate=1.0, delay_ns=0.0),
            # Serialization is x4 over [0, 10): the original departs at 0,
            # inside the window; its duplicate departs when the original's
            # serialization ends, after it.
            degrade=DegradeSpec(period_ns=1e6, window_ns=10.0, factor=4.0),
        )
        network, src, dst, times = _delivery_times(plan)
        ser = network.config.interconnect.serialization_ns(1024)
        latency = network.topology.latency_ns(src, dst)
        assert 10.0 <= 4 * ser
        arrival = network.send(_cross_msg(src, dst, size=1024))
        network.sim.run()

        assert arrival == 4 * ser + latency                # 214 ns on CXL
        assert times() == [arrival, 4 * ser + ser + latency]  # 230 ns on CXL


# ---------------------------------------------------------------------------
# Stall windows and wire sequence numbers
# ---------------------------------------------------------------------------
class TestStallWindows:
    @pytest.mark.parametrize("order", [1, -1], ids=["plan_order", "reversed"])
    def test_overlapping_windows_hold_in_either_order(self, order):
        """Regression: each window was checked once, in plan order, so the
        hold by a later window could land inside an earlier one and the
        delivery time depended on the order of ``FaultPlan.stalls``."""
        windows = (StallSpec(start_ns=300.0, duration_ns=200.0),
                   StallSpec(start_ns=200.0, duration_ns=120.0))
        plan = FaultPlan(stalls=windows[::order])
        network, src, dst, times = _delivery_times(plan)
        # Unheld, the message lands at 201 ns, inside [200, 320); that
        # window releases it at 320 ns, inside [300, 500).
        network.sim.schedule_at(50.0, network.send,
                                _cross_msg(src, dst, size=64))
        network.sim.run()
        assert times() == [500.0]


class TestFlapWindows:
    @pytest.mark.parametrize("order", [1, -1], ids=["plan_order", "reversed"])
    def test_overlapping_flaps_hold_in_either_order(self, order):
        """Regression: each flap was checked once, in plan order, so the
        hold by a later flap could land inside an earlier one's down
        window and the departure depended on the order of
        ``FaultPlan.flaps``."""
        flaps = (FlapSpec(period_ns=10_000.0, down_ns=100.0,
                          offset_ns=1_000.0),
                 FlapSpec(period_ns=10_000.0, down_ns=150.0,
                          offset_ns=900.0))
        plan = FaultPlan(flaps=flaps[::order])
        network, src, dst, times = _delivery_times(plan)
        # Sent at 950 ns, inside [900, 1050); released at 1050 ns, inside
        # [1000, 1100): the link is up again at 1100 ns.
        network.sim.schedule_at(950.0, network.send,
                                _cross_msg(src, dst, size=64))
        network.sim.run()
        ser = network.config.interconnect.serialization_ns(64)
        latency = network.topology.latency_ns(src, dst)
        assert times() == [1_100.0 + ser + latency]
        assert times() == [pytest.approx(1_251.0)]          # on CXL

    def test_flaps_that_can_cover_all_time_are_rejected(self):
        # 60/100 + 60/100 >= 1: the two down windows [0, 60) and
        # [50, 110) of every period leave the link no up time, so the
        # repeat-until-up pass would never end.
        flaps = (FlapSpec(period_ns=100.0, down_ns=60.0),
                 FlapSpec(period_ns=100.0, down_ns=60.0, offset_ns=50.0))
        with pytest.raises(ValueError, match="flaps"):
            FaultPlan(flaps=flaps)

    def test_down_share_is_summed_per_source_link(self):
        # Each link sees its own host's flaps: 0.45 + 0.45 on host 0 and
        # 0.9 on host 1, both below 1 although their total is not.  An
        # every-host flap adds to every link: 0.9 + 0.1 on host 1 is 1.
        FaultPlan(flaps=(FlapSpec(period_ns=100.0, down_ns=45.0, host=0),
                         FlapSpec(period_ns=100.0, down_ns=45.0, host=0),
                         FlapSpec(period_ns=100.0, down_ns=90.0, host=1)))
        with pytest.raises(ValueError, match="flaps"):
            FaultPlan(flaps=(FlapSpec(period_ns=100.0, down_ns=90.0, host=1),
                             FlapSpec(period_ns=1_000.0, down_ns=100.0)))


class TestWireSequence:
    def test_each_pair_numbers_its_own_messages(self):
        """The pair channel counts its own messages: sends on pairs that
        share its source or its destination never advance its number."""
        sim, stats = Simulator(), StatRegistry()
        config = default_config(CXL, hosts=2, cores_per_host=2)
        injector = FaultInjector(FaultPlan(dedup_bits=2), sim, stats)
        network = Network(sim, config, stats, faults=injector)
        core_a, core_b = NodeId.core(0, 0), NodeId.core(2, 1)
        dir_x, dir_y = NodeId.directory(2, 1), NodeId.directory(1, 0)
        for node in (dir_x, dir_y):
            network.register(node, lambda message: None)
        # (a, x) shares its source with (a, y) and its destination with
        # (b, x).
        pairs = [(core_a, dir_x), (core_a, dir_y), (core_b, dir_x)]
        seqs = {pair: [] for pair in pairs}
        for _round in range(5):
            for src, dst in pairs:
                message = _cross_msg(src, dst)
                network.send(message)
                seqs[(src, dst)].append(message.seq)
        # Counts 1..5 wrapped to two bits.
        assert seqs == {pair: [1, 2, 3, 0, 1] for pair in pairs}


# ---------------------------------------------------------------------------
# The injector calls only the hooks its plan can act through
# ---------------------------------------------------------------------------
def _refuse(*_args, **_kwargs):
    raise AssertionError("hook called for a scenario the plan lacks")


def _mixed_sends(plan):
    """Arrival times of a fixed burst over one intra-host and one
    cross-host pair, on a fabric with ``plan`` injected."""
    sim, stats = Simulator(), StatRegistry()
    config = default_config(CXL, hosts=2, cores_per_host=2)
    network = Network(sim, config, stats,
                      faults=FaultInjector(plan, sim, stats))
    src = NodeId.core(0, 0)
    near, far = NodeId.directory(1, 0), NodeId.directory(2, 1)
    times = []
    for node in (near, far):
        network.register(node, lambda message: times.append(sim.now))
    for index in range(40):
        dst = far if index % 3 else near
        sim.schedule(index * 7.0, network.send,
                     _cross_msg(src, dst, size=64 + 8 * index))
    sim.run()
    return times, stats


class TestHooksChosenPerPlan:
    def test_drop_dup_plan_skips_flap_degrade_and_stall_hooks(
            self, monkeypatch):
        plan = FaultPlan(drop=DropSpec(rate=0.5),
                         duplicate=DuplicateSpec(rate=0.5))
        expected, _ = _mixed_sends(plan)
        for hook in ("link_ready_ns", "serialization_factor", "release_ns"):
            monkeypatch.setattr(FaultInjector, hook, _refuse)
        times, stats = _mixed_sends(plan)
        assert stats.value("faults.drop") > 0
        assert stats.value("faults.duplicate") > 0
        assert times == expected

    def test_flap_only_plan_calls_link_ready(self, monkeypatch):
        calls = []
        original = FaultInjector.link_ready_ns

        def counting(self, message, depart):
            calls.append(depart)
            return original(self, message, depart)

        monkeypatch.setattr(FaultInjector, "link_ready_ns", counting)
        _times, stats = _mixed_sends(fault_presets()["flap"])
        cross_sends = sum(1 for index in range(40) if index % 3)
        assert len(calls) == cross_sends
        assert stats.value("faults.injected") == 0  # no window reached

    def test_intra_host_send_never_calls_retry_delay(self, monkeypatch):
        monkeypatch.setattr(FaultInjector, "retry_delay_ns", _refuse)
        plan = FaultPlan(drop=DropSpec(rate=1.0))
        sim, stats = Simulator(), StatRegistry()
        config = default_config(CXL, hosts=2, cores_per_host=2)
        network = Network(sim, config, stats,
                          faults=FaultInjector(plan, sim, stats))
        src, dst = NodeId.core(0, 0), NodeId.directory(1, 0)
        network.register(dst, lambda message: None)
        arrival = network.send(_cross_msg(src, dst))
        assert arrival == network.topology.latency_ns(src, dst)


# ---------------------------------------------------------------------------
# Fault-enabled litmus sweeps (safety + deadlock freedom under adversity)
# ---------------------------------------------------------------------------
class TestFaultSweep:
    def test_cord_classic_subset_passes_under_drop_dup_flap(self):
        tests = classic_tests()[:6]
        report = fault_sweep(tests, protocol="cord",
                             faults="drop+dup+flap", runs=2)
        assert report.passed, (report.forbidden_hits, report.violations,
                               report.deadlocks)
        assert report.runs == 2 * len(tests)
        assert report.faults_injected > 0

    def test_mp_curated_suite_passes(self):
        report = fault_sweep(protocol="mp", faults="drop+dup+flap", runs=2)
        assert report.passed
        assert report.tests  # curated subset is non-empty

    def test_stall_preset_delays_but_stays_safe(self):
        tests = classic_tests()[:2]
        report = fault_sweep(tests, protocol="so",
                             faults="stall+degrade", runs=1)
        assert report.passed

    def test_two_pod_config_passes_under_drop_dup_flap(self):
        """Safety holds when fault-held (and duplicated) messages also
        traverse the contended pod uplink/downlink tier: one host per
        pod, so every cross-host message crosses pods."""
        config = default_config(CXL, hosts=2, cores_per_host=1).with_pods(2)
        tests = [t for t in classic_tests()
                 if t.threads == 2
                 and max(t.locations.values(), default=0) < 2][:4]
        assert tests
        report = fault_sweep(tests, protocol="cord",
                             faults="drop+dup+flap", runs=2, config=config)
        assert report.passed, (report.forbidden_hits, report.violations,
                               report.deadlocks)
        assert report.faults_injected > 0


# ---------------------------------------------------------------------------
# Observability: counters and trace instants
# ---------------------------------------------------------------------------
class TestSamePairFifoUnderFaults:
    def test_cord_openloop_drop_dup_completes(self):
        # Regression: with drop+dup retry holds, a clamped later send on
        # core30 -> dir1 was queued one ulp before the earlier sends it
        # was clamped to.  The directory received seqs 4-6 before 1-3 and
        # its dedup filter dropped 1-3 as duplicates, so core30's Release
        # never committed and the run livelocked.
        config = (SystemConfig().scaled(16, 2).with_interconnect(CXL)
                  .with_pods(4))
        workload = OpenLoopSpec(arrival="poisson", interarrival_ns=1000.0,
                                requests=64, warmup=2, seed=2021181417)
        plan = dataclasses.replace(parse_faults("drop+dup"), seed=889213416)
        machine = Machine(config, protocol="cord", seed=1045020520,
                          faults=plan)
        result = machine.run(build_openloop_programs(workload, config),
                             max_events=1_000_000)
        stats = result.stats.as_dict()
        assert (stats[f"{DELIVERY_LATENCY_STAT}.count"]
                == config.hosts * workload.sampled_requests)
        assert stats["faults.dup_suppressed"] <= stats["faults.duplicate"]


class TestObservability:
    def test_injections_are_counted_and_traced(self):
        record = _execute_spec(_spec(faults=DROP_DUP, trace=True))
        assert record.stat("faults.injected") > 0
        assert record.stat("faults.drop") > 0
        assert record.stat("faults.retransmit_bytes") > 0

    def test_trace_records_fault_instants(self):
        from repro.protocols.machine import Machine
        from repro.workloads.micro import build_micro_programs
        config = default_config(CXL, hosts=2, cores_per_host=1)
        machine = Machine(config, protocol="cord", trace=True,
                          faults=DROP_DUP)
        machine.run(build_micro_programs(MICRO, config))
        instants = [e for e in machine.trace
                    if e.kind == "instant" and e.name.startswith("fault.")]
        assert instants
        assert machine.stats.value("faults.injected") >= len(
            [e for e in instants if e.name != "fault.dup_suppressed"]
        )

    def test_tracing_does_not_perturb_faulted_runs(self):
        traced = _execute_spec(_spec(faults=DROP_DUP, trace=True))
        untraced = _execute_spec(_spec(faults=DROP_DUP))
        assert traced.final_state_hash == untraced.final_state_hash
