"""Tests for the SEQ-k monolithic sequence-number baseline."""

import pytest

from repro import Machine, Ordering, ProgramBuilder
from repro.config import CXL, CordConfig, MessageSizeConfig
from repro.harness import RunSpec
from repro.harness.executor import _execute_spec
from repro.harness.experiments import default_config
from repro.protocols.seq import SeqCommitBoard
from repro.protocols.spec import get_spec
from repro.protocols.table import SeqCorePort, protocol_classes
from repro.sim import Simulator
from repro.workloads.table2 import APPLICATIONS
from tests.protocols.conftest import producer_consumer


class TestOrdering:
    def test_producer_consumer_value_flows(self, two_hosts):
        machine = Machine(two_hosts, protocol="seq8")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        assert result.history.register(1, "r0") == 42

    def test_release_commits_after_all_prior_seqs(self, two_hosts):
        machine = Machine(two_hosts, protocol="seq16")
        programs, data, flag = producer_consumer(machine)
        result = machine.run(programs)
        events = result.history.events
        data_commit = next(e for e in events if e.addr == data and e.is_store)
        flag_commit = next(e for e in events if e.addr == flag and e.is_store)
        assert data_commit.uid < flag_commit.uid


class TestOverflow:
    def test_seq8_flushes_on_wrap(self, two_hosts):
        machine = Machine(two_hosts, protocol="seq8")
        amap = machine.address_map
        builder = ProgramBuilder()
        for i in range(300):  # > 2^8 stores forces at least one flush
            builder.store(amap.address_in_host(1, 0x1000 + 64 * (i % 64)))
        result = machine.run({0: builder.build()})
        assert result.message_count("seq_flush") >= 1
        assert result.stall_ns("seq_overflow") > 0

    def test_seq40_never_flushes(self, two_hosts):
        machine = Machine(two_hosts, protocol="seq40")
        amap = machine.address_map
        builder = ProgramBuilder()
        for i in range(300):
            builder.store(amap.address_in_host(1, 0x1000 + 64 * (i % 64)))
        result = machine.run({0: builder.build()})
        assert result.message_count("seq_flush") == 0
        assert result.stall_ns("seq_overflow") == 0

    def test_seq40_traffic_exceeds_seq8(self, two_hosts):
        def traffic(protocol):
            machine = Machine(two_hosts, protocol=protocol)
            amap = machine.address_map
            builder = ProgramBuilder()
            for i in range(64):
                builder.store(amap.address_in_host(1, 0x1000 + 64 * i))
            return machine.run({0: builder.build()}).inter_host_bytes

        # 40-bit sequence numbers inflate every store beyond the reserved
        # header bits; 8-bit ones ride free.
        assert traffic("seq40") > traffic("seq8")


class TestReleaseRmw:
    """A Release RMW takes a slot in the per-core sequence stream: it
    commits after every earlier store, respects the sequence window and
    carries its sequence number on the wire."""

    def _run(self, config, protocol, stores, ordering):
        machine = Machine(config, protocol=protocol)
        amap = machine.address_map
        builder = ProgramBuilder()
        for i in range(stores):
            builder.store(amap.address_in_host(1, 0x1000 + 64 * i),
                          value=i + 1)
        flag = amap.address_in_host(1, 0x4000)
        builder.fetch_add(flag, 1, register="r0", ordering=ordering)
        return machine.run({0: builder.build()}), flag

    def test_release_rmw_commits_after_prior_stores(self, two_hosts):
        result, flag = self._run(two_hosts, "seq8", 3, Ordering.RELEASE)
        events = result.history.events
        rmw = next(e for e in events if e.addr == flag)
        stores = [e for e in events if e.is_store and e.addr != flag]
        assert len(stores) == 3
        assert all(e.uid < rmw.uid for e in stores)

    def test_rmw_flushes_when_the_window_is_full(self, two_hosts):
        # seq2's window holds three uncommitted numbers: a Release RMW
        # after three stores needs the fourth slot, so it flushes first.
        result, _ = self._run(two_hosts, "seq2", 3, Ordering.RELEASE)
        assert result.message_count("seq_flush") >= 1
        assert result.stall_ns("seq_overflow") > 0

    def test_sequenced_rmw_carries_the_sequence_bits(self, two_hosts):
        release, _ = self._run(two_hosts, "seq40", 0, Ordering.RELEASE)
        relaxed, _ = self._run(two_hosts, "seq40", 0, Ordering.RELAXED)
        extra = two_hosts.message_sizes.metadata_overhead_bytes(40)
        assert extra > 0
        assert release.inter_host_bytes - relaxed.inter_host_bytes == extra


class TestCommitBoard:
    """The board wakes every subscriber but the committing one, at the
    commit time, behind the events already due, in subscription order."""

    @staticmethod
    def _board():
        sim = Simulator()
        board = SeqCommitBoard(sim)
        log = []
        origins = [object(), object(), object()]
        for tag, origin in zip("abc", origins):
            board.subscribe(origin,
                            lambda tag=tag: log.append((tag, sim.now)))
        return sim, board, origins, log

    def test_commit_wakes_the_others_once_each_after_events_due(self):
        sim, board, origins, log = self._board()
        sim.schedule(3.0, board.commit, 0, origins[1])
        sim.schedule(3.0, lambda: log.append(("due", sim.now)))
        sim.run()
        assert log == [("due", 3.0), ("a", 3.0), ("c", 3.0)]
        assert board.count(0) == 1

    def test_commit_without_origin_wakes_every_subscriber(self):
        sim, board, _origins, log = self._board()
        sim.schedule(2.0, board.commit, 5)
        sim.run()
        assert log == [("a", 2.0), ("b", 2.0), ("c", 2.0)]

    @pytest.mark.parametrize("committer", [0, 1, 2])
    def test_committing_subscriber_is_never_woken(self, committer):
        sim, board, origins, log = self._board()
        board.commit(0, origin=origins[committer])
        board.commit(1, origin=origins[committer])
        sim.run()
        others = [tag for index, tag in enumerate("abc") if index != committer]
        assert [tag for tag, _now in log] == others + others


class TestFactory:
    def test_make_seq_protocol_sets_bits(self):
        port_cls, _ = protocol_classes("seq12")
        assert port_cls.SPEC.seq_bits == 12

    def test_invalid_bits_rejected(self):
        from repro.protocols import protocol_classes
        with pytest.raises(ValueError):
            protocol_classes("seq0")
        with pytest.raises(ValueError):
            protocol_classes("seq999")


class TestStaleFlushAck:
    """A flush asks every directory the core has sent to and finishes on
    the first ack.  The ack echoes its flush's ``upto``, so a late ack of
    an earlier flush cannot finish a later one before that flush's stores
    commit (it used to: 136 of seq2's 244 flushes on CR finished early)."""

    @staticmethod
    def _app(protocol, app):
        return _execute_spec(RunSpec(
            kind="app", protocol=protocol, workload=APPLICATIONS[app],
            config=default_config(CXL), seed=0,
            experiment="seq-flush-ack"))

    def test_no_flush_finishes_before_its_stores_commit(self, monkeypatch):
        finished, early = [], []
        flush = SeqCorePort._flush

        def checked(port, cause):
            upto = port.seq_next
            yield from flush(port, cause)
            finished.append(upto)
            if port.machine.seq_board().count(port.core.core_id) < upto:
                early.append((port.core.core_id, upto))

        monkeypatch.setattr(SeqCorePort, "_flush", checked)
        self._app("seq2", "CR")
        assert finished
        assert early == []

    def test_smaller_window_is_not_faster(self):
        # With early finishes seq2 quiesced BigFFT in 20,662 ns against
        # seq4's 38,431 ns: a smaller window flushed more and ran faster.
        seq2 = self._app("seq2", "BigFFT").quiesce_ns
        seq4 = self._app("seq4", "BigFFT").quiesce_ns
        assert seq2 >= seq4

    def test_ack_rides_in_the_reserved_header_bits(self):
        sizes = MessageSizeConfig()
        for name in ("seq2", "seq40"):
            ack = get_spec(name).messages["seq_flush_ack"]
            bits = ack.bit_width(CordConfig())
            assert 0 < bits <= sizes.reserved_bits
            assert sizes.control_bytes(bits) == sizes.control_bytes()
