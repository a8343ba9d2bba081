"""Tests for the SEQ-k monolithic sequence-number baseline."""

import pytest

from repro import Machine, ProgramBuilder
from repro.protocols.table import table_protocol_classes
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


class TestFactory:
    def test_make_seq_protocol_sets_bits(self):
        port_cls, _ = table_protocol_classes("seq12")
        assert port_cls.SEQ_BITS == 12

    def test_invalid_bits_rejected(self):
        from repro.protocols import protocol_classes
        with pytest.raises(ValueError):
            protocol_classes("seq0")
        with pytest.raises(ValueError):
            protocol_classes("seq999")
