"""Tests for the Tardis timestamp-coherence backend (table-native).

Tardis orders stores with per-core sequence commit plus logical
timestamps instead of invalidation multicast and ack collection, so the
tests here pin the three behaviours that distinguish it from the other
backends: fences are free, reads are served from self-expiring leases,
and release ordering still holds without a single ack message.
"""

import pytest

from repro import Machine, ProgramBuilder
from repro.config import CXL
from repro.harness.experiments import default_config
from repro.protocols.spec import TARDIS_LEASE
from repro.workloads.micro import MicroSpec, build_micro_programs
from tests.protocols.conftest import producer_consumer


class TestOrdering:
    def test_producer_consumer_value_flows(self, two_hosts):
        machine = Machine(two_hosts, protocol="tardis")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        assert result.history.register(1, "r0") == 42

    def test_stores_commit_in_program_order(self, two_hosts):
        """Every store rides the per-core seq chain, so the flag can
        never commit before the data it guards."""
        machine = Machine(two_hosts, protocol="tardis")
        programs, data, flag = producer_consumer(machine)
        result = machine.run(programs)
        events = result.history.events
        data_commit = next(e for e in events if e.addr == data and e.is_store)
        flag_commit = next(e for e in events if e.addr == flag and e.is_store)
        assert data_commit.uid < flag_commit.uid

    def test_multi_slice_ordering(self, two_hosts_two_slices):
        """Sequence commit is machine-global: ordering holds even when
        data and flag live on different LLC slices (no notification
        chaining needed, unlike cord)."""
        machine = Machine(two_hosts_two_slices, protocol="tardis")
        amap = machine.address_map
        data = amap.address_in_host(1, 0)      # slice 0 of host 1
        flag = amap.address_in_host(1, 64)     # slice 1 of host 1
        assert amap.home_directory(data) != amap.home_directory(flag)
        producer = (ProgramBuilder()
                    .store(data, value=7, size=64)
                    .release_store(flag, value=1)
                    .build())
        consumer = (ProgramBuilder()
                    .load_until(flag, 1)
                    .load(data, register="r0")
                    .build())
        result = machine.run({0: producer, 2: consumer})
        assert result.history.register(2, "r0") == 7


class TestNoAcks:
    def test_no_ack_or_notification_traffic(self, two_hosts):
        """Timestamp ordering needs no acks, notifications or flushes."""
        machine = Machine(two_hosts, protocol="tardis")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        total = lambda t: (result.message_count(t, "inter_host")
                           + result.message_count(t, "intra_host"))
        for kind in ("rel_ack", "wt_ack", "req_notify", "notify",
                     "seq_flush", "inv", "inv_ack"):
            assert total(kind) == 0, kind

    def test_fence_emits_nothing_and_never_stalls(self, two_hosts):
        machine = Machine(two_hosts, protocol="tardis")
        amap = machine.address_map
        program = (ProgramBuilder()
                   .store(amap.address_in_host(1, 0x1000), size=64)
                   .fence()
                   .build())
        result = machine.run({0: program})
        assert result.stall_ns("fence_ack") == 0
        total = lambda t: (result.message_count(t, "inter_host")
                           + result.message_count(t, "intra_host"))
        assert total("tardis_store") == 1  # just the data store


class TestLeases:
    def _loads(self, two_hosts, count, acquire=False):
        machine = Machine(two_hosts, protocol="tardis")
        amap = machine.address_map
        addr = amap.address_in_host(1, 0x1000)
        builder = ProgramBuilder()
        for i in range(count):
            if acquire:
                builder.acquire_load(addr, register=f"r{i}")
            else:
                builder.load(addr, register=f"r{i}")
        machine.run({0: builder.build()})
        return (machine.stats.value("tardis.lease_hits"),
                machine.stats.value("tardis.lease_misses"))

    def test_relaxed_reloads_hit_the_lease(self, two_hosts):
        hits, misses = self._loads(two_hosts, 2 * TARDIS_LEASE + 4)
        assert hits > 0
        # Each hit self-increments pts (Tardis 2.0), so one lease grant
        # serves at most TARDIS_LEASE hits before expiring.
        assert misses >= 2
        assert hits <= misses * TARDIS_LEASE

    def test_acquire_loads_never_use_the_lease(self, two_hosts):
        hits, misses = self._loads(two_hosts, 6, acquire=True)
        assert hits == 0
        assert misses == 6

    def test_own_store_forwarded_without_lease(self, two_hosts):
        machine = Machine(two_hosts, protocol="tardis")
        amap = machine.address_map
        addr = amap.address_in_host(1, 0x1000)
        program = (ProgramBuilder()
                   .store(addr, value=9)
                   .load(addr, register="r0")
                   .build())
        result = machine.run({0: program})
        assert result.history.register(0, "r0") == 9

    def test_forward_map_drops_committed_stores(self):
        """The read-own-write map keeps only stores still in flight: a
        1 MB stream that never reads its own stores ends with at most one
        release window (16 stores of 64 B per 1 KB sync) in the map."""
        config = default_config(CXL, hosts=2, cores_per_host=1)
        spec = MicroSpec(store_granularity=64, sync_granularity=1024,
                         fanout=1, total_bytes=1024 * 1024)
        machine = Machine(config, protocol="tardis")
        machine.run(build_micro_programs(spec, config))
        producer = machine.cores[0].port
        # 16,384 data stores and 1,024 release flags, all committed.
        assert producer.board.count(0) == 17 * 1024
        assert len(producer._tardis_fwd) <= 16


class TestWireCost:
    def test_stores_carry_timestamp_metadata(self, two_hosts):
        """Per-store wire bits exceed cord's relaxed store (timestamp
        metadata rides every tardis_store)."""
        def store_bytes(protocol):
            machine = Machine(two_hosts, protocol=protocol)
            amap = machine.address_map
            builder = ProgramBuilder()
            for i in range(16):
                builder.store(amap.address_in_host(1, 0x1000 + 64 * i))
            return machine.run({0: builder.build()}).inter_host_bytes

        assert store_bytes("tardis") > store_bytes("cord")
