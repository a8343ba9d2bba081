"""Tests for the Machine wiring and RunResult accessors."""

import weakref

import pytest

from repro import Machine, ProgramBuilder, SystemConfig, available_protocols
from tests.protocols.conftest import producer_consumer


class TestConstruction:
    def test_unknown_protocol_rejected(self, two_hosts):
        with pytest.raises(ValueError):
            Machine(two_hosts, protocol="bogus")

    def test_unknown_consistency_rejected(self, two_hosts):
        with pytest.raises(ValueError):
            Machine(two_hosts, consistency="acquire-release")

    def test_one_directory_per_slice(self, two_hosts_two_slices):
        machine = Machine(two_hosts_two_slices)
        assert len(machine.directories) == 4

    def test_available_protocols_listed(self):
        names = available_protocols()
        assert "cord" in names and "so" in names and "mp" in names

    def test_duplicate_core_rejected(self, two_hosts):
        machine = Machine(two_hosts)
        program = ProgramBuilder().build()
        machine.add_core(0, program)
        with pytest.raises(ValueError):
            machine.add_core(0, program)

    def test_core_beyond_system_rejected(self, two_hosts):
        machine = Machine(two_hosts)
        with pytest.raises(ValueError):
            machine.add_core(99, ProgramBuilder().build())


class TestRunResult:
    def test_finished_cores_release_their_programs(self, two_hosts):
        """A finished machine is a reference cycle the collector frees
        late; its cores must not keep their op streams alive until then."""
        machine = Machine(two_hosts, protocol="cord")
        programs, _, _ = producer_consumer(machine)
        watched = [weakref.ref(program) for program in programs.values()]
        result = machine.run(programs)
        del programs
        assert all(core.program is None for core in machine.cores.values())
        assert [ref() for ref in watched] == [None] * len(watched)
        assert result.time_ns > 0

    def test_time_is_max_core_finish(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        assert result.time_ns == max(result.core_finish_ns.values())

    def test_quiesce_at_least_finish_time(self, two_hosts):
        machine = Machine(two_hosts, protocol="mp")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        assert result.quiesce_ns >= result.time_ns

    def test_traffic_split_consistent(self, two_hosts):
        machine = Machine(two_hosts, protocol="so")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        assert result.inter_host_bytes == pytest.approx(
            result.inter_host_control_bytes + result.inter_host_data_bytes
        )

    def test_stall_total_sums_causes(self, two_hosts):
        machine = Machine(two_hosts, protocol="so")
        amap = machine.address_map
        program = (ProgramBuilder()
                   .store(amap.address_in_host(1, 0x1000))
                   .release_store(amap.address_in_host(1, 0x2000))
                   .build())
        result = machine.run({0: program})
        assert result.stall_ns() >= result.stall_ns("wait_wt_ack") > 0

    def test_cord_storage_accessors(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        proc = result.proc_storage_bytes(0)
        assert proc["store_counters"] > 0
        assert proc["unacked_epochs"] > 0
        directory = result.dir_storage_bytes(1)
        assert directory["store_counters"] > 0

    def test_non_cord_storage_empty(self, two_hosts):
        machine = Machine(two_hosts, protocol="mp")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        assert result.proc_storage_bytes(0) == {}


class TestDeterminism:
    @pytest.mark.parametrize("protocol", ["so", "cord", "mp", "wb", "seq8"])
    def test_identical_runs_identical_results(self, protocol):
        def run():
            config = SystemConfig().scaled(hosts=2, cores_per_host=1)
            machine = Machine(config, protocol=protocol)
            programs, _, _ = producer_consumer(machine)
            result = machine.run(programs)
            return (result.time_ns, result.inter_host_bytes,
                    result.history.register(1, "r0"))

        assert run() == run()
