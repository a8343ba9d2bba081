"""Tests for the shared protocol infrastructure (CorePort/DirectoryNode)."""

import pytest

from repro import Machine, ProgramBuilder, SystemConfig
from repro.interconnect import Message, NodeId


class TestDirectoryDispatch:
    def test_unknown_message_type_raises(self, ):
        config = SystemConfig().scaled(hosts=2, cores_per_host=1)
        machine = Machine(config, protocol="cord")
        directory = machine.directories[1]
        machine.network.register(NodeId.core(0, 0), lambda m: None)
        machine.network.send(Message(
            src=NodeId.core(0, 0), dst=directory.node_id,
            msg_type="bogus", size_bytes=8,
        ))
        with pytest.raises(RuntimeError, match="no handler"):
            machine.sim.run()

    def test_service_latency_applied(self):
        config = SystemConfig().scaled(hosts=2, cores_per_host=1)
        machine = Machine(config, protocol="mp")
        amap = machine.address_map
        program = (ProgramBuilder()
                   .store(amap.address_in_host(1, 0x1000), value=1)
                   .build())
        result = machine.run({0: program})
        # Quiesce includes network latency + the slice's service delay.
        zero_load = machine.network.topology.latency_ns(
            NodeId.core(0, 0), amap.home_directory(
                amap.address_in_host(1, 0x1000))
        )
        assert result.quiesce_ns > zero_load

    def test_load_of_unwritten_address_returns_zero(self):
        config = SystemConfig().scaled(hosts=2, cores_per_host=1)
        machine = Machine(config, protocol="cord")
        addr = machine.address_map.address_in_host(1, 0x9000)
        program = ProgramBuilder().load(addr, register="r0").build()
        result = machine.run({0: program})
        assert result.history.register(0, "r0") == 0

    def test_stall_accounting_only_positive_durations(self):
        config = SystemConfig().scaled(hosts=2, cores_per_host=1)
        machine = Machine(config, protocol="cord")
        program = ProgramBuilder().build()
        machine.run({0: program})
        core = machine.cores[0]
        core.port.stall("test_cause", 0.0)
        assert machine.stats.value("stall.test_cause") == 0.0
        core.port.stall("test_cause", 5.0)
        assert machine.stats.value("stall.test_cause") == 5.0


class TestLoadResponses:
    @pytest.mark.parametrize("protocol", ["cord", "tardis", "wb"])
    def test_response_no_request_waits_for_raises(self, protocol):
        config = SystemConfig().scaled(hosts=2, cores_per_host=1)
        machine = Machine(config, protocol=protocol)
        port = machine.add_core(0, ProgramBuilder().build()).port
        stray = Message(machine.directories[1].node_id, port.node,
                        "load_resp", 16, False, {"req_id": 7, "value": 1})
        with pytest.raises(RuntimeError, match="unexpected load response"):
            port.on_message(stray)

    def test_repeated_response_raises(self):
        """Once a load completes, its response is no longer awaited."""
        config = SystemConfig().scaled(hosts=2, cores_per_host=1)
        machine = Machine(config, protocol="cord")
        addr = machine.address_map.address_in_host(1, 0x9000)
        machine.run({0: ProgramBuilder().load(addr, register="r0").build()})
        port = machine.cores[0].port
        repeat = Message(machine.directories[1].node_id, port.node,
                         "load_resp", 16, False, {"req_id": 0, "value": 0})
        with pytest.raises(RuntimeError, match="unexpected load response"):
            port.on_message(repeat)


class TestWriteCombiningDefaultRejection:
    def test_wb_port_rejects_wc_emission(self):
        """WB keeps its own store path; the base emission hook must refuse."""
        config = (SystemConfig().scaled(hosts=2, cores_per_host=1)
                  .with_write_combining(4))
        machine = Machine(config, protocol="wb")
        machine.add_core(0, ProgramBuilder().build())
        port = machine.cores[0].port
        from repro.protocols.write_combining import CombinedWrite
        with pytest.raises(NotImplementedError):
            list(port._emit_relaxed(
                CombinedWrite(0, 8, 1, 0, 1, values={0: 1}), 0
            ))
