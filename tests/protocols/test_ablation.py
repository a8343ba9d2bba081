"""Tests for the cord-nonotify ablation protocol."""

import pytest

from repro import Machine, ProgramBuilder, SystemConfig
from tests.protocols.conftest import producer_consumer


class TestCordNoNotify:
    def test_registered_in_factory(self):
        from repro.protocols import protocol_classes
        from repro.protocols.spec import get_spec
        port_cls, dir_cls = protocol_classes("cord-nonotify")
        assert port_cls.__name__ == "TableCordNonotifyCorePort"
        assert port_cls.SPEC is dir_cls.SPEC is get_spec("cord-nonotify")

    def test_single_directory_behaviour_matches_cord(self, two_hosts):
        def run(protocol):
            machine = Machine(two_hosts, protocol=protocol)
            programs, _, _ = producer_consumer(machine)
            result = machine.run(programs)
            return result.time_ns, result.history.register(1, "r0")

        assert run("cord-nonotify") == run("cord")

    def test_cross_directory_release_drains_instead_of_notifying(
        self, two_hosts_two_slices
    ):
        machine = Machine(two_hosts_two_slices, protocol="cord-nonotify")
        amap = machine.address_map
        data = amap.address_in_host(1, 0)     # slice 0
        flag = amap.address_in_host(1, 64)    # slice 1
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
        total = lambda t: (result.message_count(t, "inter_host")
                           + result.message_count(t, "intra_host"))
        assert total("req_notify") == 0      # the mechanism is ablated
        assert result.stall_ns("cross_dir_drain") > 0

    def test_slower_than_cord_at_fanout(self):
        config = SystemConfig().scaled(hosts=4, cores_per_host=1)

        def run(protocol):
            machine = Machine(config, protocol=protocol)
            amap = machine.address_map
            builder = ProgramBuilder()
            for i in range(3):
                for target in (1, 2):
                    builder.store(amap.address_in_host(target, 0x1000 + 64 * i),
                                  size=64)
                builder.release_store(amap.address_in_host(3, 0x2000),
                                      value=i + 1)
            builder.fence()
            return machine.run({0: builder.build()}).time_ns

        assert run("cord-nonotify") > run("cord")
