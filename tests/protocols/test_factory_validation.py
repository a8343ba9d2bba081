"""Factory-time validation and protocol routing.

Unknown protocol names and uncheckable combinations must fail at the
factory with errors that name the valid choices — not as attribute
errors deep inside actor construction or state exploration.
"""

import pytest

from repro import Machine, SystemConfig
from repro.litmus.dsl import LitmusTest, ld, st
from repro.litmus.model_checker import ModelChecker
from repro.protocols.spec import (
    available_protocols,
    checkable_protocols,
    validate_checkable_protocol,
)
from repro.protocols.table import protocol_classes

SMOKE = LitmusTest(
    name="smoke",
    locations={"x": 0},
    programs=[[st("x", 1)], [ld("x", "r0")]],
)


class TestFactoryValidation:
    def test_unknown_name_names_the_choices(self):
        with pytest.raises(ValueError) as err:
            protocol_classes("mesi")
        message = str(err.value)
        assert "mesi" in message
        for name in available_protocols():
            assert name in message

    def test_machine_rejects_unknown_protocol_at_construction(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            Machine(SystemConfig().scaled(hosts=2, cores_per_host=1),
                    protocol="mesi")

    @pytest.mark.parametrize("name", ["seq0", "seq65", "seq999"])
    def test_seq_width_bounds(self, name):
        with pytest.raises(ValueError, match="bit-width"):
            protocol_classes(name)

    @pytest.mark.parametrize("name", ["wb", "cord-nonotify"])
    def test_timed_only_protocols_rejected_by_checker(self, name):
        with pytest.raises(ValueError, match="timed-only"):
            ModelChecker(SMOKE, name)

    def test_unknown_protocol_rejected_by_checker(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelChecker(SMOKE, "mesi")

    def test_checkable_set(self):
        assert checkable_protocols() == ("so", "cord", "mp", "tardis",
                                         "seq<k>")
        for name in ("so", "cord", "mp", "seq2", "seq40", "tardis"):
            validate_checkable_protocol(name)  # must not raise


class TestFactoryRouting:
    def test_write_through_runs_on_tables(self):
        for name in ("so", "cord", "cord-nonotify", "mp", "seq8", "tardis"):
            port_cls, dir_cls = protocol_classes(name)
            assert port_cls.__name__.startswith("Table")
            assert dir_cls.__name__.startswith("Table")

    def test_wb_routes_through_spec_actors(self):
        # wb has a messages-only spec with a declared actor pair: the
        # factory resolves it through the spec.
        port_cls, dir_cls = protocol_classes("wb")
        assert port_cls.__name__ == "WbCorePort"
        assert dir_cls.__name__ == "WbDirectory"
