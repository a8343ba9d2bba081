"""Protocol names: one parser for ``seq<k>``, one registry for the rest.

Every lookup (``get_spec``/``has_spec``, ``protocol_classes``, the model
checker's validation) must agree on which names exist, and a rejected
name must not leave a table behind in the registry.
"""

import pytest

from repro.protocols import spec
from repro.protocols.spec import (
    available_protocols,
    validate_checkable_protocol,
)
from repro.protocols.table import protocol_classes


class TestSeqNames:
    @pytest.mark.parametrize("name", ["seq0", "seq65", "seq007"])
    def test_rejected_everywhere_and_never_cached(self, name):
        assert not spec.has_spec(name)
        with pytest.raises(KeyError):
            spec.get_spec(name)
        with pytest.raises(ValueError):
            protocol_classes(name)
        with pytest.raises(ValueError):
            validate_checkable_protocol(name)
        assert name not in spec._SPECS

    def test_width_parse(self):
        names = ("seq1", "seq8", "seq64", "seq007", "seq", "seqx", "cord")
        assert [spec.parse_seq_bits(name) for name in names] == [
            1, 8, 64, None, None, None, None]
        for name in ("seq0", "seq65"):
            with pytest.raises(ValueError, match="bit-width"):
                spec.parse_seq_bits(name)

    def test_leading_zeros_make_an_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_classes("seq007")

    def test_valid_width_builds_its_own_table(self):
        assert spec.has_spec("seq40")
        assert spec.get_spec("seq40").seq_bits == 40


class TestRegistryListing:
    def test_named_protocols_in_registry_order(self):
        assert spec.named_protocols() == (
            "so", "cord", "cord-nonotify", "mp", "wb", "tardis")
        assert available_protocols() == spec.named_protocols() + ("seq<k>",)

    def test_cached_seq_tables_stay_out_of_the_listing(self):
        spec.get_spec("seq3")
        assert "seq3" in spec._SPECS
        assert "seq3" not in available_protocols()
