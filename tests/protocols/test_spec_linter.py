"""Structural lint of the shipped transition tables.

Folded into the default pytest run so a malformed table (a message with
no ordering class, an issue row with a dangling escape, a delivery rule
for an undeclared message, an emitted field the symmetry permutation
would be blind to) fails CI before any equivalence suite runs.
"""

import dataclasses

import pytest

from repro.protocols.spec import (
    FifoClass,
    ample_kinds,
    fifo_class_for,
    forwarding_kinds,
    get_spec,
    lint_spec,
    spec_protocols,
)

ALL_TABLES = ("so", "cord", "cord-nonotify", "mp", "seq2", "seq8", "seq40",
              "tardis")


class TestLinter:
    @pytest.mark.parametrize("name", ALL_TABLES)
    def test_shipped_tables_are_clean(self, name):
        assert lint_spec(get_spec(name)) == []

    def test_rule_complete_set_matches_factory_default(self):
        assert spec_protocols() == ("so", "cord", "cord-nonotify", "mp",
                                    "seq<k>", "tardis")

    def test_source_drain_off_the_release_row_is_flagged(self):
        # The timed interpreter reads source_drain from the CORD
        # ordered-store row only; anywhere else it would be ignored.
        spec = get_spec("cord")
        issue = dict(spec.issue)
        issue[("store", False)] = dataclasses.replace(
            issue[("store", False)], source_drain=True)
        problems = lint_spec(dataclasses.replace(spec, issue=issue))
        assert any("source_drain" in p for p in problems), problems
        so = get_spec("so")
        issue = dict(so.issue)
        issue[("store", True)] = dataclasses.replace(
            issue[("store", True)], source_drain=True)
        problems = lint_spec(dataclasses.replace(so, issue=issue))
        assert any("source_drain" in p for p in problems), problems

    @pytest.mark.parametrize("name", ALL_TABLES)
    def test_every_message_names_a_fifo_class(self, name):
        spec = get_spec(name)
        for mspec in spec.messages.values():
            assert isinstance(mspec.fifo, FifoClass)


class TestDerivedCheckerMetadata:
    """The checker's FIFO/POR sets come from the tables, not hand lists."""

    def test_store_fifo_is_per_location(self):
        for name in ("so", "cord", "seq8"):
            spec = get_spec(name)
            for mspec in spec.messages.values():
                if mspec.forwards_store:
                    assert mspec.fifo is FifoClass.PER_LOCATION, (
                        f"{name}:{mspec.name}")

    def test_mp_posted_and_atomics_are_per_pair(self):
        assert fifo_class_for("posted", "mp") is FifoClass.PER_PAIR
        assert fifo_class_for("atomic", "mp") is FifoClass.PER_PAIR

    def test_atomics_elsewhere_ride_the_store_channel(self):
        assert fifo_class_for("atomic", "so") is FifoClass.PER_LOCATION
        assert fifo_class_for("atomic", "cord") is FifoClass.PER_LOCATION

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            fifo_class_for("no_such_message")

    def test_ample_and_forwarding_sets(self):
        assert ample_kinds() == frozenset(
            {"so_ack", "notify", "atomic_resp"})
        assert forwarding_kinds() == frozenset(
            {"wt_rlx", "wt_rel", "wt_store", "seq_store", "posted",
             "tardis_store"})
