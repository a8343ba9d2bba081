"""Structural lint of the shipped transition tables.

Folded into the default pytest run so a malformed table (a message with
no ordering class, an issue row with a dangling escape, a delivery rule
for an undeclared message, an emitted field the symmetry permutation
would be blind to) fails CI before any equivalence suite runs.
"""

import dataclasses

import pytest

from repro.litmus.dsl import LitmusTest, st
from repro.litmus.model_checker import ModelChecker
from repro.protocols.spec import (
    FifoClass,
    get_spec,
    has_spec,
    lint_spec,
    named_protocols,
)

ALL_TABLES = ("so", "cord", "cord-nonotify", "mp", "seq2", "seq8", "seq40",
              "tardis")


def _checker(*protocols):
    """A checker over one store per thread, thread ``i`` on
    ``protocols[i]``."""
    test = LitmusTest(name="tables", locations={"x": 0},
                      programs=[[st("x", 1)] for _ in protocols],
                      thread_protocols=list(protocols))
    return ModelChecker(test, protocols[0])


class TestLinter:
    @pytest.mark.parametrize("name", ALL_TABLES)
    def test_shipped_tables_are_clean(self, name):
        assert lint_spec(get_spec(name)) == []

    def test_rule_complete_set_matches_factory_default(self):
        # wb's table declares its messages and actor pair, no rules.
        assert [name for name in named_protocols() if has_spec(name)] == [
            "so", "cord", "cord-nonotify", "mp", "tardis"]
        assert has_spec("seq8") and not has_spec("wb")

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
    """The checker's FIFO/POR sets come from the tables of the cores it
    checks, not from hand lists or a search over every table."""

    def test_store_fifo_is_per_location(self):
        for name in ("so", "cord", "seq8"):
            spec = get_spec(name)
            for mspec in spec.messages.values():
                if mspec.forwards_store:
                    assert mspec.fifo is FifoClass.PER_LOCATION, (
                        f"{name}:{mspec.name}")

    def test_mp_posted_and_atomics_are_per_pair(self):
        for messages in (get_spec("mp").messages,
                         _checker("mp")._messages[0]):
            assert messages["posted"].fifo is FifoClass.PER_PAIR
            assert messages["atomic"].fifo is FifoClass.PER_PAIR

    def test_atomics_elsewhere_ride_the_store_channel(self):
        # An issued message takes its class from its own core's table,
        # whatever the other cores run.
        checker = _checker("so", "cord", "mp")
        for core, name in enumerate(("so", "cord")):
            assert (get_spec(name).messages["atomic"].fifo
                    is FifoClass.PER_LOCATION)
            assert (checker._messages[core]["atomic"].fifo
                    is FifoClass.PER_LOCATION)
        assert checker._messages[2]["atomic"].fifo is FifoClass.PER_PAIR
        # A reply kind the tables in play disagree on has no class.
        assert "atomic" not in checker._reply_fifo
        assert checker._reply_fifo["atomic_resp"] is None

    def test_unknown_kind_raises(self):
        # No table of an SO-only test declares CORD's notify or MP's
        # posted, so the checker has no class for them.
        checker = _checker("so")
        for kind in ("no_such_message", "notify", "posted"):
            with pytest.raises(KeyError):
                checker._messages[0][kind]
            with pytest.raises(KeyError):
                checker._reply_fifo[kind]

    def test_ample_and_forwarding_sets(self):
        acks = {"so_ack", "atomic_resp"}
        expected = {
            "so": (acks, {"wt_store"}),
            "cord": (acks | {"notify"}, {"wt_store", "wt_rlx", "wt_rel"}),
            "mp": (acks, {"wt_store", "posted"}),
            "seq8": (acks, {"wt_store", "seq_store"}),
            "tardis": (acks, {"wt_store", "tardis_store"}),
        }
        for name, (ample, forwarding) in expected.items():
            checker = _checker(name)
            assert checker._ample == ample, name
            assert checker._forwarding == forwarding, name
        mixed = _checker(*expected)
        assert mixed._ample == frozenset(
            {"so_ack", "notify", "atomic_resp"})
        assert mixed._forwarding == frozenset(
            {"wt_rlx", "wt_rel", "wt_store", "seq_store", "posted",
             "tardis_store"})
