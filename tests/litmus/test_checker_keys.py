"""What the model checker's visited-set key covers.

The CORD protocol components are frozen through compact per-class forms
(``model_checker._COMPACT_FORMS``) that keep only the fields a transition
can change.  These tests stand in for the guarantee a generic attribute
walk used to give:

* every attribute of a compactly frozen class is classified as keyed,
  per-run constant, or statistics/observer, so a new field cannot silently
  drop out of the key;
* changing any keyed field changes the frozen form, and changing any other
  field does not;
* the symmetry path's permuted key under the identity permutation equals
  the plain key, so a compact form cannot drift apart from the
  ``_build_permuted_*`` twins that the symmetry images are frozen from;
* the digest of a key depends only on its value: object sharing and
  string interning do not change it, atom types and nesting do, and a
  live object is refused.
"""

import copy
import sys

import pytest

from repro.config import CordConfig
from repro.core.directory import CordDirectoryState
from repro.core.messages import NotifyMeta, RelaxedMeta
from repro.core.processor import CordProcessorState, StallReason
from repro.core.seqnum import SequenceSpace
from repro.core.tables import BoundedTable, PartitionedTable
from repro.litmus import model_checker as mc
from repro.litmus.model_checker import ModelChecker
from repro.litmus.suite import classic_tests
from repro.litmus.symmetry import Automorphism

#: The checker's memos of a component's own frozen forms; set by
#: ``_freeze_cached``/``_permuted_frozen`` and dropped by every clone.
_MEMOS = {"_frozen_memo", "_frozen_perm"}

#: Every attribute of the compactly frozen classes, by role.  ``keyed``
#: fields make up the compact form.  ``constant`` fields are fixed for one
#: checker run, or fixed by the component's position in the key
#: (``proc``, ``directory``).  ``observer`` fields only count, watch or
#: memoize; no transition reads them.
FIELDS = {
    CordProcessorState: dict(
        keyed={"epoch", "store_counters", "unacked"},
        constant={"proc", "config"},
        observer={"relaxed_issued", "releases_issued", "stalls",
                  "on_transition"} | _MEMOS,
    ),
    CordDirectoryState: dict(
        keyed={"store_counters", "notification_counters",
               "largest_committed"},
        constant={"directory", "config"},
        observer={"relaxed_committed", "releases_committed",
                  "notifications_sent"} | _MEMOS,
    ),
    BoundedTable: dict(
        keyed={"_entries"},
        constant={"name", "capacity", "entry_bytes"},
        observer={"peak_occupancy", "insertions"},
    ),
    PartitionedTable: dict(
        keyed={"_partitions"},
        constant={"name", "entries_per_proc", "entry_bytes"},
        observer=set(),
    ),
    SequenceSpace: dict(
        keyed={"value"},
        constant={"bits"},
        observer=set(),
    ),
}

CONFIG = CordConfig()


def _mutated_proc() -> CordProcessorState:
    proc = CordProcessorState(0, CONFIG)
    proc.on_relaxed_store(1)
    proc.on_release_store(0)
    proc.on_relaxed_store(2)
    proc.record_stall(StallReason("unacked-table-full", "forced"))
    return proc


def _mutated_dir() -> CordDirectoryState:
    directory = CordDirectoryState(1, 2, CONFIG)
    source = CordProcessorState(0, CONFIG)
    meta = source.on_relaxed_store(1)
    directory.on_relaxed(meta)
    issue = source.on_release_store(1)
    directory.commit_release(issue.release)
    directory.on_relaxed(RelaxedMeta(proc=1, epoch=0))
    directory.on_notify(NotifyMeta(proc=1, epoch=0))
    return directory


def _reached_states(checker):
    """Run ``checker`` and return every state it computed a key for (the
    initial state and each successor)."""
    states = []
    original = checker._state_key

    def spy(state, digest_mode):
        states.append(state)
        return original(state, digest_mode)

    checker._state_key = spy
    checker.run()
    return states


def _explored_components():
    """CORD components as the checker leaves them: cloned, mutated and
    memoized by a symmetric exploration (SB.spread swaps threads and
    directories)."""
    test = next(t for t in classic_tests() if t.name == "SB.spread")
    checker = ModelChecker(test, "cord", max_states=200_000)
    states = _reached_states(checker)
    assert checker._autos, "SB.spread should have a thread-swap symmetry"
    for state in states:
        for core in state.cores:
            if core.cord is not None:
                yield core.cord
        yield from state.dirs


def _roots():
    fresh_proc = CordProcessorState(0, CONFIG)
    fresh_dir = CordDirectoryState(0, 2, CONFIG)
    yield fresh_proc
    yield fresh_dir
    yield fresh_proc.clone()
    yield fresh_dir.clone()
    yield _mutated_proc()
    yield _mutated_dir()
    yield _mutated_proc().clone()
    yield _mutated_dir().clone()
    yield BoundedTable("t", 4)
    yield PartitionedTable("p", 2, 4)
    yield SequenceSpace(3)
    yield from _explored_components()


def _instances():
    """Every compactly frozen object reachable from :func:`_roots`."""
    pending = list(_roots())
    while pending:
        obj = pending.pop()
        yield obj
        for value in mc._attr_state(obj).values():
            children = (value.values() if isinstance(value, dict)
                        else [value])
            pending.extend(child for child in children
                           if type(child) in FIELDS)


class TestFieldClassification:
    def test_compact_classes_are_exactly_the_classified_ones(self):
        assert set(mc._COMPACT_FORMS) == set(FIELDS)

    def test_roles_do_not_overlap(self):
        for klass, roles in FIELDS.items():
            keyed, constant, observer = (
                roles["keyed"], roles["constant"], roles["observer"])
            assert not (keyed & constant or keyed & observer
                        or constant & observer), klass.__name__

    def test_every_attribute_is_classified(self):
        unclassified = set()
        seen_classes = set()
        for obj in _instances():
            klass = type(obj)
            seen_classes.add(klass)
            roles = FIELDS[klass]
            known = roles["keyed"] | roles["constant"] | roles["observer"]
            for name in mc._attr_state(obj):
                if name not in known:
                    unclassified.add("{}.{}".format(klass.__name__, name))
        assert seen_classes == set(FIELDS)
        assert not unclassified, (
            "attributes not classified as keyed, per-run constant or "
            "statistics/observer (add each to FIELDS and, if keyed, to "
            "its compact form in model_checker._COMPACT_FORMS): "
            + ", ".join(sorted(unclassified)))

    def test_unkeyed_fields_do_not_reach_the_key(self):
        """Overwriting every constant/observer field with an opaque object
        leaves the frozen form unchanged: the compact form never reads
        them."""
        for obj in _instances():
            roles = FIELDS[type(obj)]
            before = mc._freeze(obj)
            twin = copy.copy(obj)
            for name in roles["constant"] | roles["observer"]:
                setattr(twin, name, object())
            assert mc._freeze(twin) == before, type(obj).__name__


#: One or more in-place changes per keyed field, each applied to a fresh
#: deep copy of the base instance.
KEYED_CHANGES = {
    (CordProcessorState, "epoch"): [lambda p: p.epoch.advance()],
    (CordProcessorState, "store_counters"): [
        lambda p: p.store_counters.put(3, 1),
        lambda p: p.store_counters.put(2, 7),
        lambda p: p.store_counters.remove(2),
    ],
    (CordProcessorState, "unacked"): [
        lambda p: p.unacked.put((1, 5), True),
        lambda p: p.unacked.remove((0, 0)),
    ],
    (CordDirectoryState, "store_counters"): [
        lambda d: d.store_counters.put(0, 3, 1),
        lambda d: d.store_counters.put(1, 0, 9),
        lambda d: d.store_counters.remove(1, 0),
    ],
    (CordDirectoryState, "notification_counters"): [
        lambda d: d.notification_counters.put(0, 1, 1),
        lambda d: d.notification_counters.put(1, 0, 4),
    ],
    (CordDirectoryState, "largest_committed"): [
        lambda d: d.largest_committed.__setitem__(1, 3),
        lambda d: d.largest_committed.__setitem__(0, None),
    ],
    (BoundedTable, "_entries"): [
        lambda t: t.put(9, 1),
        lambda t: t.put(1, 2),
        lambda t: t.remove(1),
    ],
    (PartitionedTable, "_partitions"): [
        lambda t: t.put(0, 1, 1),
        lambda t: t.put(1, 1, 2),
        lambda t: t.remove(1, 1),
        lambda t: t.put(0, 1, t.remove(1, 1)),  # same entry, other proc
    ],
    (SequenceSpace, "value"): [lambda s: s.advance()],
}


def _table():
    table = BoundedTable("t", 4)
    table.put(1, 1)
    table.put(2, 1)
    return table


def _partitioned():
    table = PartitionedTable("p", 2, 4)
    table.put(1, 1, 1)
    return table


#: The instance each class's keyed changes start from.
KEYED_BASES = {
    CordProcessorState: _mutated_proc,
    CordDirectoryState: _mutated_dir,
    BoundedTable: _table,
    PartitionedTable: _partitioned,
    SequenceSpace: lambda: SequenceSpace(3, 2),
}


class TestKeyedFields:
    def test_every_keyed_field_has_a_change(self):
        expected = {(klass, name) for klass, roles in FIELDS.items()
                    for name in roles["keyed"]}
        assert set(KEYED_CHANGES) == expected

    @pytest.mark.parametrize(
        "klass,name", sorted(KEYED_CHANGES, key=lambda k: (k[0].__name__,
                                                           k[1])),
        ids=lambda value: getattr(value, "__name__", value))
    def test_changing_a_keyed_field_changes_the_key(self, klass, name):
        base = KEYED_BASES[klass]()
        before = mc._freeze(base)
        for index, change in enumerate(KEYED_CHANGES[(klass, name)]):
            twin = copy.deepcopy(base)
            change(twin)
            assert mc._freeze(twin) != before, (
                f"{klass.__name__}.{name}: change {index} left the frozen "
                "form unchanged")


# ---------------------------------------------------------------------------
# Identity permutation: the symmetry path's key equals the plain key
# ---------------------------------------------------------------------------
def _identity(threads: int) -> Automorphism:
    return Automorphism(index=-1, cores=tuple(range(threads)),
                        regs=({},) * threads, locs={}, addrs={}, dirs={},
                        values={})


@pytest.mark.parametrize("protocol", ["cord", "so", "seq2", "mp", "tardis"])
def test_identity_permutation_gives_the_plain_key(protocol):
    """Every state an unreduced-by-symmetry exploration reaches keys the
    same through ``_permuted_key`` under the identity as through
    ``_key``."""
    checked = 0
    mismatches = []
    for test in classic_tests():
        checker = ModelChecker(test, protocol, max_states=200_000,
                               symmetry=False)
        identity = _identity(test.threads)
        for state in _reached_states(checker):
            checked += 1
            if checker._permuted_key(state, identity) != checker._key(state):
                mismatches.append(test.name)
    assert checked > 1000
    assert not mismatches, sorted(set(mismatches))


# ---------------------------------------------------------------------------
# Digest encoding: value in, value out
# ---------------------------------------------------------------------------
class TestDigestEncoding:
    def test_object_sharing_does_not_change_the_digest(self):
        t = ("a", 1, (2, None))
        assert mc._digest_of((t, t)) == mc._digest_of((t, tuple(list(t))))

    def test_string_interning_does_not_change_the_digest(self):
        interned = sys.intern("ab1")
        built = "".join(["ab", str(1)])
        assert built == interned and built is not interned
        assert (mc._digest_of(((interned, interned), interned))
                == mc._digest_of(((interned, built), built)))

    @pytest.mark.parametrize("left,right", [
        (True, 1), (1, 1.0), (True, 1.0), (None, "None"), (1, "1"),
        ((("a",), "b"), ("a", ("b",))),
    ], ids=repr)
    def test_atom_type_and_nesting_change_the_digest(self, left, right):
        assert mc._digest_of(left) != mc._digest_of(right)

    def test_live_object_is_refused(self):
        with pytest.raises(ValueError):
            mc._digest_of(("state", object()))
