"""The :class:`MemOp` contract kept by the hand-written ``__slots__`` class.

``MemOp`` replaced a ``@dataclass``; these tests pin what callers relied
on: the constructor's signature and defaults, field-by-field equality and
``repr``, no hash, copy and pickle round trips, and metadata semantics
(ops built without ``meta`` share one read-only empty mapping; an op
given ``meta=`` owns its dict).
"""

import copy
import inspect
import pickle

import pytest

from repro.consistency.ops import (
    NO_META,
    AtomicOp,
    MemOp,
    OpKind,
    Ordering,
    Policy,
)
from repro.cpu.program import ProgramBuilder

FIELDS = ("kind", "addr", "size", "ordering", "policy", "value", "register",
          "duration_ns", "meta")

#: One op with every field away from its default, and for each field a
#: value that differs from it.
FULL = dict(kind=OpKind.ATOMIC, addr=0x40, size=16, ordering=Ordering.ACQUIRE,
            policy=Policy.WRITE_BACK, value=3, register="r1",
            duration_ns=2.5, meta={"atomic": AtomicOp.EXCHANGE})
OTHER = dict(kind=OpKind.STORE, addr=0x80, size=8, ordering=Ordering.RELEASE,
             policy=Policy.WRITE_THROUGH, value=4, register="r2",
             duration_ns=3.0, meta={"atomic": AtomicOp.FETCH_ADD})


class TestSignature:
    def test_fields_defaults_and_order_match_the_dataclass(self):
        params = inspect.signature(MemOp).parameters
        assert tuple(params) == FIELDS
        defaults = {name: p.default for name, p in params.items()}
        assert defaults["kind"] is inspect.Parameter.empty
        assert defaults["addr"] == 0
        assert defaults["size"] == 8
        assert defaults["ordering"] is Ordering.RELAXED
        assert defaults["policy"] is Policy.WRITE_THROUGH
        assert defaults["value"] is None
        assert defaults["register"] is None
        assert defaults["duration_ns"] == 0.0
        assert defaults["meta"] is NO_META

    def test_positional_and_keyword_construction_agree(self):
        assert MemOp(*FULL.values()) == MemOp(**FULL)

    def test_slots_only(self):
        op = MemOp(OpKind.FENCE)
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.colour = "red"


class TestEquality:
    def test_equal_when_every_field_is(self):
        assert MemOp(**FULL) == MemOp(**FULL)
        assert MemOp.store(0x100, 5) == MemOp.store(0x100, 5)

    @pytest.mark.parametrize("field", FIELDS)
    def test_each_field_takes_part(self, field):
        changed = dict(FULL, **{field: OTHER[field]})
        assert MemOp(**FULL) != MemOp(**changed)

    def test_default_meta_equals_an_empty_dict(self):
        assert MemOp(OpKind.FENCE) == MemOp(OpKind.FENCE, meta={})

    def test_other_types_are_never_equal(self):
        op = MemOp(OpKind.FENCE)
        assert op != tuple(getattr(op, name) for name in FIELDS)
        assert (op == object()) is False


class TestHash:
    def test_unhashable(self):
        assert MemOp.__hash__ is None
        with pytest.raises(TypeError):
            hash(MemOp.store(0x100))
        with pytest.raises(TypeError):
            {MemOp.store(0x100)}


class TestMeta:
    def test_default_meta_is_shared_and_empty(self):
        a, b = MemOp.store(0x100), MemOp.load(0x100, "r0")
        assert a.meta is b.meta is NO_META
        assert not a.meta and dict(a.meta) == {}
        assert a.meta.get("until_ns") is None and "via" not in a.meta

    def test_default_meta_rejects_writes(self):
        op = MemOp.compute(1.0)
        with pytest.raises(TypeError):
            op.meta["until_ns"] = 5.0
        with pytest.raises(AttributeError):
            op.meta.update(until_ns=5.0)
        assert MemOp.compute(1.0).meta == {}

    def test_op_given_meta_owns_its_dict(self):
        meta = {"via": "so"}
        op = MemOp(OpKind.STORE, 0x100, meta=meta)
        assert op.meta is meta
        op.meta["extra"] = 1
        assert op.meta == {"via": "so", "extra": 1}
        assert MemOp(OpKind.STORE, 0x100).meta == {}

    def test_rmw_constructors_build_their_own_meta(self):
        a = MemOp.fetch_add(0x100)
        b = MemOp.fetch_add(0x100)
        assert a.meta == {"atomic": AtomicOp.FETCH_ADD, "compare": None}
        assert a.meta is not b.meta

    def test_lock_passes_its_retry_target_at_construction(self):
        op = ProgramBuilder().lock(0x100).build().ops[0]
        assert op == MemOp(OpKind.ATOMIC, 0x100, 8, Ordering.ACQUIRE,
                           value=1, meta={"atomic": AtomicOp.EXCHANGE,
                                          "compare": None,
                                          "retry_until_old": 0})


class TestCopyAndPickle:
    @pytest.mark.parametrize("meta", [None, {"sample_ns": ("stat", 1.5)}],
                             ids=["shared_meta", "own_meta"])
    @pytest.mark.parametrize("round_trip", [
        copy.copy,
        copy.deepcopy,
        lambda op: pickle.loads(pickle.dumps(op)),
        lambda op: pickle.loads(pickle.dumps(op, protocol=2)),
    ], ids=["copy", "deepcopy", "pickle", "pickle2"])
    def test_round_trip_keeps_every_field(self, round_trip, meta):
        kwargs = dict(FULL) if meta is None else dict(FULL, meta=meta)
        if meta is None:
            del kwargs["meta"]
        op = MemOp(**kwargs)
        again = round_trip(op)
        assert type(again) is MemOp and again is not op
        assert again == op
        if meta is None:
            assert again.meta is NO_META
        else:
            assert again.meta == meta

    def test_deepcopy_copies_owned_meta(self):
        op = MemOp.fetch_add(0x100)
        assert copy.deepcopy(op).meta is not op.meta


class TestRepr:
    def test_matches_the_dataclass_repr(self):
        assert repr(MemOp.store(0x100, 5)) == (
            "MemOp(kind=<OpKind.STORE: 'store'>, addr=256, size=8, "
            "ordering=<Ordering.RELAXED: 'rlx'>, "
            "policy=<Policy.WRITE_THROUGH: 'wt'>, value=5, register=None, "
            "duration_ns=0.0, meta={})")
        assert repr(MemOp.fetch_add(0x40, 2, "r1")) == (
            "MemOp(kind=<OpKind.ATOMIC: 'atomic'>, addr=64, size=8, "
            "ordering=<Ordering.ACQ_REL: 'acq_rel'>, "
            "policy=<Policy.WRITE_THROUGH: 'wt'>, value=2, register='r1', "
            "duration_ns=0.0, meta={'atomic': <AtomicOp.FETCH_ADD: 'faa'>, "
            "'compare': None})")


class TestCompareSwapOrdering:
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_static_constructor_keeps_the_ordering(self, ordering):
        op = MemOp.compare_swap(0x100, 0, 1, "r0", ordering=ordering)
        assert op.ordering is ordering
        assert op.meta == {"atomic": AtomicOp.COMPARE_SWAP, "compare": 0}

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_builder_takes_the_ordering(self, ordering):
        op = ProgramBuilder().compare_swap(
            0x100, 0, 1, "r0", ordering=ordering).build().ops[0]
        assert op == MemOp.compare_swap(0x100, 0, 1, "r0", ordering=ordering)

    def test_default_stays_acq_rel(self):
        assert MemOp.compare_swap(0x100, 0, 1).ordering is Ordering.ACQ_REL
        op = ProgramBuilder().compare_swap(0x100, 0, 1).build().ops[0]
        assert op.ordering is Ordering.ACQ_REL
