"""Tests for execution histories."""

import inspect
import pickle

import pytest

from repro.consistency import EventKind, ExecutionHistory, HistoryEvent, Ordering


class TestRecording:
    def test_uids_monotonic(self):
        history = ExecutionHistory()
        a = history.record(0, 0, EventKind.STORE, Ordering.RELAXED, 0x1, 1)
        b = history.record(0, 1, EventKind.LOAD, Ordering.RELAXED, 0x1, 1)
        assert b.uid == a.uid + 1

    def test_len_and_iter(self):
        history = ExecutionHistory()
        for i in range(5):
            history.record(0, i, EventKind.STORE, Ordering.RELAXED, i, i)
        assert len(history) == 5
        assert len(list(history)) == 5

    def test_by_core_sorted_by_program_index(self):
        history = ExecutionHistory()
        history.record(1, 2, EventKind.STORE, Ordering.RELAXED, 0x1, 1)
        history.record(1, 0, EventKind.STORE, Ordering.RELAXED, 0x2, 2)
        history.record(0, 0, EventKind.LOAD, Ordering.ACQUIRE, 0x1, 1)
        cores = history.by_core()
        assert set(cores) == {0, 1}
        assert [e.program_index for e in cores[1]] == [0, 2]

    def test_stores_to_filters_by_addr(self):
        history = ExecutionHistory()
        history.record(0, 0, EventKind.STORE, Ordering.RELAXED, 0x1, 1)
        history.record(0, 1, EventKind.STORE, Ordering.RELAXED, 0x2, 2)
        history.record(1, 0, EventKind.LOAD, Ordering.RELAXED, 0x1, 1)
        assert len(history.stores_to(0x1)) == 1


class TestRegisters:
    def test_set_and_get(self):
        history = ExecutionHistory()
        history.set_register(2, "r1", 42)
        assert history.register(2, "r1") == 42
        assert history.register(2, "r2") is None

    def test_register_outcome_flattening(self):
        history = ExecutionHistory()
        history.set_register(0, "r1", 1)
        history.set_register(1, "r0", 0)
        assert history.register_outcome() == {"P0:r1": 1, "P1:r0": 0}

    def test_event_store_load_flags(self):
        history = ExecutionHistory()
        store = history.record(0, 0, EventKind.STORE, Ordering.RELAXED, 1, 1)
        load = history.record(0, 1, EventKind.LOAD, Ordering.RELAXED, 1, 1)
        fence = history.record(0, 2, EventKind.FENCE, Ordering.ACQ_REL)
        assert store.is_store and not store.is_load
        assert load.is_load and not load.is_store
        assert not fence.is_store and not fence.is_load


class TestHistoryEventContract:
    """The record every consistency check reads: field names, order and
    defaults, the kind predicates, immutability and pickling (histories
    cross worker-process boundaries)."""

    FIELDS = ("uid", "core", "program_index", "kind", "ordering", "addr",
              "value")

    def test_field_names_order_and_defaults(self):
        params = inspect.signature(HistoryEvent).parameters
        assert tuple(params) == self.FIELDS
        defaults = {name: p.default for name, p in params.items()
                    if p.default is not inspect.Parameter.empty}
        assert defaults == {"addr": None, "value": None}
        event = HistoryEvent(7, 1, 3, EventKind.LOAD, Ordering.ACQUIRE,
                             0x40, 9)
        assert [getattr(event, name) for name in self.FIELDS] == [
            7, 1, 3, EventKind.LOAD, Ordering.ACQUIRE, 0x40, 9]
        fence = HistoryEvent(uid=0, core=2, program_index=5,
                             kind=EventKind.FENCE, ordering=Ordering.ACQ_REL)
        assert fence.addr is None and fence.value is None

    def test_kind_predicates(self):
        def make(kind):
            return HistoryEvent(0, 0, 0, kind, Ordering.RELAXED)

        assert make(EventKind.STORE).is_store
        assert not make(EventKind.STORE).is_load
        assert make(EventKind.LOAD).is_load
        assert not make(EventKind.LOAD).is_store
        assert not make(EventKind.FENCE).is_store
        assert not make(EventKind.FENCE).is_load

    def test_fields_cannot_be_assigned(self):
        event = HistoryEvent(0, 0, 0, EventKind.STORE, Ordering.RELEASE, 1, 2)
        with pytest.raises(AttributeError):
            event.value = 3
        assert event.value == 2

    def test_pickle_round_trip(self):
        event = HistoryEvent(4, 1, 2, EventKind.STORE, Ordering.RELEASE,
                             0x80, 11)
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert type(clone) is HistoryEvent
        assert hash(clone) == hash(event)

    def test_record_assigns_dense_uids_in_call_order(self):
        history = ExecutionHistory()
        recorded = [
            history.record(1, 0, EventKind.STORE, Ordering.RELAXED, 0x1, 5),
            history.record(0, 0, EventKind.LOAD, Ordering.ACQUIRE, 0x1, 5),
            history.record(1, 1, EventKind.FENCE, Ordering.ACQ_REL),
        ]
        assert [e.uid for e in recorded] == [0, 1, 2]
        assert history.events == recorded
        assert recorded[0] == HistoryEvent(0, 1, 0, EventKind.STORE,
                                           Ordering.RELAXED, 0x1, 5)
        assert recorded[2].addr is None and recorded[2].value is None
