"""Tests for message and node-id primitives."""

import pickle

import pytest

from repro.interconnect import Message, NodeId


class TestNodeId:
    def test_constructors(self):
        core = NodeId.core(5, 0)
        directory = NodeId.directory(9, 1)
        assert core.kind == "core" and core.index == 5 and core.host == 0
        assert directory.kind == "dir" and directory.host == 1

    def test_equality_and_hash(self):
        assert NodeId.core(1, 0) == NodeId.core(1, 0)
        assert NodeId.core(1, 0) != NodeId.directory(1, 0)
        assert len({NodeId.core(1, 0), NodeId.core(1, 0)}) == 1

    def test_ordering_is_total(self):
        nodes = [NodeId.directory(2, 1), NodeId.core(0, 0), NodeId.core(3, 1),
                 NodeId.core(0, 2), NodeId("mem", 1, 0)]
        assert sorted(nodes) == sorted(nodes, key=lambda n: (n.kind, n.index,
                                                             n.host))

    def test_str(self):
        assert str(NodeId.core(7, 2)) == "core7@h2"

    @pytest.mark.parametrize("kind,index,host",
                             [("core", 1, 0), ("dir", 9, 3), ("mem", 0, 7)])
    def test_hash_is_the_field_tuple_hash(self, kind, index, host):
        # Set and dict iteration order, and so every pinned hash, depend
        # on this exact value.
        assert hash(NodeId(kind, index, host)) == hash((kind, index, host))

    def test_repr_names_the_fields(self):
        # Deadlock diagnostics print node ids through repr.
        assert (repr(NodeId.core(1, 0))
                == "NodeId(kind='core', index=1, host=0)")

    def test_immutable(self):
        node = NodeId.core(1, 0)
        with pytest.raises(AttributeError):
            node.index = 2

    def test_pickle_round_trip(self):
        node = NodeId.directory(5, 2)
        restored = pickle.loads(pickle.dumps(node))
        assert restored == node and type(restored) is NodeId
        assert hash(restored) == hash(node)


class TestMessage:
    def test_uids_unique(self):
        a = Message(NodeId.core(0, 0), NodeId.directory(0, 0), "t", 8)
        b = Message(NodeId.core(0, 0), NodeId.directory(0, 0), "t", 8)
        assert a.uid != b.uid

    def test_defaults(self):
        msg = Message(NodeId.core(0, 0), NodeId.directory(0, 0), "t", 8)
        assert msg.control is True
        assert msg.payload == {}

    def test_str_mentions_route(self):
        msg = Message(NodeId.core(0, 0), NodeId.directory(1, 0), "ack", 16)
        text = str(msg)
        assert "ack" in text and "core0@h0" in text and "dir1@h0" in text
