"""The shared table interpreter names no protocol family, and families
keep inline paths only for per-store rows.

:class:`~repro.protocols.table.TableCorePort` and
:class:`~repro.protocols.table.TableDirectory` hold what every family
shares; family behaviour (state, wake signal, escapes, fast paths) lives
in the family subclasses and is bound once per spec.  These tests parse
the shared classes' methods and fail on anything that would bring a
per-family branch back: a ``core_state`` access, a string literal naming a
shipped message other than the shared load/atomic round trip, or a
compiled opcode other than the generic ``A_CALL``/``D_CALL``.  They also
pin :func:`~repro.protocols.table.make_table_protocol` as the only code in
the module that reads ``core_state``, and pin which rows each shipped
protocol binds to a family method: a store's issue, acknowledgment and
commit, and nothing else.  Every synchronization row (Releases,
notifications, release acks, flushes, flush acks, RMWs) runs the spec's
closures, the same functions the model checker runs.
"""

import ast
import inspect
import re
import textwrap
import types

import pytest

from repro.protocols import table
from repro.protocols.compile import compile_spec
from repro.protocols.spec import get_spec

#: The load and RMW round trip every family shares.
SHARED_MESSAGES = frozenset({"load_req", "load_resp", "atomic",
                             "atomic_req"})
GENERIC_OPCODES = frozenset({"A_CALL", "D_CALL"})
_OPCODE = re.compile(r"^[GAD]_[A-Z_]+$")


def _family_messages():
    names = set()
    for protocol in ("so", "cord", "cord-nonotify", "mp", "seq8", "tardis",
                     "wb"):
        for message in get_spec(protocol).messages.values():
            names.update((message.name, message.wire_name))
    return frozenset(names - SHARED_MESSAGES)


def _violations(source):
    """``(method, what)`` for every family name in the methods of the one
    class defined in ``source``."""
    (class_def,) = ast.parse(textwrap.dedent(source)).body
    messages = _family_messages()
    found = []
    for method in class_def.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and node.attr == "core_state":
                found.append((method.name, "core_state"))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value in messages):
                found.append((method.name, repr(node.value)))
            else:
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else None)
                if (name is not None and _OPCODE.match(name)
                        and name not in GENERIC_OPCODES):
                    found.append((method.name, name))
    return found


@pytest.mark.parametrize("cls", [table.TableCorePort, table.TableDirectory],
                         ids=lambda cls: cls.__name__)
def test_shared_methods_name_no_family(cls):
    assert _violations(inspect.getsource(cls)) == []


def test_the_check_sees_each_kind_of_family_name():
    source = '''
    class Shared:
        def _wake(self):
            if self.SPEC.core_state == "seq":
                return "seq_flush_ack"
            return D_SO_ACK, compile.A_CORD_RELAXED, D_CALL, "load_req"
    '''
    assert _violations(source) == [
        ("_wake", "core_state"), ("_wake", "'seq_flush_ack'"),
        ("_wake", "D_SO_ACK"), ("_wake", "A_CORD_RELAXED"),
    ]


def test_only_the_factory_reads_core_state():
    tree = ast.parse(inspect.getsource(table))
    readers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "core_state":
                readers.add(top.name)
    assert readers == {"make_table_protocol"}


#: The rows each protocol runs on an inline family method: its store issue
#: rows (by ``(op_class, ordered)`` key) and the messages that acknowledge
#: or commit one store.  Every other row must run its closures.
PER_STORE_ROWS = {
    "so": {("store", True), ("store", False), "wt_store", "so_ack"},
    "mp": {("store", True), ("store", False), "posted"},
    "cord": {("store", False), "wt_rlx"},
    "cord-nonotify": {("store", False), "wt_rlx"},
    "seq8": {("store", True), ("store", False), "seq_store"},
    "tardis": {("store", True), ("store", False), "tardis_store"},
}

_CLOSURE_FACTORIES = ("_core_closure.", "_apply_closure.", "_retry_closure.")
#: Issue row key -> the port class attribute holding its binding.
_ISSUE_ATTRS = {("store", True): "_store_t", ("store", False): "_store_f",
                ("atomic", True): "_atomic_t", ("atomic", False): "_atomic_f"}


def _bound_rows(name):
    """Each row of ``name``'s table -> the function its classes run it
    with: an issue row's sender, a core-side row's handler, and a
    directory row's handler or, for a retried row, its queue's drain."""
    port_cls, dir_cls = table.protocol_classes(name)
    compiled = compile_spec(port_cls.SPEC)
    bound = {key: getattr(port_cls, _ISSUE_ATTRS[key])[2]
             for key in compiled.issue}
    for row in compiled.core_wire.values():
        bound[row.name] = port_cls._core_handlers[
            compiled.message(row.name).wire_name]
    drains = dict(dir_cls._retry_rows)
    for row in compiled.dir_wire.values():
        bound[row.name] = drains.get(row.name) or dir_cls._handlers[
            compiled.message(row.name).wire_name][0]
    return port_cls, dir_cls, bound


@pytest.mark.parametrize("name", sorted(PER_STORE_ROWS))
def test_only_per_store_rows_run_inline(name):
    port_cls, dir_cls, bound = _bound_rows(name)
    inline, closures = set(), set()
    for row, fn in bound.items():
        if (fn is table.TableCorePort._send_call
                or fn.__qualname__.startswith(_CLOSURE_FACTORIES)):
            closures.add(row)
        elif fn in (getattr(port_cls, fn.__name__, None),
                    getattr(dir_cls, fn.__name__, None)):
            inline.add(row)
    assert inline == PER_STORE_ROWS[name]
    assert closures == set(bound) - inline


def test_directory_context_has_no_instance_dict():
    """``DeliveryContext`` declares empty ``__slots__``, so a
    ``_TimedDirCtx``, built per retried or applied synchronization
    message, holds only the slots it declares."""
    ctx = table._TimedDirCtx(types.SimpleNamespace(state=None), None)
    assert not hasattr(ctx, "__dict__")
