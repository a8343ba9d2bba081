"""The shared table interpreter names no protocol family.

:class:`~repro.protocols.table.TableCorePort` and
:class:`~repro.protocols.table.TableDirectory` hold what every family
shares; family behaviour (state, wake signal, escapes, fast paths) lives
in the family subclasses and is bound once per spec.  These tests parse
the shared classes' methods and fail on anything that would bring a
per-family branch back: a ``core_state`` access, a string literal naming a
shipped message other than the shared load/atomic round trip, or a
compiled opcode other than the generic ``A_CALL``/``D_CALL``.  They also
pin :func:`~repro.protocols.table.make_table_protocol` as the only code in
the module that reads ``core_state``.
"""

import ast
import inspect
import re
import textwrap

import pytest

from repro.protocols import table
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
            return D_REL_ACK, compile.A_CORD_RELEASE, D_CALL, "load_req"
    '''
    assert _violations(source) == [
        ("_wake", "core_state"), ("_wake", "'seq_flush_ack'"),
        ("_wake", "D_REL_ACK"), ("_wake", "A_CORD_RELEASE"),
    ]


def test_only_the_factory_reads_core_state():
    tree = ast.parse(inspect.getsource(table))
    readers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "core_state":
                readers.add(top.name)
    assert readers == {"make_table_protocol"}
