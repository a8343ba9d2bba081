"""Tests for the spec compiler (:mod:`repro.protocols.compile`).

Four concerns:

* **Lint gating** — ``compile_spec`` refuses structurally ambiguous
  tables.  The deliberately *reordered* CORD spec (barrier carrier not
  the final emission) pins the ``_carrier_info`` ordering-assumption fix:
  the old interpreter guessed the carrier as ``emits[-1]`` and would have
  silently mis-tagged it; the linter now rejects the spec outright.
* **Lowering** — shipped rules get the expected guard/action/delivery
  opcodes, interned message ids, and emit templates.
* **Caching** — compiled protocols are cached per name and recompiled
  when the spec object changes; timed classes are built once per spec
  object, so two specs sharing a name never share classes.
* **Differential** — each protocol runs once on its shipped table (rows
  bound to the families' fast paths) and once on a test-local copy whose
  closures are wrapped, so every row lowers to its ``*_CALL`` opcode and
  runs through the closures; both must produce byte-identical
  ``final_state_hash``.
"""

import dataclasses

import pytest

from repro.config import CXL
from repro.harness import RunSpec
from repro.harness.executor import _execute_spec
from repro.harness.experiments import default_config
from repro.protocols import spec as spec_module
from repro.protocols.compile import (
    A_CALL,
    A_CORD_RELAXED,
    A_MP_POSTED,
    A_SEQ_STORE,
    A_SO_STORE,
    D_CALL,
    D_POSTED,
    D_SEQ_STORE,
    D_SO_ACK,
    D_WT_RLX,
    D_WT_STORE,
    G_CALL,
    G_CORD_RELAXED,
    G_CORD_RELEASE,
    G_SEQ_WINDOW,
    G_SO_OUTSTANDING,
    G_TRUE,
    compile_spec,
)
from repro.protocols.spec import LintError, get_spec, lint_spec
from repro.protocols.table import (
    CordCorePort,
    CordDirectory,
    SeqCorePort,
    SeqDirectory,
    SoCorePort,
    SoDirectory,
    TardisCorePort,
    TardisDirectory,
    make_table_protocol,
    protocol_classes,
)
from repro.workloads.micro import MicroSpec
from repro.workloads.table2 import APPLICATIONS


# ---------------------------------------------------------------------------
# Lint gating
# ---------------------------------------------------------------------------
def _with_reversed_release_emits(spec):
    """CORD with the ordered-store emissions deliberately reversed, so the
    barrier carrier (``wt_rel``) is emitted *first* instead of last."""
    rule = spec.issue[("store", True)]
    original = rule.effects

    def reversed_effects(ps, home, ordered, barrier=False):
        return list(reversed(original(ps, home, ordered, barrier=barrier)))

    issue = dict(spec.issue)
    issue[("store", True)] = dataclasses.replace(
        rule, effects=reversed_effects)
    return dataclasses.replace(spec, issue=issue)


def _with_undeclared_carrier(spec):
    """CORD with ``wt_rel``'s ``barrier_carrier`` declaration dropped."""
    messages = dict(spec.messages)
    messages["wt_rel"] = dataclasses.replace(
        messages["wt_rel"], barrier_carrier=False)
    return dataclasses.replace(spec, messages=messages)


class TestLintGating:
    def test_reordered_emits_fail_lint(self):
        bad = _with_reversed_release_emits(get_spec("cord"))
        problems = lint_spec(bad)
        assert any("ambiguous emit order" in p for p in problems), problems

    def test_reordered_emits_refuse_to_compile(self):
        bad = _with_reversed_release_emits(get_spec("cord"))
        with pytest.raises(LintError, match="ambiguous emit order"):
            compile_spec(bad)

    def test_undeclared_carrier_refuses_to_compile(self):
        bad = _with_undeclared_carrier(get_spec("cord"))
        with pytest.raises(LintError, match="exactly one"):
            compile_spec(bad)

    def test_messages_only_table_refuses_to_compile(self):
        # wb ships messages + declared actors but no issue/delivery rules.
        with pytest.raises(LintError, match="messages-only"):
            compile_spec(get_spec("wb"))

    def test_rejected_spec_does_not_poison_the_cache(self):
        spec = get_spec("cord")
        good = compile_spec(spec)
        with pytest.raises(LintError):
            compile_spec(_with_reversed_release_emits(spec))
        assert compile_spec(spec) is good


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------
class TestLowering:
    def test_message_ids_are_dense_and_consistent(self):
        for name in ("so", "cord", "mp", "seq8"):
            compiled = compile_spec(get_spec(name))
            assert [m.mid for m in compiled.messages] == list(
                range(len(compiled.messages)))
            for message in compiled.messages:
                assert compiled.msg_id[message.name] == message.mid
                assert compiled.message(message.name) is message

    def test_so_rows(self):
        c = compile_spec(get_spec("so"))
        relaxed = c.issue[("store", False)]
        ordered = c.issue[("store", True)]
        assert relaxed.guard_op == G_TRUE
        assert relaxed.action_op == A_SO_STORE
        assert ordered.guard_op == G_SO_OUTSTANDING
        assert ordered.action_op == A_SO_STORE
        assert c.barrier_carrier is None
        assert "wt_store" in c.values_carriers
        wire = lambda name: c.message(name).wire_name
        assert c.dir_wire[wire("wt_store")].op == D_WT_STORE
        assert c.core_wire[wire("so_ack")].op == D_SO_ACK

    def test_cord_rows(self):
        c = compile_spec(get_spec("cord"))
        relaxed = c.issue[("store", False)]
        release = c.issue[("store", True)]
        assert relaxed.guard_op == G_CORD_RELAXED
        assert relaxed.action_op == A_CORD_RELAXED
        assert release.guard_op == G_CORD_RELEASE
        # Synchronization rows run their closures: the Release issue (store
        # and RMW alike), the notifications and the release ack.
        assert release.action_op == A_CALL
        assert c.issue[("atomic", True)].action_op == A_CALL
        assert c.barrier_carrier == "wt_rel"
        # The emit template keeps the carrier last (linter-enforced).
        names = [c.messages[mid].name for mid in release.emit_mids]
        assert names[-1] == "wt_rel"
        wire = lambda name: c.message(name).wire_name
        assert c.dir_wire[wire("wt_rlx")].op == D_WT_RLX
        for name in ("wt_rel", "req_notify", "notify"):
            assert c.dir_wire[wire(name)].op == D_CALL
        assert c.core_wire[wire("rel_ack")].op == D_CALL

    def test_mp_rows(self):
        c = compile_spec(get_spec("mp"))
        for key in (("store", False), ("store", True)):
            assert c.issue[key].guard_op == G_TRUE
            assert c.issue[key].action_op == A_MP_POSTED
        wire = lambda name: c.message(name).wire_name
        assert c.dir_wire[wire("posted")].op == D_POSTED

    def test_seq_rows(self):
        c = compile_spec(get_spec("seq8"))
        relaxed = c.issue[("store", False)]
        assert relaxed.guard_op == G_SEQ_WINDOW
        assert relaxed.action_op == A_SEQ_STORE
        names = [c.messages[mid].name for mid in relaxed.emit_mids]
        assert names == ["seq_store"]
        wire = lambda name: c.message(name).wire_name
        assert c.dir_wire[wire("seq_store")].op == D_SEQ_STORE
        assert c.dir_wire[wire("seq_flush")].op == D_CALL
        assert c.core_wire[wire("seq_flush_ack")].op == D_CALL

    def test_compiled_rows_mirror_their_rules(self):
        # Generic interpreter paths read the mirrored IssueRule fields off
        # the compiled row; they must stay in lockstep with the source.
        for name in ("so", "cord", "cord-nonotify", "mp", "seq8"):
            spec = get_spec(name)
            compiled = compile_spec(spec)
            for key, row in compiled.issue.items():
                rule = spec.issue[key]
                assert row.rule is rule
                assert row.name == rule.name
                assert row.guard is rule.guard
                assert row.effects is rule.effects
                assert row.escape == rule.escape
                assert row.combining == rule.combining
                assert row.source_drain == rule.source_drain


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------
class TestCache:
    def test_cached_per_name_by_identity(self):
        spec = get_spec("cord")
        assert compile_spec(spec) is compile_spec(spec)

    def test_new_spec_object_recompiles(self):
        spec = get_spec("cord")
        first = compile_spec(spec)
        clone = dataclasses.replace(spec)
        second = compile_spec(clone)
        assert second is not first
        assert second.spec is clone
        # Recompiling the registry spec restores its cache entry.
        assert compile_spec(spec).spec is spec


class TestClassCache:
    def test_same_name_other_spec_gets_its_own_classes(self):
        shipped = get_spec("cord")
        variant = dataclasses.replace(
            shipped, retry_order=("wt_rel", "req_notify"))
        port_cls, dir_cls = make_table_protocol(variant)
        assert port_cls.SPEC is variant
        assert dir_cls.SPEC is variant
        shipped_port, shipped_dir = make_table_protocol(shipped)
        assert shipped_port.SPEC is shipped
        assert shipped_dir.SPEC is shipped
        # Built once per spec object.
        assert make_table_protocol(variant) == (port_cls, dir_cls)
        assert make_table_protocol(shipped) == (shipped_port, shipped_dir)

    @pytest.mark.parametrize("name,port_family,dir_family", [
        ("so", SoCorePort, SoDirectory),
        ("mp", SoCorePort, SoDirectory),
        ("cord", CordCorePort, CordDirectory),
        ("cord-nonotify", CordCorePort, CordDirectory),
        ("seq2", SeqCorePort, SeqDirectory),
        ("tardis", TardisCorePort, TardisDirectory),
    ])
    def test_core_state_picks_the_family(self, name, port_family,
                                         dir_family):
        port_cls, dir_cls = make_table_protocol(get_spec(name))
        assert issubclass(port_cls, port_family)
        assert issubclass(dir_cls, dir_family)

    def test_unknown_core_state_is_refused(self):
        odd = dataclasses.replace(get_spec("so"), core_state="mesi")
        with pytest.raises(ValueError, match="core_state"):
            make_table_protocol(odd)


# ---------------------------------------------------------------------------
# Shipped-table vs closures-only timed differential
# ---------------------------------------------------------------------------
MICRO = MicroSpec(store_granularity=64, sync_granularity=4096, fanout=2,
                  total_bytes=32 * 1024)


def _point(protocol):
    if protocol in ("mp", "wb"):
        return RunSpec(kind="app", protocol=protocol,
                       workload=APPLICATIONS["CR"],
                       config=default_config(CXL), seed=0,
                       experiment="compile-differential")
    return RunSpec(kind="micro", protocol=protocol, workload=MICRO,
                   config=default_config(CXL), seed=0,
                   experiment="compile-differential")


def _closures_only(spec):
    """A copy of ``spec`` whose guards and effects are wrappers around the
    shipped closures.  The compiler recognises none of them, so every row
    lowers to its ``*_CALL`` opcode and the interpreter runs it through
    the closures.  One wrapper per closure keeps shared guards shared."""
    if not spec.rules_complete:
        return dataclasses.replace(spec)
    wrappers = {}

    def wrap(fn):
        if fn is None:
            return None
        if fn not in wrappers:
            def call(*args, **kwargs):
                return fn(*args, **kwargs)
            wrappers[fn] = call
        return wrappers[fn]

    issue = {
        key: dataclasses.replace(
            rule, guard=wrap(rule.guard), effects=wrap(rule.effects),
            timed_guard=wrap(rule.timed_guard),
            escape_guard=wrap(rule.escape_guard))
        for key, rule in spec.issue.items()
    }
    delivery = {
        name: dataclasses.replace(rule, guard=wrap(rule.guard),
                                  effects=wrap(rule.effects))
        for name, rule in spec.delivery.items()
    }
    return dataclasses.replace(spec, issue=issue, delivery=delivery)


class TestCompiledInterpretedDifferential:
    """Same tables, opposite dispatch: the families' fast paths (the
    compiled opcodes) and the original closures (a copy whose every row
    is interpreted) must time out to byte-identical final states."""

    @pytest.mark.parametrize(
        "protocol",
        ["so", "cord", "cord-nonotify", "seq2", "seq8", "mp", "wb",
         "tardis"])
    def test_final_state_hash_matches(self, protocol, monkeypatch):
        spec = _point(protocol)
        shipped = get_spec(protocol)
        fast = _execute_spec(spec).final_state_hash
        closures = _closures_only(shipped)
        monkeypatch.setitem(spec_module._SPECS, protocol, closures)
        if closures.rules_complete:
            compiled = compile_spec(closures)
            assert all(row.guard_op == G_CALL and row.action_op == A_CALL
                       for row in compiled.issue.values())
            assert all(row.op == D_CALL
                       for row in (*compiled.dir_wire.values(),
                                   *compiled.core_wire.values()))
            assert protocol_classes(protocol)[0].SPEC is closures
        slow = _execute_spec(spec).final_state_hash
        assert fast == slow, (
            f"{protocol}: the fast paths diverged from the closures")
