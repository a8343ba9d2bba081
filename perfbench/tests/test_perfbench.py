"""Tests of the benchmark itself: its metric contract and its wrappers.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
from pathlib import Path

import pytest

import metrics
import run
import work
from tracer import (
    BOUNDARIES,
    NullRecorder,
    SpanRecorder,
    _resolve,
    _wrap_generator,
    install,
    layer_totals,
)

from repro.config import CXL
from repro.faults import parse_faults
from repro.harness.executor import RunSpec
from repro.harness.experiments import default_config
from repro.harness.modelcheck import CheckSpec
from repro.litmus.suite import classic_tests
from repro.workloads.micro import MicroSpec

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(key):
    return [entry["name"] for entry in CONTRACT[key]]


def _child(facts):
    one_pass = {"setup_s": 1.0, "wall_s": 2.0, "cpu_s": 2.0,
                "calibration_s": 5e-4, "digests": [], "failures": [],
                "facts": facts}
    return {"import_s": 0.5, "calibration_s": 5e-4, "peak_rss_mb": 40.0,
            "call_rows": 0,
            "passes": [one_pass],
            "spans": {"spans": 0, "covered_s": 0.0, "boundaries": {}}}


def test_contract_matches_metric_definitions():
    entries = metrics.benchmark_entries()
    assert CONTRACT["end_to_end"] == entries["end_to_end"]
    assert CONTRACT["per_layer"] == entries["per_layer"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(metrics.WORKLOADS)


def test_metric_names_are_unique_and_well_formed():
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_printed_metric_names_match_contract():
    facts = work.Pass(units=[], build_s=0.0).facts()
    facts["events"] = 10.0
    child = _child(facts)
    assert list(run.end_to_end(child, [child])) == _names("end_to_end")
    assert list(run.per_layer(child, child)) == _names("per_layer")


def test_reference_is_current():
    text = (ROOT / "perfbench" / "METRICS.md").read_text()
    assert text == metrics.render_reference()


def test_generator_wrapper_is_transparent():
    def body(first):
        got = yield first
        try:
            yield got * 2
        except ValueError:
            yield "caught"
        return "done"

    rec = SpanRecorder()
    wrapped = _wrap_generator(body, 0, rec)(1)
    assert next(wrapped) == 1
    assert wrapped.send(5) == 10
    assert wrapped.throw(ValueError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(wrapped)
    assert stop.value.value == "done"
    assert rec.reduce()["spans"] == 4   # one span per resumption


def _class_attributes():
    return {(path, attr): vars(_resolve(path)).get(attr)
            for _, path, attrs in BOUNDARIES for attr in attrs}


def test_wrappers_are_restored_and_change_no_output():
    sim = RunSpec(kind="micro", protocol="cord",
                  workload=MicroSpec(store_granularity=64,
                                     sync_granularity=1024, fanout=1,
                                     total_bytes=16 * 1024),
                  config=default_config(CXL, hosts=2, cores_per_host=1),
                  seed=3, faults=parse_faults("drop+dup"))
    check = CheckSpec(test=classic_tests()[0], protocol="cord")
    untraced = [work.run_unit(spec, NullRecorder(), 0)
                for spec in (sim, check)]

    before = _class_attributes()
    rec = SpanRecorder()
    patches = install(rec)
    try:
        assert _class_attributes() != before
        traced = [work.run_unit(spec, rec, 0) for spec in (sim, check)]
    finally:
        patches.restore()

    after = _class_attributes()
    assert all(after[key] is value for key, value in before.items())
    assert [u.digest for u in traced] == [u.digest for u in untraced]
    assert all(u.failure is None for u in traced + untraced)
    layers = layer_totals(rec.reduce())
    for layer in ("kernel", "core", "protocol.port", "protocol.dir",
                  "network", "faults", "stats", "harvest", "setup.build",
                  "setup.machine", "setup.checker", "check.explore",
                  "check.visited", "check.symmetry", "check.rc"):
        assert layers[layer]["count"] > 0, layer


def test_derived_seeds_are_stable_and_distinct():
    assert work.derive(7, "arrivals") == work.derive(7, "arrivals")
    assert work.derive(7, "arrivals") != work.derive(8, "arrivals")
    assert work.derive(7, "arrivals") != work.derive(7, "generated")
