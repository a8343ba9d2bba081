"""Pinned model-checker signatures for the classic litmus suite.

Every classic test is explored under ``so``, ``cord``, ``mp``, ``seq2`` and
``tardis``, in TSO mode under ``so`` and ``cord``, and in SC mode under all
five.  Each exploration's
signature -- states, transitions, visited-set hits, deadlocks and the sorted
set of final outcomes -- is compared against ``tests/data/
checker_signatures.json``.  The pins are recorded data, not a second
implementation: a change to successor generation, the visited-set key, POR
or symmetry that alters the explored state graph fails here, whichever
code path it touched.

``symmetry_canon`` is deliberately not pinned: which orbit member has the
smallest digest depends on how a key is encoded, not on the state graph.

If a signature changes, either the change was an intended semantic fix
(then regenerate: ``REPRO_UPDATE_SIGNATURES=1 pytest
tests/litmus/test_checker_signatures.py`` and commit the JSON alongside an
explanation) or it altered exploration and must be fixed.
"""

import json
import os
from pathlib import Path

import pytest

from repro.litmus.model_checker import ModelChecker
from repro.litmus.suite import classic_tests

EXPECTED_PATH = (Path(__file__).resolve().parent.parent / "data"
                 / "checker_signatures.json")

#: ``(label prefix, protocol, tso, sc)`` per exploration mode.
MODES = (
    ("so", "so", False, False),
    ("cord", "cord", False, False),
    ("mp", "mp", False, False),
    ("seq2", "seq2", False, False),
    ("tardis", "tardis", False, False),
    ("so+tso", "so", True, False),
    ("cord+tso", "cord", True, False),
    ("so+sc", "so", False, True),
    ("cord+sc", "cord", False, True),
    ("mp+sc", "mp", False, True),
    ("seq2+sc", "seq2", False, True),
    ("tardis+sc", "tardis", False, True),
)

CASES = [
    (f"{prefix}/{test.name}", test, protocol, tso, sc)
    for prefix, protocol, tso, sc in MODES
    for test in classic_tests()
]


def _updating() -> bool:
    return bool(os.environ.get("REPRO_UPDATE_SIGNATURES"))


def signature(test, protocol: str, tso: bool, sc: bool) -> dict:
    """The pinned fields of one exploration."""
    result = ModelChecker(test, protocol, tso=tso, sc=sc,
                          max_states=200_000).run()
    return {
        "states": result.states_explored,
        "transitions": int(result.stats["transitions"]),
        "visited_hits": int(result.stats["visited_hits"]),
        "deadlocks": result.deadlocks,
        "outcomes": sorted(
            " ".join(f"{name}={value}"
                     for name, value in sorted(final.outcome.items()))
            for final in result.finals
        ),
    }


def _expected() -> dict:
    if not EXPECTED_PATH.exists():
        pytest.fail(
            f"{EXPECTED_PATH} missing; regenerate with "
            "REPRO_UPDATE_SIGNATURES=1 pytest "
            "tests/litmus/test_checker_signatures.py"
        )
    return json.loads(EXPECTED_PATH.read_text())


class TestCheckerSignatures:
    def test_pins_cover_exactly_the_classic_matrix(self):
        if _updating():
            pytest.skip("regenerating expected signatures")
        labels = [label for label, *_ in CASES]
        assert len(labels) == len(set(labels)) == (
            len(MODES) * len(classic_tests()))
        assert set(_expected()) == set(labels)

    @pytest.mark.parametrize(
        "label,test,protocol,tso,sc", CASES,
        ids=[label for label, *_ in CASES]
    )
    def test_signature_is_pinned(self, label, test, protocol, tso, sc):
        observed = signature(test, protocol, tso, sc)
        if _updating():
            data = (json.loads(EXPECTED_PATH.read_text())
                    if EXPECTED_PATH.exists() else {})
            data[label] = observed
            EXPECTED_PATH.parent.mkdir(parents=True, exist_ok=True)
            EXPECTED_PATH.write_text(
                json.dumps(dict(sorted(data.items())), indent=1) + "\n"
            )
            return
        assert observed == _expected()[label], (
            f"checker signature drifted for {label}; if this change is an "
            "intended semantic fix, regenerate with REPRO_UPDATE_SIGNATURES=1"
        )
