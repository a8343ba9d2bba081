"""Pinned final-state hashes for a fixed basket of runs.

The engine hot path (topology lookups, stat accounting, message plumbing)
is performance-tuned under a strict no-behavior-change contract: every
optimization must leave simulation results *byte-identical*.  This module
enforces that contract by pinning the ``final_state_hash`` — a SHA-256
over final register values, timings and the full stats dict — of a basket
spanning every named protocol on the Fig. 2 CXL application point, with
and without fault injection, plus the same point on a two-pod fabric
(cord, so and tardis), a small micro point for the protocols the
application point cannot reach (``seq<k>``) or barely stresses
(``cord-nonotify``'s cross-directory drain needs fan-out), and a small
open-loop point (cord, so and tardis, with and without faults) for the
polling ``load_req``/``load_resp`` round trip and the same-pair FIFO
clamp the closed-loop runs barely reach.

If a hash changes, either the change was an intended semantic fix (then
regenerate: ``REPRO_UPDATE_HASHES=1 pytest tests/test_state_hash.py`` and
commit the JSON alongside an explanation) or the "optimization" altered
behavior and must be fixed.
"""

import json
import os
from pathlib import Path

import pytest

from repro.config import CXL, SystemConfig
from repro.faults import DropSpec, DuplicateSpec, FaultPlan, FlapSpec
from repro.harness import RunSpec
from repro.harness.executor import _execute_spec
from repro.harness.experiments import default_config
from repro.workloads.micro import MicroSpec
from repro.workloads.openloop import OpenLoopSpec
from repro.workloads.table2 import APPLICATIONS

EXPECTED_PATH = Path(__file__).parent / "data" / "state_hash_basket.json"

#: Every named protocol (seq<k> runs on the micro point below instead:
#: monolithic sequence numbers make the CR app exceed any reasonable
#: event budget).
PROTOCOLS = ("so", "cord", "cord-nonotify", "mp", "wb", "tardis")

#: Deterministic adversity: drops, duplicates and a periodic link flap.
FAULTS = FaultPlan(
    drop=DropSpec(rate=0.05),
    duplicate=DuplicateSpec(rate=0.05),
    flaps=(FlapSpec(period_ns=50_000.0, down_ns=500.0),),
)

BASKET = [
    (f"{protocol}{'+faults' if faults else ''}",
     RunSpec(kind="app", protocol=protocol, workload=APPLICATIONS["CR"],
             config=default_config(CXL), seed=0, faults=faults,
             experiment="hash-basket"))
    for protocol in PROTOCOLS
    for faults in (None, FAULTS)
]

#: Multi-pod coverage: the two-level fabric (pod uplink/downlink
#: contention, inter-pod latency tier) takes code paths the pods=1
#: basket never touches, with and without fault injection; tardis adds
#: its lease-granting load path on the same fabric.
POD_BASKET = [
    (f"{protocol}+pods2{'+faults' if faults else ''}",
     RunSpec(kind="app", protocol=protocol, workload=APPLICATIONS["CR"],
             config=default_config(CXL).with_pods(2), seed=0, faults=faults,
             experiment="hash-basket"))
    for protocol in ("cord", "so")
    for faults in (None, FAULTS)
] + [
    ("tardis+pods2",
     RunSpec(kind="app", protocol="tardis", workload=APPLICATIONS["CR"],
             config=default_config(CXL).with_pods(2), seed=0,
             experiment="hash-basket")),
]

#: Small-but-busy micro point: fine stores, frequent releases and fan-out
#: 2 exercise cross-slice traffic (SEQ commit-board gating, the
#: ablation's source-side drain); the small total keeps the runs fast.
MICRO = MicroSpec(store_granularity=64, sync_granularity=4096, fanout=2,
                  total_bytes=32 * 1024)

MICRO_BASKET = [
    (f"{protocol}+micro",
     RunSpec(kind="micro", protocol=protocol, workload=MICRO,
             config=default_config(CXL), seed=0,
             experiment="hash-basket"))
    for protocol in ("seq2", "seq8", "seq40", "cord-nonotify")
]

#: Open-loop point: Poisson arrivals on a two-pod fabric drive the polling
#: ``load_req``/``load_resp`` round trip and the same-pair FIFO clamp that
#: the closed-loop CR runs barely reach, with and without fault injection.
OPENLOOP = OpenLoopSpec(arrival="poisson", interarrival_ns=1500.0,
                        requests=12, warmup=2, seed=3)

OPENLOOP_BASKET = [
    (f"{protocol}+openloop{'+faults' if faults else ''}",
     RunSpec(kind="openloop", protocol=protocol, workload=OPENLOOP,
             config=SystemConfig().scaled(8, 2).with_interconnect(CXL)
             .with_pods(2),
             seed=0, faults=faults, experiment="hash-basket"))
    for protocol in ("cord", "so", "tardis")
    for faults in (None, FAULTS)
]
BASKET = BASKET + POD_BASKET + MICRO_BASKET + OPENLOOP_BASKET


def _expected() -> dict:
    if not EXPECTED_PATH.exists():
        pytest.fail(
            f"{EXPECTED_PATH} missing; regenerate with "
            "REPRO_UPDATE_HASHES=1 pytest tests/test_state_hash.py"
        )
    return json.loads(EXPECTED_PATH.read_text())


class TestStateHashBasket:
    def test_basket_covers_every_protocol_twice(self):
        if os.environ.get("REPRO_UPDATE_HASHES"):
            pytest.skip("regenerating expected hashes")
        labels = [label for label, _spec in BASKET]
        assert (len(labels) == len(set(labels))
                == 2 * len(PROTOCOLS) + len(POD_BASKET) + len(MICRO_BASKET)
                + len(OPENLOOP_BASKET))
        assert set(_expected()) == set(labels)

    @pytest.mark.parametrize(
        "label,spec", BASKET, ids=[label for label, _spec in BASKET]
    )
    def test_final_state_hash_is_pinned(self, label, spec):
        record = _execute_spec(spec)
        if os.environ.get("REPRO_UPDATE_HASHES"):
            data = (json.loads(EXPECTED_PATH.read_text())
                    if EXPECTED_PATH.exists() else {})
            data[label] = record.final_state_hash
            EXPECTED_PATH.parent.mkdir(parents=True, exist_ok=True)
            EXPECTED_PATH.write_text(
                json.dumps(dict(sorted(data.items())), indent=2) + "\n"
            )
            return
        assert record.final_state_hash == _expected()[label], (
            f"final_state_hash drifted for {label}; if this change is an "
            "intended semantic fix, regenerate with REPRO_UPDATE_HASHES=1"
        )
