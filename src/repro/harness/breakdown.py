"""Protocol message breakdowns: where the traffic and messages go.

The paper's analyses repeatedly reason about *which* messages each protocol
sends (Fig. 2's acks, Fig. 5's control counts, §5.2's notification
discussion).  :func:`message_breakdown` turns any run into that accounting —
per message type, counts and bytes, inter- and intra-host — and
:func:`protocol_comparison` tabulates it across protocols for one workload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.harness.executor import default_executor
from repro.harness.experiments import _app_spec, default_config
from repro.protocols.machine import RunResult
from repro.protocols.spec import get_spec, named_protocols
from repro.sim.stats import RunStats, message_counts
from repro.workloads.table2 import APPLICATIONS

__all__ = ["message_breakdown", "protocol_comparison",
           "stall_attribution_rows", "CONTROL_TYPES"]

#: Every message a protocol table declares.  Every ``seq<k>`` table
#: declares the same messages.
_MESSAGES = [message
             for protocol in (*named_protocols(), "seq1")
             for message in get_spec(protocol).messages.values()]

#: Wire names of the messages a protocol table declares control (no
#: store payload).
CONTROL_TYPES = frozenset(
    message.wire_name for message in _MESSAGES if message.control)

#: Wire names of the messages that carry CORD's §4.4 barrier Releases.
_BARRIER_CARRIERS = frozenset(
    message.wire_name for message in _MESSAGES if message.barrier_carrier)


def message_breakdown(
    result: RunStats, scope: str = "inter_host"
) -> List[Dict[str, Any]]:
    """Per-message-type counts/bytes for one run, sorted by bytes.

    ``result`` is a live :class:`~repro.protocols.machine.RunResult` or an
    executor :class:`~repro.harness.executor.RunRecord`; both give the
    same rows for the same run.

    A row's ``control`` flag is its type's table class, with one
    exception in the inter-host scope: a §4.4 barrier Release rides its
    data carrier (CORD's ``wt_rel``) as a control message, so the
    barriers get a control row of their own on the carrier type, taken
    out of its data row.  Their share is what the network's control
    counters (``msgs.inter_host.ctrl_count``, ``traffic.inter_host.ctrl``)
    hold beyond the control types' rows, so the control rows sum to those
    counters and the data rows to ``traffic.inter_host.data``.  The
    intra-host scope has no control count: its rows are labelled by type
    alone, and a barrier between a core and a directory of one host
    counts as data there.
    """
    rows: List[Dict[str, Any]] = []
    for msg_type, count in message_counts(result.stat_items(), scope):
        total_bytes = result.stat(f"bytes.{scope}.{msg_type}")
        rows.append({
            "type": msg_type,
            "messages": int(count),
            "bytes": int(total_bytes),
            "control": msg_type in CONTROL_TYPES,
        })
    if scope == "inter_host":
        control = [row for row in rows if row["control"]]
        barriers = int(result.stat("msgs.inter_host.ctrl_count")) - sum(
            row["messages"] for row in control)
        if barriers:
            barrier_bytes = int(result.stat("traffic.inter_host.ctrl")) - sum(
                row["bytes"] for row in control)
            carrier = next(row for row in rows
                           if row["type"] in _BARRIER_CARRIERS)
            carrier["messages"] -= barriers
            carrier["bytes"] -= barrier_bytes
            if not carrier["messages"]:
                rows.remove(carrier)
            rows.append(dict(carrier, messages=barriers,
                             bytes=barrier_bytes, control=True))
    rows.sort(key=lambda r: -r["bytes"])
    total = sum(r["bytes"] for r in rows) or 1
    for row in rows:
        row["share_pct"] = 100.0 * row["bytes"] / total
    return rows


def stall_attribution_rows(
    result: RunResult, time_ns: Optional[float] = None
) -> List[Dict[str, Any]]:
    """Per-(actor, cause) stall attribution for a *traced* run.

    Each row carries the span count, total stalled time and — when the
    run's execution time is known — the Fig. 2-style percentage of that
    time.  Raises :class:`ValueError` for untraced runs (build the
    machine with ``trace=True``).
    """
    trace = result.trace
    if trace is None:
        raise ValueError(
            "run was not traced; build the Machine with trace=True"
        )
    from repro.trace import stall_attribution
    rows = stall_attribution(trace)
    time_ns = time_ns if time_ns is not None else result.time_ns
    for row in rows:
        row["time_pct"] = (
            100.0 * row["total_ns"] / time_ns if time_ns > 0 else 0.0
        )
    return rows


def protocol_comparison(
    app_name: str,
    protocols: Sequence[str] = ("mp", "cord", "so"),
    config: Optional[SystemConfig] = None,
    consistency: str = "rc",
) -> List[Dict[str, Any]]:
    """Message breakdowns for one Table-2 app across protocols, one seed-0
    run each through the default executor."""
    if app_name not in APPLICATIONS:
        raise KeyError(f"unknown application {app_name!r}")
    config = config or default_config()
    specs = [
        _app_spec(app_name, protocol, config, consistency,
                  experiment="breakdown")
        for protocol in protocols
    ]
    rows: List[Dict[str, Any]] = []
    for protocol, record in zip(protocols, default_executor().map(specs)):
        for row in message_breakdown(record):
            rows.append(dict(row, protocol=protocol, app=app_name))
    return rows
