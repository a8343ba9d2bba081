"""Deterministic, seeded fault injection for the timed fabric.

CORD's guarantees are argued over a reliable, per-pair-FIFO interconnect,
but the CXL/UPI links it targets really run link-level retry, bandwidth
degradation and link flaps.  This module models that *transport adversity*
for the timed simulator:

* :class:`FaultPlan` — a frozen, cache-key-compatible description of the
  scenarios to inject: transient loss absorbed as retry-retransmit latency
  (:class:`DropSpec`), duplicate delivery (:class:`DuplicateSpec`),
  periodic bandwidth-degradation windows (:class:`DegradeSpec`), link
  flaps (:class:`FlapSpec`) and per-node stall windows (:class:`StallSpec`).
* :class:`FaultInjector` — the per-machine runtime consulted by
  :meth:`repro.interconnect.network.Network.send` for every message
  (only through the hooks its plan can act through).  All
  randomness comes from one :class:`~repro.sim.rng.DeterministicRng`
  stream derived from the machine seed and the plan seed, so the same
  (seed, plan) pair always injects the same faults; every injection is
  counted under ``faults.*`` in the :class:`~repro.sim.stats.StatRegistry`
  and recorded as a trace instant when tracing is on.
* Duplicate suppression on the pair channel, built on
  :mod:`repro.core.seqnum`: the network's per-(src, dst) channel counts
  its messages, the injector stamps each with that count wrapped to
  ``dedup_bits``, and :meth:`FaultInjector.accept` hands a delivery to
  the destination's handler only if it is the first.

Division of labour with the model checker: the untimed
:class:`~repro.litmus.model_checker.ModelChecker` owns *adversarial
reordering* (it explores every delivery interleaving the ordering rules
allow); this layer owns *transport adversity on the timed fabric* — delay,
duplication and degradation that never violate the per-pair FIFO contract.
A lost message is therefore modelled as its link-level retry cost (the
fabric is lossless above the link layer, as CXL/UPI are), so safety and
deadlock-freedom must survive any plan; the fault-enabled litmus sweeps
(:func:`repro.litmus.runner.fault_sweep`) assert exactly that.

With no plan attached (``faults=None`` everywhere, the default) every
integration site is a single ``if faults is not None:`` test and results
are byte-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.core.seqnum import unwrap

__all__ = [
    "DropSpec",
    "DuplicateSpec",
    "DegradeSpec",
    "FlapSpec",
    "StallSpec",
    "FaultPlan",
    "FaultInjector",
    "fault_presets",
    "parse_faults",
]


# ---------------------------------------------------------------------------
# Scenario specs (frozen; only canonical-JSON field types, so a FaultPlan
# can sit inside a RunSpec and participate in the executor's cache key)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DropSpec:
    """Transient loss on the inter-host link, absorbed by link-level retry.

    Each cross-host message independently loses its first transmission with
    probability ``rate``; every loss costs ``retransmit_ns`` of added
    delivery latency and re-consumes the message's bytes on the link
    (counted as ``faults.retransmit_bytes``).  Losses chain geometrically
    up to ``max_retries`` — the fabric is lossless above the link layer,
    exactly like CXL/UPI retry, so no protocol message ever disappears.
    """

    rate: float = 0.0
    retransmit_ns: float = 250.0
    max_retries: int = 4


@dataclass(frozen=True)
class DuplicateSpec:
    """Duplicate delivery: a message arrives again ``delay_ns`` later.

    The duplicate consumes link bandwidth like the original and respects
    per-pair FIFO (it is delivered after the original).  The pair channel
    suppresses it before the endpoint's handler
    (:meth:`FaultInjector.accept`).
    """

    rate: float = 0.0
    delay_ns: float = 60.0


@dataclass(frozen=True)
class DegradeSpec:
    """Periodic bandwidth-degradation windows on the inter-host link.

    While ``(depart - offset_ns) mod period_ns < window_ns``, serialization
    time is multiplied by ``factor`` (e.g. a x4 factor models the link
    retraining at quarter width).  Deterministic — no randomness.
    """

    period_ns: float = 0.0
    window_ns: float = 0.0
    factor: float = 1.0
    offset_ns: float = 0.0


@dataclass(frozen=True)
class FlapSpec:
    """Periodic link flaps: the egress link is down for ``down_ns`` at the
    start of every ``period_ns`` window (shifted by ``offset_ns``).

    ``host`` restricts the flap to one source host (``-1`` = every host).
    A message that wants to depart inside a down window waits for the link
    to come back up; nothing is lost.  A link's flaps are the every-host
    ones plus its own host's, and together they must leave it up some of
    the time (see :class:`FaultPlan`).
    """

    period_ns: float = 0.0
    down_ns: float = 0.0
    offset_ns: float = 0.0
    host: int = -1


@dataclass(frozen=True)
class StallSpec:
    """A one-shot per-node stall window: deliveries *to* matching nodes
    during ``[start_ns, start_ns + duration_ns)`` are held until the window
    ends (an endpoint hiccup — e.g. a directory busy with unrelated work).

    ``kind``/``index``/``host`` select the node (``""``/``-1`` = wildcard).
    """

    start_ns: float
    duration_ns: float
    kind: str = ""
    index: int = -1
    host: int = -1


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault scenario for one run.

    Frozen and built only from canonical-JSON-compatible types, so it can
    live on a :class:`~repro.harness.executor.RunSpec` (where it is part of
    the cache key and of the derived seed — faults are *physical*, unlike
    tracing).  ``seed`` decorrelates the injector's random stream from the
    machine seed; ``dedup_bits`` sizes the wire sequence numbers used for
    duplicate suppression: at least 2, since with one bit :func:`unwrap`
    ties and every in-order message after the first reads as a repeat.
    On every source link the active flaps' ``down_ns / period_ns`` must
    sum to less than 1: at 1 or more their down windows can cover all
    time, and a departure would wait for an up instant that never comes.
    """

    drop: Optional[DropSpec] = None
    duplicate: Optional[DuplicateSpec] = None
    degrade: Optional[DegradeSpec] = None
    flaps: Tuple[FlapSpec, ...] = ()
    stalls: Tuple[StallSpec, ...] = ()
    seed: int = 0
    dedup_bits: int = 16

    def __post_init__(self) -> None:
        if self.dedup_bits < 2:
            raise ValueError(
                f"dedup_bits must be at least 2, got {self.dedup_bits}")
        # A source link's flaps are the every-host ones plus its host's.
        shared = 0.0
        per_host: Dict[int, float] = {}
        for flap in self.flaps:
            if flap.period_ns > 0 and flap.down_ns > 0:
                share = flap.down_ns / flap.period_ns
                if flap.host < 0:
                    shared += share
                else:
                    per_host[flap.host] = per_host.get(flap.host, 0.0) + share
        down = shared + max(per_host.values(), default=0.0)
        if down >= 1:
            raise ValueError(
                f"flaps: the down windows on one link add up to {down:g} "
                "of the time (the sum of down_ns/period_ns must stay below "
                "1, or the link may never come up)")

    @property
    def enabled(self) -> bool:
        return bool(
            (self.drop is not None and self.drop.rate > 0)
            or (self.duplicate is not None and self.duplicate.rate > 0)
            or (self.degrade is not None and self.degrade.period_ns > 0
                and self.degrade.factor != 1.0)
            or any(f.period_ns > 0 and f.down_ns > 0 for f in self.flaps)
            or any(s.duration_ns > 0 for s in self.stalls)
        )

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """Combine two plans: ``other``'s scalar scenarios win where set;
        flap/stall windows are concatenated."""
        return FaultPlan(
            drop=other.drop if other.drop is not None else self.drop,
            duplicate=(other.duplicate if other.duplicate is not None
                       else self.duplicate),
            degrade=(other.degrade if other.degrade is not None
                     else self.degrade),
            flaps=self.flaps + other.flaps,
            stalls=self.stalls + other.stalls,
            seed=other.seed or self.seed,
            dedup_bits=other.dedup_bits,
        )


def fault_presets() -> Dict[str, FaultPlan]:
    """Named building-block plans for the CLI's ``--faults`` flag."""
    return {
        "drop": FaultPlan(drop=DropSpec(rate=0.05)),
        "dup": FaultPlan(duplicate=DuplicateSpec(rate=0.05)),
        "flap": FaultPlan(flaps=(
            FlapSpec(period_ns=20_000.0, down_ns=1_500.0, offset_ns=3_000.0),
        )),
        "degrade": FaultPlan(degrade=DegradeSpec(
            period_ns=10_000.0, window_ns=2_500.0, factor=4.0,
        )),
        "stall": FaultPlan(stalls=(
            StallSpec(start_ns=2_000.0, duration_ns=1_000.0, kind="dir"),
        )),
    }


def parse_faults(text: str) -> FaultPlan:
    """Parse a ``+``-separated preset expression (``"drop+dup+flap"``)."""
    presets = fault_presets()
    plan = FaultPlan()
    for name in filter(None, (part.strip() for part in text.split("+"))):
        if name not in presets:
            raise ValueError(
                f"unknown fault preset {name!r}; choose from "
                f"{sorted(presets)} joined with '+'"
            )
        plan = plan.merge(presets[name])
    return plan


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------
class FaultInjector:
    """Runtime fault state for one machine.

    Holds the plan and a deterministic RNG stream; the wire sequence
    counts live on the network's pair channel, which passes its send
    count to :meth:`assign_seq` and itself to :meth:`accept`.  The
    network consults the injector per send, and schedules :meth:`accept`
    for each faulted delivery.

    A link-side hook is called only when its ``has_*`` flag says the plan
    contains its scenario: :meth:`link_ready_ns` needs an active flap,
    :meth:`serialization_factor` a degrade window, :meth:`release_ns` a
    stall window, and :meth:`retry_delay_ns` drops (cross-host sends
    only).  A hook left uncalled would have returned its input unchanged
    without drawing from the RNG, so the draws that remain keep their
    order.  Stall windows are applied until none holds the delivery, and
    flaps until none holds the departure, so overlapping windows hold a
    message the same whatever their order in the plan.
    """

    def __init__(self, plan: FaultPlan, sim, stats, trace=None,
                 seed: int = 0) -> None:
        from repro.sim.rng import DeterministicRng
        self.plan = plan
        self.sim = sim
        self.stats = stats
        self.trace = trace
        self._rng = DeterministicRng(seed).child(f"faults.{plan.seed}")
        self._bits = plan.dedup_bits
        self._mask = (1 << plan.dedup_bits) - 1
        self._flaps = tuple(flap for flap in plan.flaps
                            if flap.period_ns > 0 and flap.down_ns > 0)
        self._stalls = tuple(stall for stall in plan.stalls
                             if stall.duration_ns > 0)
        degrade = plan.degrade
        self.has_flaps = bool(self._flaps)
        self.has_degrade = (degrade is not None and degrade.period_ns > 0
                            and degrade.factor != 1.0)
        self.has_drops = plan.drop is not None and plan.drop.rate > 0
        self.has_stalls = bool(self._stalls)

    # -- shared plumbing ----------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        self.stats.counter(f"faults.{name}").add(amount)

    def _record(self, message, name: str, **args: Any) -> None:
        self._count("injected")
        if self.trace:
            self.trace.instant(str(message.src), f"fault.{name}",
                               self.sim.now, uid=message.uid,
                               dst=str(message.dst), **args)

    # -- link-side hooks (called by Network.send) ---------------------
    def link_ready_ns(self, message, depart: float) -> float:
        """Flap windows: delay departure until the egress link is up.

        A hold by one flap can land inside a flap already checked, so
        the pass repeats until no flap holds the departure.  It ends
        because :class:`FaultPlan` keeps each link's down share below 1:
        every long enough interval then has up time, and each hold moves
        the departure to a window end no later than the first up instant.
        The flap that made the last hold is not asked again until another
        one moves the departure, since its own window end is up for it.
        """
        host = message.src.host
        delayed = depart
        holder = None
        while True:
            last = holder
            for flap in self._flaps:
                if flap is last or (flap.host >= 0 and host != flap.host):
                    continue
                phase = (delayed - flap.offset_ns) % flap.period_ns
                if 0 <= phase < flap.down_ns:
                    ready = delayed + (flap.down_ns - phase)
                    if ready > delayed:
                        delayed, holder = ready, flap
            if holder is last:
                break
        if delayed > depart:
            self._count("flap")
            self._count("flap_delay_ns", delayed - depart)
            self._record(message, "flap", delay_ns=delayed - depart)
        return delayed

    def serialization_factor(self, message, depart: float) -> float:
        """Bandwidth-degradation windows: slow serialization while inside."""
        spec = self.plan.degrade
        phase = (depart - spec.offset_ns) % spec.period_ns
        if 0 <= phase < spec.window_ns:
            self._count("degrade")
            self._record(message, "degrade", factor=spec.factor)
            return spec.factor
        return 1.0

    def retry_delay_ns(self, message) -> float:
        """Transient loss on a cross-host send: geometric retransmit
        latency."""
        spec = self.plan.drop
        delay = 0.0
        for _ in range(max(spec.max_retries, 1)):
            if self._rng.random() >= spec.rate:
                break
            delay += spec.retransmit_ns
            self._count("drop")
            self._count("retransmit_bytes", message.size_bytes)
        if delay > 0:
            self._count("drop_delay_ns", delay)
            self._record(message, "drop", delay_ns=delay)
        return delay

    def release_ns(self, message, arrival: float) -> float:
        """Per-node stall windows: hold deliveries to a stalled endpoint
        until no window holds them.  A hold can land inside a window
        already checked, so the pass repeats; it ends because a window
        releases past its own end, and so moves the delivery once."""
        dst = message.dst
        held = arrival
        moved = True
        while moved:
            moved = False
            for stall in self._stalls:
                if stall.kind and dst.kind != stall.kind:
                    continue
                if stall.index >= 0 and dst.index != stall.index:
                    continue
                if stall.host >= 0 and dst.host != stall.host:
                    continue
                end = stall.start_ns + stall.duration_ns
                if stall.start_ns <= held < end:
                    held = end
                    moved = True
        if held > arrival:
            self._count("node_stall")
            self._count("node_stall_delay_ns", held - arrival)
            self._record(message, "node_stall", delay_ns=held - arrival)
        return held

    def duplicate_delay_ns(self, message) -> Optional[float]:
        """Decide whether to also deliver a duplicate; returns its extra
        delay past the original arrival, or None."""
        spec = self.plan.duplicate
        if spec is None or spec.rate <= 0:
            return None
        if self._rng.random() >= spec.rate:
            return None
        self._count("duplicate")
        self._record(message, "duplicate", delay_ns=spec.delay_ns)
        return max(spec.delay_ns, 0.0)

    def assign_seq(self, message, count: int) -> None:
        """Stamp ``message`` with ``count``, its number on its (src, dst)
        channel, wrapped to the plan's ``dedup_bits``."""
        message.seq = count & self._mask     # seqnum.wrap, without a call

    # -- delivery hook (scheduled by Network.send) ---------------------
    def accept(self, channel, message) -> None:
        """Deliver ``message`` to ``channel``'s handler unless it repeats
        a number the channel accepted (``faults.dup_suppressed``).

        Per-pair FIFO makes first deliveries arrive in order, so the
        in-order case skips :func:`unwrap`, which for ``dedup_bits >= 2``
        returns exactly ``channel.accepted + 1`` there.
        """
        seq = message.seq
        last = channel.accepted
        if seq == (last + 1) & self._mask:
            value = last + 1
        else:
            value = unwrap(seq, last, self._bits)
            if value <= last:
                self._count("dup_suppressed")
                if self.trace:
                    self.trace.instant(str(message.dst),
                                       "fault.dup_suppressed", self.sim.now,
                                       uid=message.uid, src=str(message.src))
                return
        channel.accepted = value
        channel.handler(message)

    # -- diagnostics ---------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Injector state for watchdog diagnostics."""
        counts = {
            name: value for name, value in self.stats.as_dict().items()
            if name.startswith("faults.")
        }
        return {"plan": _plan_summary(self.plan), "counts": counts}


def _plan_summary(plan: FaultPlan) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in fields(plan):
        value = getattr(plan, f.name)
        if value in (None, (), 0, 16) and f.name not in ("seed",):
            continue
        out[f.name] = str(value)
    return out
