"""Statistics collection for simulations.

Every measured quantity in the reproduction (execution time, traffic bytes,
stall time, table occupancy, message counts) flows through a
:class:`StatRegistry` so experiment harnesses can introspect runs uniformly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Counter", "MaxTracker", "Accumulator", "StatRegistry", "RunStats",
           "message_counts", "inter_host_messages"]


class Counter:
    """A monotonically increasing counter (events, bytes, stalls...).

    A ``__slots__`` class rather than a dataclass: counters are bumped on
    every message send and stall on the hot path, and hot-path callers
    cache the handle and call :meth:`add` directly.  (Hand-written slots
    because ``@dataclass(slots=True)`` needs Python 3.10.)
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter(name={self.name!r}, value={self.value!r})"


@dataclass
class MaxTracker:
    """Tracks the maximum of a time-varying quantity (e.g. table occupancy)."""

    name: str
    current: float = 0.0
    maximum: float = 0.0

    def set(self, value: float) -> None:
        self.current = value
        if value > self.maximum:
            self.maximum = value

    def add(self, delta: float) -> None:
        self.set(self.current + delta)


@dataclass
class Accumulator:
    """Accumulates samples; reports count/sum/mean/min/max."""

    name: str
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    _samples: List[float] = field(default_factory=list)
    keep_samples: bool = False

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self.keep_samples:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (0-100) of the kept samples.

        Linear interpolation between the two closest ranks (numpy's
        default ``"linear"`` method) — the one method implemented here.
        Requires ``keep_samples``; returns ``None`` when no samples were
        kept, so a never-sampled distribution is distinguishable from
        one whose percentile is genuinely 0.0.  Raises ``ValueError`` for
        ``q`` outside 0-100 rather than extrapolating past the samples.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(
                "percentile q must be in the range 0-100, got {!r}".format(q))
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50.0)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95.0)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99.0)


class StatRegistry:
    """Named statistics, grouped by dotted paths like ``traffic.inter_host.ctrl``."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._max_trackers: Dict[str, MaxTracker] = {}
        self._accumulators: Dict[str, Accumulator] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def max_tracker(self, name: str) -> MaxTracker:
        if name not in self._max_trackers:
            self._max_trackers[name] = MaxTracker(name)
        return self._max_trackers[name]

    def accumulator(self, name: str, keep_samples: bool = False) -> Accumulator:
        acc = self._accumulators.get(name)
        if acc is None:
            acc = Accumulator(name, keep_samples=keep_samples)
            self._accumulators[name] = acc
        elif keep_samples and not acc.keep_samples:
            # Upgrade in place: a later keep_samples=True request must not
            # be silently dropped just because the accumulator already
            # existed (samples accrue from this point on).
            acc.keep_samples = True
        return acc

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value(self, name: str) -> float:
        """Counter value (0.0 if the counter was never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter else 0.0

    def max_value(self, name: str) -> float:
        tracker = self._max_trackers.get(name)
        return tracker.maximum if tracker else 0.0

    def sum_matching(self, prefix: str) -> float:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(c.value for n, c in self._counters.items() if n.startswith(prefix))

    def as_dict(self) -> Dict[str, float]:
        result: Dict[str, float] = {}
        for name, counter in self._counters.items():
            result[name] = counter.value
        for name, tracker in self._max_trackers.items():
            result[f"{name}.max"] = tracker.maximum
        for name, acc in self._accumulators.items():
            result[f"{name}.count"] = acc.count
            result[f"{name}.total"] = acc.total
            result[f"{name}.mean"] = acc.mean
            # min/max make a cached RunRecord reproduce the tail statistics
            # a live RunResult can report (0.0 when no samples were added).
            result[f"{name}.min"] = acc.minimum if acc.minimum is not None else 0.0
            result[f"{name}.max"] = acc.maximum if acc.maximum is not None else 0.0
            if acc.keep_samples and acc._samples:
                # Percentiles need the raw samples, so only sample-keeping
                # accumulators export them (cached records then carry the
                # tail latencies the scale experiment reports).  A
                # never-sampled accumulator exports *no* percentile keys
                # rather than a fake 0.0 — consumers that fall back to 0.0
                # (``RunRecord.stat``) still see the old default, but the
                # export itself no longer claims a measured zero.
                result[f"{name}.p50"] = acc.p50
                result[f"{name}.p95"] = acc.p95
                result[f"{name}.p99"] = acc.p99
        return result

    def grouped(self) -> Dict[str, Dict[str, float]]:
        """Counters grouped by their first dotted component."""
        groups: Dict[str, Dict[str, float]] = defaultdict(dict)
        for name, value in self.as_dict().items():
            head, _, tail = name.partition(".")
            groups[head][tail or head] = value
        return dict(groups)


def message_counts(items: Iterable[Tuple[str, float]],
                   scope: str = "inter_host") -> Iterator[Tuple[str, float]]:
    """``(message type, count)`` for each per-type message counter of
    ``scope`` among ``items``, the ``(name, value)`` pairs of
    :meth:`StatRegistry.as_dict`.

    Skips ``msgs.inter_host.ctrl_count``: the network bumps it for every
    control message on top of that message's own type counter.
    """
    prefix = f"msgs.{scope}."
    for name, count in items:
        if name.startswith(prefix) and name != "msgs.inter_host.ctrl_count":
            yield name[len(prefix):], count


def inter_host_messages(items: Iterable[Tuple[str, float]]) -> int:
    """Inter-host messages sent, each counted once, among ``items``
    (``(name, value)`` pairs as for :func:`message_counts`)."""
    return int(sum(count for _, count in message_counts(items)))


class RunStats:
    """Traffic and stall accessors over one finished run's statistics.

    :class:`~repro.protocols.machine.RunResult` (a live run) and
    :class:`~repro.harness.executor.RunRecord` (its serializable, cacheable
    form) both derive from this, so harness code reads either one the same
    way.  A subclass supplies :meth:`stat` and :meth:`stat_items`; every
    accessor here reads counters through those two.
    """

    __slots__ = ()

    def stat(self, name: str) -> float:
        """The named counter's value (0.0 if the run never touched it).

        Only counter names read alike on every subclass: a ``RunRecord``
        also answers the derived names of :meth:`StatRegistry.as_dict`
        (``<name>.max``, ``.total``, ``.p99`` ...), a ``RunResult`` reads
        those as 0.0.  The accessors below therefore ask for counters
        alone.
        """
        raise NotImplementedError

    def stat_items(self) -> Iterable[Tuple[str, float]]:
        """Every ``(name, value)`` pair of the flattened stats, in
        :meth:`StatRegistry.as_dict` order."""
        raise NotImplementedError

    # The paper's "traffic" is inter-host bytes.
    @property
    def inter_host_bytes(self) -> float:
        return self.stat("traffic.inter_host.total")

    @property
    def inter_host_control_bytes(self) -> float:
        return self.stat("traffic.inter_host.ctrl")

    @property
    def inter_host_data_bytes(self) -> float:
        return self.stat("traffic.inter_host.data")

    def message_count(self, msg_type: str, scope: str = "inter_host") -> float:
        return self.stat(f"msgs.{scope}.{msg_type}")

    def stall_ns(self, cause: Optional[str] = None) -> float:
        """Stall time for one cause, or summed over every cause."""
        if cause is None:
            return sum((value for name, value in self.stat_items()
                        if name.startswith("stall.")), 0.0)
        return self.stat(f"stall.{cause}")

    def core_stall_ns(self, core_id: int, cause: str) -> float:
        return self.stat(f"core{core_id}.stall.{cause}")
