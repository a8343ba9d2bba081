"""Parallel sweep execution with on-disk result caching.

Every figure/table experiment decomposes into independent simulations:
one :class:`~repro.protocols.machine.Machine` run per (protocol, workload,
config) point.  This module turns that structure into infrastructure:

* :class:`RunSpec` — a frozen, picklable description of one simulation
  (protocol x workload x ``SystemConfig`` point, plus consistency mode,
  CORD table provisioning, seed and event budget).
* :class:`RunRecord` — the serializable measurements of one run: final
  stats, timings, per-node peak storage, event count and a final-state
  hash.  It shares the accessors experiments use on
  :class:`~repro.protocols.machine.RunResult` (``inter_host_bytes``,
  ``core_stall_ns`` ...) so harness code is agnostic to which one it holds.
* :class:`Executor` — expands experiments into flat spec lists, runs them
  across a ``multiprocessing`` worker pool, memoizes completed runs in a
  content-addressed on-disk cache, and appends per-run metadata to a JSONL
  run log.

Cache keying
------------
A run's cache key is the SHA-256 of the canonical JSON form of its
:class:`RunSpec` (every nested dataclass serialized field-by-field with its
class name, ``compare=False`` fields left out) combined with a *code
version* — the hash of every ``*.py`` file in the installed ``repro``
package.  Any change to the simulator, the protocols or the spec
therefore invalidates exactly the affected entries; identical reruns are
pure cache hits.  Records round-trip through JSON losslessly (Python
floats serialize via ``repr``), so a cached record compares equal to a
freshly computed one.

Determinism
-----------
Workers receive the full spec (including the seed) and build the machine
from scratch, so a run computed in a pool worker is bit-identical to the
same run computed inline (DESIGN.md §4); ``tests/harness/test_determinism``
pins this.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.config import CordConfig, SystemConfig
from repro.faults import FaultPlan, parse_faults
from repro.sim import SimulationError
from repro.sim.stats import RunStats, inter_host_messages
from repro.workloads.ata import AtaSpec, build_ata_programs
from repro.workloads.base import WorkloadSpec, build_workload_programs
from repro.workloads.micro import MicroSpec, build_micro_programs
from repro.workloads.openloop import OpenLoopSpec, build_openloop_programs

__all__ = [
    "RunSpec",
    "RunRecord",
    "Executor",
    "SweepError",
    "spec_key",
    "register_spec_type",
    "code_version",
    "default_cache_dir",
    "default_executor",
    "set_default_executor",
    "read_run_log",
]

Workload = Union[WorkloadSpec, MicroSpec, AtaSpec, OpenLoopSpec]

#: Workload kinds an executor knows how to build programs for.
_BUILDERS = {
    "app": build_workload_programs,
    "micro": build_micro_programs,
    "ata": build_ata_programs,
    "openloop": build_openloop_programs,
}


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One independent simulation: protocol x workload x config point."""

    kind: str                              # "app" | "micro" | "ata" | "openloop"
    protocol: str
    workload: Workload
    config: SystemConfig
    consistency: str = "rc"
    #: Overrides ``config.cord`` when set (Fig. 10's bit-width sweeps).
    cord_config: Optional[CordConfig] = None
    #: Machine seed; ``None`` derives a stable per-spec seed from the
    #: spec's content hash (deterministic across processes and sweeps).
    seed: Optional[int] = None
    max_events: Optional[int] = 20_000_000
    #: Experiment label for the run log (e.g. ``"fig7"``).
    experiment: str = ""
    #: Record a message/stall trace for this run (see :mod:`repro.trace`).
    #: Tracing is observational only — simulation results are identical —
    #: but the flag participates in the cache key so traced and untraced
    #: records are kept apart (their summaries differ).
    trace: bool = False
    #: Fault-injection plan (see :mod:`repro.faults`).  Unlike ``trace``
    #: this is a *physical* field: it changes timing and traffic, so it
    #: participates in both the cache key and the derived seed.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.kind not in _BUILDERS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; "
                f"choose from {sorted(_BUILDERS)}"
            )

    @property
    def workload_label(self) -> str:
        if isinstance(self.workload, WorkloadSpec):
            return self.workload.name
        if isinstance(self.workload, MicroSpec):
            w = self.workload
            return (f"micro.g{w.store_granularity}.s{w.sync_granularity}"
                    f".f{w.fanout}")
        if isinstance(self.workload, OpenLoopSpec):
            w = self.workload
            return (f"openloop.{w.arrival}.i{w.interarrival_ns:g}"
                    f".r{w.requests}.f{w.fanout}")
        return f"ata.r{self.workload.rounds}"

    @property
    def effective_seed(self) -> int:
        """Stable per-spec seed derived from *physical* fields only.

        Observational fields (``trace``, ``experiment``, ``max_events``)
        are excluded: an ``Executor(trace_dir=...)`` rewrite to
        ``trace=True`` or a run-log relabel must simulate the *same* run
        (the "tracing is observational only" contract, pinned by test).
        """
        if self.seed is not None:
            return self.seed
        physical = _canonical(self)
        for name in _OBSERVATIONAL_FIELDS:
            physical.pop(name, None)
        payload = json.dumps(physical, sort_keys=True,
                             separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).digest()
        return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


#: RunSpec fields that describe how a run is *observed*, not what is
#: simulated; they stay in the cache key (records differ) but must not
#: leak into the derived seed.
_OBSERVATIONAL_FIELDS = ("max_events", "experiment", "trace")


def _canonical(obj: Any) -> Any:
    """JSON-serializable canonical form (dataclasses tagged by class name).

    Dataclass fields declared ``compare=False`` are left out: they say how
    a result is computed, not what it is (a check spec's visited-set
    storage), so they must not split the cache.
    """
    if isinstance(obj, enum.Enum):
        # Enums (e.g. Ordering inside a LitmusTest program) canonicalize
        # by class and member name; must precede the int/str scalar cases
        # (IntEnum-style members are ints).
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.compare:
                out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {
            str(k): _canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def _canonical_json(spec: Any) -> str:
    return json.dumps(_canonical(spec), sort_keys=True,
                      separators=(",", ":"))


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``*.py`` file in the ``repro`` package.

    Part of every cache key, so editing any simulator/protocol source
    invalidates previously cached runs.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


def spec_key(spec: Any, version: Optional[str] = None) -> str:
    """Content-addressed cache key of one run (any registered spec type)."""
    version = version if version is not None else code_version()
    payload = f"{version}\n{_canonical_json(spec)}"
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Spec-type extensions
# ---------------------------------------------------------------------------
#: Spec class -> top-level (picklable) worker ``fn(spec, trace_dir) ->
#: record``.  :class:`RunSpec` is pre-registered below; other harness
#: modules (e.g. :mod:`repro.harness.modelcheck`) register theirs on import.
_SPEC_WORKERS: Dict[type, Any] = {}
#: Record ``kind`` tag -> deserializer ``fn(data, cached) -> record`` used
#: when loading cache entries (each record's ``kind`` field picks its class).
_RECORD_LOADERS: Dict[str, Any] = {}


def register_spec_type(spec_cls: type, worker: Any, record_kinds: Sequence[str],
                       record_loader: Any) -> None:
    """Teach the executor a new spec type.

    ``worker`` must be a module-level function (pickled into pool
    workers) taking ``(spec, trace_dir)``; ``record_loader`` rebuilds the
    record from its cached dict form for each ``kind`` tag in
    ``record_kinds``.  Records must carry the ``_log`` fields
    (``experiment``/``spec_key``/``kind``/``protocol``/``workload``/
    ``time_ns``/``quiesce_ns``/``wall_time_s``/``events``/``stats``/
    ``cached``/``trace_path`` plus ``stat()`` and ``inter_host_bytes``)
    and specs the :class:`SweepError` ones (``protocol``/
    ``workload_label``/``kind``).
    """
    _SPEC_WORKERS[spec_cls] = worker
    for kind in record_kinds:
        _RECORD_LOADERS[kind] = record_loader


def _worker_for(spec: Any) -> Any:
    worker = _SPEC_WORKERS.get(type(spec))
    if worker is None:
        raise TypeError(
            f"no executor worker registered for spec type "
            f"{type(spec).__name__}"
        )
    # Resolve through the defining module at call time so monkeypatching
    # the module-level function (e.g. ``executor._execute_spec``) still
    # intercepts dispatch, as it did before the registry existed.
    module = sys.modules.get(getattr(worker, "__module__", ""))
    return getattr(module, worker.__name__, worker) if module else worker


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
@dataclass
class RunRecord(RunStats):
    """Serializable measurements of one completed run.

    Shares :class:`~repro.protocols.machine.RunResult`'s traffic and stall
    accessors (both derive from :class:`~repro.sim.stats.RunStats`), but
    carries no live simulator state, so it crosses process boundaries and
    round-trips through the on-disk cache losslessly.
    """

    spec_key: str
    experiment: str
    kind: str
    protocol: str
    workload: str
    time_ns: float
    quiesce_ns: float
    core_finish_ns: Dict[int, float]
    stats: Dict[str, float]
    proc_storage: Dict[int, Dict[str, int]]
    dir_storage: Dict[int, Dict[str, int]]
    events: int
    final_state_hash: str
    wall_time_s: float
    #: §5.4 energy estimate (``link_nj``/``llc_nj``/``table_nj``/
    #: ``total_nj``), computed by the worker while the machine is live —
    #: :func:`repro.overheads.energy.estimate_energy` needs directory
    #: state a cached record no longer has.  Kept out of ``stats`` so the
    #: pinned final-state hashes (which digest the stats dict) are
    #: untouched.
    energy: Dict[str, float] = field(default_factory=dict)
    cached: bool = False
    #: Traced runs only: exported Chrome-trace path (None when the run
    #: was untraced or no trace directory was configured), per-actor
    #: stall-attribution rows, and the collector's volume counters.
    trace_path: Optional[str] = None
    trace_stalls: List[Dict[str, Any]] = field(default_factory=list)
    trace_events: int = 0
    trace_dropped: int = 0

    # -- RunStats accessors ---------------------------------------------
    def stat(self, name: str) -> float:
        return self.stats.get(name, 0.0)

    def stat_items(self) -> Iterable[Tuple[str, float]]:
        return self.stats.items()

    def span_stall_ns(self, cause: Optional[str] = None,
                      core: Optional[int] = None) -> float:
        """Stall time derived from trace spans (traced runs only).

        The counter-derived :meth:`core_stall_ns` and this span-derived
        path measure the same stalls through independent plumbing; the
        trace tests differentially check they agree.
        """
        total = 0.0
        for row in self.trace_stalls:
            if cause is not None and row["cause"] != cause:
                continue
            if core is not None and not row["actor"].startswith(
                f"core{core}@"
            ):
                continue
            total += row["total_ns"]
        return total

    def storage_report(self):
        from repro.overheads.storage import StorageReport
        return StorageReport(
            per_core=dict(self.proc_storage), per_dir=dict(self.dir_storage)
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data.pop("cached")
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any], cached: bool = False
                  ) -> "RunRecord":
        data = dict(data)
        data.setdefault("energy", {})
        data["core_finish_ns"] = {
            int(k): v for k, v in data["core_finish_ns"].items()
        }
        for key in ("proc_storage", "dir_storage"):
            data[key] = {int(k): v for k, v in data[key].items()}
        return cls(cached=cached, **data)


def _final_state_hash(result, stats: Dict[str, float]) -> str:
    """Stable digest of a run's observable final state (registers + stats)."""
    registers = {
        f"{core}:{reg}": value
        for (core, reg), value in result.history.registers.items()
    }
    payload = json.dumps(
        {"registers": registers, "time_ns": result.time_ns,
         "quiesce_ns": result.quiesce_ns, "stats": stats},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _execute_spec(spec: RunSpec,
                  trace_dir: Optional[str] = None) -> RunRecord:
    """Worker entry point: build the machine, run it, harvest a record."""
    from repro.overheads.energy import estimate_energy
    from repro.overheads.storage import collect_storage
    from repro.protocols.machine import Machine

    started = time.perf_counter()
    config = spec.config
    if spec.cord_config is not None:
        config = replace(config, cord=spec.cord_config)
    machine = Machine(config, protocol=spec.protocol,
                      consistency=spec.consistency, seed=spec.effective_seed,
                      trace=spec.trace, faults=spec.faults)
    programs = _BUILDERS[spec.kind](spec.workload, config)
    result = machine.run(programs, max_events=spec.max_events)
    storage = collect_storage(result)
    stats = result.stats.as_dict()
    energy_report = estimate_energy(result)
    energy = {
        "link_nj": energy_report.link_nj,
        "llc_nj": energy_report.llc_nj,
        "table_nj": energy_report.table_nj,
        "total_nj": energy_report.total_nj,
    }
    key = spec_key(spec)

    trace_path: Optional[str] = None
    trace_stalls: List[Dict[str, Any]] = []
    trace_events = trace_dropped = 0
    if machine.trace is not None:
        from repro.trace import stall_attribution, write_chrome_trace
        trace_stalls = stall_attribution(machine.trace)
        trace_events = len(machine.trace)
        trace_dropped = machine.trace.dropped
        if trace_dir is not None:
            label = "-".join(filter(None, (
                spec.experiment or spec.kind, spec.protocol, key[:12]
            )))
            trace_path = str(write_chrome_trace(
                machine.trace, Path(trace_dir) / f"{label}.trace.json",
                label=label,
            ))

    return RunRecord(
        spec_key=key,
        experiment=spec.experiment,
        kind=spec.kind,
        protocol=spec.protocol,
        workload=spec.workload_label,
        time_ns=result.time_ns,
        quiesce_ns=result.quiesce_ns,
        core_finish_ns=dict(result.core_finish_ns),
        stats=stats,
        proc_storage=dict(storage.per_core),
        dir_storage=dict(storage.per_dir),
        events=machine.sim.processed_events,
        final_state_hash=_final_state_hash(result, stats),
        wall_time_s=time.perf_counter() - started,
        energy=energy,
        trace_path=trace_path,
        trace_stalls=trace_stalls,
        trace_events=trace_events,
        trace_dropped=trace_dropped,
    )


register_spec_type(RunSpec, _execute_spec, sorted(_BUILDERS),
                   RunRecord.from_dict)


class SweepError(SimulationError):
    """A sweep run failed; names the failing spec so failures are diagnosable.

    Raised by :meth:`Executor.map` in place of the worker's bare error.
    The original exception (typically a
    :class:`~repro.sim.DeadlockError`) is chained as ``__cause__``;
    ``spec``/``spec_key`` identify the failing point.  Every run that
    *did* complete before the failure has already been cached, so a
    repaired re-sweep only re-simulates from the failure onward.
    """

    def __init__(self, spec: Any, key: str, error: BaseException) -> None:
        super().__init__(
            f"sweep run failed: protocol={spec.protocol!r} "
            f"workload={spec.workload_label!r} kind={spec.kind!r} "
            f"key={key[:12]}: {error}"
        )
        self.spec = spec
        self.spec_key = key
        self.__cause__ = error

    def __reduce__(self):
        return (type(self), (self.spec, self.spec_key, self.__cause__))


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the working directory."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


#: Monotonic per-process suffix for cache temp files, so concurrent writers
#: of the same key (threads in one process) never collide either.
_TMP_COUNTER = itertools.count()


class Executor:
    """Runs :class:`RunSpec` sweeps, in parallel and/or from cache.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) executes inline, preserving the
        exact single-process behaviour.
    cache_dir:
        Directory of the content-addressed result cache.  ``None`` (the
        default) disables caching entirely.
    run_log:
        Path of a JSONL run log; one line is appended per completed run
        (sim-time, wall-time, event count, message counts, cache hit/miss,
        trace path).
    trace_dir:
        When set, every spec runs with tracing enabled (specs already
        marked ``trace=True`` keep it) and its Chrome trace JSON is
        exported into this directory; run-log lines and records carry the
        path.  ``None`` (default) leaves tracing to each spec's flag, and
        traced runs then keep only the in-record stall attribution.
    faults:
        Default fault-injection plan (a :class:`repro.faults.FaultPlan`
        or a preset expression like ``"drop+dup+flap"``) applied to every
        spec that does not carry its own.  Unlike ``trace_dir`` this is
        *physical*: faulted specs get distinct cache keys and seeds.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        run_log: Optional[Union[str, Path]] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        faults: Optional[Union[str, FaultPlan]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.run_log = Path(run_log) if run_log is not None else None
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if isinstance(faults, str):
            faults = parse_faults(faults)
        self.faults = faults
        self.hits = 0
        self.misses = 0

    # -- cache ---------------------------------------------------------
    def _cache_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / key[:2] / f"{key}.json"

    def _cache_load(self, key: str) -> Optional[Any]:
        path = self._cache_path(key)
        if path is None or not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        loader = _RECORD_LOADERS.get(data.get("kind"), RunRecord.from_dict)
        return loader(data, cached=True)

    def _cache_store(self, record: Any) -> None:
        path = self._cache_path(record.spec_key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Per-writer unique temp name: processes sharing a cache dir (e.g.
        # parallel benchmark invocations with REPRO_CACHE_DIR set) must not
        # interleave writes or steal each other's rename source.  If the
        # write/rename still fails, a concurrent winner holds an equivalent
        # record (keys are content-addressed), so losing is harmless.
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(record.to_dict()))
            tmp.replace(path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()

    # -- run log -------------------------------------------------------
    def _log(self, record: Any) -> None:
        if self.run_log is None:
            return
        line = {
            "experiment": record.experiment,
            "spec_key": record.spec_key,
            "kind": record.kind,
            "protocol": record.protocol,
            "workload": record.workload,
            "cached": record.cached,
            "jobs": self.jobs,
            "sim_time_ns": record.time_ns,
            "quiesce_ns": record.quiesce_ns,
            "wall_time_s": record.wall_time_s,
            "events": record.events,
            "inter_host_msgs": inter_host_messages(record.stats.items()),
            "inter_host_bytes": record.inter_host_bytes,
            "trace_path": record.trace_path,
            "faults_injected": record.stat("faults.injected"),
        }
        self.run_log.parent.mkdir(parents=True, exist_ok=True)
        with self.run_log.open("a") as handle:
            handle.write(json.dumps(line) + "\n")

    # -- execution -----------------------------------------------------
    def run(self, spec: Any) -> Any:
        """Execute (or recall) a single run."""
        return self.map([spec])[0]

    def map(self, specs: Sequence[Any]) -> List[Any]:
        """Execute ``specs``, returning records in spec order.

        Accepts any registered spec type (:class:`RunSpec` simulations,
        :class:`repro.litmus.suite.CheckSpec` model-checker runs);
        the trace/fault rewrites below apply only to simulation specs.

        Cache hits are recalled without simulating; misses run across the
        worker pool (``jobs > 1``) or inline.  Identical specs (same cache
        key) are simulated once and the record fanned out to every
        occurrence — the first occurrence counts as the miss, the rest as
        hits.  Results, cache entries and run-log lines are always produced
        in spec order, so a sweep's output is independent of worker
        scheduling.

        On a failed run, every run that completed is cached first, then a
        :class:`SweepError` naming the failing spec is raised (the
        original error is chained as ``__cause__``).
        """
        if self.trace_dir is not None:
            specs = [
                spec if not isinstance(spec, RunSpec) or spec.trace
                else replace(spec, trace=True)
                for spec in specs
            ]
        if self.faults is not None:
            specs = [
                spec if not isinstance(spec, RunSpec) or spec.faults is not None
                else replace(spec, faults=self.faults)
                for spec in specs
            ]
        version = code_version()
        records: List[Optional[Any]] = [None] * len(specs)
        # Unique cache key -> every spec index that wants its record, so
        # duplicate specs in one sweep are simulated exactly once (and
        # never race each other into the cache).
        pending: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            key = spec_key(spec, version)
            if key in pending:
                pending[key].append(index)
                self.hits += 1
                continue
            cached = self._cache_load(key)
            if cached is not None:
                records[index] = cached
                self.hits += 1
            else:
                pending[key] = [index]

        if pending:
            self.misses += len(pending)
            fresh = self._execute_many(
                [specs[indices[0]] for indices in pending.values()]
            )
            for indices, record in zip(pending.values(), fresh):
                self._cache_store(record)
                for index in indices:
                    records[index] = record

        for record in records:
            assert record is not None
            self._log(record)
        return records  # type: ignore[return-value]

    def _execute_many(self, specs: List[Any]) -> List[Any]:
        """Simulate ``specs`` (all cache misses), returning records in order.

        If any run fails, the completed records are cached before the
        failure is re-raised as a :class:`SweepError`, so a long sweep
        never loses finished work to one bad point.
        """
        trace_dir = str(self.trace_dir) if self.trace_dir else None
        if self.jobs == 1 or len(specs) == 1:
            records: List[Any] = []
            for spec in specs:
                try:
                    records.append(_worker_for(spec)(spec, trace_dir))
                except Exception as error:
                    for record in records:
                        self._cache_store(record)
                    raise SweepError(spec, spec_key(spec), error) from error
            return records
        from concurrent.futures import ProcessPoolExecutor
        workers = min(self.jobs, len(specs))
        results: List[Optional[Any]] = [None] * len(specs)
        failure: Optional[SweepError] = None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Per-spec futures (not pool.map): one failing run must not
            # discard every other run's completed record.
            futures = [
                pool.submit(_worker_for(spec), spec, trace_dir)
                for spec in specs
            ]
            for index, (spec, future) in enumerate(zip(specs, futures)):
                try:
                    results[index] = future.result()
                except Exception as error:
                    if failure is None:
                        failure = SweepError(spec, spec_key(spec), error)
        if failure is not None:
            for record in results:
                if record is not None:
                    self._cache_store(record)
            raise failure from failure.__cause__
        return results  # type: ignore[return-value]


def read_run_log(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL run log into a list of per-run dicts."""
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# Module-level default (what the harness uses when none is passed)
# ---------------------------------------------------------------------------
_DEFAULT: Optional[Executor] = None


def default_executor() -> Executor:
    """The executor experiments use when not given one explicitly.

    Serial and uncached unless replaced via :func:`set_default_executor`
    (the CLI and ``benchmarks/conftest.py`` install configured ones).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Executor()
    return _DEFAULT


def set_default_executor(executor: Optional[Executor]) -> Optional[Executor]:
    """Install ``executor`` as the harness-wide default; returns the old one."""
    global _DEFAULT
    previous, _DEFAULT = _DEFAULT, executor
    return previous
