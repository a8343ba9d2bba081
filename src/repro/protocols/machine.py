"""The ``Machine``: a fully wired multi-PU system ready to run programs.

This is the library's main entry point:

>>> from repro import Machine, SystemConfig, ProgramBuilder
>>> machine = Machine(SystemConfig().scaled(hosts=2), protocol="cord")
>>> producer = ProgramBuilder().store(0x100).release_store(0x140).build()
>>> result = machine.run({0: producer})
>>> result.time_ns > 0
True

A machine owns the simulator, the network, one directory actor per LLC
slice, and (once :meth:`Machine.run` is called) one core actor per program.
:class:`RunResult` exposes the measurements every experiment in the paper
reports: execution time, inter-host traffic (split data/control), stall
breakdowns, protocol-table storage, and the value-level history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import SystemConfig
from repro.consistency.history import ExecutionHistory
from repro.cpu.core import Core
from repro.cpu.program import Program
from repro.interconnect.message import NodeId
from repro.interconnect.network import Network
from repro.memory.address import AddressMap
from repro.memory.llc import LlcSlice
from repro.protocols.table import protocol_classes
from repro.sim import Simulator, StatRegistry
from repro.sim.stats import RunStats

__all__ = ["Machine", "RunResult"]


@dataclass
class RunResult(RunStats):
    """Measurements from one :meth:`Machine.run`."""

    time_ns: float
    stats: StatRegistry
    history: ExecutionHistory
    machine: "Machine"
    core_finish_ns: Dict[int, float] = field(default_factory=dict)
    #: Simulation time once all in-flight traffic has drained.  Use this for
    #: producer-only microbenchmarks where fire-and-forget protocols (MP)
    #: would otherwise be credited with finishing before their data arrives.
    quiesce_ns: float = 0.0

    # ------------------------------------------------------------------
    # Traffic and stalls (the accessors come from RunStats)
    # ------------------------------------------------------------------
    def stat(self, name: str) -> float:
        # Counters only; derived names (``.max``, ``.p99``) are in
        # ``stats.as_dict()``, which a RunRecord's ``stats`` already is.
        return self.stats.value(name)

    def stat_items(self) -> Iterable[Tuple[str, float]]:
        return self.stats.as_dict().items()

    # ------------------------------------------------------------------
    # Tracing (None unless the machine was built with ``trace=``)
    # ------------------------------------------------------------------
    @property
    def trace(self):
        return self.machine.trace

    # ------------------------------------------------------------------
    # Storage (Fig. 11 / Fig. 12)
    # ------------------------------------------------------------------
    def proc_storage_bytes(self, core_id: int) -> Dict[str, int]:
        port = self.machine.cores[core_id].port
        tables: Dict[str, int] = {}
        state = getattr(port, "state", None)
        if state is not None and hasattr(state, "store_counters"):
            tables["store_counters"] = state.store_counters.peak_bytes
            tables["unacked_epochs"] = state.unacked.peak_bytes
        return tables

    def dir_storage_bytes(self, dir_index: int) -> Dict[str, int]:
        node = self.machine.directories[dir_index]
        tables: Dict[str, int] = {}
        state = getattr(node, "state", None)
        if state is not None and hasattr(state, "peak_table_bytes"):
            tables.update(state.peak_table_bytes())
        # Buffered ("recycled") messages awaiting ordering: charge one
        # release-sized control entry each (Fig. 12's network buffers).
        buffer_entry = self.machine.config.message_sizes.control_bytes(
            self.machine.config.cord.counter_bits
            + 2 * self.machine.config.cord.epoch_bits
        )
        tables["network_buffer"] = node.peak_buffered * buffer_entry
        return tables


class Machine:
    """A simulated multi-PU system running one protocol.

    Parameters
    ----------
    config:
        The system geometry and interconnect (:class:`SystemConfig`).
    protocol:
        One of the registered protocol names (see
        :func:`repro.protocols.spec.available_protocols`), resolved to
        its actor classes by
        :func:`repro.protocols.table.protocol_classes`.
    consistency:
        ``"rc"`` (release consistency, default), ``"tso"`` (§6 mode), or
        ``"sc"`` (sequential consistency: TSO's store-store ordering plus
        store->load ordering — loads wait for the core's outstanding
        stores to commit).  MP cannot enforce SC (as the paper notes it
        cannot even enforce TSO); it runs unchanged as an idealized bound.
    """

    def __init__(
        self,
        config: SystemConfig,
        protocol: str = "cord",
        consistency: str = "rc",
        latency_jitter: float = 0.0,
        seed: int = 0,
        trace=None,
        faults=None,
    ) -> None:
        if consistency not in ("rc", "tso", "sc"):
            raise ValueError(f"unknown consistency model {consistency!r}")
        self.config = config
        self.protocol = protocol
        self.consistency = consistency
        self._port_cls, self._dir_cls = protocol_classes(protocol)

        self.sim = Simulator()
        self.stats = StatRegistry()
        # ``trace`` is None (disabled, the default), True (attach a fresh
        # default-capacity collector) or a TraceCollector to reuse.
        # Tracing is purely observational: it never schedules events, so
        # traced and untraced runs are bit-identical.
        if trace is True:
            from repro.trace import TraceCollector
            trace = TraceCollector()
        self.trace = trace if trace is not False else None
        self.sim.trace = self.trace
        # ``faults`` is None (disabled, the default), a FaultPlan, or a
        # preset expression like "drop+dup+flap" (see repro.faults).
        # Unlike tracing, faults are *physical*: they change timing and
        # traffic, so they participate in seeds and cache keys.
        if isinstance(faults, str):
            from repro.faults import parse_faults
            faults = parse_faults(faults)
        if faults is not None and faults.enabled:
            from repro.faults import FaultInjector
            self.faults = FaultInjector(faults, self.sim, self.stats,
                                        trace=self.trace, seed=seed)
        else:
            self.faults = None
        self.sim.diagnostic_hooks.append(self._diagnostic_snapshot)
        from repro.sim import DeterministicRng
        self.network = Network(
            self.sim, config, self.stats,
            latency_jitter=latency_jitter,
            rng=DeterministicRng(seed).child("network"),
            trace=self.trace,
            faults=self.faults,
        )
        self.address_map = AddressMap(config)
        self.history = ExecutionHistory()

        self.directories: List = []
        for index in range(config.total_directories):
            node_id = NodeId.directory(index, config.host_of_directory(index))
            self.directories.append(self._dir_cls(self, node_id))
        self.cores: Dict[int, Core] = {}

    # ------------------------------------------------------------------
    # Watchdog diagnostics
    # ------------------------------------------------------------------
    def _diagnostic_snapshot(self) -> Dict[str, object]:
        """Protocol-state summary for :class:`repro.sim.DeadlockDiagnostic`:
        per-core outstanding acks / unacked-epoch tables and per-directory
        pending buffers, so a stuck run names what it is waiting on."""
        out: Dict[str, object] = {}
        for core_id, core in sorted(self.cores.items()):
            port = core.port
            info: Dict[str, object] = {}
            if core.finish_time_ns is not None:
                continue  # finished cores are not interesting
            acks = getattr(port, "outstanding_acks", None)
            if acks:
                info["outstanding_acks"] = acks
            state = getattr(port, "state", None)
            if state is not None and hasattr(state, "unacked"):
                epochs = sorted(key for key, _ in state.unacked)
                if epochs:
                    info["unacked_epochs"] = epochs
            if port is not None and port.wc.enabled and port.wc.occupancy:
                info["wc_open_lines"] = port.wc.occupancy
            if info:
                out[f"core{core_id}"] = info
        for node in self.directories:
            # Table directories buffer not-yet-ready messages in one retry
            # queue per message kind (WB directories keep none).
            retry = getattr(node, "_retry", {})
            pending = {kind: len(queue) for kind, queue in retry.items()
                       if queue}
            if pending:
                out[str(node.node_id)] = pending
        if self.faults is not None:
            out["faults"] = self.faults.snapshot()
        return out

    # ------------------------------------------------------------------
    # Wiring helpers used by protocol actors
    # ------------------------------------------------------------------
    def new_llc_slice(self) -> LlcSlice:
        return LlcSlice(self.config.llc_slice)

    def directory_id(self, index: int) -> NodeId:
        return self.directories[index].node_id

    def core_id(self, index: int) -> NodeId:
        return NodeId.core(index, self.config.host_of_core(index))

    def seq_board(self):
        """The machine-global SEQ commit board (built on first use).

        Release-like ``seq_store`` gating must see commits at *every*
        directory slice, so the per-processor counts live here rather
        than per directory."""
        board = getattr(self, "_seq_board", None)
        if board is None:
            from repro.protocols.seq import SeqCommitBoard
            board = self._seq_board = SeqCommitBoard(self.sim)
        return board

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def add_core(self, core_id: int, program: Program) -> Core:
        if core_id in self.cores:
            raise ValueError(f"core {core_id} already has a program")
        if core_id >= self.config.total_cores:
            raise ValueError(
                f"core {core_id} beyond system size {self.config.total_cores}"
            )
        core = Core(self, core_id, program)
        core.port = self._port_cls(core)
        self.cores[core_id] = core
        return core

    def run(
        self,
        programs: Dict[int, Program],
        max_events: Optional[int] = 20_000_000,
    ) -> RunResult:
        """Run ``programs`` (core id -> program) to completion."""
        for core_id, program in sorted(programs.items()):
            self.add_core(core_id, program)
        processes = [
            self.sim.process(core.run(), name=f"core{core_id}")
            for core_id, core in sorted(self.cores.items())
        ]
        self.sim.run_until_processes_finish(processes, max_events=max_events)
        # Let in-flight traffic (posted stores, acks) land so traffic and
        # storage accounting is complete; time is already captured.
        time_ns = max(
            (core.finish_time_ns or 0.0) for core in self.cores.values()
        )
        quiesce_ns = self.sim.run(max_events=max_events)
        return RunResult(
            time_ns=time_ns,
            stats=self.stats,
            history=self.history,
            machine=self,
            core_finish_ns={
                core_id: core.finish_time_ns or 0.0
                for core_id, core in self.cores.items()
            },
            quiesce_ns=max(quiesce_ns, time_ns),
        )
