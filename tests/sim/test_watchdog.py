"""Watchdog diagnostics: stuck runs raise structured DeadlockError.

``Simulator.run_until_processes_finish`` must never fail with a bare
string: a drained queue with unfinished processes (deadlock) or an
exhausted event budget (livelock) raises :class:`DeadlockError` carrying a
:class:`DeadlockDiagnostic` that names the stuck processes, samples the
pending queue, and snapshots protocol state via ``diagnostic_hooks``.
"""

import pytest

from repro.sim import DeadlockError, SimulationError, Simulator


def _waiter(sim, signal):
    value = yield signal
    return value


def _spinner():
    while True:
        yield 10.0


class TestDeadlock:
    def test_empty_queue_raises_structured_error(self):
        sim = Simulator()
        signal = sim.signal("never")
        proc = sim.process(_waiter(sim, signal), name="stuck-consumer")
        with pytest.raises(DeadlockError) as info:
            sim.run_until_processes_finish([proc])
        diag = info.value.diagnostic
        assert diag.reason == "deadlock"
        assert [entry["process"] for entry in diag.stuck] == [
            "stuck-consumer"
        ]
        rendered = diag.render()
        assert "deadlock" in rendered
        assert "stuck-consumer" in rendered

    def test_deadlock_error_is_a_simulation_error(self):
        # Back-compat: existing callers catch SimulationError.
        sim = Simulator()
        proc = sim.process(_waiter(sim, sim.signal("never")), name="p")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_processes_finish([proc])

    def test_finished_processes_are_not_reported_stuck(self):
        sim = Simulator()
        signal = sim.signal("never")

        def _quick():
            yield 1.0

        quick = sim.process(_quick(), name="quick")
        stuck = sim.process(_waiter(sim, signal), name="stuck")
        with pytest.raises(DeadlockError) as info:
            sim.run_until_processes_finish([quick, stuck])
        names = [entry["process"] for entry in info.value.diagnostic.stuck]
        assert names == ["stuck"]


class TestLivelock:
    def test_budget_exhaustion_raises_with_pending_sample(self):
        sim = Simulator()
        proc = sim.process(_spinner(), name="spinner")
        with pytest.raises(DeadlockError) as info:
            sim.run_until_processes_finish([proc], max_events=50)
        diag = info.value.diagnostic
        assert diag.reason == "livelock"
        assert diag.max_events == 50
        assert diag.pending  # the spinner's next resume is queued
        rendered = diag.render()
        assert "max_events" in rendered
        assert "spinner" in rendered

    def test_last_progress_time_is_tracked(self):
        sim = Simulator()
        proc = sim.process(_spinner(), name="spinner")
        with pytest.raises(DeadlockError) as info:
            sim.run_until_processes_finish([proc], max_events=10)
        [entry] = info.value.diagnostic.stuck
        assert entry["last_progress_ns"] == pytest.approx(sim.now)


class TestDiagnosticHooks:
    def test_hook_state_lands_in_diagnostic(self):
        sim = Simulator()
        sim.diagnostic_hooks.append(lambda: {"pending_releases": 3})
        proc = sim.process(_waiter(sim, sim.signal("never")), name="p")
        with pytest.raises(DeadlockError) as info:
            sim.run_until_processes_finish([proc])
        diag = info.value.diagnostic
        assert diag.state["pending_releases"] == 3
        assert "pending_releases" in diag.render()

    def test_raising_hook_is_captured_not_propagated(self):
        sim = Simulator()

        def _bad():
            raise RuntimeError("boom")

        sim.diagnostic_hooks.append(_bad)
        proc = sim.process(_waiter(sim, sim.signal("never")), name="p")
        with pytest.raises(DeadlockError) as info:
            sim.run_until_processes_finish([proc])
        assert "boom" in str(info.value.diagnostic.state[
            "diagnostic_hook_error"
        ])


class TestMachineDiagnostics:
    def test_induced_protocol_stall_names_the_core(self):
        from repro import Machine, ProgramBuilder, SystemConfig

        config = SystemConfig().scaled(hosts=2)
        machine = Machine(config, protocol="cord")
        flag = machine.address_map.address_in_host(1, 0x4000)
        # Poll a flag nobody ever sets: livelocks against the budget.
        consumer = ProgramBuilder("consumer").load_until(flag, 1).build()
        with pytest.raises(DeadlockError) as info:
            machine.run({1: consumer}, max_events=2_000)
        diag = info.value.diagnostic
        assert any(e["process"] == "core1" for e in diag.stuck)
        assert "core1" in diag.render()

    def test_snapshot_reports_outstanding_acks(self):
        from repro import Machine, ProgramBuilder, SystemConfig

        config = SystemConfig().scaled(hosts=2)
        machine = Machine(config, protocol="so")
        data = machine.address_map.address_in_host(1, 0x8000)
        program = ProgramBuilder("p").store(data, value=1, size=64).build()
        core = machine.add_core(0, program)
        core.port.outstanding_acks = 3   # as if wt_acks never arrived
        snapshot = machine._diagnostic_snapshot()
        assert snapshot["core0"]["outstanding_acks"] == 3

    @pytest.mark.parametrize("protocol,kind", [
        ("cord", "wt_rel"), ("seq8", "seq_store"), ("tardis", "tardis_store"),
    ])
    def test_snapshot_reports_buffered_directory_messages(self, protocol,
                                                          kind):
        # A Release whose predecessors never arrive waits in its home
        # directory's retry queue; the snapshot names the queue by kind.
        from repro import Machine, SystemConfig
        from repro.consistency.ops import Ordering
        from repro.core.processor import CordProcessorState
        from repro.interconnect.message import Message

        config = SystemConfig().scaled(hosts=2)
        machine = Machine(config, protocol=protocol)
        directory = machine.directories[0]
        payload = {"addr": 0, "value": 1, "size": 8, "core": 0,
                   "program_index": 0, "ordering": Ordering.RELEASE,
                   "seq": 3, "ordered": True}
        if protocol == "cord":
            cord = CordProcessorState(0, config.cord)
            cord.on_relaxed_store(0)    # its wt_rlx never arrives
            payload["meta"] = cord.on_release_store(0).release
            payload["barrier"] = False
        directory._process(Message(
            src=machine.core_id(0), dst=directory.node_id, msg_type=kind,
            size_bytes=72, control=False, payload=payload))
        snapshot = machine._diagnostic_snapshot()
        assert snapshot[str(directory.node_id)] == {kind: 1}
