"""Edge cases of the simulation kernel's wake-up and deadlock semantics.

These pin the level-free contract of :class:`~repro.sim.kernel.Signal`
(kernel docstring), the deadlock diagnostics that the timed litmus
runner relies on to distinguish protocol hangs from slow convergence, and
the dispatch order of same-time events when a run stops part-way through
them (DESIGN.md decision 13).
"""

import pytest

from repro.sim.kernel import DeadlockError, SimulationError, Simulator


def drive(sim, processes, max_events=10_000):
    return sim.run_until_processes_finish(processes, max_events=max_events)


class TestTriggerWithNoWaiters:
    def test_trigger_on_empty_signal_is_a_no_op(self):
        sim = Simulator()
        sig = sim.signal("empty")
        sig.trigger("lost")
        assert sig.trigger_count == 1
        assert sig.waiter_count == 0
        assert sim.run() == 0.0  # nothing was scheduled

    def test_no_level_is_latched_for_future_waiters(self):
        """A waiter arriving after a trigger must NOT see the old value."""
        sim = Simulator()
        sig = sim.signal("edge")
        sig.trigger("stale")
        woken = []

        def waiter():
            woken.append((yield sig))

        procs = [sim.process(waiter(), name="late")]
        with pytest.raises(SimulationError, match="deadlock"):
            drive(sim, procs)
        assert woken == []


class TestWaiterAfterTrigger:
    def test_late_waiter_waits_for_next_trigger(self):
        sim = Simulator()
        sig = sim.signal("gate")
        values = []

        def waiter():
            values.append((yield sig))

        def driver():
            sig.trigger("first")   # fires before the waiter ever yields
            yield 5
            sig.trigger("second")

        # FIFO same-time ordering: the driver (registered first) triggers
        # "first" before the waiter reaches its yield.
        procs = [sim.process(driver(), name="driver"),
                 sim.process(waiter(), name="waiter")]
        drive(sim, procs)
        assert values == ["second"]
        assert sig.trigger_count == 2

    def test_each_trigger_wakes_only_current_waiters(self):
        sim = Simulator()
        sig = sim.signal("round")
        log = []

        def waiter(tag):
            log.append((tag, (yield sig)))

        def driver():
            yield 1
            sig.trigger("a")
            yield 1
            sig.trigger("b")

        first = sim.process(waiter("w1"), name="w1")
        drv = sim.process(driver(), name="driver")
        sim.schedule(1.5, lambda: sim.process(waiter("w2"), name="w2"))
        sim.run()
        assert log == [("w1", "a"), ("w2", "b")]
        assert first.finished and drv.finished


class TestDeadlockDetection:
    def test_deadlock_raises_with_stuck_process_names(self):
        sim = Simulator()
        sig = sim.signal("never")

        def stuck():
            yield sig

        def fine():
            yield 3

        procs = [sim.process(stuck(), name="consumer"),
                 sim.process(fine(), name="producer")]
        with pytest.raises(SimulationError) as err:
            drive(sim, procs)
        message = str(err.value)
        assert "deadlock" in message
        assert "consumer" in message and "producer" not in message

    def test_max_events_exceeded_raises(self):
        sim = Simulator()

        def spinner():
            while True:
                yield 1

        proc = sim.process(spinner(), name="spinner")
        with pytest.raises(SimulationError, match="max_events"):
            drive(sim, [proc], max_events=50)

    def test_resolved_future_prevents_false_deadlock(self):
        """Futures latch their value, so trigger-before-wait cannot hang."""
        sim = Simulator()
        fut = sim.future("result")
        fut.resolve(42)
        seen = []

        def waiter():
            seen.append((yield from fut.wait()))

        drive(sim, [sim.process(waiter(), name="waiter")])
        assert seen == [42]


class TestRunUntilHorizon:
    """``run(until=...)`` must always leave the clock at the horizon.

    Regression: when the queue drained *before* the horizon, ``now`` was
    left at the last event's time, so back-to-back ``run(until=...)``
    calls (periodic sampling loops) silently fell behind real time.
    """

    def test_clock_reaches_until_when_queue_drains_first(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_clock_reaches_until_with_future_event_past_horizon(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        assert sim.run(until=10.0) == 10.0
        assert sim.pending_events == 1  # the t=20 event is untouched

    def test_empty_queue_still_advances_to_until(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 5.0

    def test_max_events_exit_does_not_jump_to_horizon(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run(until=10.0, max_events=2) == 2.0
        # Resuming finishes the horizon normally.
        assert sim.run(until=10.0) == 10.0


class TestBoolYieldRejected:
    """Regression: ``isinstance(True, int)`` holds, so ``yield True``
    used to silently sleep 1.0 ns instead of failing loudly."""

    def test_yield_true_raises(self):
        sim = Simulator()

        def proc():
            yield True

        procs = [sim.process(proc(), name="boolean")]
        with pytest.raises(SimulationError, match="bool"):
            drive(sim, procs)

    def test_yield_false_raises(self):
        sim = Simulator()

        def proc():
            yield False

        procs = [sim.process(proc(), name="boolean")]
        with pytest.raises(SimulationError, match="bool"):
            drive(sim, procs)

    def test_numeric_delays_still_work(self):
        sim = Simulator()

        def proc():
            yield 1
            yield 2.5

        assert drive(sim, [sim.process(proc())]) == 3.5


class TestSameTimeDispatch:
    """The kernel's dispatch contract: events due at one time run in
    scheduling order, events scheduled at that time while it is being
    dispatched run after every event already due, and a run that stops
    part-way through a time leaves the rest pending in that order."""

    def test_event_scheduled_at_now_runs_after_those_already_due(self):
        sim = Simulator()
        log = []

        def first():
            log.append("a")
            sim.schedule(0.0, log.append, "a+0")
            sim.schedule_at(5.0, log.append, "a@5")

        sim.schedule(5.0, first)
        sim.schedule(5.0, log.append, "b")
        sim.schedule(5.0, log.append, "c")
        sim.schedule(6.0, log.append, "d")

        def watched():
            yield 10.0

        drive(sim, [sim.process(watched(), name="watched")])
        assert log == ["a", "b", "c", "a+0", "a@5", "d"]

    @pytest.mark.parametrize("value", ["v", None],
                             ids=["with_value", "without_value"])
    def test_signal_waiters_resume_after_events_already_due(self, value):
        """A trigger queues its waiters behind every event already due at
        that time, in the order they started waiting (not the order the
        processes were created), each receiving the trigger's value."""
        sim = Simulator()
        sig = sim.signal("ready")
        log = []

        def waiter(tag, delay):
            yield delay
            got = yield sig
            log.append((tag, got, sim.now))

        # Created w1, w2, w3; they wait from t=1 (w3), 2 (w1) and 3 (w2).
        procs = [sim.process(waiter("w1", 2.0), name="w1"),
                 sim.process(waiter("w2", 3.0), name="w2"),
                 sim.process(waiter("w3", 1.0), name="w3")]

        def fire():
            log.append(("fire", None, sim.now))
            sig.trigger(value)

        sim.schedule(5.0, fire)
        sim.schedule(5.0, lambda: log.append(("b", None, sim.now)))
        sim.schedule(5.0, lambda: log.append(("c", None, sim.now)))
        drive(sim, procs)
        assert log == [("fire", None, 5.0), ("b", None, 5.0),
                       ("c", None, 5.0), ("w3", value, 5.0),
                       ("w1", value, 5.0), ("w2", value, 5.0)]

    def test_int_and_float_delays_queue_behind_a_scheduled_event(self):
        """``yield 5`` and ``yield 5.0`` wake at the same float time as a
        ``schedule(5.0, ...)`` made earlier at that time, behind it and in
        scheduling order."""
        sim = Simulator()
        log = []

        def note(tag):
            log.append((tag, sim.now))

        def sleeper(tag, delay):
            yield 0.1
            yield delay
            note(tag)

        sim.schedule(0.1, lambda: sim.schedule(5.0, note, "callback"))
        procs = [sim.process(sleeper("int", 5), name="int"),
                 sim.process(sleeper("float", 5.0), name="float")]
        drive(sim, procs)
        when = 0.1 + 5.0
        assert log == [("callback", when), ("int", when), ("float", when)]
        assert all(type(now) is float for _tag, now in log)

    def test_finish_mid_time_leaves_the_rest_pending_in_order(self):
        sim = Simulator()
        log = []

        def worker():
            yield 5.0
            log.append("finish")

        def plan():
            # Due at t=5 after the worker's wake-up, which the worker's
            # first resumption (earlier at t=0) already scheduled.
            sim.schedule(5.0, log.append, "e1")
            sim.schedule(5.0, log.append, "e2")

        proc = sim.process(worker(), name="worker")
        sim.schedule(0.0, plan)
        assert drive(sim, [proc]) == 5.0
        assert log == ["finish"]
        assert sim.pending_events == 2
        sim.schedule(0.0, log.append, "late")
        sim.run()
        assert log == ["finish", "e1", "e2", "late"]
        assert sim.now == 5.0

    def test_budget_exhausted_mid_time_reports_the_rest_first(self):
        sim = Simulator()
        log = []

        def spawn():
            log.append("e0")
            sim.schedule(0.0, log.append, "child")

        def stuck():
            yield sim.signal("never")

        proc = sim.process(stuck(), name="stuck")       # one event at t=0
        sim.schedule(1.0, spawn)
        for tag in ("e1", "e2", "e3", "e4"):
            sim.schedule(1.0, log.append, tag)
        sim.schedule(2.0, log.append, "later")
        with pytest.raises(DeadlockError) as info:
            drive(sim, [proc], max_events=3)
        diag = info.value.diagnostic
        assert diag.reason == "livelock"
        assert log == ["e0", "e1"]
        assert sim.now == 1.0
        assert sim.pending_events == 5
        assert [(p["at_ns"], p["args"]) for p in diag.pending] == [
            (1.0, "'e2'"), (1.0, "'e3'"), (1.0, "'e4'"),
            (1.0, "'child'"), (2.0, "'later'"),
        ]
        sim.run()
        assert log == ["e0", "e1", "e2", "e3", "e4", "child", "later"]

    def test_step_interleaved_with_zero_delay_schedules_keeps_fifo(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(1.0, log.append, "b")
        assert sim.step() and log == ["a"] and sim.now == 1.0
        sim.schedule(0.0, log.append, "c")
        sim.schedule(1.0, log.append, "d")              # due at t=2
        assert sim.step() and log == ["a", "b"]
        sim.schedule(0.0, log.append, "e")
        assert sim.step() and log == ["a", "b", "c"]
        assert sim.step() and log == ["a", "b", "c", "e"]
        assert sim.now == 1.0
        assert sim.step() and log == ["a", "b", "c", "e", "d"]
        assert sim.now == 2.0
        assert not sim.step()
