"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Future, Signal, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callback_runs_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, seen.append, "c")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        seen = []
        for tag in range(10):
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == list(range(10))

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: sim.schedule_at(
            7.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.0]

    def test_schedule_at_queues_the_exact_time(self):
        # Regression: the event used to be queued at now + (when - now),
        # which for these values is one ulp below ``when``.  A later send
        # clamped to an earlier send's arrival then fired first.
        sim = Simulator()
        sim.now = 425.1365611509048
        when = 972.7989602412209
        seen = []
        sim.schedule_at(when, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [when]

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.now = 5.0
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_run_until_stops_clock_at_limit(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        assert sim.run(until=10.0) == 10.0
        assert sim.pending_events == 1

    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.schedule(42.0, lambda: None)
        assert sim.run() == 42.0

    def test_processed_event_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(
            1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]


class TestProcesses:
    def test_process_yields_delays(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append(sim.now)
            yield 10.0
            trace.append(sim.now)
            yield 5.0
            trace.append(sim.now)

        sim.process(body())
        sim.run()
        assert trace == [0.0, 10.0, 15.0]

    def test_process_result_captured(self):
        sim = Simulator()

        def body():
            yield 1.0
            return 99

        proc = sim.process(body())
        sim.run()
        assert proc.finished
        assert proc.result == 99

    def test_yield_none_reschedules_immediately(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append("before")
            yield None
            trace.append("after")

        sim.process(body())
        sim.run()
        assert trace == ["before", "after"]
        assert sim.now == 0.0

    def test_negative_yield_raises(self):
        sim = Simulator()

        def body():
            yield -5.0

        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_invalid_yield_type_raises(self):
        sim = Simulator()

        def body():
            yield "nope"

        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_on_finish_callback(self):
        sim = Simulator()
        done = []

        def body():
            yield 1.0

        proc = sim.process(body())
        proc.on_finish(lambda p: done.append(p.result))
        sim.run()
        assert done == [None]

    def test_on_finish_after_completion_fires_immediately(self):
        sim = Simulator()

        def body():
            return
            yield

        proc = sim.process(body())
        sim.run()
        fired = []
        proc.on_finish(lambda p: fired.append(True))
        assert fired == [True]

    def test_run_until_processes_finish(self):
        sim = Simulator()

        def body():
            yield 7.0

        proc = sim.process(body())
        assert sim.run_until_processes_finish([proc]) == 7.0

    def test_deadlock_detection(self):
        sim = Simulator()
        signal = sim.signal("never")

        def body():
            yield signal

        proc = sim.process(body())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_processes_finish([proc])

    def test_max_events_guard(self):
        sim = Simulator()

        def spinner():
            while True:
                yield 1.0

        proc = sim.process(spinner())
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until_processes_finish([proc], max_events=50)


class TestSignals:
    def test_signal_wakes_waiter_with_value(self):
        sim = Simulator()
        signal = sim.signal("s")
        got = []

        def waiter():
            value = yield signal
            got.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(4.0, signal.trigger, "hello")
        sim.run()
        assert got == [(4.0, "hello")]

    def test_signal_broadcasts_to_all_waiters(self):
        sim = Simulator()
        signal = sim.signal("s")
        woken = []

        def waiter(tag):
            yield signal
            woken.append(tag)

        for tag in range(3):
            sim.process(waiter(tag))
        sim.schedule(1.0, signal.trigger)
        sim.run()
        assert sorted(woken) == [0, 1, 2]

    @pytest.mark.parametrize("waiters", [1, 2])
    def test_value_wake_is_one_event_per_waiter_in_fifo_position(
            self, waiters):
        """Waiters woken with a value (a port's response signal has one)
        run in waiting order, behind the events already due at the trigger
        time and ahead of those queued after the trigger, one event each."""
        sim = Simulator()
        signal = sim.signal("s")
        log = []

        def waiter(tag):
            value = yield signal
            log.append((tag, value, sim.now))

        def fire():
            signal.trigger(7)
            sim.schedule(0.0, lambda: log.append(("after", None, sim.now)))

        for tag in range(waiters):
            sim.process(waiter(tag))
        sim.schedule(2.0, fire)
        sim.schedule(2.0, lambda: log.append(("due", None, sim.now)))
        sim.run()
        assert log == ([("due", None, 2.0)]
                       + [(tag, 7, 2.0) for tag in range(waiters)]
                       + [("after", None, 2.0)])
        # each start, fire, due, each wake-up, after
        assert sim.processed_events == 2 * waiters + 3
        assert signal.waiter_count == 0

    def test_trigger_with_no_waiters_is_noop(self):
        sim = Simulator()
        signal = sim.signal("s")
        signal.trigger()
        assert signal.trigger_count == 1
        assert signal.waiter_count == 0

    def test_waiters_cleared_after_trigger(self):
        sim = Simulator()
        signal = sim.signal("s")

        def waiter():
            yield signal

        sim.process(waiter())
        sim.run(max_events=1)
        assert signal.waiter_count == 1
        signal.trigger()
        assert signal.waiter_count == 0


class TestFutures:
    def test_wait_before_resolve(self):
        sim = Simulator()
        future = sim.future("f")
        got = []

        def waiter():
            value = yield from future.wait()
            got.append(value)

        sim.process(waiter())
        sim.schedule(2.0, future.resolve, 11)
        sim.run()
        assert got == [11]

    def test_wait_after_resolve_returns_immediately(self):
        sim = Simulator()
        future = sim.future("f")
        future.resolve(7)
        got = []

        def waiter():
            value = yield from future.wait()
            got.append((sim.now, value))

        sim.process(waiter())
        sim.run()
        assert got == [(0.0, 7)]

    def test_double_resolve_raises(self):
        sim = Simulator()
        future = sim.future("f")
        future.resolve()
        with pytest.raises(SimulationError):
            future.resolve()


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def body(tag, delay):
                for _ in range(3):
                    yield delay
                    trace.append((tag, sim.now))

            sim.process(body("a", 1.5))
            sim.process(body("b", 1.5))
            sim.process(body("c", 2.0))
            sim.run()
            return trace

        assert run_once() == run_once()
