"""Unit tests for processes, resources, stores and sync primitives."""

import pytest

from repro.simkernel import (
    Interrupted,
    Process,
    Resource,
    Signal,
    SimulationError,
    Simulator,
    Store,
)


@pytest.fixture
def sim():
    return Simulator()


class TestProcess:
    def test_return_value_joins(self, sim):
        def worker():
            yield sim.timeout(10)
            return "done"

        p = sim.process(worker())
        assert sim.run_until(p) == "done"
        assert sim.now == 10

    def test_sequential_waits_accumulate_time(self, sim):
        def worker():
            for _ in range(3):
                yield sim.timeout(7)

        sim.run_until(sim.process(worker()))
        assert sim.now == 21

    def test_join_other_process(self, sim):
        def child():
            yield sim.timeout(5)
            return 99

        def parent():
            val = yield sim.process(child())
            return val + 1

        assert sim.run_until(sim.process(parent())) == 100

    def test_exception_propagates_to_joiner(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("inner")

        def parent():
            try:
                yield sim.process(bad())
            except ValueError as e:
                return f"caught {e}"

        assert sim.run_until(sim.process(parent())) == "caught inner"

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield "not an event"  # type: ignore[misc]

        p = sim.process(bad())
        sim.run()
        assert isinstance(p.exception, SimulationError)

    def test_yield_int_sleeps(self, sim):
        """A bare non-negative int yield sleeps that many ticks."""
        trail = []

        def sleeper():
            yield 42
            trail.append(sim.now)
            yield 0  # zero-tick sleep: same-tick reschedule, still legal
            trail.append(sim.now)
            return "done"

        p = sim.process(sleeper())
        assert sim.run_until(p) == "done"
        assert trail == [42, 42]

    def test_yield_negative_int_fails_process(self, sim):
        def bad():
            yield -1

        p = sim.process(bad())
        sim.run()
        assert isinstance(p.exception, SimulationError)

    def test_int_sleep_matches_timeout_schedule(self):
        """`yield n` and `yield sim.timeout(n)` produce identical schedules."""
        from repro.simkernel.scheduler import Simulator

        def workload(sim, use_int):
            def proc(tag):
                for i in range(5):
                    if use_int:
                        yield 7 + i
                    else:
                        yield sim.timeout(7 + i)
                    order.append((tag, sim.now))

            order = []
            for tag in range(3):
                sim.process(proc(tag))
            sim.run()
            return order, sim.events_processed

        a = workload(Simulator(), True)
        b = workload(Simulator(), False)
        assert a == b

    def test_interrupt_cancels_int_sleep(self, sim):
        trail = []

        def sleeper():
            try:
                yield 1000
                trail.append(("woke", sim.now))
            except Interrupted:
                trail.append(("interrupted", sim.now))
                yield 5
                trail.append(("slept again", sim.now))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(10)
            p.interrupt("stop")

        sim.process(interrupter())
        sim.run()
        assert trail == [("interrupted", 10), ("slept again", 15)]

    def test_wait_on_self_fails(self, sim):
        holder = {}

        def selfish():
            yield holder["p"]

        holder["p"] = sim.process(selfish())
        sim.run()
        assert isinstance(holder["p"].exception, SimulationError)

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_interrupt_caught_and_continues(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(1000)
            except Interrupted as i:
                log.append(("intr", i.cause, sim.now))
            yield sim.timeout(5)
            return "recovered"

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(10)
            p.interrupt(cause="timeout")

        sim.process(interrupter())
        assert sim.run_until(p) == "recovered"
        assert log == [("intr", "timeout", 10)]
        assert sim.now == 15

    def test_uncaught_interrupt_fails_join(self, sim):
        def sleeper():
            yield sim.timeout(1000)

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert isinstance(p.exception, Interrupted)

    def test_interrupt_finished_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        p.interrupt()
        sim.run()
        assert p.ok

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """After an interrupt, the original awaited event firing must not
        resume the process a second time."""
        log = []

        def sleeper():
            t = sim.timeout(100)
            try:
                yield t
                log.append("timeout-path")
            except Interrupted:
                log.append("interrupted")
            yield sim.timeout(500)
            log.append("after")

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(10)
            p.interrupt()

        sim.process(interrupter())
        sim.run()
        assert log == ["interrupted", "after"]


class TestResource:
    def test_mutual_exclusion_and_fifo(self, sim):
        res = Resource(sim, 1)
        order = []

        def worker(i):
            yield res.request()
            order.append(("in", i, sim.now))
            yield sim.timeout(10)
            res.release()

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert order == [("in", 0, 0), ("in", 1, 10), ("in", 2, 20)]

    def test_capacity_two(self, sim):
        res = Resource(sim, 2)
        entered = []

        def worker(i):
            yield res.request()
            entered.append((i, sim.now))
            yield sim.timeout(10)
            res.release()

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        assert entered == [(0, 0), (1, 0), (2, 10), (3, 10)]

    def test_release_idle_raises(self, sim):
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_len(self, sim):
        res = Resource(sim, 1)
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queue_len == 1


class TestStore:
    def test_put_then_get(self, sim):
        st = Store(sim)
        st.put("a")
        g = st.get()
        sim.run()
        assert g.value == "a"

    def test_get_blocks_until_put(self, sim):
        st = Store(sim)
        got = []

        def consumer():
            item = yield st.get()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(30)
            st.put("x")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("x", 30)]

    def test_fifo_order(self, sim):
        st = Store(sim)
        for i in range(5):
            st.put(i)
        out = []

        def consumer():
            for _ in range(5):
                out.append((yield st.get()))

        sim.run_until(sim.process(consumer()))
        assert out == [0, 1, 2, 3, 4]

    def test_put_on_full_store_raises(self, sim):
        st = Store(sim, capacity=1)
        st.put("a")
        with pytest.raises(SimulationError, match="full store"):
            st.put("b")
        assert st.items == ("a",)

    def test_try_put_try_get(self, sim):
        st = Store(sim, capacity=1)
        assert st.try_put(1)
        assert not st.try_put(2)
        ok, v = st.try_get()
        assert ok and v == 1
        ok, _ = st.try_get()
        assert not ok


class TestSync:
    def test_signal_broadcast(self, sim):
        sig = Signal(sim)
        woke = []

        def waiter(i):
            yield sig.wait()
            woke.append(i)

        for i in range(3):
            sim.process(waiter(i))

        def firer():
            yield sim.timeout(5)
            assert sig.fire("v") == 3

        sim.process(firer())
        sim.run()
        assert sorted(woke) == [0, 1, 2]


class TestDaemon:
    def test_daemon_failure_aborts_simulation(self, sim):
        from repro.simkernel import SimulationError

        def broken():
            yield sim.timeout(5)
            raise RuntimeError("service crashed")

        sim.daemon(broken(), name="svc")
        with pytest.raises(SimulationError, match="daemon.*svc.*died"):
            sim.run()

    def test_daemon_normal_exit_is_quiet(self, sim):
        def finite():
            yield sim.timeout(5)
            return "done"

        p = sim.daemon(finite(), name="svc")
        sim.run()
        assert p.value == "done"
