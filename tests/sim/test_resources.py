"""Tests for Resource, Semaphore, Store."""

import pytest

from repro.sim import Resource, Semaphore, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_uncontended_acquire_is_instant(self, sim):
        res = Resource(sim)

        def job(sim):
            yield from res.acquire()
            t = sim.now
            res.release()
            return t

        proc = sim.spawn(job(sim))
        assert sim.run_until_complete(proc) == 0

    def test_mutex_serializes_critical_sections(self, sim):
        res = Resource(sim)
        log = []

        def job(sim, name):
            yield from res.acquire()
            log.append((sim.now, name, "in"))
            yield sim.timeout(5)
            log.append((sim.now, name, "out"))
            res.release()

        sim.spawn(job(sim, "a"))
        sim.spawn(job(sim, "b"))
        sim.run()
        assert log == [
            (0, "a", "in"),
            (5, "a", "out"),
            (5, "b", "in"),
            (10, "b", "out"),
        ]

    def test_fifo_handoff_under_contention(self, sim):
        res = Resource(sim)
        order = []

        def job(sim, i):
            yield from res.acquire()
            order.append(i)
            yield sim.timeout(1)
            res.release()

        for i in range(5):
            sim.spawn(job(sim, i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_capacity_two_allows_two_holders(self, sim):
        res = Resource(sim, capacity=2)
        concurrent = []

        def job(sim):
            yield from res.acquire()
            concurrent.append(res.in_use)
            yield sim.timeout(1)
            res.release()

        for _ in range(4):
            sim.spawn(job(sim))
        sim.run()
        assert max(concurrent) == 2

    def test_release_without_acquire_raises(self, sim):
        with pytest.raises(RuntimeError):
            Resource(sim).release()

    def test_try_acquire(self, sim):
        res = Resource(sim)
        assert res.try_acquire()
        assert not res.try_acquire()
        res.release()
        assert res.try_acquire()

    def test_queue_length(self, sim):
        res = Resource(sim)

        def hold(sim):
            yield from res.acquire()
            yield sim.timeout(10)
            res.release()

        def wait(sim):
            yield from res.acquire()
            res.release()

        sim.spawn(hold(sim))
        sim.spawn(wait(sim))
        sim.spawn(wait(sim))
        sim.run(until=5)
        assert res.queue_length == 2


class TestSemaphore:
    def test_initial_count_validation(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim, initial=-1)

    def test_wait_on_positive_count_is_instant(self, sim):
        sem = Semaphore(sim, initial=2)

        def job(sim):
            yield from sem.wait()
            return sim.now

        p = sim.spawn(job(sim))
        assert sim.run_until_complete(p) == 0
        assert sem.count == 1

    def test_post_wakes_waiter(self, sim):
        sem = Semaphore(sim)

        def waiter(sim):
            yield from sem.wait()
            return sim.now

        p = sim.spawn(waiter(sim))
        sim.schedule(7, sem.post)
        assert sim.run_until_complete(p) == 7

    def test_post_multiple(self, sim):
        sem = Semaphore(sim)
        done = []

        def waiter(sim, i):
            yield from sem.wait()
            done.append(i)

        for i in range(3):
            sim.spawn(waiter(sim, i))
        sim.schedule(1, lambda: sem.post(3))
        sim.run()
        assert done == [0, 1, 2]

    def test_post_count_validation(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim).post(0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")

        def job(sim):
            item = yield from store.get()
            return item

        assert sim.run_until_complete(sim.spawn(job(sim))) == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def job(sim):
            item = yield from store.get()
            return (sim.now, item)

        p = sim.spawn(job(sim))
        sim.schedule(6, lambda: store.put("late"))
        assert sim.run_until_complete(p) == (6, "late")

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(4):
            store.put(i)
        got = []

        def job(sim):
            for _ in range(4):
                got.append((yield from store.get()))

        sim.spawn(job(sim))
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        got = []

        def job(sim, name):
            item = yield from store.get()
            got.append((name, item))

        sim.spawn(job(sim, "first"))
        sim.spawn(job(sim, "second"))
        sim.schedule(1, lambda: store.put("a"))
        sim.schedule(2, lambda: store.put("b"))
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(5)
        assert store.try_get() == 5

    def test_len_and_peek(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.peek_all() == [1, 2]
