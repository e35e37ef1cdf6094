"""Tests for point-to-point messaging."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Request
from repro.mpi.constants import ERRORS_RAISE, ERRORS_RETURN
from repro.network import quadrics_like, seastar_portals
from repro.rma import RmaError
from repro.runtime import World
from repro.sim import SimulationError


def test_send_recv_pair():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send({"x": 41}, dest=1, tag=7)
            return None
        if ctx.rank == 1:
            data = yield from ctx.comm.recv(source=0, tag=7)
            return data["x"]
        return None

    assert World(n_ranks=2).run(program) == [None, 41]


def test_numpy_payload():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.arange(100), dest=1)
        else:
            data = yield from ctx.comm.recv(source=0)
            return int(data.sum())

    assert World(n_ranks=2).run(program)[1] == 4950


def test_any_source_any_tag():
    def program(ctx):
        if ctx.rank == 2:
            got = []
            for _ in range(2):
                obj, st = yield from ctx.comm.recv_status(ANY_SOURCE, ANY_TAG)
                got.append((st.source, st.tag, obj))
            return sorted(got)
        yield from ctx.comm.send(f"from-{ctx.rank}", dest=2, tag=ctx.rank)

    out = World(n_ranks=3).run(program)
    assert out[2] == [(0, 0, "from-0"), (1, 1, "from-1")]


def test_tag_selectivity():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("a", dest=1, tag=1)
            yield from ctx.comm.send("b", dest=1, tag=2)
        else:
            b = yield from ctx.comm.recv(source=0, tag=2)
            a = yield from ctx.comm.recv(source=0, tag=1)
            return (a, b)

    assert World(n_ranks=2).run(program)[1] == ("a", "b")


def test_non_overtaking_same_tag_on_ordered_network():
    def program(ctx):
        if ctx.rank == 0:
            for i in range(10):
                yield from ctx.comm.send(i, dest=1, tag=5)
        else:
            got = []
            for _ in range(10):
                got.append((yield from ctx.comm.recv(source=0, tag=5)))
            return got

    out = World(n_ranks=2, network=seastar_portals()).run(program)
    assert out[1] == list(range(10))


def test_isend_irecv_overlap():
    def program(ctx):
        if ctx.rank == 0:
            reqs = []
            for i in range(4):
                r = yield from ctx.comm.isend(i, dest=1, tag=i)
                reqs.append(r)
            yield from Request.waitall(reqs)
        else:
            reqs = [ctx.comm.irecv(source=0, tag=i) for i in range(4)]
            vals = yield from Request.waitall(reqs)
            return vals

    assert World(n_ranks=2).run(program)[1] == [0, 1, 2, 3]


def test_request_test_polls():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("x", dest=1)
        else:
            req = ctx.comm.irecv(source=0)
            assert not req.test()
            yield from req.wait()
            assert req.test()
            return req.status.nbytes

    World(n_ranks=2).run(program)


def test_waitany():
    def program(ctx):
        if ctx.rank == 0:
            yield ctx.sim.timeout(100)
            yield from ctx.comm.send("slow", dest=2, tag=0)
        elif ctx.rank == 1:
            yield from ctx.comm.send("fast", dest=2, tag=1)
        else:
            reqs = [ctx.comm.irecv(source=0, tag=0), ctx.comm.irecv(source=1, tag=1)]
            idx = yield from Request.waitany(reqs)
            return idx

    assert World(n_ranks=3).run(program)[2] == 1


def test_sendrecv_exchange():
    def program(ctx):
        partner = 1 - ctx.rank
        got = yield from ctx.comm.sendrecv(ctx.rank, dest=partner, source=partner)
        return got

    assert World(n_ranks=2).run(program) == [1, 0]


def test_unmatched_recv_deadlocks():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.recv(source=1, tag=9)

    with pytest.raises(SimulationError, match="never completed"):
        World(n_ranks=2).run(program)


def test_invalid_tag_rejected():
    def program(ctx):
        yield from ctx.comm.send("x", dest=0, tag=2**30)

    with pytest.raises(ValueError, match="tag"):
        World(n_ranks=1).run(program)


def test_message_latency_reflects_size():
    """Bigger payloads take longer end to end."""

    def program(ctx, nbytes):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.zeros(nbytes, dtype=np.uint8), dest=1)
        else:
            t0 = ctx.sim.now
            yield from ctx.comm.recv(source=0)
            return ctx.sim.now - t0

    small = World(n_ranks=2).run(program, 8)[1]
    big = World(n_ranks=2).run(program, 100_000)[1]
    assert big > small * 5


def test_unordered_network_can_reorder_same_tag_messages():
    """On a Quadrics-like fabric, same-tag eager messages may overtake:
    the arrival order (not the send order) feeds the match queue."""

    def program(ctx, n):
        if ctx.rank == 0:
            for i in range(n):
                yield from ctx.comm.isend(i, dest=1, tag=0)
            # quiesce: wait for an ack message on another tag
            done = yield from ctx.comm.recv(source=1, tag=3)
            return done
        got = []
        for _ in range(n):
            got.append((yield from ctx.comm.recv(source=0, tag=0)))
        yield from ctx.comm.send("done", dest=0, tag=3)
        return got

    out = World(n_ranks=2, network=quadrics_like(), seed=5).run(program, 40)
    assert sorted(out[1]) == list(range(40))
    assert out[1] != list(range(40))


@pytest.mark.parametrize("handler", [ERRORS_RAISE, ERRORS_RETURN])
class TestPayloadsHoldingErrorsArriveUnchanged:
    """A received object is data: an RmaError inside it is not a failure
    of the receive, under either error handler."""

    def payload(self):
        return ["ok", RmaError("x")]

    def check(self, got):
        assert got[0] == "ok"
        assert isinstance(got[1], RmaError) and str(got[1]) == "x"

    def test_recv(self, handler):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(self.payload(), dest=1)
                return None
            return (yield from ctx.comm.recv(source=0))

        self.check(World(n_ranks=2, rma_errhandler=handler).run(program)[1])

    def test_bare_error_payload(self, handler):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(RmaError("bare"), dest=1)
                return None
            req = ctx.comm.irecv(source=0)
            got = yield from req.wait()
            return got, req.state, req.error

        got, state, error = World(n_ranks=2, rma_errhandler=handler).run(
            program)[1]
        assert isinstance(got, RmaError) and str(got) == "bare"
        assert state == "complete" and error is None

    def test_irecv_wait_and_waitall(self, handler):
        def program(ctx):
            if ctx.rank == 0:
                sreqs = []
                for tag in (1, 2):
                    sreqs.append((yield from ctx.comm.isend(
                        self.payload(), dest=1, tag=tag)))
                yield from Request.waitall(sreqs)
                return None
            r1 = ctx.comm.irecv(source=0, tag=1)
            r2 = ctx.comm.irecv(source=0, tag=2)
            one = yield from r1.wait()
            both = yield from Request.waitall([r1, r2])
            return one, both, r2.state

        one, both, state = World(n_ranks=2, rma_errhandler=handler).run(
            program)[1]
        self.check(one)
        for got in both:
            self.check(got)
        assert state == "complete"

    def test_bcast_of_error_list(self, handler):
        def program(ctx):
            obj = self.payload() if ctx.rank == 0 else None
            return (yield from ctx.comm.bcast(obj, root=0))

        for got in World(n_ranks=4, rma_errhandler=handler).run(program):
            self.check(got)


class TestRmaRequestsStillFail:
    """Failure-as-value keeps its meaning for RMA requests."""

    def failed_request(self, sim, value):
        req = Request(sim, kind="put")
        req.event.succeed(value)
        return req

    def drive(self, handler, gen):
        w = World(n_ranks=1, rma_errhandler=handler)
        out = []

        def program(ctx):
            out.append((yield from gen(ctx.sim)))

        w.run(program)
        return out[0]

    def test_raise_handler_raises(self):
        err = RmaError("boom")

        def gen(sim):
            return (yield from self.failed_request(sim, [None, err]).wait())

        with pytest.raises(RmaError, match="boom"):
            self.drive(ERRORS_RAISE, gen)

    def test_return_handler_returns_error(self):
        err = RmaError("boom")

        def gen(sim):
            req = self.failed_request(sim, err)
            got = yield from req.wait()
            vals = yield from Request.waitall([req])
            return got, vals, req.state, req.error

        got, vals, state, error = self.drive(ERRORS_RETURN, gen)
        assert got is err and vals == [err]
        assert state == "failed" and error is err
