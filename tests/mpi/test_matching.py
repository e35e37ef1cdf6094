"""The endpoint's matching engine: posted and unexpected lists.

A receive matches the oldest unexpected message whose (context, source,
tag) it accepts; an arriving message matches the oldest posted receive
that accepts it; anything unmatched waits in its list.
"""

from repro.mpi import ANY_SOURCE, ANY_TAG, Request
from repro.runtime import World


def unexpected(world, rank):
    ep = world.endpoints[rank]
    return [(m.src, m.tag, m.data) for q in ep._unexpected.values()
            for m in q]


def posted(world, rank):
    ep = world.endpoints[rank]
    return [(src, tag) for q in ep._posted.values()
            for _req, src, tag, _t in q]


def test_unexpected_matched_by_tag():
    """A receive takes the buffered message it selects; the other stays
    buffered."""
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("one", dest=1, tag=1)
            yield from ctx.comm.send("two", dest=1, tag=2)
            return None
        yield ctx.sim.timeout(100.0)  # both are unexpected by now
        return (yield from ctx.comm.recv(source=0, tag=2))

    w = World(n_ranks=2)
    assert w.run(program)[1] == "two"
    assert unexpected(w, 1) == [(0, 1, "one")]
    assert w.endpoints[1].unexpected_matches == 1


def test_posted_receives_matched_by_tag_in_arrival_order():
    def program(ctx):
        if ctx.rank == 0:
            yield ctx.sim.timeout(1.0)
            yield from ctx.comm.send("three", dest=1, tag=3)
            yield ctx.sim.timeout(50.0)
            yield from ctx.comm.send("five", dest=1, tag=5)
            return None
        r5 = ctx.comm.irecv(source=0, tag=5)
        r3 = ctx.comm.irecv(source=0, tag=3)
        idx = yield from Request.waitany([r5, r3])
        first = ctx.sim.now
        yield from r5.wait()
        return idx, first < ctx.sim.now, r3.event.value, r5.event.value

    w = World(n_ranks=2)
    assert w.run(program)[1] == (1, True, "three", "five")
    assert w.endpoints[1].unexpected_matches == 0


def test_unmatched_message_stays_unexpected():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("unwanted", dest=1, tag=7)
            return None
        req = ctx.comm.irecv(source=0, tag=8)
        yield ctx.sim.timeout(100.0)
        return req.test()

    w = World(n_ranks=2)
    assert w.run(program)[1] is False
    assert unexpected(w, 1) == [(0, 7, "unwanted")]
    assert posted(w, 1) == [(0, 8)]


def test_wildcards_match_anything():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("anything", dest=1, tag=42)
            return None
        yield ctx.sim.timeout(50.0)
        obj, st = yield from ctx.comm.recv_status(ANY_SOURCE, ANY_TAG)
        return obj, st.source, st.tag

    w = World(n_ranks=2)
    assert w.run(program)[1] == ("anything", 0, 42)
    assert unexpected(w, 1) == [] and posted(w, 1) == []


def test_fifo_among_equal_posted_receives():
    """MPI non-overtaking: the first-posted matching receive wins."""
    def program(ctx):
        if ctx.rank == 0:
            yield ctx.sim.timeout(1.0)
            yield from ctx.comm.send("m0", dest=1, tag=0)
            yield from ctx.comm.send("m1", dest=1, tag=0)
            return None
        r0 = ctx.comm.irecv(ANY_SOURCE, ANY_TAG)
        r1 = ctx.comm.irecv(source=0, tag=0)
        return (yield from Request.waitall([r0, r1]))

    assert World(n_ranks=2).run(program)[1] == ["m0", "m1"]


def test_fifo_among_equal_unexpected_messages():
    def program(ctx):
        if ctx.rank == 0:
            for i in range(3):
                yield from ctx.comm.send(i, dest=1, tag=0)
            return None
        yield ctx.sim.timeout(100.0)
        got = []
        for _ in range(3):
            got.append((yield from ctx.comm.recv(ANY_SOURCE, ANY_TAG)))
        return got

    assert World(n_ranks=2).run(program)[1] == [0, 1, 2]


def test_contexts_never_match_each_other():
    """A message on a collective's context never satisfies a user
    receive, and the lists drop a context once it is empty."""
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("user", dest=1, tag=0)
        yield from ctx.comm.barrier()
        if ctx.rank == 1:
            return (yield from ctx.comm.recv(ANY_SOURCE, ANY_TAG))
        return None

    w = World(n_ranks=2)
    assert w.run(program)[1] == "user"
    assert w.endpoints[1]._unexpected == {} and w.endpoints[1]._posted == {}


def test_receive_spawns_no_process():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("x", dest=1)
            return None
        return (yield from ctx.comm.recv(source=0))

    w = World(n_ranks=2)
    before = w.sim._processes_spawned
    assert w.run(program)[1] == "x"
    assert w.sim._processes_spawned - before == 2  # the two rank programs
