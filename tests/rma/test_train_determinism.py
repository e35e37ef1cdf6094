"""Determinism pins for the analytic fast paths: the vectorized op-train
and the NIC burst path.

Both are pure wall-clock optimizations — every simulated timestamp must
be bit-identical with the fast path on or off, on every fabric, and the
eligibility gates must self-disable them (rather than drift) under
tracing, faults, and routed topologies.  Each parity test runs the same
workload twice, fast path off then on, and asserts float equality of
the returned simulated times; positive-engagement tests pin that the
train actually fires on the configurations it claims to cover.  Besides
the fabric sweep, the parity inputs include collective-heavy halo shapes
(8 KiB x10, a non-power-of-two world, and 1 KiB puts that land right
behind a peer's flush) and fig2's ``ordering`` series.
"""

import pytest

from repro.bench.workloads import fig2_attribute_cost, halo_exchange_time
from repro.faults import FaultPlan
from repro.network.config import (
    generic_rdma,
    infiniband_like,
    quadrics_like,
    seastar_portals,
)
from repro.network.nic import Nic
from repro.rma.engine import RmaEngine
from repro.topo import fattree_network, torus_network

# The seven fabrics the parity sweep covers: the four flat LogGP
# personalities plus the routed topologies (where the train self-
# disables — the sweep pins that disabling is what happens, not drift).
FABRICS = {
    "generic_rdma": generic_rdma,
    "quadrics_like": quadrics_like,
    "seastar_portals": seastar_portals,
    "infiniband_like": infiniband_like,
    "torus": lambda: torus_network((2, 2, 2)),
    "torus-adaptive": lambda: torus_network((2, 2, 2), adaptive=True),
    "fattree": lambda: fattree_network(),
}


# Halo shapes beyond the fabric sweep, on the default fabric, keyed
# ranks-bytes-iterations: dissemination barriers at 8 and 6 (non-power-
# of-two, wrap-around partners) ranks, and 1 KiB puts that inject right
# behind a peer's flush request.
HALO_SCENARIOS = {
    "8r-8K-x10": dict(n_ranks=8, halo_bytes=8192, iterations=10),
    "6r-2K-x6": dict(n_ranks=6, halo_bytes=2048, iterations=6),
    "8r-1K-x6": dict(n_ranks=8, halo_bytes=1024, iterations=6),
}

# fig2 attribute modes beyond the fabric sweep's ``remote_complete``, on
# the default fabric.
FIG2_SCENARIOS = ("ordering",)


def _halo_case(case):
    if case in FABRICS:
        return dict(n_ranks=8, halo_bytes=4096, iterations=4,
                    network=FABRICS[case]())
    return dict(HALO_SCENARIOS[case])


def _fig2_case(case):
    if case in FABRICS:
        return "remote_complete", dict(network=FABRICS[case]())
    return case, {}


def _with_train(enabled, workload):
    prev = RmaEngine.train_enabled
    RmaEngine.train_enabled = enabled
    try:
        return workload()
    finally:
        RmaEngine.train_enabled = prev


def _with_burst(enabled, workload):
    prev = Nic.burst_enabled
    Nic.burst_enabled = enabled
    try:
        return workload()
    finally:
        Nic.burst_enabled = prev


class TestTrainParityAcrossFabrics:
    @pytest.mark.parametrize("case", sorted(FABRICS) + sorted(HALO_SCENARIOS))
    def test_halo_bit_identical(self, case):
        def run():
            return halo_exchange_time("strawman", **_halo_case(case))
        assert _with_train(True, run) == _with_train(False, run)

    @pytest.mark.parametrize("case", sorted(FABRICS) + list(FIG2_SCENARIOS))
    def test_fig2_bit_identical(self, case):
        def run():
            mode, kw = _fig2_case(case)
            return fig2_attribute_cost(mode, 16384, puts_per_origin=10, **kw)
        assert _with_train(True, run) == _with_train(False, run)


class TestBurstParity:
    def test_halo_bit_identical(self):
        # Collectives and completions ride the idle-NIC single-send and
        # burst analytics; with the burst layer off every packet takes
        # the injector process and the times must still match.
        def run():
            return halo_exchange_time("strawman", n_ranks=4,
                                      halo_bytes=2048, iterations=4)
        assert _with_burst(True, run) == _with_burst(False, run)


class TestTrainSelfDisables:
    """The gates: tracing, faults, and mixed attributes must leave the
    simulated result identical because the train turns itself off (or
    replays exactly) rather than approximating."""

    def test_under_tracing_times_and_traces_identical(self):
        def run():
            sink = []
            sim_us = fig2_attribute_cost(
                "none", 16384, puts_per_origin=10, trace=True,
                world_out=sink,
            )
            world = sink[0]
            records = [
                (r.time, r.category, r.kind, r.rank,
                 tuple(sorted(r.detail.items())), r.seq)
                for r in world.tracer
            ]
            return sim_us, records
        assert _with_train(True, run) == _with_train(False, run)

    def test_with_nonempty_fault_plan(self):
        def run():
            return fig2_attribute_cost(
                "remote_complete", 16384, puts_per_origin=10,
                fault_plan=FaultPlan().drop(0.05), seed=11,
            )
        assert _with_train(True, run) == _with_train(False, run)

    def test_mixed_attribute_stream(self):
        # Alternating attribute sets break op-window uniformity; the
        # train must pass those windows to the per-op path untouched.
        from repro.datatypes import BYTE
        from repro.runtime import World

        def run():
            world = World(n_ranks=2, network=seastar_portals(), seed=0)

            def program(ctx):
                alloc, tmems = yield from ctx.rma.expose_collective(1 << 16)
                src = ctx.mem.space.alloc(1 << 12)
                yield from ctx.comm.barrier()
                if ctx.rank == 0:
                    for i in range(12):
                        yield from ctx.rma.put(
                            src, 0, 1 << 12, BYTE,
                            tmems[1], 0, 1 << 12, BYTE,
                            ordering=bool(i % 2),
                            remote_completion=bool(i % 3 == 0),
                        )
                    yield from ctx.rma.complete()
                yield from ctx.comm.barrier()
                return ctx.sim.now

            return world.run(program)
        assert _with_train(True, run) == _with_train(False, run)


class TestTrainEngages:
    def test_fig2_issues_trains(self):
        sink = []
        fig2_attribute_cost("none", 16384, puts_per_origin=10,
                            world_out=sink)
        world = sink[0]
        trains = sum(ctx.rma.engine.stats["train_ops"]
                     for ctx in world.contexts.values())
        assert trains > 0

    def test_no_trains_when_disabled(self):
        def run():
            sink = []
            fig2_attribute_cost("none", 16384, puts_per_origin=10,
                                world_out=sink)
            return sum(ctx.rma.engine.stats["train_ops"]
                       for ctx in sink[0].contexts.values())
        assert _with_train(False, run) == 0
