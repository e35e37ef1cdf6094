"""The benchmark's four workloads and their output checks.

Each workload has three parts:

- ``prepare(seed)`` imports the workload's entry points and builds the
  inputs from the workload seed (this is set-up, timed as ``setup_s``);
- ``run(inputs, seed)`` is one timed *unit*: it drives the simulator
  through its public entry points and returns a :class:`Unit` with the
  number of operations attempted and the simulated observables;
- ``check(unit, seed, expected)`` compares the observables with the
  recorded values and the workload's built-in identities, and returns
  the number of failed operations and a message for each problem.

Simulated time is the model's contract, so a simulated observable that
differs from the recorded value is a *failed operation*, never a
slower one.  The host-side figures are measured by ``run.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "Unit", "Probe", "COUNT_KEYS"]

#: Per-unit counts read from the simulator's public state.
COUNT_KEYS = ("rma.ops", "rma.train_ops", "rma.shm_ops", "network.packets",
              "network.bytes", "network.intra_node_packets",
              "topo.link_packets", "ir.ops_eliminated")


@dataclass
class Unit:
    """One timed unit of a workload."""

    ops: int
    observables: Dict[str, Any]
    #: Ops that raised (an op whose run raised is failed outright).
    raised: int = 0
    errors: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)


class Probe:
    """Reads counts off every :class:`~repro.runtime.World` a workload
    runs and every IR pipeline it applies, through thin wrappers on
    ``World.run`` and ``repro.ir.passes.run_pipeline``.

    The wrappers pass every call through unchanged; they only add the
    finished world's engine, NIC, fabric and link counters (and the
    pipeline's :class:`~repro.ir.passes.PassStats`) to :attr:`counts`.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._undo: List[Tuple[object, str, object]] = []

    def take(self) -> Dict[str, int]:
        """Return the counts gathered since the last call and zero them."""
        out, self.counts = self.counts, dict.fromkeys(COUNT_KEYS, 0)
        return out

    def _add_world(self, world) -> None:
        c = self.counts
        for ctx in world.contexts.values():
            stats = ctx.rma.engine.stats
            c["rma.ops"] += (stats["puts"] + stats["gets"]
                             + stats["accumulates"] + stats["rmws"])
            c["rma.train_ops"] += stats["train_ops"]
            c["rma.shm_ops"] += stats["shm_ops"]
        for nic in world.nics.values():
            c["network.packets"] += nic.packets_sent
            c["network.bytes"] += nic.bytes_sent
        c["network.intra_node_packets"] += world.fabric.intra_node_packets
        if world.topo is not None:
            c["topo.link_packets"] += sum(
                st.packets for st in world.topo.link_stats.values())

    def install(self) -> None:
        from repro.ir import passes
        from repro.runtime import World

        run = World.run
        run_pipeline = passes.run_pipeline
        probe = self

        @functools.wraps(run)
        def world_run(world, *args, **kwargs):
            out = run(world, *args, **kwargs)
            probe._add_world(world)
            return out

        @functools.wraps(run_pipeline)
        def pipeline(*args, **kwargs):
            ir, stats = run_pipeline(*args, **kwargs)
            probe.counts["ir.ops_eliminated"] += sum(
                s.ops_eliminated for s in stats)
            return ir, stats

        self._undo = [(World, "run", run),
                      (passes, "run_pipeline", run_pipeline)]
        World.run = world_run
        passes.run_pipeline = pipeline

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def _attempt(fn: Callable[[], Any], errors: List[str], what: str):
    """Run ``fn``; on an exception record it and return ``None``."""
    try:
        return fn()
    except Exception as exc:  # a raising op is a failed op, not a crash
        errors.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def _exact(name: str, got, want, problems: List[str]) -> bool:
    if got != want:
        problems.append(f"{name}: simulated {got!r}, recorded {want!r}")
        return False
    return True


# ----------------------------------------------------------------------
# fig2: the paper's Figure 2
# ----------------------------------------------------------------------
FIG2_SIZES = (8, 1024, 16384, 65536)
FIG2_ORIGINS = 7
FIG2_PUTS = 100
FIG2_PUTS_PER_POINT = FIG2_ORIGINS * FIG2_PUTS
#: The paper's lock/none ratio for small puts (Figure 2, Cray XT5).
PAPER_LOCK_RATIO = 9.0


def fig2_prepare(seed: int):
    from repro.bench.workloads import FIG2_ATTR_MODES

    return [(mode, size) for mode in FIG2_ATTR_MODES for size in FIG2_SIZES]


def fig2_run(points, seed: int) -> Unit:
    from repro.bench.workloads import fig2_attribute_cost

    errors: List[str] = []
    obs: Dict[str, Optional[float]] = {}
    for mode, size in points:
        obs[f"{mode}/{size}"] = _attempt(
            lambda: fig2_attribute_cost(
                mode, size, n_origins=FIG2_ORIGINS,
                puts_per_origin=FIG2_PUTS, seed=seed),
            errors, f"fig2 {mode}/{size}")
    raised = sum(v is None for v in obs.values()) * FIG2_PUTS_PER_POINT
    return Unit(len(points) * FIG2_PUTS_PER_POINT, obs, raised, errors)


def fig2_shape(obs: Dict[str, Optional[float]]) -> Tuple[set, List[str]]:
    """The paper's qualitative Figure-2 claims, on any seed.  Returns
    the points that break one and a message per broken claim."""
    bad: set = set()
    problems: List[str] = []

    def claim(ok: bool, keys, text: str) -> None:
        if not ok:
            bad.update(keys)
            problems.append(f"fig2 shape: {text}")

    for size in FIG2_SIZES:
        none, order, rc, lock, thread = (
            obs.get(f"{m}/{size}") for m in (
                "none", "ordering", "remote_complete", "atomicity+lock",
                "atomicity+thread"))
        if None in (none, order, rc, lock, thread):
            continue
        claim(order == none, (f"ordering/{size}",),
              f"ordering {order} != none {none} at {size} B")
        claim(rc > none, (f"remote_complete/{size}",),
              f"remote_complete {rc} <= none {none} at {size} B")
        if size <= 1024:
            claim(lock > thread, (f"atomicity+lock/{size}",),
                  f"atomicity+lock {lock} <= atomicity+thread {thread} "
                  f"at {size} B")
            claim(thread > none, (f"atomicity+thread/{size}",),
                  f"atomicity+thread {thread} <= none {none} at {size} B")
    return bad, problems


def fig2_check(unit: Unit, seed: int, expected) -> Tuple[int, List[str]]:
    obs = unit.observables
    bad, problems = fig2_shape(obs)
    if expected is not None:
        for key, want in expected.items():
            if not _exact(f"fig2 {key} us", obs.get(key), want, problems):
                bad.add(key)
    bad.update(k for k, v in obs.items() if v is None)
    return len(bad) * FIG2_PUTS_PER_POINT, problems


def fig2_report(unit: Unit) -> str:
    lock = unit.observables.get("atomicity+lock/8")
    none = unit.observables.get("none/8")
    if not lock or not none:
        return "fig2: no lock/none ratio (a point failed)"
    return (f"fig2: atomicity+lock / none at 8 B = {lock / none:.1f}x "
            f"(paper: ~{PAPER_LOCK_RATIO:.0f}x on the Cray XT5). The model "
            "is not validated against hardware in absolute terms: the repo "
            "holds no hardware numbers, only the paper's shape.")


# ----------------------------------------------------------------------
# halo: strawman ring halo, latency-bound, many ranks
# ----------------------------------------------------------------------
HALO_RANKS = 128
HALO_BYTES = 8192
HALO_ITERS = 10


def halo_prepare(seed: int):
    import repro.bench.workloads  # noqa: F401  (set-up: the import)

    return {"sync_mode": "strawman", "n_ranks": HALO_RANKS,
            "halo_bytes": HALO_BYTES, "iterations": HALO_ITERS}


def halo_run(params, seed: int) -> Unit:
    from repro.bench.workloads import halo_exchange_time

    errors: List[str] = []
    us = _attempt(lambda: halo_exchange_time(seed=seed, **params),
                  errors, "halo")
    ops = HALO_RANKS * HALO_ITERS
    return Unit(ops, {"us_per_iter": us}, ops if us is None else 0, errors)


def halo_check(unit: Unit, seed: int, expected) -> Tuple[int, List[str]]:
    problems: List[str] = []
    us = unit.observables["us_per_iter"]
    ok = us is not None
    if ok and expected is not None:
        ok = _exact("halo us/iter", us, expected["us_per_iter"], problems)
    return (0 if ok else unit.ops), problems


# ----------------------------------------------------------------------
# store: open-loop sharded store on the 4x4x4 torus
# ----------------------------------------------------------------------
STORE_NODES = 8
STORE_RANKS_PER_NODE = 2
STORE_OPS_PER_RANK = 150
STORE_REQUESTS = STORE_NODES * STORE_RANKS_PER_NODE * STORE_OPS_PER_RANK
#: Request streams per unit.  One stream's host cost depends on its
#: draw (up to ~10 % between seeds with identical counts), so a unit
#: averages several.
STORE_STREAMS = 4


def store_prepare(seed: int):
    import repro.bench.store  # noqa: F401  (set-up: the import)

    return [seed * STORE_STREAMS + k for k in range(STORE_STREAMS)]


def store_run(stream_seeds, seed: int) -> Unit:
    from repro.bench.store import sharded_store_run

    errors: List[str] = []
    obs: Dict[str, Any] = {}
    for s in stream_seeds:
        doc = _attempt(lambda: sharded_store_run(
            fabric="torus", n_nodes=STORE_NODES,
            ranks_per_node=STORE_RANKS_PER_NODE,
            ops_per_rank=STORE_OPS_PER_RANK, seed=s), errors, f"store {s}")
        obs[f"stream {s}"] = None if doc is None else {
            "requests": doc["ops"],
            "per_class": dict(doc["per_class"]),
            "completed": {c: v["count"] for c, v in doc["classes"].items()},
            "p50_us": {c: v["p50"] for c, v in doc["classes"].items()},
            "p99_us": {c: v["p99"] for c, v in doc["classes"].items()},
            "local_ops": doc["local_ops"],
            "shm_ops": doc["shm_ops"],
        }
    raised = sum(v is None for v in obs.values()) * STORE_REQUESTS
    return Unit(len(stream_seeds) * STORE_REQUESTS, obs, raised, errors)


def store_check(unit: Unit, seed: int, expected) -> Tuple[int, List[str]]:
    """A stream whose run raised has failed already: ``sharded_store_run``
    itself raises unless every request completed and ``shm_ops`` equals
    the key-local requests.  What is left is the recorded values."""
    problems: List[str] = []
    bad = 0
    for name, obs in unit.observables.items():
        if obs is None:
            bad += 1
        elif expected is not None:
            bad += not _exact(f"store {name}", obs, expected.get(name),
                              problems)
    return bad * STORE_REQUESTS, problems


# ----------------------------------------------------------------------
# conformance: generated programs, full IR pipeline, three-arm checks
# ----------------------------------------------------------------------
CONF_FABRICS = ("ordered", "unordered", "torus")
#: The corpus has a fixed shape mix and the seed draws every program's
#: contents.  Per (rank count, epoch count) cell: this many relaxed
#: programs at 2..8 ranks, and strict ones at 2..4 ranks.  A program's
#: check cost follows its op count, which follows its shape, so a
#: corpus of random shapes would make ops/s depend on the seed more
#: than on the code.  Strict programs are checked for sequential
#: consistency, a search exponential in ranks: one strict 5-rank
#: program can cost fifteen times the mean.
CONF_RELAXED_PER_CELL = 3
CONF_STRICT_PER_CELL = 1
CONF_EPOCHS = (1, 2, 3)  # the generator's max_epochs is 3


def conformance_prepare(seed: int):
    import repro.check.config  # noqa: F401  (set-up: the imports)
    import repro.ir.passes  # noqa: F401
    from repro.check.generator import generate_program

    cells = ([(n, False, CONF_RELAXED_PER_CELL) for n in range(2, 9)]
             + [(n, True, CONF_STRICT_PER_CELL) for n in range(2, 5)])
    programs = []
    for c, (n_ranks, strict, count) in enumerate(cells):
        want = {e: count for e in CONF_EPOCHS}
        prog_seed = (seed * len(cells) + c) * 1_000_000
        while any(want.values()):
            program = generate_program(prog_seed, n_ranks=n_ranks,
                                       strict=strict)
            epochs = 1 + sum(op.kind == "sync" for op in program.ops)
            if want[epochs]:
                want[epochs] -= 1
                programs.append((prog_seed, program))
            prog_seed += 1
    return programs


def conformance_run(programs, seed: int) -> Unit:
    from repro.check.config import RunConfig
    from repro.ir.passes import PIPELINE

    errors: List[str] = []
    violations = 0
    raised = 0
    for prog_seed, program in programs:
        for fabric in CONF_FABRICS:
            cfg = RunConfig(fabric=fabric, seed=prog_seed,
                            ir_passes=PIPELINE)
            rep = _attempt(lambda: cfg.check(program), errors,
                           f"conformance seed {prog_seed} [{fabric}]")
            if rep is None:
                raised += 1
            elif not rep.ok:
                violations += 1
                errors.append(
                    f"conformance seed {prog_seed} [{fabric}]: "
                    f"{len(rep.violations)} violation(s), first: "
                    f"{rep.violations[0]}")
    obs = {"violating_runs": violations,
           "program_ops": sum(len(p.ops) for _, p in programs)}
    return Unit(len(programs) * len(CONF_FABRICS), obs, raised, errors)


def conformance_check(unit: Unit, seed: int,
                      expected) -> Tuple[int, List[str]]:
    problems: List[str] = []
    failed = unit.observables["violating_runs"] + unit.raised
    if expected is not None and not _exact(
            "conformance program ops", unit.observables["program_ops"],
            expected["program_ops"], problems):
        return unit.ops, problems
    return failed, problems


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int], Any]
    run: Callable[[Any, int], Unit]
    check: Callable[[Unit, int, Any], Tuple[int, List[str]]]
    #: Whether the recorded observables hold on every seed (the
    #: workload's simulated result does not depend on the world seed)
    #: or only on the default seed.
    any_seed: bool
    report: Optional[Callable[[Unit], str]] = None


WORKLOADS: Dict[str, Workload] = {
    "fig2": Workload("fig2", fig2_prepare, fig2_run, fig2_check, True,
                     fig2_report),
    "halo": Workload("halo", halo_prepare, halo_run, halo_check, True),
    "store": Workload("store", store_prepare, store_run, store_check, False),
    "conformance": Workload("conformance", conformance_prepare,
                            conformance_run, conformance_check, False),
}
