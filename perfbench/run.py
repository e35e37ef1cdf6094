"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload halo --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics (ops/s, set-up time,
peak memory, share of operations that succeeded).  ``--trace 1`` runs
the same units twice over, first plain and then with every ``repro``
layer wrapped by :mod:`layertrace`, and reports the per-layer metrics;
it also checks that the traced units produced the same simulated
results and counts as the plain ones.

Everything runs in this one process, with no added threads.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``expected.json`` holds the default seed's simulated observables.  It is
edited by hand, and only by a change that is meant to move the model.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
#: Fewest timed units per phase, whatever ``--seconds`` says.
MIN_UNITS = 3
MIN_TRACED_UNITS = 2

# One process, no added threads: keep numpy's BLAS single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def process_age() -> float:
    """Host seconds since this process started, interpreter start-up
    included (Linux: read from ``/proc/self/stat``)."""
    with open("/proc/self/stat") as fh:
        # starttime is field 22, in clock ticks since boot; the fields
        # after the parenthesised command name start at field 3.
        ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - ticks / os.sysconf("SC_CLK_TCK"))


def run_units(workload, inputs, seed, probe, seconds, min_units,
              tracer=None):
    """Run timed units until ``seconds`` have passed (at least
    ``min_units``).  Returns ``(units, host seconds per unit, per-unit
    layer totals)``."""
    units, times, layer_totals = [], [], []
    deadline = time.perf_counter() + seconds
    while len(units) < min_units or time.perf_counter() < deadline:
        gc.collect()
        probe.take()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        unit = workload.run(inputs, seed)
        dt = time.perf_counter() - t0
        unit.counts = probe.take()
        if tracer is not None:
            layer_totals.append(tracer.totals())
        units.append(unit)
        times.append(dt)
    return units, times, layer_totals


def check_units(workload, units, seed, expected, reference):
    """Output checks for every unit.  ``reference`` is the first plain
    unit: every unit must reproduce its simulated observables and
    counts exactly (the simulator is deterministic, and the tracer must
    not change what runs).  Returns ``(failed ops, problems)``."""
    failed = 0
    problems = []
    for i, unit in enumerate(units):
        bad, msgs = workload.check(unit, seed, expected)
        msgs = unit.errors + msgs
        if unit.observables != reference.observables or \
                unit.counts != reference.counts:
            msgs.append(
                f"unit {i} differs from the first plain unit: "
                f"observables {unit.observables != reference.observables}, "
                f"counts {unit.counts} vs {reference.counts}")
            bad = unit.ops
        failed += min(unit.ops, bad)
        problems += msgs
    return failed, problems


def per_layer_metrics(units, plain_times, traced_times, layer_totals):
    from layertrace import LAYERS, OTHER

    metrics = {}
    for layer in LAYERS + (OTHER,):
        metrics[f"{layer}.self_s"] = (statistics.median(
            t[layer][0] for t in layer_totals), "s")
        metrics[f"{layer}.calls"] = (layer_totals[0][layer][1], "count")
    counts = units[0].counts
    for key in ("network.packets", "network.bytes",
                "network.intra_node_packets", "topo.link_packets",
                "rma.ops", "rma.train_ops", "rma.shm_ops",
                "ir.ops_eliminated"):
        metrics[key] = (counts[key], "B" if key == "network.bytes"
                        else "count")
    ops = counts["rma.ops"]
    metrics["rma.train_frac"] = (
        counts["rma.train_ops"] / ops if ops else 0.0, "frac")
    metrics["rma.shm_frac"] = (
        counts["rma.shm_ops"] / ops if ops else 0.0, "frac")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times)
        - 1.0, "frac")
    return metrics


def load_expected(path: Path, workload: str, seed: int, any_seed: bool):
    """The recorded observables that apply to this seed, or ``None``."""
    if not (any_seed or seed == DEFAULT_SEED):
        return None
    with open(path) as fh:
        return json.load(fh)["workloads"].get(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="recorded observables (default: "
                             "expected.json beside this script)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Probe

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected = load_expected(args.expected, workload.name, args.seed,
                             workload.any_seed)

    inputs = workload.prepare(args.seed)
    probe = Probe()
    probe.install()
    setup_s = process_age()
    print(f"{workload.name}: seed {args.seed}, {setup_s:.3f} s from "
          "process start to the timed region")
    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    units, times, _ = run_units(workload, inputs, args.seed, probe,
                                plain_seconds, MIN_UNITS)
    traced, traced_times, layer_totals = [], [], []
    if args.trace:
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        try:
            traced, traced_times, layer_totals = run_units(
                workload, inputs, args.seed, probe, args.seconds / 2,
                MIN_TRACED_UNITS, tracer)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(str(OUT_DIR / f"spans-{workload.name}.tsv"))
    probe.uninstall()

    all_units = units + traced
    attempted = sum(u.ops for u in all_units)
    failed, problems = check_units(workload, all_units, args.seed, expected,
                                   units[0])
    if workload.report is not None:
        print(workload.report(units[0]))
    for msg in problems[:20]:
        print(f"FAILED: {msg}")
    print(f"{len(units)} plain unit(s), {len(traced)} traced unit(s), "
          f"{attempted} ops attempted, {failed} failed")

    if args.trace:
        metrics = per_layer_metrics(units, times, traced_times, layer_totals)
    else:
        metrics = {
            "ops_per_s": (statistics.median(
                u.ops / t for u, t in zip(units, times)), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
