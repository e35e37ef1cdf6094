"""The benchmark's own tests.

Run from the repository root (about five minutes; the repository's
test suite does not collect them)::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig2", "halo", "store", "conformance")


def bench(*args, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result):
    """The count metrics of a traced run (everything but host times)."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if not k.endswith(".self_s") and k != "trace.overhead_frac"}


def _plant_halo(doc):
    doc["halo"]["us_per_iter"] += 1e-9


def _plant_fig2(doc):
    doc["fig2"]["remote_complete/1024"] *= 1.01


def _plant_store(doc):
    doc["store"]["stream 1"]["p99_us"]["get"] += 0.5


@pytest.mark.parametrize("workload,plant,failed_share", [
    ("halo", _plant_halo, 1.0),
    ("fig2", _plant_fig2, 1 / 20),   # one point of twenty
    ("store", _plant_store, 1 / 4),  # one request stream of four
])
def test_planted_wrong_value_fails_ops(tmp_path, workload, plant,
                                       failed_share):
    doc = json.loads((HERE / "expected.json").read_text())
    plant(doc["workloads"])
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(doc))
    result = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", "0", "--expected", str(planted))
    assert not result["correct"]
    assert result["failed"] == pytest.approx(
        failed_share * result["attempted"])
    assert result["metrics"]["ok_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_recorded_values(workload):
    result = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "ops_per_s", "setup_s", "peak_rss_mb", "ok_frac"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_are_deterministic(workload):
    """Two traced runs with one seed give identical counts.  Each run
    also checks that its traced units reproduce the plain units'
    simulated results and engine/NIC counts (trace transparency)."""
    first = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", "1")
    second = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", "1")
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)


def test_seed_changes_store_requests():
    a = bench("--workload", "store", "--seed", "7", "--seconds", "1",
              "--trace", "1")
    b = bench("--workload", "store", "--seed", "8", "--seconds", "1",
              "--trace", "1")
    assert counts(a) != counts(b)


def test_seed_changes_conformance_programs():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import conformance_prepare

        a, b = conformance_prepare(7), conformance_prepare(8)
    finally:
        del sys.path[:2]
    assert len(a) == len(b)
    assert [p.ops for _, p in a] != [p.ops for _, p in b]


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "halo", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
