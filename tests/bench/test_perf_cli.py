"""CLI behaviour of the wall-clock perf harness (output-file safety)."""

import json
import os

import pytest

from repro.bench import perf


FAKE_RESULTS = {
    "kernel_callbacks_per_sec": 1e6,
    "kernel_process_events_per_sec": 2e6,
    "machine": {"nic_writes_per_sec": {"8/cold": 4e5, "8/resident": 3e5},
                "n_deposits": 200},
    "halo": {"wall_sec": 0.1, "sim_us_per_iter": 45.0, "n_ranks": 8,
             "halo_bytes": 8192, "iterations": 40},
    "collective_scaling": {
        "halo_bytes": 8192, "iterations": 5,
        "points": {"8": {"n_ranks": 8, "sim_us_per_iter": 46.2,
                         "setup_wall_sec": 0.002, "setup_ms_per_rank": 0.25,
                         "iter_wall_sec": 0.0015, "iter_ms_per_rank": 0.19}}},
    "fig2": {"wall_sec_total": 0.5, "puts_per_origin": 50,
             "points": {"none/1024": {"wall_sec": 0.1, "sim_us": 242.2}}},
}


@pytest.fixture
def fast_perf(monkeypatch, tmp_path):
    """Stub the (slow) benchmark suite and run from a temp cwd."""
    monkeypatch.setattr(perf, "run_all", lambda quick=False: dict(FAKE_RESULTS))
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestOutFile:
    def test_default_out_is_bench_json(self, fast_perf):
        assert perf.main([]) == 0
        assert os.path.exists("BENCH.json")
        assert not os.path.exists("BENCH_PR1.json")
        with open("BENCH.json") as fh:
            doc = json.load(fh)
        assert doc["results"]["halo"]["sim_us_per_iter"] == 45.0

    def test_refuses_to_clobber_without_force(self, fast_perf, capsys):
        with open("BENCH.json", "w") as fh:
            fh.write("precious baseline\n")
        with pytest.raises(SystemExit) as exc:
            perf.main([])
        assert exc.value.code != 0
        # the existing file is untouched — refusal happens before running
        with open("BENCH.json") as fh:
            assert fh.read() == "precious baseline\n"
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, fast_perf):
        with open("BENCH.json", "w") as fh:
            fh.write("old\n")
        assert perf.main(["--force"]) == 0
        with open("BENCH.json") as fh:
            assert json.load(fh)["schema"] == 1

    def test_explicit_out_path(self, fast_perf):
        assert perf.main(["--out", "custom.json"]) == 0
        assert os.path.exists("custom.json")
        assert not os.path.exists("BENCH.json")

    def test_baseline_embedding_still_works(self, fast_perf):
        assert perf.main(["--out", "base.json", "--label", "base"]) == 0
        assert perf.main(["--out", "new.json", "--baseline", "base.json"]) == 0
        with open("new.json") as fh:
            doc = json.load(fh)
        assert doc["baseline"]["label"] == "base"
        assert doc["speedup"]["kernel_callbacks_per_sec"] == 1.0
        assert doc["speedup"]["machine.8/cold"] == 1.0


class TestMachineDeposits:
    def test_reports_each_size_cold_and_resident(self):
        point = perf.bench_machine_deposits(sizes=(8, 4096), n_deposits=3)
        rates = point["nic_writes_per_sec"]
        assert sorted(rates) == ["4096/cold", "4096/resident",
                                 "8/cold", "8/resident"]
        assert all(rate > 0 for rate in rates.values())

    def test_compare_ignores_wall_clock_machine_point(self):
        assert perf.compare_to_baseline({"machine": FAKE_RESULTS["machine"]}) == []
