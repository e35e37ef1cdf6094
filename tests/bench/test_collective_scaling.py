"""The rank-scaling curve of the strawman halo (``collective_scaling``).

Its simulated µs/iter is pinned at the small points: the host-side
messaging changes that make the curve cheap must never move the model.
"""

import pytest

from repro.bench import perf

#: Simulated µs/iter of the strawman halo (8 KiB, 5 iterations), as
#: recorded before the MPI layer's constant-cost messaging.
PINNED = {8: 46.23599999999999, 32: 61.63600000000004, 128: 77.0360000000002}


@pytest.fixture(scope="module")
def curve():
    return perf.bench_collective_scaling(ranks=tuple(PINNED))


def test_simulated_time_pinned(curve):
    got = {p["n_ranks"]: p["sim_us_per_iter"]
           for p in curve["points"].values()}
    assert got == PINNED


def test_points_split_setup_from_iterations(curve):
    assert curve["iterations"] == 5 and curve["halo_bytes"] == 8192
    for key, point in curve["points"].items():
        n = point["n_ranks"]
        assert key == str(n)
        assert point["setup_wall_sec"] > 0 and point["iter_wall_sec"] > 0
        assert point["setup_ms_per_rank"] == pytest.approx(
            point["setup_wall_sec"] / n * 1e3)
        assert point["iter_ms_per_rank"] == pytest.approx(
            point["iter_wall_sec"] / n * 1e3)


def test_compare_recomputes_the_curve(curve):
    doc = {"results": {"collective_scaling": curve}}
    assert perf.compare_to_baseline(doc, tolerance=0.0) == []
    curve["points"]["32"]["sim_us_per_iter"] += 0.5
    failures = perf.compare_to_baseline(doc)
    curve["points"]["32"]["sim_us_per_iter"] -= 0.5
    assert len(failures) == 1
    assert "collective_scaling.32.sim_us_per_iter" in failures[0]
