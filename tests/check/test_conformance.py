"""Tier-1 seeded conformance sweep (ISSUE 5 acceptance).

25 generated programs, each executed on three representative fabrics
with two world seeds, must produce zero consistency violations.  The
companion test proves the oracle is not vacuous: running the same
pipeline with the engine's ordering sequence-flush deliberately
disabled must surface a violation.
"""

import pytest

from repro.check import check_program, generate_program, run_program
from repro.check.config import RunConfig

SWEEP_FABRICS = ("ordered", "unordered", "torus")
SWEEP_SEEDS = (0, 7)


@pytest.mark.parametrize("program_seed", range(25))
def test_conformance_sweep(program_seed):
    program = generate_program(program_seed)
    for fabric in SWEEP_FABRICS:
        for world_seed in SWEEP_SEEDS:
            result = run_program(program, fabric, world_seed)
            report = check_program(result)
            assert report.ok, (
                f"program seed {program_seed} on {fabric} "
                f"(world seed {world_seed}): "
                f"{[str(v) for v in report.violations]}")


def test_weakened_ordering_is_caught():
    """Dropping the ordering barrier must NOT go unnoticed.

    The jittery unordered fabric physically reorders back-to-back puts,
    so a program whose later put relies on the `ordering` attribute
    observes a stale final value once the engine stops gating on the
    sequence barrier.  A handful of seeds is scanned because physical
    overtaking depends on the sampled jitter (cf. the location-
    consistency integration test, which does the same)."""
    caught = []
    for seed in range(25):
        program = generate_program(seed)
        result = run_program(program, "unordered", seed,
                             mutations=("drop_order_barrier",))
        report = check_program(result)
        if not report.ok:
            caught.append((seed, [v.check for v in report.violations]))
    assert caught, "drop_order_barrier mutation was never detected"


def test_mutation_does_not_affect_unmutated_runs():
    """The test-only hook defaults to inert: same program, no mutation,
    stays clean on the exact seeds the mutated sweep flags."""
    for seed in (0, 13, 20, 23):
        program = generate_program(seed)
        report = check_program(run_program(program, "unordered", seed))
        assert report.ok, [str(v) for v in report.violations]


def test_strict_programs_run_stronger_checkers():
    """Strict programs must at least attempt causal/sequential checks
    (skipping the capped sequential search is allowed, but logged)."""
    strict_seeds = [s for s in range(40)
                    if generate_program(s).strict][:3]
    assert strict_seeds, "no strict program in the first 40 seeds"
    for seed in strict_seeds:
        program = generate_program(seed)
        result = run_program(program, "ordered", seed)
        report = check_program(result)
        assert report.ok
        assert "causal" in report.checks_run
        assert ("sequential" in report.checks_run
                or any("sequential" in note for note in report.skipped))


def test_chaos_runs_stay_conformant():
    """Lossy transport (drop/dup/delay) must not break the guarantees
    the attributes promise — the reliable transport hides the loss."""
    for seed in (0, 1, 2, 3, 4):
        program = generate_program(seed)
        result = run_program(program, "ordered", seed, chaos=0.03)
        report = check_program(result)
        assert report.ok, [str(v) for v in report.violations]


@pytest.mark.parametrize("seed", [530, 634])
def test_unordered_overtaking_is_not_a_ryw_violation(seed):
    """Regression: on the unordered fabric a later put without the
    `ordering` attribute may land before an earlier one, so a rank can
    legally read its older write back.  These natural-generator seeds
    used to be flagged as read-your-writes violations."""
    config = RunConfig("unordered", seed)
    report = config.check(config.generate())
    assert report.ok, [str(v) for v in report.violations]
