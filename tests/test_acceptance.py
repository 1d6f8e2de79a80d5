"""Acceptance gate: one pinned pass/fail criterion per test.

Each test runs one verification preset and asserts its report.  The presets
share ``out_dir`` so the trend experiment feeding criteria 7 and 8 is
computed once; its records are kept in memory for the second criterion.
"""

import pytest

from helns.presets import run_preset


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _run(name, out_dir):
    report = run_preset(name, out_dir)
    print()
    print(report.summary_line())
    for check in report.checks:
        print("  " + check.line())
    failing = [c.line() for c in report.checks if not c.passed]
    assert report.passed, f"{name} failed: " + "; ".join(failing)


def test_criterion_01_shear_oracle(out_dir):
    # background-free z-dependent shear matches its closed-form heat solution
    _run("oracle-shear", out_dir)


def test_criterion_02_oseen_invariance(out_dir):
    # the pure vortex background leaves a zero perturbation exactly at rest
    _run("oracle-oseen", out_dir)


def test_criterion_03_radial_convergence(out_dir):
    # radial engine: order-2 self-convergence and near-exact Gaussian decay
    _run("radial-convergence", out_dir)


def test_criterion_04_poincare_sweep(out_dir):
    # seeded sweep of |v_perp| / |grad v_perp| stays below the pitch bound
    _run("poincare", out_dir)


def test_criterion_05_ladyzhenskaya_sweep(out_dir):
    # fitted L4 interpolation constant is stable across pitches and seeds
    _run("ladyzhenskaya", out_dir)


def test_criterion_06_decomposition_round_trip(out_dir):
    # background coefficient and remainder are recovered from total vorticity
    _run("decomposition", out_dir)


@pytest.mark.slow
def test_criterion_07_theorem_trend(out_dir):
    # perturbation norms settle onto the decaying trend after a transient
    _run("theorem-trend", out_dir)


@pytest.mark.slow
def test_criterion_08_perp_decay(out_dir):
    # zero-vertical-mean energy decays exponentially in the trend run
    _run("perp-decay", out_dir)


def test_criterion_09_weighted_rate_study(out_dir):
    # weighted-tail data decays at the slow algebraic rate, Gaussians faster
    _run("rate-study", out_dir)


def test_criterion_10_oseen_difference_constants(out_dir):
    # two-vortex difference norms track their closed forms across scales
    _run("oseen-differences", out_dir)


def test_criterion_11_run_invariants(out_dir):
    # divergence, defect growth, energy identity and Pythagoras on CI runs
    _run("invariants", out_dir)
