"""Named verification presets, one per acceptance criterion.

Each preset runs a self-contained experiment or sweep, evaluates its checks
against pinned tolerances and returns a :class:`PresetReport`.  ``run_all``
executes every preset in order and writes a machine-readable
``summary.json``; the process exit code of ``helns verify`` is 0 exactly
when every selected check passes.

The heavy 64x64x24 trend run is shared: ``theorem-trend`` and ``perp-decay``
both analyze the same records, which are computed once per output directory
and process and kept in memory (never reloaded from a CSV that an aborted or
older run may have left behind).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .config import ExperimentConfig
from .decomposition import circulation_a, decompose
from .experiment import run_experiment
from .fields import (
    PerturbationSpec,
    heat_gaussian,
    oseen_vorticity,
    random_helical_perturbation,
    shear_flow,
)
from .grid import GridSpec
from .radial import RadialProfile, run_radial, uniform_radii
from .spectral import SpectralOps

__all__ = [
    "CheckResult",
    "PresetReport",
    "PRESETS",
    "run_preset",
    "run_all",
    "write_summary",
]

# Invariant tolerances enforced on every preset that advances the 3D engine.
DIV_TOL = 1e-10
DEFECT_GROWTH_TOL = 1e-6
ENERGY_TOL = 1e-10
PYTHAGORAS_TOL = 1e-12


@dataclass
class CheckResult:
    """A single pinned-tolerance comparison."""

    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<="
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        base = (
            f"    [{mark}] {self.name}: {diag.format_float(self.value)} "
            f"{self.comparison} {diag.format_float(self.threshold)}"
        )
        return base + (f"  ({self.detail})" if self.detail else "")


@dataclass
class PresetReport:
    """Outcome of one preset: named checks plus timing."""

    name: str
    description: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(
        self,
        name: str,
        value: float,
        threshold: float,
        comparison: str = "<=",
        detail: str = "",
    ) -> CheckResult:
        value = float(value)
        if comparison == "<=":
            ok = value <= threshold
        elif comparison == ">=":
            ok = value >= threshold
        elif comparison == "abs<=":
            ok = abs(value) <= threshold
        else:
            raise ValueError(f"unknown comparison {comparison!r}")
        result = CheckResult(name, bool(ok), value, float(threshold), comparison, detail)
        self.checks.append(result)
        return result

    def summary_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.description}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "value": diag.format_float(c.value),
                    "comparison": c.comparison,
                    "threshold": diag.format_float(c.threshold),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _check_run_invariants(report: PresetReport, result) -> None:
    """The structural invariants enforced on every engine run."""
    inv = result.invariants
    report.check("max divergence", inv.max_div, DIV_TOL)
    report.check("orthogonal energy split", inv.pythagoras, PYTHAGORAS_TOL)
    report.check(
        "helical defect growth per unit time",
        inv.defect_growth_rate,
        DEFECT_GROWTH_TOL,
        detail=f"defect {inv.defect_initial:.3e} -> {inv.defect_final:.3e}",
    )
    report.check("energy identity residual", inv.energy_residual_max, ENERGY_TOL)


# --- individual presets -----------------------------------------------------


# Both oracles evolve z-independent fields, the shear and a perturbation that
# stays zero: every kz >= 1 plane stays exactly zero, so nz = 8 resolves them
# (tests/test_solver.py::TestOracleGrid).
ORACLE_SHEAR_CONFIG = ExperimentConfig(
    nx=64, ny=64, nz=8, Lx=40.0, pitch=1.0, a=0.0,
    kind="shear", t_end=1.0, output_dt=0.1, csv="oracle_shear.csv",
)
ORACLE_OSEEN_CONFIG = ExperimentConfig(
    nx=64, ny=64, nz=8, Lx=40.0, pitch=1.0, a=1.0,
    kind="oseen-only", t_end=2.0, output_dt=0.25, csv="oracle_oseen.csv",
)


def _preset_oracle_shear(report: PresetReport, out_dir: Path) -> None:
    result = run_experiment(ORACLE_SHEAR_CONFIG, out_dir, quiet=True)
    ops = result.final_state.ops
    u_exact, _ = shear_flow(result.grid, ORACLE_SHEAR_CONFIG.t_end)
    exact_hat = ops.fwd(u_exact)
    err = ops.l2_norm(result.final_state.v_hat - exact_hat) / ops.l2_norm(exact_hat)
    report.check("relative L2 error vs closed form", err, 1e-6)
    _check_run_invariants(report, result)


def _preset_oracle_oseen(report: PresetReport, out_dir: Path) -> None:
    result = run_experiment(ORACLE_OSEEN_CONFIG, out_dir, quiet=True)
    worst = max(
        max(r.l2_v, r.l2_grad_v, r.l2_uperp, r.l2_Nbar) for r in result.records
    )
    report.check("max perturbation norm over output times", worst, 1e-10)
    _check_run_invariants(report, result)


def _radial_gaussian_error(n: int, R: float, s0: float, t_end: float, nst: int) -> float:
    """Absolute max error of the CN engine against the spread Gaussian."""
    r = uniform_radii(R, n)
    h0 = heat_gaussian(r**2, s0)
    final = run_radial(RadialProfile(r, h0), t_end, t_end / nst, parity="even")
    exact = heat_gaussian(r**2, s0 + t_end)
    return float(np.max(np.abs(final.values - exact)))


def _preset_radial_convergence(report: PresetReport, out_dir: Path) -> None:
    R, s0, t_end, nst = 40.0, 10.0, 1.0, 1024
    errors = {n: _radial_gaussian_error(n, R, s0, t_end, nst) for n in (512, 1024, 2048)}
    order1 = np.log2(errors[512] / errors[1024])
    order2 = np.log2(errors[1024] / errors[2048])
    report.check("dr-halving order (512 -> 1024)", order1 - 2.0, 0.35, "abs<=",
                 detail=f"order {order1:.4f}")
    report.check("dr-halving order (1024 -> 2048)", order2 - 2.0, 0.35, "abs<=",
                 detail=f"order {order2:.4f}")
    report.check("max error vs closed form at dr=R/2048", errors[2048], 1e-8)


def _preset_poincare(report: PresetReport, out_dir: Path) -> None:
    sweep = diag.sweep_poincare(n_seeds=100)
    report.check(
        "max ratio over 100 seeds",
        sweep.max_ratio,
        sweep.pitch * (1.0 + diag._POINCARE_TOL),
        detail=f"pitch {sweep.pitch:g}",
    )
    report.check("pure-mode equality gap", sweep.equality_gap, diag._POINCARE_TOL)


def _preset_ladyzhenskaya(report: PresetReport, out_dir: Path) -> None:
    base = diag.sweep_ladyzhenskaya(n_seeds=100, pitch=1.0)
    doubled = diag.sweep_ladyzhenskaya(n_seeds=100, pitch=2.0)
    report.check(
        "all sweep ratios finite",
        float(np.all(np.isfinite(base.ratios)) and np.all(np.isfinite(doubled.ratios))),
        1.0,
        ">=",
        detail=f"{base.ratios.size + doubled.ratios.size} ratios",
    )
    rel = abs(doubled.c0 - base.c0) / base.c0
    report.check(
        "fitted C0 change under pitch doubling",
        rel,
        0.10,
        detail=f"C0 = {base.c0:.6g} (pitch 1) vs {doubled.c0:.6g} (pitch 2)",
    )
    report.check(
        "frozen default C0 dominates the sweep",
        max(base.c0, doubled.c0),
        diag.DEFAULT_C0,
    )


def _preset_decomposition(report: PresetReport, out_dir: Path) -> None:
    grid = GridSpec.cube(64, 40.0, 1.0)
    ops = SpectralOps(grid)
    spec = PerturbationSpec(seed=0, amplitude=0.1, modes=(0, 1, 2), sigma=2.0)
    v_hat = random_helical_perturbation(spec, grid, ops)
    v_h1 = float(np.sqrt(sum(ops.l2_and_grad_norm_sq(v_hat))))
    w_pert = ops.inv(ops.curl(v_hat))
    w_lo = oseen_vorticity(grid, 0.0)
    for a_true in (-2.0, 0.5, 1.0):
        omega = a_true * w_lo + w_pert
        result = decompose(omega, grid, 1.5, ops=ops)
        report.check(
            f"a recovery error (a = {a_true:g})", abs(result.a - a_true), 1e-10
        )
        diff = result.v_hat - v_hat
        err = np.sqrt(sum(ops.l2_and_grad_norm_sq(diff))) / v_h1
        report.check(f"v recovery relative H1 error (a = {a_true:g})", err, 1e-8)
        report.check(
            f"angular-mean radial velocity (a = {a_true:g})",
            result.mean_radial_max,
            1e-10,
        )
    _, w_shear = shear_flow(grid, 0.0)
    report.check(
        "shear-flow circulation",
        circulation_a(w_shear, grid),
        1e-13,
        "abs<=",
    )


# nz = 24 (kz <= 8) resolves the run: tests/test_solver.py::TestTrendGrid
TREND_CONFIG = ExperimentConfig(
    nx=64, ny=64, nz=24, Lx=40.0, pitch=1.0, a=1.0,
    kind="perturbed-oseen", seed=0, amplitude=0.1, modes=(0, 1, 2), sigma=2.0,
    t_end=8.0, dt=0.05, output_dt=0.1, csv="trend_diagnostics.csv",
)


@functools.cache
def _trend_records(out_dir: Path):
    """Records of the shared trend experiment, run once per out_dir."""
    return run_experiment(TREND_CONFIG, out_dir, quiet=True).records


def _preset_theorem_trend(report: PresetReport, out_dir: Path) -> None:
    records = _trend_records(out_dir)
    t = np.array([r.t for r in records])
    half = TREND_CONFIG.t_end / 2.0
    for label, series in (
        ("|v|_L2", np.array([r.l2_v for r in records])),
        ("sqrt(t) |grad v|_L2", np.array([r.sqrt_t_l2_grad_v for r in records])),
    ):
        t_star = diag.transient_time(t, series)
        report.check(
            f"transient of {label} recorded before mid-run",
            np.inf if t_star is None else t_star,
            half,
            detail="median-smoothed series nonincreasing afterwards",
        )
    log_report = diag.log_energy_check(records)
    report.check(
        "log-energy ratio tail slope (normalized)",
        log_report.slope,
        log_report.confidence,
        detail=f"window {log_report.window[0]:.2f}..{log_report.window[1]:.2f}",
    )


def _preset_perp_decay(report: PresetReport, out_dir: Path) -> None:
    records = _trend_records(out_dir)
    pitch = TREND_CONFIG.pitch
    fit = diag.decay_fit(records, "l2_uperp")
    threshold = -1.0 / pitch**2 + 0.2 / pitch**2
    report.check(
        "fitted perp-energy decay rate",
        np.inf if fit is None else fit.exponent,
        threshold,
        detail="" if fit is None else
        f"window {fit.window[0]:.2f}..{fit.window[1]:.2f}, residual {fit.residual:.3e}",
    )
    nfit = diag.decay_fit(records, "l2_Nbar")
    report.check(
        "mean-source fit residual finite (reported)",
        float(np.isfinite(nfit.residual)) if nfit is not None else 0.0,
        1.0,
        ">=",
        detail="" if nfit is None else
        f"rate {nfit.exponent:.4f}, residual {nfit.residual:.3e}",
    )


def _preset_rate_study(report: PresetReport, out_dir: Path) -> None:
    study_15 = diag.rate_study(1.5)
    report.check(
        "fitted exponent for m = 1.5",
        study_15.fit.exponent - (-0.25),
        0.10,
        "abs<=",
        detail=f"exponent {study_15.fit.exponent:.4f}, expected {study_15.expected:g}",
    )
    study_12 = diag.rate_study(1.2)
    report.check(
        "fitted exponent for m = 1.2",
        study_12.fit.exponent - (-0.10),
        0.08,
        "abs<=",
        detail=f"exponent {study_12.fit.exponent:.4f}, expected {study_12.expected:g}",
    )
    gauss = diag.rate_study(initial="gaussian")
    report.check(
        "Gaussian data flagged super-rate",
        float(gauss.super_rate),
        1.0,
        ">=",
        detail=f"exponent {gauss.fit.exponent:.4f}",
    )
    # 1 when the slowest study finished within 60 s; the wall time itself
    # stays out of summary.json, which must be byte-reproducible.
    slowest = max(s.elapsed_seconds for s in (study_15, study_12, gauss))
    report.check("every study within 60 s", float(slowest <= 60.0), 1.0, ">=")


def _preset_oseen_differences(report: PresetReport, out_dir: Path) -> None:
    from .fields import oseen_grad_l2_difference_sq, oseen_l2_difference_sq

    check = diag.oseen_difference_check()
    report.check("difference-constant lattice spread", check.spread, 0.10)
    report.check("gradient-constant lattice spread", check.grad_spread, 0.10)
    worst = 0.0
    for entry in check.entries:
        closed = oseen_l2_difference_sq(entry.t1, entry.t2, 1.0)
        closed_grad = oseen_grad_l2_difference_sq(entry.t1, entry.t2, 1.0)
        worst = max(
            worst,
            abs(entry.value_sq - closed) / closed,
            abs(entry.grad_value_sq - closed_grad) / closed_grad,
        )
    report.check("quadrature vs closed form (relative)", worst, 1e-9)


def _preset_invariants(report: PresetReport, out_dir: Path) -> None:
    perturbed = ExperimentConfig(
        nx=48, ny=48, nz=48, Lx=20.0, pitch=1.0, a=1.0,
        kind="perturbed-oseen", seed=0, amplitude=0.1, sigma=1.2,
        t_end=1.0, output_dt=0.1, csv="invariants_perturbed.csv",
    )
    result = run_experiment(perturbed, out_dir, quiet=True)
    _check_run_invariants(report, result)
    shear = ExperimentConfig(
        nx=48, ny=48, nz=48, Lx=20.0, pitch=1.0, a=0.0,
        kind="shear", t_end=0.5, output_dt=0.1, csv="invariants_shear.csv",
    )
    result = run_experiment(shear, out_dir, quiet=True)
    _check_run_invariants(report, result)


#: Every preset in run order: name -> (description, function).
PRESETS = {
    "oracle-shear": (
        "columnar shear flow matches its closed-form heat solution",
        _preset_oracle_shear,
    ),
    "oracle-oseen": (
        "zero perturbation of the Oseen vortex stays zero",
        _preset_oracle_oseen,
    ),
    "radial-convergence": (
        "radial engine: order-2 self-convergence, small final error",
        _preset_radial_convergence,
    ),
    "poincare": (
        "seeded zero-vertical-mean fields satisfy the pitch Poincare bound",
        _preset_poincare,
    ),
    "ladyzhenskaya": (
        "fitted interpolation constant stable under pitch doubling",
        _preset_ladyzhenskaya,
    ),
    "decomposition": (
        "round trip recovers circulation and perturbation",
        _preset_decomposition,
    ),
    "theorem-trend": (
        "monitored norms nonincreasing after transient; log ratio bounded",
        _preset_theorem_trend,
    ),
    "perp-decay": (
        "zero-vertical-mean energy decays at the spectral-gap rate",
        _preset_perp_decay,
    ),
    "rate-study": (
        "weighted-tail data decay at the slow algebraic rates",
        _preset_rate_study,
    ),
    "oseen-differences": (
        "difference-formula constants stable over the time lattice",
        _preset_oseen_differences,
    ),
    "invariants": (
        "divergence, defect growth, energy identity and energy split",
        _preset_invariants,
    ),
}


def run_preset(name: str, out_dir=".") -> PresetReport:
    """Execute one named preset and return its report."""
    if name not in PRESETS:
        known = ", ".join(PRESETS)
        raise ValueError(f"unknown preset {name!r}; known presets: {known}, all")
    description, run = PRESETS[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = PresetReport(name=name, description=description)
    start = time.perf_counter()
    run(report, out_dir)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def run_all(out_dir=".", names=None) -> list[PresetReport]:
    names = list(PRESETS) if names is None else names
    return [run_preset(name, out_dir) for name in names]


def write_summary(reports: list[PresetReport], path) -> None:
    """Write the deterministic machine-readable summary (no timings)."""
    payload = {
        "passed": all(r.passed for r in reports),
        "presets": [r.to_json() for r in reports],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
