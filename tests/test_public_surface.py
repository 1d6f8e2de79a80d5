"""Public surface: every exported name resolves and removed names stay gone."""

import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helns
from helns import (
    config, decomposition, diagnostics, experiment, fields, grid, presets, radial, snapshot,
    solver, spectral,
)

SUBMODULES = (
    "cli", "config", "decomposition", "diagnostics", "experiment", "fields",
    "grid", "presets", "radial", "snapshot", "solver", "spectral",
)

_OPS = spectral.SpectralOps(grid.GridSpec.cube(16, 20.0, 1.0))

REMOVED_NAMES = (
    (helns, "PhysicalField"),
    (helns, "SpectralField"),
    (spectral, "PhysicalField"),
    (spectral, "SpectralField"),
    (spectral.SpectralOps, "physical_l2_norm"),
    (spectral.SpectralOps, "inv_disk"),
    (radial, "graded_radii"),
    (radial, "BoundEnvelopeReport"),
    (radial.RadialProfile, "weights"),
    (diagnostics, "theorem_quantities"),
    (diagnostics, "theorem_quantities_from_u"),
    (diagnostics.OseenDifferenceReport, "passed"),
    (diagnostics, "energy_identity_residual"),
    (diagnostics, "orthogonal_split_residual"),
    (decomposition, "circulation_from_profile"),
    (decomposition, "_embed_mean_velocity"),
    (decomposition, "_eval_bilinear"),
    (decomposition, "_eval_spectral"),
    (decomposition, "_ring_points"),
    (decomposition, "_ring_average_many"),
    (decomposition, "_to_cylindrical"),
    (decomposition.DecompositionResult, "v_physical"),
    (solver, "_cfl_dt"),
    (solver, "rhs_perturbation"),
    (solver._Rhs, "_products"),
    (solver.SimulationState, "u_physical"),
    (solver.SimulationState, "v_physical"),
    (solver.SimulationState, "_of_block"),
    (helns, "OseenParams"),
    (helns, "oseen_velocity"),
    (helns, "heat_kernel_2d"),
    (fields, "OseenParams"),
    (fields, "oseen_utheta_profile"),
    (fields, "oseen_wz_profile"),
    (fields, "oseen_vorticity_xy"),
    (fields, "oseen_velocity"),
    (fields, "heat_kernel_2d"),
    (radial, "duhamel_gaussian_solution"),
    (radial.RadialProfile, "integrate_r_dr"),
    (diagnostics, "norms"),
    (diagnostics, "source_norm"),
    (diagnostics, "SourceNormReport"),
    (decomposition.DecompositionResult, "reconstruct_vorticity"),
    (spectral.SpectralOps, "laplacian"),
    (spectral.SpectralOps, "max_divergence"),
    (spectral.SpectralOps, "helical_defect_from_gradients"),
    (spectral.SpectralOps, "_helical_defect"),
    (solver._Rhs, "_gradients"),
    (presets, "PRESET_ORDER"),
    (presets, "PRESET_DESCRIPTIONS"),
    (presets, "_PRESET_FUNCS"),
    (helns, "step_radial"),
    (radial, "radial_laplacian_banded"),
    (spectral.SpectralOps, "deriv"),
    (spectral.SpectralOps, "gradient"),
    (spectral.SpectralOps, "band_gradients"),
    (spectral.SpectralOps, "_gradients"),
    (spectral.SpectralOps, "band_tendency"),
    (spectral.SpectralOps, "_norm_weights"),
    (spectral.SpectralOps, "inv_band"),
    (spectral.SpectralOps, "disk_gradients"),
    (spectral.SpectralOps, "helical_defect"),
    (spectral, "max_divergence"),
    (diagnostics, "perp_decay_fit"),
    (diagnostics, "nbar_decay_fit"),
    (spectral, "_divergence"),
    (spectral, "_leray"),
    (helns, "ring_average"),
    (decomposition, "ring_average"),
    (diagnostics.LogEnergyReport, "passed"),
    (diagnostics, "_oseen_cross_term"),
    # instance attributes, looked up on an instance
    (_OPS, "_ik"),
    (_OPS, "_band_k"),
    (_OPS, "_band_ik"),
    (_OPS, "_band_inv_k2"),
    (_OPS, "_parseval"),
)

REMOVED_PARAMETERS = (
    (experiment.run_experiment, ("check_energy",)),
    (diagnostics.RecordBuilder, ("c0", "defect_mask_radius", "grid")),
    (diagnostics.ladyzhenskaya_ratio, ("defect_tol",)),
    (spectral.SpectralOps.gates, ("mask_radius",)),
    (decomposition.decompose,
     ("mean_route", "ring_method", "n_theta", "defect_tol", "div_tol")),
    (decomposition.ring_average_cylindrical, ("method", "n_theta", "grid", "radii")),
    (decomposition._shell_spectra, ("radii",)),
    (diagnostics.oseen_difference_check, ("t1_values", "rho_values", "pitch")),
    (diagnostics.rate_study,
     ("a", "amplitude", "delta", "s0", "t_end", "dt", "pitch", "n_observations",
      "super_rate_threshold")),
    (diagnostics.sweep_ladyzhenskaya, ("n", "Lx", "sigma")),
    (diagnostics.sweep_poincare, ("grid", "ops")),
    (diagnostics.fit_exponential, ("min_samples",)),
    (diagnostics.fit_power, ("window",)),
    (diagnostics.transient_time, ("rtol",)),
    (diagnostics.PoincareSweepReport.passed, ("margin",)),
    (experiment.run_experiment, ("guard_factor",)),
    (radial.step_radial, ("source", "_banded", "parity", "boundary_tol", "_system")),
    (radial.radial_biot_savart, ("tail_tol",)),
    (radial.run_radial, ("source_fn",)),
    (radial.RadialProfile.is_uniform, ("rtol",)),
    (solver.step_spectral3d, ("ops",)),
    (solver.SimulationState, ("grid", "v_hat")),
    (decomposition.weighted_l2m_norm, ("pitch",)),
    (spectral.SpectralOps.inverse_curl, ("return_correction",)),
    (grid.GridSpec, ("center",)),
    (grid.GridSpec, ("Ly",)),
    (solver.run_spectral3d, ("grid",)),
    (experiment.total_vorticity, ("ops",)),
    (presets._check_run_invariants, ("defect",)),
)

# Arguments that every caller passes, so they carry no default.
REQUIRED_PARAMETERS = (
    (solver.step_spectral3d, "k1"),
    (decomposition.weighted_l2m_norm, "grid"),
    (solver.run_spectral3d, "ops"),
    (decomposition.ring_average_cylindrical, "ops"),
    (fields.random_helical_perturbation, "ops"),
)


@pytest.mark.parametrize("name", ("",) + SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("helns" + (f".{name}" if name else ""))
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ lists undefined names {missing}"


def test_removed_names_are_gone():
    present = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name in REMOVED_NAMES if hasattr(owner, name)]
    assert not present


def test_removed_options_are_gone():
    for func, names in REMOVED_PARAMETERS:
        params = inspect.signature(func).parameters
        assert not set(names) & set(params), func.__qualname__
    for func, name in REQUIRED_PARAMETERS:
        param = inspect.signature(func).parameters[name]
        assert param.default is inspect.Parameter.empty, func.__qualname__
    config_fields = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    assert not {"engine", "snapshots", "snapshot_dt", "background"} & config_fields
    result_fields = {f.name for f in dataclasses.fields(decomposition.DecompositionResult)}
    assert "mean_route" not in result_fields
    assert "m" not in {f.name for f in dataclasses.fields(config.ExperimentConfig)}
    assert "version" not in {f.name for f in dataclasses.fields(snapshot.SnapshotData)}


def test_removed_argument_shapes_are_gone():
    # weighted_l2m_norm takes 3-component samples only, and a run_radial
    # observer receives the bare value array, not a profile
    g = _OPS.grid
    with pytest.raises(ValueError, match="expected samples of shape"):
        decomposition.weighted_l2m_norm(np.zeros(g.shape), 1.5, grid=g)
    r = radial.uniform_radii(10.0, 64)
    seen = []
    radial.run_radial(radial.RadialProfile(r, np.exp(-r**2)), 0.02, 0.01,
                      observer=lambda t, values: seen.append(values))
    assert len(seen) == 2 and all(type(v) is np.ndarray for v in seen)


def test_import_leaves_quadrature_and_lapack_unloaded():
    # scipy.integrate and LAPACK load on first use, not with the package
    src = Path(helns.__file__).resolve().parents[1]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import helns; "
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.linalg.lapack') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe, str(src)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == ""
