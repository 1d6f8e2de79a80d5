"""Public surface: every exported name resolves and removed names stay gone."""

import dataclasses
import importlib
import inspect

import pytest

import helns
from helns import (
    decomposition, diagnostics, experiment, fields, presets, radial, solver, spectral,
)

SUBMODULES = (
    "cli", "config", "decomposition", "diagnostics", "experiment", "fields",
    "grid", "presets", "radial", "snapshot", "solver", "spectral",
)

REMOVED_NAMES = (
    (helns, "PhysicalField"),
    (helns, "SpectralField"),
    (spectral, "PhysicalField"),
    (spectral, "SpectralField"),
    (spectral.SpectralOps, "physical_l2_norm"),
    (radial, "graded_radii"),
    (radial, "BoundEnvelopeReport"),
    (radial.RadialProfile, "weights"),
    (diagnostics, "theorem_quantities"),
    (diagnostics, "theorem_quantities_from_u"),
    (diagnostics.OseenDifferenceReport, "passed"),
    (decomposition, "circulation_from_profile"),
    (decomposition, "_embed_mean_velocity"),
    (decomposition, "_eval_bilinear"),
    (decomposition, "_eval_spectral"),
    (decomposition, "_ring_points"),
    (decomposition, "_ring_average_many"),
    (decomposition, "_to_cylindrical"),
    (decomposition.DecompositionResult, "v_physical"),
    (solver, "_cfl_dt"),
    (solver.SimulationState, "u_physical"),
    (solver.SimulationState, "v_physical"),
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
)

REMOVED_PARAMETERS = (
    (experiment.run_experiment, ("check_energy",)),
    (diagnostics.RecordBuilder, ("c0", "defect_mask_radius")),
    (diagnostics.source_norm, ("c0",)),
    (diagnostics.ladyzhenskaya_ratio, ("defect_tol",)),
    (spectral.SpectralOps.helical_defect, ("mask_radius",)),
    (decomposition.decompose,
     ("mean_route", "ring_method", "n_theta", "defect_tol", "div_tol")),
    (decomposition.ring_average, ("method", "n_theta")),
    (decomposition.ring_average_cylindrical, ("method", "n_theta")),
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
    (solver.rhs_perturbation, ("grid", "params")),
    (decomposition.weighted_l2m_norm, ("pitch",)),
    (spectral.SpectralOps.inverse_curl, ("return_correction",)),
)

# Arguments that every caller passes, so they carry no default.
REQUIRED_PARAMETERS = (
    (solver.rhs_perturbation, "ops"),
    (solver.step_spectral3d, "k1"),
    (decomposition.weighted_l2m_norm, "grid"),
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
