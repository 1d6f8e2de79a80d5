"""Turn a validated configuration into a simulation run with outputs.

:func:`run_experiment` builds the grid and initial data, advances the 3D
engine while a :class:`~helns.diagnostics.RecordBuilder` turns each output
state into a :class:`~helns.diagnostics.DiagnosticsRecord` row, writes the
diagnostics CSV (and optional HLXF vorticity snapshots) and returns the
collected artifacts together with the builder's
:class:`~helns.diagnostics.InvariantReport`.

Runs whose perturbation energy grows past a fixed factor of its initial
value, or whose fields turn non-finite, abort with :class:`InstabilityError`
after flushing the partial CSV.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .diagnostics import InvariantReport, RecordBuilder, write_records_csv
from .fields import heat_gaussian, oseen_vorticity, random_helical_perturbation, shear_flow
from .grid import GridSpec
from .snapshot import write_snapshot
from .solver import SimulationState, Stage, _output_count, run_spectral3d
from .spectral import SpectralOps, _require_grid

__all__ = [
    "InstabilityError",
    "InvariantReport",
    "RunResult",
    "build_grid",
    "build_initial",
    "run_experiment",
    "total_vorticity",
]

logger = logging.getLogger(__name__)

# Perturbation-energy growth beyond this factor of the initial energy is
# treated as numerical instability (stable runs are strictly dissipative
# up to the bounded background coupling; see InstabilityError).
GUARD_FACTOR = 10.0


class InstabilityError(RuntimeError):
    """Raised when the perturbation energy grows past the stability guard
    or the solver meets non-finite fields (``__cause__`` is then the
    solver's FloatingPointError).

    The partial diagnostics CSV written before the abort is available as
    ``csv_path``.
    """

    def __init__(self, message: str, csv_path=None):
        super().__init__(message)
        self.csv_path = csv_path


@dataclass
class RunResult:
    """Artifacts of one experiment run."""

    config: ExperimentConfig
    grid: GridSpec
    records: list
    final_state: SimulationState
    csv_path: Path | None
    snapshot_paths: list
    invariants: InvariantReport


def build_grid(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(nx=cfg.nx, ny=cfg.ny, nz=cfg.nz, Lx=cfg.Lx, pitch=cfg.pitch)


def _lamb2d_initial(cfg: ExperimentConfig, grid: GridSpec, ops: SpectralOps) -> np.ndarray:
    """Columnar zero-circulation dipole-in-spread vortex.

    The vertical vorticity is amplitude * (G(s0) - G(1)) with unit-mass
    Gaussians G(s) = exp(-r^2/(4s)) / (4 pi s): the two masses cancel, so the
    induced velocity is localized and the circulation is exactly zero.
    """
    r2 = grid.xc**2 + grid.yc**2
    w_z = cfg.amplitude * (heat_gaussian(r2, cfg.s0) - heat_gaussian(r2, 1.0))
    w = np.zeros((3,) + grid.shape)
    w[2] = w_z[..., None]
    v_hat, _ = ops.inverse_curl(ops.fwd(w))
    return v_hat


def build_initial(cfg: ExperimentConfig, grid: GridSpec, ops: SpectralOps) -> np.ndarray:
    """Spectral perturbation coefficients v0_hat for the configured kind.

    ``ops`` must be built for ``grid``.
    """
    _require_grid(ops, grid)
    if cfg.kind == "oseen-only":
        return np.zeros((3,) + grid.spectral_shape, dtype=complex)
    if cfg.kind == "shear":
        u0, _ = shear_flow(grid, 0.0)
        return ops.fwd(u0)
    if cfg.kind == "lamb2d":
        return _lamb2d_initial(cfg, grid, ops)
    if cfg.kind == "perturbed-oseen":
        return random_helical_perturbation(cfg, grid, ops)
    raise ValueError(f"unknown initial kind {cfg.kind!r}")


def total_vorticity(state: SimulationState, a: float) -> np.ndarray:
    """Physical total vorticity a w_LO(t) + curl v on the grid.

    The background curl is analytic (no discretized seam at the periodic
    wrap); only the localized perturbation goes through the spectral curl.
    """
    w = state.ops.inv(state.ops.curl(state.block))
    if a != 0.0:
        w += a * oseen_vorticity(state.grid, state.t)
    return w


def run_experiment(
    cfg: ExperimentConfig,
    out_dir=".",
    *,
    ops: SpectralOps | None = None,
    quiet: bool = False,
) -> RunResult:
    """Run the configured experiment, writing CSV and snapshot artifacts.

    The configuration is validated first, as :func:`~helns.config.parse_config`
    does, and a violation raises :class:`~helns.config.ConfigError`.  A
    snapshot is written with every ``snapshot_dt / output_dt``-th record.
    The energy identity, with its exchange with the background, is evaluated
    at every record from the stage the solver hands to the observer; it is
    reported, never a cause to abort.  The run aborts once the
    perturbation energy exceeds ``GUARD_FACTOR`` times its initial value.
    Given ``ops`` must be built for the configured grid.
    """
    bad = cfg.validate()
    if bad:
        raise ConfigError(bad)
    grid = build_grid(cfg)
    if ops is None:
        ops = SpectralOps(grid)
    v0_hat = build_initial(cfg, grid, ops)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    builder = RecordBuilder(ops, cfg.a)
    records = builder.records

    csv_path = out_dir / cfg.csv
    snap_dir = out_dir / cfg.snapshot_dir
    snapshot_paths: list[Path] = []
    guard_sq = None
    # a snapshot goes with every snap_every-th record, the first included
    snap_every = _output_count(cfg.snapshot_dt, cfg.output_dt, "snapshot_dt")

    def flush() -> None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_records_csv(records, csv_path)

    def observer(state: SimulationState, stage: Stage) -> None:
        nonlocal guard_sq
        rec = builder(state, stage)
        if guard_sq is None:
            guard_sq = GUARD_FACTOR * max(rec.l2_v**2, np.finfo(float).tiny)
        elif rec.l2_v**2 > guard_sq:
            flush()
            raise InstabilityError(
                f"perturbation energy {rec.l2_v**2:.6g} at t={rec.t:.6g} exceeds "
                f"{GUARD_FACTOR:g} x initial energy; partial diagnostics flushed to "
                f"{csv_path}",
                csv_path=csv_path,
            )
        if snap_every and (len(records) - 1) % snap_every == 0:
            snap_dir.mkdir(parents=True, exist_ok=True)
            path = snap_dir / f"snapshot_{len(snapshot_paths):04d}.hlxf"
            write_snapshot(path, grid, state.t, total_vorticity(state, cfg.a))
            snapshot_paths.append(path)

    try:
        final_state = run_spectral3d(v0_hat, ops, cfg, observer=observer)
    except FloatingPointError as exc:
        flush()
        raise InstabilityError(
            f"{exc}; partial diagnostics flushed to {csv_path}", csv_path=csv_path
        ) from exc
    flush()

    invariants = builder.invariants()
    if not quiet:
        logger.info(
            "run complete: %d records to %s; %s",
            len(records), csv_path, invariants.summary(),
        )
    return RunResult(
        config=cfg,
        grid=grid,
        records=records,
        final_state=final_state,
        csv_path=csv_path,
        snapshot_paths=snapshot_paths,
        invariants=invariants,
    )
