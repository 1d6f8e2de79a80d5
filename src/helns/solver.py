"""The 3D time integration engine.

The engine advances the perturbation v of the decomposition
u = a u_LO(t) + v under

    dv/dt + P[ v.grad v + a (u_LO.grad v + v.grad u_LO) ] = Lap v,

i.e. the incompressible Navier-Stokes equations in velocity-perturbation
form: the background Oseen vortex enters linearly and analytically (never
through a discretized 1/r singularity), all pressures are eliminated by the
Leray projection P, and the term a^2 u_LO.grad u_LO is a pure gradient that P
annihilates, so it is never formed.

Time stepping is classical RK4 on the integrating-factor variable
e^{|k|^2 t} v_hat, which propagates the stiff viscous term exactly (the heat
semigroup is a diagonal Fourier multiplier).  Every nonlinear product is
dealiased by the 2/3 rule and re-projected.

The radial 2.5D engine lives in :mod:`helns.radial` and is driven
separately (:func:`helns.radial.run_radial`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import OseenParams, oseen_gradient_xy, oseen_velocity_xy
from .grid import GridSpec
from .spectral import SpectralOps

__all__ = ["SolverConfig", "SimulationState", "rhs_perturbation", "step_spectral3d", "run_spectral3d"]

logger = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    """Time-integration policy of the 3D engine.

    ``dt`` fixes the step size; when it is None the step is CFL-limited with
    the given advective CFL number against max |u| + |a u_LO|.
    """

    t_end: float = 1.0
    dt: float | None = None
    cfl: float = 0.4
    output_dt: float = 0.1
    background: OseenParams = dataclass_field(default_factory=OseenParams)

    def __post_init__(self) -> None:
        if not self.t_end >= 0:
            raise ValueError("t_end must be nonnegative")
        if not (0.0 < self.cfl < 1.0):
            raise ValueError("CFL number must lie in (0, 1)")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("fixed dt must be positive")


@dataclass
class SimulationState:
    """Current time and spectral perturbation coefficients."""

    grid: GridSpec
    t: float
    v_hat: np.ndarray

    def v_physical(self, ops: SpectralOps) -> np.ndarray:
        return ops.inv(self.v_hat)

    def u_physical(self, ops: SpectralOps, a: float) -> np.ndarray:
        """Total velocity u = v + a u_LO(t) on the grid."""
        u = ops.inv(self.v_hat)
        if a != 0.0:
            uxy = oseen_velocity_xy(self.grid, self.t)
            u[0] += a * uxy[0][..., None]
            u[1] += a * uxy[1][..., None]
        return u


class _Rhs:
    """Perturbation-equation tendency with cached background slices."""

    def __init__(self, grid: GridSpec, ops: SpectralOps, a: float):
        self.grid = grid
        self.ops = ops
        self.a = a
        self._cache_t = None
        self._cache = None

    def _background(self, t: float):
        if self._cache_t != t:
            uxy = oseen_velocity_xy(self.grid, t)
            gxy = oseen_gradient_xy(self.grid, t)
            self._cache = (uxy[..., None], gxy[..., None])
            self._cache_t = t
        return self._cache

    def __call__(self, v_hat: np.ndarray, t: float) -> np.ndarray:
        ops = self.ops
        v = ops.inv(v_hat)
        if not np.all(np.isfinite(v)):
            raise FloatingPointError(
                f"non-finite advection product at t={t:.6g}; aborting"
            )
        adv = np.empty_like(v)
        for i in range(3):
            grad_i = ops.inv(ops.gradient(v_hat[i]))
            adv[i] = (
                v[0] * grad_i[0] + v[1] * grad_i[1] + v[2] * grad_i[2]
            )
            if self.a != 0.0:
                ulo, glo = self._background(t)
                adv[i] += self.a * (ulo[0] * grad_i[0] + ulo[1] * grad_i[1])
                if i < 2:
                    adv[i] += self.a * (v[0] * glo[i, 0] + v[1] * glo[i, 1])
        return -ops.leray(ops.dealias(ops.fwd(adv)))


def rhs_perturbation(
    v_hat: np.ndarray, t: float, grid: GridSpec, params: OseenParams,
    ops: SpectralOps | None = None,
) -> np.ndarray:
    """Projected advective tendency -P[v.grad v + a(u_LO.grad v + v.grad u_LO)].

    The viscous term is excluded: it is applied exactly by the integrating
    factor of :func:`step_spectral3d`.
    """
    if ops is None:
        ops = SpectralOps(grid)
    return _Rhs(grid, ops, params.a)(v_hat, t)


def _cfl_dt(state: SimulationState, ops: SpectralOps, a: float, cfl: float) -> float:
    u = state.u_physical(ops, a)
    umax = float(np.max(np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)))
    h = min(state.grid.dx, state.grid.dy, state.grid.dz)
    if umax == 0.0:
        return np.inf
    return cfl * h / umax


def step_spectral3d(
    state: SimulationState,
    dt: float,
    rhs,
    ops: SpectralOps,
) -> SimulationState:
    """One integrating-factor RK4 step of the 3D engine.

    RK4 is applied to the variable e^{|k|^2 t} v_hat; the multipliers
    e^{-|k|^2 dt/2} and e^{-|k|^2 dt} propagate the viscous term exactly
    between stage times.
    """
    Eh = np.exp(-ops.k2 * (dt / 2.0))
    Ef = Eh * Eh
    v = state.v_hat
    t = state.t
    k1 = rhs(v, t)
    k2 = rhs(Eh * (v + (dt / 2.0) * k1), t + dt / 2.0)
    k3 = rhs(Eh * v + (dt / 2.0) * k2, t + dt / 2.0)
    k4 = rhs(Ef * v + dt * Eh * k3, t + dt)
    v_new = Ef * v + (dt / 6.0) * (Ef * k1 + 2.0 * Eh * (k2 + k3) + k4)
    return SimulationState(grid=state.grid, t=t + dt, v_hat=v_new)


def run_spectral3d(
    v0_hat: np.ndarray,
    grid: GridSpec,
    config: SolverConfig,
    observer=None,
    ops: SpectralOps | None = None,
) -> SimulationState:
    """Advance the perturbation to t_end, calling ``observer`` at output times.

    ``observer(state)`` is invoked at t = 0 and then whenever the simulation
    crosses the next multiple of ``config.output_dt`` (and at t_end).  The
    step size is ``config.dt`` when fixed — reduced transiently if it
    violates the CFL bound — or the CFL-limited value otherwise.
    """
    if ops is None:
        ops = SpectralOps(grid)
    a = config.background.a
    rhs = _Rhs(grid, ops, a)
    state = SimulationState(grid=grid, t=0.0, v_hat=ops.leray(ops.dealias(v0_hat)))
    if observer is not None:
        observer(state)
    if config.t_end == 0.0:
        return state
    next_output = config.output_dt
    while state.t < config.t_end - 1e-12:
        dt_cfl = _cfl_dt(state, ops, a, config.cfl)
        dt = min(config.dt, dt_cfl) if config.dt is not None else dt_cfl
        if config.dt is not None and dt < config.dt:
            logger.warning(
                "t=%.4g: fixed dt=%.3g violates CFL bound %.3g; step reduced",
                state.t, config.dt, dt_cfl,
            )
        if not np.isfinite(dt):
            dt = config.t_end - state.t
        dt = min(dt, config.t_end - state.t, next_output - state.t)
        state = step_spectral3d(state, dt, rhs, ops)
        if state.t >= next_output - 1e-12:
            if observer is not None:
                observer(state)
            next_output += config.output_dt
    return state
