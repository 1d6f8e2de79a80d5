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

The engine's coefficients live on the kept 2/3-rule block
(3, nbx, nby, nz//3 + 1) of modes |kx| <= nx//3, |ky| <= ny//3,
kz <= nz//3, outside which the state and every tendency are exactly zero
(see :mod:`helns.spectral`): the state, the stage tendencies k1-k4 and the
RK4 combinations are block arrays, each stage inverts the block with
:meth:`SpectralOps.inv` and transforms its products back with
:meth:`SpectralOps.fwd_band`, and the tail -P dealias(.) is
-:meth:`SpectralOps.leray` of the block (on which dealiasing is the
identity).  Each of these gives, on the block, the bits the full-array
operation gives, and the RK4 combinations are taken element by element, so
the engine's states are the full-array engine's states bit for bit.  Inside
a run the block is the only representation: a :class:`SimulationState` is
``(ops, t, block)``, and the diagnostics records and snapshots read the
block and scatter nothing.  The full shape is formed only at the boundary:
``SimulationState.v_hat`` is a fresh scatter of the block, allocated on
every access.

The nonlinearity has two branches.  Without background (a = 0) it is taken in
divergence form, P div(v (x) v): one inverse transform of v, the six symmetric
products v_i v_j and one forward transform of them, 9 scalar FFTs against the
15 of the convective form v.grad v, and equal to it up to round-off on the
dealiased solenoidal fields the engine carries.  With background (a != 0) the
convective form is kept: the sampled Oseen slice is not band-limited, so the
two forms of the coupling a(u_LO.grad v + v.grad u_LO) differ by truncation
error, not round-off.  Against a 2x zero-padded evaluation with the analytic
u_LO and grad u_LO, the convective loop is off by about 5e-5 relative L2 at
32^3, Lx = 20, and the divergence form by about 3e-4.  Both branches are one
method, and either forms its products in one work array, allocated with the
tendency and kept for the run.

Stage 1 of each RK4 step does not depend on dt, so :func:`run_spectral3d`
evaluates it first, as a :class:`Stage`: the physical v it inverted, at
a != 0 the nine physical gradients of the convective loop, the block
tendency k1 and max |v + a u_LO|.  The observer of an output time receives
that stage with the state, so a diagnostics record reuses its fields
instead of transforming the state again; the step then takes its CFL bound
from the stage and hands k1 to :func:`step_spectral3d`, which requires it.  The one
stage that no step consumes is the one at t_end, evaluated only for the
record there.

Outputs fall on the grid k * output_dt, and t_end is one of its points:
:class:`SolverConfig` rejects a t_end that is not a whole multiple of
output_dt, so the final state is always recorded.

The radial 2.5D engine lives in :mod:`helns.radial` and is driven
separately (:func:`helns.radial.run_radial`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fields import oseen_gradient_xy, oseen_velocity_xy
from .grid import GridSpec, _raise_all, _rule
from .spectral import SpectralOps

__all__ = [
    "SolverConfig",
    "SimulationState",
    "Stage",
    "step_spectral3d",
    "run_spectral3d",
]

logger = logging.getLogger(__name__)


def _output_count(span: float, output_dt: float, name: str) -> int:
    """The number of output intervals in ``span``, a nonnegative time from t = 0.

    ``span`` must be a whole multiple of ``output_dt`` to relative 1e-9.
    Otherwise, a non-finite ratio included, a ValueError names ``name``.
    """
    ratio = span / output_dt
    if np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * ratio:
        return round(ratio)
    raise ValueError(
        f"{name} must be a whole multiple of output_dt = {output_dt!r}, got {span!r}"
    )


def _solver_violations(c) -> list[tuple[str, str]]:
    """Every (field, message) pair that the :class:`SolverConfig` rules reject in
    ``c``, a SolverConfig or anything with its fields.  The whole-multiple rule
    is checked once ``t_end`` and ``output_dt`` pass their own rules."""
    span = _rule("t_end", c.t_end, c.t_end >= 0, "be nonnegative")
    interval = _rule("output_dt", c.output_dt, c.output_dt > 0, "be positive")
    bad = _rule("a", c.a, True, "") + span  # any finite a: no smallness is assumed
    bad += _rule("cfl", c.cfl, 0 < c.cfl < 1, "lie in (0, 1)")
    if c.dt is not None:
        bad += _rule("dt", c.dt, c.dt > 0, "be positive when given")
    bad += interval
    if not span and not interval:
        try:
            _output_count(c.t_end, c.output_dt, "t_end")
        except ValueError as exc:
            bad.append(("t_end", str(exc)))
    return bad


@dataclass
class SolverConfig:
    """Time-integration policy of the 3D engine.

    ``dt`` fixes the step size; when it is None the step is CFL-limited with
    the given advective CFL number against max |u| + |a u_LO|.  ``t_end`` is
    a whole multiple of ``output_dt``.  ``a`` is the circulation Reynolds
    number of the background ``a * u_LO(t)``; no smallness is assumed on it.
    This type owns the input rules: floats finite, t_end >= 0, 0 < cfl < 1,
    dt > 0 when given, output_dt > 0 and the whole multiple.  Construction
    raises one ValueError listing every one broken; ``ExperimentConfig.validate``
    reports the same messages under ``[physics]`` and ``[time]``.
    """

    t_end: float = 1.0
    dt: float | None = None
    cfl: float = 0.4
    output_dt: float = 0.1
    a: float = 1.0

    def __post_init__(self) -> None:
        _raise_all(_solver_violations(self))


@dataclass
class SimulationState:
    """Current time and the perturbation's coefficients on the kept block.

    ``block`` (3, nbx, nby, nz//3 + 1) is the kept 2/3-rule block of the
    coefficients, outside which they are zero; ``ops.gather(v_hat)`` makes
    it from full-shape coefficients.  ``v_hat`` is their full shape
    (3, nx, ny, nz//2 + 1), a fresh ``ops.scatter(block)`` allocated on
    every access, so a write into it does not reach the state.
    """

    ops: SpectralOps
    t: float
    block: np.ndarray

    @property
    def grid(self) -> GridSpec:
        return self.ops.grid

    @property
    def v_hat(self) -> np.ndarray:
        return self.ops.scatter(self.block)


@dataclass
class Stage:
    """Stage 1 of the RK4 step from one state, as the diagnostics reuse it.

    ``v`` is the physical perturbation velocity (3, nx, ny, nz) the stage
    inverted.  ``grads[i, j]`` (3, 3, nx, ny, nz) is the physical d_j v_i of
    the convective loop (a != 0; None at a = 0, whose divergence form forms
    no gradient).  ``k1`` is the tendency on the kept 2/3-rule block
    (3, nbx, nby, nz//3 + 1), outside which it is zero, and ``umax`` the
    max of |v + a u_LO| on the grid.  ``glo[i, j]`` (2, 2, nx, ny) is the
    d_j u_LO,i of the unit Oseen velocity at the stage's time that the loop
    read (:func:`helns.fields.oseen_gradient_xy`; None at a = 0).
    """

    v: np.ndarray
    grads: np.ndarray | None
    k1: np.ndarray
    umax: float
    glo: np.ndarray | None


# The six products v_i v_j (i <= j) of the symmetric tensor S, and row i of S
# as positions in that list.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


class _Rhs:
    """Perturbation-equation tendency with cached background slices.

    Takes and returns coefficients on the kept 2/3-rule block.  ``a == 0``
    takes the divergence form -P dealias(i k_j S_ij) of the products
    S_ij = v_i v_j (9 scalar FFTs); ``a != 0`` keeps the convective loop
    (15 FFTs), which is closer to the alias-free coupling than the
    divergence form (see the module docstring).  The physical products are
    formed in one work array, allocated with the tendency and kept.
    """

    def __init__(self, ops: SpectralOps, a: float):
        self.ops = ops
        self.a = a
        self._cache_t = None
        self._cache = None
        self._work = np.empty((6 if a == 0.0 else 3,) + ops.grid.shape)

    def _background(self, t: float):
        if self._cache_t != t:
            uxy = oseen_velocity_xy(self.ops.grid, t)
            gxy = oseen_gradient_xy(self.ops.grid, t)
            self._cache = (uxy[..., None], gxy[..., None])
            self._cache_t = t
        return self._cache

    def __call__(self, vb: np.ndarray, t: float) -> np.ndarray:
        return self._tendency(vb, self._physical(vb, t), t)[0]

    def stage(self, vb: np.ndarray, t: float) -> Stage:
        """The tendency together with the fields and speed it passed through."""
        v = self._physical(vb, t)
        u0, u1 = v[0], v[1]
        if self.a != 0.0:
            ulo, _ = self._background(t)
            u0 = u0 + self.a * ulo[0]
            u1 = u1 + self.a * ulo[1]
        umax = float(np.max(np.sqrt(u0**2 + u1**2 + v[2] ** 2)))
        k1, grads = self._tendency(vb, v, t)
        glo = self._background(t)[1][..., 0] if self.a != 0.0 else None
        return Stage(v=v, grads=grads, k1=k1, umax=umax, glo=glo)

    def _physical(self, vb: np.ndarray, t: float) -> np.ndarray:
        v = self.ops.inv(vb)
        if not np.all(np.isfinite(v)):
            raise FloatingPointError(
                f"non-finite advection product at t={t:.6g}; aborting"
            )
        return v

    def _tendency(self, vb: np.ndarray, v: np.ndarray, t: float):
        """``(tendency, grads)`` of the block ``vb`` whose physical samples are
        ``v``: the divergence form and None at a = 0, else the convective
        loop and the nine physical gradients d_j v_i it read."""
        ops, work = self.ops, self._work
        if self.a == 0.0:
            for n, (i, j) in enumerate(_PAIRS):
                np.multiply(v[i], v[j], out=work[n])
            S = ops.fwd_band(work)
            div = np.stack([ops.divergence([S[n] for n in row]) for row in _ROWS])
            return -ops.leray(div), None
        grads = ops.gradients(vb)
        ulo, glo = self._background(t)
        for i in range(3):
            grad_i = grads[i]
            work[i] = v[0] * grad_i[0] + v[1] * grad_i[1] + v[2] * grad_i[2]
            work[i] += self.a * (ulo[0] * grad_i[0] + ulo[1] * grad_i[1])
            if i < 2:
                work[i] += self.a * (v[0] * glo[i, 0] + v[1] * glo[i, 1])
        return -ops.leray(ops.fwd_band(work)), grads


def step_spectral3d(
    state: SimulationState,
    dt: float,
    rhs,
    k1: np.ndarray,
) -> SimulationState:
    """One integrating-factor RK4 step of the 3D engine, on the kept block.

    RK4 is applied to the variable e^{|k|^2 t} v_hat; the multipliers
    e^{-|k|^2 dt/2} and e^{-|k|^2 dt} propagate the viscous term exactly
    between stage times.  ``rhs(block, t)`` returns the tendency on the kept
    2/3-rule block, and ``k1`` is the stage-1 tendency
    ``rhs(state.block, state.t)``, which does not depend on dt.  The
    returned state holds the new block.
    """
    Eh = np.exp(-state.ops.band_k2 * (dt / 2.0))
    Ef = Eh * Eh
    v = state.block
    t = state.t
    k2 = rhs(Eh * (v + (dt / 2.0) * k1), t + dt / 2.0)
    k3 = rhs(Eh * v + (dt / 2.0) * k2, t + dt / 2.0)
    k4 = rhs(Ef * v + dt * Eh * k3, t + dt)
    v_new = Ef * v + (dt / 6.0) * (Ef * k1 + 2.0 * Eh * (k2 + k3) + k4)
    return SimulationState(state.ops, t + dt, v_new)


def run_spectral3d(
    v0_hat: np.ndarray,
    ops: SpectralOps,
    config: SolverConfig,
    observer=None,
) -> SimulationState:
    """Advance the perturbation on ``ops.grid`` to t_end, calling ``observer``
    at output times.

    ``observer(state, stage)`` is invoked at t = 0 and then whenever the
    simulation reaches the next output time k * ``config.output_dt``, which
    the state then carries exactly; the last output time is t_end itself.
    ``stage`` is the :class:`Stage` of ``state``, evaluated before the
    observer runs and then consumed by the step that follows.  The record at
    t_end costs one extra stage evaluation there; without an observer none is
    made.  The step size is ``config.dt`` when fixed — reduced transiently if
    it violates the CFL bound, with one warning per output interval that
    gives the number of reduced steps and the smallest dt — or the
    CFL-limited value otherwise.  The CFL
    bound uses the stage's max |v + a u_LO|, and its tendency is handed on to
    :func:`step_spectral3d`.
    """
    rhs = _Rhs(ops, config.a)
    state = SimulationState(ops, 0.0, ops.leray(ops.gather(v0_hat)))
    stage = rhs.stage(state.block, state.t)
    if observer is not None:
        observer(state, stage)
    h = min(ops.grid.dx, ops.grid.dy, ops.grid.dz)
    n_out = _output_count(config.t_end, config.output_dt, "t_end")
    k = 1
    reduced, dt_min = 0, np.inf  # CFL-reduced steps of the output interval
    while k <= n_out:
        # output k falls exactly on k * output_dt, the last on t_end
        target = config.t_end if k == n_out else k * config.output_dt
        umax = stage.umax
        dt_cfl = config.cfl * h / umax if umax != 0.0 else np.inf
        if config.dt is not None and dt_cfl < config.dt:
            reduced, dt_min = reduced + 1, min(dt_min, dt_cfl)
        dt = min(config.dt or np.inf, dt_cfl, target - state.t)
        # release the stage's physical fields for the duration of the step
        k1, stage = stage.k1, None
        state = step_spectral3d(state, dt, rhs, k1)
        landed = state.t >= target - 1e-12
        if landed:
            if reduced:
                logger.warning("t=%.4g: fixed dt=%.3g broke the CFL bound on %d steps of the "
                               "output interval; the smallest reduced dt was %.3g",
                               target, config.dt, reduced, dt_min)
                reduced, dt_min = 0, np.inf
            state.t = target
            k += 1
        if k <= n_out or (landed and observer is not None):
            stage = rhs.stage(state.block, state.t)
        if landed and observer is not None:
            observer(state, stage)
    return state
