"""Radial profiles and the 2.5D radial engine.

A :class:`RadialProfile` is a function of the cylindrical radius sampled on a
strictly increasing grid starting at r = 0.

The radial engine advances profiles under the radial heat equation

    d/dt h = h'' + h'/r                       (parity "even"),
    d/dt h = h'' + h'/r - h/r**2              (parity "odd"),

by Crank-Nicolson steps, second order in both dt and dr.  Even parity is the
scalar (or vertical-component) radial Laplacian and uses a Neumann axis cell;
odd parity is the azimuthal-component vector Laplacian and pins the axis
value to zero.  The outer boundary value is held fixed, which requires the
data to have decayed at r = R; a :class:`DomainTooSmallError` is raised
otherwise.

:func:`run_radial` is the engine's one entry point.  It checks its inputs
once (step sizes, observation stride, uniform grid, decay at r = R), factors
the implicit matrix I - dt/2 A once (LAPACK's tridiagonal LU, ``dgttrf``),
and each step, :func:`step_radial` on the bare value array, costs the
explicit half-step, formed in place in one fresh array, plus one O(n)
``dgttrs`` solve.  Observations are made at the exact times k dt, the last
at t_end itself; an observer receives the bare value array on the run's
grid, so the only profile a run builds is its result.

Also here: the radial Biot-Savart formulas, the Oseen-extraction step, the
weighted L2_m norms for profiles, the pointwise tail envelopes and the
heat-similarity (Kummer) profile with a prescribed power-law tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import hyp1f1

from .fields import heat_gaussian, oseen_utheta
from .grid import _integer_rule, _pitch_violations, _raise_all, _rule

__all__ = [
    "RadialProfile",
    "DomainTooSmallError",
    "uniform_radii",
    "radial_laplacian",
    "step_radial",
    "run_radial",
    "radial_biot_savart",
    "oseen_extraction",
    "mean_vorticity_from_utheta",
    "zero_mass_check",
    "weighted_l2m_norm_profile",
    "profile_l2_norm_2d",
    "bound_envelopes",
    "kummer_tail_profile",
]


class DomainTooSmallError(ValueError):
    """Raised when a profile has not decayed at the outer radius."""


def uniform_radii(R: float, n: int) -> np.ndarray:
    """n+1 equispaced radii on [0, R]; R finite and > 0, n an integer >= 1."""
    _raise_all(_rule("R", R, R > 0, "be positive") + _integer_rule("n", n, 1))
    return np.linspace(0.0, R, n + 1)


@dataclass
class RadialProfile:
    """Finite samples of a radial function on a strictly increasing grid from r = 0."""

    r: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.r = np.asarray(self.r, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.r.ndim != 1 or self.r.size < 2:
            raise ValueError("radial grid must be a 1D array with >= 2 nodes")
        if self.r[0] != 0.0:
            raise ValueError("radial grid must start at r = 0")
        # false for a NaN anywhere; after a strictly increasing run from 0 only
        # the last node can still be +inf
        if not (np.all(self.r[1:] > self.r[:-1]) and np.isfinite(self.r[-1])):
            raise ValueError("radial grid must be finite and strictly increasing")
        if self.values.shape != self.r.shape:
            raise ValueError("values must match the radial grid shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile contains non-finite values")

    def with_values(self, values: np.ndarray) -> "RadialProfile":
        return replace(self, values=np.asarray(values, dtype=float))

    def is_uniform(self) -> bool:
        """True when the node spacing is constant to relative 1e-12."""
        dr = np.diff(self.r)
        return bool(np.all(np.abs(dr - dr[0]) <= 1e-12 * dr[0]))


# --- Crank-Nicolson engine ---------------------------------------------------


def radial_laplacian(
    r: np.ndarray, parity: str = "even"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal radial Laplacian A as (lower, diagonal, upper) diagonals.

    ``lower[i] = A[i+1, i]`` and ``upper[i] = A[i, i+1]``, the alignment of
    LAPACK's tridiagonal routines.  Even parity uses the finite-volume form
    with the Neumann axis cell 4 (h_1 - h_0) / dr^2; odd parity pins h(0) = 0
    and adds the -1/r^2 term.  The outer row is zero so the boundary value
    is held fixed.
    """
    n = r.size
    dr = r[1] - r[0]
    lo = np.zeros(n - 1)
    di = np.zeros(n)
    up = np.zeros(n - 1)
    ri = r[1:-1]
    if parity == "even":
        di[0] = -4.0 / dr**2
        up[0] = 4.0 / dr**2
        rp = ri + dr / 2.0
        rm = ri - dr / 2.0
        lo[:-1] = rm / (ri * dr**2)
        up[1:] = rp / (ri * dr**2)
        di[1:-1] = -(rp + rm) / (ri * dr**2)
    elif parity == "odd":
        lo[:-1] = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
        up[1:] = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
        di[1:-1] = -2.0 / dr**2 - 1.0 / ri**2
    else:
        raise ValueError(f"unknown parity {parity!r} (expected 'even' or 'odd')")
    return lo, di, up


def _check_boundary(profile: RadialProfile, tol: float) -> None:
    scale = float(np.max(np.abs(profile.values)))
    if scale > 0 and abs(profile.values[-1]) > tol * scale:
        raise DomainTooSmallError(
            f"profile value {profile.values[-1]:.3e} at outer radius "
            f"R={profile.r[-1]:g} exceeds {tol:g} of the profile maximum; "
            "enlarge the radial domain"
        )


class _CNSystem(NamedTuple):
    """The fixed parts of a CN run: dt/2, the diagonals of A and the LU of I - dt/2 A."""

    half_dt: float
    lo: np.ndarray
    di: np.ndarray
    up: np.ndarray
    lu: tuple  # dgttrf's (dl, d, du, du2, ipiv)
    dgttrs: object  # LAPACK's solve with that LU, imported with the first factorization


def _cn_system(r: np.ndarray, dt: float, parity: str) -> _CNSystem:
    """Factor I - dt/2 A for steps of size dt on the grid r."""
    from scipy.linalg.lapack import dgttrf, dgttrs  # deferred: keeps `import helns` lean

    lo, di, up = radial_laplacian(r, parity)
    *lu, info = dgttrf(-0.5 * dt * lo, 1.0 - 0.5 * dt * di, -0.5 * dt * up)
    if info != 0:
        raise ValueError(f"Crank-Nicolson matrix factorization failed (dgttrf info={info})")
    return _CNSystem(0.5 * dt, lo, di, up, tuple(lu), dgttrs)


def step_radial(h: np.ndarray, system: _CNSystem) -> np.ndarray:
    """One CN step of :func:`run_radial`: solve (I - dt/2 A) h_new = (I + dt/2 A) h.

    The explicit half-step is formed in place in one array; each entry is the
    same sum (lo + di) + up, times dt/2, plus h, as the three full diagonal
    products would give, since IEEE + and * commute exactly.
    """
    rhs = system.di * h
    rhs[1:] += system.lo * h[:-1]
    rhs[:-1] += system.up * h[1:]
    rhs *= system.half_dt
    rhs += h
    h_new, info = system.dgttrs(*system.lu, rhs, overwrite_b=1)
    if info != 0:
        raise ValueError(f"Crank-Nicolson solve failed (dgttrs info={info})")
    return h_new


def run_radial(
    profile: RadialProfile,
    t_end: float,
    dt: float,
    parity: str = "even",
    observer=None,
    observe_every: int = 1,
    boundary_tol: float = 1e-6,
) -> RadialProfile:
    """Advance a profile to t_end with fixed CN steps (one step: ``run_radial(p, dt, dt)``).

    ``dt`` is shrunk to t_end / ceil(t_end / dt) so the steps land on t_end;
    both must be finite and positive (one ValueError lists every rule of
    t_end, dt, ``observe_every``, the node count and ``boundary_tol`` broken),
    and t_end / dt finite.  The grid must be uniform with at least 3 nodes and
    the profile decayed to ``boundary_tol`` (>= 0; inf skips the check) of its
    maximum at r = R.  The CN matrix is factored once and every step is one
    :func:`step_radial` call on the value array.  ``observer(t, values)`` is
    called after every ``observe_every``-th step (an integer >= 1) with
    t = k dt, and after the last step, whatever ``observe_every``, with
    t = t_end; ``values`` are the samples on ``profile.r``, the array the
    next step reads, so an observer must not write to it.
    """
    _raise_all(
        _rule("t_end", t_end, t_end > 0, "be positive")
        + _rule("dt", dt, dt > 0, "be positive")
        + _integer_rule("observe_every", observe_every, 1)
        + _integer_rule("the profile's node count", profile.r.size, 3)
        + ([] if boundary_tol >= 0 else
           [("boundary_tol", f"boundary_tol must be >= 0, got {boundary_tol}")])
    )
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"dt must make t_end / dt finite, got dt={dt!r} for t_end={t_end!r}")
    if not profile.is_uniform():
        raise ValueError("the radial engine requires a uniform radial grid")
    _check_boundary(profile, boundary_tol)
    nsteps = max(1, int(np.ceil(ratio)))
    dt = t_end / nsteps
    system = _cn_system(profile.r, dt, parity)
    h = profile.values
    for k in range(1, nsteps + 1):
        h = step_radial(h, system)
        if observer is not None and (k % observe_every == 0 or k == nsteps):
            observer(t_end if k == nsteps else k * dt, h)
    return profile.with_values(h)


# --- radial Biot-Savart and Oseen extraction ---------------------------------


def _cumtrap(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _forward_biot_savart(w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enclosed integral I(r) = int_0^r w rho drho and velocity I(r)/r (0 at the axis)."""
    integ = _cumtrap(w * r, r)
    u = np.zeros_like(integ)
    u[1:] = integ[1:] / r[1:]
    return integ, u


def _tail_estimate(values: np.ndarray, r: np.ndarray) -> float:
    """Estimated truncated tail of int_R^inf f dr assuming power decay."""
    f1, f0 = abs(values[-1]), abs(values[-2])
    if f1 == 0.0:
        return 0.0
    if f0 > f1 > 0:
        p = np.log(f0 / f1) / np.log(r[-1] / r[-2])
        if p > 1.0:
            return f1 * r[-1] / (p - 1.0)
    return f1 * r[-1]


def radial_biot_savart(
    w_theta: RadialProfile, w_z: RadialProfile
) -> tuple[RadialProfile, RadialProfile]:
    """Mean-part Biot-Savart: profiles (u_theta, u_z) from (w_theta, w_z).

    u_theta(r) = (1/r) int_0^r w_z rho drho   (0 at the axis),
    u_z(r)     = int_r^inf w_theta drho       (tail beyond R estimated by a
    power-law fit of the last two samples).
    """
    if not np.array_equal(w_theta.r, w_z.r):
        raise ValueError("w_theta and w_z must share a radial grid")
    r = w_z.r
    _, u_theta = _forward_biot_savart(w_z.values, r)
    full = _cumtrap(w_theta.values, r)
    u_z = (full[-1] - full) + _tail_estimate(w_theta.values, r)
    return w_theta.with_values(u_theta), w_theta.with_values(u_z)


def _minus_background(profile: RadialProfile, a: float, spread: float, shape) -> RadialProfile:
    """``profile - a * shape(r, spread)``, for a finite and positive core spread."""
    _raise_all(_rule("spread", spread, spread > 0, "be positive"))
    return profile.with_values(profile.values - a * shape(profile.r, spread))


def oseen_extraction(
    u_theta: RadialProfile, a: float, spread: float = 1.0
) -> RadialProfile:
    """Subtract the circulation-carrying Oseen tail from u_theta.

    v_theta(r) = u_theta(r) - (a/(2 pi r)) (1 - e^{-r^2/(4 spread)}); the
    result is the square-integrable azimuthal remainder.  ``spread = 1``
    subtracts the unit-core vortex; larger values match a background already
    diffused to core spread ``1 + t``.
    """
    return _minus_background(u_theta, a, spread, oseen_utheta)


def mean_vorticity_from_utheta(
    w_z: RadialProfile, a: float, spread: float = 1.0
) -> RadialProfile:
    """Zero-mass vertical vorticity w_z - (a/(4 pi spread)) e^{-r^2/(4 spread)}."""
    return _minus_background(w_z, a, spread, lambda r, s: heat_gaussian(r**2, s))


def zero_mass_check(w_z_bar: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward Biot-Savart integrals of a zero-mass profile.

    Returns (forward, backward) where forward(r) = (1/r) int_0^r w rho drho and
    backward(r) = -(1/r) int_r^R w rho drho.  For a profile of zero total mass
    the two agree at every radius, certifying int_0^inf w r dr = 0.
    """
    r = w_z_bar.r
    integ, fwd = _forward_biot_savart(w_z_bar.values, r)
    bwd = np.zeros_like(integ)
    bwd[1:] = -(integ[-1] - integ[1:]) / r[1:]
    return fwd, bwd


# --- weighted norms ----------------------------------------------------------


def _weight_exponent_violations(m: float) -> list[tuple[str, str]]:
    """The rule of an L2_m weight exponent ``m``: finite and >= 0."""
    return _rule("m", m, m >= 0, "be nonnegative")


def weighted_l2m_norm_profile(
    profile: RadialProfile, m: float, pitch: float
) -> float:
    """L2_m(box) norm of a radial profile: (int (1+r^2)^m f^2 r dr dtheta dz)^(1/2),
    for m finite and >= 0 and a pitch that GridSpec accepts."""
    _raise_all(_weight_exponent_violations(m) + _pitch_violations(pitch))
    integrand = (1.0 + profile.r**2) ** m * profile.values**2
    val = float(np.trapezoid(integrand * profile.r, profile.r))
    return float(np.sqrt(2.0 * np.pi * 2.0 * np.pi * pitch * val))


def profile_l2_norm_2d(profile: RadialProfile) -> float:
    """Plane L2 norm per unit height: (2 pi int f^2 r dr)^(1/2)."""
    return _plane_l2_norm(profile.values, profile.r)


def _plane_l2_norm(values: np.ndarray, r: np.ndarray) -> float:
    """:func:`profile_l2_norm_2d` of bare samples on a checked grid."""
    return float(np.sqrt(2.0 * np.pi * np.trapezoid(values**2 * r, r)))


# --- pointwise tail envelopes ---------------------------------------------------


def bound_envelopes(
    w_theta: RadialProfile, u_z: RadialProfile, v_theta: RadialProfile,
    w_z_bar: RadialProfile, m: float, pitch: float,
) -> tuple[float, float]:
    """Fitted constants (C3, C4) of the pointwise envelopes of the mean-part velocities.

    The envelopes are |u_z(r)| <= C3 ||w_theta||_{L2_m} (1 + ln_+(1/r)^(1/2)) / (1+r)^m
    and r |v_theta(r)| <= C4 r ||w_z_bar||_{L2_m} / (1+r)^m, where u_z and
    v_theta are the Biot-Savart and Oseen-extracted velocities of w_theta and
    of the zero-mass vorticity w_z_bar.  Each constant is the max ratio over
    the nonzero radii (reported, never asserted against a fixed value); a
    zero vorticity norm gives 0.
    """
    rpos = w_theta.r[1:]
    decay = (1.0 + rpos) ** m
    ln_plus = np.maximum(np.log(1.0 / rpos), 0.0)
    norm_wth = weighted_l2m_norm_profile(w_theta, m, pitch)
    norm_wzb = weighted_l2m_norm_profile(w_z_bar, m, pitch)
    c3 = c4 = 0.0
    if norm_wth > 0:
        c3 = np.max(np.abs(u_z.values[1:]) * decay / (norm_wth * (1.0 + np.sqrt(ln_plus))))
    if norm_wzb > 0:
        c4 = np.max(np.abs(v_theta.values[1:]) * decay / norm_wzb)
    return float(c3), float(c4)


# --- heat-similarity profiles -------------------------------------------------


def kummer_tail_profile(p: float, r: np.ndarray) -> np.ndarray:
    """Heat-similarity profile with an r^{-p} tail and zero total mass.

    M(p/2, 1, -r^2/4) evolves under the radial heat equation exactly as
    (1+t)^{-p/2} M(p/2, 1, -xi^2/4) with xi = r / sqrt(1+t), so any norm of
    its Biot-Savart velocity follows a pure power of (1+t).
    """
    if p <= 2.0:
        raise ValueError("tail exponent p must exceed 2 for an integrable profile")
    return hyp1f1(p / 2.0, 1.0, -(np.asarray(r, dtype=float) ** 2) / 4.0)
