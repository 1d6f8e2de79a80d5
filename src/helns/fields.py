"""Closed-form fields and seeded helical perturbations.

Everything here is analytic: the Lamb-Oseen vortex (its velocity slice and
gradient, and its vorticity), the self-similar shear flow whose nonlinearity
vanishes identically, closed-form norms of the Oseen family used as oracles,
and the seeded generator of divergence-free helical perturbations.

Time enters all Oseen-family formulas through ``1 + t``: the profiles are the
diffusing Gaussian started one time unit before t = 0.  The primitives
:func:`heat_gaussian`, :func:`oseen_utheta` and :func:`oseen_utheta_prime`
take that core spread ``s`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, _integer_rule, _raise_all, _rule
from .spectral import SpectralOps, _require_grid

__all__ = [
    "PerturbationSpec",
    "heat_gaussian",
    "oseen_utheta",
    "oseen_utheta_prime",
    "oseen_vorticity",
    "oseen_velocity_xy",
    "oseen_gradient_xy",
    "shear_flow",
    "shear_f",
    "shear_g",
    "oseen_l2_difference_sq",
    "oseen_grad_l2_sq",
    "oseen_grad_l2_difference_sq",
    "random_helical_perturbation",
]


def _perturbation_violations(p, Lx: float | None = None) -> list[tuple[str, str]]:
    """Every (field, message) pair that the :class:`PerturbationSpec` rules reject in
    ``p``, a PerturbationSpec or anything with its fields; given the box side
    ``Lx``, a valid sigma must also not exceed Lx/16."""
    bad = _integer_rule("seed", p.seed, 0)
    bad += _rule("amplitude", p.amplitude, p.amplitude >= 0, "be nonnegative")
    if len(p.modes) == 0 or any(_integer_rule("modes", n, 0) for n in p.modes):
        bad.append(("modes", f"modes must be a nonempty list of nonnegative integers, "
                             f"got {p.modes}"))
    width = _rule("sigma", p.sigma, p.sigma > 0, "be positive")
    if not width and Lx is not None and p.sigma > Lx / 16.0:
        width = [("sigma", f"sigma must not exceed Lx/16 = {Lx / 16.0:g}, got {p.sigma}")]
    return bad + width


@dataclass(frozen=True)
class PerturbationSpec:
    """Seeded helical perturbation: modes, envelope width and H1 amplitude.

    This type owns the rules seed an integer >= 0, amplitude >= 0, modes
    nonempty and >= 0, sigma > 0 (each float finite) and, checked against the
    grid by :func:`random_helical_perturbation`, sigma <= Lx/16: construction
    raises one ValueError listing every one broken, and
    ``ExperimentConfig.validate`` reports them under ``[initial]``.
    """

    seed: int = 0
    amplitude: float = 0.1
    modes: tuple[int, ...] = (0, 1, 2)
    sigma: float = 2.0

    def __post_init__(self) -> None:
        _raise_all(_perturbation_violations(self))


# --- radial profiles -------------------------------------------------------


def heat_gaussian(r2: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """Unit-mass 2D Gaussian G(r^2, s) = e^{-r^2/(4s)} / (4 pi s) of spread s.

    Takes the squared radius; ``s`` may be an array that broadcasts with it.
    """
    return np.exp(-r2 / (4.0 * s)) / (4.0 * np.pi * s)


def oseen_utheta(r: np.ndarray, s: float) -> np.ndarray:
    """Unit-circulation azimuthal velocity (1 - e^{-r^2/(4s)}) / (2 pi r) at spread s.

    Evaluated as r F(r^2) with the smooth u_theta / r of the engine's
    background, so it stays accurate at the axis, where it is 0.
    """
    r = np.asarray(r, dtype=float)
    return r * _oseen_F(r**2, s)


def oseen_utheta_prime(r: np.ndarray, s: float) -> np.ndarray:
    """Radial derivative F + r^2 G of :func:`oseen_utheta`; 1/(8 pi s) at r = 0."""
    r2 = np.asarray(r, dtype=float) ** 2
    return _oseen_F(r2, s) + r2 * _oseen_G(r2, s)


def _oseen_F(r2: np.ndarray, s: float) -> np.ndarray:
    """u_theta / r as a smooth function of r^2 (F(0) = 1/(8 pi s)).

    The direct form -expm1(-q) / (2 pi r^2), q = r^2/(4s), is computed in
    place where q >= 1e-6 (as expm1(-q) / (-2 pi r^2), the same bits), and
    the series 1 - q/2 + q^2/6 only on the few entries below.  A scalar r^2
    gives a 0-d array.
    """
    shape = np.shape(r2)
    r2 = np.atleast_1d(r2)
    q = r2 / (4.0 * s)
    small = q < 1e-6
    F = np.negative(q)
    np.expm1(F, out=F)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at r = 0, replaced below
        F /= -2.0 * np.pi * r2
    if small.any():
        qs = q[small]
        F[small] = (1.0 - qs / 2.0 + qs**2 / 6.0) / (8.0 * np.pi * s)
    return F.reshape(shape)


# Taylor coefficients of -16 pi s^2 G in q = r^2/(4s): (-1)^k (k+1)/(k+2)!.
# Seventeen terms leave a truncation below 1e-17 relative for q < 0.5.
_G_SERIES = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(17))


def _oseen_G(r2: np.ndarray, s: float) -> np.ndarray:
    """(dF/dr)/r as a smooth function of r^2 (G(0) = -1/(32 pi s^2)).

    The direct form 2q e^{-q} - 2(1 - e^{-q}) cancels to O(q^2), so below
    q = 0.5 the Taylor series is summed instead.
    """
    q = r2 / (4.0 * s)
    small = q < 0.5
    qs = np.where(small, q, 1.0)
    series = np.full_like(qs, _G_SERIES[-1])
    for c in reversed(_G_SERIES[:-1]):
        series *= qs
        series += c
    series /= -16.0 * np.pi * s**2
    r4safe = np.where(small, 1.0, r2**2)
    E = np.exp(-q)
    direct = (2.0 * q * E - 2.0 * (1.0 - E)) / (2.0 * np.pi * r4safe)
    return np.where(small, series, direct)


# --- grid fields ----------------------------------------------------------


def oseen_velocity_xy(grid: GridSpec, t: float) -> np.ndarray:
    """Horizontal components of u_LO on the cross-section, shape (2, nx, ny).

    The Oseen velocity is z-independent with zero vertical component;
    broadcasting the (nx, ny) slices over z reproduces the full 3D field.
    """
    r2 = grid.xc**2 + grid.yc**2
    F = _oseen_F(r2, 1.0 + t)
    return np.stack([-grid.yc * F, grid.xc * F])


def oseen_gradient_xy(grid: GridSpec, t: float) -> np.ndarray:
    """Gradients d_j u_i of the horizontal Oseen components, shape (2, 2, nx, ny).

    Index order: ``out[i, j]`` is d u_i / d x_j.  All z-derivatives vanish.
    """
    xc, yc = grid.xc, grid.yc
    r2 = xc**2 + yc**2
    s = 1.0 + t
    F = _oseen_F(r2, s)
    G = _oseen_G(r2, s)
    dux_dx = -xc * yc * G
    dux_dy = -F - yc**2 * G
    duy_dx = F + xc**2 * G
    duy_dy = xc * yc * G
    return np.stack(
        [np.stack([dux_dx, dux_dy]), np.stack([duy_dx, duy_dy])]
    )


def oseen_vorticity(grid: GridSpec, t: float) -> np.ndarray:
    """Full Oseen vorticity field on the grid, shape (3, nx, ny, nz).

    Only the vertical component is nonzero: w_z(r) = G(r^2, 1 + t), the
    unit-mass Gaussian of :func:`heat_gaussian`.
    """
    out = np.zeros((3, grid.nx, grid.ny, grid.nz))
    out[2] = heat_gaussian(grid.r2d**2, 1.0 + t)[..., None]
    return out


def shear_f(r: np.ndarray, t: float) -> np.ndarray:
    """Shear-flow vertical velocity profile f(t, r)."""
    return heat_gaussian(np.asarray(r, dtype=float) ** 2, 1.0 + t)


def shear_g(r: np.ndarray, t: float) -> np.ndarray:
    """Shear-flow azimuthal vorticity profile g(t, r) = -df/dr = r f / (2 (1+t))."""
    r = np.asarray(r, dtype=float)
    return r * shear_f(r, t) / (2.0 * (1.0 + t))


def shear_flow(grid: GridSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact shear-flow solution (velocity, vorticity) on the grid.

    u = f(t, r) e_z and omega = g(t, r) e_theta with g = -df/dr; the
    nonlinearity (u . grad) u + grad p vanishes identically, so each profile
    simply obeys the radial heat equation.
    """
    xc, yc = grid.xc, grid.yc
    s = 1.0 + t
    f = heat_gaussian(xc**2 + yc**2, s)
    g_over_r = f / (2.0 * s)
    u = np.zeros((3, grid.nx, grid.ny, grid.nz))
    w = np.zeros((3, grid.nx, grid.ny, grid.nz))
    u[2] = f[..., None]
    w[0] = (-yc * g_over_r)[..., None]
    w[1] = (xc * g_over_r)[..., None]
    return u, w


# --- closed-form Oseen norms (oracles) -------------------------------------


def oseen_l2_difference_sq(t1: float, t2: float, pitch: float) -> float:
    """Squared L2(box) norm of u_LO(t2) - u_LO(t1).

    Evaluates to (L/2) ln((1+rho)^2 / (4 rho)) with rho = (1+t2)/(1+t1).
    """
    rho = (1.0 + t2) / (1.0 + t1)
    return 0.5 * pitch * float(np.log((1.0 + rho) ** 2 / (4.0 * rho)))


def oseen_grad_l2_sq(t: float, pitch: float) -> float:
    """Squared L2(box) norm of grad u_LO(t): L / (4 (1+t))."""
    return pitch / (4.0 * (1.0 + t))


def oseen_grad_l2_difference_sq(t1: float, t2: float, pitch: float) -> float:
    """Squared L2(box) norm of grad(u_LO(t2) - u_LO(t1)).

    Evaluates to (L/4) (s2-s1)^2 / (s1 s2 (s1+s2)) with s_i = 1 + t_i.
    """
    s1, s2 = 1.0 + t1, 1.0 + t2
    return 0.25 * pitch * (s2 - s1) ** 2 / (s1 * s2 * (s1 + s2))


# --- seeded helical perturbations -------------------------------------------


def random_helical_perturbation(
    spec: PerturbationSpec, grid: GridSpec, ops: SpectralOps
) -> np.ndarray:
    """Seeded, divergence-free, helical velocity field with target H1 norm.

    Each requested azimuthal mode n contributes helical scalars of the form
    ``e^{i n (theta - z/L)} (r/sigma)^{|n|} exp(-r^2/(2 sigma^2))`` with
    seeded complex coefficients.  A helical stream field is assembled from
    them: its vertical component uses that envelope directly and its
    horizontal pair carries one extra factor of ``(x + i y)/sigma`` so that
    every Cartesian component is smooth at the axis (the bare ``r^{|n|}``
    envelope is not differentiable there for the horizontal pair).  The
    velocity is the spectral curl of the stream field — divergence-free by
    construction and localized, so the Leray projection applied afterwards
    is an identity safeguard rather than a correction (projecting a
    non-solenoidal draw would introduce periodic-image potentials that break
    helical symmetry at measurable levels).  The result is rescaled to the
    requested H1 amplitude.  ``ops`` must be built for ``grid``.  ``spec`` is
    read for seed, amplitude, modes and sigma only, and checked by the
    :class:`PerturbationSpec` rules: any object with those fields will do.

    Returns spectral coefficients of shape (3, nx, ny, nz//2+1).
    """
    _require_grid(ops, grid)
    _raise_all(_perturbation_violations(spec, grid.Lx))
    if spec.amplitude == 0.0:
        return np.zeros((3,) + grid.spectral_shape, dtype=complex)

    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    xc = grid.xc[..., None]
    yc = grid.yc[..., None]
    z = grid.z.reshape(1, 1, -1)
    L = grid.pitch
    zeta = (xc + 1j * yc) / spec.sigma
    envelope = np.exp(-(xc**2 + yc**2) / (2.0 * spec.sigma**2))

    # D-invariant scalar built from the requested modes (D = helical derivative)
    S = np.zeros(grid.shape, dtype=complex)
    Z = np.zeros(grid.shape, dtype=complex)
    for n in spec.modes:
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        helix = zeta**n * np.exp(-1j * n * z / L)
        S = S + c[0] * helix
        Z = Z + c[1] * helix
        if n > 0:
            d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            anti = np.conj(zeta) ** n * np.exp(1j * n * z / L)
            S = S + d[0] * anti
            Z = Z + d[1] * anti
    w_horiz = zeta * S * envelope
    psi = np.stack([w_horiz.real, w_horiz.imag, (Z * envelope).real])

    U = ops.leray(ops.curl(ops.fwd(psi)))
    l2_sq, grad_sq = ops.l2_and_grad_norm_sq(U)
    h1 = np.sqrt(l2_sq + grad_sq)
    if h1 == 0.0:
        raise ValueError("degenerate perturbation draw: zero field before rescaling")
    return U * (spec.amplitude / h1)
