"""Circulation extraction and the background/remainder velocity split.

A divergence-free helical vorticity field on the periodic box is split as

    u = a * u_LO(0) + v

where ``a`` is the circulation Reynolds number (total vertical vorticity per
vertical period divided by the pitch), ``u_LO`` is the unit Lamb-Oseen
velocity, and ``v`` is a square-integrable remainder.  The module also
provides weighted vorticity norms, radial profiles of grid fields as the
exact angular means of their trigonometric interpolants (Bessel sums over
|k| shells), and the radial mean-part pipeline (Biot-Savart, Oseen
extraction and pointwise tail envelopes) used for reporting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields

import numpy as np
from scipy.special import j0, j1

from .fields import oseen_vorticity
from .grid import GridSpec
from .radial import (
    RadialProfile,
    bound_envelopes,
    mean_vorticity_from_utheta,
    oseen_extraction,
    radial_biot_savart,
    zero_mass_check,
)
from .spectral import SpectralOps, max_divergence

logger = logging.getLogger(__name__)

__all__ = [
    "DecompositionResult",
    "circulation_a",
    "decompose",
    "export_profile_csv",
    "ring_average",
    "ring_average_cylindrical",
    "weighted_l2m_norm",
]

# Input gates of decompose: max |div omega| relative to max |omega|; helical defect.
DIV_TOL = 1e-6
DEFECT_TOL = 1e-4


# --- circulation -------------------------------------------------------------


def circulation_a(omega: np.ndarray, grid: GridSpec) -> float:
    """Circulation Reynolds number a = (1/(2 pi L)) * integral of omega_z.

    ``omega`` holds physical samples of the vorticity, shape (3, nx, ny, nz).
    The vertical-vorticity integral over the box equals ``2 pi L a`` because
    the box height is one vertical period.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,) + grid.shape:
        raise ValueError(f"expected vorticity of shape {(3,) + grid.shape}")
    total = float(np.sum(omega[2])) * grid.cell_volume
    return total / (2.0 * np.pi * grid.pitch)


# --- weighted norms ------------------------------------------------------------


def weighted_l2m_norm(omega, m: float, *, grid: GridSpec) -> float:
    """Weighted vorticity norm (int (1+r^2)^m |omega|^2 r dr dtheta dz)^(1/2).

    Takes physical grid samples of shape (3, nx, ny, nz) or (nx, ny, nz); r is
    the horizontal distance from the vortex axis.  Radial profiles have
    :func:`helns.radial.weighted_l2m_norm_profile`.
    """
    if m < 0:
        raise ValueError("weight exponent m must be >= 0")
    omega = np.asarray(omega, dtype=float)
    if omega.shape not in ((3,) + grid.shape, grid.shape):
        raise ValueError(
            f"expected samples of shape {grid.shape} or {(3,) + grid.shape}"
        )
    weight = (1.0 + grid.r2d**2) ** m
    if omega.ndim == 4:
        weight = weight[None, ..., None]
    else:
        weight = weight[..., None]
    val = float(np.sum(weight * omega**2)) * grid.cell_volume
    return float(np.sqrt(val))


# --- angular ring averaging ----------------------------------------------------


def _default_radii(grid: GridSpec) -> np.ndarray:
    """nx/2 uniform rings from the axis, spaced by one cell width."""
    return np.arange(grid.nx // 2) * grid.dx


def _shell_spectra(fields, grid: GridSpec):
    """Centred 2D spectra of ``fields`` and the |k| shell of every mode.

    Returns ``(F, shells, inverse, cos_phi, sin_phi)``: ``F`` is the stack
    ``fft2(f) / (nx ny) * exp(i k.c)``, the coefficients of the trigonometric
    interpolant about the axis ``c``; ``shells`` holds the distinct |k| and
    ``inverse`` maps each mode to its shell; ``(cos_phi, sin_phi) = k/|k|``
    (both 0 at k = 0).
    """
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)[:, None]
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)[None, :]
    kmag = np.hypot(kx, ky)
    shells, inverse = np.unique(kmag, return_inverse=True)
    kinv = 1.0 / np.where(kmag > 0.0, kmag, 1.0)
    cx, cy = grid.center
    phase = np.exp(1j * (kx * cx + ky * cy)) / (grid.nx * grid.ny)
    F = np.fft.fft2(fields) * phase
    return F, shells, inverse.ravel(), kx * kinv, ky * kinv


def _shell_sum(weights: np.ndarray, inverse: np.ndarray, n_shells: int) -> np.ndarray:
    """Sum of real mode weights over each |k| shell."""
    return np.bincount(inverse, weights=weights.ravel(), minlength=n_shells)


def ring_average(
    field: np.ndarray,
    grid: GridSpec,
    *,
    radii: np.ndarray | None = None,
) -> RadialProfile:
    """Exact angular mean of a 2D scalar field's interpolant about the axis.

    With ``F`` the interpolant's coefficients about the axis, the mean over
    the circle of radius r is ``Re sum_k F J0(|k| r)`` (Jacobi-Anger), so the
    mode sums are grouped by |k| shell and J0 is evaluated once per (radius,
    shell).  The default radii are nx/2 uniform rings spaced by one cell
    width; at r = 0 the mean is the value at the axis.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != (grid.nx, grid.ny):
        raise ValueError("ring averaging expects a 2D (nx, ny) field")
    radii = _default_radii(grid) if radii is None else np.asarray(radii, float)
    F, shells, inverse, _, _ = _shell_spectra(field, grid)
    means = j0(np.outer(radii, shells)) @ _shell_sum(F.real, inverse, shells.size)
    return RadialProfile(radii, means)


def ring_average_cylindrical(
    u: np.ndarray,
    grid: GridSpec,
    *,
    radii: np.ndarray | None = None,
) -> tuple[RadialProfile, RadialProfile, RadialProfile]:
    """Exact angular means of the cylindrical components of a 2D vector field.

    ``u`` holds (u_x, u_y, u_z) samples of shape (3, nx, ny); the return
    value is the triple of profiles (u_r, u_theta, u_z).  The means of the
    interpolant are ``Re sum_k i (F_x cos phi + F_y sin phi) J1(|k| r)`` for
    u_r, ``Re sum_k i (F_y cos phi - F_x sin phi) J1(|k| r)`` for u_theta and
    the scalar J0 sum for u_z, where ``(cos phi, sin phi) = k/|k|``.  Since
    J1(0) = 0 the horizontal means vanish exactly at the axis, and the u_r
    mean of a divergence-free field vanishes to rounding.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (3, grid.nx, grid.ny):
        raise ValueError("expected a z-averaged vector field of shape (3, nx, ny)")
    radii = _default_radii(grid) if radii is None else np.asarray(radii, float)
    (Fx, Fy, Fz), shells, inverse, cos_phi, sin_phi = _shell_spectra(u, grid)
    n = shells.size
    rho = np.outer(radii, shells)
    J1 = j1(rho)
    # Re(i z) = -Im(z)
    u_r = J1 @ _shell_sum(-(Fx * cos_phi + Fy * sin_phi).imag, inverse, n)
    u_theta = J1 @ _shell_sum(-(Fy * cos_phi - Fx * sin_phi).imag, inverse, n)
    u_z = j0(rho) @ _shell_sum(Fz.real, inverse, n)
    return tuple(RadialProfile(radii, v) for v in (u_r, u_theta, u_z))


# --- decomposition --------------------------------------------------------------


@dataclass
class DecompositionResult:
    """Outcome of the vorticity decomposition u = a u_LO(0) + v.

    ``v_hat`` holds spectral coefficients of the remainder velocity; the
    recorded constant ``c_ratio`` is the measured quotient
    ``|v|_H1 / |omega|_L2m`` (reported, never asserted against a fixed
    value).  ``profiles`` carries the radial mean-part pipeline output:
    v_theta_bar, u_z_bar and the zero-mass residual vorticity w_z_bar;
    ``envelope_c3`` and ``envelope_c4`` are the fitted constants of their
    pointwise tail envelopes (see :func:`helns.radial.bound_envelopes`).
    """

    a: float
    grid: GridSpec
    v_hat: np.ndarray
    m: float
    omega_l2m: float
    l2_v: float
    grad_l2_v: float
    h1_v: float
    c_ratio: float
    helical_defect: float
    max_div: float
    inverse_curl_correction: float
    mean_radial_max: float
    zero_mass_gap: float
    envelope_c3: float
    envelope_c4: float
    profiles: dict = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        h1 = np.hypot(self.l2_v, self.grad_l2_v)
        if not np.isclose(h1, self.h1_v, rtol=1e-12, atol=0.0):
            raise ValueError("H1 norm must satisfy |v|_H1^2 = |v|_L2^2 + |grad v|_L2^2")

    def report_text(self) -> str:
        """One ``name = value`` line per scalar field, in field order."""
        lines = ["helical decomposition report"] + [
            f"{f.name} = {getattr(self, f.name):.17g}"
            for f in dataclass_fields(self)
            if f.name not in ("grid", "v_hat", "profiles")
        ]
        return "\n".join(lines) + "\n"


def export_profile_csv(profile: RadialProfile, path) -> None:
    """Write a radial profile as two-column CSV (r, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,value\n")
        for r, v in zip(profile.r, profile.values):
            fh.write(f"{r:.17g},{v:.17g}\n")


def decompose(
    omega: np.ndarray,
    grid: GridSpec,
    m: float,
    *,
    ops: SpectralOps | None = None,
    background_spread: float = 1.0,
) -> DecompositionResult:
    """Split a vorticity field into circulation a and remainder velocity v.

    ``omega`` holds physical vorticity samples (3, nx, ny, nz) that must be
    divergence-free and helical with a finite weighted norm; ``m > 1`` is
    required so that the weighted class embeds in the integrable vorticities.
    The circulation coefficient is the exact grid integral of the vertical
    component.  The remainder velocity is recovered from the residual
    vorticity ``omega - a w_LO`` by the spectral inverse curl.  The
    zero-box-mean convention replaces the whole-space decay class in the
    periodic setting.  ``background_spread`` selects the subtracted vortex
    core spread (1 for the unit core).

    The radial mean-part pipeline (ring averages, Biot-Savart, Oseen
    extraction, zero-mass certificate, tail envelopes) is always evaluated
    and attached to the result for reporting.
    """
    ops = ops or SpectralOps(grid)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,) + grid.shape:
        raise ValueError(f"expected vorticity of shape {(3,) + grid.shape}")
    if not m > 1.0:
        raise ValueError(
            "weight exponent m must exceed 1: only then is the weighted class "
            "contained in the integrable vorticities"
        )
    if not np.all(np.isfinite(omega)):
        raise ValueError("vorticity samples must be finite")

    W = ops.fwd(omega)
    grads = ops.gradients(W)
    scale = float(np.max(np.abs(omega)))
    max_div = max_divergence(grads)
    if scale > 0 and max_div > DIV_TOL * scale:
        raise ValueError(
            f"vorticity is not divergence-free: max |div| = {max_div:.3e} "
            f"exceeds {DIV_TOL:.1e} x max |omega|"
        )
    defect = ops.helical_defect(W, omega, grads)
    del grads  # nine full fields, freed before the remainder is built
    if defect > DEFECT_TOL:
        raise ValueError(
            f"vorticity is not helical: masked defect {defect:.3e} exceeds {DEFECT_TOL:.1e}"
        )
    omega_l2m = weighted_l2m_norm(omega, m, grid=grid)
    if not np.isfinite(omega_l2m):
        raise ValueError("weighted vorticity norm is not finite")

    a = circulation_a(omega, grid)
    w_lo = oseen_vorticity(grid, background_spread - 1.0)

    # Radial mean-part pipeline (always computed, for the report).
    wbar = omega.mean(axis=-1)
    _, w_theta_bar, w_z_bar = ring_average_cylindrical(wbar, grid)
    u_theta_bar, u_z_bar = radial_biot_savart(w_theta_bar, w_z_bar)
    v_theta_bar = oseen_extraction(u_theta_bar, a, spread=background_spread)
    w_z_resid = mean_vorticity_from_utheta(w_z_bar, a, spread=background_spread)
    fwd_curve, bwd_curve = zero_mass_check(w_z_resid)
    zero_mass_gap = float(np.max(np.abs(fwd_curve - bwd_curve)))
    envelope_c3, envelope_c4 = bound_envelopes(
        w_theta_bar, u_z_bar, v_theta_bar, w_z_resid, m, grid.pitch
    )

    residual = omega - a * w_lo
    v_hat, correction = ops.inverse_curl(ops.fwd(residual))

    l2_v = ops.l2_norm(v_hat)
    grad_sq = ops.grad_norm_sq(v_hat)
    grad_l2_v = float(np.sqrt(grad_sq))
    h1_v = float(np.sqrt(l2_v**2 + grad_sq))
    c_ratio = h1_v / omega_l2m if omega_l2m > 0 else 0.0

    # Mean-part structure: after angular averaging the radial component of
    # the z-averaged velocity must vanish (divergence-free + helical).
    # The z-mean is the kz = 0 plane: a 2D inverse FFT of it, divided by nz.
    vbar = np.fft.ifft2(v_hat[..., 0]).real / grid.nz
    u_r_bar, _, _ = ring_average_cylindrical(vbar, grid)
    vscale = float(np.max(np.abs(vbar)))
    mean_radial_max = float(np.max(np.abs(u_r_bar.values)))
    if vscale > 0:
        mean_radial_max /= vscale

    logger.debug(
        "decompose: a=%.6g, |omega|_L2m=%.6g, |v|_H1=%.6g, C=%.3g",
        a, omega_l2m, h1_v, c_ratio,
    )
    return DecompositionResult(
        a=a,
        grid=grid,
        v_hat=v_hat,
        m=m,
        omega_l2m=omega_l2m,
        l2_v=l2_v,
        grad_l2_v=grad_l2_v,
        h1_v=h1_v,
        c_ratio=c_ratio,
        helical_defect=defect,
        max_div=max_div,
        inverse_curl_correction=correction,
        mean_radial_max=mean_radial_max,
        zero_mass_gap=zero_mass_gap,
        envelope_c3=envelope_c3,
        envelope_c4=envelope_c4,
        profiles={
            "w_theta_bar": w_theta_bar,
            "w_z_bar": w_z_bar,
            "u_theta_bar": u_theta_bar,
            "u_z_bar": u_z_bar,
            "v_theta_bar": v_theta_bar,
            "w_z_resid": w_z_resid,
        },
    )
