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
import weakref
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields

import numpy as np
from scipy.special import j0, j1

from .diagnostics import format_float
from .fields import heat_gaussian
from .grid import GridSpec, _raise_all, _rule
from .radial import (
    RadialProfile,
    _weight_exponent_violations,
    bound_envelopes,
    mean_vorticity_from_utheta,
    oseen_extraction,
    radial_biot_savart,
    zero_mass_check,
)
from .spectral import SpectralOps, _require_grid

logger = logging.getLogger(__name__)

__all__ = [
    "DecompositionResult",
    "circulation_a",
    "decompose",
    "export_profile_csv",
    "ring_average_cylindrical",
    "weighted_l2m_norm",
]

# Input gates of decompose: max |div omega| relative to max |omega|; helical defect.
DIV_TOL = 1e-6
DEFECT_TOL = 1e-4


# --- circulation -------------------------------------------------------------


def _samples(omega, grid: GridSpec) -> np.ndarray:
    """``omega`` as a float array, which must hold 3 components on ``grid``."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,) + grid.shape:
        raise ValueError(f"expected samples of shape {(3,) + grid.shape} "
                         f"(3 components on the grid), got {omega.shape}")
    return omega


def circulation_a(omega: np.ndarray, grid: GridSpec) -> float:
    """Circulation Reynolds number a = (1/(2 pi L)) * integral of omega_z.

    ``omega`` holds physical samples of the vorticity, shape (3, nx, ny, nz).
    The vertical-vorticity integral over the box equals ``2 pi L a`` because
    the box height is one vertical period.
    """
    omega = _samples(omega, grid)
    total = float(np.sum(omega[2])) * grid.cell_volume
    return total / (2.0 * np.pi * grid.pitch)


# --- weighted norms ------------------------------------------------------------


def weighted_l2m_norm(omega, m: float, *, grid: GridSpec) -> float:
    """Weighted vorticity norm (int (1+r^2)^m |omega|^2 r dr dtheta dz)^(1/2).

    Takes physical grid samples of shape (3, nx, ny, nz); r is the horizontal
    distance from the vortex axis.  Radial profiles have
    :func:`helns.radial.weighted_l2m_norm_profile`.
    """
    _raise_all(_weight_exponent_violations(m))
    omega = _samples(omega, grid)
    weighted = np.square(omega)
    weighted *= ((1.0 + grid.r2d**2) ** m)[None, ..., None]
    val = float(np.sum(weighted)) * grid.cell_volume
    return float(np.sqrt(val))


# --- angular ring averaging ----------------------------------------------------


class _Rings:
    """The grid-only tables of the ring averages on one grid.

    ``radii`` are the nx/2 uniform rings from the axis, spaced by one cell
    width; ``shells`` holds the distinct |k| of the (x, y) plane and
    ``inverse`` maps each mode to its shell; ``(cos_phi, sin_phi) = k/|k|``
    (both 0 at k = 0); ``phase`` is exp(i k.c) / (nx ny), which centres the
    plane's transform on the axis c; ``J0`` and ``J1`` are J0(|k| r) and
    J1(|k| r) on (radii, shells).  Built once per :class:`SpectralOps`, on
    its first ring average.
    """

    def __init__(self, grid: GridSpec):
        self.radii = np.arange(grid.nx // 2) * grid.dx
        kx, ky = grid.kx[:, None], grid.ky[None, :]
        kmag = np.hypot(kx, ky)
        self.shells, inverse = np.unique(kmag, return_inverse=True)
        self.inverse = inverse.ravel()
        kinv = 1.0 / np.where(kmag > 0.0, kmag, 1.0)
        self.cos_phi, self.sin_phi = kx * kinv, ky * kinv
        cx, cy = grid.center
        self.phase = np.exp(1j * (kx * cx + ky * cy)) / (grid.nx * grid.ny)
        rho = np.outer(self.radii, self.shells)
        self.J0 = j0(rho)
        self.J1 = j1(rho)
        # shared by every ring average on the grid, and by the profiles they
        # return (``radii``): read-only
        for table in vars(self).values():
            table.flags.writeable = False


_RINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shell_spectra(fields, ops: SpectralOps):
    """The ring tables of ``ops.grid`` and the centred 2D spectra of ``fields``.

    Returns ``(rings, F)``: ``rings`` are the :class:`_Rings` of the grid,
    built once per ``ops``, and ``F`` is the stack
    ``ops.fwd_plane(f) * rings.phase``, the coefficients of the trigonometric
    interpolant about the axis.
    """
    rings = _RINGS.get(ops)
    if rings is None:
        rings = _RINGS[ops] = _Rings(ops.grid)
    return rings, ops.fwd_plane(fields) * rings.phase


def _shell_sum(weights: np.ndarray, inverse: np.ndarray, n_shells: int) -> np.ndarray:
    """Sum of real mode weights over each |k| shell."""
    return np.bincount(inverse, weights=weights.ravel(), minlength=n_shells)


def ring_average_cylindrical(
    u: np.ndarray, ops: SpectralOps
) -> tuple[RadialProfile, RadialProfile, RadialProfile]:
    """Exact angular means of the cylindrical components of a 2D vector field.

    ``u`` holds (u_x, u_y, u_z) samples of shape (3, nx, ny); the return
    value is the triple of profiles (u_r, u_theta, u_z) on the nx/2 uniform
    rings from the axis, one cell width apart.  With ``F`` the interpolant's
    coefficients about the axis, the ring means are the shell-grouped sums
    ``Re sum_k F_z J0(|k| r)`` for u_z (Jacobi-Anger),
    ``Re sum_k i (F_x cos phi + F_y sin phi) J1(|k| r)`` for u_r and
    ``Re sum_k i (F_y cos phi - F_x sin phi) J1(|k| r)`` for u_theta, with
    ``(cos phi, sin phi) = k/|k|``.  Since J1(0) = 0 the horizontal means
    vanish exactly at the axis, and the u_r mean of a divergence-free field
    vanishes to rounding.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (3,) + ops.grid.shape[:2]:
        raise ValueError("expected a z-averaged vector field of shape (3, nx, ny)")
    rings, (Fx, Fy, Fz) = _shell_spectra(u, ops)
    cos_phi, sin_phi, inverse = rings.cos_phi, rings.sin_phi, rings.inverse
    n = rings.shells.size
    # Re(i z) = -Im(z)
    u_r = rings.J1 @ _shell_sum(-(Fx * cos_phi + Fy * sin_phi).imag, inverse, n)
    u_theta = rings.J1 @ _shell_sum(-(Fy * cos_phi - Fx * sin_phi).imag, inverse, n)
    u_z = rings.J0 @ _shell_sum(Fz.real, inverse, n)
    return tuple(RadialProfile(rings.radii, v) for v in (u_r, u_theta, u_z))


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
            f"{f.name} = {format_float(getattr(self, f.name))}"
            for f in dataclass_fields(self)
            if f.name not in ("grid", "v_hat", "profiles")
        ]
        return "\n".join(lines) + "\n"


def export_profile_csv(profile: RadialProfile, path) -> None:
    """Write a radial profile as two-column CSV (r, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,value\n")
        for r, v in zip(profile.r, profile.values):
            fh.write(f"{format_float(r)},{format_float(v)}\n")


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
    omega = _samples(omega, grid)
    _raise_all(_rule("m", m, m > 1.0, "exceed 1, where the weighted class lies in "
                                      "the integrable vorticities"))
    ops = ops or SpectralOps(grid)
    _require_grid(ops, grid)
    # max |omega| with no |omega| temporary; a NaN or an inf shows in max or min
    hi, lo = float(omega.max()), float(omega.min())
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("vorticity samples must be finite")
    scale = max(hi, -lo)

    W = ops.fwd(omega)
    max_div, defect = ops.gates(W, omega)
    if scale > 0 and max_div > DIV_TOL * scale:
        raise ValueError(
            f"vorticity is not divergence-free: max |div| = {max_div:.3e} "
            f"exceeds {DIV_TOL:.1e} x max |omega|"
        )
    if defect > DEFECT_TOL:
        raise ValueError(
            f"vorticity is not helical: masked defect {defect:.3e} exceeds {DEFECT_TOL:.1e}"
        )
    omega_l2m = weighted_l2m_norm(omega, m, grid=grid)
    if not np.isfinite(omega_l2m):
        raise ValueError("weighted vorticity norm is not finite")

    a = circulation_a(omega, grid)

    # Radial mean-part pipeline (always computed, for the report).
    wbar = omega.mean(axis=-1)
    _, w_theta_bar, w_z_bar = ring_average_cylindrical(wbar, ops)
    u_theta_bar, u_z_bar = radial_biot_savart(w_theta_bar, w_z_bar)
    v_theta_bar = oseen_extraction(u_theta_bar, a, spread=background_spread)
    w_z_resid = mean_vorticity_from_utheta(w_z_bar, a, spread=background_spread)
    fwd_curve, bwd_curve = zero_mass_check(w_z_resid)
    zero_mass_gap = float(np.max(np.abs(fwd_curve - bwd_curve)))
    envelope_c3, envelope_c4 = bound_envelopes(
        w_theta_bar, u_z_bar, v_theta_bar, w_z_resid, m, grid.pitch
    )

    # Residual coefficients W - a fwd(w_LO), formed in W.  The Oseen vorticity
    # is vertical and z-independent, so its transform lives on the kz = 0
    # plane of the z component, where it is nz times the 2D transform of the
    # Gaussian.
    w_lo_plane = ops.fwd_plane(heat_gaussian(grid.r2d**2, background_spread))
    W[2, :, :, 0] -= (a * grid.nz) * w_lo_plane
    v_hat, correction = ops.inverse_curl(W)
    del W

    l2_sq, grad_sq = ops.l2_and_grad_norm_sq(v_hat)
    l2_v = float(np.sqrt(l2_sq))
    grad_l2_v = float(np.sqrt(grad_sq))
    h1_v = float(np.sqrt(l2_v**2 + grad_sq))
    c_ratio = h1_v / omega_l2m if omega_l2m > 0 else 0.0

    # Mean-part structure: after angular averaging the radial component of
    # the z-averaged velocity must vanish (divergence-free + helical).
    # The z-mean is the kz = 0 plane: a 2D inverse FFT of it, divided by nz.
    vbar = ops.inv_plane(v_hat[..., 0]).real / grid.nz
    u_r_bar, _, _ = ring_average_cylindrical(vbar, ops)
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
