"""Spectral operators on the periodic box.

Fields are represented as plain numpy arrays: physical scalar fields have
shape ``(nx, ny, nz)``, physical vector fields ``(3, nx, ny, nz)``, and the
corresponding real-to-complex coefficient arrays replace the last axis by
``nz//2 + 1``.  The forward transform is unnormalized and the inverse carries
the ``1/(nx*ny*nz)`` factor, so coefficient files are reproducible
bit-exactly.

:class:`SpectralOps` bundles every Fourier-multiplier operator used by the
solver and the diagnostics: divergence, Leray projection, the
vertical-mean projection Q, curl / inverse curl and the 2/3-rule dealiasing.
It also inverts the nine physical gradients d_j u_i of a field, from which
the solver's convective loop, the helical-defect functional and
:func:`max_divergence` (their trace) are evaluated.  All methods are pure
functions of their inputs; the class only caches wavenumber arrays.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import scipy.fft as sfft

from .grid import GridSpec

__all__ = ["SpectralOps", "max_divergence"]

logger = logging.getLogger(__name__)


class SpectralOps:
    """Fourier-space operators for a fixed :class:`GridSpec`."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.kx, self.ky, self.kz = grid.kvec
        self.k2 = grid.k_squared
        # 1/|k|^2 with the k = 0 entry zeroed (used by Leray and inverse curl)
        k2_safe = self.k2.copy()
        k2_safe[0, 0, 0] = 1.0
        self.inv_k2 = 1.0 / k2_safe
        self.inv_k2[0, 0, 0] = 0.0
        self.mask = grid.dealias_mask
        self._parseval = grid.volume * grid.mode_weight / grid.npoints**2
        # Worker threads for the FFT backend.  Each 1D transform is computed
        # identically regardless of the worker count, so results are
        # bit-for-bit independent of this setting.
        try:
            self._workers = max(1, int(os.environ.get("HELNS_THREADS", "1")))
        except ValueError:
            self._workers = 1

    # --- transforms -----------------------------------------------------

    def fwd(self, f: np.ndarray) -> np.ndarray:
        """Forward rfft over the last three axes (unnormalized)."""
        return sfft.rfftn(f, axes=(-3, -2, -1), workers=self._workers)

    def inv(self, F: np.ndarray) -> np.ndarray:
        """Inverse rfft over the last three axes (carries 1/N)."""
        return sfft.irfftn(F, s=self.grid.shape, axes=(-3, -2, -1), workers=self._workers)

    def fwd_plane(self, f: np.ndarray) -> np.ndarray:
        """Forward 2D FFT over the last two (x, y) axes (unnormalized).

        Of the z-sum of a field it gives the kz = 0 plane of :meth:`fwd`.
        """
        return sfft.fft2(f, axes=(-2, -1), workers=self._workers)

    # --- multipliers -----------------------------------------------------

    def divergence(self, U: np.ndarray) -> np.ndarray:
        """Spectral divergence of a vector coefficient array (3, ...)."""
        return (
            1j * self.kx * U[0] + 1j * self.ky * U[1] + 1j * self.kz * U[2]
        )

    def leray(self, U: np.ndarray) -> np.ndarray:
        """Leray projection: remove the gradient part of each k != 0 mode.

        The k = 0 mode (box mean) is left unchanged.
        """
        corr = (self.kx * U[0] + self.ky * U[1] + self.kz * U[2]) * self.inv_k2
        out = np.empty_like(U)
        for i, k in enumerate((self.kx, self.ky, self.kz)):
            np.subtract(U[i], k * corr, out=out[i])
        return out

    def project_Q(self, F: np.ndarray) -> np.ndarray:
        """Vertical-mean projection: keep exactly the kz = 0 modes."""
        out = np.zeros_like(F)
        out[..., 0] = F[..., 0]
        return out

    def perp(self, F: np.ndarray) -> np.ndarray:
        """Zero-vertical-mean part: keep the kz != 0 modes."""
        out = F.copy()
        out[..., 0] = 0.0
        return out

    def dealias(self, F: np.ndarray) -> np.ndarray:
        """2/3-rule truncation: zero all modes with any |k_i| > n_i//3."""
        return F * self.mask

    def curl(self, U: np.ndarray) -> np.ndarray:
        kx, ky, kz = self.kx, self.ky, self.kz
        return np.stack(
            [
                1j * (ky * U[2] - kz * U[1]),
                1j * (kz * U[0] - kx * U[2]),
                1j * (kx * U[1] - ky * U[0]),
            ]
        )

    def inverse_curl(self, W: np.ndarray) -> tuple[np.ndarray, float]:
        """Unique zero-mean divergence-free U with curl(U) = W, and the
        relative magnitude of the projection W needed first.

        The k = 0 mode of W is always dropped (a net-circulation vorticity has
        no periodic velocity potential; that part of the field is carried
        analytically by the decomposition layer).  If W is not
        divergence-free it is projected first; the returned correction is
        |W - P W| / |W| (0 for a zero W).
        """
        Wsol = self.leray(W)
        rel = 0.0
        norm_w = self.l2_norm(W)
        if norm_w > 0:
            rel = self.l2_norm(W - Wsol) / norm_w
            if rel > 1e-12:
                logger.debug("inverse_curl: projected non-solenoidal input, relative correction %.3e", rel)
        return self.curl(Wsol) * self.inv_k2, rel

    # --- norms (spectral-exact via Parseval) ------------------------------

    def l2_norm_sq(self, F: np.ndarray) -> float:
        """Squared L2(box) norm of a coefficient array (any component stack)."""
        return float(np.sum(np.abs(F) ** 2 * self._parseval))

    def l2_norm(self, F: np.ndarray) -> float:
        return float(np.sqrt(self.l2_norm_sq(F)))

    def inner(self, F: np.ndarray, G: np.ndarray) -> float:
        """L2(box) inner product of two coefficient arrays."""
        return float(np.sum((F * np.conj(G)).real * self._parseval))

    def grad_norm_sq(self, F: np.ndarray) -> float:
        return float(np.sum(self.k2 * np.abs(F) ** 2 * self._parseval))

    def lap_norm_sq(self, F: np.ndarray) -> float:
        return float(np.sum(self.k2**2 * np.abs(F) ** 2 * self._parseval))

    # --- physical gradients and the helical defect ----------------------------

    def gradients(self, U: np.ndarray) -> np.ndarray:
        """Physical grads[i, j] = d_j u_i, one component's three at a time.

        Takes the coefficients U (3, ...) and does 9 inverse transforms.
        """
        grads = np.empty((3, 3) + self.grid.shape)
        k = (self.kx, self.ky, self.kz)
        for i in range(3):
            grads[i] = self.inv(np.stack([1j * k_j * U[i] for k_j in k]))
        return grads

    def helical_defect(self, U: np.ndarray, u: np.ndarray, grads: np.ndarray) -> float:
        """Masked, H1-normalized helical-symmetry defect of a velocity field.

        Helical symmetry means the three cylindrical components about the
        grid center are annihilated by D = d/dtheta + L d/dz.  Written in
        Cartesian components this is equivalent, pointwise, to the vanishing
        of (D u_x + u_y, D u_y - u_x, D u_z), which avoids forming the
        axis-singular cylindrical components.  The root-sum-square of the
        three masked L2 norms is returned, normalized by the H1 norm of u.
        The mask keeps r <= Lx/4 to exclude wrap-around artifacts of the
        physical-space angular derivative.

        ``U`` holds the coefficients of the field (for the H1 norm), ``u``
        its physical samples and ``grads`` its :meth:`gradients`; no
        transform is done.  Returns 0 for a zero field.
        """
        h1_sq = self.l2_norm_sq(U) + self.grad_norm_sq(U)
        if h1_sq == 0.0:
            return 0.0
        L = self.grid.pitch
        shift = (u[1], -u[0], 0.0)
        xc = self.grid.xc[..., None]
        yc = self.grid.yc[..., None]
        mask = (self.grid.r2d <= 0.25 * self.grid.Lx)[..., None]
        dV = self.grid.cell_volume
        total = 0.0
        for comp in range(3):
            axial_c = L * grads[comp, 2] + shift[comp]
            defect = xc * grads[comp, 1] - yc * grads[comp, 0] + axial_c
            total += float(np.sum((defect * mask) ** 2) * dV)
        return float(np.sqrt(total / h1_sq))


def max_divergence(grads: np.ndarray) -> float:
    """max |div u| on the grid, the trace of the physical gradients
    grads[i, j] = d_j u_i (as :meth:`SpectralOps.gradients` returns them)."""
    return float(np.max(np.abs(grads[0, 0] + grads[1, 1] + grads[2, 2])))
