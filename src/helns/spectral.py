"""Spectral operators on the periodic box.

Fields are represented as plain numpy arrays: physical scalar fields have
shape ``(nx, ny, nz)``, physical vector fields ``(3, nx, ny, nz)``, and the
corresponding real-to-complex coefficient arrays replace the last axis by
``nz//2 + 1``.  The forward transform is unnormalized and the inverse carries
the ``1/(nx*ny*nz)`` factor, so coefficient files are reproducible
bit-exactly.

:class:`SpectralOps` bundles every Fourier-multiplier operator used by the
solver and the diagnostics: divergence, Leray projection, the
vertical-mean projection Q, curl / inverse curl and the 2/3-rule dealiasing,
and the solver's tendency tail -P dealias(.), which works on the kept 2/3-rule
block only.
It also inverts the nine physical gradients d_j u_i of a field, which the
solver's convective loop reads on the whole grid.  The input gates of a
record or a decomposition read less: :func:`max_divergence` only the trace
d_i u_i, and the helical-defect functional only the central block of rows
and columns that holds its r <= Lx/4 disk.
:meth:`SpectralOps.disk_gradients` therefore inverts the three diagonal
gradients on the whole grid and the six others on that block only
(:meth:`SpectralOps.inv_disk`), and gives the same bits as the nine full
inverses.  All methods but :meth:`SpectralOps.inv_disk`, which overwrites its
input, are pure functions of their inputs; the class only caches wavenumber
arrays and index blocks.
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
        self._ik = (1j * self.kx, 1j * self.ky, 1j * self.kz)
        # The kept 2/3-rule block |kx| <= nx//3, |ky| <= ny//3, kz <= nz//3 as
        # a gather index, with its wavenumbers and 1/|k|^2.
        ix = np.flatnonzero(self.mask.any(axis=(1, 2)))
        iy = np.flatnonzero(self.mask.any(axis=(0, 2)))
        kz_kept = slice(0, grid.nz // 3 + 1)
        self._band = (slice(None), ix[:, None], iy[None, :], kz_kept)
        self._band_k = (self.kx[ix], self.ky[:, iy], self.kz[..., kz_kept])
        self._band_inv_k2 = self.inv_k2[self._band[1:]]
        # The helical-defect mask r <= Lx/4 is a disk about the box center: its
        # rows and columns form one contiguous central block, the (x, y)
        # slices ``disk`` on which the defect's gradients are taken.
        disk = grid.r2d <= 0.25 * grid.Lx
        rows = np.flatnonzero(disk.any(axis=1))
        cols = np.flatnonzero(disk.any(axis=0))
        self.disk = (slice(int(rows[0]), int(rows[-1]) + 1),
                     slice(int(cols[0]), int(cols[-1]) + 1))
        self._disk_mask = disk[self.disk][..., None]
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

    def inv_disk(self, F: np.ndarray) -> np.ndarray:
        """:meth:`inv` of one coefficient field, sampled on the disk block only.

        The passes of ``irfftn`` are taken in its order and left unscaled: x
        on every line, y on the block's rows, then ``irfft`` along z on the
        block's columns.  ``irfftn`` applies 1/N once, in its last pass, so
        one multiply by 1/N at the end gives ``inv(F)[disk block]`` bit for
        bit (1/n per pass would not).  The x and y passes run in place: F is
        overwritten.
        """
        bx, by = self.disk
        w = self._workers
        f = sfft.ifft(F, axis=0, norm="forward", workers=w, overwrite_x=True)
        f = sfft.ifft(f[bx], axis=1, norm="forward", workers=w, overwrite_x=True)
        f = sfft.irfft(f[:, by], n=self.grid.nz, axis=2, norm="forward", workers=w)
        f *= 1.0 / self.grid.npoints
        return f

    def fwd_plane(self, f: np.ndarray) -> np.ndarray:
        """Forward 2D FFT over the last two (x, y) axes (unnormalized).

        Of the z-sum of a field it gives the kz = 0 plane of :meth:`fwd`.
        """
        return sfft.fft2(f, axes=(-2, -1), workers=self._workers)

    # --- multipliers -----------------------------------------------------

    def divergence(self, U: np.ndarray) -> np.ndarray:
        """Spectral divergence of a vector coefficient array (3, ...)."""
        return _divergence((self.kx, self.ky, self.kz), U)

    def leray(self, U: np.ndarray) -> np.ndarray:
        """Leray projection: remove the gradient part of each k != 0 mode.

        The k = 0 mode (box mean) is left unchanged.
        """
        return _leray((self.kx, self.ky, self.kz), self.inv_k2, U)

    def band_tendency(self, F: np.ndarray, rows=None) -> np.ndarray:
        """-P dealias(F) of full-spectrum coefficients F (3, ...).

        Only the kept 2/3-rule block is gathered and projected; the result is
        scattered into zeros, and equals ``-leray(dealias(F))`` value for
        value.  With ``rows``, F holds the products S_n of a symmetric tensor
        and the tendency is that of its divergence rows i k_j S_ij, where
        ``rows[i]`` lists the positions of S_i0, S_i1 and S_i2 in F.
        """
        B = F[self._band]
        if rows is not None:
            B = np.stack([_divergence(self._band_k, [B[n] for n in row]) for row in rows])
        out = np.zeros((3,) + F.shape[1:], dtype=complex)
        out[self._band] = -_leray(self._band_k, self._band_inv_k2, B)
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
        out = np.empty(U.shape, dtype=complex)
        np.subtract(ky * U[2], kz * U[1], out=out[0])
        np.subtract(kz * U[0], kx * U[2], out=out[1])
        np.subtract(kx * U[1], ky * U[0], out=out[2])
        out *= 1j
        return out

    def inverse_curl(self, W: np.ndarray) -> tuple[np.ndarray, float]:
        """Unique zero-mean divergence-free U with curl(U) = W, and the
        relative size of the gradient part of W.

        The k = 0 mode of W is always dropped (a net-circulation vorticity has
        no periodic velocity potential; that part of the field is carried
        analytically by the decomposition layer).  U is curl(W) / |k|^2: the
        curl annihilates the gradient part k (k.W) / |k|^2 of a
        non-solenoidal W, so no projection is formed.  The returned
        correction is |W - P W| / |W| = |grad((k.W) / |k|^2)| / |W| (0 for a
        zero W).
        """
        rel = 0.0
        norm_w = self.l2_norm(W)
        if norm_w > 0:
            corr = (self.kx * W[0] + self.ky * W[1] + self.kz * W[2]) * self.inv_k2
            rel = float(np.sqrt(self.grad_norm_sq(corr))) / norm_w
            if rel > 1e-12:
                logger.debug("inverse_curl: non-solenoidal input, relative correction %.3e", rel)
        U = self.curl(W)
        U *= self.inv_k2
        return U, rel

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
        mult = np.empty((3,) + U.shape[1:], dtype=complex)
        for i in range(3):
            for j, ik in enumerate(self._ik):
                np.multiply(ik, U[i], out=mult[j])
            grads[i] = self.inv(mult)
        return grads

    def disk_gradients(self, U: np.ndarray) -> tuple[float, np.ndarray]:
        """max |div u| on the grid and grads[i, j] = d_j u_i on the disk block.

        The divergence is the trace d_0 u_0 + d_1 u_1 + d_2 u_2, so the three
        diagonal gradients are inverted on the whole grid; the six others only
        on the block that holds the helical-defect disk (:meth:`inv_disk`).
        The results equal ``max_divergence(gradients(U))`` and
        ``gradients(U)[:, :, bx, by]`` bit for bit, from 3 full inverse
        transforms and 6 on the block, all of one multiplier buffer.
        """
        bx, by = self.disk
        nbx, nby = bx.stop - bx.start, by.stop - by.start
        grads = np.empty((3, 3, nbx, nby, self.grid.nz))
        mult = np.empty(U.shape[1:], dtype=complex)
        div = None
        for i in range(3):
            for j, ik in enumerate(self._ik):
                np.multiply(ik, U[i], out=mult)
                if i != j:
                    grads[i, j] = self.inv_disk(mult)
                    continue
                d_ii = self.inv(mult)
                grads[i, i] = d_ii[bx, by]
                if div is None:
                    div = d_ii
                else:
                    div += d_ii  # (d_00 + d_11) + d_22, as max_divergence sums
        return float(np.max(np.abs(div))), grads

    def helical_defect(self, U: np.ndarray, u: np.ndarray, grads: np.ndarray) -> float:
        """Masked, H1-normalized helical-symmetry defect of a velocity field.

        Helical symmetry means the three cylindrical components about the
        grid center are annihilated by D = d/dtheta + L d/dz.  Written in
        Cartesian components this is equivalent, pointwise, to the vanishing
        of (D u_x + u_y, D u_y - u_x, D u_z), which avoids forming the
        axis-singular cylindrical components.  The root-sum-square of the
        three masked L2 norms is returned, normalized by the H1 norm of u.
        The mask keeps r <= Lx/4 to exclude wrap-around artifacts of the
        physical-space angular derivative; only the central block of rows and
        columns that holds it is evaluated.

        ``U`` holds the coefficients of the field (for the H1 norm), ``u``
        its physical samples on the whole grid and ``grads`` its gradients on
        the disk block, as :meth:`disk_gradients` returns them; no transform
        is done.  Returns 0 for a zero field.
        """
        h1_sq = self.l2_norm_sq(U) + self.grad_norm_sq(U)
        if h1_sq == 0.0:
            return 0.0
        L = self.grid.pitch
        bx, by = self.disk
        shift = (u[1, bx, by], -u[0, bx, by], 0.0)
        xc = self.grid.xc[bx, :, None]
        yc = self.grid.yc[:, by, None]
        mask = self._disk_mask
        dV = self.grid.cell_volume
        total = 0.0
        for comp in range(3):
            axial_c = L * grads[comp, 2] + shift[comp]
            defect = xc * grads[comp, 1] - yc * grads[comp, 0] + axial_c
            total += float(np.sum((defect * mask) ** 2) * dV)
        return float(np.sqrt(total / h1_sq))


def _divergence(k, U) -> np.ndarray:
    """i k . U for a broadcastable wavenumber triple k."""
    kx, ky, kz = k
    return 1j * kx * U[0] + 1j * ky * U[1] + 1j * kz * U[2]


def _leray(k, inv_k2, U: np.ndarray) -> np.ndarray:
    """U - k (k . U) / |k|^2 for a wavenumber triple k and its 1/|k|^2."""
    corr = (k[0] * U[0] + k[1] * U[1] + k[2] * U[2]) * inv_k2
    out = np.empty_like(U)
    for i, k_i in enumerate(k):
        np.subtract(U[i], k_i * corr, out=out[i])
    return out


def max_divergence(grads: np.ndarray) -> float:
    """max |div u| on the grid, the trace of the physical gradients
    grads[i, j] = d_j u_i (as :meth:`SpectralOps.gradients` returns them)."""
    return float(np.max(np.abs(grads[0, 0] + grads[1, 1] + grads[2, 2])))
