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

The 3D engine carries its coefficients as the kept 2/3-rule block
|kx| <= nx//3, |ky| <= ny//3, kz <= nz//3 only, an array
(..., nbx, nby, nz//3 + 1) whose x and y rows are the kept indices in
ascending order (:meth:`SpectralOps.gather` and :meth:`SpectralOps.scatter`
move between it and the full shape).  The multipliers but
:meth:`SpectralOps.dealias`, the inverse transforms, the gradients and the
norms take either shape, and any other shape is a ValueError.
:meth:`SpectralOps.inv` takes the passes of ``irfftn`` in its order (x,
then y, then ``irfft`` along z), of either shape, and
:meth:`SpectralOps.fwd_band` those of ``rfftn`` (``rfft`` along z, then x,
then y); on the block both are pruned to the kept lines.  Every line they do
transform is the line the full transform does, by the same 1D transform,
and the lines they skip are zero or are cut away, so both give the full
transforms' bits.  It also inverts the nine
physical gradients d_j u_i of a field, which the solver's convective loop
reads.  The gates of a record, a decomposition and the Ladyzhenskaya sweep,
max |div u| and the helical defect, read less: the divergence only the trace
d_i u_i, and the defect only the central block of rows and columns that
holds its r <= Lx/4 disk.  :meth:`SpectralOps.gates` takes both in one
call, from the nine gradients when the caller has them and otherwise from
the three diagonal ones inverted on the whole grid and the six others on
that block only (the same pruned passes, cut to the block's rows and
columns), with the same bits either way.

This module is the package's one FFT boundary: every transform, these and
the 2D ones of the (x, y) plane (:meth:`SpectralOps.fwd_plane`,
:meth:`SpectralOps.inv_plane`), is a call of ``sfft`` (``scipy.fft``), so a
stand-in for ``helns.spectral.sfft`` sees every pass.  All methods are pure
functions of their inputs; the class caches wavenumber tables, index blocks
and the work buffers of the pruned inverse, so one instance is not to be
shared between threads.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.fft as sfft

from .grid import GridSpec

__all__ = ["SpectralOps"]

logger = logging.getLogger(__name__)


class SpectralOps:
    """Fourier-space operators for a fixed :class:`GridSpec`."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.kx, self.ky, self.kz = grid.kvec
        self.k2 = grid.k_squared
        # 1/|k|^2 with the k = 0 entry zeroed (used by Leray and inverse curl)
        self.inv_k2 = np.divide(1.0, self.k2, out=np.zeros_like(self.k2), where=self.k2 != 0)
        self.mask = grid.dealias_mask
        parseval = grid.volume * grid.mode_weight / grid.npoints**2
        # The kept 2/3-rule block |kx| <= nx//3, |ky| <= ny//3, kz <= nz//3 as
        # a gather index over any leading axes.  Along x and y the kept
        # indices are the two runs 0 .. n//3 and n - n//3 .. n - 1 (``_runs``).
        ix = np.flatnonzero(self.mask.any(axis=(1, 2)))
        iy = np.flatnonzero(self.mask.any(axis=(0, 2)))
        kept = (ix[:, None], iy[None, :], slice(0, grid.nz // 3 + 1))
        self._band = (Ellipsis,) + kept
        # One multiplier table per coefficient shape, looked up by
        # ``_wavenumbers``; the block's is the full table's gathered.
        self._full = _Wavenumbers((self.kx, self.ky, self.kz), self.k2, self.inv_k2, parseval)
        self._block = _Wavenumbers(
            (self.kx[ix], self.ky[:, iy], self.kz[..., kept[2]]),
            self.k2[kept], self.inv_k2[kept], parseval[..., kept[2]],
        )
        self.band_k2 = self._block.k2
        self.band_shape = self.band_k2.shape
        self._runs = (_runs(grid.nx), _runs(grid.ny))
        # the pruned inverse's zero-padded x- and y-pass buffers, by leading
        # shape, allocated on first use
        self._inv_buffers = {}
        # The helical-defect mask r <= Lx/4 is a disk about the box center: its
        # rows and columns form one contiguous central block, the (x, y)
        # slices ``disk`` on which the defect's gradients are taken.
        disk = grid.r2d <= 0.25 * grid.Lx
        rows = np.flatnonzero(disk.any(axis=1))
        cols = np.flatnonzero(disk.any(axis=0))
        self.disk = (slice(int(rows[0]), int(rows[-1]) + 1),
                     slice(int(cols[0]), int(cols[-1]) + 1))
        self._disk_mask = disk[self.disk][..., None]

    # --- transforms -----------------------------------------------------

    def fwd(self, f: np.ndarray) -> np.ndarray:
        """Forward rfft over the last three axes (unnormalized)."""
        return sfft.rfftn(f, axes=(-3, -2, -1))

    def inv(self, F: np.ndarray) -> np.ndarray:
        """Inverse rfft over the last three axes (carries 1/N): ``irfftn`` of
        full-shape F bit for bit, or ``inv(scatter(B))`` of a kept block B."""
        return self._inv_pruned(F, slice(None), slice(None))

    def _inv_pruned(self, F: np.ndarray, rows: slice, cols: slice,
                    overwrite: bool = False) -> np.ndarray:
        """``inv(F)[..., rows, cols, :]``, the package's one inverse: the
        passes of ``irfftn`` in its order, each unscaled: x, then y on
        ``rows``, then ``irfft`` along z on ``cols``.  A full-shape F is overwritten by
        its x pass when ``overwrite`` is set; a kept block never is.  A kept
        block is zero-padded into two buffers kept between calls, x running
        on its ky columns and x and y on kz <= nz//3; each call rewrites the
        rows it reads, and the y buffer's kz > nz//3 columns are never
        written.  ``irfftn`` applies 1/N once, in its last pass, so one
        multiply at the end gives its bits (1/n per pass would not)."""
        if self._wavenumbers(F) is self._full:
            f = sfft.ifft(F, axis=-3, norm="forward", overwrite_x=overwrite)
            f = sfft.ifft(f[..., rows, :, :], axis=-2, norm="forward", overwrite_x=True)
        else:
            (xlo, xgap, xhi), (ylo, ygap, yhi) = self._runs
            mx, my = xlo.stop, ylo.stop
            nzk = self.band_shape[2]
            lead = F.shape[:-3]
            if lead not in self._inv_buffers:
                nx, ny, nzr = self.k2.shape
                self._inv_buffers[lead] = (
                    np.empty(lead + (nx, self.band_shape[1], nzk), dtype=complex),
                    np.zeros(lead + (nx, ny, nzr), dtype=complex))
            X, Y = self._inv_buffers[lead]
            X[..., xlo, :, :] = F[..., :mx, :, :]
            X[..., xgap, :, :] = 0.0
            X[..., xhi, :, :] = F[..., mx:, :, :]
            X = sfft.ifft(X, axis=-3, norm="forward", overwrite_x=True)
            X = X[..., rows, :, :]  # the sampled rows, into the y buffer's first rows
            f = Y[..., : X.shape[-3], :, :]
            Yk = f[..., :nzk]
            Yk[..., ylo, :] = X[..., :my, :]
            Yk[..., ygap, :] = 0.0
            Yk[..., yhi, :] = X[..., my:, :]
            G = sfft.ifft(Yk, axis=-2, norm="forward", overwrite_x=True)
            if not np.may_share_memory(G, Y):  # the pass ran out of place
                Yk[...] = G
        f = sfft.irfft(f[..., cols, :], n=self.grid.nz, axis=-1, norm="forward")
        f *= 1.0 / self.grid.npoints
        return f

    def fwd_band(self, f: np.ndarray) -> np.ndarray:
        """``gather(fwd(f))`` from passes pruned to the kept block, bit for bit.

        The passes of ``rfftn`` in its order: ``rfft`` along z, cut to
        kz <= nz//3, then the x pass, cut to the kept kx rows, then the y
        pass, cut to the kept ky columns.  Every kept coefficient comes from
        the same 1D transforms of the same lines as in ``rfftn``.  The x and
        y passes run in place on the z pass's output.
        """
        (xlo, _, xhi), (ylo, _, yhi) = self._runs
        mx, my = xlo.stop, ylo.stop
        F = sfft.rfft(f, axis=-1)[..., : self.band_shape[2]]
        F = sfft.fft(F, axis=-3, overwrite_x=True)
        out = np.empty(f.shape[:-3] + self.band_shape, dtype=complex)
        for rows, run in ((slice(0, mx), xlo), (slice(mx, None), xhi)):
            G = sfft.fft(F[..., run, :, :], axis=-2, overwrite_x=True)
            out[..., rows, :my, :] = G[..., ylo, :]
            out[..., rows, my:, :] = G[..., yhi, :]
        return out

    def gather(self, F: np.ndarray) -> np.ndarray:
        """The kept 2/3-rule block (..., nbx, nby, nz//3 + 1) of full-spectrum
        coefficients F (..., nx, ny, nz//2 + 1)."""
        return F[self._band]

    def scatter(self, B: np.ndarray) -> np.ndarray:
        """Full-spectrum coefficients that hold the kept block B and are zero
        elsewhere; ``gather(scatter(B))`` is B."""
        F = np.zeros(B.shape[:-3] + self.k2.shape, dtype=complex)
        F[self._band] = B
        return F

    def fwd_plane(self, f: np.ndarray) -> np.ndarray:
        """Forward 2D FFT over the last two (x, y) axes (unnormalized).

        Of the z-sum of a field it gives the kz = 0 plane of :meth:`fwd`.
        """
        return sfft.fft2(f, axes=(-2, -1))

    def inv_plane(self, F: np.ndarray) -> np.ndarray:
        """Inverse 2D FFT over the last two (x, y) axes (carries 1/(nx ny))."""
        return sfft.ifft2(F, axes=(-2, -1))

    # --- multipliers -----------------------------------------------------
    #
    # Each multiplier and norm reads its wavenumbers from the table of its
    # operand's shape, full (..., nx, ny, nz//2 + 1) or kept-block
    # (..., nbx, nby, nz//3 + 1); the two never coincide, since
    # nbx = 2 (nx//3) + 1 < nx.  On a block a multiplier gives the full
    # operand's bits there, and a norm the full sum to round-off.

    def _wavenumbers(self, F: np.ndarray) -> _Wavenumbers:
        """The multiplier table of the coefficient shape of F."""
        if F.shape[-3:] == self.band_shape:
            return self._block
        if F.shape[-3:] == self.k2.shape:
            return self._full
        raise ValueError(f"coefficients of shape {F.shape} end in neither the full "
                         f"shape {self.k2.shape} nor the kept block {self.band_shape}")

    def divergence(self, U) -> np.ndarray:
        """Spectral divergence i k . U of a vector coefficient array (3, ...)
        or of a sequence of its three components."""
        ikx, iky, ikz = self._wavenumbers(U[0]).ik
        return ikx * U[0] + iky * U[1] + ikz * U[2]

    def leray(self, U: np.ndarray) -> np.ndarray:
        """Leray projection: remove the gradient part of each k != 0 mode.

        The k = 0 mode (box mean) is left unchanged.
        """
        table = self._wavenumbers(U)
        k = table.k
        corr = (k[0] * U[0] + k[1] * U[1] + k[2] * U[2]) * table.inv_k2
        out = np.empty_like(U)
        for i, k_i in enumerate(k):
            np.subtract(U[i], k_i * corr, out=out[i])
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
        """2/3-rule truncation: zero all modes with any |k_i| > n_i//3.

        Full-shape only: on the kept block it is the identity."""
        return F * self.mask

    def curl(self, U: np.ndarray) -> np.ndarray:
        """i k x U: component c is i (k_a U_b - k_b U_a) for (c, a, b) cyclic.

        Each product is written into the output or into one scratch
        component, by the same multiply the expression ``k_a * U_b`` does.
        """
        k = self._wavenumbers(U).k
        out = np.empty(U.shape, dtype=complex)
        tmp = np.empty(U.shape[1:], dtype=complex)
        for c in range(3):
            a, b = (c + 1) % 3, (c + 2) % 3
            np.multiply(k[a], U[b], out=out[c])
            np.multiply(k[b], U[a], out=tmp)
            np.subtract(out[c], tmp, out=out[c])
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
        table = self._wavenumbers(W)
        k = table.k
        rel = 0.0
        norm_w = self.l2_norm(W)
        if norm_w > 0:
            # (k0 W0 + k1 W1 + k2 W2) / |k|^2, summed in order in one buffer
            corr = np.multiply(k[0], W[0])
            term = np.multiply(k[1], W[1])
            corr += term
            np.multiply(k[2], W[2], out=term)
            corr += term
            del term
            corr *= table.inv_k2
            rel = float(np.sqrt(self.grad_norm_sq(corr))) / norm_w
            if rel > 1e-12:
                logger.debug("inverse_curl: non-solenoidal input, relative correction %.3e", rel)
        U = self.curl(W)
        U *= table.inv_k2
        return U, rel

    # --- norms (spectral-exact via Parseval) ------------------------------

    def l2_norm_sq(self, F: np.ndarray) -> float:
        """Squared L2(box) norm of a coefficient array (any component stack)."""
        return self._weighted_sum_sq(F)

    def l2_norm(self, F: np.ndarray) -> float:
        return float(np.sqrt(self.l2_norm_sq(F)))

    def inner(self, F: np.ndarray, G: np.ndarray) -> float:
        """L2(box) inner product of two coefficient arrays of one shape."""
        return float(np.sum((F * np.conj(G)).real * self._wavenumbers(F).weight))

    def grad_norm_sq(self, F: np.ndarray) -> float:
        return self._weighted_sum_sq(F, 1)

    def l2_and_grad_norm_sq(self, F: np.ndarray) -> tuple[float, float]:
        """``(l2_norm_sq(F), grad_norm_sq(F))`` bit for bit, from one |F|^2 array."""
        table = self._wavenumbers(F)
        out = np.abs(F)
        out *= out
        l2_sq = float(np.sum(out * table.weight))
        out *= table.k2
        out *= table.weight
        return l2_sq, float(np.sum(out))

    def lap_norm_sq(self, F: np.ndarray) -> float:
        return self._weighted_sum_sq(F, 2)

    def _weighted_sum_sq(self, F: np.ndarray, k2_power: int = 0) -> float:
        """sum |F|^2 (|k|^2)^p weight, squared and weighted in place on one |F| array."""
        table = self._wavenumbers(F)
        out = np.abs(F)
        out *= out
        if k2_power:
            out *= table.k2 if k2_power == 1 else table.k2**k2_power
        out *= table.weight
        return float(np.sum(out))

    # --- physical gradients and the gates ------------------------------------

    def gradients(self, U: np.ndarray) -> np.ndarray:
        """Physical grads[i, j] = d_j u_i, one component's three at a time.

        Takes the coefficients U (3, ...), either shape, and does 9 inverse
        transforms (:meth:`inv`); a kept block B gives
        ``gradients(scatter(B))`` bit for bit.
        """
        table = self._wavenumbers(U)
        grads = np.empty((3, 3) + self.grid.shape)
        mult = np.empty((3,) + U.shape[1:], dtype=complex)
        for i in range(3):
            for j, ik_j in enumerate(table.ik):
                np.multiply(ik_j, U[i], out=mult[j])
            grads[i] = self.inv(mult)
        return grads

    def gates(self, U: np.ndarray, u: np.ndarray, grads: np.ndarray | None = None
              ) -> tuple[float, float]:
        """max |div u| on the grid and the masked, H1-normalized helical defect.

        ``U`` holds the coefficients of the field, full-shape or its kept
        block, and ``u`` its physical samples on the whole grid.  ``grads``
        holds its physical gradients grads[i, j] = d_j u_i on the whole grid
        (:meth:`gradients`) when the caller has them; no transform is then
        done.  Without them the three diagonal gradients, whose trace is the
        divergence, are inverted on the whole grid and the six others only on
        the disk block (``_inv_pruned(mult, *self.disk)``): 3 whole-grid and
        6 disk-block runs of the pruned passes on one multiplier buffer, with
        the bits of the nine whole-grid inverses.  Either way the gates are
        the same bits.
        One component's three gradients are held at a time: its defect term
        is folded into the sum and its diagonal gradient into the divergence
        before the next component's are inverted.

        Helical symmetry means the three cylindrical components about the
        grid center are annihilated by D = d/dtheta + L d/dz.  Written in
        Cartesian components this is equivalent, pointwise, to the vanishing
        of (D u_x + u_y, D u_y - u_x, D u_z), which avoids forming the
        axis-singular cylindrical components.  The defect is the
        root-sum-square of the three masked L2 norms, normalized by the H1
        norm of u, and 0 for a zero field.  The mask keeps r <= Lx/4 to
        exclude wrap-around artifacts of the physical-space angular
        derivative; only the disk block is evaluated.
        """
        bx, by = self.disk
        l2_sq, grad_sq = self.l2_and_grad_norm_sq(U)
        h1_sq = l2_sq + grad_sq
        L = self.grid.pitch
        shift = (u[1, bx, by], -u[0, bx, by])
        xc = self.grid.xc[bx, :, None]
        yc = self.grid.yc[:, by, None]
        mask = self._disk_mask
        dV = self.grid.cell_volume
        # the defect term of one component, (x d_y - y d_x) + (L d_z + shift),
        # in the first buffer, the second holding its other operands
        term = np.empty((bx.stop - bx.start, by.stop - by.start, self.grid.nz))
        other = np.empty_like(term)
        if grads is None:
            ik = self._wavenumbers(U).ik
            # rewritten before every use, so a full-shape one may take the x pass
            mult = np.empty(U.shape[1:], dtype=complex)
            whole = (slice(None), slice(None))
        div = None
        total = 0.0
        for i in range(3):
            if grads is None:
                g = []
                for j in range(3):
                    np.multiply(ik[j], U[i], out=mult)
                    g.append(self._inv_pruned(mult, *(whole if i == j else self.disk),
                                              overwrite=True))
                d_ii = g[i]
                g[i] = d_ii[bx, by]
            else:
                d_ii = grads[i, i]
                g = grads[i, :, bx, by]
            if div is None:
                div = d_ii if grads is None else d_ii.copy()
            else:
                div += d_ii  # (d_00 + d_11) + d_22, as the trace sums
            del d_ii
            if h1_sq == 0.0:
                continue
            np.multiply(xc, g[1], out=term)
            np.multiply(yc, g[0], out=other)
            np.subtract(term, other, out=term)
            np.multiply(L, g[2], out=other)
            if i < 2:  # D u_z has no shift; adding 0 would only unsign a zero
                np.add(other, shift[i], out=other)
            np.add(term, other, out=term)
            np.multiply(term, mask, out=term)
            np.square(term, out=term)
            total += float(np.sum(term) * dV)
        # max |div| without an |div| temporary (abs: a +0.0 for an all-zero div)
        max_div = abs(float(max(div.max(), -div.min())))
        if h1_sq == 0.0:
            return max_div, 0.0
        return max_div, float(np.sqrt(total / h1_sq))


def _require_grid(ops: SpectralOps, grid: GridSpec) -> None:
    """Raise ValueError unless ``ops`` were built for ``grid``."""
    if ops.grid != grid:
        raise ValueError(f"ops were built for grid {ops.grid}, not for the field's grid {grid}")


def _runs(n: int) -> tuple[slice, slice, slice]:
    """The kept 2/3-rule indices |k| <= n//3 of an FFT axis of n modes: the
    run 0 .. m, the gap between the runs and the run n - m .. n - 1, where
    m = n//3.  The first run holds the block's first m + 1 rows."""
    m = n // 3
    return slice(0, m + 1), slice(m + 1, n - m), slice(n - m, n)


class _Wavenumbers:
    """The multipliers of one coefficient shape, broadcastable against it:
    the wavenumber triple ``k``, ``ik`` = i k, ``k2`` = |k|^2, ``inv_k2`` =
    1/|k|^2 (0 at k = 0) and the Parseval ``weight`` of each mode."""

    def __init__(self, k, k2, inv_k2, weight):
        self.k = k
        self.ik = tuple(1j * k_i for k_i in k)
        self.k2 = k2
        self.inv_k2 = inv_k2
        self.weight = weight

