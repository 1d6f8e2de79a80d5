"""Periodic-box geometry: grid spacing, coordinates and wavenumbers.

The domain is a rectangular box, periodic in all three directions.  The
horizontal cross-section is square (``Lx == Ly``) and the vertical extent is
tied to the helical pitch parameter ``L``: the box height is exactly
``2*pi*L``.  All spectral machinery (module :mod:`helns.spectral`) derives its
wavenumbers and quadrature weights from a :class:`GridSpec`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GridSpec"]


def _rule(name: str, value: float, ok: bool, requirement: str) -> list[tuple[str, str]]:
    """``[(name, message)]`` unless ``value`` is finite and ``ok`` (checked in
    that order), else ``[]``; ``requirement`` completes "``name`` must"."""
    if not np.isfinite(value):
        return [(name, f"{name} must be finite, got {value}")]
    if not ok:
        return [(name, f"{name} must {requirement}, got {value}")]
    return []


def _integer_rule(name: str, n, low: int) -> list[tuple[str, str]]:
    """``[(name, message)]`` unless ``n`` is an integer >= ``low``, else ``[]``."""
    ok = isinstance(n, numbers.Integral) and n >= low
    return [] if ok else [(name, f"{name} must be an integer >= {low}, got {n}")]


def _raise_all(violations: list[tuple[str, str]]) -> None:
    """Raise one ValueError listing every message of ``violations``, if any."""
    if violations:
        raise ValueError("; ".join(message for _, message in violations))


def _pitch_violations(pitch: float) -> list[tuple[str, str]]:
    """The :class:`GridSpec` rule of a helical pitch: finite and positive."""
    return _rule("pitch", pitch, pitch > 0, "be positive")


def _grid_violations(g) -> list[tuple[str, str]]:
    """Every (field, message) pair that the :class:`GridSpec` rules reject in
    ``g``, a GridSpec or anything with its fields."""
    bad = [(name, f"{name} must be an even integer >= 8, got {n}")
           for name, n in (("nx", g.nx), ("ny", g.ny), ("nz", g.nz))
           if not isinstance(n, numbers.Integral) or n < 8 or n % 2 != 0]
    return bad + _rule("Lx", g.Lx, g.Lx > 0, "be positive") + _pitch_violations(g.pitch)


@dataclass(frozen=True)
class GridSpec:
    """Geometry and resolution of the periodic simulation box.

    Parameters
    ----------
    nx, ny, nz : int
        Sample counts along x, y, z: even integers, at least 8.
    Lx : float
        Horizontal side length, positive and finite; :attr:`Ly` is ``Lx``.
    pitch : float
        Helical pitch parameter L, positive and finite.  The vertical box
        length is ``2*pi*pitch`` exactly.

    The vortex axis runs through the box center :attr:`center`.  This type
    owns these rules: construction raises one ValueError listing every one
    broken, and ``ExperimentConfig.validate`` reports them under ``[grid]``.
    """

    nx: int
    ny: int
    nz: int
    Lx: float
    pitch: float

    def __post_init__(self) -> None:
        _raise_all(_grid_violations(self))

    @classmethod
    def cube(cls, n: int, Lx: float, pitch: float) -> "GridSpec":
        """Convenience constructor for an n^3 grid with square cross-section."""
        return cls(nx=n, ny=n, nz=n, Lx=Lx, pitch=pitch)

    # --- derived geometry -------------------------------------------------

    @property
    def Ly(self) -> float:
        """y box side length, ``Lx`` (the cross-section is square)."""
        return self.Lx

    @property
    def Lz(self) -> float:
        """Vertical box length, exactly ``2*pi*pitch``."""
        return 2.0 * np.pi * self.pitch

    @property
    def center(self) -> tuple[float, float]:
        """Horizontal coordinates of the vortex axis, the box center."""
        return (self.Lx / 2.0, self.Ly / 2.0)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of real-to-complex coefficient arrays (z-axis halved)."""
        return (self.nx, self.ny, self.nz // 2 + 1)

    @property
    def dx(self) -> float:
        return self.Lx / self.nx

    @property
    def dy(self) -> float:
        return self.Ly / self.ny

    @property
    def dz(self) -> float:
        return self.Lz / self.nz

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    @property
    def volume(self) -> float:
        return self.Lx * self.Ly * self.Lz

    @property
    def npoints(self) -> int:
        return self.nx * self.ny * self.nz

    # --- coordinates -------------------------------------------------------

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    @cached_property
    def z(self) -> np.ndarray:
        return np.arange(self.nz) * self.dz

    @cached_property
    def xc(self) -> np.ndarray:
        """x - center_x, wrapped to [-Lx/2, Lx/2), shape (nx, 1)."""
        cx = self.center[0]
        return (((self.x - cx + self.Lx / 2) % self.Lx) - self.Lx / 2).reshape(-1, 1)

    @cached_property
    def yc(self) -> np.ndarray:
        """y - center_y, wrapped to [-Ly/2, Ly/2), shape (1, ny)."""
        cy = self.center[1]
        return (((self.y - cy + self.Ly / 2) % self.Ly) - self.Ly / 2).reshape(1, -1)

    @cached_property
    def r2d(self) -> np.ndarray:
        """Horizontal radius about the center, shape (nx, ny)."""
        return np.hypot(self.xc, self.yc)

    # --- wavenumbers ---------------------------------------------------------

    @cached_property
    def kx(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)

    @cached_property
    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)

    @cached_property
    def kz(self) -> np.ndarray:
        """Non-negative vertical wavenumbers of the real transform."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.nz, d=self.dz)

    @cached_property
    def kvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (kx, ky, kz) triple on the spectral shape."""
        return (
            self.kx.reshape(-1, 1, 1),
            self.ky.reshape(1, -1, 1),
            self.kz.reshape(1, 1, -1),
        )

    @cached_property
    def k_squared(self) -> np.ndarray:
        kx, ky, kz = self.kvec
        return kx**2 + ky**2 + kz**2

    @cached_property
    def mode_weight(self) -> np.ndarray:
        """Multiplicity of each rfft coefficient in Parseval sums.

        Interior kz planes represent a conjugate pair of modes and count
        twice; the kz = 0 and Nyquist planes count once.
        """
        w = np.full(self.nz // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w.reshape(1, 1, -1)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask: True where coefficients are kept.

        The kept modes are |k_i| <= n_i//3 in integer wavenumber units, taken
        from the integer index (``fftfreq(n) * n`` is not integer-exact: at
        n = 20 it gives 6.000000000000001 for the mode 6).
        """
        def kept(n):
            i = np.arange(n)
            return np.minimum(i, n - i) <= n // 3

        ix, iy = kept(self.nx), kept(self.ny)
        iz = np.arange(self.nz // 2 + 1) <= self.nz // 3
        return (
            ix.reshape(-1, 1, 1) & iy.reshape(1, -1, 1) & iz.reshape(1, 1, -1)
        )
