"""Shared fixtures: the ledger of every FFT the package does.

``helns.spectral`` is the package's one FFT boundary: every transform is a
call of its module attribute ``sfft`` (``scipy.fft``).  The ``fft_ledger``
fixture puts a counting stand-in there, so a transform is counted by the
passes it makes, whatever method made it.  A scalar 3D transform, full or
pruned, has exactly one z pass (``rfftn``, or ``rfft``/``irfft`` along the
last axis), so the z passes count them; the 2D transforms of the (x, y)
plane count apart.  The package calls no ``irfftn``: every inverse is the
x, y and ``irfft`` passes, and the stand-in refuses any name it does not
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
import scipy.fft

from helns import spectral

# the kind of each scipy.fft function that helns.spectral calls
KINDS = {"rfftn": "r2c", "rfft": "r2c", "irfft": "c2r",
         "fft": "c2c", "ifft": "c2c", "fft2": "plane", "ifft2": "plane"}


@dataclass(frozen=True)
class Pass:
    """One call at the FFT boundary.

    ``axis`` is the last transformed axis (the z pass of an n-dimensional
    real transform), counted from the end; ``lines`` the number of 1D lines
    along it and ``length`` their length, real for r2c and c2r.  A plane
    transform counts its 2D planes as ``lines`` and their points as
    ``length``.  ``shape`` is the input's shape, and ``full`` marks
    ``rfftn``, which only full-shape arrays take.
    """

    kind: str
    axis: int
    lines: int
    length: int
    shape: tuple
    full: bool

    @property
    def scalars(self) -> int:
        """Scalar 3D transforms of a z pass, or planes of a plane transform."""
        if self.kind == "plane":
            return self.lines
        if self.kind == "c2c":
            return 0
        return math.prod(self.shape[:-3])

    @property
    def cross(self) -> tuple:
        """The (x, y) extent of a z pass: the whole grid or the disk block."""
        return self.shape[-3:-1]


class FFTLedger:
    """A stand-in for ``scipy.fft`` that records every call as a :class:`Pass`."""

    def __init__(self):
        self.passes = []

    def clear(self) -> None:
        self.passes.clear()

    def z_passes(self) -> list:
        return [p for p in self.passes if p.kind in ("r2c", "c2r")]

    @property
    def transforms(self) -> int:
        """Scalar 3D transforms: one per z pass of a field."""
        return sum(p.scalars for p in self.z_passes())

    @property
    def planes(self) -> int:
        """2D transforms of the (x, y) plane."""
        return sum(p.scalars for p in self.passes if p.kind == "plane")

    def __getattr__(self, name):
        kind = KINDS.get(name)
        if kind is None:  # a new transform must be given its kind here
            raise AttributeError(f"the FFT ledger does not count scipy.fft.{name}")
        original = getattr(scipy.fft, name)

        def recorded(x, *args, **kwargs):
            out = original(x, *args, **kwargs)
            self.passes.append(_pass(name, kind, x.shape, out.shape, kwargs))
            return out

        return recorded


def _pass(name: str, kind: str, shape: tuple, out_shape: tuple, kwargs) -> Pass:
    ndim = len(shape)
    if kind == "plane":
        axis, lines, length = -1, math.prod(shape[:-2]), math.prod(shape[-2:])
    else:
        axes = kwargs.get("axes") or (kwargs.get("axis", -1),)
        axis = axes[-1] - ndim if axes[-1] >= 0 else axes[-1]
        length = max(shape[axis], out_shape[axis])  # the real side of r2c, c2r
        lines = math.prod(shape) // shape[axis]
    return Pass(kind, axis, lines, length, tuple(shape), name == "rfftn")


@pytest.fixture
def fft_ledger(monkeypatch):
    """The :class:`FFTLedger` standing in for ``helns.spectral.sfft``."""
    ledger = FFTLedger()
    monkeypatch.setattr(spectral, "sfft", ledger)
    return ledger
