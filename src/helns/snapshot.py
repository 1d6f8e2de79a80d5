"""HLXF binary snapshots.

Layout (all little-endian):

* magic bytes ``HLXF``
* version: u32
* nx, ny, nz: u32 each
* Lx, Ly, L (pitch), time: f64 each
* component count: u8
* body: for each component, nx*ny*nz f64 samples in row-major order with x
  varying fastest (z slowest).

Snapshots written by the simulator hold the three components of the total
vorticity (background plus perturbation), which is localized in the
cross-section and therefore spectrally clean to reload — unlike the total
velocity, whose circulation tail wraps around the periodic box.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

MAGIC = b"HLXF"
VERSION = 1
# magic, version and nx, ny, nz (u32), Lx, Ly, pitch and time (f64), ncomp (u8)
_HEADER_BYTES = 4 + 4 * 4 + 4 * 8 + 1

__all__ = ["MAGIC", "VERSION", "SnapshotData", "read_snapshot", "write_snapshot"]


@dataclass
class SnapshotData:
    """Decoded snapshot: geometry, sample time and field components."""

    grid: GridSpec
    time: float
    fields: np.ndarray  # (ncomp, nx, ny, nz)


def write_snapshot(path, grid: GridSpec, time: float, fields: np.ndarray) -> None:
    """Write field components to an HLXF file."""
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 4 or fields.shape[1:] != grid.shape:
        raise ValueError(
            f"expected fields of shape (ncomp,) + {grid.shape}, got {fields.shape}"
        )
    ncomp = fields.shape[0]
    if not 1 <= ncomp <= 255:
        raise ValueError("component count must be in [1, 255]")
    if not (np.all(np.isfinite(fields)) and np.isfinite(time)):
        raise ValueError("snapshot fields and time must be finite")
    # x-fastest row-major body: each component transposed to (z, y, x) into
    # one buffer, whose bytes are written as they lie
    body = np.empty((grid.nz, grid.ny, grid.nx), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([VERSION, grid.nx, grid.ny, grid.nz], dtype="<u4").tobytes())
        fh.write(
            np.array([grid.Lx, grid.Ly, grid.pitch, time], dtype="<f8").tobytes()
        )
        fh.write(np.array([ncomp], dtype="<u1").tobytes())
        for c in range(ncomp):
            np.copyto(body, fields[c].transpose(2, 1, 0))
            fh.write(body)


def read_snapshot(path) -> SnapshotData:
    """Read an HLXF file back into grid metadata and field samples.

    The header, and the body's length against the file's size, are checked
    before any sample is allocated; each component is then read into one
    buffer and copied, transposed, into place.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_BYTES)
        if len(raw) < _HEADER_BYTES:
            raise ValueError("truncated HLXF header")
        if raw[:4] != MAGIC:
            raise ValueError(f"bad magic {raw[:4]!r}; expected {MAGIC!r}")
        version, nx, ny, nz = np.frombuffer(raw, dtype="<u4", count=4, offset=4)
        if version != VERSION:
            raise ValueError(f"unsupported HLXF version {int(version)}")
        Lx, Ly, pitch, time = np.frombuffer(raw, dtype="<f8", count=4, offset=20)
        if not np.isfinite(time):
            raise ValueError(f"snapshot time must be finite, got {time}")
        ncomp = int(raw[52])
        grid = GridSpec(nx=int(nx), ny=int(ny), nz=int(nz), Lx=float(Lx), pitch=float(pitch))
        if Ly != Lx:
            raise ValueError(f"square cross-section required (Lx = Ly), got Lx={Lx}, Ly={Ly}")
        per = grid.npoints
        expected = ncomp * per
        body_bytes = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
        if body_bytes != 8 * expected:
            raise ValueError(f"HLXF body holds {body_bytes} bytes; header promises "
                             f"{expected} samples of 8 bytes")
        fields = np.empty((ncomp, grid.nx, grid.ny, grid.nz))
        buf = np.empty((grid.nz, grid.ny, grid.nx), dtype="<f8") if ncomp else None
        for c in range(ncomp):
            if fh.readinto(buf) != 8 * per:
                raise ValueError(f"HLXF body ends inside component {c}; "
                                 f"header promises {expected} samples")
            fields[c] = buf.transpose(2, 1, 0)
    return SnapshotData(grid=grid, time=float(time), fields=fields)
