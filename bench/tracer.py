"""Runtime spans around the public functions of ``helns``.

The tracer never edits the package: it replaces module attributes and class
methods with timing wrappers while it is installed and puts the originals
back afterwards.  A function that other modules imported by name
(``from .fields import oseen_vorticity``) is replaced in every ``helns``
module that holds it, so calls are caught where they are looked up.

Each span belongs to a *group* (``spectral.fft``, ``solver.step``, ...).  For
every group the tracer keeps

* ``outer``      entries with no enclosing span of the same group,
* ``incl_s``     wall time of the outer entries (no double counting),
* ``self_s``     span time minus the time of its direct child spans,
* ``durations``  wall time of each outer entry,
* ``transforms`` scalar 3D FFTs performed inside the outer entries,
* ``bytes``      a group-specific byte count (FFT input+output, file sizes).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def helns_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "helns" or name.startswith("helns."))]


def replace_everywhere(original, replacement) -> list:
    """Swap ``original`` for ``replacement`` in every helns module namespace.

    Returns the undo list of ``(module, name, original)`` triples.
    """
    undo = []
    for mod in helns_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


class CallCounter:
    """Count calls of one public function (the only hook of untraced runs).

    ``record(args)``, if given, is stored for every call.
    """

    def __init__(self, original, record=None):
        self.calls = 0
        self.values: list = []
        counter = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counter.calls += 1
            if record is not None:
                counter.values.append(record(args))
            return original(*args, **kwargs)

        if not replace_everywhere(original, counted):
            raise RuntimeError(f"{original.__qualname__} is not referenced by any helns module")


@dataclass
class GroupStats:
    outer: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    transforms: int = 0
    bytes: int = 0
    durations: list = field(default_factory=list)


class _Frame:
    __slots__ = ("group", "start", "child", "transforms", "outer")

    def __init__(self, group, start, transforms, outer):
        self.group = group
        self.start = start
        self.child = 0.0
        self.transforms = transforms
        self.outer = outer


def _scalar_transforms(arr: np.ndarray) -> int:
    """Number of scalar 3D transforms in one call over the last three axes."""
    return int(np.prod(arr.shape[:-3], dtype=np.int64))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Span recorder; ``install`` wraps the package, ``close`` unwraps it."""

    def __init__(self):
        self.groups: dict[str, GroupStats] = {}
        self.transforms = 0
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self._undo: list = []

    # --- span bookkeeping -------------------------------------------------

    def stats(self, group: str) -> GroupStats:
        return self.groups.setdefault(group, GroupStats())

    def _enter(self, group: str) -> _Frame:
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        frame = _Frame(group, time.perf_counter(), self.transforms, depth == 0)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, nbytes: int = 0) -> None:
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        self._depth[frame.group] -= 1
        if self._stack:
            self._stack[-1].child += dur
        st = self.stats(frame.group)
        st.self_s += dur - frame.child
        st.bytes += nbytes
        if frame.outer:
            st.outer += 1
            st.incl_s += dur
            st.durations.append(dur)
            st.transforms += self.transforms - frame.transforms

    def span(self, group: str, fn, byte_count=None):
        """Wrap ``fn`` in a span of ``group``; ``byte_count(args, result)``
        adds to the group's byte counter."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(group)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                raise
            tracer._exit(frame, byte_count(args, result) if byte_count else 0)
            return result

        return traced

    def run_span(self, group: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (used by the benchmark for its own units)."""
        return self.span(group, fn)(*args, **kwargs)

    # --- patching -----------------------------------------------------------

    # A name the package no longer defines is skipped; its metrics read 0.

    def _wrap_function(self, group, module, name, byte_count=None):
        original = getattr(module, name, None)
        if callable(original):
            self._undo += replace_everywhere(original, self.span(group, original, byte_count))

    def _wrap_method(self, cls, name, group, byte_count=None, wrapper=None):
        original = cls.__dict__.get(name)
        if callable(original):
            setattr(cls, name, wrapper or self.span(group, original, byte_count))
            self._undo.append((cls, name, original))

    def _fft(self, cls, name):
        original = cls.__dict__.get(name)
        if not callable(original):
            return
        tracer = self

        @functools.wraps(original)
        def fft(ops, arr, *args, **kwargs):
            frame = tracer._enter("spectral.fft")
            try:
                out = original(ops, arr, *args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                raise
            n = _scalar_transforms(arr)
            tracer.transforms += n
            tracer._exit(frame, arr.nbytes + out.nbytes)
            return out

        self._wrap_method(cls, name, "spectral.fft", wrapper=fft)

    def _record_observer(self, run_spectral3d):
        """Wrap the observer passed to ``run_spectral3d``: one diagnostics record."""
        tracer = self
        signature = inspect.signature(run_spectral3d)

        @functools.wraps(run_spectral3d)
        def run(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("observer") is not None:
                bound.arguments["observer"] = tracer.span(
                    "diagnostics.record", bound.arguments["observer"])
            return run_spectral3d(*bound.args, **bound.kwargs)

        self._undo += replace_everywhere(run_spectral3d, run)

    def install(self) -> None:
        """Wrap every public layer function of an imported ``helns`` package."""
        from helns import decomposition, diagnostics, experiment, fields, radial, snapshot, solver
        from helns.spectral import SpectralOps

        for name in ("fwd", "inv"):
            self._fft(SpectralOps, name)
        for name in ("leray", "dealias", "gradient", "deriv", "curl", "inverse_curl",
                     "divergence", "project_Q", "perp", "laplacian"):
            self._wrap_method(SpectralOps, name, "spectral.multiplier")
        for name in ("l2_norm_sq", "l2_norm", "inner", "grad_norm_sq", "lap_norm_sq",
                     "physical_l2_norm"):
            self._wrap_method(SpectralOps, name, "spectral.norm")
        self._wrap_method(SpectralOps, "helical_defect", "spectral.helical_defect")
        self._wrap_method(SpectralOps, "max_divergence", "spectral.max_divergence")

        self._wrap_function("solver.step", solver, "step_spectral3d")
        self._wrap_method(solver.SimulationState, "u_physical", "solver.cfl")
        self._wrap_function("solver.rhs_perturbation", solver, "rhs_perturbation")
        if callable(getattr(solver, "run_spectral3d", None)):
            self._record_observer(solver.run_spectral3d)

        self._wrap_function("diagnostics.source_norm", diagnostics, "source_norm")
        self._wrap_function("diagnostics.csv_write", diagnostics, "write_records_csv")
        self._wrap_function("diagnostics.rate_study", diagnostics, "rate_study")

        for name in sorted(vars(fields)):
            if name.startswith("oseen_"):
                self._wrap_function("fields.oseen", fields, name)

        self._wrap_function("decomposition.decompose", decomposition, "decompose")
        self._wrap_function("decomposition.ring_average", decomposition, "ring_average")
        self._wrap_function("decomposition.ring_average", decomposition,
                            "ring_average_cylindrical")
        self._wrap_function("decomposition.export", decomposition, "export_profile_csv")
        self._wrap_method(decomposition.DecompositionResult, "report_text",
                          "decomposition.export")

        def path_size(args, result):
            return _file_size(args[0])

        self._wrap_function("snapshot.read", snapshot, "read_snapshot", path_size)
        self._wrap_function("snapshot.write", snapshot, "write_snapshot", path_size)
        self._wrap_function("snapshot.write", experiment, "total_vorticity")

        self._wrap_function("radial.cn_step", radial, "step_radial")
        self._wrap_function("radial.biot_savart", radial, "radial_biot_savart")

        self._wrap_function("experiment.initial", experiment, "build_initial")
        self._wrap_function("experiment.run", experiment, "run_experiment")

    def close(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def merge(self, other: "Tracer") -> None:
        """Add the spans and transforms recorded by ``other``."""
        self.transforms += other.transforms
        for group, st in other.groups.items():
            mine = self.stats(group)
            for name in ("outer", "incl_s", "self_s", "transforms", "bytes"):
                setattr(mine, name, getattr(mine, name) + getattr(st, name))
            mine.durations += st.durations
