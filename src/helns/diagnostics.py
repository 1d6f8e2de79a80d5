"""Monitored quantities, inequality verifiers, and decay-exponent fits.

Every run emits a stream of :class:`DiagnosticsRecord` rows (the CSV
contract of the package).  On top of the records this module provides:

* ratio verifiers for the helical Ladyzhenskaya inequality and the
  Poincare inequality of the zero-vertical-mean part;
* the projected source norm |PQ(u_perp . grad u_perp)|_L2 of the records,
  taken from the solver stage's physical samples;
* the run's invariant report (:class:`InvariantReport`), kept by the
  :class:`RecordBuilder` from the sums its records take;
* logarithmic-energy and exponential/power decay fits with recorded
  windows, residuals and confidence halfwidths;
* the weighted-vorticity rate study on the radial engine and the
  Lamb-Oseen difference-formula fits.

Bound constants are always fitted and reported, never asserted against a
fixed number.  ``DEFAULT_C0`` is the frozen Ladyzhenskaya calibration used
for the k_perp / K_perp / Kcal_perp record columns; the seeded sweep
reproduces it and checks its stability under pitch doubling.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .fields import (
    PerturbationSpec,
    heat_gaussian,
    oseen_grad_l2_sq,
    oseen_utheta,
    oseen_utheta_prime,
    random_helical_perturbation,
)
from .grid import GridSpec, _integer_rule, _raise_all, _rule
from .radial import (
    RadialProfile,
    _forward_biot_savart,
    _plane_l2_norm,
    kummer_tail_profile,
    run_radial,
    uniform_radii,
)
from .solver import _PAIRS, _ROWS
from .spectral import SpectralOps

logger = logging.getLogger(__name__)

#: Frozen Ladyzhenskaya constant used by the record columns
#: k_perp = (2 C0 / L) |grad u_mean|^2, K_perp = (8 C0 / L) |grad u|^2 and
#: Kcal_perp = (36 C0 / L) |grad u|^2.  Calibrated as L * max(ratio)^4 over
#: the seeded helical sweep (see ``sweep_ladyzhenskaya``), which measures
#: 0.015831 at pitch 1 and is stable to well under 10% when the pitch is
#: doubled with matched profiles.
DEFAULT_C0 = 0.016

#: Largest helical defect of a field accepted by :func:`ladyzhenskaya_ratio`.
HELICAL_DEFECT_TOL = 1e-3

def format_float(x: float) -> str:
    """Canonical floating-point formatting of the CSV contract (17 sig. digits)."""
    return f"{x:.17g}"


@dataclass
class DiagnosticsRecord:
    """One output-time row of the diagnostics stream, fields in column order.

    All entries are nonnegative except ``circulation_a``, which is negative
    for a < 0; the ``sqrt_t_l2_grad_v`` column always equals
    ``sqrt(t) * l2_grad_v`` to relative 1e-14.
    ``l2_Nbar`` is |PQ div(u_perp (x) u_perp)|_L2, the source of the
    vertical-mean equation; the interpolation chain bounds it by
    sqrt(DEFAULT_C0) * l2_uperp^(1/2) * l2_grad_uperp * l2_lap_uperp^(1/2) / L^(1/2).
    With w the kz != 0 part of v and Qu the kz = 0 part of u = v + a u_LO,
    Ladyzhenskaya and then Young give the perp-energy inequality
    d/dt |w|^2 + |grad w|^2 <= (C0/L) |grad Qu|^2 |w|^2 = (k_perp / 2) |w|^2.
    ``K_perp`` and ``Kcal_perp`` (8 and 36 C0/L times |grad u|^2) cannot be
    placed from the paper's abstract alone.
    ``circulation_a`` records the conserved circulation Reynolds number: the
    periodic remainder carries exactly zero net vertical vorticity, so the
    column equals the analytic background coefficient.
    """

    t: float
    l2_v: float
    l2_grad_v: float
    sqrt_t_l2_grad_v: float
    l2_uperp: float
    l2_grad_uperp: float
    l2_lap_uperp: float
    l2_Nbar: float
    helical_defect: float
    max_div: float
    circulation_a: float
    cum_enstrophy: float
    k_perp: float
    K_perp: float
    Kcal_perp: float

    def validate(self) -> None:
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"record column {f.name} is not finite")
            if f.name != "circulation_a" and value < 0:
                raise ValueError(f"record column {f.name} must be nonnegative")
        target = np.sqrt(self.t) * self.l2_grad_v
        if abs(self.sqrt_t_l2_grad_v - target) > 1e-14 * max(target, 1e-300):
            raise ValueError("sqrt_t column does not equal the product of its factors")

    def to_csv_row(self) -> str:
        return ",".join(format_float(getattr(self, name)) for name in CSV_COLUMNS)

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)


#: Exact CSV column order of the diagnostics stream: the record's fields.
CSV_COLUMNS = tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


def write_records_csv(records, path) -> None:
    """Write the record stream with the exact column order of the contract."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DiagnosticsRecord.csv_header() + "\n")
        for rec in records:
            fh.write(rec.to_csv_row() + "\n")


def load_records_csv(path) -> list[DiagnosticsRecord]:
    """Read a diagnostics CSV back into records (inverse of write).

    Every row is validated as a written record is; a row that is not one
    raises a ValueError that names its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != DiagnosticsRecord.csv_header():
            raise ValueError(f"unexpected CSV header {header!r}")
        out = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                vals = [float(tok) for tok in line.strip().split(",")]
                if len(vals) != len(CSV_COLUMNS):
                    raise ValueError("CSV row width does not match the schema")
                rec = DiagnosticsRecord(*vals)
                rec.validate()
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            out.append(rec)
    return out


# --- inequality ratios ----------------------------------------------------------


def ladyzhenskaya_ratio(v_hat: np.ndarray, ops: SpectralOps) -> float:
    """|v|_L4 / (|v|_L2^(1/2) |grad v|_L2^(1/2)) for a helical field.

    The ratio is 0-homogeneous; the fitted constant of the seeded sweep is
    ``C0 = L * max(ratio)^4``.  The L2 norms are spectral-exact (Parseval);
    the L4 norm uses the pointwise Euclidean magnitude of the physical samples.
    The helicity gate (:meth:`SpectralOps.gates`: 3 whole-grid and 6
    disk-block inverse transforms) comes besides the 3 inverse transforms of v.
    """
    l2_sq, grad_sq = ops.l2_and_grad_norm_sq(v_hat)
    if l2_sq == 0.0:
        raise ValueError("Ladyzhenskaya ratio requires a nonzero field")
    v = ops.inv(v_hat)
    mag_sq = np.sum(v * v, axis=0)
    l4 = float(np.sum(mag_sq**2) * ops.grid.cell_volume) ** 0.25
    defect = ops.gates(v_hat, v)[1]
    if defect > HELICAL_DEFECT_TOL:
        raise ValueError(
            f"Ladyzhenskaya ratio requires a helical field: defect {defect:.3e}"
        )
    return l4 / np.sqrt(np.sqrt(l2_sq) * np.sqrt(grad_sq))


def fitted_c0(ratios, pitch: float) -> float:
    """Ladyzhenskaya constant fitted from sweep ratios: L * max(ratio)^4."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise ValueError("cannot fit C0 from an empty sweep")
    return float(pitch * np.max(ratios) ** 4)


def poincare_ratio(v_hat: np.ndarray, ops: SpectralOps) -> float:
    """|v_perp|_L2 / |grad v_perp|_L2 after projecting out the vertical mean."""
    l2_sq, grad_sq = ops.l2_and_grad_norm_sq(ops.perp(v_hat))
    if l2_sq == 0.0:
        raise ValueError("Poincare ratio requires a nonzero zero-vertical-mean part")
    return float(np.sqrt(l2_sq)) / float(np.sqrt(grad_sq))


# --- the projected source term ---------------------------------------------------


def _mean_source_norm(v: np.ndarray, ops: SpectralOps) -> float:
    """|PQ div(u_perp (x) u_perp)|_L2 from the physical samples v.

    The value is the vertical mean of the solver's background-free tendency
    of u_perp = v - mean_z v, so the product is dealiased and projected
    exactly like the solver nonlinearity: it is the source actually feeding
    the vertical-mean equation.  Q keeps the kz = 0 plane, which is the 2D
    transform of the z-sums of the six products of u_perp; the planar
    divergence of that plane is dealiased and Leray-projected like the
    solver tendency.
    """
    grid = ops.grid
    up = v - v.mean(axis=-1, keepdims=True)
    zsum = np.empty((6, grid.nx, grid.ny))
    for n, (i, j) in enumerate(_PAIRS):
        np.sum(up[i] * up[j], axis=-1, out=zsum[n])
    S = ops.fwd_plane(zsum)
    kx, ky = ops.kx[..., 0], ops.ky[..., 0]
    div = np.stack([1j * kx * S[row[0]] + 1j * ky * S[row[1]] for row in _ROWS])
    div *= ops.mask[..., 0]
    corr = (kx * div[0] + ky * div[1]) * ops.inv_k2[..., 0]
    div[0] -= kx * corr
    div[1] -= ky * corr
    return float(np.sqrt(np.sum(np.abs(div) ** 2) * grid.volume / grid.npoints**2))


# --- record construction -----------------------------------------------------------


def _oseen_pairing(zmeans, glo: np.ndarray, grid: GridSpec) -> float:
    """sum_{i,j in {x,y}} int p_ij d_j u_LO,i over the box, from the z-means
    ``zmeans[i][j]`` of physical pairs p_ij: <grad v, grad u_LO> from
    d_j v_i, <v, v.grad u_LO> from v_i v_j.  ``glo`` holds d_j u_LO,i
    (2, 2, nx, ny).

    u_LO is horizontal and z-independent, so only z-means of the pairs enter.
    """
    total = 0.0
    for i in range(2):
        for j in range(2):
            total += float(np.sum(zmeans[i][j] * glo[i, j]))
    return total * grid.dx * grid.dy * grid.Lz


@dataclass
class InvariantReport:
    """Worst-case invariant defects observed over a run: max |div v| over all
    output times, the worst relative defect of the orthogonal energy split,
    the helical-defect growth rate per unit time and the worst
    energy-identity residual, background exchange included."""

    max_div: float
    pythagoras: float
    defect_initial: float
    defect_final: float
    defect_growth_rate: float
    energy_residual_max: float

    def summary(self) -> str:
        parts = [
            f"max |div v| = {self.max_div:.3e}",
            f"orthogonal-split defect = {self.pythagoras:.3e}",
            f"helical defect growth = {self.defect_growth_rate:.3e} per unit time",
            f"energy-identity residual = {self.energy_residual_max:.3e}",
        ]
        return "; ".join(parts)


class RecordBuilder:
    """Build DiagnosticsRecord rows from solver states, accumulating the
    enstrophy integral by the trapezoid rule between output times; keeps the
    ``records`` and the run's invariants over them (:meth:`invariants`)."""

    def __init__(self, ops: SpectralOps, a: float):
        self.ops = ops
        self.a = a
        self.records: list[DiagnosticsRecord] = []
        self._cum = 0.0
        self._prev_grad_sq = None
        self._pythagoras = 0.0
        self._energy = 0.0

    def __call__(self, state, stage) -> DiagnosticsRecord:
        """The record of ``state`` built from its solver ``stage``, kept.

        Every norm, the helical defect's H1 normalizer included, is read from
        the state's kept block: one |F|^2 pass each of v, u_perp (with the
        Laplacian's) and Qv, and the gates' own.  ``stage`` (a
        :class:`~helns.solver.Stage` of ``state``) supplies the physical v,
        from which the source norm and the energy exchange are taken, and at
        a != 0 the nine gradients, from which the gates and the background
        cross term are taken, and the background gradients of the cross term
        and the exchange, so such a record does no 3D transform and evaluates
        no Oseen field.  At a = 0 the stage has no gradients and
        :meth:`SpectralOps.gates` inverts them from the block (3 whole-grid
        and 6 disk-block pruned inverse transforms).  No record scatters.

        The same sums give the invariant defects: of |v|^2 = |Qv|^2 +
        |(1-Q)v|^2 relative to |v|^2, and of the energy identity d/dt |v|^2/2
        = -|grad v|^2 - a <v, v.grad u_LO>, whose viscous term the
        integrating factor makes exact: |<v, k1> + a <v, v.grad u_LO>| /
        |grad v|^2, with the exchange from the z-means of v_x v_x, v_x v_y and
        v_y v_y.  Each is 0 where its denominator is.
        """
        ops = self.ops
        grid = ops.grid
        a = self.a
        block = state.block
        t = state.t
        v = stage.v

        l2_sq, grad_sq = ops.l2_and_grad_norm_sq(block)
        up_hat = ops.perp(block)
        l2_up_sq, grad_up_sq = ops.l2_and_grad_norm_sq(up_hat)
        lap_up_sq = ops.lap_norm_sq(up_hat)
        l2_q_sq, grad_q_sq = ops.l2_and_grad_norm_sq(ops.project_Q(block))
        l2_grad_v = float(np.sqrt(grad_sq))
        l2_nbar = _mean_source_norm(v, ops)

        max_div, defect = ops.gates(block, v, stage.grads)

        if self.records:
            self._cum += 0.5 * (t - self.records[-1].t) * (grad_sq + self._prev_grad_sq)

        # Background terms of |grad u|^2 for u = v + a u_LO and the exchange
        # a <v, v.grad u_LO>; all vanish (and leave the sums bitwise
        # unchanged) when a = 0.
        cross = grad_lo_sq = exchange = 0.0
        if a != 0.0:
            g = stage.grads
            cross = _oseen_pairing([[g[i, j].mean(axis=-1) for j in range(2)] for i in range(2)],
                                   stage.glo, grid)
            grad_lo_sq = oseen_grad_l2_sq(t, grid.pitch)
            xx, xy, yy = ((v[i] * v[j]).mean(axis=-1) for i, j in ((0, 0), (0, 1), (1, 1)))
            exchange = a * _oseen_pairing(((xx, xy), (xy, yy)), stage.glo, grid)
        grad_u_sq = grad_sq + 2.0 * a * cross + a * a * grad_lo_sq
        grad_mean_sq = grad_q_sq + 2.0 * a * cross + a * a * grad_lo_sq
        # Inequality constants are nonnegative up to rounding of the cross term.
        grad_u_sq = max(grad_u_sq, 0.0)
        grad_mean_sq = max(grad_mean_sq, 0.0)

        L = grid.pitch
        rec = DiagnosticsRecord(
            t=t,
            l2_v=float(np.sqrt(l2_sq)),
            l2_grad_v=l2_grad_v,
            sqrt_t_l2_grad_v=float(np.sqrt(t) * l2_grad_v),
            l2_uperp=float(np.sqrt(l2_up_sq)),
            l2_grad_uperp=float(np.sqrt(grad_up_sq)),
            l2_lap_uperp=float(np.sqrt(lap_up_sq)),
            l2_Nbar=l2_nbar,
            helical_defect=defect,
            max_div=max_div,
            circulation_a=a,
            cum_enstrophy=self._cum,
            k_perp=2.0 * DEFAULT_C0 / L * grad_mean_sq,
            K_perp=8.0 * DEFAULT_C0 / L * grad_u_sq,
            Kcal_perp=36.0 * DEFAULT_C0 / L * grad_u_sq,
        )
        rec.validate()
        self.records.append(rec)
        self._prev_grad_sq = grad_sq

        if l2_sq != 0.0:
            self._pythagoras = max(self._pythagoras, abs(l2_sq - l2_q_sq - l2_up_sq) / l2_sq)
        if grad_sq != 0.0:
            self._energy = max(self._energy, abs(ops.inner(block, stage.k1) + exchange) / grad_sq)
        return rec

    def invariants(self) -> InvariantReport:
        """The worst invariant defects over the records built so far; the
        helical-defect growth rate is that between the first and the last."""
        first, last = self.records[0], self.records[-1]
        d0, d1, span = first.helical_defect, last.helical_defect, last.t - first.t
        return InvariantReport(
            max_div=max(r.max_div for r in self.records),
            pythagoras=self._pythagoras,
            defect_initial=d0,
            defect_final=d1,
            defect_growth_rate=(d1 - d0) / span if span > 0 else 0.0,
            energy_residual_max=self._energy,
        )


# --- decay fits ------------------------------------------------------------------


@dataclass
class DecayFit:
    """Least-squares decay fit with its window, residual and confidence."""

    window: tuple[float, float]
    model: str
    exponent: float
    residual: float
    confidence: float

    def __post_init__(self) -> None:
        if not self.window[1] > self.window[0]:
            raise ValueError("fit window must have t2 > t1")


def _linear_fit(x: np.ndarray, y: np.ndarray):
    """Slope/intercept with RMS residual and 95% slope halfwidth."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    denom = float(np.sum((x - np.mean(x)) ** 2))
    dof = max(x.size - 2, 1)
    se = float(np.sqrt(np.sum(resid**2) / dof / denom)) if denom > 0 else np.inf
    return slope, intercept, rms, 1.96 * se


def _tail_size(n: int) -> int:
    """Length of the tail window of n samples (shared by the fits below)."""
    return max(n // 2, min(20, n))


def _log_fit(t, y, window, model: str) -> DecayFit:
    """Line through log y against t (``model='exponential'``) or log t
    (``'power'``) over the positive samples in the mask ``window(t)``."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size or t.size < 4:
        raise ValueError("need at least 4 samples to fit")
    keep = window(t) & (y > 0)
    if np.count_nonzero(keep) < 4:
        raise ValueError("too few positive samples in the fit window")
    tt, yy = t[keep], y[keep]
    slope, _, rms, half = _linear_fit(tt if model == "exponential" else np.log(tt), np.log(yy))
    return DecayFit(
        window=(float(tt[0]), float(tt[-1])),
        model=model,
        exponent=slope,
        residual=rms,
        confidence=half,
    )


def fit_exponential(t, y) -> DecayFit:
    """Exponential fit log y ~ rate * t on the last half of the series.

    The window is the trailing half of the samples, widened to at least 20
    when the series is long enough.
    """
    return _log_fit(t, y, lambda t: np.arange(t.size) >= t.size - _tail_size(t.size),
                    "exponential")


def fit_power(t, y) -> DecayFit:
    """Power-law fit log y ~ p log t on t in [t_end/4, t_end]."""
    return _log_fit(t, y, lambda t: (t >= t[-1] / 4.0) & (t <= t[-1]) & (t > 0), "power")


def moving_median3(y) -> np.ndarray:
    """3-sample moving median (window clipped at the ends)."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    for i in range(y.size):
        out[i] = np.median(y[max(0, i - 1) : i + 2])
    return out


def transient_time(t, y):
    """Earliest output time after which the median-smoothed series is
    nonincreasing (up to 1e-9 of its maximum) for the rest of the run; None
    when no such time exists before the final sample."""
    t = np.asarray(t, dtype=float)
    med = moving_median3(y)
    scale = float(np.max(np.abs(med))) if med.size else 0.0
    ok_from = t.size - 1
    for i in range(t.size - 2, -1, -1):
        if med[i + 1] <= med[i] + 1e-9 * scale:
            ok_from = i
        else:
            break
    if ok_from >= t.size - 1:
        return None
    return float(t[ok_from])


# --- record-stream verifiers --------------------------------------------------------


@dataclass
class LogEnergyReport:
    """Fit of (|v|^2 + 2 int |grad v|^2) / (1 + ln(1+t)) over the tail window."""

    window: tuple[float, float]
    slope: float
    confidence: float
    ratio_max: float


def log_energy_check(records) -> LogEnergyReport:
    t = np.array([r.t for r in records])
    lhs = np.array([r.l2_v**2 + 2.0 * r.cum_enstrophy for r in records])
    ratio = lhs / (1.0 + np.log1p(t))
    n_tail = _tail_size(t.size)
    tt, rr = t[-n_tail:], ratio[-n_tail:]
    if tt.size < 4:
        raise ValueError("need at least 4 records for the logarithmic check")
    scale = max(float(np.max(np.abs(rr))), 1e-300)
    span = float(tt[-1] - tt[0]) or 1.0
    slope, _, _, half = _linear_fit(tt / span, rr / scale)
    return LogEnergyReport(
        window=(float(tt[0]), float(tt[-1])),
        slope=slope,
        confidence=half,
        ratio_max=float(np.max(ratio)),
    )


def decay_fit(records, column: str) -> DecayFit | None:
    """Exponential fit of the decay of one record column (``l2_uperp`` for
    the perp energy, ``l2_Nbar`` for the mean source); None when the column
    is identically zero."""
    t = np.array([r.t for r in records])
    y = np.array([getattr(r, column) for r in records])
    if np.all(y == 0.0):
        return None
    return fit_exponential(t, y)


# --- weighted-vorticity rate study ----------------------------------------------------


@dataclass
class RateStudyResult:
    """Power-law decay fit of |v(t)|_L2 for weighted radial vorticity data."""

    m: float | None
    initial: str
    fit: DecayFit
    super_rate: bool
    expected: float | None
    times: np.ndarray
    values: np.ndarray
    elapsed_seconds: float


def _check_tail_exponents(m_values) -> None:
    """Raise one ValueError naming each weight exponent m outside (1, 2): the
    weighted class is integrable only for m > 1, and only for m < 2 does the
    expected exponent (1 - m)/2 stay above the super-rate bound -1/2."""
    _raise_all([bad for m in m_values
                for bad in _rule("m", m, 1.0 < m < 2.0,
                                 "lie in (1, 2) for the weighted-tail study")])


def rate_study(
    m: float | None = None,
    *,
    initial: str = "kummer",
    R: float | None = None,
    n: int | None = None,
) -> RateStudyResult:
    """Fit the decay exponent of |v(t)|_L2 on the radial engine.

    ``initial='kummer'`` (requires 1 < m < 2) sets the vertical vorticity to
    a unit-mass Gaussian of strength a = 1 plus 0.5 times the zero-mass
    self-similar tail profile whose vorticity decays like r^{-(m+1+delta)},
    delta = 0.05 — on the boundary of the weight-m class, so the decay
    exponent (1-m)/2 is attained rather than exceeded.  Its default radial
    domain is R = 1000 with 16384 cells, enlarged to R = 2000 with 32768
    cells for m < 1.35, whose slower tail needs the room.
    ``initial='gaussian'`` (takes no m) evolves a Gaussian of core spread
    0.25 (default R = 200, 4096 cells); Gaussian data decay faster than every
    attainable power rate and are flagged ``super_rate`` (fitted exponent
    <= -0.5).

    The engine is the even-parity Crank-Nicolson radial heat step (dt 0.04
    to t = 32, observed every 8th step: 100 observations at t = 0.32 k); at
    each observation the azimuthal velocity is reconstructed by the radial
    Biot-Savart integral, the circulation tail at the matching time is
    subtracted, and the box L2 norm (pitch 1) of the remainder is recorded.
    The power-law window is [t_end/4, t_end].
    """
    start = time.perf_counter()
    # Background strength, tail amplitude and offset, Gaussian core spread;
    # run length, CN step, pitch and observation stride in CN steps.
    a, amplitude, delta, s0 = 1.0, 0.5, 0.05, 0.25
    t_end, dt, pitch, observe_every = 32.0, 0.04, 1.0, 8
    if initial == "kummer":
        if m is None:
            raise ValueError("initial 'kummer' needs a weight exponent m")
        _check_tail_exponents([m])
        p = m + 1.0 + delta
        wide = m < 1.35
        R = (2000.0 if wide else 1000.0) if R is None else R
        n = (32768 if wide else 16384) if n is None else n
        r = uniform_radii(R, n)
        w0 = a * heat_gaussian(r**2, 1.0) + amplitude * kummer_tail_profile(p, r)
        expected = (1.0 - m) / 2.0
    elif initial == "gaussian":
        if m is not None:
            raise ValueError(f"initial 'gaussian' takes no weight exponent m, got {m}")
        R = 200.0 if R is None else R
        n = 4096 if n is None else n
        r = uniform_radii(R, n)
        w0 = a * heat_gaussian(r**2, s0)
        expected = None
    else:
        raise ValueError("initial must be 'kummer' or 'gaussian'")

    profile = RadialProfile(r, w0)
    times: list[float] = []
    values: list[float] = []


    def record(t: float, w: np.ndarray) -> None:
        # oseen_extraction and profile_l2_norm_2d on the bare arrays: the grid
        # was checked once, with the profile that run_radial starts from
        v_theta = _forward_biot_savart(w, r)[1]
        v_theta -= a * oseen_utheta(r, 1.0 + t)
        times.append(t)
        values.append(_plane_l2_norm(v_theta, r) * np.sqrt(2.0 * np.pi * pitch))

    run_radial(
        profile,
        t_end,
        dt,
        parity="even",
        observer=record,
        observe_every=observe_every,
        boundary_tol=np.inf,
    )
    t_arr = np.asarray(times)
    v_arr = np.asarray(values)
    fit = fit_power(t_arr, v_arr)
    elapsed = time.perf_counter() - start
    return RateStudyResult(
        m=m,
        initial=initial,
        fit=fit,
        super_rate=fit.exponent <= -0.5,
        expected=expected,
        times=t_arr,
        values=v_arr,
        elapsed_seconds=elapsed,
    )


# --- Lamb-Oseen difference formulas ----------------------------------------------------


@dataclass
class OseenDifferenceEntry:
    t1: float
    t2: float
    value_sq: float
    fitted_c: float
    grad_value_sq: float
    grad_fitted_c: float


@dataclass
class OseenDifferenceReport:
    """Fitted constants of the two Lamb-Oseen difference formulas.

    For each lattice pair the squared L2 difference is divided by
    L ln((1+t2)/(1+t1)) and the squared gradient difference by
    L (1/(1+t1) - 1/(1+t2)); the report records the relative spread of the
    fitted constants over the lattice.
    """

    entries: list[OseenDifferenceEntry]
    spread: float
    grad_spread: float


def oseen_difference_check() -> OseenDifferenceReport:
    """Quadrature evaluation of both difference formulas over a (t1, t2) lattice.

    The lattice is t1 in {0, 1, 3} and rho in {2, 2.04, 2.08}, at pitch 1.
    ``t2`` is chosen as rho (1+t1) - 1 so each lattice row shares the spread
    ratio rho; the fitted constants depend on rho alone, which keeps their
    lattice spread well inside the 10% stability requirement.
    """
    from scipy.integrate import quad  # deferred: keeps `import helns` lean

    pitch = 1.0
    entries = []
    for t1 in (0.0, 1.0, 3.0):
        for rho in (2.0, 2.04, 2.08):
            s1 = 1.0 + t1
            s2 = rho * s1
            t2 = s2 - 1.0

            def integrand(r):
                return (oseen_utheta(r, s2) - oseen_utheta(r, s1)) ** 2 * r

            val, _ = quad(integrand, 0.0, np.inf, limit=200)
            value_sq = 2.0 * np.pi * 2.0 * np.pi * pitch * val

            def grad_integrand(r):
                dv = oseen_utheta_prime(r, s2) - oseen_utheta_prime(r, s1)
                v_over_r = (oseen_utheta(r, s2) - oseen_utheta(r, s1)) / r
                return (dv**2 + v_over_r**2) * r

            gval, _ = quad(grad_integrand, 0.0, np.inf, limit=200)
            grad_value_sq = 2.0 * np.pi * 2.0 * np.pi * pitch * gval

            fitted_c = value_sq / (pitch * np.log(rho))
            grad_fitted_c = grad_value_sq / (pitch * (1.0 / s1 - 1.0 / s2))
            entries.append(
                OseenDifferenceEntry(
                    t1=t1,
                    t2=t2,
                    value_sq=value_sq,
                    fitted_c=fitted_c,
                    grad_value_sq=grad_value_sq,
                    grad_fitted_c=grad_fitted_c,
                )
            )

    cs = np.array([e.fitted_c for e in entries])
    gcs = np.array([e.grad_fitted_c for e in entries])
    spread = float((cs.max() - cs.min()) / cs.mean())
    grad_spread = float((gcs.max() - gcs.min()) / gcs.mean())
    return OseenDifferenceReport(entries=entries, spread=spread, grad_spread=grad_spread)


# --- seeded inequality sweeps -----------------------------------------------------------


# Round-off allowed to the Poincare sweep: max ratio <= pitch (1 + tol), equality gap <= tol
_POINCARE_TOL = 1e-10


@dataclass
class PoincareSweepReport:
    ratios: np.ndarray
    pitch: float
    equality_gap: float

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    def passed(self) -> bool:
        tol = _POINCARE_TOL
        return self.max_ratio <= self.pitch * (1.0 + tol) and self.equality_gap <= tol


def _random_perp_field(
    rng: np.random.Generator, grid: GridSpec, ops: SpectralOps
) -> np.ndarray:
    """Smooth random solenoidal field with zero vertical mean."""
    noise = rng.standard_normal((3,) + grid.shape)
    F = ops.fwd(noise) / (1.0 + ops.k2) ** 2
    return ops.perp(ops.leray(ops.dealias(F)))


def _check_sweep_seeds(n_seeds: int, seed0: int) -> None:
    """Raise one ValueError listing each broken rule of a seeded sweep:
    ``n_seeds`` an integer >= 1, ``seed0`` an integer >= 0."""
    _raise_all(_integer_rule("n_seeds", n_seeds, 1) + _integer_rule("seed0", seed0, 0))


def sweep_poincare(n_seeds: int = 100, seed0: int = 0) -> PoincareSweepReport:
    """Poincare ratios of seeded zero-vertical-mean fields plus the equality mode.

    The fields live on the 32^3 box of width 20 and pitch 1; field s is
    drawn from seed ``seed0 + s``.  ``n_seeds`` must be an integer >= 1 and
    ``seed0`` an integer >= 0 (one ValueError lists each rule broken).
    Every ratio satisfies |v|_L2 <= L |grad v|_L2 spectrally; the pure
    vertical mode sin(z/L) e_x attains the constant exactly.
    """
    _check_sweep_seeds(n_seeds, seed0)
    grid = GridSpec.cube(32, 20.0, 1.0)
    ops = SpectralOps(grid)
    ratios = []
    for s in range(n_seeds):
        rng = np.random.default_rng(np.random.PCG64(seed0 + s))
        F = _random_perp_field(rng, grid, ops)
        ratios.append(poincare_ratio(F, ops))
    mode = np.zeros((3,) + grid.shape)
    mode[0] = np.sin(grid.z / grid.pitch)[None, None, :]
    gap = abs(poincare_ratio(ops.fwd(mode), ops) - grid.pitch) / grid.pitch
    return PoincareSweepReport(
        ratios=np.asarray(ratios), pitch=grid.pitch, equality_gap=float(gap)
    )


@dataclass
class LadyzhenskayaSweepReport:
    ratios: np.ndarray
    pitch: float
    c0: float


_SWEEP_MODE_SETS = ((0,), (1,), (0, 1), (2,), (1, 2))


def sweep_ladyzhenskaya(
    n_seeds: int = 100, *, pitch: float = 1.0, seed0: int = 0
) -> LadyzhenskayaSweepReport:
    """Ladyzhenskaya ratios over seeded helical fields; fits C0 = L max(ratio)^4.

    The fields live on the 32^3 box of width 20 with envelope width 1.2 (the
    widest that box admits is 1.25).  ``n_seeds`` and ``seed0`` follow the
    rules of :func:`sweep_poincare`, ``pitch`` those of GridSpec.  The seeds
    cycle through mode sets that include z-independent samples
    (helical wavenumber 0), whose fitted constant is exactly pitch-invariant;
    rerunning with the pitch doubled and matched profiles must reproduce C0
    within 10%.
    """
    _check_sweep_seeds(n_seeds, seed0)
    grid = GridSpec.cube(32, 20.0, pitch)
    ops = SpectralOps(grid)
    ratios = []
    for s in range(n_seeds):
        spec = PerturbationSpec(
            seed=seed0 + s,
            amplitude=1.0,
            modes=_SWEEP_MODE_SETS[s % len(_SWEEP_MODE_SETS)],
            sigma=1.2,
        )
        v_hat = random_helical_perturbation(spec, grid, ops)
        ratios.append(ladyzhenskaya_ratio(v_hat, ops))
    ratios = np.asarray(ratios)
    return LadyzhenskayaSweepReport(
        ratios=ratios, pitch=pitch, c0=fitted_c0(ratios, pitch)
    )
