"""Diagnostics stream: records, CSV contract, fits and inequality checks."""

import dataclasses

import numpy as np
import pytest

from helns.diagnostics import (
    CSV_COLUMNS,
    DEFAULT_C0,
    DiagnosticsRecord,
    RecordBuilder,
    _oseen_pairing,
    fit_exponential,
    fit_power,
    fitted_c0,
    format_float,
    ladyzhenskaya_ratio,
    load_records_csv,
    log_energy_check,
    moving_median3,
    poincare_ratio,
    sweep_ladyzhenskaya,
    sweep_poincare,
    transient_time,
    write_records_csv,
)
from helns.fields import (
    PerturbationSpec,
    oseen_grad_l2_sq,
    oseen_gradient_xy,
    random_helical_perturbation,
)
from helns.config import ExperimentConfig
from helns.experiment import run_experiment
from helns.grid import GridSpec
from helns import solver
from helns.solver import SimulationState
from helns.spectral import SpectralOps


@pytest.fixture(scope="module")
def grid():
    return GridSpec.cube(16, 20.0, 1.0)


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOps(grid)


@pytest.fixture(scope="module")
def pert(grid, ops):
    spec = PerturbationSpec(seed=3, amplitude=0.1, sigma=1.2)
    return random_helical_perturbation(spec, grid, ops)


def _mk_record(**overrides):
    values = {name: 0.0 for name in CSV_COLUMNS}
    values.update(overrides)
    if "sqrt_t_l2_grad_v" not in overrides:
        values["sqrt_t_l2_grad_v"] = np.sqrt(values["t"]) * values["l2_grad_v"]
    return DiagnosticsRecord(**values)


class TestRecordValidation:
    def test_consistent_record_passes(self):
        _mk_record(t=2.0, l2_v=0.5, l2_grad_v=0.25).validate()

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _mk_record(t=1.0, l2_v=-0.5).validate()

    def test_negative_circulation_allowed(self):
        _mk_record(t=1.0, circulation_a=-2.0).validate()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _mk_record(t=1.0, l2_uperp=np.nan).validate()

    def test_inconsistent_sqrt_t_column_rejected(self):
        with pytest.raises(ValueError, match="sqrt_t"):
            _mk_record(t=4.0, l2_grad_v=1.0, sqrt_t_l2_grad_v=1.9).validate()


class TestCsvContract:
    def test_round_trip_is_exact(self, tmp_path):
        records = [
            _mk_record(t=0.0, l2_v=np.pi, l2_grad_v=1.0 / 3.0, circulation_a=-0.5),
            _mk_record(t=0.1, l2_v=1e-300, l2_grad_v=np.sqrt(2.0), k_perp=1e300),
            _mk_record(t=np.e, l2_v=0.1, cum_enstrophy=7.0 / 11.0),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        loaded = load_records_csv(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            for f in dataclasses.fields(DiagnosticsRecord):
                assert getattr(a, f.name) == getattr(b, f.name), f.name

    def test_header_is_schema_order(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv([_mk_record(t=1.0)], path)
        assert path.read_text().split("\n")[0] == (
            "t,l2_v,l2_grad_v,sqrt_t_l2_grad_v,l2_uperp,l2_grad_uperp,l2_lap_uperp,"
            "l2_Nbar,helical_defect,max_div,circulation_a,cum_enstrophy,"
            "k_perp,K_perp,Kcal_perp"
        )

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,bogus\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_records_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n0.0,1.0\n")
        with pytest.raises(ValueError, match="width|schema"):
            load_records_csv(path)

    def test_written_stream_loads_back(self, tmp_path, ops, pert):
        builder = RecordBuilder(ops, a=-1.5)
        records = [_record(builder, pert, t) for t in (0.0, 0.1, 0.2)]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert load_records_csv(path) == records

    @pytest.mark.parametrize("row, message", [
        ("nan," + ",".join(["-1"] * (len(CSV_COLUMNS) - 1)), "not finite"),
        (",".join(["1"] * 3 + ["-1"] + ["1"] * (len(CSV_COLUMNS) - 4)), "nonnegative"),
        (",".join(["1"] * 3 + ["2"] + ["1"] * (len(CSV_COLUMNS) - 4)), "sqrt_t"),
        (",".join(["0"] * (len(CSV_COLUMNS) - 1) + ["zero"]), "could not convert"),
    ], ids=["nan", "negative", "sqrt_t", "token"])
    def test_invalid_row_rejected_with_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        write_records_csv([_mk_record(t=1.0, l2_v=0.5)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=f"line 3: .*{message}"):
            load_records_csv(path)

    @pytest.mark.parametrize("x", [np.pi, 1.0 / 3.0, 1e-300, 1e300, 0.1, 0.0])
    def test_format_float_round_trips(self, x):
        assert float(format_float(x)) == x


class TestFits:
    def test_exponential_fit_recovers_rate(self):
        t = np.linspace(0.0, 10.0, 101)
        fit = fit_exponential(t, 3.0 * np.exp(-0.7 * t))
        assert fit.model == "exponential"
        assert fit.exponent == pytest.approx(-0.7, rel=1e-9)
        assert fit.residual < 1e-10
        assert fit.window[0] >= 4.9  # trailing half of the series

    def test_power_fit_recovers_exponent(self):
        t = np.linspace(0.1, 20.0, 200)
        fit = fit_power(t, 5.0 * t**-1.25)
        assert fit.model == "power"
        assert fit.exponent == pytest.approx(-1.25, rel=1e-9)
        assert fit.window[0] >= 5.0  # default window starts at t_end / 4

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])

    def test_nonpositive_tail_rejected(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="positive"):
            fit_exponential(t, np.zeros_like(t))


class TestTransientTime:
    def test_hump_returns_peak_time(self):
        t = np.linspace(0.0, 10.0, 101)
        y = (0.2 + t) * np.exp(-t)
        val = transient_time(t, y)
        assert val is not None and 0.5 <= val <= 1.1

    def test_monotone_decay_returns_start(self):
        t = np.linspace(0.0, 5.0, 51)
        assert transient_time(t, np.exp(-t)) == 0.0

    def test_growth_at_end_returns_none(self):
        t = np.linspace(0.0, 5.0, 51)
        assert transient_time(t, 1.0 + t) is None

    def test_noise_below_rtol_ignored(self):
        t = np.linspace(0.0, 5.0, 51)
        y = np.exp(-t) * (1.0 + 1e-12 * (-1.0) ** np.arange(t.size))
        assert transient_time(t, y) == 0.0

    def test_moving_median_removes_spikes(self):
        y = np.array([1.0, 1.0, 100.0, 1.0, 1.0])
        assert np.array_equal(moving_median3(y), np.ones(5))


class TestLogEnergyCheck:
    def _records(self, lhs_of_t):
        t = np.linspace(0.0, 8.0, 81)
        out = []
        for ti, lhs in zip(t, lhs_of_t(t)):
            out.append(_mk_record(t=ti, l2_v=np.sqrt(0.5 * lhs),
                                  cum_enstrophy=0.25 * lhs))
        return out

    def test_bounded_ratio_passes(self):
        # lhs proportional to 1 + ln(1+t) with a slight downward drift
        recs = self._records(
            lambda t: (1.0 + np.log1p(t)) * (1.0 - 1e-3 * t / t[-1])
        )
        report = log_energy_check(recs)
        assert report.slope <= report.confidence
        assert report.ratio_max <= 1.0 + 1e-12

    def test_growing_ratio_fails(self):
        recs = self._records(lambda t: (1.0 + np.log1p(t)) * (1.0 + t))
        report = log_energy_check(recs)
        assert report.slope > report.confidence


class TestInequalityRatios:
    def test_poincare_ratio_exact_on_pure_modes(self, grid, ops):
        for n in (1, 2):
            u = np.zeros((3,) + grid.shape)
            u[0] = np.sin(n * grid.z)[None, None, :] * np.ones(grid.shape)
            ratio = poincare_ratio(ops.fwd(u), ops)
            assert ratio == pytest.approx(1.0 / n, abs=1e-12)

    def test_poincare_bound_saturated_by_fundamental(self, grid, ops):
        u = np.zeros((3,) + grid.shape)
        u[0] = np.sin(grid.z)[None, None, :] * np.ones(grid.shape)
        assert poincare_ratio(ops.fwd(u), ops) <= grid.pitch * (1.0 + 1e-12)

    def test_poincare_requires_perp_part(self, grid, ops):
        u = np.zeros((3,) + grid.shape)
        u[2] = np.sin(2.0 * np.pi * grid.x / grid.Lx)[:, None, None] * np.ones(grid.shape)
        with pytest.raises(ValueError, match="nonzero"):
            poincare_ratio(ops.fwd(u), ops)

    def test_ladyzhenskaya_ratio_is_scale_invariant(self):
        # 32^3 resolves the sigma = 1.2 envelope below the helical gate
        grid = GridSpec.cube(32, 20.0, 1.0)
        ops = SpectralOps(grid)
        spec = PerturbationSpec(seed=3, amplitude=0.1, sigma=1.2)
        v_hat = random_helical_perturbation(spec, grid, ops)
        r1 = ladyzhenskaya_ratio(v_hat, ops)
        r2 = ladyzhenskaya_ratio(5.0 * v_hat, ops)
        assert r1 > 0.0
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_ladyzhenskaya_rejects_zero_field(self, grid, ops):
        with pytest.raises(ValueError, match="nonzero"):
            ladyzhenskaya_ratio(np.zeros((3,) + grid.spectral_shape, complex), ops)

    def test_ladyzhenskaya_rejects_non_helical_field(self, grid, ops):
        u = np.zeros((3,) + grid.shape)
        u[0] = np.sin(grid.z)[None, None, :] * np.ones(grid.shape)
        with pytest.raises(ValueError, match="helical"):
            ladyzhenskaya_ratio(ops.fwd(u), ops)

    @pytest.mark.parametrize("sweep", [sweep_poincare, sweep_ladyzhenskaya])
    @pytest.mark.parametrize("kwargs,message", [
        (dict(n_seeds=0), "n_seeds must be an integer >= 1, got 0"),
        (dict(n_seeds=2.0), "n_seeds must be an integer >= 1, got 2.0"),
        (dict(n_seeds=1, seed0=-1), "seed0 must be an integer >= 0, got -1"),
        (dict(n_seeds=0, seed0=-1), "n_seeds must be an integer >= 1, got 0; "
                                    "seed0 must be an integer >= 0, got -1"),
    ], ids=["no-seeds", "float-count", "negative-seed", "both"])
    def test_sweeps_state_their_rules(self, sweep, kwargs, message):
        # n_seeds = 0 met NumPy's "zero-size array" error once, and seed0 = -1
        # the generator's "expected non-negative integer"
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(**kwargs)

    def test_fitted_c0(self):
        assert fitted_c0([0.3, 0.5, 0.4], 2.0) == pytest.approx(2.0 * 0.5**4)
        with pytest.raises(ValueError, match="empty"):
            fitted_c0([], 1.0)


def _chain_factor(rec, grid):
    """|u_perp|^(1/2) |grad u_perp| |lap u_perp|^(1/2) / L^(1/2) from record columns."""
    return (np.sqrt(rec.l2_uperp) * rec.l2_grad_uperp * np.sqrt(rec.l2_lap_uperp)
            / np.sqrt(grid.pitch))


class TestSourceNorm:
    def test_chain_bound_dominates_for_seeded_field(self, grid, ops, pert):
        rec = _record(RecordBuilder(ops, a=0.0), pert, 0.0)
        chain_factor = _chain_factor(rec, grid)
        assert rec.l2_Nbar > 0.0
        assert chain_factor > 0.0
        assert rec.l2_Nbar <= np.sqrt(DEFAULT_C0) * chain_factor
        # the smallest C0 for which the chain bound dominates
        assert (rec.l2_Nbar / chain_factor) ** 2 < DEFAULT_C0

    def test_zero_field_has_zero_source(self, grid, ops):
        zero = np.zeros((3,) + grid.spectral_shape, complex)
        rec = _record(RecordBuilder(ops, a=0.0), zero, 0.0)
        assert rec.l2_Nbar == 0.0
        assert _chain_factor(rec, grid) == 0.0


class TestStructuralResiduals:
    def test_energy_identity_on_background_free_field(self, grid, ops, pert):
        # run states are dealiased on entry; the identity holds on that band
        state, stage = _state_and_stage(ops, ops.dealias(pert), 0.0, 0.0)
        assert _invariants(state, stage, 0.0).energy_residual_max < 1e-12

    def test_energy_identity_zero_field(self, grid, ops):
        z = np.zeros((3,) + grid.spectral_shape, complex)
        assert _invariants(*_state_and_stage(ops, z, 0.0, 1.0), 1.0).energy_residual_max == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.7])
    @pytest.mark.parametrize("a", [1.0, -2.0])
    def test_energy_identity_equals_the_full_pair_stack(self, ops, pert, a, t):
        # the exchange from the z-means of v_x v_x, v_x v_y and v_y v_y and the
        # stage's background gradients, against the 2 x 2 stack of products
        # (v_y v_x is v_x v_y bit for bit) and a fresh Oseen gradient
        state, stage = _state_and_stage(ops, ops.dealias(pert), t, a)
        grid, v = ops.grid, stage.v
        glo = oseen_gradient_xy(grid, t)
        assert stage.glo.tobytes() == glo.tobytes()
        pairs = v[:2, None] * v[None, :2]
        total = 0.0
        for i in range(2):
            for j in range(2):
                total += float(np.sum(pairs[i, j].mean(axis=-1) * glo[i, j]))
        exchange = a * (total * grid.dx * grid.dy * grid.Lz)
        ref = abs(ops.inner(state.block, stage.k1) + exchange) / ops.grad_norm_sq(state.block)
        assert _invariants(state, stage, a).energy_residual_max == ref

    def test_orthogonal_split(self, ops, pert):
        assert _invariants(*_state_and_stage(ops, pert, 0.0, 0.0), 0.0).pythagoras < 1e-12


def _energy_identity_residual(state, stage, a):
    """Reference for the builder: the energy-identity residual of one record."""
    ops, v = state.ops, stage.v
    grad_sq = ops.grad_norm_sq(state.block)
    if grad_sq == 0.0:
        return 0.0
    exchange = 0.0
    if a:
        xx, xy, yy = ((v[i] * v[j]).mean(axis=-1) for i, j in ((0, 0), (0, 1), (1, 1)))
        exchange = a * _oseen_pairing(((xx, xy), (xy, yy)), stage.glo, ops.grid)
    return abs(ops.inner(state.block, stage.k1) + exchange) / grad_sq


def _orthogonal_split_residual(v_hat, ops):
    """Reference for the builder: the relative defect of |u|^2 = |Qu|^2 + |(1-Q)u|^2."""
    total = ops.l2_norm_sq(v_hat)
    if total == 0.0:
        return 0.0
    qpart = ops.l2_norm_sq(ops.project_Q(v_hat))
    ppart = ops.l2_norm_sq(ops.perp(v_hat))
    return abs(total - qpart - ppart) / total


class TestRunInvariants:
    @pytest.mark.parametrize("zero", [False, True], ids=["field", "zero"])
    @pytest.mark.parametrize("a", [0.0, 1.0, -2.0])
    def test_maxima_equal_the_standalone_residuals(self, ops, pert, a, zero):
        v_hat = np.zeros_like(pert) if zero else ops.leray(ops.dealias(pert))
        builder = RecordBuilder(ops, a)
        energy = split = 0.0
        for t, scale in ((0.0, 1.0), (0.4, 0.5), (0.9, 2.0)):
            state, stage = _state_and_stage(ops, scale * v_hat, t, a)
            builder(state, stage)
            energy = max(energy, _energy_identity_residual(state, stage, a))
            split = max(split, _orthogonal_split_residual(state.block, ops))
        inv = builder.invariants()
        assert (inv.energy_residual_max, inv.pythagoras) == (energy, split)
        assert inv.max_div == max(r.max_div for r in builder.records)
        assert len(builder.records) == 3
        if zero:
            assert (energy, split) == (0.0, 0.0)
        else:
            assert energy > 0.0

    def test_a_record_sums_its_state_once(self, tmp_path, monkeypatch):
        # per record: one |F|^2 pass each of v, u_perp and Qv, the Laplacian
        # of u_perp, the gates' normalizer and <v, k1>; one perp and one Q copy
        calls = {"passes": 0, "perp": 0, "project_Q": 0}

        def counted(name, key):
            original = getattr(SpectralOps, name)

            def stand_in(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(SpectralOps, name, stand_in)

        for name in ("_weighted_sum_sq", "l2_and_grad_norm_sq", "inner"):
            counted(name, "passes")
        for name in ("perp", "project_Q"):
            counted(name, name)
        cfg = ExperimentConfig(nx=32, ny=32, nz=32, a=0.0, kind="shear",
                               t_end=0.2, output_dt=0.1)
        result = run_experiment(cfg, tmp_path, quiet=True)
        n = len(result.records)
        assert n == 3
        assert calls == {"passes": 6 * n, "perp": n, "project_Q": n}


def _state_and_stage(ops, v_hat, t, a):
    block = ops.gather(v_hat)
    return SimulationState(ops, t, block), solver._Rhs(ops, a).stage(block, t)


def _record(builder, v_hat, t):
    return builder(*_state_and_stage(builder.ops, v_hat, t, builder.a))


def _invariants(state, stage, a):
    """The run invariants of a one-record run from ``state`` and its ``stage``."""
    builder = RecordBuilder(state.ops, a)
    builder(state, stage)
    return builder.invariants()


def _cross_term_2d(v_hat, t, grid, ops):
    """<grad v, grad u_LO> from 3D inverses of the vertical mean's derivatives."""
    q_hat = ops.project_Q(v_hat)
    glo = oseen_gradient_xy(grid, t)
    total = 0.0
    for i in range(2):
        for j in range(2):
            dq = ops.inv(1j * grid.kvec[j] * q_hat[i])[:, :, 0]
            total += float(np.sum(dq * glo[i, j]))
    return total * grid.dx * grid.dy * grid.Lz


class TestRecordBuilder:
    def test_stream_accumulates_enstrophy(self, grid, ops, pert):
        builder = RecordBuilder(ops, a=1.0)
        rec0 = _record(builder, pert, 0.0)
        rec1 = _record(builder, pert, 0.5)
        assert rec0.cum_enstrophy == 0.0
        expected = 0.5 * rec0.l2_grad_v**2
        assert rec1.cum_enstrophy == pytest.approx(expected, rel=1e-12)
        assert rec0.circulation_a == 1.0
        assert rec0.sqrt_t_l2_grad_v == 0.0
        assert rec1.sqrt_t_l2_grad_v == pytest.approx(
            np.sqrt(0.5) * rec1.l2_grad_v, rel=1e-14
        )

    def test_inequality_columns_share_prefactor_ratio(self, grid, ops, pert):
        rec = _record(RecordBuilder(ops, a=0.5), pert, 0.25)
        assert rec.Kcal_perp == pytest.approx(4.5 * rec.K_perp, rel=1e-12)
        assert 0.0 <= rec.k_perp <= rec.K_perp

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_stage_record_matches_standalone_functions(self, grid, ops, pert, a):
        v_hat = ops.leray(ops.dealias(pert))  # as the engine carries it
        t = 0.3
        rec = _record(RecordBuilder(ops, a), v_hat, t)
        # the kz = 0 plane kernel against Q of the 3D solver tendency of u_perp
        tendency = solver._Rhs(ops, 0.0)(ops.gather(ops.perp(v_hat)), 0.0)
        nbar_3d = ops.l2_norm(ops.project_Q(ops.scatter(tendency)))
        assert rec.l2_Nbar == pytest.approx(nbar_3d, rel=1e-13)
        gates = ops.gates(ops.gather(v_hat), ops.inv(v_hat), ops.gradients(v_hat))
        assert (rec.max_div, rec.helical_defect) == gates
        spectral_div = float(np.max(np.abs(ops.inv(ops.divergence(v_hat)))))
        assert abs(rec.max_div - spectral_div) <= 1e-15
        cross = _cross_term_2d(v_hat, t, grid, ops)
        lo_sq = oseen_grad_l2_sq(t, grid.pitch)
        grad_u_sq = ops.grad_norm_sq(v_hat) + 2.0 * a * cross + a * a * lo_sq
        grad_mean_sq = (
            ops.grad_norm_sq(ops.project_Q(v_hat)) + 2.0 * a * cross + a * a * lo_sq
        )
        assert rec.K_perp == pytest.approx(8.0 * DEFAULT_C0 / grid.pitch * grad_u_sq, rel=1e-13)
        assert rec.k_perp == pytest.approx(2.0 * DEFAULT_C0 / grid.pitch * grad_mean_sq, rel=1e-13)

    def test_energy_residual_from_stage_is_bitwise(self, grid, ops, pert):
        # at a = 0 the residual is the background-free |2 <v, rhs>| / (2 |grad v|^2)
        v_hat = ops.leray(ops.dealias(pert))
        rhs = ops.scatter(solver._Rhs(ops, 0.0)(ops.gather(v_hat), 0.2))
        background_free = abs(2.0 * ops.inner(v_hat, rhs)) / (2.0 * ops.grad_norm_sq(v_hat))
        state, stage = _state_and_stage(ops, v_hat, 0.2, 0.0)
        assert _invariants(state, stage, 0.0).energy_residual_max == background_free
