"""Time integration: exactness, consistency and convergence order."""

import dataclasses
import logging
import re

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from helns.config import ExperimentConfig
from helns.decomposition import decompose
from helns.diagnostics import RecordBuilder, ladyzhenskaya_ratio
from helns import experiment, solver
from helns.experiment import InstabilityError, build_grid, build_initial, run_experiment
from helns.fields import (
    PerturbationSpec,
    _oseen_F,
    heat_gaussian,
    oseen_gradient_xy,
    oseen_velocity_xy,
    oseen_vorticity,
    random_helical_perturbation,
)
from helns.grid import GridSpec
from helns.presets import ENERGY_TOL, ORACLE_OSEEN_CONFIG, ORACLE_SHEAR_CONFIG, TREND_CONFIG
from helns.radial import RadialProfile, run_radial, uniform_radii
from helns.solver import (
    SimulationState,
    run_spectral3d,
    step_spectral3d,
)
from helns.spectral import SpectralOps


@pytest.fixture(scope="module")
def grid():
    return GridSpec.cube(16, 20.0, 1.0)


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOps(grid)


class TestViscousExactness:
    def test_single_mode_heat_decay(self, grid, ops):
        # a solenoidal single mode sees no nonlinearity (its self-advection
        # is a gradient); the integrating factor must give e^{-k^2 t} exactly
        k = 2 * np.pi / grid.Lx
        u = np.zeros((3,) + grid.shape)
        u[1] = np.sin(k * grid.x)[:, None, None] * np.ones(grid.shape)
        v0 = ops.fwd(u)
        config = ExperimentConfig(t_end=0.5, dt=0.05, output_dt=0.5, a=0.0)
        final = run_spectral3d(v0, ops, config)
        expected = np.exp(-k**2 * 0.5) * u[1]
        assert np.max(np.abs(ops.inv(final.v_hat)[1] - expected)) < 1e-10
        assert np.max(np.abs(ops.inv(final.v_hat)[0])) < 1e-12

    def test_zero_field_stays_zero(self, grid, ops):
        v0 = np.zeros((3,) + grid.spectral_shape, dtype=complex)
        config = ExperimentConfig(t_end=0.3, dt=0.1, a=1.0)
        final = run_spectral3d(v0, ops, config)
        assert np.all(final.v_hat == 0.0)


def _pad_spectrum(F, grid, grid2):
    """Embed rfft coefficients of ``grid`` into ``grid2`` without loss.

    The input must be dealiased so its Nyquist planes are empty; the
    unnormalized-forward convention requires rescaling by the point ratio.
    """
    G = np.zeros((3, grid2.nx, grid2.ny, grid2.nz // 2 + 1), dtype=complex)
    fx = (np.fft.fftfreq(grid.nx) * grid.nx).astype(int) % grid2.nx
    fy = (np.fft.fftfreq(grid.ny) * grid.ny).astype(int) % grid2.ny
    nzr = grid.nz // 2 + 1
    G[np.ix_(range(3), fx, fy, range(nzr))] = F * (grid2.npoints / grid.npoints)
    return G


def _truncate_spectrum(G, grid, grid2):
    fx = (np.fft.fftfreq(grid.nx) * grid.nx).astype(int) % grid2.nx
    fy = (np.fft.fftfreq(grid.ny) * grid.ny).astype(int) % grid2.ny
    nzr = grid.nz // 2 + 1
    F = G[np.ix_(range(3), fx, fy, range(nzr))]
    return F * (grid.npoints / grid2.npoints)


class TestNonlinearTerm:
    def test_advection_matches_zero_padded_convolution(self, grid, ops):
        # the dealiased pseudo-spectral product must agree with the alias-free
        # product computed on a doubled grid
        grid2 = GridSpec.cube(32, 20.0, 1.0)
        ops2 = SpectralOps(grid2)
        spec = PerturbationSpec(seed=5, amplitude=1.0, sigma=1.2)
        v_hat = ops.dealias(random_helical_perturbation(spec, grid, ops))

        rhs_small = ops.scatter(solver._Rhs(ops, 0.0)(ops.gather(v_hat), 0.0))

        G = _pad_spectrum(v_hat, grid, grid2)
        big = ops2.inv(G)
        adv_big = np.empty_like(big)
        for i in range(3):
            grad_i = ops2.inv(np.stack([1j * k * G[i] for k in grid2.kvec]))
            adv_big[i] = big[0] * grad_i[0] + big[1] * grad_i[1] + big[2] * grad_i[2]
        rhs_big = -ops2.leray(ops2.fwd(adv_big))
        rhs_ref = ops.dealias(_truncate_spectrum(rhs_big, grid, grid2))

        err = ops.l2_norm(rhs_small - rhs_ref) / ops.l2_norm(rhs_ref)
        assert err < 1e-12

    def test_background_coupling_matches_padded_analytic_reference(self):
        # the a != 0 convective loop against the coupling evaluated on a 2x
        # zero-padded grid with the analytic u_LO and grad u_LO: 5.3e-5 here,
        # where the divergence form of the same coupling is 3.0e-4 off
        grid = GridSpec.cube(32, 20.0, 1.0)
        grid2 = GridSpec.cube(64, 20.0, 1.0)
        ops, ops2 = SpectralOps(grid), SpectralOps(grid2)
        v_hat = _engine_field(grid, ops, 0, 0.1)
        rhs = ops.scatter(solver._Rhs(ops, 1.0)(ops.gather(v_hat), 0.0))

        G = _pad_spectrum(v_hat, grid, grid2)
        v = ops2.inv(G)
        ulo = oseen_velocity_xy(grid2, 0.0)[..., None]
        glo = oseen_gradient_xy(grid2, 0.0)[..., None]
        adv = np.empty_like(v)
        for i in range(3):
            grad_i = ops2.inv(np.stack([1j * k * G[i] for k in grid2.kvec]))
            adv[i] = v[0] * grad_i[0] + v[1] * grad_i[1] + v[2] * grad_i[2]
            adv[i] += ulo[0] * grad_i[0] + ulo[1] * grad_i[1]
            if i < 2:
                adv[i] += v[0] * glo[i, 0] + v[1] * glo[i, 1]
        ref = -ops.leray(ops.dealias(_truncate_spectrum(ops2.fwd(adv), grid, grid2)))

        assert ops.l2_norm(rhs - ref) <= 1e-4 * ops.l2_norm(ref)

    def test_nonlinearity_conserves_energy(self, grid, ops):
        # <v, P(v . grad v)> = 0 for solenoidal v; the 2/3 rule keeps the
        # retained product coefficients exact, so skew symmetry survives
        spec = PerturbationSpec(seed=6, amplitude=1.0, sigma=1.2)
        v_hat = ops.dealias(random_helical_perturbation(spec, grid, ops))
        rhs = ops.scatter(solver._Rhs(ops, 0.0)(ops.gather(v_hat), 0.0))
        ratio = abs(ops.inner(v_hat, rhs)) / (ops.l2_norm(v_hat) * ops.l2_norm(rhs))
        assert ratio < 1e-13


def _convective_reference(v_hat, t, grid, ops, a):
    """-P dealias[v.grad v + a(u_LO.grad v + v.grad u_LO)], the 15-FFT loop."""
    v = ops.inv(v_hat)
    adv = np.empty_like(v)
    ulo = oseen_velocity_xy(grid, t)[..., None]
    glo = oseen_gradient_xy(grid, t)[..., None]
    for i in range(3):
        grad_i = ops.inv(np.stack([1j * k * v_hat[i] for k in grid.kvec]))
        adv[i] = v[0] * grad_i[0] + v[1] * grad_i[1] + v[2] * grad_i[2]
        if a != 0.0:
            adv[i] += a * (ulo[0] * grad_i[0] + ulo[1] * grad_i[1])
            if i < 2:
                adv[i] += a * (v[0] * glo[i, 0] + v[1] * glo[i, 1])
    return -ops.leray(ops.dealias(ops.fwd(adv)))


def _engine_field(grid, ops, seed, amplitude):
    """A dealiased solenoidal field, as the engine carries it."""
    spec = PerturbationSpec(seed=seed, amplitude=amplitude, sigma=1.2)
    return ops.leray(ops.dealias(random_helical_perturbation(spec, grid, ops)))


def _divergence_reference(v_hat, ops):
    """-P dealias(i k_j S_ij) of the products S_ij = v_i v_j on full arrays."""
    v = ops.inv(v_hat)
    S = ops.fwd(np.stack([v[i] * v[j] for i, j in solver._PAIRS]))
    F = np.stack([ops.divergence([S[n] for n in row]) for row in solver._ROWS])
    return -ops.leray(ops.dealias(F))


class TestBandResidentStep:
    """The engine steps on the kept block; a full-array RK4 is the reference."""

    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("shape", [(32, 32, 32), (24, 16, 20)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_ten_steps_equal_a_full_array_rk4(self, monkeypatch, shape, a):
        grid = GridSpec(*shape, Lx=20.0, pitch=1.0)
        ops = SpectralOps(grid)
        v0 = random_helical_perturbation(
            PerturbationSpec(seed=3, amplitude=1.0, sigma=1.2), grid, ops)
        steps = []
        real_step = solver.step_spectral3d

        def recording_step(state, dt, *args, **kwargs):
            steps.append((state.t, dt))
            return real_step(state, dt, *args, **kwargs)

        monkeypatch.setattr(solver, "step_spectral3d", recording_step)
        config = ExperimentConfig(t_end=0.5, dt=0.05, output_dt=0.5, a=a)
        final = run_spectral3d(v0, ops, config)
        assert len(steps) == 10

        def rhs(V, t):
            if a == 0.0:
                return _divergence_reference(V, ops)
            return _convective_reference(V, t, grid, ops, a)

        V = ops.leray(ops.dealias(v0))
        for t, dt in steps:
            Eh = np.exp(-ops.k2 * (dt / 2.0))
            Ef = Eh * Eh
            k1 = rhs(V, t)
            k2 = rhs(Eh * (V + (dt / 2.0) * k1), t + dt / 2.0)
            k3 = rhs(Eh * V + (dt / 2.0) * k2, t + dt / 2.0)
            k4 = rhs(Ef * V + dt * Eh * k3, t + dt)
            V = Ef * V + (dt / 6.0) * (Ef * k1 + 2.0 * Eh * (k2 + k3) + k4)
        assert final.v_hat.shape == V.shape
        assert ops.gather(final.v_hat).tobytes() == ops.gather(V).tobytes()
        assert not np.any(V[:, ~grid.dealias_mask])
        assert not np.any(final.v_hat[:, ~grid.dealias_mask])

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_public_fields_have_their_documented_shapes(self, tmp_path, a):
        cfg = ExperimentConfig(
            nx=16, ny=16, nz=16, Lx=20.0, a=a, kind="perturbed-oseen", seed=0,
            amplitude=0.1, sigma=1.2, t_end=0.1, dt=0.05, output_dt=0.1,
        )
        result = run_experiment(cfg, tmp_path, quiet=True)
        grid = result.grid
        assert result.final_state.v_hat.shape == (3,) + grid.spectral_shape
        assert result.final_state.v_hat.dtype == complex

        ops = SpectralOps(grid)
        nbx = nby = 2 * (16 // 3) + 1
        assert ops.band_shape == (nbx, nby, 16 // 3 + 1)
        seen = []
        v0 = _engine_field(grid, ops, 1, 0.1)
        config = ExperimentConfig(t_end=0.1, dt=0.05, output_dt=0.1, a=a)
        run_spectral3d(v0, ops, config, observer=lambda s, st: seen.append((s, st)))
        for state, stage in seen:
            assert state.v_hat.shape == (3,) + grid.spectral_shape
            assert stage.v.shape == (3,) + grid.shape
            assert stage.k1.shape == (3,) + ops.band_shape
            if a == 0.0:
                assert stage.grads is None
            else:
                assert stage.grads.shape == (3, 3) + grid.shape
        assert ops.scatter(solver._Rhs(ops, a)(ops.gather(v0), 0.0)).shape == (3,) + grid.spectral_shape

    def test_v_hat_is_a_fresh_scatter_of_the_block(self, grid, ops):
        rhs = solver._Rhs(ops, 0.0)
        v0 = _engine_field(grid, ops, 2, 0.5)
        state = SimulationState(ops, 0.0, ops.gather(v0))
        assert state.grid is grid
        new = step_spectral3d(state, 0.05, rhs, rhs(state.block, 0.0))
        kept = new.block.copy()
        v_hat = new.v_hat
        assert v_hat.tobytes() == ops.scatter(kept).tobytes()
        assert new.v_hat is not v_hat
        v_hat[...] = 0.0
        assert new.block.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_a_run_scatters_nothing(self, tmp_path, monkeypatch, a):
        # a record reads its norms and its gates from the block or the stage,
        # and a snapshot inverts the block's curl, so only the public
        # boundary forms the full shape
        scatters = []
        original = SpectralOps.scatter

        def counted(ops, B):
            scatters.append(B.shape)
            return original(ops, B)

        monkeypatch.setattr(SpectralOps, "scatter", counted)
        cfg = ExperimentConfig(
            nx=16, ny=16, nz=16, Lx=20.0, a=a, kind="perturbed-oseen", seed=0,
            amplitude=0.1, sigma=1.2, t_end=0.2, dt=0.05, output_dt=0.1,
            snapshot_dt=0.1,
        )
        result = run_experiment(cfg, tmp_path, quiet=True)
        assert (len(result.records), len(result.snapshot_paths)) == (3, 3)
        assert scatters == []


class TestRhsKernels:
    @pytest.mark.parametrize("seed,amplitude", [(0, 0.1), (3, 1.0), (11, 80.0), (12, 80.0)])
    def test_divergence_form_matches_convective_loop(self, grid, ops, seed, amplitude):
        v_hat = _engine_field(grid, ops, seed, amplitude)
        rhs = ops.scatter(solver._Rhs(ops, 0.0)(ops.gather(v_hat), 0.3))
        ref = _convective_reference(v_hat, 0.3, grid, ops, 0.0)
        assert ops.l2_norm(rhs - ref) <= 1e-14 * ops.l2_norm(ref)

    @pytest.mark.parametrize("a", [-2.0, 0.5, 1.0])
    def test_background_branch_is_the_convective_loop(self, grid, ops, a):
        v_hat = _engine_field(grid, ops, 2, 1.0)
        rhs = ops.scatter(solver._Rhs(ops, a)(ops.gather(v_hat), 0.3))
        assert np.array_equal(rhs, _convective_reference(v_hat, 0.3, grid, ops, a))

    def test_cfl_dt_is_taken_from_the_stage_one_velocity(self, grid, ops, monkeypatch):
        a, cfl, output_dt = 1.0, 0.4, 0.5
        h = min(grid.dx, grid.dy, grid.dz)
        steps = []
        real_step = solver.step_spectral3d

        def recording_step(state, dt, *args, **kwargs):
            steps.append((state.t, state.v_hat.copy(), dt))
            return real_step(state, dt, *args, **kwargs)

        monkeypatch.setattr(solver, "step_spectral3d", recording_step)
        spec = PerturbationSpec(seed=8, amplitude=40.0, sigma=1.2)
        v0 = random_helical_perturbation(spec, grid, ops)
        config = ExperimentConfig(t_end=1.0, cfl=cfl, output_dt=output_dt, a=a)
        run_spectral3d(v0, ops, config)

        limited = 0
        for t, v_hat, dt in steps:
            u = ops.inv(v_hat)
            uxy = oseen_velocity_xy(grid, t)
            u[0] += a * uxy[0][..., None]
            u[1] += a * uxy[1][..., None]
            dt_cfl = cfl * h / float(np.max(np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)))
            ends = (t + dt) / output_dt
            if dt == dt_cfl:
                limited += 1
            else:  # cut short to land on an output time
                assert dt < dt_cfl and abs(ends - round(ends)) < 1e-9
        assert limited >= 2


class TestTemporalOrder:
    def test_rk4_self_convergence(self, grid, ops):
        spec = PerturbationSpec(seed=4, amplitude=0.3, sigma=1.2)
        v0 = random_helical_perturbation(spec, grid, ops)
        t_end = 0.25

        def final_state(dt):
            config = ExperimentConfig(t_end=t_end, dt=dt, output_dt=t_end, a=1.0)
            return run_spectral3d(v0, ops, config).v_hat

        ref = final_state(t_end / 128)
        errs = [ops.l2_norm(final_state(t_end / n) - ref) for n in (8, 16, 32)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders[0] == pytest.approx(4.0, abs=0.5)
        assert orders[1] == pytest.approx(4.0, abs=0.5)


class TestMeanFlowConsistency:
    def test_matches_radial_engine_for_axisymmetric_swirl(self):
        # z-independent azimuthal data: the centripetal nonlinearity is a
        # pure gradient, so the flow reduces to odd-parity radial heat flow
        grid = GridSpec(nx=64, ny=64, nz=8, Lx=20.0, pitch=1.0)
        ops = SpectralOps(grid)
        amp, s0 = 0.05, 2.0
        u = np.zeros((3,) + grid.shape)
        g2d = amp * np.exp(-grid.r2d**2 / (4.0 * s0))
        u[0] = np.broadcast_to((-grid.yc * g2d)[..., None], grid.shape)
        u[1] = np.broadcast_to((grid.xc * g2d)[..., None], grid.shape)
        config = ExperimentConfig(t_end=0.5, dt=0.025, output_dt=0.5, a=0.0)
        final = run_spectral3d(ops.fwd(u), ops, config)

        r = uniform_radii(40.0, 4096)
        prof = run_radial(
            RadialProfile(r, amp * r * np.exp(-(r**2) / (4.0 * s0))),
            0.5, 1e-3, parity="odd", boundary_tol=1e-5,
        )
        spline = CubicSpline(prof.r, prof.values)

        v_final = ops.inv(final.v_hat)
        ix = grid.nx // 2 + np.arange(1, grid.nx // 4)
        radii = grid.x[ix] - grid.center[0]
        # along y = center: e_theta = e_y, so u_y(x, yc) = v_theta(x - xc)
        line = v_final[1, ix, grid.ny // 2, 0]
        assert np.max(np.abs(line - spline(radii))) / np.max(np.abs(line)) < 1e-4


def _mode2_reference(a, t_end, R=20.0, n=4000, dt=0.002):
    """g(r, t_end) of the e^{2i theta} mode r^2 g of a columnar v_z, advected by
    a u_LO and diffused: dg/dt = r^-5 (r^5 g')' - 2i a F(r^2, 1 + t) g from
    g = e^{-r^2/2}.  Crank-Nicolson steps of the conservative form, with g even
    at the axis (6 g''(0) from the mirror node) and g(R) = 0."""
    h = R / n
    r = np.arange(n + 1) * h
    r5 = np.maximum(r, h) ** 5
    lo, up = np.abs(r - h / 2) ** 5 / (r5 * h**2), (r + h / 2) ** 5 / (r5 * h**2)
    lo[0], up[0] = 0.0, 12.0 / h**2
    di = -(lo + up)
    g = np.exp(-(r**2) / 2.0).astype(complex)
    for k in range(round(t_end / dt)):
        d = 0.5 * dt * (di - 2j * a * _oseen_F(r**2, 1.0 + (k + 0.5) * dt))
        rhs = g + d * g
        rhs[1:] += 0.5 * dt * lo[1:] * g[:-1]
        rhs[:-1] += 0.5 * dt * up[:-1] * g[1:]
        rhs[-1] = 0.0
        bands = np.zeros((3, n + 1), dtype=complex)
        bands[0, 1:] = -0.5 * dt * up[:-1]
        bands[1] = 1.0 - d
        bands[2, :-2] = -0.5 * dt * lo[1:-1]
        bands[1, -1] = 1.0
        g = solve_banded((1, 1), bands, rhs)
    return r, g


class TestBackgroundCoupling:
    """Consequences of the a != 0 coupling: each check fails when the sign
    of its term in _Rhs is flipped."""

    @pytest.mark.parametrize("t", [0.0, 0.7])
    @pytest.mark.parametrize("a", [1.0, -2.0])
    def test_energy_exchange_with_the_background(self, a, t):
        # for solenoidal v, <v, k1> = -a int v_i v_j d_j u_LO,i: the advection
        # terms exchange no energy.  Measured 1.8e-14 (a = 1) and 3.6e-14
        # (a = -2); the exchange itself is 1.5e-6 to 4.6e-5 of |grad v|^2.
        grid = GridSpec.cube(32, 20.0, 1.0)
        ops = SpectralOps(grid)
        vb = ops.gather(_engine_field(grid, ops, 0, 0.1))
        stage = solver._Rhs(ops, a).stage(vb, t)
        glo, v = oseen_gradient_xy(grid, t), stage.v
        exchange = grid.cell_volume * sum(float(np.sum(v[i] * v[j] * glo[i, j][..., None]))
                                          for i in range(2) for j in range(2))
        residual = abs(ops.inner(vb, stage.k1) + a * exchange) / ops.grad_norm_sq(vb)
        assert residual < 1e-12
        # the run invariant sums the same exchange over z-means
        builder = RecordBuilder(ops, a)
        builder(SimulationState(ops, t, vb), stage)
        assert builder.invariants().energy_residual_max == pytest.approx(residual, rel=1e-6)

    def test_run_reads_the_energy_identity_at_a_nonzero(self, tmp_path):
        # the run-long form of the exchange check, as the presets gate it.
        # Measured 2.0e-14; with v.grad u_LO flipped it reads 4.6e-5
        cfg = ExperimentConfig(nx=32, ny=32, nz=32, Lx=20.0, pitch=1.0, a=1.0,
                               kind="perturbed-oseen", seed=0, amplitude=0.1, sigma=1.2,
                               t_end=0.3, dt=0.05, output_dt=0.1)
        residual = run_experiment(cfg, tmp_path, quiet=True).invariants.energy_residual_max
        assert type(residual) is float
        assert residual <= ENERGY_TOL

    @pytest.mark.parametrize("a", [10.0, -10.0, 30.0])
    def test_columnar_mode_is_advected_by_the_background(self, a):
        # v = (0, 0, w) with w = r^2 cos 2theta e^{-r^2/2} solves dw/dt + a u_LO.grad w
        # = lap w exactly, a 1D problem for the e^{2i theta} mode.  Measured
        # 2.9e-6 to 3.1e-6, the reference's own error (3.2e-6 against the heat
        # solution at a = 0, where the engine is off by 9e-10).
        grid = GridSpec(nx=64, ny=64, nz=8, Lx=24.0, pitch=1.0)
        ops = SpectralOps(grid)
        x, y = grid.xc, grid.yc
        u = np.zeros((3,) + grid.shape)
        u[2] = ((x**2 - y**2) * np.exp(-(x**2 + y**2) / 2.0))[..., None]
        config = ExperimentConfig(t_end=1.0, dt=0.05, output_dt=1.0, a=a)
        w = ops.inv(run_spectral3d(ops.fwd(u), ops, config).v_hat)[2].mean(axis=-1)
        r, g = _mode2_reference(a, 1.0)
        rr = np.hypot(x, y)
        ref = ((x + 1j * y) ** 2 * (CubicSpline(r, g.real)(rr)
                                    + 1j * CubicSpline(r, g.imag)(rr))).real
        assert np.linalg.norm(w - ref) <= 1e-5 * np.linalg.norm(ref)

    @pytest.mark.parametrize("a", [0.0, 30.0])
    def test_lamb2d_follows_radial_heat_flow(self, tmp_path, a):
        # every force on a columnar swirl is a gradient, so its vorticity
        # amplitude (G(s0 + t) - G(1 + t)) holds at every a.  Measured
        # 1.4e-10 (a = 0) and 1.5e-9 (a = 30).
        cfg = ExperimentConfig(nx=64, ny=64, nz=16, Lx=40.0, pitch=1.0, a=a, kind="lamb2d",
                               amplitude=1.0, s0=2.0, t_end=1.0, output_dt=1.0)
        state = run_experiment(cfg, tmp_path, quiet=True).final_state
        w_z = state.ops.inv(state.ops.curl(state.block))[2]
        r2 = state.grid.xc**2 + state.grid.yc**2
        exact = np.broadcast_to((heat_gaussian(r2, 3.0) - heat_gaussian(r2, 2.0))[..., None],
                                w_z.shape)
        assert np.linalg.norm(w_z - exact) <= 1e-8 * np.linalg.norm(exact)


class TestRunControl:
    def test_zero_t_end_returns_initial_state(self, grid, ops):
        spec = PerturbationSpec(seed=1, amplitude=0.1, sigma=1.2)
        v0 = random_helical_perturbation(spec, grid, ops)
        seen = []
        config = ExperimentConfig(t_end=0.0, a=1.0)
        final = run_spectral3d(v0, ops, config, observer=lambda s, st: seen.append(s))
        assert final.t == 0.0
        assert len(seen) == 1
        assert np.array_equal(final.v_hat, ops.leray(ops.dealias(v0)))

    @pytest.mark.parametrize("a,dt", [(0.0, None), (1.0, 0.05)])
    def test_only_the_time_fields_of_a_config_steer_the_run(self, grid, ops, a, dt):
        # the engine reads t_end, dt, cfl, output_dt and a only: two configs
        # that differ in every other field run the same initial state the same
        time = dict(a=a, t_end=0.2, cfl=0.3, dt=dt, output_dt=0.1)
        configs = (ExperimentConfig(nx=16, ny=16, nz=16, Lx=20.0, amplitude=1.0, **time),
                   ExperimentConfig(nx=32, ny=32, nz=8, Lx=12.0, kind="oseen-only", seed=7,
                                    sigma=0.5, amplitude=0.0, modes=(3,), **time))
        v0 = build_initial(configs[0], grid, ops)
        runs = []
        for config in configs:
            builder = RecordBuilder(ops, a)
            final = run_spectral3d(v0, ops, config, observer=builder)
            runs.append((final.block.tobytes(), builder.records))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 3

    def test_observer_called_at_output_times(self, grid, ops):
        v0 = np.zeros((3,) + grid.spectral_shape, dtype=complex)
        times = []
        config = ExperimentConfig(t_end=0.4, dt=0.05, output_dt=0.1, a=1.0)
        run_spectral3d(v0, ops, config, observer=lambda s, st: times.append(s.t))
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("t_end", [0.3, 1.0, 8.0])
    def test_output_times_are_exact_multiples(self, grid, ops, t_end):
        # summing dt = 0.05 drifts (the 8.0 run used to end at 7.99999999999998)
        v0 = np.zeros((3,) + grid.spectral_shape, dtype=complex)
        times = []
        config = ExperimentConfig(t_end=t_end, dt=0.05, output_dt=0.1, a=0.0)
        final = run_spectral3d(v0, ops, config, observer=lambda s, st: times.append(s.t))
        n = round(t_end / 0.1)
        assert times == [min(k * 0.1, t_end) for k in range(n + 1)]
        assert times[-1] == final.t == t_end

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_observer_receives_the_stage_of_its_state(self, grid, ops, a):
        v0 = _engine_field(grid, ops, 3, 1.0)
        seen = []
        config = ExperimentConfig(t_end=0.2, dt=0.05, output_dt=0.1, a=a)
        run_spectral3d(v0, ops, config, observer=lambda s, st: seen.append((s, st)))
        assert len(seen) == 3
        for state, stage in seen:
            # the stage works on the kept block, the state is read full-shape
            assert stage.v.tobytes() == ops.inv(state.v_hat).tobytes()
            ref_k1 = solver._Rhs(ops, a)(ops.gather(state.v_hat), state.t)
            assert stage.k1.tobytes() == ref_k1.tobytes()
            if a == 0.0:
                assert stage.grads is None
            else:
                for i in range(3):
                    ref = ops.inv(np.stack([1j * k * state.v_hat[i] for k in grid.kvec]))
                    assert stage.grads[i].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("t_end,observe,expected", [
        (0.4, True, 9),    # t = 0, seven steps continued, one record at t_end
        (0.4, False, 8),   # no record at t_end: no stage there
    ])
    def test_stage_at_t_end_only_for_a_due_record(self, grid, ops, monkeypatch,
                                                  t_end, observe, expected):
        calls = []
        real_stage = solver._Rhs.stage

        def counted(rhs, v_hat, t):
            calls.append(t)
            return real_stage(rhs, v_hat, t)

        monkeypatch.setattr(solver._Rhs, "stage", counted)
        v0 = np.zeros((3,) + grid.spectral_shape, dtype=complex)
        config = ExperimentConfig(t_end=t_end, dt=0.05, output_dt=0.1, a=0.0)
        observer = (lambda s, st: None) if observe else None
        run_spectral3d(v0, ops, config, observer=observer)
        assert len(calls) == expected

    @pytest.mark.parametrize("t_end", [0.45, 1e308])
    def test_off_grid_t_end_rejected(self, grid, ops, t_end):
        # the final state of a t_end between output times would reach no
        # record; 1e308 / 0.1 overflows to inf, which is no whole count either
        with pytest.raises(ValueError, match="t_end must be a whole multiple"):
            _run_zero(grid, ops, ExperimentConfig(t_end=t_end, output_dt=0.1))

    @pytest.mark.parametrize("output_dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_nonpositive_output_dt_rejected(self, grid, ops, output_dt):
        # a zero output interval would leave run_spectral3d stepping at t = 0,
        # and an infinite one would end the run at t = 0 (t_end / inf = 0 intervals)
        with pytest.raises(ValueError, match="output_dt"):
            _run_zero(grid, ops, ExperimentConfig(t_end=0.2, output_dt=output_dt, a=0.0))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
    def test_fixed_dt_must_be_finite_and_positive(self, grid, ops, dt):
        # dt = -1 once stepped back to t = -1 and failed in the Oseen field
        rule = "must be finite" if not np.isfinite(dt) else "must be positive when given"
        with pytest.raises(ValueError, match=f"^dt {rule}, got {dt}$"):
            _run_zero(grid, ops, ExperimentConfig(t_end=0.2, dt=dt, output_dt=0.1, a=0.0))

    @pytest.mark.parametrize("cfl", [0.0, 1.0, 5.0, float("nan")])
    def test_cfl_must_lie_in_the_open_unit_interval(self, grid, ops, cfl):
        # the background makes max |v + a u_LO| > 0: cfl = 0 once looped
        # forever on dt = 0, and cfl = 5 ran without a word
        rule = "must be finite" if not np.isfinite(cfl) else "must lie in (0, 1)"
        with pytest.raises(ValueError, match=f"^cfl {re.escape(rule)}, got {cfl}$"):
            _run_zero(grid, ops, ExperimentConfig(t_end=0.2, cfl=cfl, output_dt=0.1, a=1.0))

    def test_lists_every_violation(self, grid, ops):
        config = ExperimentConfig(t_end=0.25, dt=np.inf, cfl=1.0, output_dt=0.1, a=np.nan)
        with pytest.raises(ValueError) as excinfo:
            _run_zero(grid, ops, config)
        assert str(excinfo.value) == (
            "a must be finite, got nan; cfl must lie in (0, 1), got 1.0; "
            "dt must be finite, got inf; "
            "t_end must be a whole multiple of output_dt = 0.1, got 0.25"
        )

    def test_cfl_violation_warns_and_reduces(self, grid, ops, caplog):
        # with v = 0 and a strong background, max |a u_LO| alone breaks the
        # advective bound while the perturbation dynamics stay identically 0
        v0 = np.zeros((3,) + grid.spectral_shape, dtype=complex)
        config = ExperimentConfig(t_end=0.2, dt=0.2, output_dt=0.2, cfl=0.2, a=50.0)
        with caplog.at_level(logging.WARNING, logger="helns.solver"):
            final = run_spectral3d(v0, ops, config)
        lines = [rec.message for rec in caplog.records if "CFL" in rec.message]
        assert final.t == pytest.approx(0.2)
        # the one output interval took several reduced steps and logs one line
        assert len(lines) == 1
        assert int(re.search(r"CFL bound on (\d+) steps", lines[0]).group(1)) > 1

    def test_nonfinite_state_raises(self, grid, ops):
        v_hat = np.full((3,) + grid.spectral_shape, np.nan, dtype=complex)
        state = SimulationState(ops, 0.0, ops.gather(v_hat))
        rhs = solver._Rhs(ops, 0.0)
        # a finite stage-1 tendency: stage 2 meets the non-finite state
        with pytest.raises(FloatingPointError):
            step_spectral3d(state, 0.1, rhs, np.zeros((3,) + ops.band_shape, dtype=complex))


class TestInstabilityGuard:
    def test_guard_aborts_and_flushes_partial_csv(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            nx=16, ny=16, nz=16, Lx=20.0, a=1.0, kind="perturbed-oseen",
            seed=0, amplitude=0.05, sigma=1.2, t_end=0.3, dt=0.05,
            output_dt=0.1, csv="partial.csv",
        )
        monkeypatch.setattr(experiment, "GUARD_FACTOR", 1e-12)
        with pytest.raises(InstabilityError) as excinfo:
            run_experiment(cfg, tmp_path, quiet=True)
        csv_path = excinfo.value.csv_path
        assert csv_path is not None and csv_path.exists()
        assert len(csv_path.read_text().strip().split("\n")) >= 2


class TestExperimentOps:
    def test_rejects_ops_of_another_grid(self, tmp_path):
        cfg = ExperimentConfig(
            nx=16, ny=16, nz=16, Lx=24.0, a=1.0, kind="perturbed-oseen",
            seed=0, amplitude=0.05, sigma=1.2, t_end=0.1, dt=0.05, output_dt=0.1,
        )
        other = SpectralOps(GridSpec.cube(16, 20.0, 1.0))
        with pytest.raises(ValueError, match="ops were built for grid"):
            run_experiment(cfg, tmp_path / "out", ops=other, quiet=True)
        assert not (tmp_path / "out").exists()
        # the lamb2d data go through ops.inverse_curl, not the perturbation generator
        lamb = dataclasses.replace(cfg, kind="lamb2d", a=0.0, amplitude=1.0, s0=2.0)
        with pytest.raises(ValueError, match="ops were built for grid"):
            experiment.build_initial(lamb, experiment.build_grid(lamb), other)
        # ops of an equal grid built separately are accepted
        grid = GridSpec.cube(16, 24.0, 1.0)
        result = run_experiment(cfg, tmp_path / "out", ops=SpectralOps(grid), quiet=True)
        assert result.grid == grid and len(result.records) == 2


def _helical_vorticity(grid, ops):
    spec = PerturbationSpec(seed=2, amplitude=0.1, sigma=1.2)
    v_hat = random_helical_perturbation(spec, grid, ops)
    return oseen_vorticity(grid, 0.0) + ops.inv(ops.curl(v_hat))


class TestTransformBudget:
    """Transforms are counted at the FFT boundary (the ``fft_ledger`` of
    conftest.py): a scalar 3D transform is one z pass.  The full-shape
    forward ones are the ``rfftn`` passes; every inverse, full-shape or not,
    is the x, y and ``irfft`` z passes of ``SpectralOps._inv_pruned``."""

    @pytest.mark.parametrize("a,per_step,per_record", [(0.0, 36, 9), (1.0, 60, 0)])
    def test_run_costs_the_documented_transforms(self, tmp_path, monkeypatch, fft_ledger,
                                                 a, per_step, per_record):
        steps = []
        real_step = solver.step_spectral3d

        def counted_step(*args, **kwargs):
            steps.append(None)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(solver, "step_spectral3d", counted_step)
        cfg = ExperimentConfig(
            nx=16, ny=16, nz=16, Lx=20.0, a=a, kind="perturbed-oseen", seed=0,
            amplitude=0.1, sigma=1.2, t_end=0.2, dt=0.05, output_dt=0.1,
            snapshot_dt=0.1,
        )
        result = run_experiment(cfg, tmp_path, quiet=True)
        ops = SpectralOps(result.grid)
        t_end_stage = per_step // 4  # the stage of the record due at t_end
        records, snapshots = len(result.records), len(result.snapshot_paths)
        assert (len(steps), records, snapshots) == (4, 3, 3)
        z = fft_ledger.z_passes()
        # only the initial field is transformed at full shape: the forward
        # transform of the stream field; every x and y pass reads the kept
        # kz <= nz//3 columns
        assert [(p.kind, p.scalars) for p in z if p.full] == [("r2c", 3)]
        assert {p.shape[-1] for p in fft_ledger.passes if p.kind == "c2c"} == {
            ops.band_shape[2]}
        # an a = 0 record inverts its three diagonal gradients on the whole
        # grid and the six others on the disk block, and a snapshot its curl
        disk = tuple(b.stop - b.start for b in ops.disk)
        assert sum(p.scalars for p in z if p.cross == disk) == per_record * 2 // 3 * records
        stages = per_step * len(steps) + t_end_stage
        assert fft_ledger.transforms == 3 + per_record * records + stages + 3 * snapshots
        # each record's source norm, a = 0 or not: the plane of the six
        # z-summed products
        assert fft_ledger.planes == 6 * records

    def test_decompose_costs_12_transforms(self, fft_ledger):
        grid = GridSpec.cube(32, 20.0, 1.0)
        ops = SpectralOps(grid)
        omega = _helical_vorticity(grid, ops)
        fft_ledger.clear()
        decompose(omega, grid, 1.5, ops=ops)
        z = fft_ledger.z_passes()
        # 3 forward transforms of omega at full shape, the 3 diagonal
        # gradients on the whole cross-section, the 6 other gradients on the
        # disk block
        assert [(p.kind, p.scalars) for p in z if p.full] == [("r2c", 3)]
        assert [(p.kind, p.scalars) for p in z
                if not p.full and p.cross == grid.shape[:2]] == [("c2r", 1)] * 3
        disk = tuple(b.stop - b.start for b in ops.disk)
        assert [p.scalars for p in z if not p.full and p.cross == disk] == [1] * 6
        assert fft_ledger.transforms == 12
        # 3 + 1 + 3 forward planes (the ring average of the mean vorticity,
        # the Oseen Gaussian, the ring average of the mean velocity) and the
        # 3 inverse ones of the mean velocity
        assert fft_ledger.planes == 10

    def test_gates_never_invert_the_full_gradients(self, monkeypatch):
        full_gradients = []
        original = SpectralOps.gradients

        def counted(ops, U):
            if U.shape[-3:] == ops.grid.spectral_shape:
                full_gradients.append(None)
            return original(ops, U)

        monkeypatch.setattr(SpectralOps, "gradients", counted)
        grid = GridSpec.cube(32, 20.0, 1.0)
        ops = SpectralOps(grid)
        decompose(_helical_vorticity(grid, ops), grid, 1.5)
        spec = PerturbationSpec(seed=3, amplitude=0.1, sigma=1.2)
        v_hat = random_helical_perturbation(spec, grid, ops)
        ladyzhenskaya_ratio(v_hat, ops)
        state = SimulationState(ops, 0.0, ops.gather(v_hat))
        stage = solver._Rhs(ops, 0.0).stage(state.block, 0.0)
        RecordBuilder(ops, 0.0)(state, stage)
        assert full_gradients == []


class TestTrendGrid:
    def test_top_kept_kz_plane_stays_empty(self):
        """The trend grid's nz resolves the run: the energy fraction in the
        top kept kz plane stays at round-off (1.1e-29 at nz = 24, 6.6e-20 at
        nz = 16, which fails).

        The background is z-independent, so only v.grad v fills kz beyond
        the seeded helical modes 0-2, at order amplitude^2 and most while
        the perturbation is largest, early on.  Viscosity then damps each
        plane like e^(-k^2 t), high kz fastest: the fraction peaks at
        t = 0.1-0.2 and falls after, so a run cut to t_end = 1 holds the
        whole run's maximum.
        """
        fractions = []

        def observer(state, stage):
            top = np.zeros_like(state.block)
            top[..., -1] = state.block[..., -1]
            fractions.append(state.ops.l2_norm_sq(top) / state.ops.l2_norm_sq(state.block))

        _run_observed(dataclasses.replace(TREND_CONFIG, t_end=1.0), observer)
        assert len(fractions) == 11
        assert max(fractions) < 1e-20


class TestOracleGrid:
    @pytest.mark.parametrize("cfg,moving", [(ORACLE_SHEAR_CONFIG, True),
                                            (ORACLE_OSEEN_CONFIG, False)],
                             ids=["oracle-shear", "oracle-oseen"])
    def test_every_kz_plane_above_0_stays_zero(self, cfg, moving):
        """The oracle presets evolve z-independent fields: every kz >= 1 plane
        of the block is exactly zero at every output, so a finer nz would
        only add planes that stay zero.  The shear's kz = 0 plane carries the flow;
        the Oseen oracle's perturbation is zero everywhere."""
        planes = []

        def observer(state, stage):
            planes.append((np.count_nonzero(state.block[..., 1:]),
                           bool(np.any(state.block[..., 0]))))

        _run_observed(cfg, observer)
        assert planes == [(0, moving)] * (round(cfg.t_end / cfg.output_dt) + 1)


def _run_observed(cfg, observer):
    """Run ``cfg``'s initial state through the solver as ``run_experiment``
    does, with ``observer`` called at every output."""
    grid = build_grid(cfg)
    ops = SpectralOps(grid)
    run_spectral3d(build_initial(cfg, grid, ops), ops, cfg, observer=observer)


def _run_zero(grid, ops, config):
    """Run the zero field on ``grid`` under ``config``."""
    return run_spectral3d(np.zeros((3,) + grid.spectral_shape, dtype=complex), ops, config)
