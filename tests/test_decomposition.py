"""Ring averaging, weighted norms and the circulation decomposition."""

import numpy as np
import pytest

from helns import decomposition
from helns.decomposition import (
    circulation_a,
    decompose,
    export_profile_csv,
    ring_average_cylindrical,
    weighted_l2m_norm,
)
from helns.fields import (
    PerturbationSpec,
    oseen_vorticity,
    random_helical_perturbation,
    shear_flow,
)
from scipy.special import j0, j1

from helns.grid import GridSpec
from helns.radial import RadialProfile, uniform_radii, weighted_l2m_norm_profile
from helns.spectral import SpectralOps


@pytest.fixture(scope="module")
def grid():
    return GridSpec.cube(32, 20.0, 1.0)


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOps(grid)


@pytest.fixture(scope="module")
def perturbation(grid, ops):
    spec = PerturbationSpec(seed=2, amplitude=0.1, modes=(0, 1, 2), sigma=1.2)
    return random_helical_perturbation(spec, grid, ops)


def _scalar_mean(f, ops):
    """Ring means of a 2D scalar field: the u_z profile of (0, 0, f)."""
    zero = np.zeros_like(f)
    return ring_average_cylindrical(np.stack([zero, zero, f]), ops)[2]


class TestRingAverage:
    def test_spectral_sampling_is_exact_for_trig_field(self, grid, ops):
        kx, ky = 2 * np.pi / grid.Lx, 2 * np.pi * 2 / grid.Ly
        x = grid.x[:, None]
        y = grid.y[None, :]
        f = 0.3 + np.cos(kx * x) * np.sin(ky * y)
        prof = _scalar_mean(f, ops)
        cx, cy = grid.center
        for i, r in enumerate(prof.r):
            theta = 2 * np.pi * np.arange(128) / 128
            fx = 0.3 + np.cos(kx * (cx + r * np.cos(theta))) * np.sin(
                ky * (cy + r * np.sin(theta))
            )
            assert prof.values[i] == pytest.approx(float(fx.mean()), abs=1e-12)

    def test_axisymmetric_field_recovers_profile(self, grid, ops):
        f = np.exp(-grid.r2d**2 / 6.0)
        prof = _scalar_mean(f, ops)
        assert np.max(np.abs(prof.values - np.exp(-prof.r**2 / 6.0))) < 1e-6

    def test_cylindrical_components(self, grid, ops):
        # a pure rotation field has u_r = 0 and u_theta = r
        u = np.zeros((3, grid.nx, grid.ny))
        u[0] = -grid.yc * np.exp(-grid.r2d**2 / 8.0)
        u[1] = grid.xc * np.exp(-grid.r2d**2 / 8.0)
        u_r, u_theta, u_z = ring_average_cylindrical(u, ops)
        keep = u_theta.r < 4.0
        assert np.max(np.abs(u_r.values)) < 1e-7
        expected = u_theta.r * np.exp(-u_theta.r**2 / 8.0)
        assert np.max(np.abs(u_theta.values - expected)[keep]) < 1e-6
        assert np.max(np.abs(u_z.values)) == 0.0


class TestSingleModeRings:
    """One plane wave f = cos(k.(x - c)) with |k| r far beyond 256 on the rings.

    Its exact ring mean is J0(|k| r); the ring means of grad f (radial) and
    of its rotation z x grad f are d/dr J0(|k| r) = -|k| J1(|k| r) in u_r and
    u_theta respectively.  Sampling 256 points per ring aliases these modes.
    """

    @pytest.fixture(scope="class")
    def wave(self):
        grid = GridSpec.cube(128, 40.0, 1.0)
        k = 2 * np.pi * 60 / 40
        phase = k * grid.xc + k * grid.yc
        return SpectralOps(grid), k, np.cos(phase), -k * np.sin(phase)

    def test_scalar_mean_is_j0(self, wave):
        ops, k, f, _ = wave
        prof = _scalar_mean(f, ops)
        assert np.sqrt(2) * k * prof.r[-1] > 256
        assert np.max(np.abs(prof.values - j0(np.sqrt(2) * k * prof.r))) <= 1e-12

    @pytest.mark.parametrize("rotational", [False, True], ids=["radial", "rotational"])
    def test_gradient_mean_is_j1(self, wave, rotational):
        ops, k, f, df = wave
        # grad f = (df, df); z x grad f = (-df, df)
        u = np.stack([-df if rotational else df, df, f])
        u_r, u_theta, u_z = ring_average_cylindrical(u, ops)
        kabs = np.sqrt(2) * k
        expected = -kabs * j1(kabs * u_r.r)
        along, across = (u_theta, u_r) if rotational else (u_r, u_theta)
        assert np.max(np.abs(along.values - expected)) <= 1e-12 * kabs
        assert np.max(np.abs(across.values)) <= 1e-12 * kabs
        assert np.max(np.abs(u_z.values - j0(kabs * u_z.r))) <= 1e-12


def _reference_ring_means(f, grid, radii, n_theta):
    """Ring means of a 2D field by the direct trigonometric sum, point by point.

    f(x, y) = (1/(nx ny)) sum_{kx, ky} F[kx, ky] exp(i (kx x + ky y)), the
    interpolant the ring average evaluates, written out without matrices.
    """
    F = np.fft.fft2(f)
    kx = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    cx, cy = grid.center
    means = []
    for r in radii:
        n = n_theta if r > 0 else 1
        theta = 2 * np.pi * np.arange(n) / n
        vals = []
        for t in theta:
            phase = np.exp(1j * (kx[:, None] * (cx + r * np.cos(t))
                                 + ky[None, :] * (cy + r * np.sin(t))))
            vals.append((np.sum(F * phase) / (grid.nx * grid.ny)).real)
        means.append(vals)
    return [np.asarray(v) for v in means]


def _bessel_ring_means(u, grid, radii):
    """Exact ring means of (u_x, u_y, u_z) mode by mode from J0 and J1.

    Over the circle c + r e_theta, e^{ik.x} averages to e^{ik.c} J0(|k| r),
    and e^{ik.x} (cos theta, sin theta) to e^{ik.c} i J1(|k| r) k/|k|.
    Returns the (u_r, u_theta, u_z) means.
    """
    kx = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    cx, cy = grid.center
    Fx, Fy, Fz = (np.fft.fft2(c) / (grid.nx * grid.ny) for c in u)
    means = np.zeros((3, radii.size))
    for a, p in enumerate(kx):
        for b, q in enumerate(ky):
            kabs = np.hypot(p, q)
            c, s = (p / kabs, q / kabs) if kabs > 0 else (0.0, 0.0)
            shift = np.exp(1j * (p * cx + q * cy))
            J0, J1 = j0(kabs * radii), j1(kabs * radii)
            means[0] += (shift * 1j * (Fx[a, b] * c + Fy[a, b] * s)).real * J1
            means[1] += (shift * 1j * (Fy[a, b] * c - Fx[a, b] * s)).real * J1
            means[2] += (shift * Fz[a, b]).real * J0
    return means


class TestRingTables:
    """The grid-only tables of the ring averages are built once per ops."""

    def test_second_average_evaluates_no_bessel_function(self, monkeypatch):
        calls = []

        def counted(f):
            def wrapper(x):
                calls.append(f.__name__)
                return f(x)
            return wrapper

        monkeypatch.setattr(decomposition, "j0", counted(j0))
        monkeypatch.setattr(decomposition, "j1", counted(j1))
        grid = GridSpec.cube(16, 20.0, 1.0)
        ops = SpectralOps(grid)
        rng = np.random.default_rng(9)
        u, w = rng.standard_normal((2, 3, 16, 16))
        ring_average_cylindrical(u, ops)
        assert sorted(calls) == ["j0", "j1"]
        calls.clear()
        second = ring_average_cylindrical(w, ops)
        assert calls == []
        fresh = ring_average_cylindrical(w, SpectralOps(grid))
        for got, ref in zip(second, fresh):
            assert got.r.tobytes() == ref.r.tobytes()
            assert got.values.tobytes() == ref.values.tobytes()

    def test_tables_are_read_only(self, ops):
        prof = ring_average_cylindrical(np.ones((3,) + ops.grid.shape[:2]), ops)[2]
        with pytest.raises(ValueError, match="read-only"):
            prof.r[1] = 0.5


class TestRingKernelReference:
    """ring_average_cylindrical against the direct trigonometric sum on
    256-point rings and against the mode-by-mode J0/J1 means, on its nx/2
    rings 0, dx, ..., 7 dx."""

    @pytest.fixture(scope="class")
    def small(self):
        grid = GridSpec.cube(16, 20.0, 1.0)
        u = np.random.default_rng(7).standard_normal((3, 16, 16)) + 0.4
        return grid, SpectralOps(grid), u, np.arange(8) * grid.dx

    @pytest.mark.parametrize("n_theta", [256])
    def test_scalar_matches_direct_sum(self, small, n_theta):
        grid, ops, u, radii = small
        prof = _scalar_mean(u[0], ops)
        ref = [v.mean() for v in _reference_ring_means(u[0], grid, radii, n_theta)]
        assert np.max(np.abs(prof.values - ref)) <= 1e-13 * np.max(np.abs(u[0]))

    def test_scalar_matches_bessel_sum(self, small):
        grid, ops, u, radii = small
        prof = ring_average_cylindrical(u, ops)[2]
        ref = _bessel_ring_means(u, grid, radii)[2]
        assert np.max(np.abs(prof.values - ref)) <= 1e-13 * np.max(np.abs(u[2]))

    @pytest.mark.parametrize("n_theta", [256])
    def test_cylindrical_matches_direct_sum(self, small, n_theta):
        grid, ops, u, radii = small
        got = ring_average_cylindrical(u, ops)
        fx, fy, fz = (_reference_ring_means(c, grid, radii, n_theta) for c in u)
        ref_r, ref_t = [], []
        for j, r in enumerate(radii):
            n = n_theta if r > 0 else 1
            theta = 2 * np.pi * np.arange(n) / n
            ct, st = np.cos(theta), np.sin(theta)
            # cylindrical horizontal components have no angular mean at the axis
            ref_r.append(0.0 if r == 0 else np.mean(fx[j] * ct + fy[j] * st))
            ref_t.append(0.0 if r == 0 else np.mean(-fx[j] * st + fy[j] * ct))
        ref_z = [v.mean() for v in fz]
        tol = 1e-13 * np.max(np.abs(u))
        for prof, ref in zip(got, (ref_r, ref_t, ref_z)):
            assert np.max(np.abs(prof.values - np.asarray(ref))) <= tol
        assert got[0].values[0] == 0.0 and got[1].values[0] == 0.0

    def test_cylindrical_matches_bessel_sum(self, small):
        grid, ops, u, radii = small
        got = ring_average_cylindrical(u, ops)
        ref = _bessel_ring_means(u, grid, radii)
        tol = 1e-13 * np.max(np.abs(u))
        for prof, ref_c in zip(got, ref):
            assert np.max(np.abs(prof.values - ref_c)) <= tol
        assert got[0].values[0] == 0.0 and got[1].values[0] == 0.0


class TestWeightedNorm:
    def test_grid_and_profile_quadratures_agree(self, grid):
        w = np.zeros((3,) + grid.shape)
        w[2] = np.exp(-grid.r2d**2 / 4.0)[..., None]
        grid_norm = weighted_l2m_norm(w, 1.5, grid=grid)
        r = uniform_radii(grid.Lx / 2, 4096)
        prof = RadialProfile(r, np.exp(-(r**2) / 4.0))
        prof_norm = weighted_l2m_norm_profile(prof, 1.5, grid.pitch)
        # the box corners carry the Gaussian tail: small relative difference
        assert grid_norm == pytest.approx(prof_norm, rel=1e-3)

    def test_vector_field_accepted(self, grid):
        w = np.zeros((3,) + grid.shape)
        w[2] = np.exp(-grid.r2d[..., None] ** 2)
        assert weighted_l2m_norm(w, 1.2, grid=grid) > 0

    def test_requires_location_information(self, grid):
        with pytest.raises(TypeError):
            weighted_l2m_norm(np.zeros(grid.shape), 1.2)

    @pytest.mark.parametrize("m,message", [(np.nan, "^m must be finite, got nan$"),
                                           (np.inf, "^m must be finite, got inf$"),
                                           (-1.0, "^m must be nonnegative, got -1.0$")])
    def test_rejects_bad_weight_exponent(self, grid, m, message):
        r = uniform_radii(grid.Lx / 2, 64)
        with pytest.raises(ValueError, match=message):
            weighted_l2m_norm(np.zeros((3,) + grid.shape), m, grid=grid)
        with pytest.raises(ValueError, match=message):
            weighted_l2m_norm_profile(RadialProfile(r, np.exp(-(r**2) / 4.0)), m, grid.pitch)


class TestCirculation:
    def test_oseen_vorticity_has_unit_circulation(self, grid):
        w = oseen_vorticity(grid, 0.0)
        assert circulation_a(w, grid) == pytest.approx(1.0, abs=1e-10)

    def test_shear_flow_has_zero_circulation(self, grid):
        _, w = shear_flow(grid, 0.0)
        assert circulation_a(w, grid) == 0.0

    def test_scales_linearly(self, grid):
        w = oseen_vorticity(grid, 0.0)
        assert circulation_a(-2.5 * w, grid) == pytest.approx(-2.5, abs=1e-10)


class TestDecompose:
    def test_round_trip(self, grid, ops, perturbation):
        w = 0.5 * oseen_vorticity(grid, 0.0) + ops.inv(ops.curl(perturbation))
        result = decompose(w, grid, 1.5, ops=ops)
        assert abs(result.a - 0.5) < 1e-10
        diff = result.v_hat - perturbation
        h1_err = np.sqrt(ops.l2_norm_sq(diff) + ops.grad_norm_sq(diff))
        assert h1_err / result.h1_v < 1e-7
        assert result.mean_radial_max < 1e-10
        # h1 consistency of the reported norms
        assert result.h1_v == pytest.approx(
            np.hypot(result.l2_v, result.grad_l2_v), rel=1e-12
        )

    @pytest.mark.parametrize("a,spread", [(-2.0, 1.5), (0.7, 2.25)])
    def test_matches_the_projected_residual_formula(self, grid, ops, perturbation, a, spread):
        # reference: transform omega - a w_LO in 3D, project it, take the curl
        w = a * oseen_vorticity(grid, spread - 1.0) + ops.inv(ops.curl(perturbation))
        result = decompose(w, grid, 1.5, ops=ops, background_spread=spread)
        a_ref = circulation_a(w, grid)
        R = ops.fwd(w - a_ref * oseen_vorticity(grid, spread - 1.0))
        Rsol = ops.leray(R)
        v_ref = ops.curl(Rsol) * ops.inv_k2
        assert result.a == a_ref
        assert ops.l2_norm(result.v_hat - v_ref) <= 1e-13 * ops.l2_norm(v_ref)
        # the gradient part is ~1e-9 of R, so the round-off of R's coefficients
        # moves it by more than 1e-13 of itself (2.5e-13 at a = -2)
        correction = ops.l2_norm(R - Rsol) / ops.l2_norm(R)
        assert result.inverse_curl_correction == pytest.approx(correction, rel=1e-12, abs=0.0)

    def test_linearity_in_the_perturbation(self, grid, ops, perturbation):
        w_lo = oseen_vorticity(grid, 0.0)
        w_pert = ops.inv(ops.curl(perturbation))
        r1 = decompose(w_lo + w_pert, grid, 1.5, ops=ops)
        r2 = decompose(w_lo + 2.0 * w_pert, grid, 1.5, ops=ops)
        assert np.allclose(r2.v_hat, 2.0 * r1.v_hat, atol=1e-12)

    def test_reconstruction_inverts_decomposition(self, grid, ops, perturbation):
        w = 1.0 * oseen_vorticity(grid, 0.0) + ops.inv(ops.curl(perturbation))
        result = decompose(w, grid, 1.5, ops=ops)
        w_rec = ops.inv(ops.curl(result.v_hat)) + result.a * oseen_vorticity(grid, 0.0)
        mask = grid.r2d <= grid.Lx / 4
        err = np.max(np.abs((w_rec - w)[:, mask, :]))
        assert err < 1e-8 * max(1.0, np.max(np.abs(w)))

    def test_rejects_small_m(self, grid, ops, perturbation):
        w = ops.inv(ops.curl(perturbation))
        with pytest.raises(ValueError, match="must exceed 1"):
            decompose(w, grid, 0.9, ops=ops)

    @pytest.mark.parametrize("m", [np.nan, np.inf])
    def test_rejects_nonfinite_m(self, grid, ops, perturbation, m):
        # before any transform; nan was once reported as "must exceed 1"
        w = ops.inv(ops.curl(perturbation))
        with pytest.raises(ValueError, match=f"^m must be finite, got {m}$"):
            decompose(w, grid, m, ops=ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_samples(self, grid, ops, perturbation, bad, fft_ledger):
        # one bad sample, whichever of the max and the min it shows in, is
        # rejected before any transform
        w = oseen_vorticity(grid, 0.0) + ops.inv(ops.curl(perturbation))
        w[1, 3, 5, 7] = bad
        fft_ledger.clear()
        with pytest.raises(ValueError, match="^vorticity samples must be finite$"):
            decompose(w, grid, 1.5, ops=ops)
        assert fft_ledger.passes == []

    def test_rejects_ops_of_another_grid(self, grid, ops, perturbation):
        w = oseen_vorticity(grid, 0.0) + ops.inv(ops.curl(perturbation))
        other = SpectralOps(GridSpec.cube(32, 24.0, 1.0))
        with pytest.raises(ValueError, match="grid"):
            decompose(w, grid, 1.5, ops=other)
        # ops of an equal grid built separately are accepted
        decompose(w, grid, 1.5, ops=SpectralOps(GridSpec.cube(32, 20.0, 1.0)))

    def test_rejects_nonsolenoidal_vorticity(self, grid, ops):
        w = np.zeros((3,) + grid.shape)
        w[0] = np.exp(-grid.r2d[..., None] ** 2 / 4.0)  # div w != 0
        with pytest.raises(ValueError, match="diverg"):
            decompose(w, grid, 1.5, ops=ops)

    def test_rejects_non_helical_vorticity(self, grid, ops):
        # a z-dependent non-helical swirl: solenoidal but breaks the symmetry
        z = grid.z[None, None, :]
        envelope = np.exp(-grid.r2d[..., None] ** 2 / 6.0)
        u = np.zeros((3,) + grid.shape)
        u[0] = -grid.yc[..., None] * envelope * np.cos(2 * np.pi * z / grid.Lz)
        u[1] = grid.xc[..., None] * envelope * np.cos(2 * np.pi * z / grid.Lz)
        w = ops.inv(ops.curl(ops.leray(ops.fwd(u))))
        with pytest.raises(ValueError, match="helical"):
            decompose(w, grid, 1.5, ops=ops)

    def test_report_and_profile_export(self, grid, ops, perturbation, tmp_path):
        w = oseen_vorticity(grid, 0.0) + ops.inv(ops.curl(perturbation))
        result = decompose(w, grid, 1.5, ops=ops)
        lines = result.report_text().splitlines()
        assert lines[0] == "helical decomposition report"
        assert [line.split(" = ")[0] for line in lines[1:]] == [
            "a", "m", "omega_l2m", "l2_v", "grad_l2_v", "h1_v", "c_ratio",
            "helical_defect", "max_div", "inverse_curl_correction",
            "mean_radial_max", "zero_mass_gap", "envelope_c3", "envelope_c4",
        ]
        assert lines[1] == f"a = {result.a:.17g}"
        for c in (result.envelope_c3, result.envelope_c4):
            assert np.isfinite(c) and c >= 0.0
        path = tmp_path / "profile.csv"
        export_profile_csv(result.profiles["v_theta_bar"], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "r,value"
        assert len(lines) == result.profiles["v_theta_bar"].r.size + 1
