"""Analytic background fields and the seeded perturbation generator."""

import re

import numpy as np
import pytest
from scipy.integrate import quad

from helns.fields import (
    PerturbationSpec,
    _oseen_G,
    heat_gaussian,
    oseen_grad_l2_difference_sq,
    oseen_grad_l2_sq,
    oseen_l2_difference_sq,
    oseen_utheta,
    oseen_utheta_prime,
    oseen_vorticity,
    random_helical_perturbation,
    shear_flow,
)
from helns.config import ExperimentConfig
from helns.grid import GridSpec
from helns.spectral import SpectralOps


@pytest.fixture(scope="module")
def grid():
    return GridSpec.cube(48, 40.0, 1.0)


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOps(grid)


class TestOseenProfiles:
    def test_velocity_integrates_vorticity(self):
        # u_theta(r) = (1/r) * integral_0^r w_z(rho) rho drho
        for t in (0.0, 1.0, 3.0):
            for r in (0.5, 1.0, 2.0, 5.0):
                integral, _ = quad(
                    lambda rho: heat_gaussian(rho**2, 1.0 + t) * rho, 0.0, r
                )
                assert oseen_utheta(r, 1.0 + t) == pytest.approx(
                    integral / r, rel=1e-12
                )

    def test_all_time_dependence_through_one_plus_t(self):
        # evaluating at (r, t) equals rescaling the t=0 profile
        r, t = 1.7, 2.5
        s = 1.0 + t
        assert heat_gaussian(r**2, 1.0 + t) == pytest.approx(
            heat_gaussian((r / np.sqrt(s)) ** 2, 1.0) / s, rel=1e-14
        )

    @pytest.mark.parametrize("s", [1.0, 33.0])
    def test_utheta_is_accurate_at_the_axis(self, s):
        # 1 - e^{-q} cancels for small q = r^2/(4s); -expm1 does not
        r = np.array([1e-9, 1e-7, 1e-6, 1e-4, 1e-3 * np.sqrt(s)])
        ref = -np.expm1(-(r**2) / (4.0 * s)) / (2.0 * np.pi * r)
        assert np.all(np.abs(oseen_utheta(r, s) - ref) <= 1e-13 * ref)
        assert oseen_utheta(0.0, s) == 0.0
        assert oseen_utheta_prime(0.0, s) == 1.0 / (8.0 * np.pi * s)

    @pytest.mark.parametrize("s", [1.0, 33.0])
    def test_utheta_and_derivative_match_expm1_reference(self, s):
        r = np.logspace(-9, 2.5, 400)
        q = r**2 / (4.0 * s)
        ref = -np.expm1(-q) / (2.0 * np.pi * r)
        ref_prime = np.expm1(-q) / (2.0 * np.pi * r**2) + heat_gaussian(r**2, s)
        # a direct branch 1 - e^{-q} would lose ~5e-11 relative just above
        # the series threshold q = 1e-6
        assert np.all(np.abs(oseen_utheta(r, s) - ref) <= 1e-12 * ref)
        assert np.all(np.abs(oseen_utheta_prime(r, s) - ref_prime)
                      <= 1e-12 * np.abs(ref_prime) + 1e-16 / s)

    @pytest.mark.parametrize("s", [1.0, 33.0])
    def test_utheta_equals_the_three_where_form(self, s):
        # the series below q = 1e-6 and -expm1(-q) / (2 pi r^2) above it,
        # each evaluated on every node and then selected
        def where_form(r):
            r2 = np.asarray(r, dtype=float) ** 2
            q = r2 / (4.0 * s)
            small = q < 1e-6
            qs = np.where(small, q, 1.0)
            series = (1.0 - qs / 2.0 + qs**2 / 6.0) / (8.0 * np.pi * s)
            direct = -np.expm1(-q) / (2.0 * np.pi * np.where(small, 1.0, r2))
            return np.asarray(r, dtype=float) * np.where(small, series, direct)

        q_edge = 2e-3 * np.sqrt(s)  # r at q = 1e-6
        r = np.array([0.0, 1e-9, 0.999 * q_edge, q_edge, 1.001 * q_edge, 0.5, 3.0, 40.0, 1e4])
        assert np.array_equal(oseen_utheta(r, s), where_form(r))
        grid2d = np.stack([r, r[::-1]])
        assert np.array_equal(oseen_utheta(grid2d, s), where_form(grid2d))
        for x in r:
            value = oseen_utheta(x, s)
            assert np.ndim(value) == 0
            assert value == where_form(x)

    @pytest.mark.parametrize("s", [1.0, 33.0])
    def test_gradient_factor_matches_high_precision_reference(self, s):
        # the direct form 2q e^{-q} - 2(1 - e^{-q}) of (dF/dr)/r cancels to
        # O(q^2) and lost ~1e-10 relative just above a series threshold q = 1e-3
        mpmath = pytest.importorskip("mpmath")
        q = np.logspace(-6, np.log10(50.0), 400)
        r2 = 4.0 * s * q
        with mpmath.workdps(40):
            def reference(x):
                x = mpmath.mpf(float(x))
                Q = x / (4 * mpmath.mpf(s))
                E = mpmath.exp(-Q)
                return float((2 * Q * E - 2 * (1 - E)) / (2 * mpmath.pi * x**2))
            ref = np.array([reference(x) for x in r2])
        assert np.all(np.abs(_oseen_G(r2, s) - ref) <= 1e-13 * np.abs(ref))

    def test_unit_circulation(self, grid):
        # the circulation Reynolds number is (1/(2 pi L)) int w_z dV = 1
        w = oseen_vorticity(grid, 0.0)
        total = float(np.sum(w[2])) * grid.cell_volume
        assert total == pytest.approx(2 * np.pi * grid.pitch, rel=1e-12)


class TestClosedFormNorms:
    def test_grad_norm_closed_form(self):
        # |grad u_LO(t)|^2 = L / (4 (1+t)) via direct quadrature of
        # ((u_theta')^2 + (u_theta / r)^2) r dr dtheta dz
        pitch, t = 1.0, 0.7

        def uprime(r, eps=1e-6):
            return (
                oseen_utheta(r + eps, 1.0 + t) - oseen_utheta(r - eps, 1.0 + t)
            ) / (2 * eps)

        val, _ = quad(
            lambda r: (uprime(r) ** 2 + (oseen_utheta(r, 1.0 + t) / r) ** 2) * r,
            1e-12, np.inf, limit=200,
        )
        numeric = (2 * np.pi) * (2 * np.pi * pitch) * val
        assert oseen_grad_l2_sq(t, pitch) == pytest.approx(numeric, rel=1e-7)

    def test_difference_norm_closed_form(self):
        pitch, t1, t2 = 1.0, 0.0, 1.5
        s1, s2 = 1.0 + t1, 1.0 + t2

        def integrand(r):
            return (oseen_utheta(r, s2) - oseen_utheta(r, s1)) ** 2 * r

        val, _ = quad(integrand, 0.0, np.inf, limit=200)
        numeric = (2 * np.pi) * (2 * np.pi * pitch) * val
        assert oseen_l2_difference_sq(t1, t2, pitch) == pytest.approx(numeric, rel=1e-9)
        rho = s2 / s1
        expected = 0.5 * pitch * np.log((1 + rho) ** 2 / (4 * rho))
        assert oseen_l2_difference_sq(t1, t2, pitch) == pytest.approx(expected, rel=1e-13)

    def test_grad_difference_positive_and_smaller_for_closer_times(self):
        near = oseen_grad_l2_difference_sq(0.0, 0.5, 1.0)
        far = oseen_grad_l2_difference_sq(0.0, 2.0, 1.0)
        assert 0 < near < far


class TestShearFlow:
    def test_exact_heat_relation(self, grid):
        # the shear profile at time t equals the spread of the initial one
        u0, _ = shear_flow(grid, 0.0)
        u1, _ = shear_flow(grid, 1.0)
        r2 = grid.xc**2 + grid.yc**2
        expected = np.exp(-r2 / 8.0) / (8.0 * np.pi)
        assert np.allclose(u1[2, :, :, 0], expected, atol=1e-15)
        assert np.all(u0[0] == 0.0) and np.all(u0[1] == 0.0)

    def test_vorticity_is_spectral_curl(self, grid, ops):
        u, w = shear_flow(grid, 0.0)
        w_spec = ops.inv(ops.curl(ops.fwd(u)))
        assert np.max(np.abs(w_spec - w)) < 1e-6

    def test_zero_divergence(self, grid, ops):
        u, _ = shear_flow(grid, 0.0)
        assert ops.gates(ops.fwd(u), u)[0] < 1e-12


class TestPerturbationSpec:
    @pytest.mark.parametrize("name,value,message", [
        ("amplitude", np.nan, "amplitude must be finite, got nan"),
        ("amplitude", np.inf, "amplitude must be finite, got inf"),
        ("sigma", np.nan, "sigma must be finite, got nan"),
        ("sigma", np.inf, "sigma must be finite, got inf"),
        ("modes", (), "modes must be a nonempty list of nonnegative integers, got ()"),
        ("modes", (1.5,), "modes must be a nonempty list of nonnegative integers, got (1.5,)"),
        ("modes", (0, np.nan), "modes must be a nonempty list of nonnegative integers, "
                               "got (0, nan)"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ])
    def test_rejects_at_construction(self, name, value, message):
        # each was accepted once and drawn into non-finite coefficients or,
        # for modes = (), a "degenerate perturbation draw"; a bad seed met
        # the generator's own error, and a non-integer mode drew a field that
        # is not helical
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PerturbationSpec(**{name: value})

    def test_numpy_integer_modes_pass(self):
        assert PerturbationSpec(modes=tuple(np.arange(3))).modes == (0, 1, 2)

    def test_experiment_config_reports_a_non_integer_mode(self):
        assert ExperimentConfig(modes=(0, 1.5)).validate() == [
            "[initial] modes must be a nonempty list of nonnegative integers, got (0, 1.5)"
        ]

    def test_lists_every_violation(self):
        with pytest.raises(ValueError) as excinfo:
            PerturbationSpec(amplitude=-1.0, modes=(1, -2), sigma=0.0)
        assert str(excinfo.value) == (
            "amplitude must be nonnegative, got -1.0; "
            "modes must be a nonempty list of nonnegative integers, got (1, -2); "
            "sigma must be positive, got 0.0"
        )


class TestPerturbationGenerator:
    def test_target_h1_amplitude(self, grid, ops):
        spec = PerturbationSpec(seed=0, amplitude=0.1, sigma=2.0)
        v = random_helical_perturbation(spec, grid, ops)
        h1 = np.sqrt(ops.l2_norm_sq(v) + ops.grad_norm_sq(v))
        assert h1 == pytest.approx(0.1, rel=1e-12)

    def test_divergence_free_and_helical(self, grid, ops):
        spec = PerturbationSpec(seed=1, amplitude=0.1, sigma=2.0)
        v = random_helical_perturbation(spec, grid, ops)
        max_div, defect = ops.gates(v, ops.inv(v))
        assert max_div < 1e-13
        assert defect < 1e-8

    def test_seed_reproducibility(self, grid, ops):
        spec = PerturbationSpec(seed=7, amplitude=0.2, sigma=2.0)
        v1 = random_helical_perturbation(spec, grid, ops)
        v2 = random_helical_perturbation(spec, grid, ops)
        assert np.array_equal(v1, v2)
        v3 = random_helical_perturbation(
            PerturbationSpec(seed=8, amplitude=0.2, sigma=2.0), grid, ops
        )
        assert not np.allclose(v1, v3)

    def test_an_experiment_config_draws_as_its_spec(self, grid, ops):
        # the draw reads seed, amplitude, modes and sigma only, under the spec's rules
        cfg = ExperimentConfig(Lx=grid.Lx, seed=7, amplitude=0.2, modes=(0, 2), sigma=2.0)
        spec = PerturbationSpec(seed=7, amplitude=0.2, modes=(0, 2), sigma=2.0)
        v = random_helical_perturbation(cfg, grid, ops)
        assert v.tobytes() == random_helical_perturbation(spec, grid, ops).tobytes()
        wide = ExperimentConfig(Lx=grid.Lx, sigma=grid.Lx / 4, amplitude=-1.0)
        with pytest.raises(ValueError, match=re.escape(
            "amplitude must be nonnegative, got -1.0; sigma must not exceed Lx/16 = 2.5"
        )):
            random_helical_perturbation(wide, grid, ops)

    def test_rejects_wide_envelope(self, grid, ops):
        spec = PerturbationSpec(seed=0, amplitude=0.1, sigma=grid.Lx / 4)
        with pytest.raises(ValueError, match="sigma"):
            random_helical_perturbation(spec, grid, ops)

    def test_rejects_ops_of_another_grid(self, grid):
        other = SpectralOps(GridSpec.cube(grid.nx, grid.Lx - 4.0, grid.pitch))
        with pytest.raises(ValueError, match="ops were built for grid"):
            random_helical_perturbation(PerturbationSpec(seed=0, sigma=2.0), grid, other)

    def test_rejects_negative_mode(self, grid, ops):
        with pytest.raises(ValueError, match="mode"):
            random_helical_perturbation(
                PerturbationSpec(seed=0, amplitude=0.1, modes=(-1,), sigma=2.0),
                grid,
                ops,
            )
