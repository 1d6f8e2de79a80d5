"""Radial Crank-Nicolson engine, Biot-Savart quadrature and weighted norms."""

import re

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from helns import radial
from helns.diagnostics import rate_study
from helns.fields import shear_f, shear_g
from helns.grid import GridSpec
from helns.radial import (
    DomainTooSmallError,
    RadialProfile,
    kummer_tail_profile,
    mean_vorticity_from_utheta,
    oseen_extraction,
    profile_l2_norm_2d,
    radial_biot_savart,
    radial_laplacian,
    run_radial,
    uniform_radii,
    weighted_l2m_norm_profile,
    zero_mass_check,
)


def _gaussian(r, s):
    return np.exp(-(r**2) / (4.0 * s)) / (4.0 * np.pi * s)


class TestProfile:
    def test_requires_axis_node(self):
        with pytest.raises(ValueError, match="r = 0"):
            RadialProfile(np.array([0.5, 1.0]), np.zeros(2))

    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            RadialProfile(np.array([0.0, 1.0, 0.5]), np.zeros(3))

    @pytest.mark.parametrize(
        "r", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [0.0, 1.0, np.inf, np.inf]]
    )
    def test_rejects_non_finite_radii(self, r):
        with np.errstate(all="raise"):  # no inf - inf on the way to the message
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                RadialProfile(np.array(r), np.zeros(len(r)))

    def test_integrate_r_dr(self):
        r = uniform_radii(30.0, 6000)
        prof = RadialProfile(r, _gaussian(r, 1.0))
        # int G r dr = 1 / (2 pi) for the unit-mass Gaussian
        integral = np.trapezoid(prof.values * prof.r, prof.r)
        assert integral == pytest.approx(1.0 / (2 * np.pi), rel=1e-5)


class TestHeatEngine:
    def test_even_parity_gaussian_evolution(self):
        r = uniform_radii(40.0, 2048)
        prof = RadialProfile(r, _gaussian(r, 1.0))
        out = run_radial(prof, 1.0, 1.0 / 512, parity="even")
        exact = _gaussian(r, 2.0)
        assert np.max(np.abs(out.values - exact)) < 1e-6

    def test_odd_parity_shear_vorticity_evolution(self):
        # w_theta = -d/dr f obeys the odd-parity radial heat equation
        r = uniform_radii(40.0, 2048)
        prof = RadialProfile(r, shear_g(r, 0.0))
        out = run_radial(prof, 0.5, 1.0 / 1024, parity="odd")
        exact = shear_g(r, 0.5)
        assert np.max(np.abs(out.values - exact)) / np.max(np.abs(exact)) < 1e-4

    def test_odd_parity_pins_axis(self):
        r = uniform_radii(10.0, 256)
        prof = RadialProfile(r, r * np.exp(-(r**2)))
        out = run_radial(prof, 1e-3, 1e-3, parity="odd")
        assert out.values[0] == 0.0

    def test_constant_is_even_steady_state(self):
        r = uniform_radii(10.0, 128)
        prof = RadialProfile(r, np.full(r.size, 0.37))
        out = run_radial(prof, 0.5, 1e-2, parity="even", boundary_tol=1.0)
        assert np.allclose(out.values, 0.37, atol=1e-13)

    def test_zero_stays_zero(self):
        r = uniform_radii(10.0, 128)
        out = run_radial(RadialProfile(r, np.zeros_like(r)), 1.0, 1e-2, parity="even")
        assert np.all(out.values == 0.0)

    def test_domain_too_small(self):
        r = uniform_radii(5.0, 128)
        prof = RadialProfile(r, _gaussian(r, 20.0))
        with pytest.raises(DomainTooSmallError):
            run_radial(prof, 1.0, 1e-2, parity="even")

    def test_second_order_in_time(self):
        r = uniform_radii(40.0, 4096)
        h0 = _gaussian(r, 1.0)
        errs = []
        for nst in (8, 16, 32):
            out = run_radial(RadialProfile(r, h0), 1.0, 1.0 / nst, parity="even")
            errs.append(np.max(np.abs(out.values - _gaussian(r, 2.0))))
        order = np.log2(errs[0] / errs[1])
        assert order == pytest.approx(2.0, abs=0.2)
        assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.3)

    def test_observer_cadence(self):
        r = uniform_radii(10.0, 64)
        seen = []
        run_radial(
            RadialProfile(r, _gaussian(r, 1.0)),
            0.1,
            0.01,
            parity="even",
            observer=lambda t, values: seen.append(t),
            observe_every=5,
            boundary_tol=1.0,
        )
        # exact times k dt, the last one t_end itself
        assert seen == [5 * 0.01, 0.1]
        # a stride that does not divide the step count still ends on t_end
        seen.clear()
        run_radial(RadialProfile(r, _gaussian(r, 1.0)), 1.0, 0.25, parity="even",
                   observer=lambda t, values: seen.append(t), observe_every=3,
                   boundary_tol=1.0)
        assert seen == [0.75, 1.0]

    @pytest.mark.parametrize("m,message", [
        (0.9, r"m must lie in \(1, 2\) for the weighted-tail study, got 0.9"),
        (2.0, r"m must lie in \(1, 2\) for the weighted-tail study, got 2.0"),
        (np.nan, "m must be finite, got nan"),
        (None, "initial 'kummer' needs a weight exponent m"),
    ], ids=["0.9", "2.0", "nan", "None"])
    def test_rate_study_rejects_m_outside_the_tail_range(self, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rate_study(m)

    def test_rate_study_times_are_on_the_grid(self):
        times = rate_study(initial="gaussian").times
        assert np.array_equal(times, np.arange(1, 101) * 0.32)
        assert times[-1] == 32.0


def _cn_reference(profile, t_end, dt, parity):
    """CN steps to t_end, each a fresh banded solve of (I - dt/2 A) h_new = (I + dt/2 A) h."""
    nsteps = max(1, int(np.ceil(t_end / dt)))
    dt = t_end / nsteps
    lo, di, up = radial_laplacian(profile.r, parity)
    h = profile.values
    for _ in range(nsteps):
        rhs = h + 0.5 * dt * (
            np.concatenate(([0.0], lo * h[:-1]))
            + di * h
            + np.concatenate((up * h[1:], [0.0]))
        )
        ab = np.zeros((3, h.size))
        ab[0, 1:] = -0.5 * dt * up
        ab[1, :] = 1.0 - 0.5 * dt * di
        ab[2, :-1] = -0.5 * dt * lo
        h = solve_banded((1, 1), ab, rhs)
    return h


def _concatenate_reference(profile, t_end, dt, parity):
    """CN steps with the three-product explicit half-step, solved with dgttrf's LU."""
    nsteps = max(1, int(np.ceil(t_end / dt)))
    dt = t_end / nsteps
    lo, di, up = radial_laplacian(profile.r, parity)
    *lu, _ = lapack.dgttrf(-0.5 * dt * lo, 1.0 - 0.5 * dt * di, -0.5 * dt * up)
    h = profile.values
    for _ in range(nsteps):
        rhs = h + 0.5 * dt * (
            np.concatenate(([0.0], lo * h[:-1]))
            + di * h
            + np.concatenate((up * h[1:], [0.0]))
        )
        h, _ = lapack.dgttrs(*lu, rhs)
    return h


def _counting(calls, func):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    return wrapper


def _time_rule(name, value):
    """run_radial's message for a time ``value`` that breaks its rule."""
    rule = "positive" if np.isfinite(value) else "finite"
    return re.escape(f"{name} must be {rule}, got {value}")


class TestFactoredEngine:
    @pytest.mark.parametrize(
        "parity,initial",
        [("even", lambda r: _gaussian(r, 1.0)), ("odd", lambda r: shear_g(r, 0.0))],
    )
    def test_run_matches_per_step_banded_solve(self, parity, initial):
        r = uniform_radii(40.0, 1024)
        prof = RadialProfile(r, initial(r))
        out = run_radial(prof, 0.3, 1.0 / 256, parity=parity)
        ref = _cn_reference(prof, 0.3, 1.0 / 256, parity)
        assert np.max(np.abs(out.values - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "parity,initial",
        [("even", lambda r: _gaussian(r, 1.0)), ("odd", lambda r: shear_g(r, 0.0))],
    )
    def test_in_place_half_step_is_bit_identical(self, parity, initial):
        # (lo + di) + up summed into one array, times dt/2, plus h: the
        # same IEEE operations as the three full products
        r = uniform_radii(40.0, 1024)
        prof = RadialProfile(r, initial(r))
        out = run_radial(prof, 0.3, 1.0 / 256, parity=parity)
        assert np.array_equal(out.values, _concatenate_reference(prof, 0.3, 1.0 / 256, parity))

    def test_run_factors_once_and_steps_through_step_radial(self, monkeypatch):
        factors, steps = [], []
        monkeypatch.setattr(lapack, "dgttrf", _counting(factors, lapack.dgttrf))
        monkeypatch.setattr(radial, "step_radial", _counting(steps, radial.step_radial))
        r = uniform_radii(10.0, 128)
        run_radial(RadialProfile(r, _gaussian(r, 1.0)), 0.25, 0.01, parity="even")
        assert len(factors) == 1
        assert len(steps) == 25

    @pytest.mark.parametrize("observe_every", [None, 1, 5, 7])
    def test_only_the_result_profile_is_built(self, observe_every, monkeypatch):
        r = uniform_radii(10.0, 128)
        prof = RadialProfile(r, _gaussian(r, 1.0))
        built = []
        monkeypatch.setattr(
            RadialProfile, "__post_init__", _counting(built, RadialProfile.__post_init__)
        )
        kwargs = {} if observe_every is None else {
            "observer": lambda t, values: None, "observe_every": observe_every
        }
        run_radial(prof, 0.25, 0.01, **kwargs)
        assert len(built) == 1

    @pytest.mark.parametrize("routine", ["dgttrf", "dgttrs"])
    def test_lapack_failure_is_reported(self, routine, monkeypatch):
        real = getattr(lapack, routine)
        monkeypatch.setattr(lapack, routine, lambda *a, **k: (*real(*a, **k)[:-1], 1))
        r = uniform_radii(10.0, 64)
        with pytest.raises(ValueError, match=f"{routine} info=1"):
            run_radial(RadialProfile(r, _gaussian(r, 1.0)), 0.01, 0.01)

    @pytest.mark.parametrize(
        "t_end,dt,name",
        [
            (1.0, 0.0, "dt"),
            (1.0, -0.1, "dt"),
            (1.0, np.nan, "dt"),
            (1.0, np.inf, "dt"),
            (-1.0, 0.1, "t_end"),
            (0.0, 0.1, "t_end"),
            (np.inf, 0.1, "t_end"),
        ],
    )
    def test_run_rejects_bad_times(self, t_end, dt, name):
        r = uniform_radii(10.0, 64)
        value = t_end if name == "t_end" else dt
        with pytest.raises(ValueError, match=f"^{_time_rule(name, value)}$"):
            run_radial(RadialProfile(r, _gaussian(r, 1.0)), t_end, dt)

    def test_run_names_every_bad_time(self):
        r = uniform_radii(10.0, 64)
        message = f"{_time_rule('t_end', np.nan)}; {_time_rule('dt', np.nan)}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_radial(RadialProfile(r, _gaussian(r, 1.0)), np.nan, np.nan)

    @pytest.mark.parametrize("dt", [-0.5, 0.0, np.nan, np.inf])
    def test_step_rejects_bad_dt(self, dt):
        # one step is run_radial(p, dt, dt), so both times break the same rule
        r = uniform_radii(10.0, 64)
        message = f"{_time_rule('t_end', dt)}; {_time_rule('dt', dt)}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_radial(RadialProfile(r, _gaussian(r, 1.0)), dt, dt)

    def test_run_rejects_a_step_count_that_overflows(self):
        r = uniform_radii(10.0, 64)
        with pytest.raises(ValueError, match="^dt must make t_end / dt finite"):
            run_radial(RadialProfile(r, _gaussian(r, 1.0)), 1.0, 1e-320)

    @pytest.mark.parametrize("observe_every", [0, -1, 2.5])
    def test_run_rejects_bad_observe_every(self, observe_every):
        r = uniform_radii(10.0, 64)
        with pytest.raises(ValueError, match="^observe_every must be an integer >= 1"):
            run_radial(
                RadialProfile(r, _gaussian(r, 1.0)), 0.1, 0.01,
                observer=lambda t, values: None, observe_every=observe_every,
            )

    def test_run_rejects_a_nonuniform_grid(self):
        r = np.concatenate((uniform_radii(5.0, 32), [5.5, 7.0, 10.0]))
        with pytest.raises(ValueError, match="uniform radial grid"):
            run_radial(RadialProfile(r, _gaussian(r, 0.1)), 0.1, 0.01)


class TestBiotSavart:
    def test_utheta_from_gaussian_vorticity(self):
        r = uniform_radii(40.0, 8192)
        w_z = RadialProfile(r, _gaussian(r, 1.0))
        zero = RadialProfile(r, np.zeros_like(r))
        u_theta, u_z = radial_biot_savart(zero, w_z)
        expected = np.zeros_like(r)
        expected[1:] = (1.0 - np.exp(-(r[1:] ** 2) / 4.0)) / (2.0 * np.pi * r[1:])
        assert np.max(np.abs(u_theta.values - expected)) < 1e-6
        assert np.all(u_z.values == 0.0)

    def test_uz_from_shear_vorticity(self):
        # u_z(r) = int_r^inf w_theta drho recovers the shear profile
        r = uniform_radii(40.0, 8192)
        w_theta = RadialProfile(r, shear_g(r, 0.0))
        zero = RadialProfile(r, np.zeros_like(r))
        _, u_z = radial_biot_savart(w_theta, zero)
        assert np.max(np.abs(u_z.values - shear_f(r, 0.0))) < 1e-7

    def test_oseen_extraction_removes_circulation_tail(self):
        r = uniform_radii(40.0, 4096)
        w_z = RadialProfile(r, _gaussian(r, 1.0))
        zero = RadialProfile(r, np.zeros_like(r))
        u_theta, _ = radial_biot_savart(zero, w_z)
        v_theta = oseen_extraction(u_theta, 1.0, spread=1.0)
        # the unit-circulation Gaussian is exactly the background: remainder ~ 0
        assert np.max(np.abs(v_theta.values)) < 1e-5

    def test_zero_mass_check_agreement(self):
        r = uniform_radii(60.0, 8192)
        w = _gaussian(r, 0.5) - _gaussian(r, 2.0)  # zero total mass
        fwd, bwd = zero_mass_check(RadialProfile(r, w))
        # away from the axis the two integrals agree to quadrature accuracy
        inner = (r >= 1.0) & (r < 30.0)
        assert np.max(np.abs(fwd[inner] - bwd[inner])) < 1e-5

    @pytest.mark.parametrize("spread", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["oseen_extraction", "mean_vorticity_from_utheta"])
    def test_background_subtraction_rejects_bad_spread(self, name, spread):
        # an infinite spread once returned the profile unchanged: the
        # background was silently not subtracted
        r = uniform_radii(10.0, 64)
        rule = "finite" if not np.isfinite(spread) else "positive"
        with pytest.raises(ValueError, match=f"^spread must be {rule}, got {spread}$"):
            getattr(radial, name)(RadialProfile(r, _gaussian(r, 1.0)), 1.0, spread=spread)

    def test_mean_vorticity_subtraction(self):
        r = uniform_radii(40.0, 1024)
        w_z = RadialProfile(r, 2.0 * _gaussian(r, 1.0))
        w_bar = mean_vorticity_from_utheta(w_z, 2.0, spread=1.0)
        assert np.max(np.abs(w_bar.values)) < 1e-15


class TestWeightedNorms:
    @pytest.mark.parametrize("pitch,message", [(-1.0, "pitch must be positive, got -1.0"),
                                               (0.0, "pitch must be positive, got 0.0"),
                                               (np.nan, "pitch must be finite, got nan"),
                                               (np.inf, "pitch must be finite, got inf")],
                             ids=["-1.0", "0.0", "nan", "inf"])
    def test_rejects_a_pitch_that_gridspec_rejects(self, pitch, message):
        # each returned nan, 0 or inf once, without an error
        r = uniform_radii(10.0, 64)
        with pytest.raises(ValueError, match=f"^{message}$"):
            weighted_l2m_norm_profile(RadialProfile(r, _gaussian(r, 1.0)), 1.5, pitch)
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSpec.cube(8, 10.0, pitch)

    def test_lists_every_broken_rule(self):
        r = uniform_radii(10.0, 64)
        with pytest.raises(ValueError, match="^m must be nonnegative, got -1.0; "
                                             "pitch must be finite, got nan$"):
            weighted_l2m_norm_profile(RadialProfile(r, _gaussian(r, 1.0)), -1.0, np.nan)

    def test_m_zero_reduces_to_plain_l2(self):
        r = uniform_radii(30.0, 2048)
        prof = RadialProfile(r, _gaussian(r, 1.0))
        plain = profile_l2_norm_2d(prof) * np.sqrt(2 * np.pi * 1.0)
        assert weighted_l2m_norm_profile(prof, 0.0, 1.0) == pytest.approx(
            plain, rel=1e-13
        )

    def test_monotone_in_m(self):
        r = uniform_radii(30.0, 2048)
        prof = RadialProfile(r, _gaussian(r, 1.0))
        norms = [weighted_l2m_norm_profile(prof, m, 1.0) for m in (0.0, 1.0, 1.5, 2.0)]
        assert np.all(np.diff(norms) > 0)

    def test_gaussian_closed_form(self):
        # for m = 1: int (1+r^2) G^2 r dr with G = e^{-r^2/4}/(4 pi) has the
        # closed value (1/(4 pi)^2) * (1 + 2) = 3/(16 pi^2) when int e^{-r^2/2} r dr = 1...
        # computed directly: int e^{-r^2/2} r dr = 1, int r^2 e^{-r^2/2} r dr = 2
        r = uniform_radii(40.0, 8192)
        prof = RadialProfile(r, np.exp(-(r**2) / 4.0) / (4.0 * np.pi))
        expected_sq = (2 * np.pi) ** 2 * 1.0 / (4 * np.pi) ** 2 * (1.0 + 2.0)
        assert weighted_l2m_norm_profile(prof, 1.0, 1.0) ** 2 == pytest.approx(
            expected_sq, rel=1e-5
        )


class TestKummerTail:
    def test_rejects_nonintegrable_exponent(self):
        with pytest.raises(ValueError, match="exceed 2"):
            kummer_tail_profile(2.0, np.linspace(0, 10, 11))

    def test_power_law_tail(self):
        p = 2.55
        r = np.array([100.0, 200.0, 400.0])
        vals = kummer_tail_profile(p, r)
        fitted = -np.log(np.abs(vals[2] / vals[0])) / np.log(r[2] / r[0])
        assert fitted == pytest.approx(p, rel=1e-3)

    def test_zero_total_mass_in_the_scaling_sense(self):
        # the truncated mass decays like R^{2-p}: it shrinks with the cutoff
        # and is a tiny fraction of the unsigned core mass
        p = 2.55
        masses = {}
        for R, n in ((500.0, 50000), (2000.0, 200000)):
            r = uniform_radii(R, n)
            prof = RadialProfile(r, kummer_tail_profile(p, r))
            masses[R] = np.trapezoid(prof.values * r, r)
        expected_ratio = (2000.0 / 500.0) ** (2.0 - p)
        assert abs(masses[2000.0] / masses[500.0]) == pytest.approx(
            expected_ratio, rel=0.1
        )
        r = uniform_radii(500.0, 50000)
        prof = RadialProfile(r, kummer_tail_profile(p, r))
        core = np.trapezoid(np.abs(prof.values) * r, r)
        assert abs(masses[500.0]) / core < 0.05
