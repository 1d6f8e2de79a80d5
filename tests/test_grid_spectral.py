"""Grid geometry and spectral operator tests."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from helns import solver
from helns.fields import PerturbationSpec, random_helical_perturbation
from helns.grid import GridSpec
from helns.solver import _ROWS
from helns.spectral import SpectralOps


@pytest.fixture(scope="module")
def grid():
    return GridSpec(nx=16, ny=16, nz=16, Lx=20.0, pitch=1.0)


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOps(grid)


def _smooth_field(grid, rng, ncomp=3):
    """Band-limited random field built from a few low wavenumbers."""
    x = grid.x[:, None, None]
    y = grid.y[None, :, None]
    z = grid.z[None, None, :]
    out = np.zeros((ncomp, grid.nx, grid.ny, grid.nz))
    for c in range(ncomp):
        for _ in range(4):
            kx, ky, kz = rng.integers(-3, 4, size=3)
            amp, phase = rng.standard_normal(), rng.uniform(0, 2 * np.pi)
            out[c] += amp * np.cos(
                2 * np.pi * kx * x / grid.Lx
                + 2 * np.pi * ky * y / grid.Ly
                + 2 * np.pi * kz * z / grid.Lz
                + phase
            )
    return out


class TestGridSpec:
    def test_vertical_length_is_2pi_pitch(self):
        g = GridSpec.cube(16, 10.0, 2.5)
        assert g.Lz == pytest.approx(2 * np.pi * 2.5, rel=1e-15)

    @pytest.mark.parametrize("n", [7, 9, 4, 15, 16.0])
    def test_rejects_bad_sample_counts(self, n):
        with pytest.raises(ValueError, match=f"^nx must be an even integer >= 8, got {n}$"):
            GridSpec(nx=n, ny=16, nz=16, Lx=1.0, pitch=1.0)

    def test_rejects_rectangular_cross_section(self):
        # Ly is Lx, read-only: a rectangular box cannot be built
        g = GridSpec(nx=16, ny=16, nz=16, Lx=1.0, pitch=1.0)
        assert g.Ly == g.Lx == 1.0
        with pytest.raises(TypeError, match="Ly"):
            GridSpec(nx=16, ny=16, nz=16, Lx=1.0, Ly=2.0, pitch=1.0)
        with pytest.raises(AttributeError):
            g.Ly = 2.0

    @pytest.mark.parametrize("Lx,pitch,match", [(np.inf, 1.0, "Lx must be finite"),
                                                (np.nan, 1.0, "Lx must be finite"),
                                                (20.0, np.inf, "pitch")])
    def test_rejects_nonfinite_lengths(self, Lx, pitch, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(nx=16, ny=16, nz=16, Lx=Lx, pitch=pitch)

    def test_lists_every_violation(self):
        with pytest.raises(ValueError) as excinfo:
            GridSpec(nx=7, ny=16, nz=10.5, Lx=np.nan, pitch=-1.0)
        assert str(excinfo.value) == (
            "nx must be an even integer >= 8, got 7; nz must be an even integer >= 8, "
            "got 10.5; Lx must be finite, got nan; pitch must be positive, got -1.0"
        )

    def test_accepts_numpy_integer_counts(self):
        assert GridSpec.cube(np.int64(16), 20.0, 1.0).spectral_shape == (16, 16, 9)

    def test_rejects_nonpositive_pitch(self):
        with pytest.raises(ValueError, match="pitch"):
            GridSpec.cube(16, 1.0, 0.0)

    def test_center_defaults_to_box_center(self, grid):
        assert grid.center == (10.0, 10.0)

    def test_wrapped_coordinates_cover_half_box(self, grid):
        assert grid.xc.min() == pytest.approx(-grid.Lx / 2)
        assert abs(grid.xc).max() <= grid.Lx / 2

    # 10, 20 and 66 are sizes where fftfreq(n) * n puts the mode n//3 just
    # above n//3
    @pytest.mark.parametrize("n", [10, 16, 20, 48, 66])
    def test_dealias_mask_keeps_modes_up_to_a_third(self, n):
        g = GridSpec(nx=n, ny=n, nz=n, Lx=20.0, pitch=1.0)
        m = g.dealias_mask
        assert m.shape == g.spectral_shape
        assert np.count_nonzero(m.any(axis=(1, 2))) == 2 * (n // 3) + 1
        assert np.count_nonzero(m.any(axis=(0, 2))) == 2 * (n // 3) + 1
        assert np.flatnonzero(m.any(axis=(0, 1))).tolist() == list(range(n // 3 + 1))


class TestTransforms:
    def test_round_trip(self, grid, ops):
        rng = np.random.default_rng(0)
        f = _smooth_field(grid, rng)
        assert np.allclose(ops.inv(ops.fwd(f)), f, atol=1e-13)

    def test_parseval(self, grid, ops):
        rng = np.random.default_rng(1)
        f = _smooth_field(grid, rng)
        spectral = ops.l2_norm_sq(ops.fwd(f))
        physical = float(np.sum(f**2)) * grid.cell_volume
        assert spectral == pytest.approx(physical, rel=1e-12)

    def test_derivative_exact_on_single_mode(self, grid, ops):
        x = grid.x[:, None, None]
        k = 3 * 2 * np.pi / grid.Lx
        f = np.sin(k * x) * np.ones((1, grid.nx, grid.ny, grid.nz))
        df = ops.inv(1j * ops.kx * ops.fwd(f))
        assert np.allclose(df, k * np.cos(k * x), atol=1e-12)

    def test_laplacian_matches_gradient_norm(self, grid, ops):
        rng = np.random.default_rng(2)
        F = ops.fwd(_smooth_field(grid, rng))
        # <f, -Lap f> = |grad f|^2 for periodic fields
        lhs = ops.inner(F, ops.k2 * F)
        assert lhs == pytest.approx(ops.grad_norm_sq(F), rel=1e-12)


class TestProjections:
    def test_leray_removes_divergence(self, grid, ops):
        rng = np.random.default_rng(3)
        F = ops.fwd(_smooth_field(grid, rng))
        P = ops.leray(F)
        assert ops.gates(P, ops.inv(P))[0] < 1e-12

    def test_leray_idempotent(self, grid, ops):
        rng = np.random.default_rng(4)
        F = ops.leray(ops.fwd(_smooth_field(grid, rng)))
        assert np.allclose(ops.leray(F), F, atol=1e-14)

    def test_q_and_perp_are_complementary(self, grid, ops):
        rng = np.random.default_rng(5)
        F = ops.fwd(_smooth_field(grid, rng))
        assert np.allclose(ops.project_Q(F) + ops.perp(F), F, atol=1e-14)
        # Q keeps only vertically averaged content
        q_phys = ops.inv(ops.project_Q(F))
        assert np.allclose(q_phys, q_phys[..., :1], atol=1e-13)
        # the perp part has zero vertical mean
        assert np.allclose(ops.inv(ops.perp(F)).mean(axis=-1), 0.0, atol=1e-14)

    def test_energy_pythagoras(self, grid, ops):
        rng = np.random.default_rng(6)
        F = ops.fwd(_smooth_field(grid, rng))
        total = ops.l2_norm_sq(F)
        split = ops.l2_norm_sq(ops.project_Q(F)) + ops.l2_norm_sq(ops.perp(F))
        assert split == pytest.approx(total, rel=1e-13)


class TestCurl:
    def test_inverse_curl_recovers_solenoidal_field(self, grid, ops):
        rng = np.random.default_rng(7)
        U = ops.leray(ops.fwd(_smooth_field(grid, rng)))
        U -= ops.fwd(ops.inv(U).mean(axis=(1, 2, 3))[:, None, None, None] * np.ones(grid.shape))
        W = ops.curl(U)
        V, correction = ops.inverse_curl(W)
        assert ops.l2_norm(V - U) / ops.l2_norm(U) < 1e-12
        assert correction < 1e-14

    def test_curl_of_gradient_vanishes(self, grid, ops):
        rng = np.random.default_rng(8)
        phi = ops.fwd(_smooth_field(grid, rng, ncomp=1))[0]
        G = np.stack([1j * k * phi for k in grid.kvec])
        assert ops.l2_norm(ops.curl(G)) < 1e-12


    def test_inverse_curl_reports_the_gradient_part(self, grid, ops):
        # a non-solenoidal W: the curl drops its gradient part, whose relative
        # size is reported
        W = ops.fwd(_smooth_field(grid, np.random.default_rng(12)))
        Wsol = ops.leray(W)
        V, correction = ops.inverse_curl(W)
        assert correction > 0.1
        assert correction == pytest.approx(ops.l2_norm(W - Wsol) / ops.l2_norm(W), rel=1e-13)
        ref = ops.curl(Wsol) * ops.inv_k2
        assert ops.l2_norm(V - ref) <= 1e-14 * ops.l2_norm(ref)

    @pytest.mark.parametrize("shape", [(16, 16, 16), (24, 16, 20)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_curl_equals_the_expression_form(self, shape):
        # the six products as expressions, one subtraction each into the
        # output, then the factor i
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        rng = np.random.default_rng(shape[2])
        U = g_ops.fwd(rng.standard_normal((3,) + g.shape))
        kx, ky, kz = g.kvec
        ref = np.empty(U.shape, dtype=complex)
        np.subtract(ky * U[2], kz * U[1], out=ref[0])
        np.subtract(kz * U[0], kx * U[2], out=ref[1])
        np.subtract(kx * U[1], ky * U[0], out=ref[2])
        ref *= 1j
        assert g_ops.curl(U).tobytes() == ref.tobytes()

    def test_curl_writes_one_output(self, grid, ops):
        U = ops.fwd(_smooth_field(grid, np.random.default_rng(13)))
        kx, ky, kz = grid.kvec
        ref = np.stack([1j * (ky * U[2] - kz * U[1]), 1j * (kz * U[0] - kx * U[2]),
                        1j * (kx * U[1] - ky * U[0])])
        assert ops.curl(U).tobytes() == ref.tobytes()


class TestBandTendency:
    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("n", [16, 32])
    def test_equals_full_array_projection(self, n, a):
        # the tail's input, the block transform of the products, is taken
        # from a real RHS call; the reference scatters it and takes the
        # divergence rows (a = 0) and -P dealias(.) with the full-array
        # operators
        g = GridSpec.cube(n, 20.0, 1.0)
        g_ops = SpectralOps(g)
        spec = PerturbationSpec(seed=n, amplitude=0.5, sigma=1.2)
        v_hat = random_helical_perturbation(spec, g, g_ops)
        products, projected = [], []
        fwd_band, leray = g_ops.fwd_band, g_ops.leray

        def recorded_fwd_band(f):
            products.append(fwd_band(f))
            return products[-1]

        def recorded_leray(U):
            projected.append(U.shape)
            return leray(U)

        g_ops.fwd_band, g_ops.leray = recorded_fwd_band, recorded_leray
        rhs = g_ops.scatter(solver._Rhs(g_ops, a)(g_ops.gather(v_hat), 0.25))
        (S,) = products
        # the tail projects one block
        assert projected == [(3,) + g_ops.band_shape]
        F = g_ops.scatter(S)
        if a == 0.0:
            F = np.stack([g_ops.divergence([F[k] for k in row]) for row in _ROWS])
        ref = -leray(g_ops.dealias(F))
        # the tendency is zero outside the kept block
        kept = g.dealias_mask
        assert rhs[:, kept].tobytes() == ref[:, kept].tobytes()
        assert not np.any(rhs[:, ~kept])


def _defect(ops, U):
    return ops.gates(U, ops.inv(U))[1]


def _coefficient_defect(ops, U):
    """Reference defect: d/dx u_c, d/dy u_c and L d/dz u_c plus the shift of
    component c, each inverted from the coefficients."""
    L = ops.grid.pitch
    shift = (U[1], -U[0], 0.0)
    xc = ops.grid.xc[..., None]
    yc = ops.grid.yc[..., None]
    mask = (ops.grid.r2d <= 0.25 * ops.grid.Lx)[..., None]
    total = 0.0
    for c in range(3):
        dx_c = ops.inv(1j * ops.kx * U[c])
        dy_c = ops.inv(1j * ops.ky * U[c])
        axial_c = ops.inv(L * (1j * ops.kz * U[c]) + shift[c])
        defect = xc * dy_c - yc * dx_c + axial_c
        total += float(np.sum((defect * mask) ** 2) * ops.grid.cell_volume)
    return float(np.sqrt(total / (ops.l2_norm_sq(U) + ops.grad_norm_sq(U))))


def _full_grid_defect(ops, U, u, grads):
    """The defect of :meth:`SpectralOps.gates` summed over the whole grid."""
    L = ops.grid.pitch
    shift = (u[1], -u[0], 0.0)
    xc = ops.grid.xc[..., None]
    yc = ops.grid.yc[..., None]
    mask = (ops.grid.r2d <= 0.25 * ops.grid.Lx)[..., None]
    total = 0.0
    for c in range(3):
        defect = xc * grads[c, 1] - yc * grads[c, 0] + L * grads[c, 2] + shift[c]
        total += float(np.sum((defect * mask) ** 2) * ops.grid.cell_volume)
    return float(np.sqrt(total / (ops.l2_norm_sq(U) + ops.grad_norm_sq(U))))


class TestHelicalDefect:
    def test_zero_for_zero_field(self, grid, ops):
        assert _defect(ops, ops.fwd(np.zeros((3,) + grid.shape))) == 0.0

    def test_zero_for_axisymmetric_columnar_field(self):
        # u = f(r) e_z is invariant under the helical symmetry; the residual
        # is the spectral truncation of the sampled Gaussian.
        g = GridSpec.cube(32, 20.0, 1.0)
        f = np.exp(-g.r2d**2 / 6.0)
        u = np.zeros((3,) + g.shape)
        u[2] = f[..., None]
        g_ops = SpectralOps(g)
        assert _defect(g_ops, g_ops.fwd(u)) < 1e-6

    def test_large_for_non_helical_field(self, grid, ops):
        u = np.zeros((3,) + grid.shape)
        u[0] = np.cos(2 * np.pi * grid.x / grid.Lx)[:, None, None] * np.exp(
            -grid.r2d[..., None] ** 2
        )
        assert _defect(ops, ops.fwd(u)) > 1e-2

    @pytest.mark.parametrize("seed", [10, 11])
    def test_gradient_forms_match_coefficient_references(self, grid, ops, seed):
        # neither field is solenoidal nor helical, so both quantities are O(1)
        U = ops.fwd(_smooth_field(grid, np.random.default_rng(seed)))
        max_div, defect = ops.gates(U, ops.inv(U))
        assert defect == pytest.approx(_coefficient_defect(ops, U), rel=1e-12)
        spectral_div = float(np.max(np.abs(ops.inv(ops.divergence(U)))))
        assert max_div == pytest.approx(spectral_div, rel=1e-12)


    @pytest.mark.parametrize("n,Lx", [(16, 20.0), (32, 20.0), (34, 13.0)])
    def test_block_matches_full_grid(self, n, Lx):
        g = GridSpec.cube(n, Lx, 1.0)
        g_ops = SpectralOps(g)
        for U in (
            g_ops.fwd(_smooth_field(g, np.random.default_rng(n))),
            random_helical_perturbation(PerturbationSpec(seed=n, sigma=0.6), g, g_ops),
        ):
            u = g_ops.inv(U)
            ref = _full_grid_defect(g_ops, U, u, g_ops.gradients(U))
            assert ref > 0.0
            defect = g_ops.gates(U, u)[1]
            assert defect == pytest.approx(ref, rel=1e-14, abs=0.0)


# 34 and 48 are where 1/n per pass, instead of 1/N once, changes the bits
_BAND_SHAPES = [(16, 16, 16), (32, 32, 32), (34, 34, 34), (48, 48, 48), (24, 16, 20)]


def _irfftn(F, grid):
    """The reference inverse: ``scipy.fft.irfftn``, which the package no
    longer calls."""
    return scipy.fft.irfftn(F, s=grid.shape, axes=(-3, -2, -1))


class TestFullInverse:
    """``inv`` of full-shape coefficients runs the pruned inverse's x, y and z
    passes on every line, with the bits of ``scipy.fft.irfftn``."""

    @pytest.mark.parametrize("shape", _BAND_SHAPES + [(64, 64, 64), (64, 64, 24)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=str)
    def test_bitwise_equal_to_irfftn(self, shape, lead):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        rng = np.random.default_rng(sum(shape) + len(lead))
        cshape = lead + g.spectral_shape
        for F in (
            g_ops.fwd(rng.standard_normal(lead + g.shape)),  # Hermitian in its kz = 0 plane
            rng.standard_normal(cshape) + 1j * rng.standard_normal(cshape),  # not
        ):
            ref = _irfftn(F, g).tobytes()
            F_in = F.copy()
            assert g_ops.inv(F).tobytes() == ref
            assert F.tobytes() == F_in.tobytes()
            assert g_ops._inv_pruned(F, slice(None), slice(None), overwrite=True).tobytes() == ref


class TestDiskGradients:
    @pytest.mark.parametrize("shape", _BAND_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_bitwise_equal_to_full_gradients(self, shape):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        bx, by = g_ops.disk
        for U in (
            g_ops.fwd(np.random.default_rng(shape[0]).standard_normal((3,) + g.shape)),
            random_helical_perturbation(PerturbationSpec(seed=shape[1], sigma=1.2), g, g_ops),
        ):
            full = g_ops.gradients(U)
            u = g_ops.inv(U)
            max_div, defect = g_ops.gates(U, u)
            assert max_div == float(np.max(np.abs(full[0, 0] + full[1, 1] + full[2, 2])))
            assert defect > 0.0
            assert (max_div, defect) == g_ops.gates(U, u, full)
            assert g_ops._inv_pruned(U[0], bx, by).tobytes() == np.ascontiguousarray(
                _irfftn(U[0], g)[bx, by]).tobytes()

    def test_leaves_its_input_unchanged(self, ops):
        F = ops.fwd(np.random.default_rng(4).standard_normal(ops.grid.shape))
        F_in = F.copy()
        bx, by = ops.disk
        assert ops._inv_pruned(F, bx, by).tobytes() == np.ascontiguousarray(
            _irfftn(F, ops.grid)[bx, by]).tobytes()
        assert F.tobytes() == F_in.tobytes()

    def test_block_holds_the_disk(self):
        g = GridSpec(nx=24, ny=16, nz=20, Lx=20.0, pitch=1.0)
        bx, by = SpectralOps(g).disk
        disk = g.r2d <= 0.25 * g.Lx
        assert disk[bx, by].sum() == disk.sum()
        assert disk[bx, by].any(axis=1).all() and disk[bx, by].any(axis=0).all()


def _nine_gradient_gates(ops, U, u, grads=None):
    """The gates as formed from all nine gradients at once: the disk block
    of each held together, the divergence summed from the three diagonal
    ones and each component's defect term from fresh temporaries."""
    bx, by = ops.disk
    if grads is None:
        grads = np.empty((3, 3, bx.stop - bx.start, by.stop - by.start, ops.grid.nz))
        div = None
        for i in range(3):
            for j, ik in enumerate(ops._wavenumbers(U).ik):
                mult = ik * U[i]
                if i != j:
                    grads[i, j] = ops._inv_pruned(mult, bx, by)
                    continue
                d_ii = ops.inv(mult)
                grads[i, i] = d_ii[bx, by]
                div = d_ii if div is None else div + d_ii
    else:
        div = grads[0, 0] + grads[1, 1] + grads[2, 2]
        grads = grads[:, :, bx, by]
    max_div = float(np.max(np.abs(div)))
    h1_sq = ops.l2_norm_sq(U) + ops.grad_norm_sq(U)
    if h1_sq == 0.0:
        return max_div, 0.0
    L = ops.grid.pitch
    shift = (u[1, bx, by], -u[0, bx, by], 0.0)
    xc = ops.grid.xc[bx, :, None]
    yc = ops.grid.yc[:, by, None]
    mask = (ops.grid.r2d <= 0.25 * ops.grid.Lx)[bx, by][..., None]
    total = 0.0
    for c in range(3):
        axial_c = L * grads[c, 2] + shift[c]
        defect = xc * grads[c, 1] - yc * grads[c, 0] + axial_c
        total += float(np.sum((defect * mask) ** 2) * ops.grid.cell_volume)
    return max_div, float(np.sqrt(total / h1_sq))


class TestGatesBits:
    """:meth:`SpectralOps.gates` holds one component's gradients at a time
    and folds its defect term in two kept buffers, with the bits of the
    nine-gradient formula."""

    @pytest.mark.parametrize("shape", [(16, 16, 16), (32, 32, 32), (24, 16, 20)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_equal_to_the_nine_gradient_formula(self, shape):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        for U in (
            g_ops.fwd(_smooth_field(g, np.random.default_rng(shape[0]))),
            random_helical_perturbation(PerturbationSpec(seed=shape[2], sigma=1.2), g, g_ops),
        ):
            for V in (U, g_ops.gather(U)):  # full shape, kept block
                V_in = V.copy()
                u = g_ops.inv(V)
                grads = g_ops.gradients(V)
                for given in (None, grads):
                    assert g_ops.gates(V, u, given) == _nine_gradient_gates(g_ops, V, u, given)
                assert V.tobytes() == V_in.tobytes()
                assert g_ops.l2_and_grad_norm_sq(V) == (g_ops.l2_norm_sq(V),
                                                        g_ops.grad_norm_sq(V))

    def test_zero_field(self, ops):
        Z = np.zeros((3,) + ops.grid.spectral_shape, complex)
        assert ops.gates(Z, ops.inv(Z)) == _nine_gradient_gates(ops, Z, ops.inv(Z)) == (0.0, 0.0)

    def test_traced_peak_of_a_full_shape_call(self):
        # one component's gradients at a time, the disk inverses' x pass in
        # the multiplier buffer: 1.25 MiB above the inputs at 32^3, against
        # 1.74 MiB when all nine gradients and each defect temporary are held
        g = GridSpec.cube(32, 20.0, 1.0)
        g_ops = SpectralOps(g)
        W = g_ops.curl(random_helical_perturbation(PerturbationSpec(seed=3, sigma=1.2), g, g_ops))
        w = g_ops.inv(W)
        g_ops.gates(W, w)
        tracemalloc.start()
        try:
            g_ops.gates(W, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestBandTransforms:
    # blocks = 2: another block's calls leave the kept buffers dirty first
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("shape", _BAND_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_bitwise_equal_to_full_transforms(self, shape, blocks):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        rng = np.random.default_rng(sum(shape))
        B = (rng.standard_normal((3,) + g_ops.band_shape)
             + 1j * rng.standard_normal((3,) + g_ops.band_shape))
        B_in = B.copy()
        ref = _irfftn(g_ops.scatter(B), g)
        if blocks == 2:
            g_ops.inv(_random_block(g_ops, np.random.default_rng(0)))
        # the second call reuses the buffers the first one overwrote
        for _ in range(2):
            assert g_ops.inv(B).tobytes() == ref.tobytes()
        assert B.tobytes() == B_in.tobytes()
        assert g_ops.gradients(B).tobytes() == g_ops.gradients(g_ops.scatter(B)).tobytes()
        for ncomp in (3, 6):
            f = rng.standard_normal((ncomp,) + g.shape)
            assert g_ops.fwd_band(f).tobytes() == g_ops.gather(g_ops.fwd(f)).tobytes()

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("shape", _BAND_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_block_inverses_equal_the_scattered_calls(self, shape, blocks):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        bx, by = g_ops.disk
        B = _random_block(g_ops, np.random.default_rng(sum(shape) + 4))
        B_in = B.copy()
        if blocks == 2:  # both leads' buffers, dirtied by a whole and a disk call
            other = _random_block(g_ops, np.random.default_rng(0))
            for field in (other, other[1]):
                g_ops.inv(field)
                g_ops._inv_pruned(field, bx, by)
        for field in (B, B[1]):
            whole = _irfftn(g_ops.scatter(field), g)
            disk = g_ops._inv_pruned(g_ops.scatter(field), bx, by).tobytes()
            assert disk == np.ascontiguousarray(whole[..., bx, by, :]).tobytes()
            whole = whole.tobytes()
            # whole, disk, whole: each call rewrites the buffer rows the last one used
            assert g_ops.inv(field).tobytes() == whole
            assert g_ops._inv_pruned(field, bx, by).tobytes() == disk
            assert g_ops.inv(field).tobytes() == whole
        u = g_ops.inv(B)
        max_div, defect = g_ops.gates(B, u)
        assert (max_div, defect) == g_ops.gates(B, u, g_ops.gradients(B))
        # the H1 normalizer is the block's norm, the full one's to round-off
        ref_div, ref_defect = g_ops.gates(g_ops.scatter(B), u)
        assert max_div == ref_div and defect == pytest.approx(ref_defect, rel=1e-14, abs=0.0)
        assert B.tobytes() == B_in.tobytes()

    @pytest.mark.parametrize("shape", _BAND_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_block_is_the_kept_2_3_rule_modes(self, shape):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        ones = np.ones((2,) + g_ops.band_shape, dtype=complex)
        full = g_ops.scatter(ones)
        assert full.shape == (2,) + g.spectral_shape
        assert np.array_equal(full[0] != 0, g.dealias_mask)
        assert g_ops.gather(full).tobytes() == ones.tobytes()
        assert g_ops.band_k2.tobytes() == g_ops.gather(g.k_squared).tobytes()

    def test_every_pass_transforms_only_the_kept_lines(self, grid, fft_ledger):
        # the lines the block keeps or can fill, and every line of a full shape
        g_ops = SpectralOps(grid)
        nx, ny, nz = grid.shape
        nzr = nz // 2 + 1
        nbx, nby, nzk = g_ops.band_shape
        lo = nx // 3 + 1  # the block's rows of the first kx run
        dr, dc = (b.stop - b.start for b in g_ops.disk)
        B = np.ones((3,) + g_ops.band_shape, dtype=complex)
        F = g_ops.fwd(np.ones((3,) + grid.shape))
        g_ops.inv(B)
        g_ops.fwd_band(np.ones((6,) + grid.shape))
        g_ops._inv_pruned(B, *g_ops.disk)
        g_ops.inv(F)
        g_ops._inv_pruned(F[0], *g_ops.disk)
        g_ops.inv_plane(g_ops.fwd_plane(np.ones((3, nx, ny))))
        assert [(p.kind, p.axis, p.lines, p.length) for p in fft_ledger.passes] == [
            ("r2c", -1, 3 * nx * ny, nz),  # rfftn's z pass
            ("c2c", -3, 3 * nby * nzk, nx), ("c2c", -2, 3 * nx * nzk, ny),
            ("c2r", -1, 3 * nx * ny, nz),
            ("r2c", -1, 6 * nx * ny, nz), ("c2c", -3, 6 * ny * nzk, nx),
            ("c2c", -2, 6 * lo * nzk, ny), ("c2c", -2, 6 * (nbx - lo) * nzk, ny),
            ("c2c", -3, 3 * nby * nzk, nx), ("c2c", -2, 3 * dr * nzk, ny),
            ("c2r", -1, 3 * dr * dc, nz),
            # inv(F): every line of the x, y and z passes
            ("c2c", -3, 3 * ny * nzr, nx), ("c2c", -2, 3 * nx * nzr, ny),
            ("c2r", -1, 3 * nx * ny, nz),
            ("c2c", -3, ny * nzr, nx), ("c2c", -2, dr * nzr, ny), ("c2r", -1, dr * dc, nz),
            ("plane", -1, 3, nx * ny), ("plane", -1, 3, nx * ny),
        ]
        assert [p.full for p in fft_ledger.passes].count(True) == 1
        assert fft_ledger.transforms == 3 + 3 + 6 + 3 + 3 + 1
        assert fft_ledger.planes == 6


def _random_block(g_ops, rng, ncomp=3):
    shape = (ncomp,) + g_ops.band_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBlockNorms:
    """The norms, the multipliers, perp and project_Q take kept-block
    coefficients as well, and no third shape."""

    @pytest.mark.parametrize("shape", _BAND_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_block_multipliers_commute_with_scatter(self, shape):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        B = _random_block(g_ops, np.random.default_rng(sum(shape) + 3))
        for op in (g_ops.divergence, g_ops.leray, g_ops.curl,
                   lambda U: g_ops.inverse_curl(U)[0]):
            assert op(B).tobytes() == g_ops.gather(op(g_ops.scatter(B))).tobytes()

    @pytest.mark.parametrize("name", ["l2_norm_sq", "l2_norm", "inner", "grad_norm_sq",
                                      "lap_norm_sq", "divergence", "leray", "curl",
                                      "inverse_curl", "gradients", "inv", "_inv_pruned",
                                      "gates"])
    def test_a_third_shape_is_rejected(self, ops, name):
        # neither 16^3 coefficient shape: full (16, 16, 9), block (11, 11, 6)
        F = np.ones((3, 16, 16, 1), dtype=complex)
        args = {"inner": (F, F), "gates": (F, F), "_inv_pruned": (F, *ops.disk)}.get(name, (F,))
        with pytest.raises(ValueError, match=r"\(16, 16, 9\).*\(11, 11, 6\)"):
            getattr(ops, name)(*args)

    @pytest.mark.parametrize("shape", _BAND_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_block_norms_equal_full_norms(self, shape):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        rng = np.random.default_rng(sum(shape) + 1)
        B, C = _random_block(g_ops, rng), _random_block(g_ops, rng)
        F, G = g_ops.scatter(B), g_ops.scatter(C)  # band-limited
        pairs = ((B, F), (B[1], F[1]), (g_ops.perp(B), g_ops.perp(F)),
                 (g_ops.project_Q(B), g_ops.project_Q(F)))
        for name in ("l2_norm_sq", "l2_norm", "grad_norm_sq", "lap_norm_sq"):
            norm = getattr(g_ops, name)
            for block, full in pairs:
                assert norm(full) > 0.0
                assert abs(norm(block) - norm(full)) <= 1e-15 * norm(full), name
        scale = g_ops.l2_norm(F) * g_ops.l2_norm(G)
        assert abs(g_ops.inner(B, C) - g_ops.inner(F, G)) <= 1e-15 * scale

    def test_full_shape_norms_are_unchanged(self, grid, ops):
        # the full-shape path sums the same expression as before the dispatch
        rng = np.random.default_rng(5)
        F = ops.fwd(rng.standard_normal((3,) + grid.shape))
        weight = grid.volume * grid.mode_weight / grid.npoints**2
        assert ops.l2_norm_sq(F) == float(np.sum(np.abs(F) ** 2 * weight))
        assert ops.grad_norm_sq(F) == float(np.sum(grid.k_squared * np.abs(F) ** 2 * weight))
        assert ops.lap_norm_sq(F) == float(np.sum(grid.k_squared**2 * np.abs(F) ** 2 * weight))

    @pytest.mark.parametrize("shape", _BAND_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_perp_and_project_q_commute_with_gather(self, shape):
        g = GridSpec(*shape, Lx=20.0, pitch=1.0)
        g_ops = SpectralOps(g)
        rng = np.random.default_rng(sum(shape) + 2)
        F = g_ops.fwd(rng.standard_normal((3,) + g.shape))  # not band-limited
        for op in (g_ops.perp, g_ops.project_Q):
            assert op(g_ops.gather(F)).tobytes() == g_ops.gather(op(F)).tobytes()
