"""Spectral core: grids, fractional Laplacian identities, quadrature,
Helmholtz inverse."""

import numpy as np
import pytest

from conftest import gaussian_field
from fracstates.errors import (
    GridMismatch,
    InvalidGrid,
    InvalidInput,
    NonFinite,
    NonpositiveShift,
)
from fracstates.grid import (
    Field,
    Grid,
    _translate,
    apply_frac_laplacian,
    gagliardo_sq,
    helmholtz_inverse,
    inner_l2,
    make_grid,
    resample_field,
)


class TestMakeGrid:
    def test_spacing_and_wavenumbers(self):
        g = make_grid(1, np.pi, 64)
        assert g.h == pytest.approx(2 * np.pi / 64)
        k = np.fft.fftfreq(64, d=g.h) * 2 * np.pi
        assert np.min(np.rint(k)) == -32
        assert np.max(np.rint(k)) == 31

    def test_3d_spacing(self):
        g = make_grid(3, 10.0, 48)
        assert g.size == 48**3
        assert g.h == pytest.approx(20.0 / 48)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidGrid):
            make_grid(2, 5.0, 7)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidGrid):
            make_grid(1, 5.0, 6)

    def test_nonpositive_R_rejected(self):
        with pytest.raises(InvalidGrid):
            make_grid(1, 0.0, 64)

    def test_bad_dimension_rejected(self):
        with pytest.raises(InvalidGrid):
            make_grid(4, 1.0, 16)


    def test_make_grid_is_grid(self):
        assert make_grid is Grid

    @pytest.mark.parametrize("d, R, n", [
        (1, np.inf, 8), (1, np.nan, 8), (1, 1.0, 7), (4, 1.0, 8), (0, 1.0, 8), (1, -1.0, 8),
        (1, 1.0, 6),
    ], ids=["R-inf", "R-nan", "n-odd", "d-4", "d-0", "R-negative", "n-6"])
    def test_grid_checks_itself(self, d, R, n):
        # the rules bind every constructor call, not only make_grid's callers
        with pytest.raises(InvalidGrid):
            Grid(d, R, n)
        with pytest.raises(InvalidGrid):
            Grid(d=d, R=R, n=n)

    def test_grid_stores_int_float_int(self):
        g = Grid(np.int64(2), 4, 16.0)
        assert (type(g.d), type(g.R), type(g.n)) == (int, float, int)
        assert g == Grid(2, 4.0, 16)


class TestGridInputs:
    """The typed failures of points, field lengths, orders and pairings."""

    @pytest.mark.parametrize("value", [(np.nan,), (np.inf,), (0.0, 0.0), ()],
                             ids=["nan", "inf", "two-coordinates", "empty"])
    def test_point_names_its_argument(self, value):
        g = make_grid(1, 4.0, 16)
        with pytest.raises(InvalidInput, match=r"^eta \[.*\] is not a finite point in 1 "):
            g.point(value, "eta")

    def test_point_returns_coordinates(self):
        g = make_grid(2, 4.0, 16)
        assert np.array_equal(g.point([0.5, -1]), np.array([0.5, -1.0]))

    def test_index_of_off_grid_point(self):
        g = make_grid(1, 4.0, 16)  # h = 0.5
        assert g.index_of((0.5,)) == (9,)
        with pytest.raises(InvalidInput, match="is not a grid point"):
            g.index_of((0.2,))

    def test_field_length_must_match_grid(self):
        g = make_grid(1, 4.0, 16)
        with pytest.raises(InvalidGrid, match="field length 15 != grid size 16"):
            Field(g, np.ones(15))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, np.nan])
    def test_order_outside_unit_interval(self, alpha):
        g = make_grid(1, 4.0, 16)
        with pytest.raises(InvalidInput, match="order alpha must lie in"):
            apply_frac_laplacian(Field(g, np.ones(g.size)), alpha)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_inner_product_of_nonfinite_field(self, bad):
        g = make_grid(1, 4.0, 16)
        ones = Field(g, np.ones(g.size))
        with pytest.raises(NonFinite):
            inner_l2(Field(g, np.where(np.arange(g.size) == 3, bad, 1.0)), ones)

    def test_resample_across_dimensions(self):
        u = Field(make_grid(1, 4.0, 16), np.ones(16))
        with pytest.raises(GridMismatch, match="dimension mismatch"):
            resample_field(u, make_grid(2, 4.0, 16))


class TestFracLaplacian:
    def test_constant_annihilated(self):
        g = make_grid(1, 3.0, 64)
        out = apply_frac_laplacian(Field(g, np.ones(g.size)), 0.7)
        assert np.max(np.abs(out.values)) < 1e-13

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_unit_mode_eigenfunction(self, alpha):
        g = make_grid(1, np.pi, 64)
        u = Field(g, np.cos(g.axis))
        out = apply_frac_laplacian(u, alpha)
        assert np.max(np.abs(out.values - u.values)) < 1e-12

    def test_second_mode_alpha_half(self):
        g = make_grid(1, np.pi, 64)
        u = Field(g, np.cos(2 * g.axis))
        out = apply_frac_laplacian(u, 0.5)
        assert np.max(np.abs(out.values - 2 * u.values)) < 1e-12

    def test_nonfinite_rejected(self):
        g = make_grid(1, 1.0, 16)
        vals = np.zeros(g.size)
        vals[3] = np.nan
        with pytest.raises(NonFinite):
            apply_frac_laplacian(Field(g, vals), 0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_cached_multiplier_matches_explicit_product(self, alpha):
        g = make_grid(2, 3.0, 16)
        u = Field(g, np.random.default_rng(9).standard_normal(g.size))
        full = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.h)
        half = 2.0 * np.pi * np.fft.rfftfreq(g.n, d=g.h)
        kx, ky = np.meshgrid(full, half, indexing="ij")
        mult = (kx * kx + ky * ky) ** alpha
        mult.flat[0] = 0.0
        ref = np.fft.irfftn(np.fft.rfftn(u.shaped) * mult, s=g.shape, axes=range(g.d))
        for _ in range(2):  # building the multiplier, then reusing it
            assert np.array_equal(apply_frac_laplacian(u, alpha).values, ref.ravel())

    def test_cached_multiplier_is_read_only(self):
        g = make_grid(1, 3.0, 32)
        apply_frac_laplacian(Field(g, np.ones(g.size)), 0.5)
        mult = g._multiplier(0.5)
        assert g._multiplier(0.5) is mult
        with pytest.raises(ValueError):
            mult[1] = 0.0

    def test_alpha_one_matches_spectral_laplacian(self):
        g = make_grid(1, 2.0, 32)
        rng = np.random.default_rng(7)
        u = Field(g, rng.standard_normal(g.size))
        out = apply_frac_laplacian(u, 1.0)
        uhat = np.fft.rfft(u.values)
        xi = 2 * np.pi * np.fft.rfftfreq(g.n, d=g.h)
        ref = np.fft.irfft(uhat * xi**2, n=g.n)
        assert np.max(np.abs(out.values - ref)) < 1e-10

    def test_self_adjoint_over_random_pairs(self):
        rng = np.random.default_rng(11)
        for d, n in ((1, 64), (2, 16)):
            g = make_grid(d, 4.0, n)
            for _ in range(50 if d == 1 else 50):
                u = Field(g, rng.standard_normal(g.size))
                v = Field(g, rng.standard_normal(g.size))
                au = apply_frac_laplacian(u, 0.6)
                av = apply_frac_laplacian(v, 0.6)
                lhs = inner_l2(au, v)
                rhs = inner_l2(u, av)
                scale = np.sqrt(inner_l2(u, u) * inner_l2(v, v))
                assert abs(lhs - rhs) <= 1e-10 * scale


class TestGagliardo:
    def test_constant_is_zero(self):
        g = make_grid(1, 5.0, 32)
        assert gagliardo_sq(Field(g, np.full(g.size, 3.7)), 0.4) < 1e-12

    def test_single_mode_parseval(self):
        g = make_grid(1, np.pi, 128)
        u = Field(g, np.cos(g.axis))
        assert gagliardo_sq(u, 0.5) == pytest.approx(np.pi, abs=1e-12)

    def test_mode_additivity(self):
        g = make_grid(1, np.pi, 128)
        u = Field(g, np.cos(g.axis) + np.cos(2 * g.axis))
        assert gagliardo_sq(u, 0.5) == pytest.approx(3 * np.pi, abs=1e-11)

    def test_positive_unless_constant(self):
        rng = np.random.default_rng(3)
        g = make_grid(1, 4.0, 64)
        for _ in range(20):
            u = Field(g, rng.standard_normal(g.size))
            if np.max(np.abs(u.values - np.mean(u.values))) < 1e-12:
                continue
            assert gagliardo_sq(u, 0.8) > 0

    def test_matches_operator_pairing_exactly(self):
        rng = np.random.default_rng(5)
        g = make_grid(2, 3.0, 16)
        u = Field(g, rng.standard_normal(g.size))
        assert gagliardo_sq(u, 0.6) == inner_l2(u, apply_frac_laplacian(u, 0.6))


class TestQuadrature:
    def test_orthogonal_modes(self):
        g = make_grid(1, np.pi, 64)
        assert inner_l2(Field(g, np.cos(g.axis)), Field(g, np.sin(g.axis))) == pytest.approx(0.0, abs=1e-13)

    def test_box_measure(self):
        g = make_grid(1, np.pi, 64)
        one = Field(g, np.ones(g.size))
        assert inner_l2(one, one) == pytest.approx(2 * np.pi)

    def test_cos_squared(self):
        g = make_grid(1, np.pi, 64)
        u = Field(g, np.cos(g.axis))
        assert inner_l2(u, u) == pytest.approx(np.pi)

    def test_grid_mismatch(self):
        g1 = make_grid(1, np.pi, 64)
        g2 = make_grid(1, np.pi, 32)
        with pytest.raises(GridMismatch):
            inner_l2(Field(g1, np.ones(g1.size)), Field(g2, np.ones(g2.size)))


class TestHelmholtz:
    def test_constant_divides_by_shift(self):
        g = make_grid(1, 5.0, 32)
        c = 1.7
        v = Field(g, np.full(g.size, c * 4.0))
        w = helmholtz_inverse(v, 0.5, c)
        assert np.max(np.abs(w.values - 4.0)) < 1e-12

    def test_single_mode_division(self):
        g = make_grid(1, np.pi, 64)
        c = 1.0
        v = Field(g, (1 + c) * np.cos(g.axis))
        w = helmholtz_inverse(v, 0.5, c)
        assert np.max(np.abs(w.values - np.cos(g.axis))) < 1e-12

    def test_forward_apply_residual(self):
        rng = np.random.default_rng(21)
        g = make_grid(1, 6.0, 128)
        v = Field(g, rng.standard_normal(g.size))
        w = helmholtz_inverse(v, 0.7, 1.0)
        back = apply_frac_laplacian(w, 0.7).values + 1.0 * w.values
        rel = np.linalg.norm(back - v.values) / np.linalg.norm(v.values)
        assert rel < 1e-12

    def test_roundtrip_2d(self):
        rng = np.random.default_rng(22)
        g = make_grid(2, 3.0, 24)
        v = Field(g, rng.standard_normal(g.size))
        w = helmholtz_inverse(v, 0.4, 2.5)
        back = apply_frac_laplacian(w, 0.4).values + 2.5 * w.values
        assert np.linalg.norm(back - v.values) <= 1e-10 * np.linalg.norm(v.values)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cached_denominator_is_bit_identical_and_read_only(self, d):
        # the cache holds the reciprocal of the denominator; multiplying by
        # it must equal the plain division of the spectrum bit for bit
        g = make_grid(d, 3.0, 16)
        v = Field(g, np.random.default_rng(23).standard_normal(g.size))
        vhat = np.fft.rfftn(v.shaped)
        for c in (1.3, 1.3, 0.7):  # build, reuse, replace
            ref = np.fft.irfftn(vhat / (g._multiplier(0.5) + c), s=g.shape, axes=range(g.d))
            assert np.array_equal(helmholtz_inverse(v, 0.5, c).values, ref.ravel())
        den = g._shifted_multiplier(0.5, 0.7)
        assert g._shifted_multiplier(0.5, 0.7) is den
        with pytest.raises(ValueError):
            den[1] = 0.0

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 24), (3, 16)])
    def test_symmetric(self, d, n):
        # the descent's BB2 step reads <g_prev, H^-1 g> as <H^-1 g_prev, g>
        rng = np.random.default_rng(24 + d)
        g = make_grid(d, 3.0, n)
        a = Field(g, 1.0 + rng.standard_normal(g.size))
        b = Field(g, 1.0 + rng.standard_normal(g.size))
        for alpha, c in ((0.3, 0.8), (0.5, 1.3), (1.0, 2.0)):
            lhs = inner_l2(a, helmholtz_inverse(b, alpha, c))
            rhs = inner_l2(helmholtz_inverse(a, alpha, c), b)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_nonpositive_shift(self):
        g = make_grid(1, 1.0, 16)
        with pytest.raises(NonpositiveShift):
            helmholtz_inverse(Field(g, np.ones(g.size)), 0.5, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        g = make_grid(2, 1.0, 16)
        vals = np.random.default_rng(1).standard_normal(g.size)
        vals[37] = bad
        with pytest.raises(NonFinite):
            helmholtz_inverse(Field(g, vals), 0.5, 1.0)


class TestTransformRoundTrip:
    @pytest.mark.parametrize("d,n", [(1, 64), (2, 24), (3, 16)])
    def test_real_transforms_round_trip(self, d, n):
        rng = np.random.default_rng(d)
        g = make_grid(d, 3.0, n)
        u = rng.standard_normal(g.shape)
        back = np.fft.irfftn(np.fft.rfftn(u), s=g.shape, axes=range(d))
        assert np.max(np.abs(back - u)) < 1e-14


class TestResample:
    def test_pad_preserves_values(self):
        g1 = make_grid(1, 4.0, 32)
        g2 = make_grid(1, 8.0, 64)
        rng = np.random.default_rng(2)
        u = Field(g1, rng.standard_normal(g1.size))
        out = resample_field(u, g2)
        # x = 0 cell maps to x = 0 cell
        assert out.values[g2.n // 2] == u.values[g1.n // 2]
        assert out.values[0] == 0.0

    def test_crop_then_pad_identity_in_core(self):
        g1 = make_grid(1, 8.0, 64)
        g2 = make_grid(1, 4.0, 32)
        rng = np.random.default_rng(4)
        u = Field(g1, rng.standard_normal(g1.size))
        cropped = resample_field(u, g2)
        back = resample_field(cropped, g1)
        mid = slice(16, 48)
        assert np.array_equal(back.values[mid], u.values[mid])

    def test_incommensurate_rejected(self):
        g1 = make_grid(1, 4.0, 32)
        g2 = make_grid(1, 4.0, 48)
        u = Field(g1, np.ones(g1.size))
        with pytest.raises(GridMismatch):
            resample_field(u, g2)


class TestTranslate:
    """_translate(u, s) is u(x - s) for any real shift s."""

    def test_whole_cells_match_roll(self):
        g = make_grid(2, 5.0, 32)
        u = np.random.default_rng(0).standard_normal(g.shape)
        out = _translate(Field(g, u), (3 * g.h, -5 * g.h)).shaped
        rolled = np.roll(u, (3, -5), axis=(0, 1))
        assert np.max(np.abs(out - rolled)) <= 1e-13 * np.max(np.abs(u))

    def test_shift_and_back_is_identity(self):
        g = make_grid(2, 12.0, 64)
        u = gaussian_field(g, 1.0, center=(0.7, -1.1))
        s = (0.37 * g.h, -2.71 * g.h)
        back = _translate(_translate(u, s), tuple(-si for si in s))
        assert np.max(np.abs(back.values - u.values)) <= 1e-12

    def test_subcell_shift_of_trig_polynomial_is_exact(self):
        g = make_grid(2, np.pi, 16)
        x, y = g.coords
        s = (g.h / 3.0, -0.45 * g.h)

        def trig(x, y):
            return 1.0 + np.cos(3 * x + 0.2) * np.sin(2 * y) + 0.5 * np.sin(7 * y - x)

        out = _translate(Field(g, trig(x, y)), s)
        assert np.max(np.abs(out.shaped - trig(x - s[0], y - s[1]))) <= 1e-13

    def test_non_finite_rejected(self):
        g = make_grid(1, 5.0, 32)
        u = np.ones(g.size)
        u[4] = np.nan
        with pytest.raises(NonFinite):
            _translate(Field(g, u), (0.3,))
