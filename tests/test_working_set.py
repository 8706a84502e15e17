"""The descent's hot kernels run in place: they reproduce the plain numpy
expressions bit for bit while allocating no full-size temporaries beyond
their result and one scratch array (the energy, beyond its Ray's two). The
tail fit's batched scan stays within a few fields too, and a whole solve
frees each field of the descent at its last use."""

import tracemalloc

import numpy as np
import pytest

from conftest import CANON_ALPHA, CANON_S
from fracstates import _kernels
from fracstates.diagnostics import decay_fit
from fracstates.grid import (Field, _translate, apply_frac_laplacian, helmholtz_inverse,
                             locate_max, make_grid, resample_field)
from fracstates.localization import _cutoff, build_boxes, seed_field, solve_branch
from fracstates.models import NonlinearitySpec, PotentialSpec, Well, sample_potential
from fracstates.solver import SolveOptions, _gaussian_seed, solve_limit
from fracstates.variational import Problem, _report, energy, gradient, project_to_nehari

GRIDS = [(1, 64), (2, 24), (3, 16)]


def _plain_f(t, s):
    tp = np.where(t > 0.0, t, 0.0)
    t2 = tp * tp
    return tp * t2 / (1.0 + s * t2)


def _plain_energy_sums(u, v, s):
    """(sum v u^2, sum F(u), sum f(u) u) by the saturable law's formulas."""
    u2 = u * u
    pot = float(np.dot(v, u2))
    up2 = np.where(u > 0.0, u2, 0.0)
    den = 1.0 + s * up2
    fint = float(np.sum(up2 / (2.0 * s) - np.log(den) / (2.0 * s * s)))
    fu = float(np.sum(up2 * up2 / den))
    return pot, fint, fu


def _plain_pass_sums(u, v, s):
    """The same sums as the energy's final pass at tau = 1 forms them: with
    a = u+^2 and x = s a, sum f(u) u = a . a/(1 + x) and
    sum F(u) = (sum x - sum log1p(x)) / (2 s^2)."""
    a = np.where(u > 0.0, u * u, 0.0)
    x = a * s
    fint = (float(np.sum(x)) - float(np.sum(np.log1p(x)))) / (2.0 * s * s)
    return float(np.dot(v, u * u)), fint, float(np.dot(a, a / (1.0 + x)))


def _plain_round_trip(u, m):
    g = u.grid
    return np.fft.irfftn(np.fft.rfftn(u.shaped) * m, s=g.shape, axes=range(g.d)).ravel()


def _problem(d, n, seed=0, s=CANON_S):
    g = make_grid(d, 4.0, n)
    rng = np.random.default_rng(seed)
    v = Field(g, rng.uniform(0.5, 2.0, g.size))
    return Problem(grid=g, alpha=0.6, eps=1.0, potential_field=v,
                   nonlinearity=NonlinearitySpec.saturable(s))


def _mixed_samples(size, seed):
    """Signed samples with exact zeros of both signs."""
    t = np.random.default_rng(seed).uniform(-3.0, 8.0, size)
    t[::7] = 0.0
    t[3::7] = -0.0
    return t


def _peak_fields(fn, nbytes):
    """Peak of the memory fn allocates while it runs, in units of nbytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return (peak - base) / nbytes


class TestBitIdentity:
    @pytest.mark.parametrize("d,n", GRIDS)
    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_frac_laplacian(self, d, n, alpha):
        g = make_grid(d, 3.0, n)
        u = Field(g, np.random.default_rng(d).standard_normal(g.size))
        ref = _plain_round_trip(u, g._multiplier(alpha))
        assert np.array_equal(apply_frac_laplacian(u, alpha).values, ref)

    @pytest.mark.parametrize("d,n", GRIDS)
    def test_helmholtz_inverse(self, d, n):
        g = make_grid(d, 3.0, n)
        v = Field(g, np.random.default_rng(10 + d).standard_normal(g.size))
        for c in (1.3, 0.7):
            vhat = np.fft.rfftn(v.shaped)
            ref = np.fft.irfftn(vhat / (g._multiplier(0.5) + c), s=g.shape, axes=range(d))
            assert np.array_equal(helmholtz_inverse(v, 0.5, c).values, ref.ravel())

    @pytest.mark.parametrize("s", [0.2, CANON_S, 1.0])
    def test_saturable_f(self, s):
        t = _mixed_samples(4096, 1)
        t[:3] = (np.nan, np.inf, -np.inf)
        with np.errstate(invalid="ignore"):  # f(inf) is inf/inf in both
            assert np.array_equal(_kernels.saturable_f(t, s), _plain_f(t, s), equal_nan=True)
            assert np.array_equal(_kernels.saturable_f(t.reshape(64, 64), s),
                                  _plain_f(t, s).reshape(64, 64), equal_nan=True)

    @pytest.mark.parametrize("d,n", GRIDS)
    def test_gradient(self, d, n):
        p = _problem(d, n)
        u = Field(p.grid, _mixed_samples(p.grid.size, 2 + d))
        lu = apply_frac_laplacian(u, p.alpha).values
        ref = lu + p.potential_field.values * u.values - _plain_f(u.values, CANON_S)
        assert np.array_equal(gradient(p, u).values, ref)
        assert np.array_equal(gradient(p, u, lu=lu).values, ref)

    @pytest.mark.parametrize("d,n", GRIDS)
    @pytest.mark.parametrize("s", [0.2, CANON_S])
    def test_energy_sums(self, d, n, s):
        p = _problem(d, n, seed=d, s=s)
        u = Field(p.grid, _mixed_samples(p.grid.size, 5 + d))
        v = p.potential_field.values
        semi = 1.5
        rep = energy(p, u, semi=semi)
        mass = float(np.dot(u.values, u.values))
        assert rep == _report(p, semi, *_plain_pass_sums(u.values, v, s), mass)
        # and the pass agrees with the law's own formulas to rounding
        w = p.grid.weight
        pot, fint, fu = _plain_energy_sums(u.values, v, s)
        assert rep.potential_part == pytest.approx(0.5 * w * pot, rel=1e-14)
        assert rep.nonlinear_part == pytest.approx(w * fint, rel=1e-14)
        scale = semi + w * (pot + fu)
        assert rep.nehari_residual == pytest.approx(semi + w * (pot - fu), abs=1e-14 * scale)

    @pytest.mark.parametrize("d,n", GRIDS)
    def test_seed_field(self, d, n):
        p = _problem(d, n)
        eps = 0.5
        p = Problem(p.grid, p.alpha, eps, p.potential_field, p.nonlinearity)
        g = p.grid
        w = _gaussian_seed(g, 1.0)
        y = np.array((1.0 / 3.0, -0.2, 0.1)[:d])  # the cut-off's blend lies on the grid
        vals = _translate(resample_field(w, g), y / eps).shaped
        r2 = np.zeros(g.shape)
        for c, yi in zip(np.meshgrid(*([g.axis] * d), indexing="ij"), y):
            r2 += (eps * c - yi) ** 2
        ref = vals * _cutoff(np.sqrt(r2))
        assert np.array_equal(seed_field(w, y, p).values, ref.ravel())

    @pytest.mark.parametrize("d,n", GRIDS, ids=[f"None-{d}-{n}" for d, n in GRIDS])
    def test_gaussian_seed(self, d, n):
        # the seed is the Gaussian centred at the origin, "None" in the ids
        g = make_grid(d, 5.0, n)
        width = 1.7
        r2 = np.zeros(g.shape)
        for c in np.meshgrid(*([g.axis] * d), indexing="ij"):
            r2 += c**2
        ref = 2.0 * np.exp(-r2 / (2.0 * width**2))
        assert np.array_equal(_gaussian_seed(g, width).values, ref.ravel())
        assert "coords" not in g.__dict__  # no meshgrid was cached on the grid


class TestPeakMemory:
    """numpy reports its data buffers to tracemalloc, so the traced peak
    counts every array a call holds at once."""

    @pytest.fixture(scope="class")
    def problem_3d(self):
        return _problem(3, 32)

    @pytest.fixture(scope="class")
    def field_3d(self, problem_3d):
        g = problem_3d.grid
        return Field(g, 0.5 + np.random.default_rng(7).standard_normal(g.size))

    def test_round_trips(self, problem_3d, field_3d):
        u = field_3d
        apply_frac_laplacian(u, 0.6)  # builds the cached multiplier
        helmholtz_inverse(u, 0.6, 1.5)  # and the cached denominator
        nbytes = u.values.nbytes
        # the spectrum (n/2+1)/n * 2 fields, plus the output
        assert _peak_fields(lambda: apply_frac_laplacian(u, 0.6), nbytes) <= 2.2
        assert _peak_fields(lambda: helmholtz_inverse(u, 0.6, 1.5), nbytes) <= 2.2

    def test_gradient(self, problem_3d, field_3d):
        lu = apply_frac_laplacian(field_3d, problem_3d.alpha).values
        peak = _peak_fields(lambda: gradient(problem_3d, field_3d, lu=lu), lu.nbytes)
        assert peak <= 2.2

    def test_energy_sums(self, problem_3d, field_3d):
        # the sums of energy, its seminorm given, hold only the Ray's a and r
        nbytes = field_3d.values.nbytes
        peak = _peak_fields(lambda: energy(problem_3d, field_3d, semi=1.0), nbytes)
        assert peak <= 2.2

    def test_trial_projection(self, problem_3d, field_3d):
        # a trial u - sigma d is built in the ray's two pass arrays, and
        # t* (u - sigma d) is formed in one of them once the other is freed
        p, u = problem_3d, field_3d
        d = Field(p.grid, 0.1 * np.random.default_rng(8).standard_normal(p.grid.size))
        semi = 1.0
        peak = _peak_fields(lambda: project_to_nehari(p, u, semi=semi, direction=d, step=0.5),
                            u.values.nbytes)
        assert peak <= 2.2

    def test_seed_field(self, saturable):
        # the cut-off is built in place: two arrays beside the translate
        g = make_grid(3, 8.0, 32)
        pot = PotentialSpec(2.0, (Well((1.0 / 3.0, 0.0, 0.0), 1.0, 2.0),))
        p = Problem(grid=g, alpha=CANON_ALPHA, eps=0.5, nonlinearity=saturable,
                    potential_field=sample_potential(pot, g, 0.5))
        w = _gaussian_seed(g, 1.5)
        y = (1.0 / 3.0, 0.0, 0.0)
        seed_field(w, y, p)  # builds the grid's cached wavenumbers
        assert _peak_fields(lambda: seed_field(w, y, p), g.size * 8) <= 4.5

    def test_decay_fit(self, limit_state_3d):
        # the batched scan runs in chunks of at most one field; the far
        # lattice data (built once per dimension) is cached by the first call
        u = limit_state_3d.u
        window = (0.2 * u.grid.R, 0.35 * u.grid.R)
        eta = locate_max(u)
        decay_fit(u, eta, window)
        assert _peak_fields(lambda: decay_fit(u, eta, window), u.values.nbytes) <= 4.0

    def test_solve_limit_3d(self, saturable):
        # on a fresh grid, so the two cached multipliers count: V, the
        # multipliers and the descent's live set, at most u, Lu, g, d and
        # the trial's two pass arrays, with no seed kept past its
        # projection (9.6 fields if it is kept)
        g = make_grid(3, 8.0, 32)
        out = []
        peak = _peak_fields(lambda: out.append(solve_limit(
            1.0, saturable, g, CANON_ALPHA, SolveOptions(max_iter=20000), seed_widths=(1.5,),
        )), g.size * 8)
        assert out[0].converged
        assert peak <= 8.9

    def test_solve_branch_2d(self, saturable):
        # solve_branch keeps no name for the seed it passes, so the solve
        # frees it once projected (8.2 fields if it is kept)
        pot = PotentialSpec(2.0, (Well((1.0 / 3.0, 0.0), 1.0, 2.0),))
        w = solve_limit(1.0, saturable, make_grid(2, 12.0, 96), CANON_ALPHA,
                        SolveOptions(max_iter=20000), seed_widths=(1.5,)).u
        g = make_grid(2, 12.0, 96)
        p = Problem(grid=g, alpha=CANON_ALPHA, eps=0.5, nonlinearity=saturable,
                    potential_field=sample_potential(pot, g, 0.5))
        boxes = build_boxes(pot, 1.0, 4.0)
        out = []
        peak = _peak_fields(lambda: out.append(solve_branch(
            p, boxes, w, 1, SolveOptions(max_iter=20000),
        )), g.size * 8)
        assert out[0].result.converged
        assert peak <= 7.6
