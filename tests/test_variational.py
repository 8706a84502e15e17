"""Energy, gradient, restricted-set defect, and the Nehari ray projection."""

import numpy as np
import pytest

from conftest import gaussian_field, random_theta_field, ray_argmax_oracle, ray_energies
from fracstates.errors import InvalidInput, NonFinite, NotInTheta, ZeroField
from fracstates.grid import Field, gagliardo_sq, inner_l2, make_grid
from fracstates.models import NonlinearitySpec
from fracstates.solver import SolveOptions, solve_constrained
from fracstates.variational import (
    Problem,
    _ray,
    energy,
    gradient,
    project_to_nehari,
)


def _const_problem(grid, alpha, level, nonlinearity):
    return Problem(
        grid=grid,
        alpha=alpha,
        eps=1.0,
        potential_field=Field(grid, np.full(grid.size, level)),
        nonlinearity=nonlinearity,
    )


def _zero_nonlinearity():
    zero = lambda t: 0.0 * t
    return NonlinearitySpec.custom(zero, zero, zero, l0=0.0, q=3.0, C0=1.0)


def _with_nonlinearity(p, nonlinearity):
    return Problem(p.grid, p.alpha, p.eps, p.potential_field, nonlinearity)


def _reference_t_star(p, u):
    """Root of g(t) = |u|^2_eps - int f(tu)u/t by plain bisection: double the
    upper end until g < 0, then 80 halvings from [1e-6, t_hi]."""
    w = p.grid.weight
    nsq = energy(p, u).norm_eps_sq

    def g(t):
        return nsq - w * p.nonlinearity.rate_sum(u.values, t)

    lo, hi = 1e-6, 1.0
    while g(hi) >= 0:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _steep_law():
    """f(t) = 2.5 t^5/(1+t^4): psi(tau) = int f(tu)u/t is convex near 0."""
    return NonlinearitySpec.custom(
        lambda t: 2.5 * t**5 / (1.0 + t**4),
        lambda t: 2.5 * t**4 * (5.0 + t**4) / (1.0 + t**4) ** 2,
        lambda t: 1.25 * (t * t - np.arctan(t * t)),
        l0=2.5,
        q=6.0,
        C0=10.0,
    )


def _saturable_as_custom(s):
    return NonlinearitySpec.custom(
        lambda t: t**3 / (1.0 + s * t * t),
        lambda t: t * t * (3.0 + s * t * t) / (1.0 + s * t * t) ** 2,
        lambda t: t * t / (2.0 * s) - np.log1p(s * t * t) / (2.0 * s * s),
        l0=1.0 / s,
        q=2.5,
        C0=9.0 / (8.0 * s),
    )


def _count_passes(monkeypatch):
    """Count the nonlinearity passes (calls of the NonlinearitySpec pass
    methods) from now on; returns the one-element counter."""
    calls = [0]
    for name in ("rate_pair", "rate_sum", "rate_primitive"):

        def counted(self, *args, _orig=getattr(NonlinearitySpec, name)):
            calls[0] += 1
            return _orig(self, *args)

        monkeypatch.setattr(NonlinearitySpec, name, counted)
    return calls


def _descent_projections(p, monkeypatch, max_iter=100):
    """Run a descent from a random seed and return every projection it made
    (seed and trials) with its input."""
    import fracstates.solver as solver_mod

    seen = []

    def recorded(q, u, **kwargs):
        out = project_to_nehari(q, u, **kwargs)
        if kwargs.get("direction") is not None:  # a trial, passed as u - step * direction
            u = Field(u.grid, u.values - kwargs["step"] * kwargs["direction"].values)
        seen.append((u, out))
        return out

    monkeypatch.setattr(solver_mod, "project_to_nehari", recorded)
    seed = random_theta_field(p, np.random.default_rng(30))
    solve_constrained(p, seed, SolveOptions(max_iter=max_iter))
    return seen


def _assert_report_matches_energy(p, out):
    """The projection's report against energy() of the projected field:
    every part to 1e-13 relative, J and Q to 1e-13 of ||t* u||^2_eps."""
    ref = energy(p, out.projected)
    for name in ("seminorm_part", "potential_part", "nonlinear_part", "total"):
        assert getattr(out.report, name) == pytest.approx(getattr(ref, name), rel=1e-13)
    scale = 1e-13 * ref.norm_eps_sq
    assert abs(out.report.nehari_residual - ref.nehari_residual) <= scale
    assert abs(out.report.theta_defect - ref.theta_defect) <= scale


class TestEnergy:
    def test_zero_field(self, small_problem):
        rep = energy(small_problem, Field(small_problem.grid, np.zeros(small_problem.grid.size)))
        assert rep.total == 0.0
        assert rep.seminorm_part == 0.0
        assert rep.nonlinear_part == 0.0

    def test_linear_mode_energy(self):
        g = make_grid(1, np.pi, 128)
        p = _const_problem(g, 0.5, 1.0, _zero_nonlinearity())
        rep = energy(p, Field(g, np.cos(g.axis)))
        assert rep.total == pytest.approx(np.pi, abs=1e-10)
        assert rep.seminorm_part == pytest.approx(np.pi / 2, abs=1e-11)
        assert rep.potential_part == pytest.approx(np.pi / 2, abs=1e-11)

    def test_total_matches_direct_quadrature(self, small_problem):
        rng = np.random.default_rng(12)
        u = random_theta_field(small_problem, rng)
        rep = energy(small_problem, u)
        # independent quadrature of the integrand, all in plain numpy
        w = small_problem.grid.weight
        s = small_problem.nonlinearity.s
        semi = 0.5 * gagliardo_sq(u, small_problem.alpha)
        pot = 0.5 * w * np.sum(small_problem.potential_field.values * u.values**2)
        up = np.clip(u.values, 0.0, None)
        big_f = up**2 / (2 * s) - np.log(1 + s * up**2) / (2 * s**2)
        direct = semi + pot - w * np.sum(big_f)
        assert rep.total == pytest.approx(direct, rel=1e-10)

    def test_parts_identity_and_fbar_sign(self, small_problem):
        rng = np.random.default_rng(13)
        for _ in range(10):
            u = random_theta_field(small_problem, rng)
            rep = energy(small_problem, u)
            assert rep.total == pytest.approx(
                rep.seminorm_part + rep.potential_part - rep.nonlinear_part, rel=1e-14
            )
            assert rep.total - 0.5 * rep.nehari_residual >= -1e-10


class TestGradient:
    def test_zero_field(self, small_problem):
        g = small_problem.grid
        out = gradient(small_problem, Field(g, np.zeros(g.size)))
        assert not out.values.any()

    def test_linear_single_mode(self):
        g = make_grid(1, np.pi, 128)
        c = 1.5
        p = _const_problem(g, 0.5, c, _zero_nonlinearity())
        u = Field(g, np.cos(2 * g.axis))
        out = gradient(p, u)
        assert np.max(np.abs(out.values - (2.0 + c) * u.values)) < 1e-11

    def test_against_central_differences(self, small_problem):
        rng = np.random.default_rng(14)
        h = 1e-5
        for _ in range(20):
            u = random_theta_field(small_problem, rng)
            phi = Field(small_problem.grid, rng.standard_normal(small_problem.grid.size))
            lhs = inner_l2(gradient(small_problem, u), phi)
            up = Field(small_problem.grid, u.values + h * phi.values)
            um = Field(small_problem.grid, u.values - h * phi.values)
            fd = (energy(small_problem, up).total - energy(small_problem, um).total) / (2 * h)
            assert abs(lhs - fd) <= 1e-5 * (1 + abs(lhs))


class TestThetaDefect:
    def test_broad_bump_is_admissible(self):
        g = make_grid(1, 20.0, 256)
        nl = NonlinearitySpec.saturable(0.5)  # l0 = 2
        p = _const_problem(g, 0.5, 1.0, nl)
        u = gaussian_field(g, 4.0)
        assert energy(p, u).theta_defect < 0

    def test_slope_below_potential_never_admissible(self):
        g = make_grid(1, 20.0, 256)
        nl = NonlinearitySpec.saturable(1.0)  # l0 = 1 = inf V
        p = _const_problem(g, 0.5, 1.0, nl)
        rng = np.random.default_rng(15)
        for _ in range(10):
            u = Field(g, rng.standard_normal(g.size))
            assert energy(p, u).theta_defect > 0

    def test_zero_field_defect_is_zero(self, small_problem):
        g = small_problem.grid
        assert energy(small_problem, Field(g, np.zeros(g.size))).theta_defect == 0.0


class TestProjection:
    def test_fixed_point_on_manifold(self, small_problem):
        rng = np.random.default_rng(16)
        u = random_theta_field(small_problem, rng)
        t1, proj, _ = project_to_nehari(small_problem, u)
        t2, again, _ = project_to_nehari(small_problem, proj)
        assert t2 == pytest.approx(1.0, abs=1e-8)

    def test_residual_tolerance(self, small_problem):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = random_theta_field(small_problem, rng)
            t, proj, _ = project_to_nehari(small_problem, u)
            rep = energy(small_problem, proj)
            assert abs(rep.nehari_residual) <= 1e-10 * rep.norm_eps_sq
            # projected fields stay inside the restricted set with positive energy
            assert rep.theta_defect < 0
            assert rep.total > 0

    def test_ray_maximum(self, small_problem):
        rng = np.random.default_rng(18)
        u = random_theta_field(small_problem, rng)
        t_star, proj, _ = project_to_nehari(small_problem, u)
        e_star = energy(small_problem, proj).total
        for t in np.linspace(4 * t_star / 200, 4 * t_star, 200):
            e_t = energy(small_problem, Field(small_problem.grid, t * u.values)).total
            assert e_t <= e_star + 1e-11 * max(1.0, abs(e_star))

    def test_not_in_theta_raises(self, small_problem):
        g = small_problem.grid
        rng = np.random.default_rng(19)
        u = random_theta_field(small_problem, rng)
        # high-frequency carrier blows up the seminorm
        carrier = np.cos((np.pi * (g.n // 2 - 1) / g.R) * g.axis)
        bad = Field(g, u.values * carrier)
        assert energy(small_problem, bad).theta_defect >= 0
        with pytest.raises(NotInTheta):
            project_to_nehari(small_problem, bad)

    def test_zero_field_raises(self, small_problem):
        with pytest.raises(ZeroField):
            project_to_nehari(small_problem, Field(small_problem.grid, np.zeros(small_problem.grid.size)))

    def test_scaling_covariance(self, small_problem):
        rng = np.random.default_rng(20)
        u = random_theta_field(small_problem, rng)
        t_ref, proj_ref, _ = project_to_nehari(small_problem, u)
        for lam in (0.5, 2.0):
            t_lam, proj, _ = project_to_nehari(
                small_problem, Field(small_problem.grid, lam * u.values)
            )
            assert t_lam == pytest.approx(t_ref / lam, rel=1e-9)
            assert np.allclose(proj.values, proj_ref.values, rtol=1e-9, atol=1e-12)

    def test_nehari_rate_strictly_decreasing(self, small_problem):
        rng = np.random.default_rng(21)
        w = small_problem.grid.weight
        for _ in range(100):
            u = random_theta_field(small_problem, rng)
            nsq = energy(small_problem, u).norm_eps_sq
            ts = np.geomspace(1e-2, 1e3, 60)
            g_vals = np.array(
                [nsq - w * small_problem.nonlinearity.rate_sum(u.values, t) for t in ts]
            )
            assert np.all(np.diff(g_vals) < 0)
            assert np.sum(np.sign(g_vals[:-1]) != np.sign(g_vals[1:])) == 1

    def test_matches_reference_bisection(self, small_problem):
        rng = np.random.default_rng(25)
        for _ in range(20):
            u = random_theta_field(small_problem, rng)
            t_star, _, _ = project_to_nehari(small_problem, u)
            assert t_star == pytest.approx(_reference_t_star(small_problem, u), rel=1e-13)

    def test_few_passes_per_projection(self, small_problem, monkeypatch):
        """Every projection of a descent costs at most 8 nonlinearity passes
        (Newton steps plus the final pass)."""
        import fracstates.solver as solver_mod

        calls = _count_passes(monkeypatch)
        per_projection = []

        def counted_projection(*args, **kwargs):
            before = calls[0]
            out = project_to_nehari(*args, **kwargs)
            per_projection.append(calls[0] - before)
            return out

        monkeypatch.setattr(solver_mod, "project_to_nehari", counted_projection)
        rng = np.random.default_rng(26)
        _, seed, _ = project_to_nehari(small_problem, random_theta_field(small_problem, rng))
        solve_constrained(small_problem, seed, SolveOptions(max_iter=100))
        assert len(per_projection) > 100
        assert max(per_projection) <= 8

    def test_descent_projections_average_four_passes(self, small_problem, monkeypatch):
        calls = _count_passes(monkeypatch)
        seen = _descent_projections(small_problem, monkeypatch)
        before = calls[0]
        for u, _ in seen[1:]:
            project_to_nehari(small_problem, u)
        assert len(seen) > 50
        assert (calls[0] - before) / (len(seen) - 1) <= 4.0

    @pytest.mark.parametrize("scale", [0.3, 1.0, 10.0])
    def test_rays_far_from_unit_take_few_passes(self, small_problem, monkeypatch, scale):
        """Newton starts at max(1, Jensen floor), so fields whose root lies
        far from tau = 1 still project in a handful of passes."""
        rng = np.random.default_rng(31)
        fields = [random_theta_field(small_problem, rng) for _ in range(50)]
        calls = _count_passes(monkeypatch)
        for u in fields:
            before = calls[0]
            t_star, _, _ = project_to_nehari(small_problem, Field(u.grid, scale * u.values))
            assert calls[0] - before <= 8
            assert t_star == pytest.approx(
                _reference_t_star(small_problem, u) / scale, rel=1e-12
            )

    @pytest.mark.parametrize("custom", [False, True])
    def test_report_matches_energy(self, small_problem, monkeypatch, custom):
        p = small_problem
        if custom:
            p = _with_nonlinearity(p, _saturable_as_custom(p.nonlinearity.s))
        rng = np.random.default_rng(32)
        for scale in (0.3, 1.0, 10.0):
            for _ in range(5):
                u = Field(p.grid, scale * random_theta_field(p, rng).values)
                _assert_report_matches_energy(p, project_to_nehari(p, u))
        seen = _descent_projections(p, monkeypatch)
        assert len(seen) > 50
        for _, out in seen:
            _assert_report_matches_energy(p, out)

    def test_corrupted_final_pass_raises(self, small_problem, monkeypatch):
        from fracstates import _kernels

        # drawn first: the draw's energy evaluation runs a final pass too
        u = random_theta_field(small_problem, np.random.default_rng(33))
        final = _kernels.nehari_final
        calls = []

        def perturbed(a, r, tau, s):
            psi, f_int = final(a, r, tau, s)
            calls.append(tau)
            return psi * (1.0 + 1e-6), f_int

        monkeypatch.setattr(_kernels, "nehari_final", perturbed)
        with pytest.raises(NotInTheta, match="stalled"):
            project_to_nehari(small_problem, u)
        # the failed check sends Newton on, and the second check decides
        assert len(calls) == 2

    def test_newton_recovers_from_one_failed_check(self, small_problem, monkeypatch):
        from fracstates import _kernels

        u = random_theta_field(small_problem, np.random.default_rng(34))
        final = _kernels.nehari_final
        calls = []

        def perturbed_once(a, r, tau, s):
            psi, f_int = final(a, r, tau, s)
            calls.append(tau)
            return (psi * (1.0 + 1e-6) if len(calls) == 1 else psi), f_int

        monkeypatch.setattr(_kernels, "nehari_final", perturbed_once)
        t_star, proj, _ = project_to_nehari(small_problem, u)
        assert len(calls) == 2
        assert t_star == pytest.approx(_reference_t_star(small_problem, u), rel=1e-13)

    def test_convex_start_uses_fallback(self, small_problem, monkeypatch):
        p = _with_nonlinearity(small_problem, _steep_law())
        w = p.grid.weight
        evals = []
        orig = NonlinearitySpec.rate_pair

        def recorded(self, a, r, tau):
            out = orig(self, a, r, tau)
            evals[-1].append((tau, *out))
            return out

        monkeypatch.setattr(NonlinearitySpec, "rate_pair", recorded)
        rng = np.random.default_rng(27)
        fallbacks = 0
        for _ in range(10):
            u = Field(p.grid, 0.3 * random_theta_field(p, rng).values)
            nsq = energy(p, u).norm_eps_sq
            evals.append([])
            t_star, proj, _ = project_to_nehari(p, u)
            # count evaluations that are not the Newton iterate of the previous one
            for (tau, psi, dpsi), (nxt, _, _) in zip(evals[-1], evals[-1][1:]):
                fallbacks += nxt != tau + (nsq - w * psi) / (w * dpsi)
            rep = energy(p, proj)
            assert abs(rep.nehari_residual) <= 1e-10 * rep.norm_eps_sq
            assert t_star == pytest.approx(_reference_t_star(p, u), rel=1e-13)
        assert fallbacks > 0

    def test_saturable_kernel_matches_custom_triple(self, small_problem):
        s = small_problem.nonlinearity.s
        custom = _with_nonlinearity(small_problem, _saturable_as_custom(s))
        rng = np.random.default_rng(28)
        for _ in range(5):
            u = random_theta_field(small_problem, rng)
            ray, custom_ray = _ray(small_problem, u.values)[:2], _ray(custom, u.values)[:2]
            for tau in (0.3, 1.0, 4.0):
                kernel = small_problem.nonlinearity.rate_pair(*ray, tau)
                triple = custom.nonlinearity.rate_pair(*custom_ray, tau)
                assert kernel == pytest.approx(triple, rel=1e-13)
            t_kernel, _, _ = project_to_nehari(small_problem, u)
            t_triple, _, _ = project_to_nehari(custom, u)
            assert t_kernel == pytest.approx(t_triple, rel=1e-13)


class TestProjectionAlongDirection:
    """A trial given as u - step * direction with its seminorm projects as
    the formed field does, bit for bit, under either law."""

    @pytest.mark.parametrize("law", ["saturable", "custom"])
    def test_matches_formed_trial(self, small_problem, law):
        p = small_problem
        if law == "custom":
            p = _with_nonlinearity(p, _saturable_as_custom(p.nonlinearity.s))
        rng = np.random.default_rng(41)
        u = random_theta_field(p, rng)
        d = Field(p.grid, 0.3 * u.values * rng.uniform(-1.0, 1.0, p.grid.size))
        for step in (0.5, 2.0):
            v = Field(p.grid, u.values - step * d.values)
            semi = gagliardo_sq(v, p.alpha)
            ref = project_to_nehari(p, v, semi=semi)
            out = project_to_nehari(p, u, semi=semi, direction=d, step=step)
            assert out.t_star == ref.t_star
            assert np.array_equal(out.projected.values, ref.projected.values)
            assert out.report == ref.report

    @pytest.mark.parametrize("law", ["saturable", "custom"])
    def test_leaves_inputs_unchanged(self, small_problem, law):
        # the ray is built in arrays of its own: the caller's iterate and
        # direction keep their bytes through energy and both projections
        p = small_problem
        if law == "custom":
            p = _with_nonlinearity(p, _saturable_as_custom(p.nonlinearity.s))
        rng = np.random.default_rng(43)
        u = random_theta_field(p, rng)
        d = Field(p.grid, 0.3 * u.values * rng.uniform(-1.0, 1.0, p.grid.size))
        before = u.values.tobytes(), d.values.tobytes()
        energy(p, u)
        project_to_nehari(p, u)
        semi = gagliardo_sq(Field(p.grid, u.values - 0.5 * d.values), p.alpha)
        project_to_nehari(p, u, semi=semi, direction=d, step=0.5)
        assert (u.values.tobytes(), d.values.tobytes()) == before

    def test_trial_without_seminorm_is_refused(self, small_problem):
        # a trial is never formed as a field, so its seminorm cannot be
        # transformed here: the caller's quadratic gives it
        p = small_problem
        rng = np.random.default_rng(45)
        u = random_theta_field(p, rng)
        d = Field(p.grid, 0.3 * u.values * rng.uniform(-1.0, 1.0, p.grid.size))
        with pytest.raises(InvalidInput, match="seminorm"):
            project_to_nehari(p, u, direction=d, step=0.5)

    def test_failures_match_formed_trial(self, small_problem):
        p = small_problem
        u = random_theta_field(p, np.random.default_rng(42))
        semi = gagliardo_sq(u, p.alpha)
        with pytest.raises(ZeroField):
            project_to_nehari(p, u, semi=0.0, direction=u, step=1.0)
        # -u has no positive part, so its ray never meets the manifold
        with pytest.raises(NotInTheta):
            project_to_nehari(p, u, semi=semi, direction=u, step=2.0)
        other = make_grid(1, 2.0 * p.grid.R, p.grid.n)
        with pytest.raises(InvalidInput):
            project_to_nehari(p, u, semi=semi, direction=Field(other, u.values), step=1.0)


def _nonfinite_cases():
    """(id, law, call, sample): energy and the projection of a field
    and of a trial, each given its seminorm, on a field with one NaN or
    infinite sample; the ray's mass is then not finite, which is NonFinite
    before any pass."""
    cases = []
    for law in ("saturable", "custom"):
        for call in ("energy", "field", "trial"):
            for name, sample in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf)):
                cases.append((f"{law}-{call}-{name}", law, call, sample))
    return cases


@pytest.mark.parametrize("law, call, sample",
                         [pytest.param(*c[1:], id=c[0]) for c in _nonfinite_cases()])
def test_nonfinite_sample_is_typed(small_problem, law, call, sample):
    p = small_problem
    if law == "custom":
        p = _with_nonlinearity(p, _saturable_as_custom(p.nonlinearity.s))
    rng = np.random.default_rng(44)
    u = random_theta_field(p, rng)
    u.values[p.grid.n // 2] = sample
    d = Field(p.grid, 0.3 * rng.uniform(-1.0, 1.0, p.grid.size))
    calls = {
        "energy": lambda: energy(p, u, semi=1.0),
        "field": lambda: project_to_nehari(p, u, semi=1.0),
        "trial": lambda: project_to_nehari(p, u, semi=1.0, direction=d, step=0.5),
    }
    # no errstate: under the project's error::RuntimeWarning filter a pass
    # dividing inf by inf would fail with numpy's warning, not NonFinite
    with pytest.raises(NonFinite):
        calls[call]()


class TestRayOracle:
    def test_ray_energy_is_energy(self, small_problem):
        u = random_theta_field(small_problem, np.random.default_rng(21))
        ts = np.array([0.1, 0.5, 1.0, 2.0, 7.0])
        for t, e in zip(ts, ray_energies(small_problem, u, ts)):
            ref = energy(small_problem, Field(small_problem.grid, t * u.values)).total
            assert e == pytest.approx(ref, rel=1e-12)

    def test_agrees_with_bisection(self, small_problem):
        rng = np.random.default_rng(22)
        for _ in range(5):
            u = random_theta_field(small_problem, rng)
            t_star, _, _ = project_to_nehari(small_problem, u)
            scan = ray_argmax_oracle(small_problem, u, 4 * t_star, 1000)
            assert scan.interior
            assert abs(scan.t_best - t_star) <= 2 * (4 * t_star) / 1000

    def test_truncated_search_flags_boundary(self, small_problem):
        rng = np.random.default_rng(23)
        u = random_theta_field(small_problem, rng)
        t_star, _, _ = project_to_nehari(small_problem, u)
        scan = ray_argmax_oracle(small_problem, u, 0.5 * t_star, 200)
        assert scan.t_best == pytest.approx(0.5 * t_star)
        assert not scan.interior

    def test_inadmissible_ray_has_no_interior_max(self, small_problem):
        g = small_problem.grid
        rng = np.random.default_rng(24)
        u = random_theta_field(small_problem, rng)
        carrier = np.cos((np.pi * (g.n // 2 - 1) / g.R) * g.axis)
        bad = Field(g, u.values * carrier)
        scan = ray_argmax_oracle(small_problem, bad, 50.0, 500)
        assert not scan.interior
