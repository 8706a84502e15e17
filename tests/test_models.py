"""Potential and nonlinearity specifications and their hypothesis validators,
and the NaN guard of every public range check."""

import re

import numpy as np
import pytest

from conftest import expression_potential
from fracstates.diagnostics import (boundary_mass_fraction, decay_fit, profile_error,
                                    sigma_membership)
from fracstates.errors import (
    FracstatesError,
    InvalidGrid,
    InvalidInput,
    NonFinite,
    NonpositivePotential,
    NonpositiveShift,
    NonpositiveTail,
    WindowTooSmall,
    ZeroField,
)
from fracstates.grid import Field, Grid, helmholtz_inverse, make_grid
from fracstates.localization import barycenter_h, build_boxes, seed_field, truncated_coordinate
from fracstates.models import (
    NonlinearitySpec,
    PotentialSpec,
    Well,
    sample_potential,
    validate_nonlinearity,
    validate_potential,
)
from fracstates.solver import SolveOptions, solve_constrained
from fracstates.variational import Problem, energy, gradient, project_to_nehari


def nonlin_eval(spec, t):
    """(f(t), f'(t), F(t)) at one point."""
    f, fp, big = spec.triple(np.array([float(t)]))
    return float(f[0]), float(fp[0]), float(big[0])


def _single_well(v_inf=2.0, depth=1.0, width=1.0, center=(0.0,)):
    return PotentialSpec(v_inf, (Well(center, depth, width),))


class TestSamplePotential:
    def test_value_at_center(self):
        g = make_grid(1, 8.0, 64)
        f = sample_potential(_single_well(), g, 1.0)
        assert f.values[g.index_of((0.0,))[0]] == pytest.approx(1.0)

    def test_rescaling_keeps_center_value(self):
        g = make_grid(1, 8.0, 64)
        f = sample_potential(_single_well(), g, 0.5)
        i0 = g.index_of((0.0,))[0]
        assert f.values[i0] == pytest.approx(1.0)
        # off-center grid point x samples V(0.5 x)
        x = g.axis[i0 + 8]
        spec = _single_well()
        assert f.values[i0 + 8] == pytest.approx(float(spec.evaluate([[0.5 * x]])[0]))

    def test_nonpositive_rejected(self):
        g = make_grid(1, 8.0, 64)
        with pytest.raises(NonpositivePotential):
            sample_potential(_single_well(v_inf=0.5, depth=1.0), g, 1.0)


class TestEvaluate:
    _WELLS = {
        1: (Well((0.4,), 1.0, 2.0), Well((-1.5,), 0.7, 0.5)),
        2: (Well((0.4, -0.2), 1.0, 2.0), Well((-1.5, 1.0), 0.7, 0.5)),
        3: (Well((0.4, -0.2, 0.1), 1.0, 2.0), Well((-1.5, 1.0, 0.3), 0.7, 0.5)),
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_sum_bit_for_bit(self, d):
        spec = PotentialSpec(2.0, self._WELLS[d])
        pts = np.random.default_rng(d).uniform(-3.0, 3.0, size=(40, d))
        expected = np.full(40, 2.0)
        for w in spec.wells:
            r2 = np.zeros(40)
            for a in range(d):
                r2 = r2 + (pts[:, a] - w.center[a]) ** 2
            expected = expected - w.depth * np.exp(-r2 / w.width)
        assert np.array_equal(spec.evaluate(pts), expected)

    def test_integer_numbers_are_floats(self):
        # an integer level would make np.full build an integer array, which
        # cannot take the wells' float subtraction in place
        spec = PotentialSpec(2, (Well((0,), 1, 1),))
        assert spec == PotentialSpec(2.0, (Well((0.0,), 1.0, 1.0),))
        assert spec.evaluate([[0.0], [1.0]]).tolist() == [1.0, 2.0 - np.exp(-1.0)]

    @pytest.mark.parametrize("center", [0.5, [0.5], (0.5,), np.array([0.5]), np.array(0.5),
                                        np.float64(0.5)],
                             ids=["number", "list", "tuple", "array", "array-0d", "numpy-scalar"])
    def test_center_is_a_number_or_a_sequence(self, center):
        assert Well(center, 1.0, 1.0).center == (0.5,)

    def test_nested_center_is_named_as_given(self):
        with pytest.raises(InvalidInput, match=re.escape("well center: expected a number, "
                                                         "got [0.3]") + "$"):
            Well([[0.3]], 1.0, 1.0)


class TestValidatePotential:
    def test_symmetric_double_well_passes(self):
        spec = PotentialSpec(2.0, (Well((-2.0,), 1.0, 0.5), Well((2.0,), 1.0, 0.5)))
        g = make_grid(1, 10.0, 512)
        rep = validate_potential(spec, g)
        assert rep.pass_v1 and rep.pass_v2
        assert rep.v0 == pytest.approx(1.0, abs=1e-3)
        assert rep.messages == []

    def test_single_well_passes(self):
        rep = validate_potential(_single_well(), make_grid(1, 10.0, 512))
        assert rep.pass_v1 and rep.pass_v2
        assert rep.messages == []

    def test_unequal_depths_fail_v2_for_shallower(self):
        spec = PotentialSpec(2.0, (Well((-2.0,), 1.0, 0.5), Well((2.0,), 0.8, 0.5)))
        rep = validate_potential(spec, make_grid(1, 10.0, 512))
        assert not rep.pass_v2
        v2 = [m for m in rep.messages if m.startswith("(V2)")]
        assert v2 and all("well at (2.0,)" in m for m in v2)

    def test_v1_fails_when_background_too_low(self):
        # very wide well: boundary shell still sits deep in the well
        spec = _single_well(width=2000.0)
        rep = validate_potential(spec, make_grid(1, 10.0, 256))
        assert not rep.pass_v1

    def test_nonpositive_minimum_fails_v1(self):
        rep = validate_potential(_single_well(v_inf=0.5), make_grid(1, 10.0, 256))
        assert not rep.pass_v1
        assert "(V1) fail: minimum -0.5 <= 0" in rep.messages

    def test_custom_expression_validated_numerically(self):
        spec = expression_potential(
            lambda pts: 2.0 - 1.0 / np.cosh(pts[:, 0]) ** 2,
            minima=[(0.0,)],
            v_inf_level=2.0,
        )
        g = make_grid(1, 10.0, 512)
        rep = validate_potential(spec, g)
        assert rep.pass_v1 and rep.pass_v2, rep.messages
        f = sample_potential(spec, g, 0.5)
        assert f.values[g.index_of((0.0,))[0]] == pytest.approx(1.0)

    def test_off_grid_center_sets_v0(self):
        # h = 0.25 puts no grid point on the center, so the grid alone reads
        # V0 = 1.029 and would fail (V2) by 3% of the depth
        spec = PotentialSpec(2.0, (Well((0.1, 0.07), 1.0, 0.5),))
        rep = validate_potential(spec, make_grid(2, 8.0, 64))
        assert rep.v0 == spec.v0_proxy == 1.0
        assert rep.pass_v1 and rep.pass_v2, rep.messages

    def test_deeper_grid_point_sets_v0(self):
        # two overlapping wells sum to an undeclared minimum at 0, 0.13 below
        # both centers, which the grid finds
        spec = PotentialSpec(2.0, (Well((-0.3,), 1.0, 1.0), Well((0.3,), 1.0, 1.0)))
        rep = validate_potential(spec, make_grid(1, 10.0, 512))
        assert rep.v0 == pytest.approx(2.0 - 2.0 * np.exp(-0.09), abs=1e-3)
        assert rep.v0 < spec.v0_proxy - 0.1
        assert not rep.pass_v2
        assert sum("attains" in m for m in rep.messages) == 2

    def test_center_on_a_slope_fails_v2(self):
        # a shallow narrow well on the flank of a wide one is no strict minimum
        spec = PotentialSpec(2.0, (Well((0.0,), 1.0, 4.0), Well((1.0,), 0.001, 0.01)))
        rep = validate_potential(spec, make_grid(1, 10.0, 512))
        assert not rep.pass_v2
        assert "(V2) fail: well at (1.0,) is not a strict minimum" in rep.messages

    def test_custom_expression_with_wrong_minimum_fails_v2(self):
        spec = expression_potential(
            lambda pts: 2.0 - 1.0 / np.cosh(pts[:, 0] - 1.0) ** 2,
            minima=[(0.0,)],  # claimed minimum is off by 1
            v_inf_level=2.0,
        )
        rep = validate_potential(spec, make_grid(1, 10.0, 512))
        assert not rep.pass_v2


class TestNonlinEval:
    def test_saturable_direct_value(self):
        spec = NonlinearitySpec.saturable(0.5)
        f, fp, F = nonlin_eval(spec, 2.0)
        assert f == pytest.approx(8.0 / 3.0)

    def test_zero_for_negative_argument(self):
        for spec in (
            NonlinearitySpec.saturable(0.5),
            NonlinearitySpec.custom(
                lambda t: t**3, lambda t: 3 * t**2, lambda t: t**4 / 4, np.inf, 4.0, 10.0
            ),
        ):
            assert nonlin_eval(spec, -1.0) == (0.0, 0.0, 0.0)

    def test_custom_law_vanishes_for_nonpositive_t(self):
        # (f1)'s t <= 0 half holds by construction: callables that are
        # nonzero there read 0 through every evaluation path
        def one(t):
            return 1.0 + 0.0 * t

        spec = NonlinearitySpec.custom(one, one, one, l0=2.0, q=3.0, C0=1.0)
        t = np.array([-2.0, -0.5, 0.0])
        assert all(np.array_equal(part, np.zeros(3)) for part in spec.triple(t))
        assert np.array_equal(spec.f(t), np.zeros(3))
        assert spec.rate_sum(t, 2.0) == 0.0
        r = np.array([-1.0, -0.25, 0.0])
        assert spec.rate_pair(r * r, r, 4.0) == (0.0, 0.0)
        assert spec.rate_primitive(r * r, r, 4.0) == (0.0, 0.0)
        assert validate_nonlinearity(NonlinearitySpec.saturable(0.5)).pass_f1

    def test_antiderivative_against_quadrature(self):
        # F(1) for s=0.5 equals the integral of f over [0,1]
        spec = NonlinearitySpec.saturable(0.5)
        t = np.linspace(0.0, 1.0, 20001)
        quad = np.trapezoid(spec.f(t), t)
        _, _, F1 = nonlin_eval(spec, 1.0)
        assert F1 == pytest.approx(1.0 - 2.0 * np.log(1.5), rel=1e-9)
        assert F1 == pytest.approx(quad, rel=1e-8)

    def test_derivative_consistency_fd(self):
        spec = NonlinearitySpec.saturable(0.4)
        h = 1e-6
        for t in (0.3, 1.1, 4.0):
            f_m = nonlin_eval(spec, t - h)[0]
            f_p = nonlin_eval(spec, t + h)[0]
            F_m = nonlin_eval(spec, t - h)[2]
            F_p = nonlin_eval(spec, t + h)[2]
            fp = nonlin_eval(spec, t)[1]
            f = nonlin_eval(spec, t)[0]
            assert (f_p - f_m) / (2 * h) == pytest.approx(fp, rel=1e-6)
            assert (F_p - F_m) / (2 * h) == pytest.approx(f, rel=1e-6)


class TestValidateNonlinearity:
    def test_canonical_saturable_passes(self):
        rep = validate_nonlinearity(NonlinearitySpec.saturable(0.4), sup_v=2.0)
        assert all((rep.pass_f1, rep.pass_f2, rep.pass_f3, rep.pass_f4, rep.pass_f5)), rep.messages

    def test_saturable_law_is_its_s(self):
        direct = NonlinearitySpec(s=0.4)
        assert direct == NonlinearitySpec.saturable(0.4)
        assert hash(direct) == hash(NonlinearitySpec.saturable(0.4))
        assert (direct.l0, direct.q, direct.C0) == (2.5, 2.0, 9.0 / 3.2)
        rep = validate_nonlinearity(direct, sup_v=2.0)
        assert all((rep.pass_f1, rep.pass_f2, rep.pass_f3, rep.pass_f4, rep.pass_f5))
        assert rep.messages == []
        # growth data that fail (f2) cannot be declared beside s
        with pytest.raises(InvalidInput, match="its s alone"):
            NonlinearitySpec(2.5, 7.0, 0.01, s=0.4)

    def test_saturable_declares_q_2(self):
        import inspect

        spec = NonlinearitySpec.saturable(0.4)
        assert list(inspect.signature(NonlinearitySpec.saturable).parameters) == ["s"]
        assert spec.q == 2.0
        # |f'| <= C0 bounds C0 (1 + t^(q-2)) for every q >= 2; a custom law
        # may declare q = 2 too, but no less
        f, fp, big = (lambda t, i=i: spec.triple(t)[i] for i in range(3))
        assert validate_nonlinearity(NonlinearitySpec.custom(f, fp, big, 2.5, 2.0, spec.C0),
                                     sup_v=2.0).pass_f2
        with pytest.raises(InvalidInput, match="at least 2"):
            NonlinearitySpec.custom(f, fp, big, 2.5, 1.9, spec.C0)

    def test_specs_compare_by_value(self):
        import dataclasses

        assert NonlinearitySpec.saturable(0.4) == NonlinearitySpec.saturable(0.4)
        assert NonlinearitySpec.saturable(0.4) != NonlinearitySpec.saturable(0.5)
        assert hash(NonlinearitySpec.saturable(0.4)) == hash(NonlinearitySpec.saturable(0.4))

        def cube(t):
            return t**3

        def law(f, q=4.0):
            return NonlinearitySpec.custom(f, lambda t: 3 * t**2, lambda t: t**4 / 4,
                                           l0=np.inf, q=q, C0=10.0)

        assert law(cube) != law(lambda t: t**3)  # callables compare by identity
        spec = law(cube)
        assert dataclasses.replace(spec) == spec != dataclasses.replace(spec, q=5.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.q = 3.0

    def test_f3_fails_when_slope_below_potential(self):
        rep = validate_nonlinearity(NonlinearitySpec.saturable(1.0), sup_v=1.5)
        assert not rep.pass_f3

    def test_pure_power_fails_f3(self):
        spec = NonlinearitySpec.custom(
            lambda t: t**3, lambda t: 3 * t**2, lambda t: t**4 / 4,
            l0=np.inf, q=4.0, C0=10.0,
        )
        rep = validate_nonlinearity(spec)
        assert not rep.pass_f3

    def test_infinite_slope_reports_only_not_finite(self):
        # l0 = inf is not compared with sup V: "l0 = inf <= sup V" is false
        spec = NonlinearitySpec.custom(
            lambda t: t**3, lambda t: 3 * t**2, lambda t: t**4 / 4,
            l0=np.inf, q=4.0, C0=10.0,
        )
        rep = validate_nonlinearity(spec, sup_v=2.0)
        assert not rep.pass_f3
        assert [m for m in rep.messages if m.startswith("(f3)")] == [
            "(f3) fail: declared asymptotic slope is not finite"
        ]

    @pytest.mark.parametrize("law, message", [
        (lambda sat: NonlinearitySpec.custom(lambda t: t**3, lambda t: 3 * t**2,
                                             lambda t: t**4 / 4, l0=np.inf, q=3.0, C0=0.1),
         "(f2) fail: |f'| exceeds C0*(1+t^(q-2)) on samples"),
        (lambda sat: NonlinearitySpec.custom(sat.f, lambda t: sat.triple(t)[1],
                                             lambda t: sat.triple(t)[2], l0=5.0, q=2.0,
                                             C0=sat.C0),
         "(f3) fail: f(T)/T = 2.49999 not within 5% of l0 = 5"),
        (lambda sat: NonlinearitySpec.custom(lambda t: t**3, lambda t: 3 * t**2,
                                             lambda t: t**4, l0=np.inf, q=4.0, C0=10.0),
         "(f5) fail: f(t)t/2 - F(t) is not nondecreasing on samples"),
    ], ids=["f2", "f3-slope", "f5-decreasing"])
    def test_failure_message(self, law, message):
        rep = validate_nonlinearity(law(NonlinearitySpec.saturable(0.4)))
        assert message in rep.messages

    def test_linear_fails_f1(self):
        spec = NonlinearitySpec.custom(
            lambda t: 2.0 * t, lambda t: 2.0 + 0.0 * t, lambda t: t**2,
            l0=2.0, q=3.0, C0=3.0,
        )
        rep = validate_nonlinearity(spec)
        assert not rep.pass_f1


class TestSaturableInvariants:
    def test_rate_monotone_with_declared_limit(self):
        # exact gap: l0 - f(t)/t = 1/(s(1+s t^2)) < 1/(s^2 t^2); the looser
        # 2/(s t^2) form additionally holds for s >= 1/2
        t = np.geomspace(0.1, 1e3, 300)
        for s in (0.4, 0.5, 1.0):
            spec = NonlinearitySpec.saturable(s)
            rate = spec.f(t) / t
            assert np.all(np.diff(rate) > 0)
            gap = np.abs(rate - spec.l0)
            assert np.all(gap < 1.0 / (s**2 * t**2))
            if s >= 0.5:
                assert np.all(gap < 2.0 / (s * t**2))

    def test_big_f_matches_quadrature_on_0_10(self):
        spec = NonlinearitySpec.saturable(0.4)
        for t_end in (0.5, 1.0, 2.0, 5.0, 10.0):
            t = np.linspace(0.0, t_end, 400001)
            quad = np.trapezoid(spec.f(t), t)
            big = nonlin_eval(spec, t_end)[2]
            assert big == pytest.approx(quad, rel=1e-8)

    def test_fbar_nonnegative_and_increasing(self):
        spec = NonlinearitySpec.saturable(0.4)
        t = np.geomspace(1e-2, 1e3, 400)
        f, _, big = spec.triple(t)
        fbar = 0.5 * f * t - big
        assert np.all(fbar >= 0)
        assert np.all(np.diff(fbar) > 0)

    def test_tf_prime_exceeds_f(self):
        spec = NonlinearitySpec.saturable(0.4)
        t = np.geomspace(1e-2, 50, 200)
        f, fp, _ = spec.triple(t)
        assert np.all(t * fp > f)

    def test_nehari_floor_needs_a_sub_unit_ratio(self):
        # nsq s / (w sum a) = 1: the Jensen bound gives no positive floor
        a = np.ones(4)
        spec = NonlinearitySpec.saturable(0.4)
        assert spec._nehari_floor(a, 10.0, 1.0, 4.0) == 0.0
        assert spec._nehari_floor(a, 5.0, 1.0, 4.0) > 0.0

    def test_f_alone_matches_triple_bit_for_bit(self):
        spec = NonlinearitySpec.saturable(0.4)
        rng = np.random.default_rng(12)
        t = np.concatenate([-rng.exponential(3.0, 100), [-0.0, 0.0, 0.0],
                            rng.exponential(3.0, 100), [1e-160, 1e6]])
        assert spec.f(t).tobytes() == spec.triple(t)[0].tobytes()


class TestCustomEnergySums:
    def test_energy_skips_fprime(self, small_problem):
        from fracstates.variational import Problem, _report, energy

        s = 0.4
        calls = []

        def fprime(t):
            calls.append(t.size)
            return t * t * (3.0 + s * t * t) / (1.0 + s * t * t) ** 2

        spec = NonlinearitySpec.custom(
            lambda t: t**3 / (1.0 + s * t * t),
            fprime,
            lambda t: t * t / (2.0 * s) - np.log1p(s * t * t) / (2.0 * s * s),
            l0=1.0 / s, q=2.5, C0=9.0 / (8.0 * s),
        )
        base = small_problem
        p = Problem(base.grid, base.alpha, base.eps, base.potential_field, spec)
        u = np.exp(-0.1 * p.grid.axis**2) * (1.0 + 0.5 * np.sin(p.grid.axis))
        u -= 0.2  # negative values exercise the t <= 0 branch
        rep = energy(p, Field(p.grid, u), semi=2.0)
        assert calls == []

        # the sums of a custom law are its plain expressions, bit for bit
        v = p.potential_field.values
        fv, _, big = spec.triple(u)
        sums = (float(np.dot(v, u * u)), float(np.sum(big)), float(np.dot(fv, u)))
        assert rep == _report(p, 2.0, *sums, float(np.dot(u, u)))


NAN = float("nan")
INF = float("inf")


def _nan_cases():
    """(id, call, error): each public range check given a NaN, which fails
    every comparison, so a check written as x <= 0 would let it through;
    then infinite model numbers, epsilons, tolerances and lengths, points
    of the wrong dimension, non-integer iteration caps, booleans and
    strings given for numbers and fields on another grid than the
    problem's, and laws that carry neither or both of s and the callables,
    or s and declared data."""
    g = make_grid(1, 8.0, 64)
    ones = Field(g, np.ones(g.size))
    with_nan = Field(g, np.where(np.arange(g.size) == 5, NAN, 1.0))
    nan_in_tail = Field(g, np.where(np.arange(g.size) == 40, NAN, 1.0))  # x = 2.0
    sat = NonlinearitySpec.saturable(0.4)

    def zero(t):
        return 0.0 * t

    coarse = Field(make_grid(1, 8.0, 32), np.ones(32))
    # the same size as the problem's grid but another spacing
    wide = Field(make_grid(1, 16.0, 64), np.ones(g.size))
    nan_samples = expression_potential(lambda pts: np.full(len(pts), NAN), [(0.0,)], 2.0)

    def problem(eps=1.0, v=ones):
        return Problem(grid=g, alpha=0.5, eps=eps, potential_field=v, nonlinearity=sat)

    return [
        ("make_grid-R", lambda: make_grid(1, NAN, 64), InvalidGrid),
        ("Well-center", lambda: Well((NAN,), 1.0, 1.0), InvalidInput),
        ("Well-depth", lambda: Well((0.0,), NAN, 1.0), InvalidInput),
        ("Well-width", lambda: Well((0.0,), 1.0, NAN), InvalidInput),
        ("PotentialSpec-v_inf_level", lambda: _single_well(v_inf=NAN), InvalidInput),
        ("saturable-s", lambda: NonlinearitySpec.saturable(NAN), InvalidInput),
        ("custom-q", lambda: NonlinearitySpec.custom(zero, zero, zero, l0=2.0, q=NAN, C0=1.0),
         InvalidInput),
        ("custom-l0", lambda: NonlinearitySpec.custom(zero, zero, zero, l0=NAN, q=3.0, C0=1.0),
         InvalidInput),
        ("custom-C0", lambda: NonlinearitySpec.custom(zero, zero, zero, l0=2.0, q=3.0, C0=NAN),
         InvalidInput),
        ("Problem-eps", lambda: problem(eps=NAN), InvalidInput),
        ("Problem-potential", lambda: problem(v=with_nan), NonpositivePotential),
        ("sample_potential-eps", lambda: sample_potential(_single_well(), g, NAN), InvalidInput),
        ("sample_potential-samples", lambda: sample_potential(nan_samples, g, 1.0),
         NonpositivePotential),
        ("helmholtz_inverse-c", lambda: helmholtz_inverse(ones, 0.5, NAN), NonpositiveShift),
        ("sigma_membership-omega", lambda: sigma_membership(None, 1.0, NAN), InvalidInput),
        ("truncated_coordinate-eps", lambda: truncated_coordinate(0.0, NAN, 1.0), InvalidInput),
        ("truncated_coordinate-L", lambda: truncated_coordinate(0.0, 1.0, NAN), InvalidInput),
        ("barycenter_h-L", lambda: barycenter_h(ones, 1.0, NAN), InvalidInput),
        ("index_of-nan", lambda: g.index_of((NAN,)), InvalidInput),
        ("index_of-inf", lambda: g.index_of((INF,)), InvalidInput),
        ("profile_error-eta", lambda: profile_error(ones, ones, (NAN,), 0.5), InvalidInput),
        ("decay_fit-eta", lambda: decay_fit(ones, (NAN,), (1.6, 4.0)), InvalidInput),
        ("decay_fit-sample", lambda: decay_fit(nan_in_tail, (0.0,), (1.6, 4.0)),
         NonpositiveTail),
        ("seed_field-y-nan", lambda: seed_field(ones, (NAN,), problem()), InvalidInput),
        ("seed_field-y-inf", lambda: seed_field(ones, (INF,), problem()), InvalidInput),
        # a point of the wrong dimension, and a non-integer iteration cap
        ("seed_field-y-dim", lambda: seed_field(ones, (0.0, 0.0), problem()), InvalidInput),
        ("index_of-dim", lambda: g.index_of((0.0, 0.0)), InvalidInput),
        ("profile_error-eta-dim", lambda: profile_error(ones, ones, (0.0, 0.0), 0.5),
         InvalidInput),
        ("decay_fit-eta-dim", lambda: decay_fit(ones, (0.0, 0.0), (1.6, 4.0)), InvalidInput),
        ("SolveOptions-max_iter-float", lambda: SolveOptions(max_iter=5.0), InvalidInput),
        ("SolveOptions-max_iter-inf", lambda: SolveOptions(max_iter=INF), InvalidInput),
        ("SolveOptions-max_iter-nan", lambda: SolveOptions(max_iter=NAN), InvalidInput),
        ("SolveOptions-max_iter-bool", lambda: SolveOptions(max_iter=True), InvalidInput),
        # a boolean, which float() and comparisons take as 0 or 1
        ("Well-center-bool", lambda: Well((True,), 1.0, 2.0), InvalidInput),
        ("Well-depth-bool", lambda: Well((0.0,), True, 2.0), InvalidInput),
        ("Well-width-bool", lambda: Well((0.0,), 1.0, np.True_), InvalidInput),
        ("PotentialSpec-v_inf_level-bool",
         lambda: PotentialSpec(True, (Well((0.0,), 1.0, 2.0),)), InvalidInput),
        ("saturable-s-bool", lambda: NonlinearitySpec.saturable(True), InvalidInput),
        ("SolveOptions-tol_residual-bool", lambda: SolveOptions(tol_residual=True),
         InvalidInput),
        ("custom-l0-bool", lambda: NonlinearitySpec.custom(zero, zero, zero, l0=True, q=3.0,
                                                           C0=1.0), InvalidInput),
        ("custom-C0-bool", lambda: NonlinearitySpec.custom(zero, zero, zero, l0=2.0, q=3.0,
                                                           C0=True), InvalidInput),
        # a string given for a number
        ("Well-center-str", lambda: Well(("a",), 1.0, 2.0), InvalidInput),
        ("Well-depth-str", lambda: Well((0.0,), "x", 2.0), InvalidInput),
        ("PotentialSpec-v_inf_level-str",
         lambda: PotentialSpec("x", (Well((0.0,), 1.0, 2.0),)), InvalidInput),
        ("saturable-s-str", lambda: NonlinearitySpec.saturable("x"), InvalidInput),
        ("custom-l0-str", lambda: NonlinearitySpec.custom(zero, zero, zero, l0="x", q=3.0,
                                                          C0=1.0), InvalidInput),
        ("SolveOptions-tol_residual-str", lambda: SolveOptions(tol_residual="x"),
         InvalidInput),
        # a field on another grid than the problem's
        ("energy-grid-size", lambda: energy(problem(), coarse), InvalidInput),
        ("energy-grid-R", lambda: energy(problem(), wide), InvalidInput),
        ("gradient-grid-size", lambda: gradient(problem(), coarse), InvalidInput),
        ("gradient-grid-R", lambda: gradient(problem(), wide), InvalidInput),
        ("project_to_nehari-grid-size", lambda: project_to_nehari(problem(), coarse),
         InvalidInput),
        ("project_to_nehari-grid-R", lambda: project_to_nehari(problem(), wide), InvalidInput),
        ("solve_constrained-grid-size", lambda: solve_constrained(problem(), coarse),
         InvalidInput),
        ("solve_constrained-grid-R", lambda: solve_constrained(problem(), wide), InvalidInput),
        # a law is saturable when it carries s, custom when it carries f, f', F
        ("NonlinearitySpec-neither", lambda: NonlinearitySpec(2.5, 2.0, 1.0), InvalidInput),
        ("NonlinearitySpec-both", lambda: NonlinearitySpec(2.5, 2.0, 1.0, 0.4, zero, zero, zero),
         InvalidInput),
        ("NonlinearitySpec-two-callables",
         lambda: NonlinearitySpec(2.5, 2.0, 1.0, None, zero, zero), InvalidInput),
        ("NonlinearitySpec-kind-tag",
         lambda: NonlinearitySpec("saturable", 2.5, 2.0, 1.0), InvalidInput),
        # the saturable law is its s, a positive finite number
        ("NonlinearitySpec-s", lambda: NonlinearitySpec(s=NAN), InvalidInput),
        ("NonlinearitySpec-s-negative", lambda: NonlinearitySpec(s=-0.4), InvalidInput),
        ("NonlinearitySpec-s-zero", lambda: NonlinearitySpec(s=0.0), InvalidInput),
        ("NonlinearitySpec-s-inf", lambda: NonlinearitySpec(s=INF), InvalidInput),
        ("NonlinearitySpec-s-bool", lambda: NonlinearitySpec(s=True), InvalidInput),
        ("NonlinearitySpec-s-str", lambda: NonlinearitySpec(s="x"), InvalidInput),
        # l0, q and C0 follow from s, so none is given with it, even its own value
        ("NonlinearitySpec-s-with-l0", lambda: NonlinearitySpec(l0=2.5, s=0.4), InvalidInput),
        ("NonlinearitySpec-s-with-q", lambda: NonlinearitySpec(q=2.0, s=0.4), InvalidInput),
        ("NonlinearitySpec-s-with-C0", lambda: NonlinearitySpec(C0=9.0 / 3.2, s=0.4),
         InvalidInput),
        ("NonlinearitySpec-s-with-data", lambda: NonlinearitySpec(2.5, 7.0, 0.01, s=0.4),
         InvalidInput),
        # an infinite model number or eps is refused where it is parsed
        ("Well-center-inf", lambda: Well((INF,), 1.0, 1.0), InvalidInput),
        ("Well-center-minus-inf", lambda: Well((0.0, -INF), 1.0, 1.0), InvalidInput),
        ("Well-depth-inf", lambda: Well((0.0,), INF, 1.0), InvalidInput),
        ("Well-width-inf", lambda: Well((0.0,), 1.0, INF), InvalidInput),
        ("PotentialSpec-v_inf_level-inf", lambda: _single_well(v_inf=INF), InvalidInput),
        ("Problem-eps-inf", lambda: problem(eps=INF), InvalidInput),
        ("sample_potential-eps-inf", lambda: sample_potential(_single_well(), g, INF),
         InvalidInput),
        # a tolerance and a length are finite
        ("SolveOptions-tol_residual-inf", lambda: SolveOptions(tol_residual=INF), InvalidInput),
        ("make_grid-R-inf", lambda: make_grid(1, INF, 8), InvalidGrid),
        ("build_boxes-l-inf", lambda: build_boxes(_single_well(), INF, 4.0), InvalidInput),
        ("build_boxes-L-inf", lambda: build_boxes(_single_well(), 1.0, INF), InvalidInput),
        ("build_boxes-nu-inf", lambda: build_boxes(_single_well(), 1.0, 4.0, INF),
         InvalidInput),
        # a grid checks its own R, and an infinite clamp length is refused
        ("Grid-R-inf", lambda: Grid(1, INF, 8), InvalidGrid),
        ("Grid-R-nan", lambda: Grid(1, NAN, 8), InvalidGrid),
        ("truncated_coordinate-L-inf", lambda: truncated_coordinate(np.array([1e9]), 0.5, INF),
         InvalidInput),
        ("truncated_coordinate-eps-inf", lambda: truncated_coordinate(np.array([1.0]), INF, 4.0),
         InvalidInput),
        ("barycenter_h-L-inf", lambda: barycenter_h(ones, 0.5, INF), InvalidInput),
        # an order outside (0, 1], and inputs of another dimension or grid
        ("Problem-alpha", lambda: Problem(grid=g, alpha=NAN, eps=1.0, potential_field=ones,
                                          nonlinearity=sat), InvalidInput),
        ("Problem-potential-grid", lambda: Problem(grid=g, alpha=0.5, eps=1.0,
                                                   potential_field=wide, nonlinearity=sat),
         InvalidInput),
        ("PotentialSpec-mixed-dim",
         lambda: PotentialSpec(2.0, (Well((0.0,), 1.0, 1.0), Well((0.0, 0.0), 1.0, 1.0))),
         InvalidInput),
        ("sample_potential-grid-dim",
         lambda: sample_potential(_single_well(), make_grid(2, 8.0, 16), 1.0), InvalidInput),
        ("build_boxes-outside", lambda: build_boxes(_single_well(center=(3.5,)), 1.0, 4.0),
         InvalidInput),
        # a non-finite seminorm or Lu, the zero field, and a window with no point
        ("energy-semi-inf", lambda: energy(problem(), ones, semi=INF), NonFinite),
        ("gradient-lu-nan", lambda: gradient(problem(), ones, lu=with_nan.values), NonFinite),
        ("boundary_mass_fraction-zero", lambda: boundary_mass_fraction(Field(g, np.zeros(64))),
         ZeroField),
        # unit spacing puts the points at |x| = 0, 1, 2, ..., none in [0.8, 0.9]
        ("decay_fit-empty-window",
         lambda: decay_fit(Field(make_grid(1, 4.0, 8), np.ones(8)), (0.0,), (0.8, 0.9)),
         WindowTooSmall),
    ]


@pytest.mark.parametrize("call, error", [pytest.param(c, e, id=i) for i, c, e in _nan_cases()])
def test_nan_is_rejected(call, error):
    with pytest.raises(error):
        call()



def _message_cases():
    """(id, call, error, message) of the rules each written once: a point
    (Grid.point), a positive finite number (models._positive), the order
    (grid._check_alpha) and the zero field (variational._ray)."""
    g = make_grid(1, 8.0, 64)
    ones = Field(g, np.ones(g.size))
    sat = NonlinearitySpec.saturable(0.4)

    def problem(eps=1.0, alpha=0.5):
        return Problem(grid=g, alpha=alpha, eps=eps, potential_field=ones, nonlinearity=sat)

    return [
        ("seed_field-center", lambda: seed_field(ones, (NAN,), problem()), InvalidInput,
         "seed center [nan] is not a finite point in 1 dimensions"),
        ("decay_fit-eta", lambda: decay_fit(ones, (0.0, 0.0), (1.6, 4.0)), InvalidInput,
         "eta [0. 0.] is not a finite point in 1 dimensions"),
        ("index_of-point", lambda: g.index_of((INF,)), InvalidInput,
         "point [inf] is not a finite point in 1 dimensions"),
        ("Problem-eps", lambda: problem(eps=0.0), InvalidInput,
         "eps must be a positive, finite number, got 0.0"),
        ("sample_potential-eps", lambda: sample_potential(_single_well(), g, -1.0), InvalidInput,
         "eps must be a positive, finite number, got -1.0"),
        ("Problem-eps-bool", lambda: problem(eps=True), InvalidInput,
         "eps: expected a number, got True"),
        ("Problem-alpha", lambda: problem(alpha=1.5), InvalidInput,
         "order alpha must lie in (0, 1], got 1.5"),
        ("truncated_coordinate-eps", lambda: truncated_coordinate(0.0, 0.0, 4.0), InvalidInput,
         "eps must be a positive, finite number, got 0.0"),
        ("truncated_coordinate-L", lambda: truncated_coordinate(0.0, 0.5, INF), InvalidInput,
         "L must be a positive, finite number, got inf"),
        ("solve_constrained-zero-seed",
         lambda: solve_constrained(problem(), Field(g, np.zeros(g.size))), ZeroField,
         "cannot project the zero field"),
    ]


@pytest.mark.parametrize("call, error, message",
                         [pytest.param(c, e, m, id=i) for i, c, e, m in _message_cases()])
def test_rule_message(call, error, message):
    with pytest.raises(FracstatesError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
