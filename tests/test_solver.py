"""Constrained descent, the autonomous limit problem, and sweep plumbing."""

import numpy as np
import pytest

from conftest import gaussian_field, ray_argmax_oracle, single_well_potential
from fracstates import solver
from fracstates.errors import (
    BudgetExceeded,
    ConfigError,
    InvalidInput,
    SeedNotInTheta,
    SlopeOrdering,
)
from fracstates.grid import Field, make_grid
from fracstates.localization import build_boxes, solve_branches
from fracstates.models import PotentialSpec, Well, sample_potential
from fracstates.solver import (
    DEFAULT_SEED_WIDTHS,
    SolveOptions,
    _gaussian_seed,
    energy_curve,
    grid_for_epsilon,
    limit_problem,
    solve_constrained,
    solve_limit,
    sweep_epsilon,
    validation_grid,
)
from fracstates.variational import Problem


@pytest.fixture(scope="module")
def flat_problem(saturable):
    g = make_grid(1, 40.0, 1024)
    return Problem(
        grid=g,
        alpha=0.5,
        eps=1.0,
        potential_field=Field(g, np.ones(g.size)),
        nonlinearity=saturable,
    )


@pytest.fixture
def projections(monkeypatch):
    """(projected field, energy) of every projection the solver makes, in
    order: the seed's, then each trial's, accepted or not."""
    seen = []
    project = solver.project_to_nehari

    def spy(p, u, semi=None, **trial):
        out = project(p, u, semi=semi, **trial)
        seen.append((out.projected, out.report.total))
        return out

    monkeypatch.setattr(solver, "project_to_nehari", spy)
    return seen


@pytest.fixture(scope="module")
def converged(flat_problem):
    return solve_constrained(flat_problem, gaussian_field(flat_problem.grid, 2.0))


class TestSolveConstrained:
    def test_converges_to_positive_bump(self, flat_problem, converged):
        res = converged
        assert res.converged
        assert res.residual <= 1e-8
        assert res.energy > 0
        assert abs(res.report.nehari_residual) <= 1e-6 * res.report.norm_eps_sq
        assert res.negative_mass <= 1e-6 * flat_problem.grid.weight * np.dot(
            res.u.values, res.u.values
        )

    def test_solution_is_ray_maximum(self, flat_problem, converged):
        scan = ray_argmax_oracle(flat_problem, converged.u, 4.0, 1000)
        assert scan.interior
        assert abs(scan.t_best - 1.0) <= 2 * 4.0 / 1000

    def test_energy_monotone_along_iterates(self, converged):
        e = np.array(converged.energy_history)
        assert np.all(np.diff(e) <= 1e-12 * (1 + np.abs(e[:-1])))

    def test_seed_not_in_theta(self, flat_problem):
        g = flat_problem.grid
        # strong mid-band oscillation: seminorm dominates the mass terms
        seed = Field(g, 1.0 + 0.5 * np.cos((np.pi * 200 / g.R) * g.axis))
        with pytest.raises(SeedNotInTheta):
            solve_constrained(flat_problem, seed)

    def test_seed_array_unchanged(self, flat_problem):
        seed = gaussian_field(flat_problem.grid, 3.0)
        before = seed.values.copy()
        assert solve_constrained(flat_problem, seed).converged
        assert np.array_equal(seed.values, before)

    def test_deterministic_reruns(self, flat_problem):
        seed = gaussian_field(flat_problem.grid, 3.0)
        a = solve_constrained(flat_problem, seed)
        b = solve_constrained(flat_problem, seed)
        assert a.iterations == b.iterations
        assert a.energy == b.energy
        assert np.array_equal(a.u.values, b.u.values)

    def test_max_iter_returns_unconverged(self, flat_problem):
        res = solve_constrained(
            flat_problem, gaussian_field(flat_problem.grid, 2.0), SolveOptions(max_iter=3)
        )
        assert not res.converged
        assert res.iterations == 3

    def test_max_iter_returns_iterate_within_floor(self, flat_problem, projections):
        # past the minimum (18 iterations to tol 1e-8) the energy rises at
        # rounding level, far below the Armijo floor
        res = solve_constrained(flat_problem, gaussian_field(flat_problem.grid, 2.0),
                                SolveOptions(max_iter=60, tol_residual=1e-300))
        hist = res.energy_history
        assert not res.converged and len(hist) == 61
        assert max(np.diff(hist)) > 0
        kept = [e for u, e in projections if u is res.u]
        assert len(kept) == 1
        assert kept[0] <= min(hist) + 1e-13 * (1.0 + abs(kept[0]))
        # every rise stays within the floor, so no lower iterate is kept apart
        assert projections[-1][0] is res.u

    def test_converged_returns_last_iterate(self, flat_problem, projections):
        res = solve_constrained(flat_problem, gaussian_field(flat_problem.grid, 2.0))
        assert res.converged
        last_u, last_e = projections[-1]
        assert res.u is last_u and last_e == res.energy_history[-1]

    def test_translation_equivariance(self, flat_problem, converged):
        g = flat_problem.grid
        seed = gaussian_field(g, 2.0)
        shifted_seed = Field(g, np.roll(seed.values, 1))
        res_shift = solve_constrained(flat_problem, shifted_seed)
        assert res_shift.energy == pytest.approx(converged.energy, rel=1e-8)
        back = np.roll(res_shift.u.values, -1)
        rel = np.linalg.norm(back - converged.u.values) / np.linalg.norm(converged.u.values)
        assert rel < 1e-5


class TestSolveLimit:
    def test_slope_ordering_rejected(self, saturable):
        g = make_grid(1, 20.0, 128)
        with pytest.raises(SlopeOrdering):
            solve_limit(saturable.l0, saturable, g, 0.5)

    def test_even_profile_after_recentering(self, limit_state):
        u = limit_state.u
        n = u.grid.n
        k = int(np.argmax(u.values))
        centered = np.roll(u.values, n // 2 - k)
        mirrored = centered[(n - np.arange(n)) % n]
        rel = np.linalg.norm(centered - mirrored) / np.linalg.norm(centered)
        assert rel < 1e-6

    def test_multistart_consistency(self, saturable):
        g = make_grid(1, 40.0, 1024)
        p_opts = SolveOptions(max_iter=20000)
        energies = []
        for width in (1.0, 1.7, 2.9, 4.9, 8.3):
            res = solve_limit(1.0, saturable, g, 0.5, p_opts, seed_widths=(width,))
            energies.append(res.energy)
        spread = (max(energies) - min(energies)) / abs(min(energies))
        assert spread < 1e-6

    def test_positive_ground_state(self, limit_state):
        assert limit_state.converged
        assert limit_state.energy > 0
        assert limit_state.negative_mass == pytest.approx(0.0, abs=1e-12)


class TestFirstAdmissibleSeed:
    """solve_limit returns the descent from the first admissible width."""

    OPTS = SolveOptions(max_iter=20000)

    def test_default_widths_reach_one_energy(self, saturable):
        # the premise: on the canonical limit fixture every default width
        # descends to the same ground state, so later widths add nothing
        g = make_grid(1, 80.0, 640)
        p = limit_problem(1.0, saturable, g, 0.5)
        energies = [solve_constrained(p, _gaussian_seed(g, width), self.OPTS).energy
                    for width in DEFAULT_SEED_WIDTHS]
        assert max(energies) - min(energies) <= 1e-10

    def test_first_width_descent_bit_for_bit(self, saturable, limit_state):
        g = limit_state.u.grid
        ref = solve_constrained(limit_problem(1.0, saturable, g, 0.5),
                                _gaussian_seed(g, 1.0), self.OPTS)
        assert limit_state.energy == ref.energy
        assert limit_state.iterations == ref.iterations
        assert np.array_equal(limit_state.u.values, ref.u.values)

    def test_one_descent_when_first_width_admissible(self, saturable, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_constrained(*args, **kwargs)

        monkeypatch.setattr("fracstates.solver.solve_constrained", counting)
        solve_limit(1.0, saturable, make_grid(1, 80.0, 640), 0.5, self.OPTS)
        assert len(calls) == 1

    def test_inadmissible_first_width_falls_back(self, saturable):
        # criterion 4's grid at its top level: width 1.0 lies outside Theta
        g = make_grid(1, 40.0, 1024)
        p = limit_problem(2.0, saturable, g, 0.5)
        with pytest.raises(SeedNotInTheta):
            solve_constrained(p, _gaussian_seed(g, 1.0), self.OPTS)
        res = solve_limit(2.0, saturable, g, 0.5, self.OPTS)
        ref = solve_constrained(p, _gaussian_seed(g, 1.7), self.OPTS)
        assert res.energy == ref.energy
        assert np.array_equal(res.u.values, ref.u.values)

    def test_level_near_slope_converges(self, saturable):
        # l0 = 2.5: no width up to 8.3 is admissible at a = 2.45 on this grid
        g = make_grid(1, 80.0, 640)
        res = solve_limit(2.45, saturable, g, 0.5, self.OPTS)
        ref = solve_constrained(limit_problem(2.45, saturable, g, 0.5),
                                _gaussian_seed(g, 14.1), self.OPTS)
        assert res.converged
        assert res.energy == ref.energy
        with pytest.raises(SeedNotInTheta):
            solve_limit(2.45, saturable, g, 0.5, self.OPTS, seed_widths=DEFAULT_SEED_WIDTHS[:5])

    def test_no_admissible_width_raises(self, saturable):
        g = make_grid(1, 40.0, 1024)
        with pytest.raises(SeedNotInTheta, match="no Gaussian seed width"):
            solve_limit(2.0, saturable, g, 0.5, self.OPTS, seed_widths=(1.0,))

    @pytest.mark.parametrize("widths", [(), (1.0, 0.0), (1.0, -1.0)],
                             ids=["empty", "zero", "negative"])
    def test_bad_widths_rejected(self, saturable, widths):
        with pytest.raises(InvalidInput, match="positive widths"):
            solve_limit(1.0, saturable, make_grid(1, 20.0, 128), 0.5, seed_widths=widths)


class TestEnergyCurve:
    def test_strict_monotonicity_small(self, saturable):
        g = make_grid(1, 40.0, 512)
        curve = energy_curve([0.8, 1.2], saturable, g, 0.5)
        assert curve[1][1] > curve[0][1]

    def test_singleton(self, saturable):
        g = make_grid(1, 40.0, 512)
        curve = energy_curve([1.0], saturable, g, 0.5)
        assert len(curve) == 1

    def test_unsorted_rejected(self, saturable):
        g = make_grid(1, 40.0, 512)
        with pytest.raises(InvalidInput):
            energy_curve([1.0, 0.5], saturable, g, 0.5)

    def test_out_of_range_rejected(self, saturable):
        g = make_grid(1, 40.0, 512)
        with pytest.raises(SlopeOrdering):
            energy_curve([1.0, saturable.l0 + 0.1], saturable, g, 0.5)


class TestHigherDimensions:
    def test_2d_limit_ground_state(self, saturable):
        g = make_grid(2, 16.0, 128)
        res = solve_limit(1.0, saturable, g, 0.5, SolveOptions(max_iter=20000),
                          seed_widths=(1.5, 2.5))
        assert res.converged
        assert res.energy > 0
        assert res.negative_mass == 0.0
        # dihedral symmetry of the recentred profile: both mirrors + transpose
        shaped = res.u.shaped
        k = np.unravel_index(np.argmax(res.u.values), g.shape)
        centered = np.roll(shaped, (g.n // 2 - k[0], g.n // 2 - k[1]), axis=(0, 1))
        scale = np.linalg.norm(centered)
        idx = (g.n - np.arange(g.n)) % g.n
        assert np.linalg.norm(centered - centered[idx, :]) / scale < 1e-6
        assert np.linalg.norm(centered - centered[:, idx]) / scale < 1e-6
        assert np.linalg.norm(centered - centered.T) / scale < 1e-6

    def test_2d_branch_classification(self, saturable):
        pot = PotentialSpec(2.0, (Well((1.0 / 3.0, 0.0), 1.0, 2.0),))
        g = make_grid(2, 12.0, 96)
        vf = sample_potential(pot, g, 0.5)
        p = Problem(grid=g, alpha=0.5, eps=0.5, potential_field=vf,
                    nonlinearity=saturable)
        w = solve_limit(1.0, saturable, make_grid(2, 12.0, 96), 0.5,
                        SolveOptions(max_iter=20000), seed_widths=(1.5,))
        boxes = build_boxes(pot, 1.0, 4.0)
        ex = solve_branches(p, boxes, w.u, SolveOptions(max_iter=20000))
        br = ex.branches[0]
        assert br.label.kind == "interior"
        assert br.result.converged
        assert np.max(np.abs(br.barycenter - np.array([1.0 / 3.0, 0.0]) / 0.5)) < 2 * boxes.l

    def test_3d_limit_solve_smoke(self, saturable):
        g = make_grid(3, 8.0, 32)
        res = solve_limit(1.0, saturable, g, 0.5, SolveOptions(max_iter=20000),
                          seed_widths=(1.5,))
        assert res.converged
        assert res.energy > 0
        assert np.max(res.u.values) > 1.0
        assert res.max_point == (0.0, 0.0, 0.0)


def _one_well_config(saturable, epsilons, **sweep):
    """A 1-D single-well experiment config for the given epsilon list."""
    from fracstates.config import (
        BoxesBlock,
        ExperimentConfig,
        LimitBlock,
        ProblemBlock,
        SweepBlock,
    )

    return ExperimentConfig(
        problem=ProblemBlock(d=1, alpha=0.5, R0=8.0),
        potential=single_well_potential(),
        nonlinearity=saturable,
        boxes=BoxesBlock(1.0, 4.0, None),
        sweep=SweepBlock(epsilons=tuple(epsilons), **sweep),
        limit=LimitBlock(R=20.0, n=160),
    )


class TestSweepEpsilon:
    def test_2d_sweep_record_assembly(self, saturable):
        from fracstates.config import (
            BoxesBlock,
            ExperimentConfig,
            LimitBlock,
            ProblemBlock,
            SweepBlock,
        )

        pot = PotentialSpec(2.0, (Well((1.0 / 3.0, 0.0), 1.0, 2.0),))
        cfg = ExperimentConfig(
            problem=ProblemBlock(d=2, alpha=0.5, R0=6.0),
            potential=pot,
            nonlinearity=saturable,
            boxes=BoxesBlock(1.0, 4.0, None),
            sweep=SweepBlock(epsilons=(0.5,), max_iter=20000),
            limit=LimitBlock(R=12.0, n=96),
        )
        records = sweep_epsilon(cfg)
        assert len(records) == 1
        rec = records[0]
        br = rec.branches[0]
        assert br.label.kind == "interior"
        assert br.result.converged
        assert rec.c_eps == br.alpha_energy
        assert rec.entries[0]["profile_error"] > 0
        assert rec.entries[0]["boundary_mass"] < 1e-3
        assert rec.sigma_members == [1]

    # a sweep has no epsilon list to check: the config rejects a bad one
    # when it is constructed
    def test_empty_list_rejected(self, saturable):
        with pytest.raises(ConfigError, match="sweep.epsilons: expected a non-empty list"):
            _one_well_config(saturable, ())

    def test_nondecreasing_list_rejected(self, saturable):
        with pytest.raises(ConfigError, match="sweep.epsilons: must be positive and strictly"):
            _one_well_config(saturable, (0.25, 0.5))


class TestBarzilaiBorweinStep:
    """The descent starts each line search at the BB2 step."""

    def test_flat_problem_iterations(self, converged):
        # the unit-step descent takes 53 iterations to the same energy
        assert converged.iterations <= 30

    def test_ladder_iterations_and_energies(self, saturable):
        # unit-step descent: 252 / 684 / 2143 iterations to these energies
        unit_step_energies = (3.2791747924620758, 3.034479763011255, 2.950508706590491)
        records = sweep_epsilon(
            _one_well_config(saturable, (0.5, 0.25, 0.125), max_iter=20000)
        )
        for rec, e_ref in zip(records, unit_step_energies):
            for br in rec.branches:
                assert br.result.converged
                assert br.result.iterations <= 300
            assert rec.c_eps == pytest.approx(e_ref, rel=1e-12)

    def test_long_trial_steps_are_shrunk(self, flat_problem, projections):
        res = solve_constrained(flat_problem, gaussian_field(flat_problem.grid, 2.0))
        assert res.converged
        # one projection of the seed plus one per accepted step: any more
        # means a BB trial step was rejected and shrunk
        assert len(projections) > res.iterations + 1
        e = np.array(res.energy_history)
        assert np.all(np.diff(e) <= 1e-12 * (1 + np.abs(e[:-1])))


class TestCarriedOperator:
    """The descent carries (-Lap)^a u instead of transforming every trial."""

    def test_fft_budget(self, flat_problem, monkeypatch):
        counts = []
        for name in ("rfftn", "irfftn", "ifftn", "irfft"):
            fft = getattr(np.fft, name)

            def counting(*args, _fft=fft, **kwargs):
                counts.append(1)
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        res = solve_constrained(flat_problem, gaussian_field(flat_problem.grid, 2.0))
        assert res.converged
        assert len(counts) <= 3 * res.iterations + 8

    def test_operator_applied_for_seed_and_certificate_only(self, flat_problem, monkeypatch):
        import fracstates.grid as grid
        import fracstates.solver as solver
        import fracstates.variational as variational

        calls = []
        apply = grid.apply_frac_laplacian

        def counting(u, alpha):
            calls.append(1)
            return apply(u, alpha)

        for module in (grid, solver, variational):
            monkeypatch.setattr(module, "apply_frac_laplacian", counting)
        res = solve_constrained(flat_problem, gaussian_field(flat_problem.grid, 2.0))
        assert res.converged
        # the final report takes its seminorm from the certificate's operator
        assert len(calls) == 2

    @pytest.mark.parametrize("max_iter", [3, 2000])
    def test_certificate_is_fresh(self, flat_problem, max_iter):
        import math

        from fracstates.variational import energy, gradient

        p = flat_problem
        res = solve_constrained(p, gaussian_field(p.grid, 2.0), SolveOptions(max_iter=max_iter))
        g = gradient(p, res.u).values
        u = res.u.values
        w = p.grid.weight
        assert res.residual == math.sqrt(w * float(np.dot(g, g))) / math.sqrt(
            w * float(np.dot(u, u)))
        assert res.report == energy(p, res.u)

    def test_drifted_operator_is_not_certified(self, flat_problem, converged, monkeypatch):
        import fracstates.solver as solver

        apply = solver.apply_frac_laplacian
        calls = []

        def drifted(u, alpha):
            out = apply(u, alpha)
            if not calls:  # the seed's operator: its error rides the recurrence
                out = Field(out.grid, out.values * (1.0 + 1e-6))
            calls.append(1)
            return out

        monkeypatch.setattr(solver, "apply_frac_laplacian", drifted)
        res = solve_constrained(flat_problem, gaussian_field(flat_problem.grid, 2.0))
        assert res.converged
        # the seed's, at least one refused certificate, the accepted one
        assert len(calls) >= 3
        assert res.energy == pytest.approx(converged.energy, rel=1e-10)

class TestDiverged:
    def test_unreachable_step_raises(self, flat_problem, monkeypatch):
        import fracstates.solver as solver
        from fracstates.errors import Diverged

        monkeypatch.setattr(solver, "_STEP_INIT", 1e9)
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 2)
        seed = gaussian_field(flat_problem.grid, 2.0)
        with pytest.raises(Diverged):
            solve_constrained(flat_problem, seed)


class TestGridForEpsilon:
    def test_fixed_spacing(self):
        g = grid_for_epsilon(1, 0.25, 16.0, 400.0, 0.25, 10**7)
        assert g.h == pytest.approx(0.25)
        assert g.R == pytest.approx(64.0)

    def test_cap_applies(self):
        g = grid_for_epsilon(1, 1e-4, 16.0, 100.0, 0.25, 10**7)
        assert g.R == pytest.approx(100.0)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            grid_for_epsilon(1, 1e-3, 16.0, 1e6, 0.25, 10**5)

    @pytest.mark.parametrize("bad", [
        {"eps": -0.25}, {"eps": 0.0}, {"eps": float("nan")}, {"R0": -16.0},
        {"R_cap": -400.0}, {"h0": float("nan")}, {"h0": 0.0},
    ], ids=["eps-negative", "eps-zero", "eps-nan", "R0-negative", "R_cap-negative",
            "h0-nan", "h0-zero"])
    def test_bad_argument_rejected(self, bad):
        args = dict(d=1, eps=0.25, R0=16.0, R_cap=400.0, h0=0.25, point_budget=10**7)
        with pytest.raises(InvalidInput, match="must be positive"):
            grid_for_epsilon(**{**args, **bad})

    @pytest.mark.parametrize("R0,R_cap", [(float("inf"), float("inf")), (1e308, 1e308)],
                             ids=["inf", "1e308"])
    def test_infinite_point_count_is_over_budget(self, R0, R_cap):
        # 2R/h0 is infinite: the float count is tested before any int()
        with pytest.raises(BudgetExceeded, match="eps=0.5 grid of inf points per axis"):
            grid_for_epsilon(1, 0.5, R0, R_cap, 0.25, 4_000_000)


class TestValidationGrid:
    @pytest.mark.parametrize("R0", [float("inf"), 1e308], ids=["inf", "1e308"])
    def test_infinite_box_is_over_budget(self, R0):
        # ExperimentConfig builds the validation grid, so construction fails
        from fracstates.config import BoxesBlock, ExperimentConfig, ProblemBlock, SweepBlock
        from fracstates.models import NonlinearitySpec

        with pytest.raises(BudgetExceeded, match="validation grid of inf points per axis"):
            ExperimentConfig(
                problem=ProblemBlock(d=1, alpha=0.5, R0=R0, R_cap=400.0, h0=0.25),
                potential=single_well_potential(),
                nonlinearity=NonlinearitySpec.saturable(0.4),
                boxes=BoxesBlock(1.0, 4.0, None),
                sweep=SweepBlock(epsilons=(0.5,)),
            )

    def test_huge_finite_box_keeps_4096_points(self):
        from types import SimpleNamespace

        config = SimpleNamespace(problem=SimpleNamespace(d=1, R0=1e300, h0=0.25),
                                 sweep=SimpleNamespace(point_budget=4_000_000))
        assert validation_grid(config).n == 4096
