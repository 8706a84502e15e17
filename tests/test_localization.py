"""Hypercube families, seed construction, barycenter maps, and the k-branch
experiment on the canonical double well."""

import numpy as np
import pytest

from conftest import (double_well_potential, expression_potential, gaussian_field,
                      single_well_potential)
from fracstates.errors import (
    BoundaryNotSeparating,
    InvalidInput,
    NotInTheta,
    OverlappingBoxes,
    SeedNotInTheta,
    ZeroField,
)
from fracstates.grid import Field, make_grid
from fracstates.localization import (
    barycenter_h,
    build_boxes,
    classify,
    seed_field,
    solve_branch,
    solve_branches,
    truncated_coordinate,
)
from fracstates.models import PotentialSpec, Well, sample_potential
from fracstates.solver import SolveOptions, grid_for_epsilon, solve_constrained
from fracstates.variational import Problem, energy, project_to_nehari


def _eps_problem(potential, eps, saturable, R0=16.0):
    g = grid_for_epsilon(1, eps, R0, 400.0, 0.25, 4_000_000)
    vf = sample_potential(potential, g, eps)
    return Problem(grid=g, alpha=0.5, eps=eps, potential_field=vf, nonlinearity=saturable)


def _large_eps_problem(saturable):
    """The single well at eps = 10: the cutoff support is a fraction of a
    cell, so seeds leave the restricted set."""
    g = make_grid(1, 16.0, 128)
    vf = sample_potential(single_well_potential(), g, 10.0)
    return Problem(grid=g, alpha=0.5, eps=10.0, potential_field=vf, nonlinearity=saturable)


@pytest.fixture(scope="module")
def double_well_run(saturable, limit_state):
    """Branch experiment on the symmetric double well at eps = 0.25."""
    p = _eps_problem(double_well_potential(), 0.25, saturable)
    boxes = build_boxes(double_well_potential(), 1.0, 4.0)
    return p, boxes, solve_branches(p, boxes, limit_state.u, SolveOptions(max_iter=20000))


class TestBuildBoxes:
    def test_valid_family(self):
        boxes = build_boxes(double_well_potential(), 1.0, 4.0)
        assert boxes.k == 2
        assert boxes.l == 1.0

    def test_overlap_rejected(self):
        spec = PotentialSpec(2.0, (Well((-0.5,), 1.0, 0.1), Well((0.5,), 1.0, 0.1)))
        with pytest.raises(OverlappingBoxes):
            build_boxes(spec, 1.0, 4.0)

    def test_flat_valley_rejected(self):
        # enormous width: V is still at well level on the box boundary
        spec = PotentialSpec(2.0, (Well((0.0,), 1.0, 500.0),))
        with pytest.raises(BoundaryNotSeparating):
            build_boxes(spec, 1.0, 4.0)

    def test_containment_enforced(self):
        spec = single_well_potential()
        with pytest.raises(InvalidInput):
            build_boxes(spec, 1.0, 1.2)

    def test_2l_le_L(self):
        with pytest.raises(InvalidInput):
            build_boxes(single_well_potential(), 3.0, 4.0)

    @pytest.mark.parametrize("nu", [-0.1, float("nan")], ids=["negative", "nan"])
    def test_bad_band_rejected(self, nu):
        with pytest.raises(InvalidInput, match="nu"):
            build_boxes(single_well_potential(), 1.0, 4.0, nu)

    def test_nan_size_rejected(self):
        with pytest.raises(InvalidInput, match="box sizes"):
            build_boxes(single_well_potential(), float("nan"), 4.0, 0.1)

    @staticmethod
    def _dipped_well(d, offset):
        """A Gaussian well at the origin with a narrow dip at offset that
        brings V there below the well level."""
        offset = np.asarray(offset, dtype=float)

        def func(pts):
            r2 = np.sum(pts ** 2, axis=1)
            dip = np.sum((pts - offset) ** 2, axis=1)
            return 2.0 - np.exp(-r2 / 0.5) - np.exp(-dip / 0.01)

        return expression_potential(func, [(0.0,) * d], 2.0, well_scale=0.5)

    @pytest.mark.parametrize(
        "offset",
        [(1.0, 0.5), (-0.5, -1.0), (1.0, 0.5, -0.5), (1.0, -1.0, 0.5)],
        ids=["2d-face", "2d-face-other-axis", "3d-face", "3d-edge"],
    )
    def test_off_axis_surface_dip_rejected(self, offset):
        with pytest.raises(BoundaryNotSeparating):
            build_boxes(self._dipped_well(len(offset), offset), 1.0, 4.0)

    @pytest.mark.parametrize(
        "offset", [(0.5, 0.5), (0.5, -0.5, 0.0)], ids=["2d-inside", "3d-inside"]
    )
    def test_dip_inside_box_accepted(self, offset):
        boxes = build_boxes(self._dipped_well(len(offset), offset), 1.0, 4.0)
        assert boxes.d == len(offset) and boxes.k == 1


class TestSeedField:
    def test_untranslated_cutoff_keeps_plateau(self, saturable, limit_state):
        p = _eps_problem(single_well_potential(), 1.0, saturable)
        # y=0: plateau where |x| <= 1/(2 eps)
        psi = seed_field(limit_state.u, (0.0,), p)
        g = p.grid
        w = limit_state.u
        from fracstates.grid import resample_field

        w_res = resample_field(w, g)
        inside = np.abs(g.axis) <= 0.5 / p.eps
        assert np.max(np.abs(psi.values[inside] - w_res.values[inside])) < 1e-14
        assert np.max(psi.values) == pytest.approx(np.max(w_res.values))

    def test_barycenter_lands_in_box(self, saturable, limit_state):
        pot = double_well_potential()
        p = _eps_problem(pot, 0.125, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        psi = seed_field(limit_state.u, (-2.0,), p)
        hb = barycenter_h(psi, p.eps, boxes.L)
        assert np.max(np.abs(hb - np.array([-2.0]) / p.eps)) < boxes.l / p.eps

    def test_large_eps_leaves_theta(self, saturable, limit_state):
        p = _large_eps_problem(saturable)
        psi = seed_field(limit_state.u, (1.0 / 3.0,), p)
        with pytest.raises(NotInTheta):
            project_to_nehari(p, psi)

    def test_defect_increasing_in_eps_with_positive_threshold(self, saturable, limit_state):
        pot = single_well_potential()
        eps_grid = (0.125, 0.25, 0.5, 1.0, 2.0)
        defects = []
        for eps in eps_grid:
            p = _eps_problem(pot, eps, saturable)
            psi = seed_field(limit_state.u, (1.0 / 3.0,), p)
            q = energy(p, psi).theta_defect
            if q >= 0:
                with pytest.raises(NotInTheta):
                    project_to_nehari(p, psi)
            defects.append(q)
        assert all(b > a for a, b in zip(defects, defects[1:]))
        assert defects[0] < 0  # threshold epsilon_1 is positive


class TestSeedCentre:
    """Seeds are exact translates: centred at y/eps to a fraction of a cell,
    wherever y falls between grid points."""

    @staticmethod
    def _first_moment(psi):
        w = psi.shaped / np.sum(psi.shaped)
        return np.array([np.sum(c * w) for c in psi.grid.coords])

    def test_first_moment_at_rescaled_centre_1d(self, saturable, limit_state):
        p = _eps_problem(single_well_potential(), 0.25, saturable)
        y = np.array([1.0 / 3.0 + 0.013])
        psi = seed_field(limit_state.u, y, p)
        assert np.max(np.abs(self._first_moment(psi) - y / p.eps)) < 1e-3 * p.grid.h

    def test_first_moment_at_rescaled_centre_2d(self, saturable):
        g = make_grid(2, 16.0, 128)
        eps = 0.25
        p = Problem(grid=g, alpha=0.5, eps=eps, potential_field=Field(g, np.full(g.size, 2.0)),
                    nonlinearity=saturable)
        w = gaussian_field(g, 1.0)
        y = np.array([0.4 / 3.0, -0.271])
        psi = seed_field(w, y, p)
        assert np.max(np.abs(self._first_moment(psi) - y / eps)) < 1e-3 * g.h

    def test_small_eps_branch_solve_is_short(self, saturable, limit_state):
        # the seed starts on the well minimum, so the descent need not carry
        # the bump along the soft translational mode: from a seed a third of
        # a cell off, this solve takes 139 iterations
        pot = single_well_potential()
        p = _eps_problem(pot, 0.125, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        br = solve_branch(p, boxes, limit_state.u, 1, SolveOptions(max_iter=20000))
        assert br.result.converged
        assert br.result.iterations <= 40


class TestTruncatedCoordinate:
    def test_identity_at_zero(self):
        assert truncated_coordinate(0.0, 0.25, 4.0) == 0.0

    def test_clamps_above(self):
        eps, L = 0.25, 4.0
        assert truncated_coordinate(3 * L / eps, eps, L) == 2 * L / eps

    def test_boundary_fixed_point(self):
        eps, L = 0.5, 4.0
        assert truncated_coordinate(-2 * L / eps, eps, L) == -2 * L / eps


class TestBarycenter:
    def test_even_bump_at_origin(self):
        g = make_grid(1, 16.0, 256)
        u = gaussian_field(g, 1.5)
        hb = barycenter_h(u, 0.25, 4.0)
        assert np.max(np.abs(hb)) < g.h

    def test_translated_bump_recovers_center(self):
        g = make_grid(1, 32.0, 512)
        eps, L = 0.25, 4.0
        y = 2.0
        u = gaussian_field(g, 1.0, center=(y / eps,))
        hb = barycenter_h(u, eps, L)
        assert abs(hb[0] - y / eps) <= g.h

    def test_clamping_bias_beyond_range(self):
        g = make_grid(1, 64.0, 1024)
        eps, L = 0.5, 4.0
        center = 2.5 * L / eps  # beyond the 2L/eps clamp
        u = gaussian_field(g, 1.0, center=(center,))
        hb = barycenter_h(u, eps, L)
        assert hb[0] < center
        assert hb[0] <= 2 * L / eps

    def test_zero_field_rejected(self):
        g = make_grid(1, 8.0, 64)
        with pytest.raises(ZeroField):
            barycenter_h(Field(g, np.zeros(g.size)), 0.5, 4.0)


class TestClassify:
    def test_interior_for_branch_solution(self, double_well_run):
        p, boxes, ex = double_well_run
        for br in ex.branches:
            assert br.label.kind == "interior"
            assert br.label.j == br.j

    def test_boundary_for_edge_bump(self, saturable):
        pot = double_well_potential()
        p = _eps_problem(pot, 0.25, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        # bump exactly on the box edge: center (a^1 + l)/eps
        u = gaussian_field(p.grid, 1.0, center=((-2.0 + 1.0) / 0.25,))
        assert classify(u, boxes, 0.25).kind == "boundary"

    def test_outside_for_midpoint_bump(self, saturable):
        pot = double_well_potential()
        p = _eps_problem(pot, 0.25, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        u = gaussian_field(p.grid, 1.0, center=(0.0,))
        assert classify(u, boxes, 0.25).kind == "outside"

    def test_negativity_forces_outside(self, double_well_run):
        p, boxes, ex = double_well_run
        u = ex.branches[0].result.u
        flipped = Field(p.grid, u.values - 0.5 * np.max(u.values))
        assert classify(flipped, boxes, p.eps).kind == "outside"


class TestSolveBranches:
    def test_two_distinct_interior_solutions(self, double_well_run):
        _, _, ex = double_well_run
        assert len(ex.branches) == 2
        assert ex.distinct
        assert all(b.label.kind == "interior" for b in ex.branches)
        assert ex.pairwise_distance[0, 1] > 0.1

    def test_symmetric_energies_agree(self, double_well_run):
        _, _, ex = double_well_run
        a1, a2 = ex.branches[0].alpha_energy, ex.branches[1].alpha_energy
        assert abs(a1 - a2) < 1e-6

    def test_branch_below_boundary_floor(self, double_well_run):
        _, _, ex = double_well_run
        for br in ex.branches:
            assert br.alpha_bar is not None
            assert br.alpha_energy < br.alpha_bar

    def test_asymmetric_depths_order_energies(self, saturable, limit_state):
        pot = double_well_potential(depths=(1.0, 0.8))
        p = _eps_problem(pot, 0.25, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        ex = solve_branches(p, boxes, limit_state.u, SolveOptions(max_iter=20000))
        assert ex.branches[0].alpha_energy < ex.branches[1].alpha_energy
        assert all(b.label.kind == "interior" for b in ex.branches)

    def test_inadmissible_seed_names_branch(self, saturable, limit_state):
        p = _large_eps_problem(saturable)
        boxes = build_boxes(single_well_potential(), 1.0, 4.0)
        with pytest.raises(SeedNotInTheta, match=r"branch 1 at eps=10\.0"):
            solve_branch(p, boxes, limit_state.u, 1)

    @pytest.mark.parametrize("j", [0, -1, 3], ids=["zero", "negative", "above-k"])
    def test_branch_index_outside_1_to_k(self, saturable, limit_state, j):
        p = _eps_problem(double_well_potential(), 0.25, saturable)
        boxes = build_boxes(double_well_potential(), 1.0, 4.0)
        with pytest.raises(InvalidInput, match=rf"1\.\.2, got {j}"):
            solve_branch(p, boxes, limit_state.u, j)

    def test_single_well_reduces_to_constrained_solve(self, saturable, limit_state):
        pot = single_well_potential()
        p = _eps_problem(pot, 0.25, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        ex = solve_branches(p, boxes, limit_state.u, SolveOptions(max_iter=20000))
        assert len(ex.branches) == 1
        seed = seed_field(limit_state.u, (1.0 / 3.0,), p)
        direct = solve_constrained(p, seed, SolveOptions(max_iter=20000))
        assert ex.branches[0].alpha_energy == pytest.approx(direct.energy, rel=1e-12)


class TestProbeAlphaBar:
    def test_inadmissible_probe_is_skipped(self, saturable, limit_state, monkeypatch):
        import fracstates.localization as loc

        pot = double_well_potential()
        p = _eps_problem(pot, 0.25, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        center = boxes.centers[0]
        w = limit_state.u
        # probes in call order: a^1 - l, then a^1 + l
        probes = [
            project_to_nehari(p, seed_field(w, (center[0] + sgn * boxes.l,), p)).report.total
            for sgn in (-1.0, 1.0)
        ]
        assert loc._probe_alpha_bar(p, boxes, w, center) == min(probes)

        failing = int(np.argmin(probes))
        calls = []

        def one_fails(problem, u):
            calls.append(u)
            if len(calls) - 1 == failing:
                raise NotInTheta("positive-part mass too small")
            return project_to_nehari(problem, u)

        monkeypatch.setattr(loc, "project_to_nehari", one_fails)
        assert loc._probe_alpha_bar(p, boxes, w, center) == probes[1 - failing]

        def all_fail(problem, u):
            raise NotInTheta("positive-part mass too small")

        monkeypatch.setattr(loc, "project_to_nehari", all_fail)
        assert loc._probe_alpha_bar(p, boxes, w, center) is None


def _record_round_trips(monkeypatch):
    """Record the field of every grid.apply_frac_laplacian call from now on,
    wherever a fracstates module binds it."""
    import sys

    import fracstates.grid as grid_mod

    orig = grid_mod.apply_frac_laplacian
    fields = []

    def recorded(u, alpha):
        fields.append(u)
        return orig(u, alpha)

    for name, mod in list(sys.modules.items()):
        if name.startswith("fracstates") and getattr(mod, "apply_frac_laplacian", None) is orig:
            monkeypatch.setattr(mod, "apply_frac_laplacian", recorded)
    return fields


class TestRoundTrips:
    """The Nehari projection is the one restricted-set test of a seed, so a
    seed is transformed once."""

    def test_one_per_probe(self, saturable, limit_state, monkeypatch):
        import fracstates.localization as loc

        pot = double_well_potential()
        p = _eps_problem(pot, 0.25, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        fields = _record_round_trips(monkeypatch)
        assert loc._probe_alpha_bar(p, boxes, limit_state.u, boxes.centers[0]) is not None
        assert len(fields) == 2 * boxes.d

    def test_one_per_branch_seed(self, saturable, limit_state, monkeypatch):
        import fracstates.localization as loc

        pot = single_well_potential()
        p = _eps_problem(pot, 0.25, saturable)
        boxes = build_boxes(pot, 1.0, 4.0)
        seeds = []

        def recorded_seed(*args):
            seeds.append(seed_field(*args))
            return seeds[-1]

        monkeypatch.setattr(loc, "seed_field", recorded_seed)
        monkeypatch.setattr(loc, "_probe_alpha_bar", lambda *args: None)
        fields = _record_round_trips(monkeypatch)
        br = solve_branch(p, boxes, limit_state.u, 1, SolveOptions(max_iter=20000))
        assert br.result.converged
        # the seed's transform comes first; the rest certify iterates
        assert fields[0] is seeds[0]
        assert sum(u is seeds[0] for u in fields) == 1
