"""Max location, profile error, decay fit, sigma membership, ground-state
selection, and the concentration table."""

import numpy as np
import pytest

from conftest import decay_fit_oracle, gaussian_field, image_sum_oracle
from fracstates.diagnostics import (
    _N_SHELLS,
    _far_lattice,
    _image_shell_sums,
    _tail_window,
    boundary_mass_fraction,
    concentration_table,
    decay_fit,
    locate_max,
    profile_error,
    records_payload,
    select_ground_state,
    sigma_membership,
)
from fracstates.errors import (
    GridMismatch,
    InvalidInput,
    NoInteriorSolutions,
    NonpositiveTail,
    WindowTooSmall,
    ZeroField,
)
from fracstates.grid import Field, gagliardo_sq, make_grid
from fracstates.localization import BranchLabel, BranchResult
from fracstates.variational import EnergyReport


class TestLocateMax:
    def test_gaussian_bump(self):
        g = make_grid(1, 8.0, 128)
        u = gaussian_field(g, 1.0, center=(2.3,))
        eta = locate_max(u)
        assert abs(eta[0] - 2.3) <= g.h / 2

    def test_constant_ties_to_first_point(self):
        g = make_grid(1, 8.0, 64)
        eta = locate_max(Field(g, np.ones(g.size)))
        assert eta[0] == g.axis[0]

    def test_two_equal_bumps_tie_lexicographic(self):
        g = make_grid(1, 8.0, 64)
        vals = np.zeros(g.size)
        vals[10] = 1.0
        vals[40] = 1.0
        assert locate_max(Field(g, vals))[0] == g.axis[10]

    def test_zero_field(self):
        g = make_grid(1, 8.0, 64)
        with pytest.raises(ZeroField):
            locate_max(Field(g, np.zeros(g.size)))


class TestProfileError:
    def test_exact_translate(self, limit_state):
        u = limit_state.u
        shifted = Field(u.grid, np.roll(u.values, 3))
        err = profile_error(shifted, u, locate_max(shifted), 0.5)
        assert err <= 1e-10

    def test_scaling_linearity(self, limit_state):
        u = limit_state.u
        scaled = Field(u.grid, 1.1 * u.values)
        err = profile_error(scaled, u, locate_max(scaled), 0.5)
        norm = np.sqrt(
            gagliardo_sq(u, 0.5) + u.grid.weight * np.dot(u.values, u.values)
        )
        assert err == pytest.approx(0.1 * norm, rel=1e-8)

    def test_pad_across_grids(self, limit_state):
        u = limit_state.u
        big = make_grid(1, 160.0, 1280)
        from fracstates.grid import resample_field

        moved = resample_field(u, big)
        err = profile_error(moved, u, locate_max(moved), 0.5)
        # only the cropped far tail differs
        assert err < 1e-3

    def test_incommensurate_rejected(self, limit_state):
        other = make_grid(1, 80.0, 512)
        with pytest.raises(GridMismatch):
            profile_error(Field(other, np.ones(other.size)), limit_state.u, (0.0,), 0.5)


class TestDecayFit:
    def test_recovers_synthetic_power_law(self):
        g = make_grid(1, 40.0, 1024)
        u = Field(g, 1.0 / (1.0 + np.abs(g.axis) ** 2))
        fit = decay_fit(u, (0.0,), (0.2 * g.R, 0.5 * g.R))
        assert fit.exponent == pytest.approx(-2.0, rel=0.02)
        assert fit.r2 > 0.99

    def test_gaussian_flagged_by_low_r2(self):
        g = make_grid(1, 40.0, 1024)
        u = gaussian_field(g, 2.0)
        fit = decay_fit(u, (0.0,), (0.2 * g.R, 0.5 * g.R))
        assert fit.exponent < -8
        assert fit.r2 < 0.98

    def test_window_bounds_enforced(self):
        g = make_grid(1, 40.0, 1024)
        u = Field(g, 1.0 / (1.0 + np.abs(g.axis) ** 2))
        with pytest.raises(InvalidInput):
            decay_fit(u, (0.0,), (1.0, 10.0))

    def test_too_few_shells(self):
        # unit spacing puts only |x| = 2, 3, 4 in the window [1.6, 4]
        g = make_grid(1, 8.0, 16)
        u = Field(g, 1.0 / (1.0 + np.abs(g.axis) ** 2))
        with pytest.raises(WindowTooSmall, match="only 3 populated shells"):
            decay_fit(u, (0.0,), (0.2 * g.R, 0.5 * g.R))

    def test_recovers_planted_exponent_with_images_1d(self):
        g = make_grid(1, 40.0, 1024)
        u = _planted_images(g, -1.6)
        fit = decay_fit(u, (0.0,), (0.2 * g.R, 0.5 * g.R))
        assert fit.exponent == pytest.approx(-1.6, rel=0.02)
        assert fit.r2 > 0.99
        # the straight line through the same shells is biased by the images
        assert fit.slope == pytest.approx(-1.25, abs=0.01)

    def test_recovers_planted_exponent_with_images_2d(self):
        g = make_grid(2, 40.0, 256)
        u = _planted_images(g, -2.6)
        fit = decay_fit(u, (0.0, 0.0), (0.2 * g.R, 0.35 * g.R))
        assert fit.exponent == pytest.approx(-2.6, rel=0.02)
        assert fit.r2 > 0.99
        assert fit.slope == pytest.approx(-2.42, abs=0.01)

    def test_slow_tail_keeps_plain_slope(self):
        g = make_grid(1, 40.0, 1024)
        u = Field(g, (1.0 + np.abs(g.axis) ** 2) ** -0.25)
        fit = decay_fit(u, (0.0,), (0.2 * g.R, 0.5 * g.R))
        assert fit.exponent == fit.slope
        assert fit.exponent == pytest.approx(-0.5, rel=0.02)

    def test_nonpositive_tail(self):
        g = make_grid(1, 40.0, 1024)
        u = Field(g, np.cos(g.axis))
        with pytest.raises(NonpositiveTail):
            decay_fit(u, (0.0,), (0.2 * g.R, 0.4 * g.R))

    def test_growing_tail_meets_the_scan_edge(self, monkeypatch):
        # the image model fits best at the scan's first depth, the edge
        # p -> -d where the image sum is no model, so the plain fit is kept
        import fracstates.diagnostics as diagnostics

        fits = []
        fit_image_sum = diagnostics._fit_image_sum

        def recording(*args):
            fits.append(fit_image_sum(*args))
            return fits[-1]

        monkeypatch.setattr(diagnostics, "_fit_image_sum", recording)
        g = make_grid(1, 40.0, 1024)
        fit = decay_fit(Field(g, 1.0 + np.abs(g.axis)), (0.0,), (0.2 * g.R, 0.5 * g.R))
        assert fits == [None]
        assert fit.exponent == fit.slope > 0


class TestDecayFitOracle:
    """decay_fit against the direct per-point fit of conftest: the same
    model, and the same numbers to well below their printed digits."""

    @pytest.fixture(scope="class")
    def limit_states_1d(self, saturable):
        # criterion 7's fields
        from fracstates.solver import SolveOptions, solve_limit

        g = make_grid(1, 80.0, 640)
        return {a: solve_limit(1.0, saturable, g, a, SolveOptions(max_iter=20000)).u
                for a in (0.3, 0.5, 0.7)}

    @pytest.fixture(scope="class")
    def cases(self, limit_states_1d, limit_state_3d):
        g1, g2 = make_grid(1, 40.0, 1024), make_grid(2, 40.0, 256)
        planted_2d = _planted_images(g2, -2.6)
        slow = Field(g1, (1.0 + np.abs(g1.axis) ** 2) ** -0.25)
        u3 = limit_state_3d.u
        cases = {
            "planted-1d": (_planted_images(g1, -1.6), (0.0,), (0.2 * g1.R, 0.5 * g1.R)),
            "planted-2d": (planted_2d, (0.0, 0.0), (0.2 * g2.R, 0.35 * g2.R)),
            "off-grid-eta-2d": (planted_2d, (0.13, -0.07), (0.2 * g2.R, 0.35 * g2.R)),
            "limit-3d": (u3, locate_max(u3), (0.2 * u3.grid.R, 0.35 * u3.grid.R)),
            "plain-kept": (slow, (0.0,), (0.2 * g1.R, 0.5 * g1.R)),
            # the best scan point is the deepest one: the refinement runs
            # to the bracket's end, and the line still wins
            "gaussian": (gaussian_field(g1, 2.0), (0.0,), (0.2 * g1.R, 0.5 * g1.R)),
        }
        for a, u in limit_states_1d.items():
            cases[f"limit-alpha-{a}"] = (u, locate_max(u), (0.2 * u.grid.R, 0.35 * u.grid.R))
        return cases

    @pytest.mark.parametrize("name", [
        "planted-1d", "planted-2d", "off-grid-eta-2d", "limit-3d", "plain-kept", "gaussian",
        "limit-alpha-0.3", "limit-alpha-0.5", "limit-alpha-0.7",
    ])
    def test_agrees_with_oracle(self, cases, name):
        u, eta, window = cases[name]
        fit = decay_fit(u, eta, window)
        ref, images = decay_fit_oracle(u, eta, window)
        assert (fit.exponent != fit.slope) == images
        assert images == (name not in ("plain-kept", "gaussian"))
        assert fit.exponent == pytest.approx(ref.exponent, rel=1e-7)
        assert fit.r2 == pytest.approx(ref.r2, rel=0, abs=1e-9)
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12)

    @pytest.mark.parametrize("name", ["planted-1d", "off-grid-eta-2d", "planted-2d", "limit-3d"])
    def test_class_sums_equal_point_sums(self, cases, name):
        # the symmetry classes merge points exactly: their weighted sums are
        # the per-point shell sums up to rounding, chunked or not
        u, eta, window = cases[name]
        g = u.grid
        _, rw, delta = _tail_window(u, np.atleast_1d(eta), *window)
        which = np.clip(np.searchsorted(np.linspace(*window, _N_SHELLS + 1), rw, side="right") - 1,
                        0, _N_SHELLS - 1)
        point_sum = image_sum_oracle(delta, 2.0 * g.R)
        ps = -g.d - np.array([0.05, 0.6, 1.7, 9.0])
        ref = np.array([np.bincount(which, weights=point_sum(p))[np.unique(which)] for p in ps])
        for budget in (1, g.size):
            got = _image_shell_sums(delta, which, 2.0 * g.R, budget)(ps)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


class TestFaceQuadrature:
    """The Gauss-Legendre rule on a cube face [-1, 1]^(d-1) is built, by an
    eigenproblem, only where the face has a dimension."""

    def test_1d_face_is_a_point(self):
        _, _, log_face, face_w = _far_lattice(1)
        assert log_face.tolist() == [0.0]
        assert face_w.tolist() == [1.0]

    def test_1d_fit_solves_no_eigenproblem(self, monkeypatch):
        g = make_grid(1, 40.0, 1024)
        u, eta, window = _planted_images(g, -1.6), (0.0,), (0.2 * g.R, 0.5 * g.R)
        ref, images = decay_fit_oracle(u, eta, window)

        def refuse(*args, **kwargs):
            raise AssertionError("a 1-D tail fit called np.linalg.eigh")

        _far_lattice.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        fit = decay_fit(u, eta, window)
        assert images and fit.exponent != fit.slope
        assert fit.exponent == pytest.approx(ref.exponent, rel=1e-7)
        assert fit.r2 == pytest.approx(ref.r2, rel=0, abs=1e-9)
        assert fit.slope == pytest.approx(ref.slope, rel=1e-12)

    def test_2d_fit_reaches_eigh(self, monkeypatch):
        g = make_grid(2, 40.0, 128)
        u, eta, window = _planted_images(g, -2.6), (0.0, 0.0), (0.2 * g.R, 0.35 * g.R)
        before = decay_fit(u, eta, window)
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        _far_lattice.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert decay_fit(u, eta, window) == before
        assert len(calls) == 1


def _planted_images(g, p, near=4, radius=300):
    """sum_k |x + 2Rk|^p over k in Z^d on grid g: images with |k|_inf <= near
    point by point, the rest as the constant (2R)^p sum |k|^p, whose lattice
    sum runs over the ball |k| <= radius plus the integral outside it. The
    k = 0 term is floored at |x| = h to keep the core finite."""
    period = 2.0 * g.R
    ax = np.arange(-radius, radius + 1)
    k_sq = sum(k * k for k in np.meshgrid(*([ax] * g.d), indexing="ij")).ravel()
    k_sq = k_sq[(k_sq > 0) & (k_sq <= radius * radius)]
    surface = 2.0 if g.d == 1 else 2.0 * np.pi
    rho = radius + 0.5 if g.d == 1 else radius
    far = float(np.sum(k_sq ** (p / 2))) + surface * rho ** (p + g.d) / -(p + g.d)
    vals = np.maximum(sum(c * c for c in g.coords), g.h**2) ** (p / 2)
    near_ax = np.arange(-near, near + 1)
    for k in np.stack(np.meshgrid(*([near_ax] * g.d), indexing="ij")).reshape(g.d, -1).T:
        if np.any(k):
            vals = vals + sum((c + period * ki) ** 2 for c, ki in zip(g.coords, k)) ** (p / 2)
            far -= float(np.sum(k * k)) ** (p / 2)
    return Field(g, (vals + period**p * far).ravel())


def _fake_report(total, nehari=0.0, norm_sq=10.0):
    return EnergyReport(
        seminorm_part=norm_sq / 4,
        potential_part=norm_sq / 4,
        nonlinear_part=0.0,
        total=total,
        nehari_residual=nehari,
        theta_defect=-1.0,
    )


class _FakeResult:
    def __init__(self, total, nehari=0.0, converged=True):
        self.report = _fake_report(total, nehari)
        self.converged = converged
        self.iterations = 1
        self.residual = 0.0
        self.max_point = (0.0,)
        self.negative_mass = 0.0


def _branch(j, energy, label="interior", converged=True, bary=None, center=(0.0,), eps=0.25, l=1.0):
    return BranchResult(
        j=j,
        result=_FakeResult(energy, converged=converged),
        label=BranchLabel(label, None if label == "outside" else j),
        alpha_energy=energy,
        alpha_bar=None,
        barycenter=np.array(bary if bary is not None else np.asarray(center) / eps),
        center=center,
        eps=eps,
        l=l,
    )


class TestSigmaMembership:
    def test_inside_window(self):
        assert sigma_membership(_FakeResult(1.05), c_v0=1.0, omega=0.1)

    def test_energy_too_high(self):
        assert not sigma_membership(_FakeResult(1.2), c_v0=1.0, omega=0.1)

    def test_off_manifold_rejected(self):
        res = _FakeResult(1.05, nehari=1.0)
        assert not sigma_membership(res, c_v0=1.0, omega=0.1)


class TestSelectGroundState:
    def test_picks_minimum_energy(self):
        records = [_branch(1, 2.0, center=(-2.0,)), _branch(2, 1.5, center=(2.0,))]
        sel = select_ground_state(records)
        assert sel.j == 2
        assert sel.gate_ok

    def test_tie_breaks_to_smallest_index(self):
        records = [_branch(2, 1.5, center=(2.0,)), _branch(1, 1.5, center=(-2.0,))]
        assert select_ground_state(records).j == 1

    def test_permutation_invariant(self):
        records = [
            _branch(1, 1.7, center=(-2.0,)),
            _branch(2, 1.5, center=(2.0,)),
            _branch(3, 1.9, center=(4.5,)),
        ]
        sel_fwd = select_ground_state(records)
        sel_rev = select_ground_state(records[::-1])
        assert sel_fwd.j == sel_rev.j == 2

    def test_gate_flags_far_barycenter(self):
        off = _branch(1, 1.0, center=(2.0,), bary=(2.0 / 0.25 + 3.0,))
        assert not select_ground_state([off]).gate_ok

    def test_no_interior(self):
        records = [_branch(1, 1.0, label="outside"), _branch(2, 1.2, converged=False)]
        with pytest.raises(NoInteriorSolutions):
            select_ground_state(records)


class TestBoundaryMass:
    def test_core_bump_negligible(self):
        g = make_grid(1, 40.0, 512)
        u = gaussian_field(g, 2.0)
        assert boundary_mass_fraction(u) < 1e-10

    def test_edge_bump_registers(self):
        g = make_grid(1, 40.0, 512)
        u = gaussian_field(g, 2.0, center=(39.0,))
        assert boundary_mass_fraction(u) > 0.5


class TestBranchRecord:
    def test_unusable_window_leaves_decay_cells_empty(self, tmp_path):
        from fracstates.cli import write_summary_csv
        from fracstates.diagnostics import branch_record
        from fracstates.models import NonlinearitySpec, PotentialSpec, Well, sample_potential
        from fracstates.solver import SolveResult
        from fracstates.variational import Problem

        g = make_grid(1, 8.0, 64)
        potential = PotentialSpec(2.0, (Well((0.0,), 1.0, 1.0),))
        p = Problem(grid=g, alpha=0.5, eps=0.5, potential_field=sample_potential(potential, g, 0.5),
                    nonlinearity=NonlinearitySpec.saturable(0.4))
        # a tent on |x| < 1: zero on the tail window [0.2R, 0.35R] = [1.6, 2.8]
        u = Field(g, np.maximum(1.0 - np.abs(g.axis), 0.0))
        res = SolveResult(u=u, report=_fake_report(1.0, 0.0), iterations=1, converged=True,
                          residual=0.0, max_point=(0.0,))
        br = BranchResult(j=1, result=res, label=BranchLabel("interior", 1), alpha_energy=1.0,
                          alpha_bar=None, barycenter=np.zeros(1), center=(0.0,), eps=0.5, l=1.0)
        entry = branch_record(br, p, u, potential)
        assert entry["decay_exponent"] is None and entry["decay_r2"] is None
        stored = {"records": [{"eps": 0.5, "c_eps": 1.0, "c_v0": 1.0, "v0": 1.0,
                               "sigma_members": [1], "trusted": True, "branches": [entry]}]}
        write_summary_csv(tmp_path / "summary.csv", stored)
        header, row = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["decay_exponent"] == cells["decay_r2"] == ""
        assert cells["profile_error"] == "0.0"


def _fake_record(eps, c_gap, v_gap, perr, c_v0=3.0, v0=1.0, bmass=1e-8):
    from fracstates.diagnostics import SweepRecord

    entry = {"branch": 1, "energy": c_v0 + c_gap, "v_at_max": v0 + v_gap, "profile_error": perr,
             "decay_exponent": -2.0, "decay_r2": 0.999, "boundary_mass": bmass}
    return SweepRecord(
        eps=eps, branches=[_branch(1, c_v0 + c_gap, eps=eps)], entries=[entry],
        c_eps=c_v0 + c_gap, c_v0=c_v0, v0=v0, omega=np.sqrt(eps) * c_v0, sigma_members=[1],
    )


class TestConcentrationReport:
    """concentration_table on records.json payloads built from sweep records."""

    def test_trend_flags(self):
        recs = [
            _fake_record(0.5, 0.4, 1e-3, 0.7),
            _fake_record(0.25, 0.1, 2.5e-4, 0.4),
        ]
        table = concentration_table(records_payload(recs))
        assert table["flags"]["c_gap_decreasing"]
        assert table["flags"]["v_gap_decreasing"]
        assert table["flags"]["profile_error_decreasing"]

    def test_single_record_no_flags(self):
        table = concentration_table(records_payload([_fake_record(0.5, 0.4, 1e-3, 0.7)]))
        assert table["flags"] == {}
        assert len(table["rows"]) == 1

    def test_untrusted_marking(self):
        rec = _fake_record(0.5, 0.4, 1e-3, 0.7, bmass=1e-3)
        table = concentration_table(records_payload([rec]))
        assert not table["rows"][0]["trusted"]

    def test_row_from_minimum_energy_branch(self):
        # a stored two-branch record whose second branch has the lower energy
        def entry(j, energy, v_at_max, perr, dexp):
            return {"branch": j, "label": "interior", "energy": energy, "v_at_max": v_at_max,
                    "profile_error": perr, "decay_exponent": dexp, "decay_r2": 0.999,
                    "boundary_mass": 1e-8}

        c_v0, v0, c_eps = 3.0, 1.0, 3.2
        stored = {
            "schema": "fracstates-records-v2",
            "records": [{
                "eps": 0.25, "c_eps": c_eps, "c_v0": c_v0, "v0": v0, "omega": 1.5,
                "sigma_members": [1, 2], "trusted": True,
                "branches": [entry(1, 3.3, 1.01, 0.5, -1.9), entry(2, c_eps, 1.002, 0.3, -2.1)],
            }],
        }
        (row,) = concentration_table(stored)["rows"]
        assert row == {"eps": 0.25, "c_gap": c_eps - c_v0, "v_gap": 1.002 - v0,
                       "profile_error": 0.3, "decay_exponent": -2.1, "trusted": True}
