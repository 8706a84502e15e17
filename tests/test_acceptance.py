"""Acceptance suite: the ten exit criteria, one test per criterion.

Each test prints a `ACCEPTANCE <k>: PASS|FAIL` line (run with `pytest -s`
to see them all). Criterion 7 reads the tail exponent through
`decay_fit`, whose periodized model accounts for the wrap-around images of
the heavy alpha = 0.3 tail on the pinned R = 80 box (see the
acceptance-status section of the README).
"""

import time

import numpy as np
import pytest
import yaml

from conftest import (
    CANON_ALPHA,
    double_well_potential,
    random_theta_field,
    ray_argmax_oracle,
    run_cli,
    single_well_potential,
)
from fracstates.config import (
    BoxesBlock,
    ExperimentConfig,
    LimitBlock,
    ProblemBlock,
    SweepBlock,
)
from fracstates.diagnostics import decay_fit, locate_max, select_ground_state
from fracstates.errors import NotInTheta
from fracstates.grid import Field, apply_frac_laplacian, inner_l2, make_grid
from fracstates.localization import build_boxes, solve_branches
from fracstates.models import NonlinearitySpec, sample_potential
from fracstates.solver import (
    SolveOptions,
    energy_curve,
    solve_limit,
    sweep_epsilon,
)
from fracstates.variational import Problem, project_to_nehari
from fracstates.variational import energy as energy_of
from fracstates.variational import gradient as gradient_of


def _verdict(k, ok, detail=""):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def canonical_sweep_config(epsilons, max_iter=20000):
    return ExperimentConfig(
        problem=ProblemBlock(d=1, alpha=CANON_ALPHA, R0=16.0, R_cap=400.0, h0=0.25),
        potential=single_well_potential(),
        nonlinearity=NonlinearitySpec.saturable(0.4),
        boxes=BoxesBlock(1.0, 4.0, None),
        sweep=SweepBlock(epsilons=tuple(epsilons), max_iter=max_iter),
        limit=LimitBlock(a_values=(), R=80.0, n=640),
    )


@pytest.fixture(scope="module")
def canonical_sweep():
    cfg = canonical_sweep_config((0.5, 0.25, 0.125, 0.0625))
    t0 = time.perf_counter()
    records = sweep_epsilon(cfg)
    return records, time.perf_counter() - t0


def test_criterion_1_operator_suite():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(101)
    for d, n, pairs in ((1, 256, 40), (2, 64, 30), (3, 32, 30)):
        g = make_grid(d, np.pi, n)
        alpha = 0.6
        # constant annihilation
        out = apply_frac_laplacian(Field(g, np.ones(g.size)), alpha)
        ok &= np.max(np.abs(out.values)) <= 1e-10
        # single-mode eigenfunction: cos(x_0), eigenvalue 1
        u = Field(g, np.broadcast_to(np.cos(g.coords[0]), g.shape))
        out = apply_frac_laplacian(u, alpha)
        ok &= np.max(np.abs(out.values - u.values)) <= 1e-10
        # mode (2, ...) along axis 0: eigenvalue |2|^(2 alpha)
        u2 = Field(g, np.broadcast_to(np.cos(2 * g.coords[0]), g.shape))
        out2 = apply_frac_laplacian(u2, alpha)
        ok &= np.max(np.abs(out2.values - 2 ** (2 * alpha) * u2.values)) <= 1e-10
        # self-adjointness on random pairs
        for _ in range(pairs):
            a = Field(g, rng.standard_normal(g.size))
            b = Field(g, rng.standard_normal(g.size))
            lhs = inner_l2(apply_frac_laplacian(a, alpha), b)
            rhs = inner_l2(a, apply_frac_laplacian(b, alpha))
            scale = np.sqrt(inner_l2(a, a) * inner_l2(b, b))
            ok &= abs(lhs - rhs) <= 1e-10 * scale
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert _verdict(1, ok, f"(operator suite, {elapsed:.1f}s)")


def test_criterion_2_gradient_check(small_problem):
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        u = random_theta_field(small_problem, rng)
        phi = Field(small_problem.grid, rng.standard_normal(small_problem.grid.size))
        lhs = inner_l2(gradient_of(small_problem, u), phi)
        e_p = energy_of(small_problem, Field(small_problem.grid, u.values + h * phi.values)).total
        e_m = energy_of(small_problem, Field(small_problem.grid, u.values - h * phi.values)).total
        fd = (e_p - e_m) / (2 * h)
        worst = max(worst, abs(lhs - fd) / (1 + abs(lhs)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    assert _verdict(2, ok, f"(gradient vs central differences, worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_projection_vs_oracle(small_problem):
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    g = small_problem.grid
    carrier = np.cos((np.pi * (g.n // 4) / g.R) * g.axis)
    ok = True
    for _ in range(100):
        u = random_theta_field(small_problem, rng)
        t_star, proj, _ = project_to_nehari(small_problem, u)
        rep = energy_of(small_problem, proj)
        ok &= abs(rep.nehari_residual) <= 1e-10 * rep.norm_eps_sq
        scan = ray_argmax_oracle(small_problem, u, 4 * t_star, 1000)
        ok &= abs(scan.t_best - t_star) <= 2 * (4 * t_star) / 1000
        bad = Field(g, u.values * carrier)
        try:
            project_to_nehari(small_problem, bad)
            ok = False
        except NotInTheta:
            pass
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _verdict(3, ok, f"(Newton projection vs ray search, 100 fields, {elapsed:.1f}s)")


def test_criterion_4_limit_monotonicity(saturable):
    t0 = time.perf_counter()
    g = make_grid(1, 40.0, 1024)
    curve = energy_curve([0.5, 1.0, 1.5, 2.0], saturable, g, CANON_ALPHA,
                         SolveOptions(max_iter=20000))
    gaps = [c2 - c1 for (_, c1), (_, c2) in zip(curve, curve[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(gap > 1e-4 for gap in gaps) and elapsed < 300.0
    assert _verdict(4, ok, f"(c_a gaps {['%.3g' % g_ for g_ in gaps]}, {elapsed:.1f}s)")


def test_criterion_5_concentration_sweep(canonical_sweep):
    records, elapsed = canonical_sweep
    c_gaps = [r.c_eps - r.c_v0 for r in records]
    v_gaps = [min(r.entries, key=lambda e: e["energy"])["v_at_max"] - r.v0 for r in records]
    ok = all(b < a for a, b in zip(c_gaps, c_gaps[1:]))
    ok &= all(b < a for a, b in zip(v_gaps, v_gaps[1:]))
    ok &= c_gaps[-1] < 0.1 * c_gaps[0]
    ok &= v_gaps[-1] < 0.1 * v_gaps[0]
    ok &= all(r.trusted for r in records)
    ok &= elapsed < 600.0
    assert _verdict(
        5, ok,
        f"(c gaps {['%.3g' % g_ for g_ in c_gaps]}, "
        f"V gaps {['%.2g' % g_ for g_ in v_gaps]}, {elapsed:.1f}s)",
    )


def test_criterion_6_multiplicity(saturable, limit_state):
    t0 = time.perf_counter()
    pot = double_well_potential()
    from fracstates.solver import grid_for_epsilon

    g = grid_for_epsilon(1, 0.25, 16.0, 400.0, 0.25, 4_000_000)
    p = Problem(grid=g, alpha=CANON_ALPHA, eps=0.25,
                potential_field=sample_potential(pot, g, 0.25),
                nonlinearity=saturable)
    ex = solve_branches(p, build_boxes(pot, 1.0, 4.0), limit_state.u,
                        SolveOptions(max_iter=20000))
    interior = [b for b in ex.branches if b.label.kind == "interior" and b.result.converged]
    ok = len(interior) == 2
    ok &= ex.pairwise_distance[0, 1] > 0.5
    ok &= all(b.result.negative_mass < 1e-6 for b in ex.branches)
    ok &= all(b.alpha_bar is not None and b.alpha_energy < b.alpha_bar for b in ex.branches)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert _verdict(
        6, ok,
        f"(2 branches, distance {ex.pairwise_distance[0, 1]:.2f}, "
        f"alpha vs floor {[('%.3g' % b.alpha_energy, '%.3g' % b.alpha_bar) for b in ex.branches]}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_7_decay_exponent(saturable):
    t0 = time.perf_counter()
    g = make_grid(1, 80.0, 640)
    results = []
    ok = True
    for alpha in (0.3, 0.5, 0.7):
        res = solve_limit(1.0, saturable, g, alpha, SolveOptions(max_iter=20000))
        fit = decay_fit(res.u, locate_max(res.u), (0.2 * g.R, 0.35 * g.R))
        target = -(1 + 2 * alpha)
        good = abs(fit.exponent - target) <= 0.15 * abs(target) and fit.r2 > 0.98
        results.append((alpha, fit.exponent, target, fit.r2, good))
        ok &= good
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    detail = ", ".join(
        f"alpha={a}: {e:.3f} vs {t} (r2={r:.3f}, {'ok' if g_ else 'out of tolerance'})"
        for a, e, t, r, g_ in results
    )
    assert _verdict(7, ok, f"({detail}, {elapsed:.1f}s)")


def test_criterion_8_ground_state_selection(saturable, limit_state):
    t0 = time.perf_counter()
    pot = double_well_potential(depths=(1.0, 0.8))
    from fracstates.solver import grid_for_epsilon

    g = grid_for_epsilon(1, 0.25, 16.0, 400.0, 0.25, 4_000_000)
    p = Problem(grid=g, alpha=CANON_ALPHA, eps=0.25,
                potential_field=sample_potential(pot, g, 0.25),
                nonlinearity=saturable)
    ex = solve_branches(p, build_boxes(pot, 1.0, 4.0), limit_state.u,
                        SolveOptions(max_iter=20000))
    sel = select_ground_state(ex.branches)
    sel_rev = select_ground_state(ex.branches[::-1])
    ok = sel.j == 1  # the deeper well
    ok &= sel.gate_ok
    ok &= sel_rev.j == sel.j
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert _verdict(8, ok, f"(selected branch {sel.j}, gate {sel.gate_ok}, {elapsed:.1f}s)")


def test_criterion_9_profile_convergence(canonical_sweep):
    records, elapsed = canonical_sweep
    sub = [r for r in records if r.eps in (0.5, 0.25, 0.125)]
    errs = [min(r.entries, key=lambda e: e["energy"])["profile_error"] for r in sub]
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    ok &= elapsed < 600.0
    assert _verdict(9, ok, f"(profile errors {['%.4f' % e for e in errs]}, {elapsed:.1f}s)")


def test_sweep_invariants(canonical_sweep):
    """Non-criterion invariants checked on the canonical sweep: every
    low-energy-set member carries an interior or boundary label, and no
    reported energy dips below the limit energy."""
    records, _ = canonical_sweep
    for rec in records:
        labels = {b.j: b.label.kind for b in rec.branches}
        for j in rec.sigma_members:
            assert labels[j] in ("interior", "boundary")
        assert rec.c_eps >= rec.c_v0 * (1 - 1e-3)
        assert rec.c_eps == min(b.alpha_energy for b in rec.branches)


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "problem": {"d": 1, "alpha": 0.5, "R0": 16.0, "h0": 0.25},
        "potential": {
            "v_inf_level": 2.0,
            "wells": [{"center": [1.0 / 3.0], "depth": 1.0, "width": 2.0}],
        },
        "nonlinearity": {"kind": "saturable", "s": 0.4},
        "boxes": {"l": 1.0, "L": 4.0},
        "sweep": {"epsilons": [0.5, 0.25], "max_iter": 20000},
        "limit": {"R": 80.0, "n": 640},
        "rng_seed": 1234,
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        res = run_cli(["sweep", "--config", str(path), "--out", str(out), "--seed", "1234"])
        assert res.exit_code == 0, res.output
        outs.append((out / "summary.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    assert _verdict(10, ok, f"(byte-identical summary CSVs, {elapsed:.1f}s)")
