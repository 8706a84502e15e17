"""Shared fixtures: canonical problem families and cached expensive solves."""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import pytest

from fracstates.errors import InvalidInput
from fracstates.grid import Field, gagliardo_sq, make_grid
from fracstates.models import NonlinearitySpec, PotentialSpec, Well, sample_potential
from fracstates.solver import SolveOptions, solve_limit
from fracstates.variational import Problem


CANON_S = 0.4  # saturable parameter: l0 = 2.5
CANON_ALPHA = 0.5


def single_well_potential():
    """Canonical single well: background 2, depth 1, width 2, center 1/3.

    The off-grid center keeps the rescaled minimum exactly one third of a
    cell away from the grid at every canonical epsilon, so the V(eta)-V0 gap
    scales cleanly with epsilon.
    """
    return PotentialSpec(2.0, (Well((1.0 / 3.0,), 1.0, 2.0),))


def double_well_potential(depths=(1.0, 1.0)):
    return PotentialSpec(
        2.0, (Well((-2.0,), depths[0], 0.5), Well((2.0,), depths[1], 0.5))
    )


@dataclass(frozen=True)
class ExpressionPotential(PotentialSpec):
    """A potential whose values come from a vectorized expression
    func(points) in place of the Gaussian sum: its wells only declare where
    the minima are claimed to be, and on what scale, so the validators and
    build_boxes can be tested on shapes a sum of Gaussians cannot take."""

    func: Callable

    def evaluate_on_coords(self, coords, scale=1.0):
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        pts = np.stack([np.broadcast_to(scale * c, shape).ravel() for c in coords], axis=1)
        return np.asarray(self.func(pts), dtype=float).reshape(shape)


def expression_potential(func, minima, v_inf_level, well_scale=1.0):
    """ExpressionPotential with a unit-depth well of width well_scale at
    each claimed minimum."""
    wells = tuple(Well(tuple(np.atleast_1d(m)), 1.0, well_scale) for m in minima)
    return ExpressionPotential(float(v_inf_level), wells, func)


@pytest.fixture(scope="session")
def saturable():
    return NonlinearitySpec.saturable(CANON_S)


@pytest.fixture(scope="session")
def limit_state(saturable):
    """Ground state of the limit problem at a = V0 = 1 on the R=80 box."""
    g = make_grid(1, 80.0, 640)
    return solve_limit(1.0, saturable, g, CANON_ALPHA, SolveOptions(max_iter=20000))


@pytest.fixture(scope="session")
def limit_state_3d(saturable):
    """Ground state of the limit problem at a = 1 on a 48^3 grid (R = 12),
    descended from one seed of width 1.5."""
    g = make_grid(3, 12.0, 48)
    return solve_limit(1.0, saturable, g, CANON_ALPHA, SolveOptions(max_iter=20000),
                       seed_widths=(1.5,))


@pytest.fixture(scope="session")
def small_problem(saturable):
    """Small 1-D problem on the canonical single well at eps = 0.25."""
    g = make_grid(1, 20.0, 256)
    vf = sample_potential(single_well_potential(), g, 0.25)
    return Problem(
        grid=g, alpha=CANON_ALPHA, eps=0.25, potential_field=vf, nonlinearity=saturable
    )


def gaussian_field(grid, width, center=None, amplitude=1.0):
    r2 = np.zeros(grid.shape)
    for i, c in enumerate(grid.coords):
        ci = 0.0 if center is None else center[i]
        r2 += (c - ci) ** 2
    return Field(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))


def random_theta_field(problem, rng, width_range=(2.0, 5.0)):
    """Random positive bump guaranteed inside the restricted set."""
    from fracstates.variational import energy

    for _ in range(100):
        width = rng.uniform(*width_range)
        center = rng.uniform(-problem.grid.R / 4, problem.grid.R / 4, problem.grid.d)
        amp = rng.uniform(0.5, 3.0)
        u = gaussian_field(problem.grid, width, center, amp)
        bumps = 1.0 + 0.3 * np.sin(rng.uniform(0, 2 * np.pi) + problem.grid.coords[0] / width)
        u = Field(problem.grid, u.shaped * bumps)
        if energy(problem, u).theta_defect < 0:
            return u
    raise AssertionError("could not draw an admissible random field")


class RayScan(NamedTuple):
    t_best: float
    interior: bool


def ray_energies(p, u, ts):
    """I(tu) = t^2/2 ([u]^2 + int V u^2) - int F(tu) at every t of ts at
    once, from one seminorm and the law's pointwise triple: no code path
    shared with the Nehari projection or variational.energy."""
    v = u.values
    w = p.grid.weight
    quad = gagliardo_sq(u, p.alpha) + w * float(np.dot(p.potential_field.values, v * v))
    big_f = p.nonlinearity.triple(np.outer(ts, v))[2]
    return 0.5 * ts**2 * quad - w * np.sum(big_f, axis=1)


def ray_argmax_oracle(p, u, t_max, steps):
    """Brute-force argmax of t -> I(tu) on a uniform t-grid; the test
    oracle of the Nehari projection. interior=False flags a boundary maximum."""
    if steps < 100:
        raise InvalidInput(f"need at least 100 steps, got {steps}")
    if t_max <= 0:
        raise InvalidInput(f"t_max must be positive, got {t_max}")
    ts = np.linspace(t_max / steps, t_max, steps)
    k = int(np.argmax(ray_energies(p, u, ts)))
    return RayScan(float(ts[k]), bool(0 < k < steps - 1))


def image_sum_oracle(delta, period):
    """The periodized tail model S_p(delta) = sum_k |delta + period k|^p at
    every row of delta (N, d), as a function of p < -d, summed point by
    point: the near images one by one, the far ones by the lattice sums of
    diagnostics' second-order expansion."""
    from fracstates.diagnostics import _LATTICE_CUTOFF, _NEAR_IMAGES, _far_lattice

    d = delta.shape[1]
    near = np.arange(-_NEAR_IMAGES, _NEAR_IMAGES + 1)
    shifts = period * np.stack(np.meshgrid(*([near] * d), indexing="ij")).reshape(d, -1).T
    log_dist_sq = np.log(np.sum((delta[:, None, :] + shifts[None, :, :]) ** 2, axis=2))
    rho_sq = np.sum(delta * delta, axis=1) / period**2
    log_sq, mult, log_face, face_w = _far_lattice(d)

    def z(q):
        rest = (_LATTICE_CUTOFF + 0.5) ** (q + d) * 2 * d / -(q + d)
        return float(np.dot(mult, np.exp(0.5 * q * log_sq))) + rest * float(
            np.dot(face_w, np.exp(0.5 * q * log_face)))

    def s_p(p):
        hess = p * (p + d - 2) / (2 * d) * z(p - 2)
        return np.sum(np.exp(0.5 * p * log_dist_sq), axis=1) + period**p * (z(p) + hess * rho_sq)

    return s_p


def decay_fit_oracle(u, eta, window):
    """The tail fit of diagnostics.decay_fit done the direct way: shell
    means by boolean masks and np.polyfit for the line, the image model
    summed point by point for every trial exponent, a scan of the same
    log-spaced depths one at a time, then 30 golden-section steps around
    the best scan point. Returns (DecayFit, whether the periodized model was
    chosen). Inputs are assumed valid."""
    from fracstates.diagnostics import _N_SHELLS, _SCAN_DEPTH, _SCAN_POINTS, DecayFit

    g = u.grid
    d = g.d
    r_lo, r_hi = float(window[0]), float(window[1])
    deltas = []
    for c, e in zip(g.coords, np.atleast_1d(np.asarray(eta, dtype=float))):
        dl = np.abs(c - e)
        deltas.append(np.minimum(dl, 2.0 * g.R - dl))
    r = np.sqrt(sum(dl * dl for dl in deltas))
    mask = (r >= r_lo) & (r <= r_hi)
    vals, rw = u.shaped[mask], r[mask]
    edges = np.linspace(r_lo, r_hi, _N_SHELLS + 1)
    which = np.clip(np.searchsorted(edges, rw, side="right") - 1, 0, _N_SHELLS - 1)
    logr, logu = [], []
    for s in range(_N_SHELLS):
        sel = which == s
        if np.any(sel):
            logr.append(np.log(np.mean(rw[sel])))
            logu.append(np.log(np.mean(vals[sel])))
    logr, logu = np.array(logr), np.array(logu)
    slope, intercept = np.polyfit(logr, logu, 1)
    ss_plain = float(np.sum((logu - (slope * logr + intercept)) ** 2))
    ss_tot = float(np.sum((logu - np.mean(logu)) ** 2))

    delta = np.stack([np.broadcast_to(dl, g.shape)[mask] for dl in deltas], axis=1)
    s_p = image_sum_oracle(delta, 2.0 * g.R)
    counts = np.bincount(which)
    populated = counts > 0

    def ss(depth):
        sums = np.bincount(which, weights=s_p(-d - depth))
        resid = logu - np.log(sums[populated] / counts[populated])
        return float(np.sum((resid - np.mean(resid)) ** 2))

    scan = np.exp(np.linspace(*np.log(_SCAN_DEPTH), _SCAN_POINTS))
    values = [ss(t) for t in scan]
    best = int(np.argmin(values))
    exponent, ss_res, images = float(slope), ss_plain, False
    if best > 0:
        lo, hi = scan[best - 1], scan[min(best + 1, _SCAN_POINTS - 1)]
        inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        fa, fb = ss(a), ss(b)
        for _ in range(30):
            if fa < fb:
                hi, b, fb = b, a, fa
                a = hi - inv_phi * (hi - lo)
                fa = ss(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + inv_phi * (hi - lo)
                fb = ss(b)
        depth, value = (a, fa) if fa < fb else (b, fb)
        if value < ss_plain:
            exponent, ss_res, images = float(-d - depth), value, True
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(exponent, r2, float(slope)), images
