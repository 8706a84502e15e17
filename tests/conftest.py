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
