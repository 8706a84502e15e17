"""Nehari-constrained energy descent.

Each iteration takes a Sobolev-preconditioned step against the free L2
gradient and reprojects onto the Nehari manifold along the ray, so accepted
iterates stay on the constraint and the energy decreases monotonically.
Because constrained critical points of this functional are free critical
points, the free-gradient norm is the convergence certificate.

The monotone Armijo search starts from the Barzilai-Borwein (BB2) step in
the preconditioned metric, sigma = <s, y> / <y, P^-1 y> with s and y the
differences of the last two projected iterates and of their gradients
(Barzilai & Borwein, IMA J. Numer. Anal. 8, 1988), taken as it is: the
backtracking (reach 2^50) is its only safeguard, and the unit step
_STEP_INIT stands in only at the first iteration, or where a pairing is not
positive or the ratio overflows. The pairings need neither the previous
iterate nor its gradient (see the loop). Along the soft translational mode
of V(eps x) the ratio reaches 1e4-1e6 unit steps, and a unit step
contracts that mode by only 1 - O(eps^2) per iteration, so the BB2 start
is what keeps small-eps solves short. Branch seeds are exact sub-cell
translates centred at the well minimum (localization.seed_field), which
removes most of that translational transient before the descent starts.

The loop carries Lu = (-Lap)^a u across iterations instead of transforming
u again: the gradient is Lu + V u - f(u), and the preconditioned direction
d = ((-Lap)^a + c)^-1 g, with c the grid mean of the potential, is the
only transform pair of an iteration. Since (-Lap)^a d = g - c d exactly,
the seminorm of every trial u - sigma d is a quadratic in sigma whose
coefficients are dot products formed once per iteration, and the ray
scaling [t v]^2 = t^2 [v]^2 carries it through the projection. The
projection also returns the energy report of the projected trial, scaled
from its own sums and final pass, so a trial costs no energy evaluation of
its own. A trial is passed to it as u, d, sigma and its seminorm, and it
is never formed as a field of its own. Once those dot
products are taken, g is overwritten with (-Lap)^a d = g - c d, and an
accepted step updates Lu <- t* (Lu - sigma (-Lap)^a d). Between
iterations the loop holds u, Lu and d only. No certificate rests on the
Lu recurrence: a residual that passes the tolerance is tested again with
Lu recomputed by FFT, and the returned residual and energy report are
computed afresh from that Lu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    Diverged,
    InvalidInput,
    NotInTheta,
    SeedNotInTheta,
    SlopeOrdering,
    ZeroField,
)
from . import _kernels
from .grid import Field, Grid, apply_frac_laplacian, helmholtz_inverse, locate_max
from .models import NonlinearitySpec, _positive, sample_potential
from .variational import (
    EnergyReport,
    Problem,
    energy,
    gradient,
    project_to_nehari,
)


# Armijo line search: the first step where no BB2 step is known, the
# backtracking factor, the sufficient-decrease constant, the trials allowed
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4
_MAX_BACKTRACKS = 50


@dataclass
class SolveOptions:
    max_iter: int = 2000
    tol_residual: float = 1e-8

    def __post_init__(self):
        if (not isinstance(self.max_iter, (int, np.integer)) or isinstance(self.max_iter, bool)
                or not self.max_iter >= 1):
            raise InvalidInput(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        self.tol_residual = _positive(self.tol_residual, "tol_residual")


@dataclass
class SolveResult:
    u: Field
    report: EnergyReport
    iterations: int
    converged: bool
    residual: float
    energy_history: list = dfield(default_factory=list)
    max_point: tuple = ()
    negative_mass: float = 0.0

    @property
    def energy(self) -> float:
        return self.report.total


def _l2(grid: Grid, values: np.ndarray) -> float:
    return math.sqrt(grid.weight * float(np.dot(values, values)))


def _certify(p: Problem, u: Field):
    """(Lu, g, residual) of u with Lu = (-Lap)^a u freshly transformed: the
    certificate, free of the carried Lu's recurrence drift."""
    lu = apply_frac_laplacian(u, p.alpha).values
    grad = gradient(p, u, lu=lu)
    return lu, grad, _l2(p.grid, grad.values) / _l2(p.grid, u.values)


def solve_constrained(p: Problem, seed: Field, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Descend I on the Nehari manifold starting from an admissible seed.

    Each line search starts at the BB2 step of the two latest iterates
    (_STEP_INIT at the first iteration, or when a pairing is not positive
    or the ratio overflows) and shrinks it by _STEP_SHRINK until the Armijo
    test holds. The preconditioner shift is the grid mean of the potential.
    Trials take their seminorms from the carried (-Lap)^a u and make no
    FFT, and their energies from the projection's report; convergence is
    certified with a freshly transformed (-Lap)^a u, which also gives the
    returned report its seminorm.
    Raises ZeroField for a zero seed (its projection has no ray),
    SeedNotInTheta when the seed's ray never meets the Nehari
    manifold (nonnegative defect, or too little positive mass), Diverged
    when the backtracking line search cannot find any decrease while the
    residual is still above tolerance. Hitting max_iter returns, with
    converged=False, the latest iterate whose energy is within the Armijo
    floor 1e-13 (1 + |E|) of the lowest energy reached: the line search
    treats a rise under that floor as no rise, so a lower iterate is kept
    apart only while the energy lies more than the floor above it.
    Every array is dropped at its last use, the seed once it is projected;
    a caller that keeps no name for the seed lets the solve free it. The
    seed's array itself is never written to.
    """
    opts = opts or SolveOptions()
    shift = float(np.mean(p.potential_field.values))
    w = p.grid.weight

    # lu carries (-Lap)^a u; the seed's is the only one taken by FFT
    lu = apply_frac_laplacian(seed, p.alpha).values
    semi = w * float(np.dot(seed.values, lu))
    try:
        t0, u, rep = project_to_nehari(p, seed, semi=semi)
    except NotInTheta as exc:
        raise SeedNotInTheta(str(exc)) from exc
    seed = None  # projected: freed here unless the caller still holds it
    lu *= t0
    e_hist = [rep.total]
    best_u, low = u, rep.total

    # between iterations the loop holds u, lu and the last direction d; last
    # holds the scalars of the step along d: <u, g> and <g, d> at its start,
    # its sigma and the projection's t*
    direction = last = None
    for it in range(1, opts.max_iter + 1):
        grad = gradient(p, u, lu=lu)
        residual = _l2(p.grid, grad.values) / _l2(p.grid, u.values)
        if residual <= opts.tol_residual:
            # certify with a fresh (-Lap)^a u, free of recurrence drift;
            # if that fails, descend on from the fresh one. The carried Lu
            # and g are dropped first, so the transform does not hold them
            lu = grad = None
            lu, grad, residual = _certify(p, u)
            if residual <= opts.tol_residual:
                iterations = it - 1
                break

        uv, gv = u.values, grad.values
        ug = float(np.dot(uv, gv))
        if last is not None:
            dg = float(np.dot(direction.values, gv))  # <d_prev, g>
        # the last direction goes before the transform, so it is not held through it
        direction = None
        direction = helmholtz_inverse(grad, p.alpha, shift)
        dv = direction.values
        gd = float(np.dot(gv, dv))
        slope = -w * gd  # negative

        sigma = _STEP_INIT
        if last is not None:
            # BB2 pairings <s, y> and <y, P^-1 y> with s = u - u_prev,
            # y = g - g_prev, P^-1 y = d - d_prev, from the last step's
            # scalars and <d_prev, g>: u = t* (u_prev - sigma d_prev) gives
            # <u, g_prev> and <u_prev, g>, and the symmetric P^-1 gives
            # <g_prev, d> = <d_prev, g>
            pug, pgd, psigma, pt = last
            u_pg = pt * (pug - psigma * pgd)
            pu_g = ug / pt + psigma * dg
            sy = ug - u_pg - pu_g + pug
            yy = gd - 2.0 * dg + pgd
            if sy > 0 and yy > 0 and sy / yy < math.inf:  # an overflow keeps _STEP_INIT
                sigma = sy / yy
        # (-Lap)^a d = g - c d exactly, so the trial seminorm is the
        # quadratic [u - sigma d]^2 = a0 - 2 sigma a1 + sigma^2 a2
        a0 = w * float(np.dot(uv, lu))
        a1 = w * (ug - shift * float(np.dot(uv, dv)))
        a2 = w * (gd - shift * float(np.dot(dv, dv)))
        # g is not needed again, so it becomes (-Lap)^a d for the Lu update
        gv -= shift * dv
        # near the minimum the Armijo decrease drops below the rounding
        # noise of the energy sums; the floor keeps steps acceptable there
        floor = 1e-13 * (1.0 + abs(rep.total))
        for _ in range(_MAX_BACKTRACKS):
            semi = a0 - sigma * (2.0 * a1 - sigma * a2)
            try:
                # the trial goes as u - sigma d, which a saturable law never forms
                t_star, proj, rep_new = project_to_nehari(
                    p, u, semi=semi, direction=direction, step=sigma)
            except (NotInTheta, ZeroField):
                sigma *= _STEP_SHRINK
                continue
            if rep_new.total <= rep.total + _SUFFICIENT_DECREASE * sigma * slope + floor:
                last = (ug, gd, sigma, t_star)
                u, rep = proj, rep_new
                # (-Lap)^a (t* (u - sigma d)) = t* (lu - sigma (-Lap)^a d)
                gv *= sigma
                lu -= gv
                lu *= t_star
                # an iterate within the floor of the lowest energy is as good
                # as it, so a separate best is kept only above that
                if rep.total <= low + floor:
                    best_u = u
                low = min(low, rep.total)
                e_hist.append(rep.total)
                break
            proj = None  # a rejected projection goes before the next trial
            sigma *= _STEP_SHRINK
        else:
            raise Diverged(
                f"line search failed {_MAX_BACKTRACKS} times at iteration "
                f"{it} (residual {residual:.3g})"
            )
        # the previous u and (-Lap)^a d go: only u, lu and d are carried
        grad = uv = gv = dv = proj = None
    else:
        # max_iter ran out: certify the kept iterate afresh
        iterations, u = opts.max_iter, best_u
        lu = direction = None
        lu, grad, residual = _certify(p, u)

    # the final report takes its seminorm from the certificate's Lu and
    # needs u alone, so the loop's arrays are dropped before it is formed
    semi = w * float(np.dot(u.values, lu))
    lu = grad = direction = best_u = None
    return SolveResult(
        u=u,
        report=energy(p, u, semi=semi),
        iterations=iterations,
        converged=residual <= opts.tol_residual,
        residual=residual,
        energy_history=e_hist,
        max_point=tuple(float(x) for x in locate_max(u)),
        negative_mass=w * _kernels.negative_sq_sum(u.values),
    )


# --------------------------------------------------------------------------
# autonomous limit problem
# --------------------------------------------------------------------------


def _gaussian_seed(grid: Grid, width: float) -> Field:
    r2 = np.zeros(grid.shape)
    for c in grid.coords:
        r2 += c**2
    np.negative(r2, out=r2)
    r2 /= 2.0 * width**2
    np.exp(r2, out=r2)
    r2 *= 2.0
    return Field(grid, r2)


# ratio about 1.7; the wide end admits levels close below l0, whose Gaussian
# ray meets the Nehari manifold only when its seminorm per unit mass is
# below l0 - a
DEFAULT_SEED_WIDTHS = (1.0, 1.7, 2.9, 4.9, 8.3, 14.1, 24.0)


def check_levels(a_values: Sequence[float], nonlinearity: NonlinearitySpec):
    """The rules of the constant potential levels of a c_a curve: strictly
    increasing (InvalidInput), positive (InvalidInput) and below the
    asymptotic slope l0 (SlopeOrdering)."""
    if not all(b > a for a, b in zip(a_values, a_values[1:])):
        raise InvalidInput(f"a_values must be strictly increasing, got {list(a_values)}")
    for a in a_values:
        if not a > 0:
            raise InvalidInput(f"constant potential level must be positive, got {a}")
        if a >= nonlinearity.l0:
            raise SlopeOrdering(
                f"level a = {a} is not below the asymptotic slope l0 = {nonlinearity.l0}"
            )


def limit_problem(a: float, nonlinearity: NonlinearitySpec, grid: Grid, alpha: float) -> Problem:
    check_levels((a,), nonlinearity)
    const = Field(grid, np.full(grid.size, float(a)))
    return Problem(grid=grid, alpha=alpha, eps=1.0, potential_field=const, nonlinearity=nonlinearity)


def solve_limit(
    a: float,
    nonlinearity: NonlinearitySpec,
    grid: Grid,
    alpha: float,
    opts: Optional[SolveOptions] = None,
    seed_widths: Sequence[float] = DEFAULT_SEED_WIDTHS,
) -> SolveResult:
    """Ground state of (-Lap)^a u + a u = f(u), descended from the first
    admissible seed.

    Seeds are origin-centered Gaussians of the given widths, tried in order;
    a width whose ray misses the Nehari manifold (SeedNotInTheta) is skipped,
    and the descent from the first admissible width is returned. The ground
    state is positive and radial (Felmer, Quaas & Tan, Proc. Roy. Soc.
    Edinburgh A 142, 2012), and every admissible width descends to it, so the
    widths are an ordered fallback for admissibility, not a multistart.
    A level close below l0 needs a wide seed: with s = 0.4 (l0 = 2.5) on
    the R = 80, n = 640 grid, a = 2.45 first admits the default width 14.1
    and a = 2.47 the width 24.0, while a = 2.49 needs about 40.8 (R/2),
    beyond the defaults.
    Raises InvalidInput for an empty width list or a width that is not
    positive and finite, and SeedNotInTheta when no width is admissible.
    """
    seed_widths = tuple(seed_widths)
    if not seed_widths or not all(0 < width < math.inf for width in seed_widths):
        raise InvalidInput(
            f"seed_widths must be one or more positive widths, each finite, got {seed_widths}")
    p = limit_problem(a, nonlinearity, grid, alpha)
    for width in seed_widths:
        try:
            return solve_constrained(p, _gaussian_seed(grid, width), opts)
        except SeedNotInTheta:
            continue
    raise SeedNotInTheta(
        f"no Gaussian seed width in {seed_widths} is admissible for a = {a}"
    )


def energy_curve(
    a_values: Sequence[float],
    nonlinearity: NonlinearitySpec,
    grid: Grid,
    alpha: float,
    opts: Optional[SolveOptions] = None,
):
    """(a, c_a) pairs along a strictly increasing list of levels, all
    checked (check_levels) before the first solve."""
    a_values = list(a_values)
    check_levels(a_values, nonlinearity)
    out = []
    for a in a_values:
        res = solve_limit(a, nonlinearity, grid, alpha, opts)
        out.append((float(a), res.energy))
    return out


# --------------------------------------------------------------------------
# epsilon sweep
# --------------------------------------------------------------------------


def budgeted_grid(d: int, R: float, n: int, point_budget: int, name: str) -> Grid:
    """Grid(d, R, n) for the grid called name, once its n^d points fit
    the point budget; BudgetExceeded, before any array exists, otherwise.
    Every grid a config run builds comes from here."""
    if n**d > point_budget:
        raise BudgetExceeded(f"{name} grid {n}^{d} exceeds the point budget {point_budget}")
    return Grid(d, R, n)


def _point_count(R: float, h: float, point_budget: int, name: str) -> float:
    """2R/h, the unrounded points per axis of the grid called name at the
    spacing h; BudgetExceeded when it is not finite, as no integer count is."""
    count = 2.0 * R / h
    if not math.isfinite(count):
        raise BudgetExceeded(f"{name} grid of {count:g} points per axis exceeds the point "
                             f"budget {point_budget}")
    return count


def grid_for_epsilon(d: int, eps: float, R0: float, R_cap: float, h0: float, point_budget: int) -> Grid:
    """Rescaled-box grid: half-width min(R0/eps, R_cap) at fixed spacing h0
    (half-width rounded up so n is even). InvalidInput unless eps, R0,
    R_cap and h0 are all positive and eps and h0 are finite."""
    if not (0 < eps < math.inf and R0 > 0 and R_cap > 0 and 0 < h0 < math.inf):
        raise InvalidInput(f"eps, R0, R_cap and h0 must be positive, and eps and h0 finite, "
                           f"got {eps}, {R0}, {R_cap}, {h0}")
    R = min(R0 / eps, R_cap)
    n = int(math.ceil(_point_count(R, h0, point_budget, f"eps={eps}")))
    n = max(n + n % 2, 8)
    return budgeted_grid(d, n * h0 / 2.0, n, point_budget, f"eps={eps}")


def validation_grid(config) -> Grid:
    """The grid [-R0, R0]^d the hypothesis validators sample V on, at about
    the spacing h0 with 64 to 4096 points per axis, within the point budget."""
    pb = config.problem
    count = _point_count(pb.R0, pb.h0, config.sweep.point_budget, "validation")
    n = min(max(int(count), 64), 4096)
    return budgeted_grid(pb.d, pb.R0, n + n % 2, config.sweep.point_budget, "validation")


def limit_grid(config) -> Grid:
    """The configured limit grid, within the point budget."""
    return budgeted_grid(config.problem.d, config.limit.R, config.limit.n,
                         config.sweep.point_budget, "limit")


def problem_for_epsilon(config, eps: float) -> Problem:
    """The rescaled problem of one epsilon: its grid, the potential sampled
    at eps x, and the configured nonlinearity."""
    pb = config.problem
    g = grid_for_epsilon(pb.d, eps, pb.R0, pb.R_cap, pb.h0, config.sweep.point_budget)
    return Problem(
        grid=g, alpha=pb.alpha, eps=eps,
        potential_field=sample_potential(config.potential, g, eps),
        nonlinearity=config.nonlinearity,
    )


def limit_state(config) -> SolveResult:
    """Limit ground state at the well level V0 on the configured limit grid."""
    return solve_limit(
        config.potential.v0_proxy, config.nonlinearity, limit_grid(config),
        config.problem.alpha, config.solve_options(),
    )


def sweep_epsilon(config) -> list:
    """Run the branch experiment for every epsilon in the config, in order.

    Returns one SweepRecord per epsilon (diagnostics.build_sweep_record),
    which holds each branch's records.json entry. The limit ground state is
    solved once on the limit grid and reused as seed profile and as the
    reference for profile errors; every record carries it as w_limit. The
    config's constructor has checked the epsilons (non-empty, positive,
    strictly decreasing) and the point budget of every grid.
    """
    from .diagnostics import build_sweep_record
    from .localization import solve_branches

    opts = config.solve_options()
    boxes = config.box_family()
    limit = limit_state(config)

    def one(eps):
        p = problem_for_epsilon(config, eps)
        experiment = solve_branches(p, boxes, limit.u, opts)
        return build_sweep_record(p, experiment, limit, config.potential)

    return [one(eps) for eps in config.sweep.epsilons]
