"""Energy functional, its L2 gradient, and the unique ray projection onto
the Nehari manifold.

For a problem with potential samples V(eps*x) and nonlinearity f, the energy
is I(u) = (1/2)(<u,(-Lap)^a u> + int V u^2) - int F(u). The Nehari residual
is J(u) = <I'(u), u> and the defect Q(u) = [u]^2 + int V u^2 - l0 |u|^2
decides membership in the restricted set (Q < 0). Rays from Q-negative
fields cross the manifold exactly once because f(t)/t is increasing, which
makes g(t) = |u|^2_eps - int f(tu)u/t strictly decreasing; so the
projection's own test Q(u) < 0 is the membership test.

energy and project_to_nehari evaluate I, J and Q on one models.Ray, which
only _ray builds: every part of I(tv), J(tv) and Q(tv) scales with
tau = t^2 from sums over v taken once, except int F(tv) and int f(tv)v,
which one final pass at tau evaluates. energy makes that pass at tau = 1;
the projection makes it at the root and returns the energy report of the
projected field.

The projection also takes a descent trial v = u - step * direction. _ray
writes v into the ray's scratch array, takes its sums there and turns it
into the pass arrays, so the trial is never held as a field beside them;
a custom law, whose passes read v's samples, keeps one copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidInput, NonFinite, NonpositivePotential, NotInTheta, ZeroField
from .grid import Field, Grid, apply_frac_laplacian, gagliardo_sq
from .models import NonlinearitySpec, Ray


@dataclass(frozen=True)
class Problem:
    """Rescaled problem data: (-Lap)^alpha u + V(eps x) u = f(u)."""

    grid: Grid
    alpha: float
    eps: float
    potential_field: Field
    nonlinearity: NonlinearitySpec

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidInput(f"alpha must lie in (0,1], got {self.alpha}")
        if not self.eps > 0:
            raise InvalidInput(f"eps must be positive, got {self.eps}")
        if self.potential_field.grid != self.grid:
            raise InvalidInput("potential field lives on a different grid")
        if not np.min(self.potential_field.values) > 0:  # a NaN sample fails too
            raise NonpositivePotential("potential samples must be positive")


@dataclass
class EnergyReport:
    seminorm_part: float
    potential_part: float
    nonlinear_part: float
    total: float
    nehari_residual: float
    theta_defect: float

    @property
    def norm_eps_sq(self) -> float:
        return 2.0 * (self.seminorm_part + self.potential_part)


def energy(p: Problem, u: Field, semi: Optional[float] = None) -> EnergyReport:
    """All parts of I(u) plus the Nehari residual J and the defect Q, from
    the ray of u and one final pass at tau = 1.

    semi, when given, is the seminorm [u]^2 = <u, (-Lap)^a u> already known
    to the caller; otherwise it is computed by FFT.
    """
    if semi is None:
        semi = gagliardo_sq(u, p.alpha)
    try:
        ray, pot, mass = _ray(p, u.values)
    except ZeroField:  # every sum of the zero field is 0
        return _report(p, semi, 0.0, 0.0, 0.0, 0.0)
    fu_sum, f_int = p.nonlinearity.rate_primitive(ray, 1.0)
    return _report(p, semi, pot, f_int, fu_sum, mass)


def _write_v(out: np.ndarray, u: np.ndarray, direction: Optional[np.ndarray], step: float):
    """v = u, or v = u - step * direction, written into out and rounded as
    the plain expression rounds it."""
    if direction is None:
        np.copyto(out, u)
        return out
    np.multiply(direction, step, out=out)
    return np.subtract(u, out, out=out)


def _ray(p: Problem, u: np.ndarray, direction: Optional[np.ndarray] = None, step: float = 0.0):
    """(the Ray, sum V v^2, sum v^2) of v = u, or of the descent trial
    v = u - step * direction. v is written into the ray's r and squared
    into a for the two sums; r then gives a = v+^2. A custom law also
    keeps v: the caller's u, or one copy of a trial. Raises ZeroField when
    v is zero."""
    r = _write_v(np.empty_like(u), u, direction, step)
    if not np.any(r):
        raise ZeroField("cannot project the zero field")
    mass = float(np.dot(r, r))
    a = np.multiply(r, r)
    pot = float(np.dot(p.potential_field.values, a))
    v = None
    if p.nonlinearity.kind != "saturable":
        v = u if direction is None else r.copy()
    np.maximum(r, 0.0, out=r)
    np.multiply(r, r, out=a)
    return Ray(v, a, r), pot, mass


def _report(p: Problem, semi, pot_sum, f_int, fu_sum, mass) -> EnergyReport:
    """The EnergyReport of a field from its seminorm and the unweighted sums
    of V u^2, F(u), f(u) u and u^2."""
    w = p.grid.weight
    seminorm_part = 0.5 * semi
    potential_part = 0.5 * w * pot_sum
    nonlinear_part = w * f_int
    total = seminorm_part + potential_part - nonlinear_part
    nehari = semi + w * pot_sum - w * fu_sum
    defect = semi + w * pot_sum - p.nonlinearity.l0 * w * mass
    report = EnergyReport(seminorm_part, potential_part, nonlinear_part, total, nehari, defect)
    # defect may legitimately be -inf for an unbounded declared slope
    if not np.isfinite([total, nehari]).all() or np.isnan(defect):
        raise NonFinite("energy evaluation produced NaN or Inf")
    return report


def gradient(p: Problem, u: Field, lu: Optional[np.ndarray] = None) -> Field:
    """Plain L2 gradient (-Lap)^a u + V(eps x) u - f(u).

    lu, when given, holds the flat values of (-Lap)^a u already known to the
    caller; otherwise they are computed by FFT.
    """
    if lu is None:
        lu = apply_frac_laplacian(u, p.alpha).values
    # f first, so that its scratch array is gone before out is allocated
    fu = p.nonlinearity.f(u.values)
    out = np.multiply(p.potential_field.values, u.values)
    out += lu
    out -= fu
    if not np.all(np.isfinite(out)):
        raise NonFinite("gradient produced NaN or Inf")
    return Field(p.grid, out)


class NehariProjection(NamedTuple):
    t_star: float
    projected: Field
    report: EnergyReport


# cap on Newton passes per round, after which the residual check decides; a
# descent step typically needs 2-3
_MAX_EVALS = 100
# Newton stops once its step is below this fraction of tau: it converges
# quadratically, so the iterate it steps to is then at rounding level
_STEP_TOL = 1e-7
# a projection must reach |J(t* u)| <= _NEHARI_TOL |u|^2_eps
_NEHARI_TOL = 1e-10


def project_to_nehari(
    p: Problem,
    u: Field,
    semi: Optional[float] = None,
    *,
    direction: Optional[Field] = None,
    step: float = 0.0,
) -> NehariProjection:
    """Unique t* > 0 with J(t* u) = 0, the projected field t* u and its
    energy report; raises NotInTheta when no ray point exists (Q(u) >= 0,
    or insufficient positive-part mass for signed u). semi, when given, is
    the known seminorm [u]^2, which spares the FFT.

    With a direction the ray is that of the descent trial
    v = u - step * direction instead, and semi, if given, is [v]^2. The
    result equals that of a call on the field v bit for bit. _ray builds v
    in the ray's pass arrays, and t* v is formed in one of them once the
    other is freed. v is held as a field of its own only where it is read:
    by a custom law's passes, and by the FFT when semi is not given.

    With tau = t^2 the root solves G(tau) = |u|^2_eps - h^d psi(tau) = 0,
    psi(tau) = int f(tu)u/t. Safeguarded Newton, one fused (psi, psi') pass
    per step on arrays allocated once per projection: [lo, hi] brackets the
    root by the sign of G, and a step leaving it falls back to bisection
    (doubling while hi is open). The nonlinearity gives a lower bound of
    the root (NonlinearitySpec._nehari_floor: Jensen's inequality for the
    saturable law, whose psi is increasing and concave, so Newton converges
    monotonically after its first step; 0 for custom laws). Newton starts
    at max(1, that bound) and jumps to the bound when a step falls below
    it. It stops when its step falls below _STEP_TOL * tau; a final pass at
    the last iterate gives psi for the residual check
    |J(t* u)| <= _NEHARI_TOL |u|^2_eps and int F(t* u) for the report. If
    the check fails, Newton goes on to rounding-level steps and checks once
    more before raising NotInTheta.
    """
    w = p.grid.weight
    nl = p.nonlinearity
    uv, dv = u.values, None
    if direction is not None:
        if direction.grid != u.grid:
            raise InvalidInput("direction lives on a different grid")
        dv = direction.values
    if semi is None:
        semi = gagliardo_sq(u if dv is None else Field(p.grid, uv - step * dv), p.alpha)
    ray, pot, mass = _ray(p, uv, dv, step)
    nsq = semi + w * pot
    if nsq - nl.l0 * w * mass >= 0:
        raise NotInTheta(
            f"theta defect {nsq - nl.l0 * w * mass:.6g} >= 0: "
            "ray never meets the Nehari manifold"
        )
    pos_mass = float(np.sum(ray.a))
    if nsq - nl.l0 * w * pos_mass >= 0:
        raise NotInTheta(
            "positive-part mass too small: g(t) stays positive along the ray"
        )
    floor = nl._nehari_floor(ray, nsq, w, pos_mass)
    tau, psi, f_int = _ray_root(nl, ray, nsq, w, floor)
    # the projected field takes over the scratch array r once a is freed
    projected, ray = ray.r, None
    t_star = math.sqrt(tau)
    report = _report(p, tau * semi, tau * pot, f_int, tau * psi, tau * mass)
    _write_v(projected, uv, dv, step)
    projected *= t_star
    return NehariProjection(t_star, Field(p.grid, projected), report)


def _ray_root(nl: NonlinearitySpec, ray: Ray, nsq: float, w: float, floor: float):
    """(tau, psi(tau), sum F(sqrt(tau) v)) at the root of nsq = w psi(tau),
    for project_to_nehari."""
    lo, hi, tau = floor, math.inf, max(1.0, floor)
    jump = 0.0 < floor < tau  # the floor is an untried lower end
    for step_tol in (_STEP_TOL, 0.0):
        for _ in range(_MAX_EVALS):
            psi, dpsi = nl.rate_pair(ray, tau)
            big_g = nsq - w * psi
            if big_g == 0.0:
                break
            if big_g > 0.0:
                lo, jump = tau, False
            else:  # negative or NaN: the root lies below
                hi = tau
            nxt = tau + big_g / (w * dpsi) if dpsi > 0.0 else math.nan
            newton = True
            if jump and nxt <= floor:
                nxt, jump, newton = floor, False, False
            elif not lo < nxt < hi:
                nxt = 2.0 * tau if hi == math.inf else 0.5 * (lo + hi)
                newton = False
            step = abs(nxt - tau)
            done = step <= 4.0 * math.ulp(tau) or (newton and step <= step_tol * tau)
            tau = nxt
            if done:
                break
        psi, f_int = nl.rate_primitive(ray, tau)
        residual = tau * (nsq - w * psi)
        if not abs(residual) > _NEHARI_TOL * nsq:  # NaN passes on to the report's check
            return tau, psi, f_int
    raise NotInTheta(
        f"Newton projection stalled: |J(t* u)| = {abs(residual):.3g} exceeds tolerance"
    )
