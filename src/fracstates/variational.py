"""Energy functional, its L2 gradient, the restricted-set defect, and the
unique ray projection onto the Nehari manifold.

For a problem with potential samples V(eps*x) and nonlinearity f, the energy
is I(u) = (1/2)(<u,(-Lap)^a u> + int V u^2) - int F(u). The Nehari residual
is J(u) = <I'(u), u> and the defect Q(u) = [u]^2 + int V u^2 - l0 |u|^2
decides membership in the restricted set (Q < 0). Rays from Q-negative
fields cross the manifold exactly once because f(t)/t is increasing, which
makes g(t) = |u|^2_eps - int f(tu)u/t strictly decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidInput, NonFinite, NonpositivePotential, NotInTheta, ZeroField
from .grid import Field, Grid, apply_frac_laplacian, gagliardo_sq
from .models import NonlinearitySpec


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
        if self.eps <= 0:
            raise InvalidInput(f"eps must be positive, got {self.eps}")
        if self.potential_field.grid != self.grid:
            raise InvalidInput("potential field lives on a different grid")
        if np.min(self.potential_field.values) <= 0:
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
    """All parts of I(u) plus the Nehari residual J and the defect Q.

    semi, when given, is the seminorm [u]^2 = <u, (-Lap)^a u> already known
    to the caller; otherwise it is computed by FFT.
    """
    w = p.grid.weight
    if semi is None:
        semi = gagliardo_sq(u, p.alpha)
    pot_sum, f_int, fu_sum = p.nonlinearity.energy_sums(
        u.values, p.potential_field.values
    )
    mass = float(np.dot(u.values, u.values))
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
    out = lu + p.potential_field.values * u.values - p.nonlinearity.f(u.values)
    if not np.all(np.isfinite(out)):
        raise NonFinite("gradient produced NaN or Inf")
    return Field(p.grid, out)


def norm_eps_sq(p: Problem, u: Field, semi: Optional[float] = None) -> float:
    """[u]^2_alpha + int V(eps x) u^2, with [u]^2_alpha computed by FFT
    unless given as semi."""
    if semi is None:
        semi = gagliardo_sq(u, p.alpha)
    return semi + p.grid.weight * float(
        np.dot(p.potential_field.values, u.values * u.values)
    )


def theta_defect(p: Problem, u: Field) -> float:
    """Q(u) = [u]^2 + int V u^2 - l0 |u|^2; u is admissible iff Q(u) < 0."""
    mass = p.grid.weight * float(np.dot(u.values, u.values))
    return norm_eps_sq(p, u) - p.nonlinearity.l0 * mass


class NehariProjection(NamedTuple):
    t_star: float
    projected: Field


# cap on (psi, psi') passes, after which the residual check decides; a descent
# step typically needs 2-4
_MAX_EVALS = 100


def project_to_nehari(
    p: Problem, u: Field, tol: float = 1e-10, semi: Optional[float] = None
) -> NehariProjection:
    """Unique t* > 0 with J(t* u) = 0; raises NotInTheta when no ray point
    exists (Q(u) >= 0, or insufficient positive-part mass for signed u).
    semi, when given, is the known seminorm [u]^2, which spares the FFT.

    With tau = t^2 the root solves G(tau) = |u|^2_eps - h^d psi(tau) = 0,
    psi(tau) = int f(tu)u/t. Safeguarded Newton from tau = 1, one fused
    (psi, psi') pass per step: [lo, hi] brackets the root by the sign of G,
    and a step leaving it falls back to bisection (doubling while hi is
    open). For the saturable law psi is increasing and concave, so Newton
    converges monotonically after its first step.
    """
    w = p.grid.weight
    if not np.any(u.values):
        raise ZeroField("cannot project the zero field")
    nsq = norm_eps_sq(p, u, semi)
    mass = w * float(np.dot(u.values, u.values))
    if nsq - p.nonlinearity.l0 * mass >= 0:
        raise NotInTheta(
            f"theta defect {nsq - p.nonlinearity.l0 * mass:.6g} >= 0: "
            "ray never meets the Nehari manifold"
        )
    up = np.where(u.values > 0, u.values, 0.0)
    pos_mass = w * float(np.dot(up, up))
    if nsq - p.nonlinearity.l0 * pos_mass >= 0:
        raise NotInTheta(
            "positive-part mass too small: g(t) stays positive along the ray"
        )

    lo, hi, tau = 0.0, math.inf, 1.0
    for _ in range(_MAX_EVALS):
        psi, dpsi = p.nonlinearity.rate_pair(u.values, tau)
        big_g = nsq - w * psi
        if big_g == 0.0:
            break
        if big_g > 0.0:
            lo = tau
        else:  # negative or NaN: the root lies below
            hi = tau
        nxt = tau + big_g / (w * dpsi) if dpsi > 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 2.0 * tau if hi == math.inf else 0.5 * (lo + hi)
        done = abs(nxt - tau) <= 4.0 * math.ulp(tau)
        tau = nxt
        if done:
            break
    t_star = math.sqrt(tau)
    residual = t_star * t_star * (nsq - w * p.nonlinearity.rate_sum(u.values, t_star))
    if abs(residual) > tol * nsq:
        raise NotInTheta(
            f"Newton projection stalled: |J(t* u)| = {abs(residual):.3g} exceeds tolerance"
        )
    return NehariProjection(t_star, Field(p.grid, t_star * u.values))


class RayScan(NamedTuple):
    t_best: float
    interior: bool


def ray_argmax_oracle(p: Problem, u: Field, t_max: float, steps: int) -> RayScan:
    """Brute-force argmax of t -> I(tu) on a uniform t-grid; test oracle for
    the Nehari projection. interior=False flags a boundary maximum."""
    if steps < 100:
        raise InvalidInput(f"need at least 100 steps, got {steps}")
    if t_max <= 0:
        raise InvalidInput(f"t_max must be positive, got {t_max}")
    ts = np.linspace(t_max / steps, t_max, steps)
    vals = np.array([energy(p, Field(p.grid, t * u.values)).total for t in ts])
    k = int(np.argmax(vals))
    return RayScan(float(ts[k]), bool(0 < k < steps - 1))
