"""Potentials and nonlinearities as validated, evaluable specifications.

The canonical potential family is a positive background level minus a sum of
Gaussian wells, which gives bounded continuous potentials with explicit
strict minima. Nonlinearities are either the saturable optical-medium model
f(t) = t^3/(1+s*t^2) (zero for t <= 0, asymptotic slope 1/s) or a custom
(f, f', F) triple with declared slope and growth data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import InvalidInput, NonpositivePotential
from .grid import Field, Grid


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Well:
    center: tuple
    depth: float
    width: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        if self.depth <= 0 or self.width <= 0:
            raise InvalidInput("well depth and width must be positive")


@dataclass(frozen=True)
class PotentialSpec:
    """V(x) = v_inf_level - sum_j depth_j * exp(-|x - center_j|^2 / width_j).

    A custom expression can replace the Gaussian formula via from_callable;
    the well entries then only declare where the minima are claimed to be
    (and on what scale), and the validators check the claim numerically.
    """

    v_inf_level: float
    wells: tuple
    func: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "wells", tuple(self.wells))
        if not self.wells:
            raise InvalidInput("at least one well is required")
        d = len(self.wells[0].center)
        if any(len(w.center) != d for w in self.wells):
            raise InvalidInput("all well centers must share one dimension")

    @classmethod
    def from_callable(cls, func: Callable, minima, v_inf_level: float,
                      well_scale: float = 1.0, depth_scale: float = 1.0):
        """Wrap a vectorized expression V(points -> values); the declared
        minima and scales only steer the numeric (V2) probes."""
        wells = tuple(Well(tuple(np.atleast_1d(m)), depth_scale, well_scale)
                      for m in minima)
        return cls(float(v_inf_level), wells, func=func)

    @property
    def d(self) -> int:
        return len(self.wells[0].center)

    @property
    def sup_level(self) -> float:
        """Supremum of V (for the Gaussian family, the far-field level)."""
        return self.v_inf_level

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """V at an (m, d) array of points (or a scalar point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.func is not None:
            return np.asarray(self.func(pts), dtype=float).reshape(pts.shape[0])
        out = np.full(pts.shape[0], self.v_inf_level)
        for w in self.wells:
            r2 = np.sum((pts - np.asarray(w.center)) ** 2, axis=1)
            out -= w.depth * np.exp(-r2 / w.width)
        return out

    def evaluate_on_coords(self, coords, scale: float = 1.0) -> np.ndarray:
        """V(scale * x) on shaped coordinate arrays (one per axis)."""
        if self.func is not None:
            pts = np.stack([scale * c.ravel() for c in coords], axis=1)
            return self.evaluate(pts).reshape(coords[0].shape)
        out = np.full(coords[0].shape, self.v_inf_level)
        for w in self.wells:
            r2 = np.zeros(coords[0].shape)
            for c, ci in zip(coords, w.center):
                r2 += (scale * c - ci) ** 2
            out -= w.depth * np.exp(-r2 / w.width)
        return out

    def center_values(self) -> np.ndarray:
        return self.evaluate([w.center for w in self.wells])

    @property
    def v0_proxy(self) -> float:
        """Minimum of V over the declared well centers."""
        return float(np.min(self.center_values()))


def sample_potential(spec: PotentialSpec, grid: Grid, eps: float) -> Field:
    """Sample V(eps*x) on the grid; rejects nonpositive values ((V1))."""
    if eps <= 0:
        raise InvalidInput(f"eps must be positive, got {eps}")
    if spec.d != grid.d:
        raise InvalidInput(f"potential dimension {spec.d} != grid dimension {grid.d}")
    vals = spec.evaluate_on_coords(grid.coords, scale=eps)
    if np.min(vals) <= 0.0:
        raise NonpositivePotential(
            f"sampled potential attains min {np.min(vals):.6g} <= 0"
        )
    return Field(grid, vals)


@dataclass
class PotentialReport:
    v0: float
    v_inf_proxy: float
    minima: list
    pass_v1: bool
    pass_v2: bool
    well_ok: list
    messages: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return self.pass_v1 and self.pass_v2


def validate_potential(
    spec: PotentialSpec,
    grid: Grid,
    margin_frac: float = 0.1,
    achieve_tol: Optional[float] = None,
) -> PotentialReport:
    """Check (V1) and (V2) on grid samples.

    V0 is the grid minimum; the liminf at infinity is proxied by the minimum
    over the boundary shell {|x|_inf >= 0.9 R}. (V2) passes when every
    declared center achieves V0 within tolerance and is a strict minimum
    within its own well radius.
    """
    vals = spec.evaluate_on_coords(grid.coords).ravel()
    v0 = float(np.min(vals))
    sup_abs = np.max(np.abs(np.stack([c.ravel() for c in grid.coords])), axis=0)
    shell = sup_abs >= 0.9 * grid.R
    v_inf_proxy = float(np.min(vals[shell]))
    margin = margin_frac * max(spec.v_inf_level - v0, 0.0)
    pass_v1 = (v0 > 0.0) and (v_inf_proxy > v0 + margin)

    msgs = []
    if v0 <= 0.0:
        msgs.append(f"(V1) fail: grid minimum {v0:.6g} <= 0")
    if v_inf_proxy <= v0 + margin:
        msgs.append(
            f"(V1) fail: boundary-shell minimum {v_inf_proxy:.6g} is not above "
            f"V0 + margin = {v0 + margin:.6g}"
        )

    if achieve_tol is None:
        achieve_tol = 0.01 * max(w.depth for w in spec.wells)
    centers = spec.center_values()
    well_ok = []
    minima = []
    for w, vc in zip(spec.wells, centers):
        achieves = abs(vc - v0) <= achieve_tol
        # strictness probe: V on a ring of radius 2*sqrt(width) around the center
        r = 2.0 * np.sqrt(w.width)
        ring = []
        for i in range(spec.d):
            for sgn in (-1.0, 1.0):
                p = np.array(w.center, dtype=float)
                p[i] += sgn * r
                ring.append(p)
        ring_vals = spec.evaluate(np.array(ring))
        strict = bool(vc < np.min(ring_vals))
        ok = achieves and strict
        well_ok.append(ok)
        if ok:
            minima.append(w.center)
        if not achieves:
            msgs.append(
                f"(V2) fail: well at {w.center} attains {vc:.6g}, global "
                f"minimum is {v0:.6g}"
            )
        if not strict:
            msgs.append(f"(V2) fail: well at {w.center} is not a strict minimum")
    pass_v2 = all(well_ok)
    return PotentialReport(v0, v_inf_proxy, minima, pass_v1, pass_v2, well_ok, msgs)


# --------------------------------------------------------------------------
# nonlinearities
# --------------------------------------------------------------------------


class Ray:
    """Flat samples v of a ray t -> t v, prepared for the Nehari passes:
    a = v+^2 and a scratch array r of v's size, allocated once per ray.
    Saturable passes overwrite r in place and leave v and a unchanged."""

    __slots__ = ("v", "a", "r")

    def __init__(self, v: np.ndarray):
        self.v = v
        self.a = np.maximum(v, 0.0)
        self.a *= self.a
        self.r = np.empty_like(self.a)


class NonlinearitySpec:
    """Evaluable (f, f', F) triple with declared slope/growth data.

    All evaluation paths enforce f = f' = F = 0 for t <= 0 ((f1)). The
    saturable kind evaluates arrays with the numpy kernels of _kernels.
    """

    def __init__(self, kind, l0, q, C0, s=None, f=None, fprime=None, big_f=None):
        self.kind = kind
        self.l0 = float(l0)
        self.q = float(q)
        self.C0 = float(C0)
        self.s = s
        self._f = f
        self._fprime = fprime
        self._big_f = big_f
        if q <= 2:
            raise InvalidInput(f"growth exponent q must exceed 2, got {q}")

    @classmethod
    def saturable(cls, s: float, q: float = 2.5, C0: Optional[float] = None):
        if s <= 0:
            raise InvalidInput(f"saturation parameter must be positive, got {s}")
        # sup |f'| = 9/(8s), attained at s*t^2 = 3
        if C0 is None:
            C0 = 9.0 / (8.0 * s)
        return cls("saturable", l0=1.0 / s, q=q, C0=C0, s=float(s))

    @classmethod
    def custom(
        cls,
        f: Callable,
        fprime: Callable,
        big_f: Callable,
        l0: float,
        q: float,
        C0: float,
    ):
        return cls("custom", l0=l0, q=q, C0=C0, f=f, fprime=fprime, big_f=big_f)

    # -- array evaluation ---------------------------------------------------

    def _custom(self, t, *funcs):
        """The custom callables elementwise, zeroed for t <= 0."""
        t = np.asarray(t, dtype=float)
        pos = t > 0.0
        tp = np.where(pos, t, 0.0)
        return tuple(np.where(pos, fn(tp), 0.0) for fn in funcs)

    def triple(self, t):
        """(f, f', F) elementwise on an array."""
        if self.kind == "saturable":
            return _kernels.saturable_triple(t, self.s)
        return self._custom(t, self._f, self._fprime, self._big_f)

    def f(self, t):
        if self.kind == "saturable":
            return _kernels.saturable_f(t, self.s)
        return self._custom(t, self._f)[0]

    def rate_sum(self, u_flat: np.ndarray, t: float) -> float:
        """sum f(t*u)*u / t, the scaled Nehari pairing."""
        if self.kind == "saturable":
            return _kernels.nehari_rate_sum(u_flat, t, self.s)
        return float(np.dot(self.f(t * u_flat), u_flat)) / t

    def rate_pair(self, ray, tau: float):
        """(psi, psi') in one pass on a Ray of v, psi(tau) =
        rate_sum(v, sqrt(tau)).

        For the custom kind psi' = (sum f'(tv)v^2 - psi)/(2 tau) at
        t = sqrt(tau), from f and f' only.
        """
        if self.kind == "saturable":
            return _kernels.nehari_pass(ray.a, ray.r, tau, self.s)
        t = math.sqrt(tau)
        fv, fpv = self._custom(t * ray.v, self._f, self._fprime)
        psi = float(np.dot(fv, ray.v)) / t
        # f' vanishes where v <= 0, so v^2 may be read as a = v+^2
        return psi, (float(np.dot(fpv, ray.a)) - psi) / (2.0 * tau)

    def rate_primitive(self, ray: Ray, tau: float):
        """(psi(tau), sum F(t v)) in one pass at t = sqrt(tau): the rate of
        rate_pair and the primitive sum of the energy, from f and F only."""
        if self.kind == "saturable":
            return _kernels.nehari_final(ray.a, ray.r, tau, self.s)
        t = math.sqrt(tau)
        fv, big = self._custom(t * ray.v, self._f, self._big_f)
        return float(np.dot(fv, ray.v)) / t, float(np.sum(big))

    def energy_sums(self, u_flat: np.ndarray, v_flat: np.ndarray):
        """(sum V*u^2, sum F(u), sum f(u)*u) without the quadrature weight."""
        if self.kind == "saturable":
            return _kernels.energy_sums(u_flat, v_flat, self.s)
        fv, big = self._custom(u_flat, self._f, self._big_f)
        return (
            float(np.dot(v_flat, u_flat * u_flat)),
            float(np.sum(big)),
            float(np.dot(fv, u_flat)),
        )


def nonlin_eval(spec: NonlinearitySpec, t: float):
    """Pointwise (f(t), f'(t), F(t)); zero triple for t <= 0."""
    f, fp, big = spec.triple(np.array([float(t)]))
    return float(f[0]), float(fp[0]), float(big[0])


@dataclass
class NonlinearityReport:
    pass_f1: bool
    pass_f2: bool
    pass_f3: bool
    pass_f4: bool
    pass_f5: bool
    l0: float
    horizon: float
    messages: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return self.pass_f1 and self.pass_f2 and self.pass_f3 and self.pass_f4 and self.pass_f5

    def failures(self) -> list:
        names = ["f1", "f2", "f3", "f4", "f5"]
        flags = [self.pass_f1, self.pass_f2, self.pass_f3, self.pass_f4, self.pass_f5]
        return [n for n, ok in zip(names, flags) if not ok]


def validate_nonlinearity(
    spec: NonlinearitySpec,
    t_grid: Optional[Sequence[float]] = None,
    horizon: float = 1e3,
    sup_v: Optional[float] = None,
) -> NonlinearityReport:
    """Sampled checks of (f1)-(f5) on (0, horizon].

    (f5) cannot be certified at infinity: we certify monotone growth up to
    the horizon (last value at least 10x the value at t ~ 1) and record the
    horizon in the report. When sup_v is given, (f3) additionally requires
    l0 > sup_v.
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-3, horizon, 400)
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0) or t[-1] < horizon * (1 - 1e-12):
        raise InvalidInput("t_grid must be positive and reach the horizon")
    f, fp, big = spec.triple(t)
    msgs = []

    f_neg, fp_neg, F_neg = nonlin_eval(spec, -1.0)
    rate = f / t
    zero_at_neg = f_neg == 0.0 and fp_neg == 0.0 and F_neg == 0.0
    small_slope = rate[0] <= 1e-2 * np.max(rate)
    pass_f1 = zero_at_neg and small_slope
    if not zero_at_neg:
        msgs.append("(f1) fail: triple does not vanish for t <= 0")
    if not small_slope:
        msgs.append("(f1) fail: f(t)/t does not vanish as t -> 0+")

    pass_f2 = bool(np.all(np.abs(fp) <= spec.C0 * (1.0 + t ** (spec.q - 2.0)) + 1e-12))
    if not pass_f2:
        msgs.append("(f2) fail: |f'| exceeds C0*(1+t^(q-2)) on samples")

    slope_end = f[-1] / t[-1]
    finite_l0 = np.isfinite(spec.l0)
    near_l0 = finite_l0 and abs(slope_end - spec.l0) <= 0.05 * spec.l0
    above_v = True if sup_v is None else (finite_l0 and spec.l0 > sup_v)
    pass_f3 = bool(near_l0 and above_v)
    if not finite_l0:
        msgs.append("(f3) fail: declared asymptotic slope is not finite")
    elif not near_l0:
        msgs.append(
            f"(f3) fail: f(T)/T = {slope_end:.6g} not within 5% of l0 = {spec.l0:.6g}"
        )
    if not above_v:
        msgs.append(f"(f3) fail: l0 = {spec.l0:.6g} <= sup V = {sup_v:.6g}")

    pass_f4 = bool(np.all(np.diff(rate) > 0))
    if not pass_f4:
        msgs.append("(f4) fail: f(t)/t is not strictly increasing on samples")

    fbar = 0.5 * f * t - big
    ref = fbar[np.searchsorted(t, 1.0, side="left")] if t[-1] >= 1.0 else fbar[0]
    growing = bool(np.all(np.diff(fbar) >= -1e-12 * np.max(np.abs(fbar))))
    unbounded = bool(fbar[-1] >= 10.0 * max(ref, 0.0)) and fbar[-1] > 0
    pass_f5 = growing and unbounded
    if not growing:
        msgs.append("(f5) fail: f(t)t/2 - F(t) is not nondecreasing on samples")
    if not unbounded:
        msgs.append("(f5) fail: f(t)t/2 - F(t) shows no growth up to the horizon")

    return NonlinearityReport(
        pass_f1, pass_f2, pass_f3, pass_f4, pass_f5, spec.l0, float(horizon), msgs
    )
