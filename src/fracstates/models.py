"""Potentials and nonlinearities as validated, evaluable specifications.

The potential is a positive background level minus a sum of Gaussian
wells, which gives bounded continuous potentials with explicit strict
minima; it is the one potential family, in the library as in a config.
Nonlinearities are either the saturable optical-medium model
f(t) = t^3/(1+s*t^2) (zero for t <= 0, asymptotic slope 1/s) or a custom
(f, f', F) triple with declared slope and growth data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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
        if any(math.isnan(c) for c in self.center):
            raise InvalidInput(f"well center must be a number, got {self.center}")
        if not (self.depth > 0 and self.width > 0):  # NaN fails too
            raise InvalidInput("well depth and width must be positive")


@dataclass(frozen=True)
class PotentialSpec:
    """V(x) = v_inf_level - sum_j depth_j * exp(-|x - center_j|^2 / width_j)."""

    v_inf_level: float
    wells: tuple

    def __post_init__(self):
        object.__setattr__(self, "wells", tuple(self.wells))
        if not self.wells:
            raise InvalidInput("at least one well is required")
        d = len(self.wells[0].center)
        if any(len(w.center) != d for w in self.wells):
            raise InvalidInput("all well centers must share one dimension")
        if not self.v_inf_level > 0:
            raise InvalidInput(f"v_inf_level must be positive, got {self.v_inf_level}")

    @property
    def d(self) -> int:
        return len(self.wells[0].center)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """V at an (m, d) array of points (or a scalar point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.evaluate_on_coords(tuple(pts.T))

    def evaluate_on_coords(self, coords, scale: float = 1.0) -> np.ndarray:
        """V(scale * x) on coordinate arrays (one per axis) that broadcast
        together, such as Grid.coords or the columns of a point array; the
        result has the broadcast shape."""
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        out = np.full(shape, self.v_inf_level)
        for w in self.wells:
            r2 = np.zeros(shape)
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
    if not eps > 0:
        raise InvalidInput(f"eps must be positive, got {eps}")
    if spec.d != grid.d:
        raise InvalidInput(f"potential dimension {spec.d} != grid dimension {grid.d}")
    vals = spec.evaluate_on_coords(grid.coords, scale=eps)
    if not np.min(vals) > 0.0:  # a NaN sample fails too
        raise NonpositivePotential(
            f"sampled potential attains min {np.min(vals):.6g}, which is not positive"
        )
    return Field(grid, vals)


@dataclass
class PotentialReport:
    v0: float
    v_inf_proxy: float
    pass_v1: bool
    pass_v2: bool
    messages: list = field(default_factory=list)


# (V1) margin, as a fraction of V_inf - V0, and (V2) tolerance, as a
# fraction of the deepest well's depth
_V1_MARGIN_FRAC = 0.1
_V2_ACHIEVE_FRAC = 0.01


def validate_potential(spec: PotentialSpec, grid: Grid) -> PotentialReport:
    """Check (V1) and (V2) on grid samples.

    V0 is the grid minimum; the liminf at infinity is proxied by the minimum
    over the boundary shell {|x|_inf >= 0.9 R}, which must exceed V0 by
    _V1_MARGIN_FRAC (V_inf - V0). (V2) passes when every declared center
    achieves V0 within _V2_ACHIEVE_FRAC of the deepest well's depth and is
    a strict minimum within its own well radius.
    """
    vals = spec.evaluate_on_coords(grid.coords).ravel()
    v0 = float(np.min(vals))
    v_inf_proxy = float(np.min(vals[grid.boundary_shell()]))
    margin = _V1_MARGIN_FRAC * max(spec.v_inf_level - v0, 0.0)
    pass_v1 = (v0 > 0.0) and (v_inf_proxy > v0 + margin)

    msgs = []
    if v0 <= 0.0:
        msgs.append(f"(V1) fail: grid minimum {v0:.6g} <= 0")
    if v_inf_proxy <= v0 + margin:
        msgs.append(
            f"(V1) fail: boundary-shell minimum {v_inf_proxy:.6g} is not above "
            f"V0 + margin = {v0 + margin:.6g}"
        )

    achieve_tol = _V2_ACHIEVE_FRAC * max(w.depth for w in spec.wells)
    centers = spec.center_values()
    pass_v2 = True
    for w, vc in zip(spec.wells, centers):
        achieves = bool(abs(vc - v0) <= achieve_tol)
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
        pass_v2 = pass_v2 and achieves and strict
        if not achieves:
            msgs.append(
                f"(V2) fail: well at {w.center} attains {vc:.6g}, global "
                f"minimum is {v0:.6g}"
            )
        if not strict:
            msgs.append(f"(V2) fail: well at {w.center} is not a strict minimum")
    return PotentialReport(v0, v_inf_proxy, pass_v1, pass_v2, msgs)


# --------------------------------------------------------------------------
# nonlinearities
# --------------------------------------------------------------------------


class Ray(NamedTuple):
    """Flat samples of a ray t -> t v, prepared for the Nehari passes:
    a = v+^2 and a scratch array r of v's size, allocated once per ray
    (variational._ray builds it). Saturable passes read only a and r,
    overwrite r in place and leave a unchanged; custom laws also read v,
    which is None for the saturable law."""

    v: Optional[np.ndarray]
    a: np.ndarray
    r: np.ndarray


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
        if not q > 2:
            raise InvalidInput(f"growth exponent q must exceed 2, got {q}")
        # l0 may be inf (an unbounded declared slope), so only NaN is refused
        if math.isnan(self.l0) or math.isnan(self.C0):
            raise InvalidInput(f"l0 and C0 must be numbers, got {l0} and {C0}")

    @classmethod
    def saturable(cls, s: float, q: float = 2.5):
        if not s > 0:
            raise InvalidInput(f"saturation parameter must be positive, got {s}")
        # C0 = sup |f'| = 9/(8s), attained at s*t^2 = 3
        return cls("saturable", l0=1.0 / s, q=q, C0=9.0 / (8.0 * s), s=float(s))

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

    def _nehari_floor(self, ray: Ray, nsq: float, w: float, pos_mass: float) -> float:
        """A lower bound of the root tau of nsq = w psi(tau) on ray, where
        pos_mass = sum v+^2; 0 when none is known (custom laws).

        For the saturable law psi(tau) = sum (a/s) phi(s tau a) with the
        concave phi(x) = x/(1+x), so psi(tau) <= B phi(tau A/B) by Jensen's
        inequality, with B = sum a/s and A = sum a^2, and the root is at
        least the root of that bound. m < 1 when the ray meets the Nehari
        manifold, but for rounding.
        """
        if self.kind != "saturable":
            return 0.0
        m = nsq * self.s / (w * pos_mass)
        if not m < 1.0:
            return 0.0
        return (nsq / w) / (float(np.dot(ray.a, ray.a)) * (1.0 - m))

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


@dataclass
class NonlinearityReport:
    pass_f1: bool
    pass_f2: bool
    pass_f3: bool
    pass_f4: bool
    pass_f5: bool
    horizon: float
    messages: list = field(default_factory=list)


# (f1)-(f5) are sampled at 400 log-spaced t in [1e-3, _HORIZON]
_HORIZON = 1e3


def validate_nonlinearity(spec: NonlinearitySpec, sup_v: Optional[float] = None) -> NonlinearityReport:
    """Sampled checks of (f1)-(f5) on (0, _HORIZON].

    (f5) cannot be certified at infinity: we certify monotone growth up to
    the horizon (last value at least 10x the value at t ~ 1) and record the
    horizon in the report. When sup_v is given, (f3) additionally requires
    l0 > sup_v.
    """
    t = np.geomspace(1e-3, _HORIZON, 400)
    f, fp, big = spec.triple(t)
    msgs = []

    rate = f / t
    zero_at_neg = not np.any(spec.triple(np.array([-1.0])))
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
    if finite_l0 and not above_v:
        msgs.append(f"(f3) fail: l0 = {spec.l0:.6g} <= sup V = {sup_v:.6g}")

    pass_f4 = bool(np.all(np.diff(rate) > 0))
    if not pass_f4:
        msgs.append("(f4) fail: f(t)/t is not strictly increasing on samples")

    fbar = 0.5 * f * t - big
    ref = fbar[np.searchsorted(t, 1.0, side="left")]
    growing = bool(np.all(np.diff(fbar) >= -1e-12 * np.max(np.abs(fbar))))
    unbounded = bool(fbar[-1] >= 10.0 * max(ref, 0.0)) and fbar[-1] > 0
    pass_f5 = growing and unbounded
    if not growing:
        msgs.append("(f5) fail: f(t)t/2 - F(t) is not nondecreasing on samples")
    if not unbounded:
        msgs.append("(f5) fail: f(t)t/2 - F(t) shows no growth up to the horizon")

    return NonlinearityReport(
        pass_f1, pass_f2, pass_f3, pass_f4, pass_f5, _HORIZON, msgs
    )
