"""Localization machinery for the multi-well branch experiment.

Hypercube families around the declared potential minima define branch sets:
a solution belongs to branch j when it is nonnegative and its truncated
barycenter lies in the box around the j-th minimum (rescaled by 1/eps).
Branch solves are seeded with cut-off translates of the limit ground state;
boundary-seeded ray projections provide the probe estimate of the boundary
energy floor that separates branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BoundaryNotSeparating,
    InvalidInput,
    NotInTheta,
    OverlappingBoxes,
    SeedNotInTheta,
    ZeroField,
)
from . import _kernels
from .grid import Field, _translate, resample_field
from .models import PotentialSpec
from .solver import SolveOptions, SolveResult, solve_constrained
from .variational import Problem, project_to_nehari


@dataclass(frozen=True)
class BoxFamily:
    """k disjoint closed hypercubes of half-side l inside (-L, L)^d."""

    centers: tuple
    l: float
    L: float
    nu: float

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def d(self) -> int:
        return len(self.centers[0])


@dataclass(frozen=True)
class BranchLabel:
    kind: str  # "interior" | "boundary" | "outside"
    j: Optional[int] = None  # 1-based branch index, None for outside


# the potential must rise this fraction of V_inf - V0 above the well level
# on every box boundary, sampled at this many ticks per face and axis
_BOX_MARGIN_FRAC = 0.02
_SAMPLES_PER_FACE = 5


def build_boxes(spec: PotentialSpec, l: float, L: float, nu: Optional[float] = None) -> BoxFamily:
    """Validated hypercube family around the declared well centers.

    Checks pairwise disjointness of the closed boxes, containment in
    (-L, L)^d, the 2l <= L constraint, and that the potential rises above
    V0 + _BOX_MARGIN_FRAC (V_inf - V0) on every sampled box boundary.
    nu, the classification band, defaults to l/10 and must be nonnegative.
    """
    if not (l > 0 and L > 0):
        raise InvalidInput("box sizes l and L must be positive")
    if 2.0 * l > L:
        raise InvalidInput(f"need 2l <= L, got l={l}, L={L}")
    if nu is None:
        nu = 0.1 * l
    if not nu >= 0:
        raise InvalidInput(f"classification band nu must be nonnegative, got {nu}")
    centers = tuple(np.asarray(w.center, dtype=float) for w in spec.wells)
    d = spec.d
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if np.max(np.abs(centers[i] - centers[j])) <= 2.0 * l:
                raise OverlappingBoxes(
                    f"closed boxes around wells {i + 1} and {j + 1} intersect"
                )
    for i, c in enumerate(centers):
        if np.max(np.abs(c)) + l >= L:
            raise InvalidInput(
                f"box around well {i + 1} is not contained in (-{L}, {L})^{d}"
            )

    v0 = spec.v0_proxy
    margin = _BOX_MARGIN_FRAC * max(spec.v_inf_level - v0, 0.0)
    # the tick lattice of [-l, l]^d and its surface, the points with a
    # coordinate at +-l
    ticks = np.linspace(-l, l, _SAMPLES_PER_FACE)
    lattice = np.stack(np.meshgrid(*[ticks] * d, indexing="ij"), axis=-1).reshape(-1, d)
    surface = lattice[np.max(np.abs(lattice), axis=1) == l]
    center_vals = spec.center_values()
    for i, c in enumerate(centers):
        vals = spec.evaluate(c + surface)
        if np.min(vals) <= max(center_vals[i], v0) + margin:
            raise BoundaryNotSeparating(
                f"potential does not rise above the well level on the boundary "
                f"of box {i + 1} (min {np.min(vals):.6g})"
            )
    return BoxFamily(tuple(tuple(c) for c in centers), float(l), float(L), float(nu))


# --------------------------------------------------------------------------
# seed fields and barycenter maps
# --------------------------------------------------------------------------


def _cutoff(r: np.ndarray) -> np.ndarray:
    """C1 non-increasing cutoff: 1 on [0, 1/2], 0 on [1, inf), cubic blend."""
    tau = np.clip(2.0 * (r - 0.5), 0.0, 1.0)
    return 1.0 - tau * tau * (3.0 - 2.0 * tau)


def seed_field(w_limit: Field, y, problem: Problem) -> Field:
    """Cut-off translate of the limit state centered at y/eps:
    psi(x) = eta(|eps x - y|) * w(x - y/eps), the translate taken exactly,
    by any fraction of a cell, as a spectral phase shift. The seed is not
    tested for the restricted set here: the Nehari projection that every
    seed goes through rejects it (NotInTheta) when eps is too large for
    this box.

    The cut-off is built in place, in _cutoff's order of operations, so
    the seed equals vals * _cutoff(sqrt(r2)) bit for bit while holding two
    arrays beside the translate."""
    g = problem.grid
    eps = problem.eps
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (g.d,) or not np.all(np.isfinite(y)):
        raise InvalidInput(f"seed center {y} must be a finite point in {g.d} dimensions")
    vals = _translate(resample_field(w_limit, g), y / eps).shaped
    tau = np.zeros(g.shape)
    for c, yi in zip(g.coords, y):
        tau += (eps * c - yi) ** 2
    np.sqrt(tau, out=tau)
    tau -= 0.5
    tau *= 2.0
    np.clip(tau, 0.0, 1.0, out=tau)
    eta = tau * tau
    tau *= 2.0
    np.subtract(3.0, tau, out=tau)
    eta *= tau
    np.subtract(1.0, eta, out=eta)
    vals *= eta
    return Field(g, vals)


def truncated_coordinate(t, eps: float, L: float):
    """Coordinate clamp to [-2L/eps, 2L/eps]."""
    if not (eps > 0 and L > 0):
        raise InvalidInput("eps and L must be positive")
    bound = 2.0 * L / eps
    return np.clip(t, -bound, bound)


def barycenter_h(u: Field, eps: float, L: float) -> np.ndarray:
    """Truncated-coordinate barycenter with weight |u|^2 per component."""
    weight = np.abs(u.shaped) ** 2.0
    total = float(np.sum(weight))
    if total == 0.0:
        raise ZeroField("barycenter of the zero field is undefined")
    out = np.empty(u.grid.d)
    for i, c in enumerate(u.grid.coords):
        out[i] = float(np.sum(truncated_coordinate(c, eps, L) * weight)) / total
    return out


NEGATIVITY_TOL = 1e-6


def classify(u: Field, boxes: BoxFamily, eps: float) -> BranchLabel:
    """Branch label from the barycenter: interior/boundary of the rescaled
    box within margin boxes.nu/eps, outside otherwise. Negative mass beyond
    tolerance forces outside."""
    return _label(u, barycenter_h(u, eps, boxes.L), boxes, eps)


def _label(u: Field, hb: np.ndarray, boxes: BoxFamily, eps: float) -> BranchLabel:
    """classify, given the truncated barycenter hb of u (whose computation
    has already rejected the zero field)."""
    mass = float(np.dot(u.values, u.values))
    if _kernels.negative_sq_sum(u.values) > NEGATIVITY_TOL * mass:
        return BranchLabel("outside")
    dists = [
        np.max(np.abs(hb - np.asarray(c) / eps)) for c in boxes.centers
    ]
    j = int(np.argmin(dists))
    half = boxes.l / eps
    band = boxes.nu / eps
    if dists[j] < half - band:
        return BranchLabel("interior", j + 1)
    if dists[j] <= half + band:
        return BranchLabel("boundary", j + 1)
    return BranchLabel("outside")


# --------------------------------------------------------------------------
# branch experiment
# --------------------------------------------------------------------------


@dataclass
class BranchResult:
    j: int
    result: SolveResult
    label: BranchLabel
    alpha_energy: float
    alpha_bar: Optional[float]
    barycenter: np.ndarray
    center: tuple
    eps: float
    l: float


@dataclass
class BranchExperiment:
    branches: list
    distinct: bool
    pairwise_distance: np.ndarray


def _probe_alpha_bar(p: Problem, boxes: BoxFamily, w_limit: Field, center) -> Optional[float]:
    """Boundary energy floor estimate: minimum Nehari-projected energy over
    cut-off translates seeded on the box boundary (centers at a^j +- l e_i).

    Probes stay on the boundary branch set by construction, so each one is
    an upper bound of the boundary infimum; descent would migrate off the
    boundary and is deliberately not applied. A probe whose ray misses the
    manifold (NotInTheta) is skipped.
    """
    energies = []
    for axis in range(boxes.d):
        for sgn in (-1.0, 1.0):
            y = np.array(center, dtype=float)
            y[axis] += sgn * boxes.l
            try:
                psi = seed_field(w_limit, y, p)
                rep = project_to_nehari(p, psi).report
            except (NotInTheta, ZeroField):
                continue
            energies.append(rep.total)
    return min(energies) if energies else None


def solve_branch(
    p: Problem,
    boxes: BoxFamily,
    w_limit: Field,
    j: int,
    opts: Optional[SolveOptions] = None,
) -> BranchResult:
    """The constrained solve of branch j (1-based), seeded at its well
    center, with its label, truncated barycenter and boundary probe floor.
    Raises InvalidInput for j outside 1..k, and SeedNotInTheta, naming the
    branch and eps, when the seed lies outside the restricted set (eps too
    large for the box)."""
    if not 1 <= j <= boxes.k:
        raise InvalidInput(f"branch index j must be in 1..{boxes.k}, got {j}")
    center = boxes.centers[j - 1]
    try:
        # no name keeps the seed, so the solve frees it once it is projected
        res = solve_constrained(p, seed_field(w_limit, center, p), opts)
    except SeedNotInTheta as exc:
        raise SeedNotInTheta(f"branch {j} at eps={p.eps}: {exc}") from exc
    hb = barycenter_h(res.u, p.eps, boxes.L)
    return BranchResult(
        j=j,
        result=res,
        label=_label(res.u, hb, boxes, p.eps),
        alpha_energy=res.energy,
        alpha_bar=_probe_alpha_bar(p, boxes, w_limit, center),
        barycenter=hb,
        center=tuple(center),
        eps=p.eps,
        l=boxes.l,
    )


def solve_branches(
    p: Problem,
    boxes: BoxFamily,
    w_limit: Field,
    opts: Optional[SolveOptions] = None,
) -> BranchExperiment:
    """One solve_branch per well. A branch that escapes its box keeps its
    label (not interior) and the run continues."""
    branches = [solve_branch(p, boxes, w_limit, j, opts) for j in range(1, boxes.k + 1)]

    k = len(branches)
    dist = np.zeros((k, k))
    w = p.grid.weight
    for i in range(k):
        for j in range(i + 1, k):
            ui = branches[i].result.u.values
            uj = branches[j].result.u.values
            gap = ui - uj
            diff = math.sqrt(w * float(np.dot(gap, gap)))
            mean = 0.5 * (
                math.sqrt(w * float(np.dot(ui, ui)))
                + math.sqrt(w * float(np.dot(uj, uj)))
            )
            dist[i, j] = dist[j, i] = diff / mean
    labels = [b.label for b in branches]
    interior_js = [lb.j for lb in labels if lb.kind == "interior"]
    distinct = (
        len(interior_js) == k
        and len(set(interior_js)) == k
        and (k < 2 or float(np.min(dist[np.triu_indices(k, 1)])) > 0.1)
    )
    return BranchExperiment(branches, distinct, dist)
