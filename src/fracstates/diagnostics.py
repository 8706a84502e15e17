"""Quantitative checks of concentration, profile convergence, tail decay,
and ground-state selection on solver output, and the records.json payload
and concentration table built from them."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dfield
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InvalidInput,
    NoInteriorSolutions,
    NonpositiveTail,
    WindowTooSmall,
    ZeroField,
)
from .grid import Field, gagliardo_sq, locate_max, resample_field
from .localization import BranchResult
from .models import PotentialSpec


def _recentred(u: Field, index) -> np.ndarray:
    """Roll the shaped values so the given index lands on the center cell."""
    n = u.grid.n
    shifts = [n // 2 - int(i) for i in np.atleast_1d(index)]
    return np.roll(u.shaped, shifts, axis=tuple(range(u.grid.d)))


def profile_error(u: Field, w_limit: Field, eta, alpha: float) -> float:
    """Discrete H^alpha distance between u recentred at eta and the limit
    profile recentred at its own maximum, on u's grid. Grids of unequal
    dimension or spacing raise GridMismatch (resample_field)."""
    gu, gw = u.grid, w_limit.grid
    u_cent = Field(gu, _recentred(u, gu.index_of(eta)))
    w_cent = Field(gw, _recentred(w_limit, gw.index_of(locate_max(w_limit))))
    w_on_u = resample_field(w_cent, gu)
    diff = Field(gu, u_cent.values - w_on_u.values)
    return math.sqrt(
        gagliardo_sq(diff, alpha) + gu.weight * float(np.dot(diff.values, diff.values))
    )


class DecayFit(NamedTuple):
    exponent: float
    r2: float
    slope: float


# The periodic tail model S_p(delta) = sum_k |delta + 2Rk|^p over k in Z^d is
# summed image by image for |k|_inf <= _NEAR_IMAGES. Beyond that, each image
# is expanded to second order in delta (the lattice's cubic symmetry makes the
# Hessian sum isotropic), which leaves delta-free lattice sums; those run
# explicitly up to |k|_inf = _LATTICE_CUTOFF and by the midpoint integral over
# the rest. S_p and |delta|^2 do not change when delta's signs flip or its
# axes are permuted, so the model is evaluated once per class of window
# points that share a shell and the sorted |delta| (exact equality), weighted
# by the class size. Its exponent is searched over the depth -(p + d): one
# batched scan of _SCAN_POINTS log-spaced depths, then Brent's method in the
# bracket around the best scan point, until that bracket is no wider than 30
# golden-section steps would leave it (a factor _REFINE_SHRINK).
_NEAR_IMAGES = 3
_LATTICE_CUTOFF = 32
_FACE_NODES = 16
_SCAN_POINTS = 24
_SCAN_DEPTH = (0.01, 20.0)  # searched range of -(p + d)
_REFINE_SHRINK = ((math.sqrt(5.0) - 1.0) / 2.0) ** 30
# a safeguard only: the refinement takes 7 or 8 steps, about 30 when the
# best scan point is the last one and the minimum sits at the bracket's end
_REFINE_STEPS = 60
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step of Brent's method
# the scan's temporaries hold at most one grid field, or this many elements
# (0.5 MB) on a smaller grid, so that a 1-D scan still runs in one batch
_CHUNK_FLOOR = 1 << 16


@functools.lru_cache(maxsize=3)
def _far_lattice(d: int):
    """Data for Z(q) = sum of |k|^q over integer k with |k|_inf > _NEAR_IMAGES:
    the distinct log|k|^2 with their multiplicities up to the cutoff, and
    Gauss-Legendre nodes (log(1 + |a|^2), weights) on a cube face [-1, 1]^(d-1).
    The face rule exists only for d >= 2: in 1-D the face is a point, whose
    data are the node 0.0 with weight 1.0, and no eigenproblem is solved.
    """
    axis = np.arange(-_LATTICE_CUTOFF, _LATTICE_CUTOFF + 1)
    ks = np.stack(np.meshgrid(*([axis] * d), indexing="ij")).reshape(d, -1)
    far = np.max(np.abs(ks), axis=0) > _NEAR_IMAGES
    mult = np.bincount(np.sum(ks[:, far] ** 2, axis=0))
    sq = np.flatnonzero(mult)
    x = w = np.empty(0)  # unused in 1-D: the meshgrids below are empty
    if d > 1:
        # Gauss-Legendre nodes and weights by Golub-Welsch (numpy.polynomial
        # would add about 0.4 MB of resident memory on import); the
        # eigenproblem, the package's only LAPACK call, adds about 0.8 MB
        # of peak resident memory (numpy 2.4, OpenBLAS 0.3.31, x86-64)
        j = np.arange(1, _FACE_NODES)
        off = j / np.sqrt(4.0 * j * j - 1.0)
        x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        w = 2.0 * vecs[0] ** 2
    face_sq = sum((a * a for a in np.meshgrid(*([x] * (d - 1)), indexing="ij")), np.zeros(1))
    face_w = np.prod(np.meshgrid(*([w] * (d - 1)), indexing="ij"), axis=0)  # 1.0 for d = 1
    return np.log(sq), mult[sq].astype(float), np.log(1.0 + np.ravel(face_sq)), np.ravel(face_w)


def _far_lattice_sum(d: int, q: np.ndarray) -> np.ndarray:
    """Z(q) at each q < -d of the 1-D array q. The lattice points beyond the
    cutoff M are the midpoints of unit cells tiling {|y|_inf > M + 1/2}, whose
    integral of |y|^q is
    (M + 1/2)^(q+d) * 2d/(-(q+d)) * int_{[-1,1]^(d-1)} (1 + |a|^2)^(q/2) da."""
    log_sq, mult, log_face, face_w = _far_lattice(d)
    half_q = 0.5 * q[:, None]
    explicit = np.exp(half_q * log_sq) @ mult
    face = np.exp(half_q * log_face) @ face_w
    return explicit + (_LATTICE_CUTOFF + 0.5) ** (q + d) * 2 * d / -(q + d) * face


def _image_shell_sums(delta: np.ndarray, which: np.ndarray, period: float, budget: int):
    """The image model summed over each populated shell: a function taking a
    1-D array of exponents p < -d to the array (len(p), shells) of
    sum_{points in shell} S_p(delta), for the window's per-axis distances
    delta >= 0 of shape (N, d) in the shells which.

    Each (shell, sorted delta) class is evaluated once and weighted by its
    size. The exponents go through in chunks whose largest temporary holds
    at most budget elements, or one exponent's worth where that alone is
    more (an eta off the grid leaves few points to merge).
    """
    d = delta.shape[1]
    keys = np.column_stack([which, np.sort(delta, axis=1)])
    keys = keys[np.lexsort(keys.T[::-1])]  # rows in order, equal rows adjacent
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    rows = keys[first]
    size = np.diff(np.append(np.flatnonzero(first), len(keys)))
    shells, shell_of = np.unique(rows[:, 0], return_inverse=True)
    to_shell = np.zeros((len(rows), len(shells)))  # class -> shell, by class size
    to_shell[np.arange(len(rows)), shell_of] = size
    delta = rows[:, 1:]
    # |delta + period k|^2 over the near images k, summed axis by axis
    sq = (delta[:, :, None] + period * np.arange(-_NEAR_IMAGES, _NEAR_IMAGES + 1)) ** 2
    dist_sq = sq[:, 0]
    for i in range(1, d):
        dist_sq = (dist_sq[:, :, None] + sq[:, i, None, :]).reshape(len(rows), -1)
    log_dist_sq = np.log(dist_sq)
    rho_sq = np.sum(delta * delta, axis=1) / period**2
    chunk = max(1, budget // max(log_dist_sq.size, 2 * _far_lattice(d)[0].size))

    def sums(p: np.ndarray) -> np.ndarray:
        out = np.empty((len(p), len(shells)))
        for start in range(0, len(p), chunk):
            pc = p[start:start + chunk]
            z = _far_lattice_sum(d, np.concatenate([pc, pc - 2.0]))
            hess = pc * (pc + d - 2) / (2 * d) * z[len(pc):]
            far = period ** pc[:, None] * (z[:len(pc), None] + hess[:, None] * rho_sq)
            near = np.exp(0.5 * pc[:, None, None] * log_dist_sq).sum(axis=2)
            out[start:start + chunk] = (near + far) @ to_shell
        return out

    return sums


def _brent_min(f, lo, mid, hi, tol: float):
    """(x, f(x)) at the minimum of f on [lo[0], hi[0]] by Brent's method:
    parabolic steps through the three best points, safeguarded by
    golden-section steps. lo, mid and hi are (x, f(x)) pairs with mid inside
    the bracket; the first step is the parabola through all three. Stops
    once the bracket is at most 4 tol wide (or after _REFINE_STEPS steps)."""
    (a, _), (x, fx), (b, _) = lo, mid, hi
    (w, fw), (v, fv) = lo, hi
    step = last = b - a
    for _ in range(_REFINE_STEPS):
        middle = 0.5 * (a + b)
        if abs(x - middle) <= 2.0 * tol - 0.5 * (b - a):
            break
        # the parabola through (v, w, x) has its vertex at x + p / q
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = (-p, q) if q > 0.0 else (p, -q)
        # take it when shorter than half the step before last and inside (a, b)
        if abs(last) > tol and abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
            last, step = step, p / q
            if min(x + step - a, b - x - step) < 2.0 * tol:
                step = math.copysign(tol, middle - x)
        else:
            last = (a - x) if x >= middle else (b - x)
            step = _CGOLD * last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _fit_image_sum(shell_sums, counts, logu, d):
    """Least-squares fit of log u_s = log C + log mean_s S_p over the shells,
    given shell_sums from _image_shell_sums and the points per shell.

    log C has a closed form for each p, so only p is searched: the scan,
    then Brent's method between the neighbours of the best scan point.
    Returns (p, residual sum of squares), or None when the best p lies at
    the convergence edge p -> -d, where the image sum stops being a model.
    """

    def ss(depth: np.ndarray) -> np.ndarray:
        resid = logu - np.log(shell_sums(-d - depth) / counts)
        resid -= resid.mean(axis=1, keepdims=True)
        return (resid * resid).sum(axis=1)

    scan = np.exp(np.linspace(*np.log(_SCAN_DEPTH), _SCAN_POINTS))
    values = ss(scan)
    best = int(np.argmin(values))
    if best == 0:
        return None

    def ss_at(depth: float) -> float:
        return float(ss(np.array([depth]))[0])

    top = min(best + 1, _SCAN_POINTS - 1)
    lo, hi = (scan[best - 1], values[best - 1]), (scan[top], values[top])
    mid = (scan[best], values[best])
    if best == top:  # the scan's last point is the bracket's end
        x = lo[0] + _CGOLD * (hi[0] - lo[0])
        mid = (x, ss_at(x))
    tol = 0.25 * _REFINE_SHRINK * (hi[0] - lo[0])
    depth, value = _brent_min(ss_at, lo, mid, hi, tol)
    return float(-d - depth), float(value)


# radial shells of the tail-fit window; a fit needs 8 of them populated
_N_SHELLS = 16


def _tail_window(u: Field, eta: np.ndarray, r_lo: float, r_hi: float):
    """The grid points at periodic distance r in [r_lo, r_hi] of eta: the
    values of u there, r, and the per-axis distances |x - eta| as (N, d).
    At most one grid-size array (r) is held besides the mask."""
    g = u.grid
    deltas = []
    for c, e in zip(g.coords, eta):
        delta = np.abs(c - e)
        deltas.append(np.minimum(delta, 2.0 * g.R - delta))  # periodic min-image
    r = sum(dl * dl for dl in deltas)
    np.sqrt(r, out=r)
    mask = (r >= r_lo) & (r <= r_hi)
    delta = np.stack([np.broadcast_to(dl, g.shape)[mask] for dl in deltas], axis=1)
    return u.shaped[mask], r[mask], delta


def decay_fit(
    u: Field,
    eta,
    window: Sequence[float],
) -> DecayFit:
    """Power-law exponent of the tail of u around eta, fitted in log-log
    coordinates over radial shells of |x - eta| inside the window.

    Two models with two parameters each are fitted to the shell means of u:

    * the plain power law, log u = log C + p log r, a straight line (closed
      form) whose slope is also reported as ``slope``;
    * the periodized power law u = C sum_{k in Z^d} |x - eta + 2Rk|^p for
      p < -d, which is what a decay like |x|^p becomes on the periodic box
      (its linear tail is the image sum of the free-space tail). The model
      is averaged per shell like the data. Sign flips and axis
      permutations of x - eta leave it unchanged, so it is evaluated once
      per class of window points that share a shell and the sorted
      |x - eta|, weighted by the class size. Its exponent is searched by
      one batched scan of log-spaced depths -(p + d), then refined by
      Brent's method.

    ``exponent`` and ``r2`` belong to the model with the smaller residual in
    log space; the periodized model is left out when its best scan point
    sits at the edge p -> -d, where the image sum does not converge. A tail
    that was never periodized keeps the plain fit.

    Shell averaging suppresses angular grid noise in d >= 2. The window must
    stay inside [0.2R, 0.5R], away from both the core and the wrap-around.
    """
    r_lo, r_hi = float(window[0]), float(window[1])
    g = u.grid
    if not (0.2 * g.R <= r_lo < r_hi <= 0.5 * g.R):
        raise InvalidInput(
            f"window [{r_lo}, {r_hi}] must lie inside [0.2R, 0.5R] = "
            f"[{0.2 * g.R}, {0.5 * g.R}]"
        )
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.shape != (g.d,) or not np.all(np.isfinite(eta)):
        raise InvalidInput(f"eta {eta} is not a finite point in {g.d} dimensions")
    vals, rw, delta = _tail_window(u, eta, r_lo, r_hi)
    if vals.size == 0:
        raise WindowTooSmall("window contains no grid points")
    if not np.min(vals) > 0:
        raise NonpositiveTail("field is not strictly positive on the window")
    edges = np.linspace(r_lo, r_hi, _N_SHELLS + 1)
    which = np.clip(np.searchsorted(edges, rw, side="right") - 1, 0, _N_SHELLS - 1)
    counts = np.bincount(which, minlength=_N_SHELLS)
    populated = counts > 0
    if np.count_nonzero(populated) < 8:
        raise WindowTooSmall(f"only {np.count_nonzero(populated)} populated shells, need 8")
    counts = counts[populated]
    logr = np.log(np.bincount(which, weights=rw, minlength=_N_SHELLS)[populated] / counts)
    logu = np.log(np.bincount(which, weights=vals, minlength=_N_SHELLS)[populated] / counts)
    x, y = logr - np.mean(logr), logu - np.mean(logu)
    slope = float(np.dot(x, y) / np.dot(x, x))
    resid = y - slope * x
    ss_plain = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y, y))
    shell_sums = _image_shell_sums(delta, which, 2.0 * g.R, max(g.size, _CHUNK_FLOOR))
    images = _fit_image_sum(shell_sums, counts, logu, g.d)
    exponent, ss_res = slope, ss_plain
    if images is not None and images[1] < ss_plain:
        exponent, ss_res = images
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(exponent, r2, slope)


NEHARI_MEMBERSHIP_TOL = 1e-6


def sigma_membership(result, c_v0: float, omega: float) -> bool:
    """True iff the result sits on the Nehari manifold (|J| at most
    NEHARI_MEMBERSHIP_TOL |u|^2_eps) with energy at most c_V0 + omega."""
    if not omega > 0:
        raise InvalidInput(f"omega must be positive, got {omega}")
    rep = result.report
    on_manifold = abs(rep.nehari_residual) <= NEHARI_MEMBERSHIP_TOL * rep.norm_eps_sq
    return bool(on_manifold and rep.total <= c_v0 + omega)


@dataclass
class GroundStateSelection:
    j: int
    branch: BranchResult
    gate_ok: bool


ENERGY_TIE_TOL = 1e-10


def select_ground_state(records: Sequence[BranchResult]) -> GroundStateSelection:
    """Minimum-energy converged interior branch; ties break to the smallest
    branch index so the selection is invariant under permutation of the
    input. gate_ok flags whether the barycenter lies within l/(2 eps) of the
    selected box center."""
    candidates = [
        b for b in records if b.label.kind == "interior" and b.result.converged
    ]
    if not candidates:
        raise NoInteriorSolutions("no converged interior branch to select from")
    best = None
    for b in sorted(candidates, key=lambda b: b.j):
        if best is None or b.alpha_energy < best.alpha_energy - ENERGY_TIE_TOL:
            best = b
    gate = np.linalg.norm(
        best.barycenter - np.asarray(best.center) / best.eps
    ) < best.l / (2.0 * best.eps)
    return GroundStateSelection(best.j, best, bool(gate))


# --------------------------------------------------------------------------
# sweep records and the concentration table
# --------------------------------------------------------------------------

BOUNDARY_MASS_TRUSTED = 1e-4
# radial window of the tail fit, as fractions of the grid half-width R
DECAY_WINDOW_FRAC = (0.2, 0.35)


def boundary_mass_fraction(u: Field) -> float:
    """L2 mass fraction in the outer 10% shell {|x|_inf >= 0.9 R}."""
    shell = u.grid.boundary_shell()
    total = float(np.dot(u.values, u.values))
    if total == 0.0:
        raise ZeroField("boundary mass of the zero field is undefined")
    return float(np.dot(u.values[shell], u.values[shell])) / total


@dataclass
class SweepRecord:
    """One epsilon of a sweep: the branch experiment's branches, their
    records.json entries (branch_record) in branch order, c_eps, the limit
    state's c_V0 and field w_limit, the well level v0, omega and the sigma
    members. trusted reads the entries' boundary masses."""

    eps: float
    branches: list
    entries: list
    c_eps: float
    c_v0: float
    v0: float
    omega: float
    sigma_members: list = dfield(default_factory=list)
    w_limit: Optional[Field] = None

    @property
    def trusted(self) -> bool:
        return all(e["boundary_mass"] < BOUNDARY_MASS_TRUSTED for e in self.entries)


def build_sweep_record(problem, experiment, limit, potential: PotentialSpec) -> SweepRecord:
    """The record of one epsilon (problem.eps): the branch experiment with
    each branch's records.json entry, given the limit ground state's
    SolveResult, whose field is the profile reference and w_limit and whose
    energy is c_V0. v0 is the potential's well level (v0_proxy).

    omega(eps) = sqrt(eps) * c_V0 defines the low-energy set used for the
    sigma membership column.
    """
    eps, w_limit, c_v0 = problem.eps, limit.u, limit.energy
    omega = math.sqrt(eps) * c_v0
    return SweepRecord(
        eps=float(eps),
        branches=experiment.branches,
        entries=[branch_record(b, problem, w_limit, potential) for b in experiment.branches],
        c_eps=min(b.alpha_energy for b in experiment.branches),
        c_v0=c_v0,
        v0=potential.v0_proxy,
        omega=omega,
        sigma_members=[
            b.j for b in experiment.branches if sigma_membership(b.result, c_v0, omega)
        ],
        w_limit=w_limit,
    )


RECORDS_SCHEMA = "fracstates-records-v1"


def branch_record(br: BranchResult, problem, w_limit: Field, potential: PotentialSpec) -> dict:
    """One branch of records.json: the solve, its label and barycenter, the
    potential value at its maximum point, its profile error against the
    limit state, its tail fit on the radii DECAY_WINDOW_FRAC times the grid
    half-width R (None when the window is unusable), and its boundary mass.
    `fracstates solve` writes the same entry."""
    res = br.result
    u, eta, R = res.u, np.asarray(res.max_point), problem.grid.R
    try:
        fit = decay_fit(u, eta, (DECAY_WINDOW_FRAC[0] * R, DECAY_WINDOW_FRAC[1] * R))
    except (WindowTooSmall, NonpositiveTail):
        fit = None
    return {
        "branch": br.j,
        "label": br.label.kind,
        "energy": br.alpha_energy,
        "alpha_bar": br.alpha_bar,
        "barycenter": [float(x) for x in br.barycenter],
        "max_point": [float(x) for x in res.max_point],
        "converged": bool(res.converged),
        "iterations": res.iterations,
        "residual": res.residual,
        "nehari_residual": res.report.nehari_residual,
        "negative_mass": res.negative_mass,
        "v_at_max": float(potential.evaluate(problem.eps * eta)[0]),
        "profile_error": profile_error(u, w_limit, eta, problem.alpha),
        "decay_exponent": None if fit is None else fit.exponent,
        "decay_r2": None if fit is None else fit.r2,
        "boundary_mass": boundary_mass_fraction(u),
    }


def records_payload(records: Sequence[SweepRecord]) -> dict:
    """The records.json payload of a sweep, one entry per epsilon."""
    return {
        "schema": RECORDS_SCHEMA,
        "c_v0": records[0].c_v0,
        "v0": records[0].v0,
        "records": [
            {
                "eps": rec.eps,
                "c_eps": rec.c_eps,
                "c_v0": rec.c_v0,
                "v0": rec.v0,
                "omega": rec.omega,
                "sigma_members": rec.sigma_members,
                "trusted": rec.trusted,
                "branches": rec.entries,
            }
            for rec in records
        ],
    }


def record_rows(rec: dict) -> list:
    """The summary.csv rows of one stored record, one per branch: its
    records.json entry plus the record's eps, c_eps, c_v0, sigma membership
    and trusted mark, and the gaps v_gap = v_at_max - v0 and
    c_gap = c_eps - c_v0."""
    return [
        dict(br, eps=rec["eps"], c_eps=rec["c_eps"], c_v0=rec["c_v0"],
             v_gap=br["v_at_max"] - rec["v0"], c_gap=rec["c_eps"] - rec["c_v0"],
             sigma_member=br["branch"] in rec["sigma_members"], trusted=rec["trusted"])
        for br in rec["branches"]
    ]


_CONCENTRATION_KEYS = ("eps", "c_gap", "v_gap", "profile_error", "decay_exponent", "trusted")


def concentration_table(stored: dict) -> dict:
    """Per-epsilon gap table of a records.json payload, with flags telling
    whether the energy gap, the potential gap and the profile error
    decrease strictly along it (no flags for fewer than two records).

    Each row holds the cells of its record's minimum-energy row
    (record_rows), the record's trusted mark among them.
    """
    rows = []
    for rec in stored["records"]:
        best = min(record_rows(rec), key=lambda row: row["energy"])
        rows.append({key: best[key] for key in _CONCENTRATION_KEYS})
    flags = {}
    if len(rows) >= 2:
        for key in ("c_gap", "v_gap", "profile_error"):
            vals = [r[key] for r in rows]
            flags[f"{key}_decreasing"] = all(b < a for a, b in zip(vals, vals[1:]))
    return {"rows": rows, "flags": flags}
