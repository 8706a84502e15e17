"""Quantitative checks of concentration, profile convergence, tail decay,
and ground-state selection on solver output."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    GridMismatch,
    InvalidInput,
    NoInteriorSolutions,
    NonpositiveTail,
    WindowTooSmall,
    ZeroField,
)
from .grid import Field, gagliardo_sq, resample_field
from .localization import BranchResult
from .models import PotentialSpec


def locate_max(u: Field) -> np.ndarray:
    """Grid point of the maximal value; ties break to the lexicographically
    smallest index."""
    if not np.any(u.values):
        raise ZeroField("zero field has no maximum point")
    idx = np.unravel_index(int(np.argmax(u.values)), u.grid.shape)
    return np.array([u.grid.axis[i] for i in idx])


def _argmax_index(u: Field):
    return np.unravel_index(int(np.argmax(u.values)), u.grid.shape)


def _recentred(u: Field, index) -> np.ndarray:
    """Roll the shaped values so the given index lands on the center cell."""
    n = u.grid.n
    shifts = [n // 2 - int(i) for i in np.atleast_1d(index)]
    return np.roll(u.shaped, shifts, axis=tuple(range(u.grid.d)))


def profile_error(u: Field, w_limit: Field, eta, alpha: float) -> float:
    """Discrete H^alpha distance between u recentred at eta and the limit
    profile recentred at its own maximum, on u's grid."""
    gu, gw = u.grid, w_limit.grid
    if gu.d != gw.d:
        raise GridMismatch("profile comparison needs equal dimensions")
    if abs(gu.h - gw.h) > 1e-12 * max(gu.h, gw.h):
        raise GridMismatch("incommensurate grids: unequal spacings")
    u_cent = Field(gu, _recentred(u, gu.index_of(eta)))
    w_cent = Field(gw, _recentred(w_limit, _argmax_index(w_limit)))
    w_on_u = resample_field(w_cent, gu)
    diff = Field(gu, u_cent.values - w_on_u.values)
    return math.sqrt(
        gagliardo_sq(diff, alpha) + gu.weight * float(np.dot(diff.values, diff.values))
    )


class DecayFit(NamedTuple):
    exponent: float
    r2: float


def decay_fit(
    u: Field,
    eta,
    window: Sequence[float],
    n_shells: int = 16,
) -> DecayFit:
    """Least-squares slope of log u against log |x - eta| over radial shells.

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
    if n_shells < 8:
        raise WindowTooSmall(f"need at least 8 shells, got {n_shells}")
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    r2sum = np.zeros(g.shape)
    for c, e in zip(g.coords, eta):
        delta = np.abs(c - e)
        delta = np.minimum(delta, 2.0 * g.R - delta)  # periodic min-image
        r2sum += delta * delta
    r = np.sqrt(r2sum).ravel()
    mask = (r >= r_lo) & (r <= r_hi)
    vals = u.values[mask]
    if vals.size == 0:
        raise WindowTooSmall("window contains no grid points")
    if np.min(vals) <= 0:
        raise NonpositiveTail("field is not strictly positive on the window")
    rw = r[mask]
    edges = np.linspace(r_lo, r_hi, n_shells + 1)
    which = np.clip(np.searchsorted(edges, rw, side="right") - 1, 0, n_shells - 1)
    logr, logu = [], []
    for s in range(n_shells):
        sel = which == s
        if not np.any(sel):
            continue
        logr.append(math.log(float(np.mean(rw[sel]))))
        logu.append(math.log(float(np.mean(vals[sel]))))
    if len(logr) < 8:
        raise WindowTooSmall(f"only {len(logr)} populated shells, need 8")
    logr = np.array(logr)
    logu = np.array(logu)
    slope, intercept = np.polyfit(logr, logu, 1)
    fitted = slope * logr + intercept
    ss_res = float(np.sum((logu - fitted) ** 2))
    ss_tot = float(np.sum((logu - np.mean(logu)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(float(slope), r2)


NEHARI_MEMBERSHIP_TOL = 1e-6


def sigma_membership(result, c_v0: float, omega: float, j_tol: float = NEHARI_MEMBERSHIP_TOL) -> bool:
    """True iff the result sits on the Nehari manifold (|J| small) with
    energy at most c_V0 + omega."""
    if omega <= 0:
        raise InvalidInput(f"omega must be positive, got {omega}")
    rep = result.report
    on_manifold = abs(rep.nehari_residual) <= j_tol * rep.norm_eps_sq
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


def boundary_mass_fraction(u: Field) -> float:
    """L2 mass fraction in the outer 10% shell {|x|_inf >= 0.9 R}."""
    g = u.grid
    sup_abs = np.max(np.abs(np.stack([c.ravel() for c in g.coords])), axis=0)
    shell = sup_abs >= 0.9 * g.R
    total = float(np.dot(u.values, u.values))
    if total == 0.0:
        raise ZeroField("boundary mass of the zero field is undefined")
    return float(np.dot(u.values[shell], u.values[shell])) / total


@dataclass
class BranchDiagnostics:
    max_point: np.ndarray
    v_at_max: float
    profile_err: float
    decay_exponent: Optional[float]
    decay_r2: Optional[float]
    boundary_mass: float


@dataclass
class SweepRecord:
    eps: float
    branches: list
    diagnostics: list
    c_eps: float
    c_v0: float
    v0: float
    omega: float
    sigma_members: list = dfield(default_factory=list)
    w_limit: Optional[Field] = None

    @property
    def trusted(self) -> bool:
        return all(d.boundary_mass < BOUNDARY_MASS_TRUSTED for d in self.diagnostics)

    def min_branch_index(self) -> int:
        energies = [b.alpha_energy for b in self.branches]
        return int(np.argmin(energies))


def build_sweep_record(
    eps: float,
    problem,
    experiment,
    w_limit: Field,
    c_v0: float,
    potential: PotentialSpec,
    v0: float,
    decay_window_frac=(0.2, 0.35),
) -> SweepRecord:
    """Attach per-branch diagnostics to a branch experiment for one epsilon.

    omega(eps) = sqrt(eps) * c_V0 defines the low-energy set used for the
    sigma membership column.
    """
    diags = []
    omega = math.sqrt(eps) * c_v0
    R = problem.grid.R
    for br in experiment.branches:
        u = br.result.u
        eta = locate_max(u)
        v_at_max = float(potential.evaluate(eps * eta)[0])
        perr = profile_error(u, w_limit, eta, problem.alpha)
        window = (decay_window_frac[0] * R, decay_window_frac[1] * R)
        try:
            fit = decay_fit(u, eta, window)
            dexp, dr2 = fit.exponent, fit.r2
        except (WindowTooSmall, NonpositiveTail):
            dexp, dr2 = None, None
        diags.append(
            BranchDiagnostics(
                max_point=eta,
                v_at_max=v_at_max,
                profile_err=perr,
                decay_exponent=dexp,
                decay_r2=dr2,
                boundary_mass=boundary_mass_fraction(u),
            )
        )
    c_eps = min(b.alpha_energy for b in experiment.branches)
    sigma = [
        b.j
        for b in experiment.branches
        if sigma_membership(b.result, c_v0, omega)
    ]
    return SweepRecord(
        eps=float(eps),
        branches=experiment.branches,
        diagnostics=diags,
        c_eps=c_eps,
        c_v0=c_v0,
        v0=v0,
        omega=omega,
        sigma_members=sigma,
        w_limit=w_limit,
    )


def concentration_row(
    *,
    eps: float,
    c_eps: float,
    c_v0: float,
    v_at_max: float,
    v0: float,
    profile_err: float,
    decay_exponent: Optional[float],
    trusted: bool,
) -> dict:
    """One row of the concentration table, from the minimum-energy branch
    of one epsilon."""
    return {
        "eps": eps,
        "c_gap": c_eps - c_v0,
        "v_gap": v_at_max - v0,
        "profile_error": profile_err,
        "decay_exponent": decay_exponent,
        "trusted": trusted,
    }


def concentration_table(rows: Sequence[dict]) -> dict:
    """Rows in epsilon order plus flags telling whether the energy gap, the
    potential gap and the profile error decrease strictly along them (no
    flags for fewer than two rows)."""
    rows = list(rows)
    flags = {}
    if len(rows) >= 2:
        for key in ("c_gap", "v_gap", "profile_error"):
            vals = [r[key] for r in rows]
            flags[f"{key}_decreasing"] = all(b < a for a, b in zip(vals, vals[1:]))
    return {"rows": rows, "flags": flags}


def concentration_report(records: Sequence[SweepRecord], c_v0: float, v0: float) -> dict:
    """Per-epsilon gap table with monotone-trend flags.

    Each row uses the minimum-energy branch of its record; rows whose
    boundary mass exceeds the trusted threshold are marked untrusted.
    """
    rows = []
    for rec in records:
        diag = rec.diagnostics[rec.min_branch_index()]
        rows.append(
            concentration_row(
                eps=rec.eps, c_eps=rec.c_eps, c_v0=c_v0, v_at_max=diag.v_at_max, v0=v0,
                profile_err=diag.profile_err, decay_exponent=diag.decay_exponent,
                trusted=rec.trusted,
            )
        )
    return concentration_table(rows)
