"""Kernel backend selection.

Tries the compiled extension first and falls back to numpy. Set
``FRACSTATES_PURE=1`` to force the fallback (used by the benchmark and the
parity tests).
"""

import os

import numpy as np

from . import _numpy

try:
    from . import _sat_cy
except ImportError:  # extension not built
    _sat_cy = None

_FORCE_PURE = os.environ.get("FRACSTATES_PURE", "0") not in ("", "0")
_COMPILED = _sat_cy is not None and not _FORCE_PURE


def backend():
    return "compiled" if _COMPILED else "python"


def have_compiled():
    return _sat_cy is not None


def _flat(a):
    return np.ascontiguousarray(a, dtype=np.float64).ravel()


def saturable_triple(t, s):
    """(f(t), f'(t), F(t)) elementwise for the saturable nonlinearity."""
    if _COMPILED:
        tf = _flat(t)
        f = np.empty_like(tf)
        fp = np.empty_like(tf)
        big_f = np.empty_like(tf)
        _sat_cy.saturable_triple(tf, float(s), f, fp, big_f)
        shape = np.shape(t)
        return f.reshape(shape), fp.reshape(shape), big_f.reshape(shape)
    return _numpy.saturable_triple(t, s)


def saturable_f(t, s):
    """f(t) elementwise for the saturable nonlinearity, without f' and F."""
    return _numpy.saturable_f(t, s)


def nehari_rate_sum(u, t, s):
    """sum f(t*u)*u / t over the flat samples."""
    if _COMPILED:
        return _sat_cy.nehari_rate_sum(_flat(u), float(t), float(s))
    return _numpy.nehari_rate_sum(np.asarray(u, dtype=float).ravel(), t, s)


def nehari_rate_pair(u, tau, s):
    """(psi, psi') of psi(tau) = sum f(sqrt(tau)*u)*u / sqrt(tau), that is
    (tau * sum q, sum q/den) with den = 1 + s*tau*u+^2 and q = u+^4/den."""
    a = np.maximum(np.asarray(u, dtype=float).ravel(), 0.0)
    a *= a
    return _numpy.nehari_pass(a, np.empty_like(a), tau, s)


def nehari_pass(a, r, tau, s):
    """nehari_rate_pair from a = u+^2, in place: writes a/den into r, which
    has a's size."""
    return _numpy.nehari_pass(a, r, tau, s)


def nehari_final(a, r, tau, s):
    """(psi(tau), sum F(sqrt(tau)*u)) from a = u+^2, overwriting r."""
    return _numpy.nehari_final(a, r, tau, s)


def energy_sums(u, v, s):
    """(sum v*u^2, sum F(u), sum f(u)*u) over the flat samples."""
    if _COMPILED:
        return _sat_cy.energy_sums(_flat(u), _flat(v), float(s))
    return _numpy.energy_sums(
        np.asarray(u, dtype=float).ravel(), np.asarray(v, dtype=float).ravel(), s
    )


def negative_sq_sum(u):
    """sum of u^2 over the strictly negative samples."""
    if _COMPILED:
        return _sat_cy.negative_sq_sum(_flat(u))
    return _numpy.negative_sq_sum(np.asarray(u, dtype=float).ravel())
