"""Pure-numpy implementations of the saturable-nonlinearity kernels.

Semantically identical to the compiled versions in ``_sat_cy.pyx``; used as
the import-time fallback and for cross-checking the extension.
``nehari_rate_pair`` (the Newton pass of the Nehari projection) and
``saturable_f`` (f alone, for the gradient) have no compiled twins and always
run here.
"""

import numpy as np


def saturable_triple(t, s):
    t = np.asarray(t, dtype=float)
    tp = np.where(t > 0.0, t, 0.0)
    t2 = tp * tp
    den = 1.0 + s * t2
    f = tp * t2 / den
    fp = t2 * (3.0 + s * t2) / (den * den)
    big_f = t2 / (2.0 * s) - np.log(den) / (2.0 * s * s)
    return f, fp, big_f


def saturable_f(t, s):
    """f of saturable_triple, by the same operations, without f' and F."""
    t = np.asarray(t, dtype=float)
    tp = np.where(t > 0.0, t, 0.0)
    t2 = tp * tp
    return tp * t2 / (1.0 + s * t2)


def nehari_rate_sum(u, t, s):
    tu = t * np.where(u > 0.0, u, 0.0)
    tu2 = tu * tu
    return float(np.sum(tu * tu2 / (1.0 + s * tu2) * u)) / t


def nehari_rate_pair(u, tau, s):
    up = np.where(u > 0.0, u, 0.0)
    u2 = up * up
    den = 1.0 + (s * tau) * u2
    q = u2 * u2 / den
    return tau * float(np.sum(q)), float(np.sum(q / den))


def energy_sums(u, v, s):
    u2 = u * u
    pot = float(np.dot(v, u2))
    up2 = np.where(u > 0.0, u2, 0.0)
    den = 1.0 + s * up2
    fint = float(np.sum(up2 / (2.0 * s) - np.log(den) / (2.0 * s * s)))
    fu = float(np.sum(up2 * up2 / den))
    return pot, fint, fu


def negative_sq_sum(u):
    un = np.where(u < 0.0, u, 0.0)
    return float(np.dot(un, un))
