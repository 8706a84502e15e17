"""Pure-numpy implementations of the saturable-nonlinearity kernels.

Semantically identical to the compiled versions in ``_sat_cy.pyx``; used as
the import-time fallback and for cross-checking the extension.
``nehari_pass`` and ``nehari_final`` (the passes of the Nehari projection)
and ``saturable_f`` (f alone, for the gradient) have no compiled twins and
always run here. The projection's passes work in place on two arrays the
caller allocates once per projection, so a pass forms no temporary array.
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


def nehari_pass(a, r, tau, s):
    """(psi, psi') at tau from a = u+^2, writing a/den into r.

    psi = tau * sum q and psi' = sum q/den with den = 1 + s*tau*a and
    q = a^2/den; since q = a*r and q/den = r^2 for r = a/den, both are dot
    products of a and r.
    """
    np.multiply(a, s * tau, out=r)
    r += 1.0
    np.divide(a, r, out=r)
    return tau * float(np.dot(a, r)), float(np.dot(r, r))


def nehari_final(a, r, tau, s):
    """(psi(tau), sum F(sqrt(tau) u)) from a = u+^2, overwriting r.

    F(t u) = (x - log(1 + x)) / (2 s^2) with x = s*tau*a.
    """
    psi = nehari_pass(a, r, tau, s)[0]
    np.multiply(a, s * tau, out=r)
    x_sum = float(np.sum(r))
    np.log1p(r, out=r)
    return psi, (x_sum - float(np.sum(r))) / (2.0 * s * s)


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
