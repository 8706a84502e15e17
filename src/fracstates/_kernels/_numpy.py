"""Pure-numpy implementations of the saturable-nonlinearity kernels.

Semantically identical to the compiled versions in ``_sat_cy.pyx``; used as
the import-time fallback and for cross-checking the extension.
``nehari_pass`` and ``nehari_final`` (the passes of the Nehari projection)
and ``saturable_f`` (f alone, for the gradient) have no compiled twins and
always run here. The projection's passes work in place on two arrays the
caller allocates once per projection, so a pass forms no temporary array.
``saturable_f`` and ``energy_sums`` form no temporary beyond one scratch
array: they chain in-place operations that round exactly as the plain
expressions do.
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
    """f of saturable_triple, by the same operations, without f' and F,
    in the result array and one scratch array."""
    t = np.asarray(t, dtype=float)
    # fmax, unlike maximum, maps NaN to 0 as np.where(t > 0, t, 0) does
    f = np.fmax(t, 0.0)
    t2 = f * f
    f *= t2
    t2 *= s
    t2 += 1.0
    f /= t2
    return f


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
    """(sum v*u^2, sum F(u), sum f(u)*u) in three arrays: up2 = u+^2,
    den = 1 + s*up2 and one scratch array."""
    up2 = u * u
    pot = float(np.dot(v, up2))
    # u+^2 equals u^2 where u > 0 and 0 elsewhere, NaN included
    np.fmax(u, 0.0, out=up2)
    up2 *= up2
    den = up2 * s
    den += 1.0
    work = up2 * up2
    work /= den
    fu = float(np.sum(work))
    np.divide(up2, 2.0 * s, out=work)
    np.log(den, out=den)
    den /= 2.0 * s * s
    work -= den
    fint = float(np.sum(work))
    return pot, fint, fu


def negative_sq_sum(u):
    un = np.where(u < 0.0, u, 0.0)
    return float(np.dot(un, un))
