"""Pointwise numpy kernels of the saturable law f(t) = t^3/(1 + s t^2).

f, f' and F vanish for t <= 0, and F(t) = t^2/(2s) - log(1 + s t^2)/(2s^2).
``nehari_pass`` and ``nehari_final`` (the passes of the Nehari projection
and of the energy) work in place on two arrays the caller allocates once
per ray, so a pass forms no temporary array. ``saturable_f`` forms no
temporary beyond one scratch array: it chains in-place operations that
round exactly as the plain expression does.

No public kernel calls another one, because perfbench's tracer counts every
call of a public function of this module.
"""

import numpy as np


def backend():
    """Name of the kernel implementation, recorded in manifest.json."""
    return "python"


def saturable_triple(t, s):
    """(f(t), f'(t), F(t)) elementwise."""
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
    """sum f(t*u)*u / t over the flat samples."""
    u = np.asarray(u, dtype=float).ravel()
    tu = t * np.where(u > 0.0, u, 0.0)
    tu2 = tu * tu
    return float(np.sum(tu * tu2 / (1.0 + s * tu2) * u)) / t


def nehari_pass(a, r, tau, s):
    """(psi, psi') at tau from a = u+^2, writing a/den into r, which has
    a's size; psi(tau) = sum f(sqrt(tau)*u)*u / sqrt(tau).

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

    psi is nehari_pass's, by the same operations, and
    F(t u) = (x - log(1 + x)) / (2 s^2) with x = s*tau*a.
    """
    np.multiply(a, s * tau, out=r)
    r += 1.0
    np.divide(a, r, out=r)
    psi = tau * float(np.dot(a, r))
    np.multiply(a, s * tau, out=r)
    x_sum = float(np.sum(r))
    np.log1p(r, out=r)
    return psi, (x_sum - float(np.sum(r))) / (2.0 * s * s)


def negative_sq_sum(u):
    """sum of u^2 over the strictly negative samples."""
    u = np.asarray(u, dtype=float).ravel()
    un = np.where(u < 0.0, u, 0.0)
    return float(np.dot(un, un))
