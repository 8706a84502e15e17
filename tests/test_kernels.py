"""Closed-form spot checks of the saturable kernels, the Newton pair kernel
and the negative-mass sum."""

import numpy as np
import pytest

from fracstates import _kernels


def test_closed_forms():
    # f(2) at s=0.5 is 8/3; F(1) at s=0.5 is 1 - 2 ln 1.5
    f, fp, big = _kernels.saturable_triple(np.array([2.0]), 0.5)
    assert f[0] == pytest.approx(8.0 / 3.0)
    f, fp, big = _kernels.saturable_triple(np.array([1.0]), 0.5)
    assert big[0] == pytest.approx(1.0 - 2.0 * np.log(1.5))
    # derivative of t^3/(1+s t^2) at t=1, s=0.5: t^2(3+s t^2)/(1+s t^2)^2
    assert fp[0] == pytest.approx(3.5 / 2.25)


def test_zero_for_nonpositive():
    f, fp, big = _kernels.saturable_triple(np.array([-1.0, 0.0]), 0.4)
    assert not f.any() and not fp.any() and not big.any()


@pytest.mark.parametrize("s", [0.25, 0.5])
@pytest.mark.parametrize("tau", [0.0625, 1.0, 13.7])
def test_rate_pair(s, tau):
    rng = np.random.default_rng(5)
    u = rng.uniform(-2, 4, 5000)
    a = np.maximum(u, 0.0) ** 2
    r = np.empty_like(a)

    def psi(x):
        return _kernels.nehari_pass(a, r, x, s)[0]

    psi0, dpsi = _kernels.nehari_pass(a, r, tau, s)
    assert psi0 == pytest.approx(_kernels.nehari_rate_sum(u, np.sqrt(tau), s), rel=1e-13)
    h = 1e-4 * tau
    fd = (psi(tau + h) - psi(tau - h)) / (2 * h)
    assert dpsi == pytest.approx(fd, rel=1e-7)


def test_negative_sq_sum():
    # squares and sums of these samples are exact in binary floating point
    u = np.array([[-3.0, -0.5, 0.0, -0.0], [2.0, 1.25, -1.5, 7.0]])
    assert _kernels.negative_sq_sum(u) == 9.0 + 0.25 + 2.25
    assert _kernels.negative_sq_sum(np.abs(u)) == 0.0
