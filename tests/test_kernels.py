"""Parity between the compiled saturable kernels and the numpy fallback
(skipped when the extension is not built), plus closed-form spot checks and
the Newton pair kernel on the active backend."""

import numpy as np
import pytest

from fracstates import _kernels
from fracstates._kernels import _numpy as npk

needs_compiled = pytest.mark.skipif(
    not _kernels.have_compiled(), reason="compiled extension not built"
)

try:
    from fracstates._kernels import _sat_cy as cyk
except ImportError:
    cyk = None


def _triple_cy(t, s):
    t = np.ascontiguousarray(t, dtype=float)
    f = np.empty_like(t)
    fp = np.empty_like(t)
    big = np.empty_like(t)
    cyk.saturable_triple(t, s, f, fp, big)
    return f, fp, big


@needs_compiled
@pytest.mark.parametrize("s", [0.2, 0.4, 1.0])
def test_triple_parity(s):
    rng = np.random.default_rng(1)
    t = rng.uniform(-3, 8, 4096)
    fc, fpc, Fc = _triple_cy(t, s)
    fn, fpn, Fn = npk.saturable_triple(t, s)
    assert np.allclose(fc, fn, rtol=1e-14, atol=1e-15)
    assert np.allclose(fpc, fpn, rtol=1e-14, atol=1e-15)
    assert np.allclose(Fc, Fn, rtol=1e-13, atol=1e-15)


@needs_compiled
@pytest.mark.parametrize("s", [0.25, 0.5])
@pytest.mark.parametrize("t", [0.25, 1.0, 3.7])
def test_rate_sum_parity(s, t):
    rng = np.random.default_rng(2)
    u = rng.uniform(-2, 4, 5000)
    a = cyk.nehari_rate_sum(np.ascontiguousarray(u), t, s)
    b = npk.nehari_rate_sum(u, t, s)
    assert a == pytest.approx(b, rel=1e-13)


@needs_compiled
def test_energy_sums_parity():
    rng = np.random.default_rng(3)
    u = rng.uniform(-2, 4, 5000)
    v = rng.uniform(0.5, 2.5, 5000)
    got = cyk.energy_sums(np.ascontiguousarray(u), np.ascontiguousarray(v), 0.4)
    want = npk.energy_sums(u, v, 0.4)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-13)


@needs_compiled
def test_negative_sq_sum_parity():
    rng = np.random.default_rng(4)
    u = rng.uniform(-2, 2, 1000)
    assert cyk.negative_sq_sum(np.ascontiguousarray(u)) == pytest.approx(
        npk.negative_sq_sum(u), rel=1e-14
    )


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
    psi, dpsi = _kernels.nehari_rate_pair(u, tau, s)
    assert psi == pytest.approx(_kernels.nehari_rate_sum(u, np.sqrt(tau), s), rel=1e-13)
    h = 1e-4 * tau
    fd = (_kernels.nehari_rate_pair(u, tau + h, s)[0] - _kernels.nehari_rate_pair(u, tau - h, s)[0]) / (2 * h)
    assert dpsi == pytest.approx(fd, rel=1e-7)
