#!/usr/bin/env python3
"""Benchmark: compiled saturable kernels vs the numpy fallback.

The energy sums run once per solve and in the ray-search oracle; the
Nehari projection's in-place passes (``nehari_pass``, ``nehari_final``)
have no compiled twins and are not compared here. Run:

    python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from fracstates import _kernels
from fracstates._kernels import _numpy as fallback

try:
    from fracstates._kernels import _sat_cy as compiled
except ImportError:
    compiled = None


def _time(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_rate_sum(u, s):
    def py():
        fallback.nehari_rate_sum(u, 1.3, s)

    def cy():
        compiled.nehari_rate_sum(u, 1.3, s)

    return py, cy


def bench_energy_sums(u, v, s):
    def py():
        fallback.energy_sums(u, v, s)

    def cy():
        compiled.energy_sums(u, v, s)

    return py, cy


def bench_triple(u, s):
    out = tuple(np.empty_like(u) for _ in range(3))

    def py():
        fallback.saturable_triple(u, s)

    def cy():
        compiled.saturable_triple(u, s, *out)

    return py, cy


def main():
    if compiled is None:
        print("compiled extension not built; nothing to compare")
        return
    s = 0.4
    rng = np.random.default_rng(0)
    print(f"active backend: {_kernels.backend()}")
    print(f"{'kernel':<14} {'n':>9} {'numpy':>12} {'compiled':>12} {'speedup':>8}")
    for n in (1 << 10, 1 << 14, 1 << 18):
        u = np.ascontiguousarray(rng.uniform(-1, 3, n))
        v = np.ascontiguousarray(rng.uniform(0.5, 2.5, n))
        repeats = max(5, (1 << 18) // n)
        for name, (py, cy) in (
            ("rate_sum", bench_rate_sum(u, s)),
            ("energy_sums", bench_energy_sums(u, v, s)),
            ("triple", bench_triple(u, s)),
        ):
            t_py = _time(py, repeats)
            t_cy = _time(cy, repeats)
            print(
                f"{name:<14} {n:>9} {t_py * 1e6:>10.1f}us {t_cy * 1e6:>10.1f}us "
                f"{t_py / t_cy:>7.1f}x"
            )


if __name__ == "__main__":
    main()
