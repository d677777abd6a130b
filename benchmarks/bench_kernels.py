#!/usr/bin/env python3
"""Benchmark the oracle sweep kernels: numba @njit loops vs the numpy fallback.

Run:  python benchmarks/bench_kernels.py [--repeat 5]
The numba path is also what COARSEACT_NO_NUMBA=1 disables at import time.
Without numba only the numpy rows are timed: the "numba" entry would be the
numpy fallback again, so a speedup line would compare numpy with itself.
"""

import argparse
import time

import numpy as np

from coarseact._kernels import IMPLEMENTATIONS, kernel_backend


def grid(radius, k):
    axes = [np.arange(-radius, radius + 1)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


def compare(name, case, repeat, have_numba):
    t_np = bench("numpy", IMPLEMENTATIONS[name]["numpy"], case, repeat)
    if have_numba:
        t_nb = bench("numba", IMPLEMENTATIONS[name]["numba"], case, repeat)
        print(f"  speedup numba/numpy: {t_np / t_nb:.1f}x")


def bench(label, fn, args, repeat):
    fn(*args)  # warm-up (JIT compile on the numba path)
    best = min(
        _timed(fn, args) for _ in range(repeat)
    )
    print(f"  {label:<8} {best * 1e3:9.2f} ms")
    return best


def _timed(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    have_numba = kernel_backend() == "numba"
    print(f"active backend: {kernel_backend()}")
    if not have_numba:
        print("numba is absent: timing the numpy kernels only")

    m = np.array([[1.0], [-1.0]])
    b_lo = np.array([-4.0, -4.0])
    b_hi = np.array([4.0, 4.0])
    lgrid = grid(24, 1)
    xgrid = grid(24, 2)
    print(f"transporter_sweep: {len(lgrid)} group elements x {len(xgrid)} window points")
    case1 = (lgrid, m, b_lo, b_hi, b_lo - 3, b_hi + 5, xgrid)
    compare("transporter_sweep", case1, args.repeat, have_numba)

    rng = np.random.default_rng(0)
    xs = rng.integers(-20, 21, size=(4000, 2)).astype(float)
    ys = rng.integers(-20, 21, size=(4000, 2)).astype(float)
    print(f"orbit_pair_sweep: {len(xs)} pairs x {len(lgrid)} group elements")
    case2 = (xs, ys, lgrid, m, b_lo, b_hi)
    compare("orbit_pair_sweep", case2, args.repeat, have_numba)

    zs = rng.integers(-20, 21, size=(300, 2)).astype(float)
    ws = rng.integers(-20, 21, size=(300, 2)).astype(float)
    print(f"orbit_compose_sweep: {len(zs)} pairs x {len(lgrid)}^2 element pairs")
    case3 = (zs, ws, lgrid, lgrid, m, b_lo, b_hi, b_lo, b_hi)
    compare("orbit_compose_sweep", case3, args.repeat, have_numba)


if __name__ == "__main__":
    main()
