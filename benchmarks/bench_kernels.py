#!/usr/bin/env python3
"""Benchmark the oracle sweep kernels (numpy) on fixed inputs.

Run:  python benchmarks/bench_kernels.py [--repeat 5]
Prints the best wall time of each public sweep over ``--repeat`` calls.
"""

import argparse
import time

import numpy as np

from coarseact._kernels import orbit_compose_sweep, orbit_pair_sweep, transporter_sweep


def grid(radius, k):
    axes = [np.arange(-radius, radius + 1)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


def bench(fn, args, repeat):
    fn(*args)  # warm-up
    best = min(
        _timed(fn, args) for _ in range(repeat)
    )
    print(f"  numpy    {best * 1e3:9.2f} ms")
    return best


def _timed(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    m = np.array([[1.0], [-1.0]])
    b_lo = np.array([-4.0, -4.0])
    b_hi = np.array([4.0, 4.0])
    lgrid = grid(24, 1)
    xgrid = grid(24, 2)
    print(f"transporter_sweep: {len(lgrid)} group elements x {len(xgrid)} window points")
    bench(transporter_sweep, (lgrid, m, b_lo, b_hi, b_lo - 3, b_hi + 5, xgrid), args.repeat)

    rng = np.random.default_rng(0)
    xs = rng.integers(-20, 21, size=(4000, 2)).astype(float)
    ys = rng.integers(-20, 21, size=(4000, 2)).astype(float)
    print(f"orbit_pair_sweep: {len(xs)} pairs x {len(lgrid)} group elements")
    bench(orbit_pair_sweep, (xs, ys, lgrid, m, b_lo, b_hi), args.repeat)

    zs = rng.integers(-20, 21, size=(300, 2)).astype(float)
    ws = rng.integers(-20, 21, size=(300, 2)).astype(float)
    print(f"orbit_compose_sweep: {len(zs)} pairs x {len(lgrid)}^2 element pairs")
    bench(orbit_compose_sweep, (zs, ws, lgrid, lgrid, m, b_lo, b_hi, b_lo, b_hi), args.repeat)


if __name__ == "__main__":
    main()
