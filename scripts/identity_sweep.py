#!/usr/bin/env python3
"""Sweep random polynomial metrics and verify the curvature identity battery.

For each trial: draw an invertible metric with degree <= 2 entries and build
one ``Geometry`` of it, so each stage (inverse, Levi-Civita, Riemann, Ricci,
Einstein) runs once.  Check the connection against the Koszul formula, then
torsion, metric compatibility, curvature antisymmetry, the first Bianchi
identity, Ricci symmetry and, in dimension two, the vanishing Einstein
tensor.  Prints one line per trial with timings.

Usage:
    python scripts/identity_sweep.py [--trials N] [--dim 2|3] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from afd.curvature import (  # noqa: E402
    Geometry,
    covariant_derivative,
    koszul_rhs,
    torsion,
)
from helpers import poly_ring, random_invertible_metric  # noqa: E402


def run_trial(rng, n):
    names = [f"x{i}" for i in range(1, n + 1)]
    A = poly_ring(*names)
    geometry = Geometry(random_invertible_metric(rng, A))
    metric, connection = geometry.metric, geometry.connection
    basis = [A.basis_derivation(i) for i in range(1, n + 1)]

    for u in basis:
        for v in basis:
            for w in basis:
                assert metric.pair(connection.apply(u, v), w) \
                    == koszul_rhs(metric, u, v, w), "Koszul mismatch"
    assert torsion(connection).is_zero, "nonzero torsion"
    for u in basis:
        assert covariant_derivative(connection, u, metric.g).is_zero, \
            "metric not parallel"

    R = geometry.riemann
    for l in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    assert R.get((l, i, j, k)) == -R.get((l, j, i, k))
                    assert (R.get((l, i, j, k)) + R.get((l, j, k, i))
                            + R.get((l, k, i, j))).is_zero
    ric = geometry.ricci
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert ric.get((i, j)) == ric.get((j, i))
    if n == 2:
        assert geometry.einstein.is_zero
    return len(R.comp)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--dim", type=int, choices=(2, 3), default=None,
                        help="fix the dimension (default: alternate 2 and 3)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    total = time.monotonic()
    for trial in range(args.trials):
        n = args.dim or (2 if trial % 2 == 0 else 3)
        t0 = time.monotonic()
        nnz = run_trial(rng, n)
        print(f"trial {trial:3d}  n={n}  riemann nnz={nnz:3d}"
              f"  ok  ({time.monotonic() - t0:.3f}s)")
    print(f"all {args.trials} trials passed in {time.monotonic() - total:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
