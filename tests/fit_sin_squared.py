"""Fit the polynomial behind ``analysis._sin_squared``: a script, not a test.

S(v) = sin^2(pi v / 2) on v in [0, 1] is written as w P(w) with w = v^2 and
P of degree 9.  The coefficients of P are the least-squares fit of
w P(w) to S(v) at 400 Chebyshev nodes of [0, 1] in v, solved at 40
digits with mpmath, then rounded to the nearest doubles.  Run it as

    python tests/fit_sin_squared.py

to print the coefficients, c_0 first, as ``analysis._SIN_SQUARED`` holds
them, and the largest error of the double Horner evaluation against a
long-double sin^2 over 10^6 draws and the interval's edges.  mpmath is
needed here only; it is not a test dependency.
"""
from __future__ import annotations

import mpmath as mp
import numpy as np

DEGREE = 9
NODES = 400


def fit() -> list[float]:
    mp.mp.dps = 40
    rows, rhs = [], []
    for k in range(NODES):
        v = (1 + mp.cos((2 * k + 1) * mp.pi / (2 * NODES))) / 2
        w = v * v
        rows.append([w ** (j + 1) for j in range(DEGREE + 1)])
        rhs.append(mp.sin(mp.pi * v / 2) ** 2)
    coeffs, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
    return [float(c) for c in coeffs]


def horner(coeffs: list[float], v: np.ndarray) -> np.ndarray:
    w = v * v
    p = np.full_like(v, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p = p * w + c
    return np.clip(p * w, 0.0, 1.0)


def main() -> None:
    coeffs = fit()
    for c in coeffs:
        print(f"    {c!r},")
    pi = 4.0 * np.arctan(np.longdouble(1.0))
    edges = np.array([0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53, 1.0])
    worst = 0.0
    for v in (np.random.default_rng(137).random(10**6), edges):
        want = np.sin(pi * v.astype(np.longdouble) / 2.0) ** 2
        worst = max(worst, float(np.max(np.abs(horner(coeffs, v) - want))))
    print(f"largest error against a long-double sin^2: {worst:.3g}")


if __name__ == "__main__":
    main()
