"""Independent oracles for the test suite.

Everything here is deliberately written from definitions — coordinate
agreement, explicit double loops, interval averages — and shares no code
path with the library implementations it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def coordinate(idx: int, j: int, m: int) -> int:
    """Coordinate j of a point, bit (m-1-j) of the index."""
    return (idx >> (m - 1 - j)) & 1


def interval_members(x: int, level: int, m: int) -> list[int]:
    """All indices agreeing with x on coordinates 0 .. level-1, by enumeration."""
    return [
        y
        for y in range(1 << m)
        if all(coordinate(y, j, m) == coordinate(x, j, m) for j in range(level))
    ]


def walsh_value(n: int, x: int, m: int) -> int:
    """w_n(x) as the literal product of Rademacher factors over set bits."""
    sign = 1
    for k in range(m):
        if (n >> k) & 1 and coordinate(x, k, m) == 1:
            sign = -sign
    return sign


def walsh_rows_by_product(lo: int, hi: int, m: int) -> np.ndarray:
    """Rows w_lo .. w_{hi-1} over every index, each the literal product of Rademacher rows over set bits."""
    x = np.arange(1 << m)
    rademacher = [1 - 2 * ((x >> (m - 1 - k)) & 1) for k in range(m)]
    rows = np.ones((hi - lo, 1 << m), dtype=np.int64)
    for i, n in enumerate(range(lo, hi)):
        for k in range(m):
            if (n >> k) & 1:
                rows[i] *= rademacher[k]
    return rows


def naive_forward(values, m: int):
    """O(4^m) transform by the definition: coefficient k = mean of f * w_k."""
    size = 1 << m
    out = []
    for k in range(size):
        total = sum(values[x] * walsh_value(k, x, m) for x in range(size))
        if isinstance(total, (int, Fraction)):
            out.append(Fraction(total, size))
        else:
            out.append(total / size)
    return out


def interval_average_maximal(values, m: int):
    """sup over levels of |average over the level interval around each point|."""
    size = 1 << m
    out = []
    for x in range(size):
        best = None
        for level in range(m + 1):
            members = interval_members(x, level, m)
            total = sum(values[y] for y in members)
            exact = isinstance(total, (int, Fraction))
            avg = abs(Fraction(total, len(members)) if exact else total / len(members))
            best = avg if best is None else max(best, avg)
        out.append(best)
    return out


def block_average_maximal(values: np.ndarray, m: int) -> np.ndarray:
    """``interval_average_maximal`` a level at a time, for float64 values whose sums are exact.

    The level-``k`` interval around ``x`` holds the ``2^(m - k)`` consecutive
    indices that share the top ``k`` bits of ``x``: read ``values`` as
    ``2^k`` rows, and each row's mean is the average on every one of its
    points.  Dyadic values of few bits sum exactly in any order, so on
    them this is the interval-average definition at any ``m``.
    """
    out = np.abs(values)
    for k in range(m):
        rows = values.reshape(1 << k, -1)
        means = np.abs(rows.sum(axis=1)) / rows.shape[1]
        out = np.maximum(out, np.repeat(means, rows.shape[1]))
    return out


def lp_by_definition(values: np.ndarray, p: float) -> float:
    """``(mean |f|^p)^(1/p)``: the powers from numpy's ``**`` on the whole array, one ``math.fsum`` over them."""
    return (math.fsum((np.abs(values) ** p).tolist()) / len(values)) ** (1 / p)


def variation_by_runs(n: int) -> int:
    """Binary variation as twice the number of maximal blocks of ones."""
    runs = 0
    prev = 0
    while n:
        bit = n & 1
        if bit and not prev:
            runs += 1
        prev = bit
        n >>= 1
    return 2 * runs


def dirichlet_by_definition(n: int, m: int) -> list[int]:
    """Sum of the first n Walsh functions, evaluated pointwise."""
    return [sum(walsh_value(k, x, m) for k in range(n)) for x in range(1 << m)]


def partial_sum_by_definition(values, m: int) -> list[list]:
    """S_n f for every n in [1, 2^m]; entry n - 1 holds S_n f as a list over x.

    ``S_n f(x)`` grows one term ``c_{n-1} w_{n-1}(x)`` per order, with the
    coefficients taken from ``naive_forward``.
    """
    size = 1 << m
    coeffs = naive_forward(values, m)
    running = [0] * size
    out = []
    for n in range(1, size + 1):
        for x in range(size):
            running[x] += coeffs[n - 1] * walsh_value(n - 1, x, m)
        out.append(list(running))
    return out


def weighted_maximal_by_definition(values, m: int, weight) -> list:
    """sup over n in [1, 2^m] of |S_n f(x)| / weight(n), by a double loop over n and x."""
    out = [0] * (1 << m)
    for n, sums in enumerate(partial_sum_by_definition(values, m), start=1):
        w = weight(n)
        for x, s in enumerate(sums):
            out[x] = max(out[x], abs(s) / w)
    return out


def weak_lp_by_definition(values, m: int, p: Fraction) -> Fraction:
    """sup over nonzero t in |values| of t (#{|f| >= t} / 2^m)^(1/p), in Fractions.

    Float values are read as the rationals they are; ``1/p`` must be an
    integer, so every candidate is exact.
    """
    size = 1 << m
    levels = [abs(Fraction(v)) for v in values]
    return max(
        (t * Fraction(sum(u >= t for u in levels), size) ** (1 / p) for t in levels if t),
        default=Fraction(0),
    )
