"""Reference computations written from the definitions, sharing no code with walshlab.

Walsh functions are literal products of Rademacher functions in Paley
order (coordinate 0 is the most significant index bit), partial sums are
sums of their first ``n`` terms, and every norm or operator below follows
its textbook definition.  On dyadic-rational inputs of moderate range the
float sums here are exact, so the checks can compare at tolerance zero.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class Oracle:
    """Definitional Walsh analysis with a per-resolution cache of sign matrices."""

    def __init__(self) -> None:
        self._walsh: dict[int, np.ndarray] = {}

    @staticmethod
    def rademacher(m: int) -> np.ndarray:
        """Row ``k`` holds ``r_k(x) = (-1)^(x_k)`` over all ``2^m`` points."""
        x = np.arange(1 << m)
        return np.array([1 - 2 * ((x >> (m - 1 - k)) & 1) for k in range(m)], dtype=np.int8)

    def walsh_matrix(self, m: int) -> np.ndarray:
        """Row ``n`` is ``w_n``, the product of ``r_k`` over the set bits ``k`` of ``n``."""
        if m not in self._walsh:
            r = self.rademacher(m)
            w = np.empty((1 << m, 1 << m), dtype=np.int8)
            w[0] = 1
            for k in range(m):
                w[1 << k : 2 << k] = w[: 1 << k] * r[k]
            self._walsh[m] = w
        return self._walsh[m]

    def walsh_row(self, n: int, m: int) -> np.ndarray:
        r = self.rademacher(m)
        row = np.ones(1 << m, dtype=np.int64)
        for k in range(m):
            if (n >> k) & 1:
                row *= r[k]
        return row

    def dirichlet(self, n: int, m: int) -> np.ndarray:
        """``D_n = w_0 + ... + w_(n-1)`` as integers."""
        return self.walsh_matrix(m)[:n].sum(axis=0, dtype=np.int64)

    def sharpness(self, n: int, m: int) -> np.ndarray:
        """``f_n = D_(2^(n+1)) - D_(2^n)`` in float64."""
        return (self.dirichlet(2 << n, m) - self.dirichlet(1 << n, m)).astype(np.float64)

    def coefficients(self, f: np.ndarray, m: int, chunk: int = 512) -> np.ndarray:
        """``c_k = mean(f w_k)`` in float64."""
        w = self.walsh_matrix(m)
        f = np.asarray(f, dtype=np.float64)
        return np.concatenate(
            [w[lo : lo + chunk].astype(np.float64) @ f for lo in range(0, 1 << m, chunk)]
        ) / (1 << m)

    def weighted_sup(self, f: np.ndarray, m: int, weights: np.ndarray, chunk: int = 512) -> np.ndarray:
        """``sup_{1 <= n <= 2^m} |S_n f| / weights[n - 1]``, built row by row."""
        w = self.walsh_matrix(m)
        c = self.coefficients(f, m)
        out = np.zeros(1 << m)
        carry = np.zeros(1 << m)
        for lo in range(0, 1 << m, chunk):
            hi = min(lo + chunk, 1 << m)
            block = w[lo:hi].astype(np.float64) * c[lo:hi, None]
            np.cumsum(block, axis=0, out=block)
            block += carry
            carry = block[-1].copy()
            out = np.maximum(out, (np.abs(block) / weights[lo:hi, None]).max(axis=0))
        return out

    def restricted_sup(self, f: np.ndarray, m: int, orders, weights) -> np.ndarray:
        """``sup_j |S_(n_j) f| / weights[j]``; orders past ``2^m`` give ``f`` itself."""
        w = self.walsh_matrix(m).astype(np.float64)
        c = self.coefficients(f, m)
        out = np.zeros(1 << m)
        for n, wt in zip(orders, weights):
            part = np.asarray(f, dtype=np.float64) if n >= 1 << m else c[:n] @ w[:n]
            out = np.maximum(out, np.abs(part) / wt)
        return out


def spread(n: int) -> int:
    """``rho(n)``: the highest set bit of ``n >= 1`` minus its lowest."""
    low = 0
    while not (n >> low) & 1:
        low += 1
    return n.bit_length() - 1 - low


def variation(n: int) -> int:
    """``n_0 + sum_k |n_k - n_(k-1)|`` over the binary digits of ``n``."""
    digits = [(n >> k) & 1 for k in range(n.bit_length() + 1)]
    return digits[0] + sum(abs(digits[k] - digits[k - 1]) for k in range(1, len(digits)))


def spread_weights(m: int, e: float) -> np.ndarray:
    """``2^(rho(n) e)`` for ``n = 1 .. 2^m``."""
    return np.array([2.0 ** (spread(n) * e) for n in range(1, (1 << m) + 1)])


def interval_maximal(f: np.ndarray, m: int) -> np.ndarray:
    """``sup_k |average of f over the level-k interval around x|`` for ``k = 0 .. m``."""
    f = np.asarray(f)
    best = np.abs(f)
    for k in range(m):
        width = 1 << (m - k)
        means = f.reshape(-1, width).sum(axis=1) / width
        best = np.maximum(best, np.repeat(np.abs(means), width))
    return best


def weak_type(values: np.ndarray, p: float, size: int) -> float:
    """``sup_{t > 0} t^p |{values >= t}| / size``; the sup sits at a value."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    best = 0.0
    for i, v in enumerate(ordered):
        if v <= 0:
            break
        if i + 1 == ordered.size or ordered[i + 1] != v:
            best = max(best, float(v) ** p * ((i + 1) / size))
    return best


def mean_abs_exact(values) -> Fraction:
    """``||f||_1``, the mean of ``|f|``, in exact arithmetic."""
    return sum((abs(Fraction(v)) for v in values), Fraction(0)) / len(values)


def interval_maximal_exact(values, m: int) -> list[Fraction]:
    """``interval_maximal`` in exact arithmetic."""
    vals = [Fraction(v) for v in values]
    best = [abs(v) for v in vals]
    for k in range(m):
        width = 1 << (m - k)
        for start in range(0, 1 << m, width):
            mean = abs(sum(vals[start : start + width], Fraction(0)) / width)
            for x in range(start, start + width):
                best[x] = max(best[x], mean)
    return best


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
