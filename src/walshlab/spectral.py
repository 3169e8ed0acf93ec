"""Walsh system in Paley order, fast transform, and Dirichlet kernels.

The Walsh function ``w_n`` is the product of Rademacher functions over the
set bits of ``n``.  With coordinate 0 stored as the most significant index
bit, ``w_n(x) = (-1)^popcount(bitrev(n) & x)``; the transform butterfly
below retires one input axis per stage to the fast end of the output, so
coefficients come out in Paley order natively, with no bit-reversal pass.
In exact mode it runs on integer numerators (``functions._numerators``)
and divides once at the output.

``walsh_rows`` is the one accessor for Walsh sign rows and ``_sign_rows``
the one construction behind it.  No rows are kept between calls but one
read-only 256 x 256 table, the rows at resolution 8, built one coordinate
at a time.  At or below resolution 8 a row is a strided slice of the
table.  Above it a row is a Kronecker product: the low 8 bits of the
order act on the first 8 coordinates and the rest on the others, so a row
is a row of the table, each entry repeated, times one row at resolution
``m - 8``, tiled.

Dirichlet kernels get three independent constructions: the defining sum
over Walsh functions, the closed form at powers of two, and the
binary-expansion formula that assembles a general kernel from
power-of-two blocks in O(2^m) per order, built a block of orders at once:
before its Walsh twist, the kernel of order ``n`` takes ``m + 1`` values,
``n`` at index 0 and ``(n mod 2^j) - n_j 2^j`` on shell ``j``.
``_kernel_rows_stream`` is the defining sum run as a running sum, row by
row within a chunk of orders; it is the one definition sum the exhaustive
kernel sweeps read, and ``_kernel_pair_stream`` pairs its rows across
each power of two for the shift identity and the lower-bound lemma.  Its
``D_1`` and high rows give every order once, so one pair stream feeds
every kernel check.  The streams and the three integer constructions hold
entries in ``_kernel_dtype(m)``, the narrowest of int16, int32 and int64
that fits ``|D_n| <= 2^m`` and a shift difference: int16 up to ``m = 14``,
which covers both sweep caps (the ``_int64`` suffix of the constructions'
private names is older than that choice).  Sums over a row are taken in
int64.

Partial sums use the same binary expansion and no transform.  With
``Q_j = {k > j : n_k = 1}``, ``S_n f`` is the sum over the set bits ``j``
of ``n`` of ``prod_{k in Q_j} r_k`` times ``E_j(f prod_{k in Q_j} r_k)``.
One halving chain over the bits of ``n`` yields every such conditional
expectation, and they nest from the lowest set bit up as
``V <- E_j(...) + r_j V``: O(2^m) per order in float64 and exact mode,
the exact chain on numerators pre-scaled by ``2^m``.
``_partial_sum_numerators`` is that one construction; ``partial_sum`` and
``operators.restricted_maximal`` both run it per order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .functions import DyadicFunction, Mode, SpectralVector, _from_numerators, _halve, _mode_dtype, _numerators
from .group import ResolutionLike, _as_int, as_resolution

#: Bits of the order per block of the Kronecker product; above this resolution rows are built from it.
_PRODUCT_BITS = 8


@cache
def _product_table() -> np.ndarray:
    """``w_n`` at resolution ``_PRODUCT_BITS`` for every ``n``: 64 KiB, read-only, built on first use.

    One coordinate at a time: with ``n = 2a + c`` and ``x = u 2^k + v``,
    bit ``c`` of the order acts on the first coordinate ``u`` and the rest
    on ``v``, so ``w_{2a+c}(u 2^k + v) = (-1)^(c u) w_a(v)``.
    """
    sign = np.array([[1, 1], [1, -1]], dtype=np.int8)
    table = np.ones((1, 1), dtype=np.int8)
    for _ in range(_PRODUCT_BITS):
        table = (table[:, None, None, :] * sign[None, :, :, None]).reshape(2 * len(table), -1)
    table.setflags(write=False)
    return table


def _sign_rows(lo: int, hi: int, m: int) -> np.ndarray:
    """Walsh rows ``lo .. hi-1`` at resolution ``m``, int8, in a fresh array.

    Up to resolution ``_PRODUCT_BITS`` a strided slice of the table:
    ``w_n(x) = w^(8)_n(x 2^(8-m))`` for ``n < 2^m``.  Above it, write
    ``n = a 2^8 + b`` and ``x = u 2^(m-8) + v``: the low bits of ``n`` act
    on the first coordinates (``u``) and the high bits on the rest
    (``v``), so ``w_n(x) = w^(8)_b(u) w^(m-8)_a(v)``.  The rows of one
    block of orders sharing ``a`` are the table's rows, each entry
    repeated ``2^(m-8)`` times, times one row at resolution ``m - 8`` tiled
    ``2^8`` times.
    """
    if m <= _PRODUCT_BITS:
        return _product_table()[lo:hi, :: 1 << (_PRODUCT_BITS - m)].copy()
    if lo == hi:
        return np.empty((0, 1 << m), dtype=np.int8)
    blocks = []
    for a in range(lo >> _PRODUCT_BITS, ((hi - 1) >> _PRODUCT_BITS) + 1):
        start, stop = max(lo, a << _PRODUCT_BITS), min(hi, (a + 1) << _PRODUCT_BITS)
        b = start - (a << _PRODUCT_BITS)
        rows = np.repeat(_product_table()[b : b + stop - start], 1 << (m - _PRODUCT_BITS), axis=1)
        rows *= np.tile(_sign_rows(a, a + 1, m - _PRODUCT_BITS)[0], 1 << _PRODUCT_BITS)
        blocks.append(rows)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def walsh_rows(lo: int, hi: int, m: ResolutionLike) -> np.ndarray:
    """Sign matrix with row ``n - lo`` holding ``w_n`` over all indices, int8.

    Every call builds its rows afresh by ``_sign_rows`` and returns a
    writable array that nothing else holds.
    """
    r = as_resolution(m)
    lo, hi = _as_int(lo, "row bound"), _as_int(hi, "row bound")
    if not 0 <= lo <= hi <= r.size:
        raise ValueError(f"row range [{lo}, {hi}) outside [0, 2^{r.m}]")
    return _sign_rows(lo, hi, r.m)


def _to_mode(ints: np.ndarray, m: int, mode: Mode) -> DyadicFunction:
    return DyadicFunction(m, ints.astype(_mode_dtype(mode)), mode)


def rademacher(k: int, m: ResolutionLike, mode: Mode = "exact") -> DyadicFunction:
    """The coordinate sign ``(-1)^{x_k}``, which is ``w_{2^k}``."""
    r = as_resolution(m)
    k = _as_int(k, "coordinate")
    if not 0 <= k < r.m:
        raise ValueError(f"coordinate {k} outside [0, {r.m})")
    return walsh(1 << k, r.m, mode)


def walsh(n: int, m: ResolutionLike, mode: Mode = "exact") -> DyadicFunction:
    """The Walsh function ``w_n`` in Paley order; ``w_0`` is constant 1."""
    r = as_resolution(m)
    n = _as_int(n, "frequency")
    if not 0 <= n < r.size:
        raise ValueError(f"frequency {n} outside [0, 2^{r.m})")
    return _to_mode(walsh_rows(n, n + 1, r.m)[0].astype(np.int64), r.m, mode)


# -- transform -----------------------------------------------------------


def _butterfly_paley(vec: np.ndarray) -> np.ndarray:
    """Self-sorting butterfly: output index k pairs bit j with coordinate j."""
    size = vec.shape[0]
    buf = np.array(vec, copy=True).reshape(size, 1)
    rows, cols = size, 1
    while rows > 1:
        t = buf.reshape(2, rows // 2, cols)
        a, b = t[0], t[1]
        buf = np.stack((a + b, a - b), axis=1)
        rows //= 2
        cols *= 2
        buf = buf.reshape(rows, cols)
    return buf.reshape(-1)


def fwht_forward(f: DyadicFunction) -> SpectralVector:
    """Analysis transform: coefficient k is the mean of ``f * w_k``.

    O(m 2^m); bit-exact against the quadratic sum in exact mode, where the
    butterfly runs on integer numerators and divides once at the output.
    """
    nums, unit = _numerators(f.values, f.m)  # the butterfly grows entries at most 2^m-fold
    return SpectralVector(f.m, _from_numerators(_butterfly_paley(nums), unit, f.size), f.mode)


def fwht_inverse(c: SpectralVector) -> DyadicFunction:
    """Synthesis transform: sum of ``coeffs[k] * w_k``; exact roundtrip partner.

    Exact coefficients that are all ints give ints, and ``Fraction`` values otherwise.
    """
    nums, unit = _numerators(c.coeffs, c.m)
    return DyadicFunction(c.m, _from_numerators(_butterfly_paley(nums), unit), c.mode)


# -- index characteristics ------------------------------------------------


@dataclass(frozen=True)
class IndexStats:
    """Binary-expansion characteristics of a frequency index."""

    n: int
    low: int
    high: int
    rho: int
    variation: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "binary": format(self.n, "b"),
            "low": self.low,
            "high": self.high,
            "rho": self.rho,
            "V": self.variation,
        }


def index_stats(n: int) -> IndexStats:
    """Lowest/highest set bit, their spread, and the binary variation.

    The variation is ``n_0 + sum_k |n_k - n_{k-1}|`` over the bit expansion,
    which counts twice the number of maximal blocks of ones.
    """
    n = _as_int(n, "index")
    if n < 1:
        raise ValueError(f"index characteristics undefined for n = {n}")
    low = (n & -n).bit_length() - 1
    high = n.bit_length() - 1
    bits = [(n >> j) & 1 for j in range(high + 2)]
    variation = bits[0] + sum(abs(bits[j] - bits[j - 1]) for j in range(1, high + 2))
    return IndexStats(n, low, high, high - low, variation)


def _binary_variation(orders: np.ndarray) -> np.ndarray:
    """``index_stats(n).variation`` of every entry of an int64 array of orders, as int64.

    Bit ``j`` of ``n ^ (n << 1)`` is ``|n_j - n_{j-1}|``, with ``n_{-1} = 0``,
    so its popcount is the variation.
    """
    return np.bitwise_count(orders ^ (orders << 1)).astype(np.int64)


# -- Dirichlet kernels ----------------------------------------------------


def _check_kernel_order(n: int, m: int) -> int:
    n = _as_int(n, "kernel order")
    if not 1 <= n <= (1 << m):
        raise ValueError(f"kernel order {n} outside [1, 2^{m}]")
    return n


def _kernel_dtype(m: int) -> type:
    """The narrowest of int16, int32 and int64 that holds every kernel entry at resolution ``m``.

    ``|D_n| <= n <= 2^m``, and a shift-identity difference ``D_{2^k+j} - D_{2^k}``
    (``k < m``) is at most ``2^m + 2^(m-1)``; int16 holds both up to ``m = 14``.
    """
    bound = 3 << (m - 1)
    return next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _dirichlet_direct_int64(n: int, m: int) -> np.ndarray:
    size = 1 << m
    acc = np.zeros(size, dtype=_kernel_dtype(m))
    chunk = 1 << min(m, _PRODUCT_BITS)  # one block of the Kronecker product
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        acc += walsh_rows(lo, hi, m).sum(axis=0, dtype=acc.dtype)
    return acc


def _dirichlet_dyadic_int64(k: int, m: int) -> np.ndarray:
    values = np.zeros(1 << m, dtype=_kernel_dtype(m))
    values[: 1 << (m - k)] = 1 << k
    return values


def _dirichlet_fast_int64(lo: int, hi: int, m: int) -> np.ndarray:
    """Kernels of the orders ``lo .. hi-1``, one row each, from their binary expansions alone."""
    size = 1 << m
    top = min(hi, size)
    dtype = _kernel_dtype(m)
    orders = np.arange(lo, top, dtype=dtype)[:, None]
    # Before the twist the block sum of order n < 2^m is n at index 0 and
    # c_j(n) = (n mod 2^j) - n_j 2^j on shell j, the 2^(m-j-1) indices from
    # 2^(m-j-1): m + 1 values, the shells in index order j = m-1 .. 0.
    j = np.arange(m - 1, -1, -1, dtype=dtype)
    values = np.hstack((orders, (orders & ((1 << j) - 1)) - (orders & (1 << j))))
    acc = np.repeat(values, np.r_[1, 1 << (m - 1 - j)], axis=1)
    acc *= walsh_rows(lo, top, m)
    if hi > size:
        # The top-bit block of order 2^m sits above the resolution; the
        # kernel is the closed-form spike there.
        acc = np.vstack((acc, _dirichlet_dyadic_int64(m, m)))
    return acc


#: Orders per chunk of the kernel streams; a chunk from a multiple of it stays in one block of ``_sign_rows``.
_KERNEL_CHUNK = 128


def _kernel_rows_stream(m: int, start: int = 0, stop: int | None = None, carry=0):
    """Yield (lo, rows) where rows[i] is ``carry`` plus Walsh rows ``start .. lo+i``, in ``_kernel_dtype(m)``.

    With the defaults, rows[i] is the order-(lo+i+1) kernel.
    """
    stop = 1 << m if stop is None else stop
    dtype = _kernel_dtype(m)
    for lo in range(start, stop, _KERNEL_CHUNK):
        hi = min(lo + _KERNEL_CHUNK, stop)
        rows = walsh_rows(lo, hi, m).astype(dtype)
        rows[0] += carry
        # Row by row: one cumulative sum along the order axis is about four times slower.
        for i in range(1, hi - lo):
            np.add(rows[i], rows[i - 1], out=rows[i])
        carry = rows[-1].copy()
        yield lo, rows


def _kernel_pair_stream(m: int):
    """Yield (k, lo, low, high, base) for k < m, chunk by chunk.

    ``low[i]`` is ``D_j`` and ``high[i]`` is ``D_{2^k + j}`` for
    ``j = lo + i + 1`` in ``1 .. 2^k``; ``base`` is ``D_{2^k}``.  The high
    stream is carried from ``base``, the previous stage's last high row, so
    ``D_1`` (the ``k = 0`` low row) and the high rows give every order
    ``1 .. 2^m`` once.
    """
    base = np.ones(1 << m, dtype=_kernel_dtype(m))  # D_1 = w_0
    for k in range(m):
        low = _kernel_rows_stream(m, 0, 1 << k)
        high = _kernel_rows_stream(m, 1 << k, 2 << k, carry=base)
        for (lo, rows_lo), (_, rows_hi) in zip(low, high):
            yield k, lo, rows_lo, rows_hi, base
        base = rows_hi[-1].copy()


def dirichlet_direct(n: int, m: ResolutionLike, mode: Mode = "exact") -> DyadicFunction:
    """Kernel of order ``n`` by its definition: sum of the first n Walsh functions."""
    r = as_resolution(m)
    n = _check_kernel_order(n, r.m)
    return _to_mode(_dirichlet_direct_int64(n, r.m), r.m, mode)


def dirichlet_dyadic(k: int, m: ResolutionLike, mode: Mode = "exact") -> DyadicFunction:
    """Closed form at order 2^k: the value 2^k on the level-k interval at 0."""
    r = as_resolution(m)
    k = _as_int(k, "dyadic order exponent")
    if not 0 <= k <= r.m:
        raise ValueError(f"dyadic order exponent {k} outside [0, {r.m}]")
    return _to_mode(_dirichlet_dyadic_int64(k, r.m), r.m, mode)


def dirichlet_fast(n: int, m: ResolutionLike, mode: Mode = "exact") -> DyadicFunction:
    """Kernel of order ``n`` assembled from power-of-two blocks.

    Uses the binary expansion of ``n``: a signed indicator block per set
    bit, then one global Walsh twist; O(2^m).
    """
    r = as_resolution(m)
    n = _check_kernel_order(n, r.m)
    return _to_mode(_dirichlet_fast_int64(n, n + 1, r.m)[0], r.m, mode)


# -- partial sums ----------------------------------------------------------


def _partial_sum_numerators(values: np.ndarray, n: int, m: int) -> np.ndarray:
    """``S_n f`` for ``1 <= n < 2^m`` by one halving chain, O(2^m).

    The chain walks the bits of ``n`` from the top down, carrying
    ``E_j(f prod_{k >= j, n_k = 1} r_k)``: the halved pair sum at a clear
    bit, the halved pair difference at a set bit, where the pair sum is
    that bit's term ``U_j[Q_j] = E_j(f prod_{k in Q_j} r_k)``, one value per
    level-``j`` interval, with ``Q_j = {k > j : n_k = 1}``.  Then
    ``S_n f = sum_j (prod_{k in Q_j} r_k) U_j[Q_j]``, which nests from the
    lowest set bit up as ``V <- U_j[Q_j] + r_j V`` in ``popcount(n)``
    steps.  Exact ``values`` are numerators pre-scaled by ``2^m``.
    """
    low = (n & -n).bit_length() - 1
    terms = []
    chain = values
    for j in range(m - 1, low - 1, -1):
        a, b = chain[0::2], chain[1::2]
        total = np.add(a, b)
        _halve(total)
        if (n >> j) & 1:
            terms.append((j, total))
            if j > low:
                chain = np.subtract(a, b)
                _halve(chain)
        else:
            chain = total
    level, v = terms.pop()
    for j, u in reversed(terms):
        # r_j is +1 on the even and -1 on the odd level-(j+1) cells.
        u = u.reshape(1 << level, 1 << (j - level))
        out = np.empty((1 << level, 1 << (j - level), 2), v.dtype)
        np.add(u, v[:, None], out=out[..., 0])
        np.subtract(u, v[:, None], out=out[..., 1])
        v = out.reshape(-1)
        level = j + 1
    return np.repeat(v, 1 << (m - level)) if level < m else v


def partial_sum(f: DyadicFunction, n: int) -> DyadicFunction:
    """``S_n f``, the sum of the first ``n`` Walsh terms of ``f``.

    Computed without a transform by ``_partial_sum_numerators``: O(2^m)
    in float64 and exact mode, the exact nested sum on numerators at most
    ``popcount(n) <= m`` times the largest entry.
    For ``n >= 2^m`` the whole spectrum is kept, so the input comes back
    unchanged.
    """
    n = _as_int(n, "partial-sum order")
    if n < 1:
        raise ValueError(f"partial-sum order must be >= 1, got {n}")
    if n >= f.size:
        return f
    values, unit = _numerators(f.values, f.m.bit_length(), shift=f.m)
    return DyadicFunction(f.m, _from_numerators(_partial_sum_numerators(values, n, f.m), unit), f.mode)
