import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshlab import experiments, spectral
from walshlab.functions import DyadicFunction, SpectralVector, values_equal
from walshlab.spectral import (
    dirichlet_direct,
    dirichlet_dyadic,
    dirichlet_fast,
    fwht_forward,
    fwht_inverse,
    index_stats,
    partial_sum,
    rademacher,
    walsh,
    walsh_rows,
)
from walshlab.constructions import make_atom, AtomRecipe
from walshlab.analysis import PExponent

from oracles import (
    dirichlet_by_definition,
    naive_forward,
    partial_sum_by_definition,
    variation_by_runs,
    walsh_rows_by_product,
    walsh_value,
)


# -- Walsh system ------------------------------------------------------------


def test_rademacher_examples():
    assert rademacher(0, 1).values.tolist() == [1, -1]
    assert rademacher(1, 2).values.tolist() == [1, -1, 1, -1]
    with pytest.raises(ValueError):
        rademacher(2, 2)


def test_rademacher_integral_zero():
    for m in (1, 3, 5):
        for k in range(m):
            assert rademacher(k, m).integral() == 0


def test_walsh_examples():
    assert walsh(0, 3).values.tolist() == [1] * 8
    assert walsh(3, 2).values.tolist() == [1, -1, -1, 1]
    with pytest.raises(ValueError):
        walsh(8, 3)


def test_walsh_matches_product_oracle():
    m = 4
    for n in range(1 << m):
        expected = [walsh_value(n, x, m) for x in range(1 << m)]
        assert walsh(n, m).values.tolist() == expected


def _sample_row_ranges(m: int, rng) -> list[tuple[int, int]]:
    size = 1 << m
    if m <= 6:
        return [(0, size)]
    starts = rng.integers(0, size - 2, 3).tolist()
    ranges = [(lo, lo + 2) for lo in starts] + [(0, 1), (size - 1, size)]
    if m >= 9:  # above resolution 8 rows are a Kronecker product in blocks of 256 orders
        ranges += [(250, 262), (size - 300, size), (200, min(600, size)), (0, 0), (size, size)]
    return ranges


@pytest.mark.parametrize("m", range(1, 14))
def test_walsh_rows_match_product_oracle_before_and_after_memo(m):
    # Rows do not depend on call history: the same ranges read alike before
    # and after a definition sum at the same resolution.  Up to resolution 8
    # the full range covers every row the 256 x 256 table gives.
    ranges = _sample_row_ranges(m, np.random.default_rng(m))
    if m <= spectral._PRODUCT_BITS:
        ranges.append((0, 1 << m))

    def check():
        for lo, hi in ranges:
            rows = walsh_rows(lo, hi, m)
            assert rows.shape == (hi - lo, 1 << m) and rows.dtype == np.int8
            assert np.array_equal(rows, walsh_rows_by_product(lo, hi, m)), (m, lo, hi)
            if hi > lo:
                assert rows[0].tolist() == [walsh_value(lo, x, m) for x in range(1 << m)], (m, lo)

    check()
    dirichlet_direct(1 << m, m)
    check()


@pytest.mark.parametrize("m", [16, 24])
def test_empty_row_range_at_the_top_order(m):
    # The Kronecker block of order 2^m would read table row 2^(m-8), past the end at m = 16.
    size = 1 << m
    rows = walsh_rows(size, size, m)
    assert rows.shape == (0, size) and rows.dtype == np.int8
    if m == 16:
        kernel = dirichlet_fast(size, m).values
        assert kernel[0] == size and not kernel[1:].any()


def test_walsh_row_at_resolution_20_matches_product_oracle():
    # Two levels of the Kronecker product: resolution 20 splits as 8 + 12, and 12 as 8 + 4.
    rng = np.random.default_rng(20)
    n = int(rng.integers(1 << 19, 1 << 20))
    row = walsh(n, 20, "float64").values
    for x in rng.integers(0, 1 << 20, 200).tolist() + [0, (1 << 20) - 1]:
        assert row[x] == walsh_value(n, x, 20), (n, x)


def test_numpy_integer_resolution_gives_the_same_result():
    m = np.int64(9)
    assert np.array_equal(walsh(300, m).values, walsh(300, 9).values)
    assert np.array_equal(walsh_rows(250, 262, m), walsh_rows(250, 262, 9))
    assert np.array_equal(dirichlet_fast(300, m).values, dirichlet_fast(300, 9).values)
    assert type(walsh(3, np.int32(4)).m) is int


def test_walsh_rows_return_rows_no_other_call_holds():
    # Each call returns rows of its own: writing into one block leaves the next call's rows as they were.
    for m in (3, 10):
        expected = walsh_rows_by_product(0, 8, m)
        rows = walsh_rows(0, 8, m)
        rows[:] = 0
        assert np.array_equal(walsh_rows(0, 8, m), expected), m


def test_walsh_rows_lower_bound_must_be_an_integer():
    # The upper bound is one of the order calls in test_package.
    for lo in (0.5, True, np.float64(0)):
        with pytest.raises(ValueError, match="must be an integer"):
            walsh_rows(lo, 2, 10)
    assert np.array_equal(walsh_rows(np.int64(1), 3, 10), walsh_rows(1, 3, 10))


@pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 17), (17, 17)])
def test_walsh_rows_range_must_lie_in_the_orders(lo, hi):
    with pytest.raises(ValueError, match=rf"row range \[{lo}, {hi}\) outside \[0, 2\^4\]"):
        walsh_rows(lo, hi, 4)


@pytest.mark.parametrize("n", [3, 300])
def test_dirichlet_direct_reads_only_its_own_rows(monkeypatch, n):
    rows = spectral.walsh_rows
    read = []

    def counted(lo, hi, m):
        read.append(hi - lo)
        return rows(lo, hi, m)

    monkeypatch.setattr(spectral, "walsh_rows", counted)
    dirichlet_direct(n, 12)
    assert sum(read) == n


def test_dirichlet_direct_traced_peak_stays_small():
    # The full sign matrix at m = 12 alone is 16 MiB.
    tracemalloc.start()
    try:
        kernel = dirichlet_direct(3, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.values[0] == 3
    assert peak < 1 << 20


def test_walsh_orthonormality_exact():
    m = 3
    for a in range(8):
        for b in range(8):
            prod = (walsh(a, m) * walsh(b, m)).integral()
            assert prod == (1 if a == b else 0)


# -- transform ---------------------------------------------------------------


def test_forward_of_walsh_is_unit_vector():
    spec = fwht_forward(walsh(5, 3))
    expected = [0] * 8
    expected[5] = 1
    assert spec.coeffs.tolist() == expected


def test_forward_of_constant():
    spec = fwht_forward(DyadicFunction.constant(3, 1, "exact"))
    assert spec.coeffs.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]


def test_forward_matches_naive_oracle_exact():
    rng = np.random.default_rng(11)
    m = 4
    vals = [int(v) for v in rng.integers(-9, 10, 1 << m)]
    f = DyadicFunction.from_values(m, vals, "exact")
    assert fwht_forward(f).coeffs.tolist() == naive_forward(vals, m)


def test_forward_matches_naive_oracle_float():
    rng = np.random.default_rng(12)
    m = 5
    vals = rng.standard_normal(1 << m)
    f = DyadicFunction.from_values(m, vals)
    got = fwht_forward(f).coeffs
    want = naive_forward(list(vals), m)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_roundtrip_exact_bit_identical():
    f = dirichlet_direct(3, 4)
    assert values_equal(fwht_inverse(fwht_forward(f)), f)


def test_roundtrip_float_m16():
    rng = np.random.default_rng(13)
    f = DyadicFunction.from_values(16, rng.standard_normal(1 << 16))
    back = fwht_inverse(fwht_forward(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_inverse_of_zero_and_unit():
    zero = SpectralVector(3, np.zeros(8))
    assert fwht_inverse(zero).values.tolist() == [0.0] * 8
    unit = np.zeros(8)
    unit[6] = 1.0
    assert fwht_inverse(SpectralVector(3, unit)).values.tolist() == walsh(6, 3).values.astype(float).tolist()


@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_parseval(m, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(1 << m)
    spec = fwht_forward(DyadicFunction.from_values(m, vals))
    lhs = np.sum(vals**2) / vals.size
    rhs = np.sum(spec.coeffs**2)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


# -- index characteristics -----------------------------------------------------


def test_index_stats_examples():
    s = index_stats(5)
    assert (s.low, s.high, s.rho, s.variation) == (0, 2, 2, 4)
    s = index_stats(6)
    assert (s.low, s.high, s.rho, s.variation) == (1, 2, 1, 2)
    for k in range(1, 20):
        s = index_stats(1 << k)
        assert s.rho == 0 and s.variation == 2
    with pytest.raises(ValueError):
        index_stats(0)


@given(st.integers(1, 10**9))
def test_index_stats_invariants(n):
    s = index_stats(n)
    assert (1 << s.high) <= n < (1 << (s.high + 1))
    assert n % (1 << s.low) == 0 and (n >> s.low) & 1
    assert s.rho == s.high - s.low >= 0
    assert s.variation == variation_by_runs(n) >= 2


def test_binary_variation_matches_index_stats():
    orders = np.arange(1, (1 << 14) + 1, dtype=np.int64)
    want = [index_stats(n).variation for n in range(1, (1 << 14) + 1)]
    got = spectral._binary_variation(orders)
    assert got.dtype == np.int64 and got.tolist() == want


# -- Dirichlet kernels ---------------------------------------------------------


def test_dirichlet_direct_examples():
    assert dirichlet_direct(1, 3).values.tolist() == [1] * 8
    assert dirichlet_direct(3, 2).values.tolist() == [3, 1, 1, -1]
    with pytest.raises(ValueError):
        dirichlet_direct(5, 2)
    with pytest.raises(ValueError):
        dirichlet_direct(0, 2)


def test_dirichlet_direct_matches_definition_oracle():
    m = 3
    for n in range(1, (1 << m) + 1):
        assert dirichlet_direct(n, m).values.tolist() == dirichlet_by_definition(n, m)


def test_dirichlet_dyadic_profile():
    assert dirichlet_dyadic(0, 3).values.tolist() == [1] * 8
    assert dirichlet_dyadic(2, 3).values.tolist() == [4, 4, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        dirichlet_dyadic(4, 3)


def test_dirichlet_dyadic_equals_direct_at_powers():
    for m in (1, 3, 5):
        for k in range(m + 1):
            assert values_equal(dirichlet_dyadic(k, m), dirichlet_direct(1 << k, m))


def test_dirichlet_fast_equals_direct_exhaustive():
    for m in range(1, 9):
        for n in range(1, (1 << m) + 1):
            assert values_equal(dirichlet_fast(n, m), dirichlet_direct(n, m)), (m, n)


def test_dirichlet_fast_block_matches_definition_oracle():
    # The binary-expansion kernels of a block of orders, against the definition at every order.
    for m in range(1, 8):
        block = spectral._dirichlet_fast_int64(1, (1 << m) + 1, m)
        assert block.dtype == spectral._kernel_dtype(m)
        for n in range(1, (1 << m) + 1):
            assert block[n - 1].tolist() == dirichlet_by_definition(n, m), (m, n)
    # Across the 256-order boundary of the Walsh rows' Kronecker product at m = 10.
    m, lo, hi = 10, 250, 262
    want = np.array(dirichlet_by_definition(lo, m))
    block = spectral._dirichlet_fast_int64(lo, hi, m)
    for n in range(lo, hi):
        assert block[n - lo].tolist() == want.tolist(), n
        want += [walsh_value(n, x, m) for x in range(1 << m)]


def test_dirichlet_l1_norms():
    d3 = dirichlet_direct(3, 2)
    assert abs(d3).integral() == Fraction(3, 2)
    for k in range(5):
        assert abs(dirichlet_dyadic(k, 4)).integral() == 1


def test_shift_identity_exhaustive_small():
    # A kernel continued past a power of two is the twisted low-order kernel.
    for m in (2, 4, 6):
        for k in range(m):
            wk = walsh(1 << k, m)
            base = dirichlet_direct(1 << k, m)
            for j in range(1, (1 << k) + 1):
                lhs = dirichlet_direct(j + (1 << k), m) - base
                rhs = wk * dirichlet_direct(j, m)
                assert values_equal(lhs, rhs), (m, k, j)


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_kernel_rows_stream_matches_cumsum_reference(chunk, monkeypatch):
    # The running sum, its chunk boundaries and its carry against one cumsum of the Walsh rows.
    monkeypatch.setattr(spectral, "_KERNEL_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for m in range(1, 8):
        size = 1 << m
        spans = {(0, size), (1, size - 1), (size // 3, size), (chunk + 1, size), (size // 2, size // 2 + 5)}
        for start, stop in sorted(spans):
            stop = min(stop, size)
            if start >= stop:
                continue
            for carry in (0, rng.integers(-50, 51, size)):
                before = np.copy(carry)
                want = np.cumsum(walsh_rows(start, stop, m).astype(np.int64), axis=0) + carry
                got = list(spectral._kernel_rows_stream(m, start, stop, carry=carry))
                assert [lo for lo, _ in got] == list(range(start, stop, chunk)), (m, start, stop)
                assert all(rows.dtype == spectral._kernel_dtype(m) for _, rows in got)
                assert np.array_equal(np.vstack([rows for _, rows in got]), want), (m, start, stop)
                assert np.array_equal(carry, before)  # the caller's carry is read, not written
        kernels = np.vstack([rows for _, rows in spectral._kernel_rows_stream(m)])
        assert np.array_equal(kernels, np.cumsum(walsh_rows(0, size, m).astype(np.int64), axis=0))


def _int64_running_sum(m, start, stop, carry):
    """Chunks of ``carry`` plus the int64 cumulative sum of Walsh rows ``start .. stop-1``."""
    for lo in range(start, stop, spectral._KERNEL_CHUNK):
        rows = np.cumsum(walsh_rows(lo, min(lo + spectral._KERNEL_CHUNK, stop), m).astype(np.int64), axis=0) + carry
        carry = rows[-1]
        yield rows


def test_kernel_streams_stay_exact_in_their_narrow_dtype():
    # |D_n| <= 2^m and |D_{2^k+j} - D_{2^k}| <= 3 * 2^(m-1) fit the stream dtype at both sweep caps.
    for cap in (experiments.KERNEL_SWEEP_MAX, experiments.SANDWICH_SWEEP_MAX):
        dtype = spectral._kernel_dtype(cap)
        assert dtype == np.int16 and np.iinfo(dtype).max >= 3 << (cap - 1)
    # Both streams at the kernel cap against an int64 cumsum, chunk by chunk.
    m = experiments.KERNEL_SWEEP_MAX
    size = 1 << m
    for got, want in zip(spectral._kernel_rows_stream(m), _int64_running_sum(m, 0, size, 0), strict=True):
        assert got[1].dtype == np.int16 and np.array_equal(got[1], want)
    pairs = spectral._kernel_pair_stream(m)
    base = np.ones(size, dtype=np.int64)
    for k in range(m):
        for want_low, want_high in zip(_int64_running_sum(m, 0, 1 << k, 0), _int64_running_sum(m, 1 << k, 2 << k, base)):
            got_k, _, low, high, got_base = next(pairs)
            assert got_k == k and np.array_equal(got_base, base)
            assert np.array_equal(low, want_low) and np.array_equal(high, want_high)
        base = want_high[-1]
    assert next(pairs, None) is None
    # The sandwich cap's last chunk, which ends at the largest entry, D_{2^m}(0) = 2^m.
    m = experiments.SANDWICH_SWEEP_MAX
    size = 1 << m
    top = dirichlet_dyadic(m, m).values.astype(np.int64)
    start = size - spectral._KERNEL_CHUNK
    carry = top - walsh_rows(start, size, m).sum(axis=0, dtype=np.int64)
    ((lo, rows),) = spectral._kernel_rows_stream(m, start, size, carry=carry)
    (want,) = _int64_running_sum(m, start, size, carry)
    assert lo == start and rows.dtype == np.int16 and np.array_equal(rows, want)
    assert np.array_equal(rows[-1], top) and rows[-1, 0] == size


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_kernel_pair_stream_matches_direct_kernels(chunk, monkeypatch):
    monkeypatch.setattr(spectral, "_KERNEL_CHUNK", chunk)
    for m in range(1, 7):
        seen = []
        for k, lo, low, high, base in spectral._kernel_pair_stream(m):
            assert np.array_equal(base, dirichlet_direct(1 << k, m).values.astype(np.int64)), (m, k)
            for i in range(low.shape[0]):
                j = lo + i + 1
                assert np.array_equal(low[i], dirichlet_direct(j, m).values.astype(np.int64)), (m, k, j)
                assert np.array_equal(high[i], dirichlet_direct((1 << k) + j, m).values.astype(np.int64)), (m, k, j)
                seen.append((k, j))
        assert seen == [(k, j) for k in range(m) for j in range(1, (1 << k) + 1)]


# -- partial sums ---------------------------------------------------------------


def test_partial_sum_full_spectrum_returns_input():
    rng = np.random.default_rng(17)
    f = DyadicFunction.from_values(4, rng.standard_normal(16))
    g = partial_sum(f, 16)
    assert values_equal(f, g)


def test_partial_sum_one_term_is_mean():
    f = DyadicFunction.from_values(2, [3, 5, 1, -1], "exact")
    g = partial_sum(f, 1)
    assert g.values.tolist() == [2, 2, 2, 2]


def test_partial_sum_rejects_zero_order():
    with pytest.raises(ValueError):
        partial_sum(DyadicFunction.zeros(2), 0)


def test_partial_sum_of_atom_vanishes_below_support_order():
    p = PExponent.parse("1/2")
    atom = make_atom(AtomRecipe(2, 0, p, "random-signs", 9), 5, "exact")
    for n in range(1, 4):  # any order below 2^M = 4
        assert all(v == 0 for v in partial_sum(atom.values, n).values)
    coeffs = fwht_forward(atom.values).coeffs
    assert all(c == 0 for c in coeffs[:4])
    assert any(c != 0 for c in coeffs[4:])


def test_partial_sum_is_prefix_of_spectrum():
    f = dirichlet_direct(7, 3)
    # D_7 has unit coefficients below order 7; truncating at 5 gives D_5.
    assert values_equal(partial_sum(f, 5), dirichlet_direct(5, 3))


def test_partial_sum_linearity():
    rng = np.random.default_rng(23)
    a = DyadicFunction.from_values(4, rng.standard_normal(16))
    b = DyadicFunction.from_values(4, rng.standard_normal(16))
    lhs = partial_sum(a + b, 9)
    rhs = partial_sum(a, 9) + partial_sum(b, 9)
    assert np.allclose(lhs.values, rhs.values, atol=1e-13)


def test_partial_sum_l1_bound_by_variation():
    # ||S_n f||_1 <= c V(n) ||f||_1; the measured c never exceeds 1 because
    # the kernel's L1 norm is itself below the variation.
    rng = np.random.default_rng(19)
    m = 8
    for _ in range(20):
        f = DyadicFunction.from_values(m, rng.standard_normal(1 << m))
        norm_f = np.mean(np.abs(f.values))
        for n in (1, 3, 5, 21, 85, 170, 255, 256):
            norm_sn = np.mean(np.abs(partial_sum(f, n).values))
            assert norm_sn <= index_stats(n).variation * norm_f * (1 + 1e-12)


def test_partial_sum_convolution_oracle():
    # S_n f(x) equals the mean of f(t) D_n(x + t) over t, with + the group XOR.
    rng = np.random.default_rng(29)
    m, n = 4, 11
    vals = rng.standard_normal(1 << m)
    f = DyadicFunction.from_values(m, vals)
    dn = dirichlet_direct(n, m).values.astype(float)
    expected = [
        np.mean([vals[t] * dn[x ^ t] for t in range(1 << m)]) for x in range(1 << m)
    ]
    assert np.allclose(partial_sum(f, n).values, expected, atol=1e-12)


@given(m=st.integers(1, 8), kind=st.sampled_from(("dyadic", "exact", "gaussian")),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_sum_matches_definition_at_every_order(m, kind, seed):
    # Bit-identical on dyadic floats and exact on fractions, where both
    # paths are exact; within 1e-12 on Gaussian floats.
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        vals = rng.standard_normal(1 << m).tolist()
    else:
        ints = rng.integers(-64, 65, 1 << m)
        vals = [Fraction(int(v), 8) for v in ints] if kind == "exact" else (ints / 8.0).tolist()
    f = DyadicFunction.from_values(m, vals, "exact" if kind == "exact" else "float64")
    for n, want in enumerate(partial_sum_by_definition(vals, m), start=1):
        got = partial_sum(f, n).values
        if kind == "gaussian":
            assert np.allclose(got, want, rtol=0, atol=1e-12), n
        else:
            assert got.tolist() == want, n


# -- kernel lower-bound lemma ---------------------------------------------------


def test_kernel_lower_bound_on_pinned_interval():
    # Orders with distinct lowest/highest bits: on the interval pinned by the
    # lowest bit, |D_n| matches the top-bit-removed kernel and is >= 2^low / 4.
    m = 6
    for n in range(1, (1 << m) + 1):
        s = index_stats(n)
        if s.low == s.high:
            continue
        lo, hi = 1 << (m - s.low - 1), 1 << (m - s.low)
        dn = np.abs(dirichlet_direct(n, m).values[lo:hi])
        dref = np.abs(dirichlet_direct(n - (1 << s.high), m).values[lo:hi])
        assert np.array_equal(dn, dref)
        assert 4 * int(min(dn)) >= (1 << s.low)


def test_kernel_lower_bound_example_n3():
    d3 = dirichlet_direct(3, 2)
    assert [abs(v) for v in d3.values[2:4]] == [1, 1]  # = 2^0, comfortably >= 1/4
