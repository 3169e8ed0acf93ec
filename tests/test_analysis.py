import hashlib
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshlab.analysis import (
    AtomSpec,
    LevelSet,
    PExponent,
    atom_sup_bound,
    hardy_quasinorm,
    lp_quasinorm,
    maximal_function,
    _atom_hardy,
    _level_sets,
    _maximal_numerators,
    _weak_lp,
    validate_atom,
    weak_lp_quasinorm,
)
from walshlab.constructions import counterexample_fn
from walshlab.functions import DyadicFunction
from walshlab.group import GroupPoint, interval
from walshlab.operators import _packet_table, _weak_type, weak_type_constant
from walshlab.spectral import dirichlet_direct, dirichlet_dyadic, walsh

from oracles import block_average_maximal, interval_average_maximal, lp_by_definition, weak_lp_by_definition


def test_pexponent_parsing_and_properties():
    p = PExponent.parse("1/2")
    assert p.p == Fraction(1, 2)
    assert p.reciprocal == 2 and p.weight_exponent == 1
    assert p.is_exact
    q = PExponent.parse(0.75)
    assert q.p == Fraction(3, 4) and not q.is_exact
    assert PExponent.parse(1).weight_exponent == 0
    for bad in ("0", "9/8", -0.5, "1/0", float("inf"), float("-inf"), float("nan"), "inf"):
        with pytest.raises(ValueError):
            PExponent.parse(bad)


# -- L_p ------------------------------------------------------------------------


def test_pexponent_caches_derived_values_without_changing_identity():
    # reciprocal and weight_exponent are derived once; equality, hashing and
    # the pickled form still see p alone.
    fresh = PExponent.parse("2/3")
    used = PExponent.parse("2/3")
    assert used.weight_exponent == Fraction(1, 2) and used.reciprocal == Fraction(3, 2)
    assert used.weight_exponent is used.weight_exponent
    assert used == fresh and hash(used) == hash(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(used))
    assert back == used and back.weight_exponent == Fraction(1, 2)


def test_lp_of_dyadic_kernel_closed_form():
    # |D_{2^n}| is 2^n on a set of measure 2^-n, so the norm is 2^(n(1-1/p)).
    for n in (1, 2, 3):
        f = dirichlet_dyadic(n, 5)
        for q in (1, 2, 3):
            p = Fraction(1, q)
            assert lp_quasinorm(f, p) == Fraction(2) ** (n * (1 - q))
    ff = dirichlet_dyadic(3, 5, "float64")
    got = lp_quasinorm(ff, 0.75)
    assert math.isclose(got, 2.0 ** (3 * (1 - 4 / 3)), rel_tol=1e-12)


def test_lp_of_constant_is_its_magnitude():
    f = DyadicFunction.constant(4, Fraction(-5, 2), "exact")
    assert lp_quasinorm(f, Fraction(1, 3)) == Fraction(5, 2)
    assert lp_quasinorm(f, 1) == Fraction(5, 2)
    assert lp_quasinorm(DyadicFunction.constant(4, -2.5), 1) == 2.5
    assert lp_quasinorm(DyadicFunction.zeros(3, "exact"), Fraction(1, 2)) == 0


def test_float_norms_past_the_float64_range_raise():
    # A power (1e200 ** 2) or a sum (1.7e308 + 1.7e308) past the float64
    # range is an error naming the exponent, never inf, a warning or an OverflowError.
    for norm in (lp_quasinorm, hardy_quasinorm):
        with pytest.raises(ValueError, match="L_2 quasi-norm of this function overflows float64"):
            norm(DyadicFunction.from_values(1, [1e200, 1.0]), 2)
    with pytest.raises(ValueError, match="L_1 quasi-norm of this function overflows float64"):
        lp_quasinorm(DyadicFunction.from_values(1, [1.7e308, 1.7e308]), 1)
    assert lp_quasinorm(DyadicFunction.from_values(1, [1.7e308, 0.0]), 1) == 1.7e308 / 2


def test_lp_example_d3():
    assert lp_quasinorm(dirichlet_direct(3, 2), 1) == Fraction(3, 2)


def test_lp_rejects_bad_exponents():
    f = DyadicFunction.zeros(2)
    with pytest.raises(ValueError):
        lp_quasinorm(f, 0)
    with pytest.raises(ValueError):
        lp_quasinorm(f, -1)
    # A nan exponent would otherwise give nan for L_p and 0.0 for weak L_p.
    for norm in (lp_quasinorm, weak_lp_quasinorm):
        with pytest.raises(ValueError):
            norm(f, float("nan"))
    # An infinite one would give 1.0 for the L_p and H_p norms of 0..7, whose sup is 7.
    g = DyadicFunction.from_values(3, range(8))
    for norm in (lp_quasinorm, hardy_quasinorm, weak_lp_quasinorm):
        for p in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                norm(g, p)
    # So must a Fraction whose float form overflows (10^400) or rounds to 0 (10^-400).
    for norm in (lp_quasinorm, hardy_quasinorm, weak_lp_quasinorm):
        for p in (Fraction(10**400), Fraction(1, 10**400)):
            with pytest.raises(ValueError, match="exponent must be positive and finite"):
                norm(g, p)


def test_lp_exact_multi_level_perfect_roots():
    # Levels 1 and 4 are perfect squares, so the p = 1/2 value is rational.
    f = DyadicFunction.from_values(2, [1, 4, 0, 0], "exact")
    got = lp_quasinorm(f, Fraction(1, 2))
    assert got == Fraction(3, 4) ** 2


def test_lp_exact_raises_when_irrational():
    f = DyadicFunction.from_values(2, [1, 2, 0, 0], "exact")
    with pytest.raises(ValueError):
        lp_quasinorm(f, Fraction(1, 2))
    with pytest.raises(ValueError):
        lp_quasinorm(f, Fraction(2, 3))


def test_quasinorm_homogeneity_exact():
    c = Fraction(3, 8)
    multi = dirichlet_direct(5, 4)  # several levels: exact only at p = 1
    assert lp_quasinorm(c * multi, 1) == c * lp_quasinorm(multi, 1)
    assert weak_lp_quasinorm(c * multi, 1) == c * weak_lp_quasinorm(multi, 1)
    single = dirichlet_dyadic(2, 4)  # one level: exact at any p = 1/q
    flat = counterexample_fn(2, 4)  # mean zero, so its maximal staircase is flat
    for p in (Fraction(1, 2), Fraction(1, 3), 1):
        assert lp_quasinorm(c * single, p) == c * lp_quasinorm(single, p)
        assert weak_lp_quasinorm(c * single, p) == c * weak_lp_quasinorm(single, p)
        assert hardy_quasinorm(c * flat, p) == c * hardy_quasinorm(flat, p)


# -- weak L_p ---------------------------------------------------------------------


def _scans(levels: LevelSet) -> tuple:
    """What the atom cells read off a float level set: weak L_1/2, and the weak-type constant at p = 3/4 with its level."""
    wt = _weak_type(levels, 0.75)
    return _weak_lp(levels, Fraction(1, 2), exact=False), wt.value, wt.attaining_level


def test_level_sets_equal_the_expanded_array():
    # Row i of a chunk stands for counts[j] points at |values[i, j]|: each
    # row's level set, counts at or above and scans are those of the
    # expanded array, bit for bit.  Ties join a shell value to support
    # values, zeros of either sign drop, and negatives count by magnitude.
    rng = np.random.default_rng(7)
    m = 6
    shells = 1 << (m - 1 - np.arange(3))  # 32, 16, 8 points
    counts = np.concatenate([shells, np.ones(5, np.int64)])
    rows = np.array([
        [3.0, 1.5, 0.75, 1.5, -0.75, 0.0, 3.0, 0.25],  # shell-support ties
        [0.0, -2.0, 2.0, -0.0, -1.0, 0.0, 2.0, -2.0],  # zeros and negatives
        [0.0] * 8,  # nothing above zero
        rng.choice([0.0, 0.25, -0.75, 2.0**-40, 3.0], 8),
        rng.standard_normal(8),
        rng.standard_normal(8),
    ])
    chunks = [
        (rows.reshape(2, 3, 8), counts),  # leading axes, taken in C order
        (rows[:1], counts),
        (rng.choice([0.0, 0.25, -0.75, 2.0**-40, 3.0], (2, 40)), rng.integers(1, 9, 40)),
        (rng.standard_normal((1, 30)), rng.integers(1, 1 << 20, 30)),
        # One trial at e = 13: a level-1 shell and 2^13 support cells.
        (rng.choice([0.0, 0.5, -0.5, 1.0, -3.0, 2.0**-30], (1, (1 << 13) + 1)),
         np.concatenate([[1 << 13], np.ones(1 << 13, np.int64)])),
    ]
    for values, weights in chunks:
        size = int(weights.sum()) + 3  # a few points of the group carry nothing
        got = _level_sets(values, weights, size)
        flat = values.reshape(-1, values.shape[-1])
        assert len(got) == len(flat)
        for row, sets in zip(flat, got):
            want = LevelSet.of(np.repeat(row, weights), None, size)
            assert (sets.levels, sets.above, sets.size) == (want.levels, want.above, size)
            assert {type(v) for v in sets.levels} <= {float} and {type(c) for c in sets.above} <= {int}
            assert _scans(sets) == _scans(want)
    [ties, signs, empty, *_] = _level_sets(rows, counts, 64)
    assert (ties.levels, ties.above) == ([0.25, 0.75, 1.5, 3.0], [60, 59, 50, 33])
    assert (signs.levels, signs.above) == ([1.0, 2.0], [27, 26])
    assert (empty.levels, empty.above, _scans(empty)) == ([], [], (0.0, 0.0, 0.0))


def _numpy_scalar_scan(levels: np.ndarray, counts: np.ndarray, candidate, zero) -> tuple:
    """The scan as it ran on numpy scalars: ``np.unique``'s levels and their suffix-summed counts, entry by entry."""
    best = level = zero
    for v, c in zip(levels, counts[::-1].cumsum()[::-1]):
        cand = candidate(v, c)
        if cand > best:
            best, level = cand, v
    return best, level


def _unique_levels(values) -> tuple:
    levels, counts = np.unique(np.abs(values), return_counts=True)
    keep = levels != 0
    return levels[keep], counts[keep]


@pytest.mark.parametrize("kind", ["gauss", "dyadic"])
def test_list_scan_equals_the_numpy_scalar_scan(kind):
    # The scans read Python floats and ints; each value and attaining level
    # must be the numpy-scalar scan's, bit for bit.
    m = 16
    rng = np.random.default_rng(16)
    if kind == "gauss":
        values = rng.standard_normal(1 << m)
    else:
        values = rng.integers(-64, 65, 1 << m) / 2.0 ** rng.integers(0, 8, 1 << m)
    f = DyadicFunction.from_values(m, values)
    g = f.with_values(np.abs(values))
    levels, counts = _unique_levels(values)
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        root, pw = float(1 / p), float(p)
        weak = lambda v, c: v * (c / f.size) ** root  # noqa: E731
        want = _numpy_scalar_scan(levels, counts, weak, 0.0)
        assert LevelSet.of(values, None, f.size).scan(weak, 0.0) == want
        assert weak_lp_quasinorm(f, p) == want[0]
        best, level = _numpy_scalar_scan(levels, counts, lambda v, c: float(v) ** pw * (int(c) / f.size), 0.0)
        wt = weak_type_constant(g, p)
        assert (wt.value, wt.attaining_level) == (best, float(level))


def test_list_scan_equals_the_numpy_scalar_scan_exact():
    # Exact levels are Fractions and ints; the counts are Python ints either way.
    m = 8
    rng = np.random.default_rng(8)
    values = [Fraction(int(v), int(d)) for v, d in zip(rng.integers(-9, 10, 1 << m), rng.choice([1, 3, 4, 12], 1 << m))]
    f = DyadicFunction(m, np.array(values, dtype=object), "exact")
    g = f.with_values(np.array([abs(v) for v in values], dtype=object))
    levels, counts = _unique_levels(np.array(values, dtype=object))
    for q in (1, 2, 3):
        want = _numpy_scalar_scan(levels, counts, lambda v, c: v * Fraction(int(c), f.size) ** q, Fraction(0))
        got = weak_lp_quasinorm(f, Fraction(1, q))
        assert got == want[0] and type(got) is Fraction
        best, level = _numpy_scalar_scan(levels, counts, lambda v, c: float(v) ** (1 / q) * (int(c) / f.size), 0.0)
        wt = weak_type_constant(g, Fraction(1, q))
        assert (wt.value, wt.attaining_level) == (best, float(level))


def test_weak_lp_single_level_matches_lp():
    for n in (1, 3):
        f = dirichlet_dyadic(n, 5)
        p = Fraction(1, 2)
        assert weak_lp_quasinorm(f, p) == lp_quasinorm(f, p)


def test_weak_lp_zero():
    assert weak_lp_quasinorm(DyadicFunction.zeros(3), 0.5) == 0.0
    assert weak_lp_quasinorm(DyadicFunction.zeros(3, "exact"), Fraction(1, 2)) == 0


def test_weak_lp_sup_is_attained_from_left():
    # Two levels: the sup over thresholds lands exactly on a level value.
    f = DyadicFunction.from_values(2, [4.0, 1.0, 1.0, 0.0])
    p = 1.0
    # candidates: 4 * 1/4 = 1 and 1 * 3/4 = 3/4
    assert weak_lp_quasinorm(f, p) == 1.0


def test_weak_lp_below_lp_chebyshev():
    rng = np.random.default_rng(31)
    for m in (4, 8, 12):
        for _ in range(30 if m < 12 else 5):
            f = DyadicFunction.from_values(m, rng.standard_normal(1 << m))
            for p in (0.25, 0.5, 1.0):
                assert weak_lp_quasinorm(f, p) <= lp_quasinorm(f, p) * (1 + 1e-12)


def test_weak_lp_equals_lp_for_unimodular_values():
    # Any function with |f| = 1 everywhere has both quasi-norms equal to 1.
    rng = np.random.default_rng(37)
    for m in range(1, 7):
        for n in range(1 << m):
            f = walsh(n, m)
            assert weak_lp_quasinorm(f, Fraction(1, 2)) == 1
            assert lp_quasinorm(f, Fraction(1, 2)) == 1
        signs = rng.choice([-1.0, 1.0], size=1 << m)
        f = DyadicFunction.from_values(m, signs)
        assert weak_lp_quasinorm(f, 0.5) == 1.0 == lp_quasinorm(f, 0.5)


_EXACT_KINDS = ("ints", "past-int64", "thirds", "dyadic")


@given(st.integers(1, 8), st.sampled_from((1, 2, 3)), st.sampled_from(_EXACT_KINDS), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_weak_lp_matches_definition_exact(m, q, kind, seed):
    # Small entries repeat, so most levels are held by several points.
    rng = np.random.default_rng(seed)
    small = [int(v) for v in rng.integers(-4, 5, 1 << m)]
    values = {
        "ints": small,
        "past-int64": [v * 2**70 + int(b) for v, b in zip(small, rng.integers(0, 2, 1 << m))],
        "thirds": [Fraction(v, 3) for v in small],
        "dyadic": [Fraction(v, 1 << int(e)) for v, e in zip(small, rng.integers(0, 6, 1 << m))],
    }[kind]
    f = DyadicFunction(m, np.array(values, dtype=object), "exact")
    got = weak_lp_quasinorm(f, Fraction(1, q))
    assert got == weak_lp_by_definition(values, m, Fraction(1, q))
    assert type(got) is Fraction


@given(st.integers(1, 8), st.sampled_from((1, 2, 3)), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_weak_lp_matches_definition_float(m, q, dyadic, seed):
    # Dyadic entries of a few bits keep every candidate exact, so the float
    # result must equal the rounded definition bit for bit.
    rng = np.random.default_rng(seed)
    if dyadic:
        values = rng.integers(-8, 9, 1 << m) / 2.0 ** rng.integers(0, 4, 1 << m)
    else:
        values = rng.standard_normal(1 << m)
    got = weak_lp_quasinorm(DyadicFunction.from_values(m, values), Fraction(1, q))
    want = float(weak_lp_by_definition(values.tolist(), m, Fraction(1, q)))
    if dyadic:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12)


# -- maximal function ---------------------------------------------------------------


def test_maximal_of_nonnegative_constant():
    f = DyadicFunction.constant(3, 2, "exact")
    assert maximal_function(f).values.tolist() == [2] * 8


def test_maximal_of_counterexample():
    f = counterexample_fn(2, 5)
    got = maximal_function(f)
    expected = [4 if idx < 8 else 0 for idx in range(32)]
    assert got.values.tolist() == expected


def test_maximal_matches_interval_average_oracle():
    rng = np.random.default_rng(41)
    m = 4
    for _ in range(10):
        vals = rng.standard_normal(1 << m)
        f = DyadicFunction.from_values(m, vals)
        assert np.allclose(maximal_function(f).values, interval_average_maximal(vals, m), atol=1e-13)
    # Averages of dyadic values are exact, so the two agree bit for bit.
    for k in range(1, 1 << m):
        f = walsh(k, m, "float64")
        assert maximal_function(f).values.tolist() == interval_average_maximal(f.values, m)
    for mm in range(1, 7):
        ints = rng.integers(-64, 65, 1 << mm)
        f = DyadicFunction.from_values(mm, ints / 8.0)
        assert maximal_function(f).values.tolist() == interval_average_maximal(ints / 8.0, mm)
        exact = [Fraction(int(v), 8) for v in ints]
        g = DyadicFunction.from_values(mm, exact, "exact")
        assert maximal_function(g).values.tolist() == interval_average_maximal(exact, mm)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_maximal_dominates_absolute_value(m, seed):
    rng = np.random.default_rng(seed)
    f = DyadicFunction.from_values(m, rng.standard_normal(1 << m))
    assert np.all(maximal_function(f).values >= np.abs(f.values))


def test_block_average_oracle_is_the_interval_average_oracle():
    rng = np.random.default_rng(43)
    for m in range(1, 7):
        vals = rng.integers(-64, 65, 1 << m) / 8.0
        assert block_average_maximal(vals, m).tolist() == interval_average_maximal(vals, m)


def test_atom_hardy_and_the_maximal_reader_match_the_grid():
    # The packet table's Q = {} rows are the cells' dyadic averages, so the
    # Hardy norm read off them is the grid's, bit for bit. A nonzero mean
    # puts a term on every shell off the support.
    rng = np.random.default_rng(44)
    for e in range(1, 9):
        gaussian = rng.standard_normal((3, 1 << e))
        dyadic = rng.integers(-64, 65, (3, 1 << e)) / 8.0 + 0.25
        for cells in (gaussian, dyadic):
            packets = _packet_table(cells, e)
            before = [table.copy() for table in packets]
            for level in (1, 3, 6):
                for p in (Fraction(1, 4), Fraction(1, 2), 0.75):
                    m = level + e
                    grid = np.zeros((3, 1 << m))
                    grid[:, : 1 << e] = cells
                    expected = [hardy_quasinorm(DyadicFunction(m, row, "float64"), p) for row in grid]
                    assert _atom_hardy(packets, level, m, p) == expected
            assert all(np.array_equal(table, old) for table, old in zip(packets, before))
    # On the grid the maximal function read in chunks is the whole read.
    m = 6
    dyadic = np.random.default_rng(45).integers(-64, 65, 1 << m) / 8.0
    for values in (np.random.default_rng(46).standard_normal(1 << m), dyadic):
        f = DyadicFunction(m, values.copy(), "float64")
        cells, _ = _maximal_numerators(f)
        whole = cells(0, 1 << m)
        assert np.array_equal(f.values, values)
        assert np.array_equal(np.concatenate([cells(i, i + 16) for i in range(0, 1 << m, 16)]), whole)
        assert whole.tobytes() == maximal_function(f).values.tobytes()
    assert whole.tolist() == block_average_maximal(dyadic, m).tolist()


# -- float norms at large resolutions -------------------------------------------------

_NORM_EXPONENTS = (Fraction(1, 2), Fraction(1, 3), 0.7)

# For the standard normal draw of default_rng(2000 + m): the leading 16 hex
# digits of the sha256 of the maximal function's little-endian bytes, the
# mean, and (hardy, lp) per exponent above, as the full-grid pyramid and one
# math.fsum over all 2^m powers gave them.
_GAUSSIAN_PINS = {
    3: ("c7eebe609727eced", "0x1.652b550a56caep-1", ("0x1.227803498ee4ep+0", "0x1.53c89676dbfbfp-1"), ("0x1.1fbab7a209834p+0", "0x1.3b21d17e91aeep-1"), ("0x1.25c504e707e8ep+0", "0x1.712ef28f130e2p-1")),
    15: ("d0e61ec3cff1e3dc", "-0x1.18afb68f9b487p-8", ("0x1.c7de49fefd0abp-1", "0x1.59efedcc08ec1p-1"), ("0x1.bcca70015737cp-1", "0x1.42aea53812f2cp-1"), ("0x1.d5495296434d0p-1", "0x1.7416290c6c911p-1")),
    16: ("80a761ec0784c5d8", "-0x1.e442ad65a0c51p-9", ("0x1.c831450506eabp-1", "0x1.59dd80a7e3405p-1"), ("0x1.bd190a79ff377p-1", "0x1.428afd6497ce5p-1"), ("0x1.d59ce202e8c0fp-1", "0x1.74162759ed1cap-1")),
    17: ("dc95bb449dd1329c", "0x1.1c7d0bae5965dp-8", ("0x1.c74510dcbbab3p-1", "0x1.5966d79679340p-1"), ("0x1.bc1b39a21b58cp-1", "0x1.4221778036413p-1"), ("0x1.d4c90acb4ae9dp-1", "0x1.739bf1b478396p-1")),
}


@pytest.mark.parametrize("m", sorted(_GAUSSIAN_PINS))
def test_float_norms_match_definitions_on_dyadic_input(m):
    vals = np.random.default_rng(m).integers(-64, 65, 1 << m) / 8.0
    f = DyadicFunction.from_values(m, vals)
    maximal = block_average_maximal(vals, m)
    assert maximal_function(f).values.tobytes() == maximal.tobytes()
    assert f.integral() == math.fsum(vals.tolist()) / f.size
    for p in _NORM_EXPONENTS:
        assert hardy_quasinorm(f, p).hex() == lp_by_definition(maximal, float(p)).hex()
        assert lp_quasinorm(f, p).hex() == lp_by_definition(vals, float(p)).hex()


@pytest.mark.parametrize("m", sorted(_GAUSSIAN_PINS))
def test_float_norms_keep_their_gaussian_values(m):
    digest, mean, *norms = _GAUSSIAN_PINS[m]
    f = DyadicFunction(m, np.random.default_rng(2000 + m).standard_normal(1 << m), "float64")
    assert hashlib.sha256(maximal_function(f).values.astype("<f8").tobytes()).hexdigest()[:16] == digest
    assert f.integral().hex() == mean
    for p, (hardy, lp) in zip(_NORM_EXPONENTS, norms):
        assert (hardy_quasinorm(f, p).hex(), lp_quasinorm(f, p).hex()) == (hardy, lp)


def test_hardy_quasinorm_traced_peak_stays_small():
    # The pyramid's averages are 4 MiB at m = 19; the full-grid maximal
    # function, its |.| copies and all 2^19 powers took 14 MiB.
    f = counterexample_fn(18, 19, "float64")
    tracemalloc.start()
    try:
        norm = hardy_quasinorm(f, Fraction(1, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norm == 2.0**-18
    assert peak < 6 << 20


# -- H_p ------------------------------------------------------------------------------


def test_hardy_of_counterexample_exact():
    for n in (1, 2, 3, 4):
        f = counterexample_fn(n, 6)
        for q in (2, 3):
            assert hardy_quasinorm(f, Fraction(1, q)) == Fraction(2) ** (n * (1 - q))


def test_hardy_dominates_lp_for_nonnegative():
    f = DyadicFunction.from_values(3, [1.0, 2.0, 0.5, 3.0, 1.5, 0.25, 2.5, 1.0])
    p = 0.5
    assert hardy_quasinorm(f, p) >= lp_quasinorm(f, p)


def test_hardy_of_constant_one():
    assert hardy_quasinorm(DyadicFunction.constant(4, 1, "exact"), Fraction(1, 2)) == 1


# -- atoms ----------------------------------------------------------------------------


def _haar_atom(level, m, p):
    bound = atom_sup_bound(level, p, "exact")
    iv = interval(GroupPoint(m, 0), level)
    vals = np.full(1 << m, 0, dtype=object)
    half = iv.size // 2
    vals[iv.start : iv.start + half] = bound
    vals[iv.start + half : iv.stop] = -bound
    return AtomSpec(iv, DyadicFunction(m, vals, "exact"), p)


def test_validate_haar_atom_passes_exactly():
    p = PExponent.parse("1/2")
    for level in (0, 2):  # level 0 supports the whole group, so nothing lies outside
        rep = validate_atom(_haar_atom(level, 5, p))
        assert rep.passed and rep.worst_violation == 0.0


def test_validate_rejects_nonzero_mean():
    p = PExponent.parse("1/2")
    iv = interval(GroupPoint(4, 0), 2)
    vals = np.full(16, 0, dtype=object)
    vals[iv.start : iv.stop] = atom_sup_bound(2, p, "exact")
    rep = validate_atom(AtomSpec(iv, DyadicFunction(4, vals, "exact"), p))
    assert not rep.zero_mean and rep.sup_bound and rep.support
    assert rep.worst_violation > 0


def test_validate_rejects_sup_violation():
    p = PExponent.parse("1/2")
    iv = interval(GroupPoint(4, 0), 2)
    vals = np.full(16, 0, dtype=object)
    vals[0], vals[1] = 32, -32  # bound is 16
    rep = validate_atom(AtomSpec(iv, DyadicFunction(4, vals, "exact"), p))
    assert rep.zero_mean and not rep.sup_bound
    assert rep.worst_violation == 16.0


def test_validate_rejects_off_support_mass():
    p = PExponent.parse("1/2")
    iv = interval(GroupPoint(4, 0), 2)
    vals = np.full(16, 0, dtype=object)
    vals[10] = 1
    rep = validate_atom(AtomSpec(iv, DyadicFunction(4, vals, "exact"), p))
    assert not rep.support and rep.zero_mean  # mass sits outside; the support mean is 0


def test_validate_zero_atom_passes():
    p = PExponent.parse("1/4")
    iv = interval(GroupPoint(4, 1 << 3), 1)  # x_0 = 1, all others 0
    rep = validate_atom(AtomSpec(iv, DyadicFunction.zeros(4, "exact"), p))
    assert rep.passed


def test_validation_report_json_shape():
    p = PExponent.parse("1/2")
    d = validate_atom(_haar_atom(1, 3, p)).to_json_dict()
    assert set(d) == {"zero_mean", "sup_bound", "support", "worst_violation"}
