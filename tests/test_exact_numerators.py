"""Exact mode on integer numerators: both numerator widths, non-dyadic values and element types.

The transform, the partial sums, the maximal function, the level counts
behind the norms and the maximal operators run exact inputs as integer
numerators over one common denominator: int64 when a stated bound rules
out overflow, Python ints in an object array otherwise.  Each input here
sits on one side of that bound, and every result must equal the
definitional oracle exactly, with the element types Fraction arithmetic
gives: ``Fraction`` everywhere, except ints from the inverse transform of
int coefficients.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from walshlab import analysis, operators, spectral
from walshlab.analysis import PExponent, hardy_quasinorm, lp_quasinorm, maximal_function, weak_lp_quasinorm
from walshlab.functions import DyadicFunction, SpectralVector
from walshlab.operators import (
    PolyWeight,
    RhoWeight,
    TableWeight,
    UnitWeight,
    restricted_maximal,
    weighted_maximal,
)

from oracles import (
    interval_average_maximal,
    naive_forward,
    partial_sum_by_definition,
    walsh_value,
    weighted_maximal_by_definition,
)

M = 3
SIZE = 1 << M
RNG = np.random.default_rng(2024)

#: name -> (values, the numerator dtype the engines must pick)
INPUTS = {
    "small-ints": ([int(v) for v in RNG.integers(-9, 10, SIZE)], np.int64),
    "small-dyadic": ([Fraction(int(a), 1 << int(b)) for a, b in
                      zip(RNG.integers(-99, 100, SIZE), RNG.integers(0, 6, SIZE))], np.int64),
    "wide-dyadic": ([Fraction(2**61 + 1 + int(a), 2**40) for a in RNG.integers(-3, 4, SIZE)], object),
    "wide-ints": ([2**60 * int(s) + int(a) for s, a in
                   zip(RNG.choice([-1, 1], SIZE), RNG.integers(-5, 6, SIZE))], object),
    "thirds": ([Fraction(int(a), 3) for a in RNG.integers(-9, 10, SIZE)], np.int64),
}

P_HALF = PExponent.parse("1/2")
SCHEMES = [
    UnitWeight(),
    RhoWeight(P_HALF),
    RhoWeight(PExponent.parse("1/3")),
    PolyWeight(P_HALF),
    TableWeight(tuple((n, Fraction(4 * n + 5, 3)) for n in range(1, SIZE + 1))),
]


def _function(values) -> DyadicFunction:
    # Built directly, as DyadicFunction.from_values accepts dyadic rationals only.
    return DyadicFunction(M, np.array(values, dtype=object), "exact")


@pytest.fixture
def widths(monkeypatch):
    """The dtype of every numerator array the transform, the norms and the engines build."""
    seen = []
    for module in (spectral, analysis, operators):
        original = module._numerators

        def spy(*args, _original=original, **kwargs):
            nums, unit = _original(*args, **kwargs)
            seen.append(nums.dtype)
            return nums, unit

        monkeypatch.setattr(module, "_numerators", spy)
    return seen


def _types(values) -> set:
    return {type(v) for v in values}


def _level_width(values) -> np.dtype:
    """The numerator dtype of the level counts: headroom 0 over the lcm of the denominators."""
    exact = [Fraction(v) for v in values]
    denom = math.lcm(*(v.denominator for v in exact))
    top = max(abs(v.numerator) * (denom // v.denominator) for v in exact)
    return np.dtype(np.int64 if top.bit_length() <= 62 else object)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_transform_numerators(name, widths):
    values, dtype = INPUTS[name]
    spec = spectral.fwht_forward(_function(values))
    assert spec.coeffs.tolist() == naive_forward(values, M)
    assert _types(spec.coeffs) == {Fraction}
    back = spectral.fwht_inverse(spec)
    assert back.values.tolist() == values
    assert _types(back.values) == {Fraction}
    assert widths == [np.dtype(dtype)] * 2


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_inverse_numerators(name, widths):
    coeffs, dtype = INPUTS[name]
    back = spectral.fwht_inverse(SpectralVector(M, np.array(coeffs, dtype=object), "exact"))
    want = [sum(c * walsh_value(k, x, M) for k, c in enumerate(coeffs)) for x in range(SIZE)]
    assert back.values.tolist() == want
    # Int coefficients give ints, as the butterfly on ints did; a Fraction anywhere gives Fractions.
    assert _types(back.values) == ({int} if name.endswith("ints") else {Fraction})
    assert widths == [np.dtype(dtype)]


def test_inverse_of_int_valued_fractions_stays_fraction():
    back = spectral.fwht_inverse(SpectralVector(1, np.array([Fraction(3), 1], dtype=object), "exact"))
    assert back.values.tolist() == [4, 2]
    assert _types(back.values) == {Fraction}


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_weighted_maximal_numerators(name, scheme, widths):
    values, dtype = INPUTS[name]
    got = weighted_maximal(_function(values), scheme).values
    want = weighted_maximal_by_definition(values, M, lambda n: Fraction(scheme.at(n)))
    assert got.tolist() == want
    assert _types(got) == {Fraction}
    assert widths == [np.dtype(dtype)]


@pytest.mark.parametrize("scheme", [RhoWeight(P_HALF), PolyWeight(P_HALF), SCHEMES[-1]],
                         ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_restricted_maximal_numerators(name, scheme, widths):
    values, dtype = INPUTS[name]
    orders = (1, 3, 5, 6, SIZE) if isinstance(scheme, TableWeight) else (1, 3, 5, 6, SIZE, SIZE + 3)
    got = restricted_maximal(_function(values), orders, scheme).values
    sums = partial_sum_by_definition(values, M)
    want = [
        max(abs(sums[min(n, SIZE) - 1][x]) / Fraction(scheme.at(n)) for n in orders)
        for x in range(SIZE)
    ]
    assert got.tolist() == want
    assert _types(got) == {Fraction}
    assert widths == [np.dtype(dtype)]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_partial_sum_numerators(name, widths):
    values, dtype = INPUTS[name]
    f = _function(values)
    sums = partial_sum_by_definition(values, M)
    for n in range(1, SIZE):
        got = spectral.partial_sum(f, n).values
        assert got.tolist() == sums[n - 1]
        assert _types(got) == {Fraction}
    assert widths == [np.dtype(dtype)] * (SIZE - 1)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_maximal_function_numerators(name, widths):
    values, dtype = INPUTS[name]
    got = maximal_function(_function(values)).values
    assert got.tolist() == interval_average_maximal(values, M)
    assert _types(got) == {Fraction}
    assert widths == [np.dtype(dtype)]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_norm_numerators(name, widths):
    values, dtype = INPUTS[name]
    f = _function(values)
    exact = [abs(Fraction(v)) for v in values]
    peaks = interval_average_maximal(values, M)
    weak = max(v * Fraction(sum(u >= v for u in exact), SIZE) ** 2 for v in exact)
    got = [lp_quasinorm(f, 1), weak_lp_quasinorm(f, P_HALF), hardy_quasinorm(f, 1)]
    assert got == [sum(exact) / SIZE, weak, sum(peaks) / SIZE]
    assert _types(got) == {Fraction}
    # lp and weak count the levels of f; hardy counts its levels on the pyramid's
    # own numerators, with no second conversion.
    assert widths == [_level_width(values)] * 2 + [np.dtype(dtype)]


def test_level_counts_past_int64(widths):
    values = [2**70, -(2**70), Fraction(2**70 + 1, 2), 0, 3, -3, 2**70, 1]
    f = DyadicFunction(M, np.array(values, dtype=object), "exact")
    levels, above, _ = analysis.LevelSet.of(*analysis._numerators(f.values, 0), SIZE)
    assert levels == [1, 3, Fraction(2**70 + 1, 2), 2**70]
    assert above == [7, 6, 4, 3]  # points at or above each level; per level 1, 2, 1, 3
    assert widths == [np.dtype(object)]
    assert weak_lp_quasinorm(f, 1) == max(v * Fraction(c, SIZE) for v, c in
                                          ((1, 7), (3, 6), (Fraction(2**70 + 1, 2), 4), (2**70, 3)))
