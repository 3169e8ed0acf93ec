import math
import struct
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshlab.functions import (
    _SUM_CHUNK,
    DyadicFunction,
    _exact_sum,
    load_binary,
    load_csv,
    store_binary,
    store_csv,
    translate,
    values_equal,
)
from walshlab.group import GroupPoint
from walshlab.spectral import fwht_forward, partial_sum, walsh


def test_exact_mode_rejects_non_dyadic():
    with pytest.raises(ValueError):
        DyadicFunction.from_values(1, [Fraction(1, 3), 0], "exact")
    with pytest.raises(ValueError):
        DyadicFunction.from_values(1, [0.5, 0], "exact")


def test_exact_mode_accepts_dyadic_rationals():
    f = DyadicFunction.from_values(1, [Fraction(3, 8), -2], "exact")
    assert f.integral() == Fraction(3, 16) - 1


def test_float_constructors_reject_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            DyadicFunction.from_values(2, [bad, 0, 0, 0])
        with pytest.raises(ValueError, match="finite"):
            DyadicFunction.constant(2, bad)


def test_length_checked():
    with pytest.raises(ValueError):
        DyadicFunction.from_values(2, [1.0, 2.0])


def test_values_are_read_only():
    f = DyadicFunction.zeros(3)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_arithmetic_and_modes():
    a = DyadicFunction.from_values(2, [1, 2, 3, 4], "exact")
    b = DyadicFunction.constant(2, Fraction(1, 2), "exact")
    assert (a + b).values[0] == Fraction(3, 2)
    assert (a - b).values[3] == Fraction(7, 2)
    assert (a * b).values[1] == 1
    assert (Fraction(1, 4) * a).values[2] == Fraction(3, 4)
    assert abs(-a).values.tolist() == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        a + DyadicFunction.zeros(2)  # mode mismatch
    with pytest.raises(ValueError):
        a * 0.5  # non-rational scalar in exact mode


def test_integral_float_uses_compensated_sum():
    vals = [1e16, 1.0, -1e16, 1.0]
    f = DyadicFunction.from_values(2, vals)
    assert f.integral() == 0.5


def test_translate_is_xor():
    f = DyadicFunction.from_values(3, list(range(8)), "exact")
    g = translate(f, 5)
    assert g.values.tolist() == [idx ^ 5 for idx in range(8)]
    assert values_equal(translate(g, GroupPoint(3, 5)), f)


def test_translate_range_check():
    with pytest.raises(ValueError):
        translate(DyadicFunction.zeros(2), 4)


def test_translate_point_must_share_resolution():
    f = DyadicFunction.from_values(3, list(range(8)), "exact")
    with pytest.raises(ValueError, match="resolution 5"):
        translate(f, GroupPoint(5, 3))


def test_csv_roundtrip_exact(tmp_path):
    f = DyadicFunction.from_values(2, [3, Fraction(-1, 2), 0, Fraction(7, 8)], "exact")
    path = tmp_path / "f.csv"
    store_csv(f, path)
    g = load_csv(path)
    assert g.mode == "exact"
    assert values_equal(f, g)
    assert "-1/2" in path.read_text()


def test_csv_roundtrip_float(tmp_path):
    rng = np.random.default_rng(3)
    f = DyadicFunction.from_values(4, rng.standard_normal(16))
    path = tmp_path / "f.csv"
    store_csv(f, path)
    g = load_csv(path)
    assert g.mode == "float64"
    assert np.array_equal(f.values, g.values)  # repr round-trips exactly


def test_csv_spectrum_roundtrip(tmp_path):
    spec = fwht_forward(walsh(3, 3))
    path = tmp_path / "spec.csv"
    store_csv(spec, path)
    g = load_csv(path)
    assert g.values.tolist() == spec.coeffs.tolist()


def test_csv_rejects_bad_shapes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n0,1\n1,2\n2,3\n")
    with pytest.raises(ValueError):
        load_csv(path)  # 3 values is not a power of two
    path.write_text("value\n1\n")
    with pytest.raises(ValueError):
        load_csv(path)
    for bad in ("nan", "inf", "-inf", "1/0"):
        path.write_text(f"index,value\n0,1\n1,{bad}\n")
        with pytest.raises(ValueError):
            load_csv(path)
    # A power-of-two count whose indices skip or repeat one.
    for indices in ((0, 2), (1, 1), (0, 1, 2, 5)):
        path.write_text("index,value\n" + "".join(f"{i},1\n" for i in indices))
        with pytest.raises(ValueError, match=f"indices are not 0..{len(indices) - 1}"):
            load_csv(path)


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    f = DyadicFunction.from_values(5, rng.standard_normal(32))
    path = tmp_path / "f.bin"
    store_binary(f, path)
    g = load_binary(path)
    assert np.array_equal(f.values, g.values)
    assert path.stat().st_size == 8 + 32 * 8


def test_binary_rejects_exact_and_corrupt(tmp_path):
    with pytest.raises(ValueError):
        store_binary(DyadicFunction.zeros(2, "exact"), tmp_path / "x.bin")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x03" + b"\x00" * 7 + b"\x00" * 24)
    with pytest.raises(ValueError):
        load_binary(bad)
    for value in (np.nan, np.inf):
        bad.write_bytes(struct.pack("<Q", 2) + np.array([1.0, value]).astype("<f8").tobytes())
        with pytest.raises(ValueError, match="not finite"):
            load_binary(bad)
    for raw in (b"", b"\x02\x00\x00"):
        bad.write_bytes(raw)
        with pytest.raises(ValueError, match="truncated header"):
            load_binary(bad)
    payload = np.array([1.0, 2.0]).astype("<f8").tobytes()
    for body in (payload[:-1], payload + b"\x00", b""):
        bad.write_bytes(struct.pack("<Q", 2) + body)
        with pytest.raises(ValueError, match=f"expected 16 payload bytes, got {len(body)}"):
            load_binary(bad)


# -- the float sum ------------------------------------------------------------------

DBL_MAX = sys.float_info.max
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.floats(-2.3e-308, 2.3e-308),  # subnormal and least normal magnitudes
)
_LENGTHS = st.one_of(
    st.integers(0, 64), st.integers(_SUM_CHUNK - 2, _SUM_CHUNK + 2), st.integers(2 * _SUM_CHUNK, 3 * _SUM_CHUNK)
)


def _outcome(total):
    """``total()`` as the hex of its float, or the type and text of what it raised."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_sums_like_fsum(x: np.ndarray) -> None:
    got, want = _outcome(lambda: _exact_sum(x)), _outcome(lambda: math.fsum(x.tolist()))
    if want == (OverflowError, "intermediate overflow in fsum"):
        # fsum raises when a running sum leaves the float range; the exact
        # sum, correctly rounded as float(Fraction) rounds it, is then due.
        exact = sum((Fraction(v) * n for v, n in Counter(x.tolist()).items()), Fraction(0))
        want = _outcome(lambda: float(exact))
    assert got == want


@given(st.lists(_FINITE, max_size=40), _LENGTHS, st.booleans())
@settings(max_examples=80, deadline=None)
def test_float_sum_is_fsum_bit_for_bit(base, length, cancel):
    x = np.resize(np.array(base, dtype=np.float64), length if base else 0)
    if cancel:
        x = np.concatenate([x, -x[::-1]])  # sums to exactly 0
    _assert_sums_like_fsum(x)


@given(
    st.lists(st.floats(), min_size=1, max_size=20),
    st.integers(0, 2 * _SUM_CHUNK),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
@settings(max_examples=40, deadline=None)
def test_float_sum_reads_non_finite_input_as_fsum_does(base, at, special):
    x = np.resize(np.array(base, dtype=np.float64), 2 * _SUM_CHUNK + 1)
    x[at] = special
    assert _outcome(lambda: _exact_sum(x)) == _outcome(lambda: math.fsum(x.tolist()))


@pytest.mark.parametrize(
    "values, total",
    [
        ([], 0.0),
        ([5e-324] * 3, 1.5e-323),
        ([5e-324, -5e-324], 0.0),
        ([2.2250738585072014e-308, -5e-324], 2.225073858507201e-308),
        ([1e308, 1.0, -1e308], 1.0),
        ([DBL_MAX, DBL_MAX, -DBL_MAX], DBL_MAX),  # fsum raises on its running sum here
    ],
)
def test_float_sum_edge_cases(values, total):
    assert _exact_sum(np.array(values, dtype=np.float64)).hex() == total.hex()


@pytest.mark.parametrize("values", [[DBL_MAX, DBL_MAX], [-DBL_MAX, -1e300], [DBL_MAX, 2.0**970]])
def test_float_sum_raises_past_the_float_range(values):
    # DBL_MAX + 2^970 lies halfway to 2^1024 and rounds to it.
    with pytest.raises(OverflowError):
        _exact_sum(np.array(values))
    with pytest.raises(OverflowError):
        math.fsum(values)
