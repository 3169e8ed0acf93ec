import struct
from fractions import Fraction

import numpy as np
import pytest

from walshlab.functions import (
    DyadicFunction,
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
