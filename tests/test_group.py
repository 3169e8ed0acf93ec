from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from walshlab.functions import DyadicFunction, translate
from walshlab.group import (
    DyadicInterval,
    GroupPoint,
    Resolution,
    interval,
    measure,
    shell_decomposition,
)
from walshlab.operators import Subsequence

from oracles import interval_members


def test_resolution_bounds():
    assert Resolution(1).size == 2
    assert Resolution(24).size == 1 << 24
    for bad in (0, 25, -3):
        with pytest.raises(ValueError):
            Resolution(bad)


def test_resolution_takes_any_integer_but_bool():
    for m in (np.int64(5), np.int32(5), np.uint8(5)):
        r = Resolution(m)
        assert r == Resolution(5) and type(r.m) is int
    for bad in (True, False, 5.0, np.float64(5), np.bool_(True), "5"):
        with pytest.raises(ValueError):
            Resolution(bad)


def test_point_and_interval_fields_take_any_integer_but_bool():
    p = GroupPoint(np.int64(4), np.int32(3))
    assert p == GroupPoint(4, 3) and type(p.m) is int and type(p.idx) is int
    assert p.coordinates() == (0, 0, 1, 1)
    iv = DyadicInterval(np.int8(4), np.int64(2), np.uint16(4))
    assert iv == DyadicInterval(4, 2, 4) and iv.size == 4
    assert all(type(v) is int for v in (iv.m, iv.level, iv.start))
    for bad in (3.0, True, np.float64(3)):
        with pytest.raises(ValueError, match="must be an integer"):
            GroupPoint(4, bad)
        with pytest.raises(ValueError, match="must be an integer"):
            GroupPoint(bad, 0)
    for fields in ((2.0, 4), (True, 4), (2, 4.0), (0, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            DyadicInterval(4, *fields)


def test_coordinates_roundtrip():
    for idx in range(16):
        p = GroupPoint(4, idx)
        assert int("".join(map(str, p.coordinates())), 2) == idx  # coordinate 0 is the MSB


def test_group_addition_is_xor():
    a, b = GroupPoint(3, 5), GroupPoint(3, 3)
    assert (a ^ b).idx == 6
    assert (a ^ a).idx == 0


def test_interval_whole_group():
    iv = interval(GroupPoint(4, 7), 0)
    assert iv.indices() == range(0, 16)
    assert iv.measure == 1


def test_interval_upper_half():
    iv = interval(GroupPoint(3, 1 << 2), 1)  # x_0 = 1, all others 0
    assert iv.indices() == range(4, 8)


def test_interval_matches_membership_oracle():
    for m in (3, 4):
        for idx in range(1 << m):
            for level in range(m + 1):
                iv = interval(GroupPoint(m, idx), level)
                assert list(iv.indices()) == interval_members(idx, level, m)


def test_interval_example_idx5():
    iv = interval(GroupPoint(3, 5), 2)
    assert list(iv.indices()) == [4, 5]
    assert iv.base == GroupPoint(3, 4) and str(iv) == "I_2(4)@m=3"
    assert iv.measure == Fraction(1, 4)


def test_interval_errors():
    with pytest.raises(ValueError):
        interval(GroupPoint(3, 5), 4)
    with pytest.raises(ValueError):
        DyadicInterval(3, 2, 3)  # unaligned start


@given(st.integers(1, 8), st.data())
def test_interval_nesting_and_measures(m, data):
    idx = data.draw(st.integers(0, (1 << m) - 1))
    x = GroupPoint(m, idx)
    prev = None
    for level in range(m + 1):
        iv = interval(x, level)
        assert x.idx in iv.indices()
        assert iv.measure == Fraction(1, 1 << level)
        if prev is not None:
            assert prev.start <= iv.start and iv.stop <= prev.stop
        prev = iv


@given(st.integers(1, 6), st.data())
def test_same_level_intervals_disjoint_or_identical(m, data):
    level = data.draw(st.integers(0, m))
    a = interval(GroupPoint(m, data.draw(st.integers(0, (1 << m) - 1))), level)
    b = interval(GroupPoint(m, data.draw(st.integers(0, (1 << m) - 1))), level)
    if a != b:
        assert a.stop <= b.start or b.stop <= a.start


def test_shell_decomposition_m2():
    sd = shell_decomposition(2)
    assert list(sd.shell(0)) == [2, 3]
    assert list(sd.shell(1)) == [1]
    assert measure(sd.shell(0), 2) == Fraction(1, 2)
    assert measure(sd.shell(1), 2) == Fraction(1, 4)


def test_shell_decomposition_m1():
    sd = shell_decomposition(1)
    assert sd.shells() == [(0, range(1, 2))]


def test_shell_partition_exhaustive():
    for m in range(1, 7):
        sd = shell_decomposition(m)
        seen = sorted(i for _, rng in sd.shells() for i in rng)
        assert seen == list(range(1, 1 << m))  # everything except the cell at 0
        for idx in range(1, 1 << m):
            assert idx in sd.shell(m - idx.bit_length())


def test_shell_total_measure():
    sd = shell_decomposition(4)
    total = sum(measure(sd.shell(s), 4) for s in range(4))
    assert total == Fraction(15, 16)


def test_measure_examples():
    assert measure([], 5) == 0
    assert measure(range(32), 5) == 1
    assert measure(range(8), 5) == Fraction(1, 4)
    assert measure([3, 3, 3], 5) == Fraction(1, 32)  # sets, not multisets
    with pytest.raises(ValueError):
        measure([32], 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: translate(DyadicFunction.zeros(2), 1.5),
        lambda: translate(DyadicFunction.zeros(2), True),
        lambda: translate(DyadicFunction.zeros(2), "1"),
        lambda: measure([0.5, 1], 2),
        lambda: interval(GroupPoint(3, 5), 1.0),
        lambda: GroupPoint(3, 5).coordinate(1.0),
        lambda: shell_decomposition(3).shell(1.0),
        lambda: Subsequence.powers_of_two(2.5),
    ],
    ids=["translate-float", "translate-bool", "translate-str", "measure", "interval", "coordinate", "shell",
         "powers_of_two"],
)
def test_group_level_calls_refuse_non_integer_arguments(call):
    # Never truncated to an integer, never a TypeError: bad input is a ValueError.
    with pytest.raises(ValueError, match="integer"):
        call()
