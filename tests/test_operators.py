import json
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshlab import experiments, operators
from walshlab.analysis import PExponent, hardy_quasinorm, lp_quasinorm, maximal_function
from walshlab.constructions import GENERATORS, AtomRecipe, counterexample_fn, make_atom
from walshlab.functions import DyadicFunction
from walshlab.operators import (
    PolyWeight,
    RhoWeight,
    Subsequence,
    TableWeight,
    UnitWeight,
    restricted_maximal,
    scheme_from_json,
    scheme_to_json,
    weak_type_constant,
    weighted_maximal,
)
from walshlab.spectral import dirichlet_dyadic, index_stats, partial_sum, walsh

from oracles import weighted_maximal_by_definition

P_HALF = PExponent.parse("1/2")


# -- weights -------------------------------------------------------------------


def test_weight_examples():
    assert RhoWeight(P_HALF).at(5) == 4  # spread 2, exponent 1
    for k in range(1, 8):
        assert RhoWeight(P_HALF).at(1 << k) == 1
    assert PolyWeight(P_HALF).at(7) == 8
    assert UnitWeight().at(123) == 1
    with pytest.raises(ValueError):
        RhoWeight(P_HALF).at(0)


def test_rho_weight_exact_powers():
    w = RhoWeight(PExponent.parse("1/3")).at(5)  # spread 2, exponent 2
    assert w == 16 and isinstance(w, int)
    w = RhoWeight(PExponent.parse("3/4")).at(5)  # exponent 1/3: float
    assert isinstance(w, float)


def test_table_weight_validation():
    TableWeight(((1, 1.0), (5, 2.0), (9, 2.0)))
    with pytest.raises(ValueError):
        TableWeight(((1, 2.0), (5, 1.0)))  # decreasing
    with pytest.raises(ValueError):
        TableWeight(((1, 0.5),))  # below 1
    with pytest.raises(ValueError):
        TableWeight(((5, 1.0), (2, 2.0)))  # unsorted orders
    for order in (0, -3):
        with pytest.raises(ValueError, match=f"table order {order} must be >= 1"):
            TableWeight(((order, 1.0), (5, 2.0)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="at n=5 is not finite"):
            TableWeight(((1, 1.0), (5, bad)))
    # Every entry is an integer order and a real weight; a bool is neither.
    for order in (1.5, 2.0, "2", None, True):
        with pytest.raises(ValueError, match="is not an integer"):
            TableWeight(((order, 2),))
    for bad in ("2", None, True, 2j):
        with pytest.raises(ValueError, match="at n=1 is not a real number"):
            TableWeight(((1, bad),))
    assert TableWeight(((np.int64(3), np.float64(2.0)),)).entries == ((3, Fraction(2)),)
    tw = TableWeight.from_dict({"4": 2.0, "2": 1.0})
    assert tw.at(4) == 2.0
    with pytest.raises(ValueError):
        tw.at(3)
    # The engines memoize weights by scheme, so equal tables must hash alike.
    assert tw == TableWeight(((2, 1.0), (4, 2.0))) and hash(tw) == hash(TableWeight(tw.entries))


def test_table_weight_is_decided_by_value():
    # A float table and the equal int table are one weight in exact mode too,
    # whichever of them a process reads first.
    f = DyadicFunction.from_values(1, [1, 0], "exact")

    def run(entries):
        return restricted_maximal(f, [1, 2], TableWeight(entries)).values.tolist()

    floats, ints = ((1, 3.0), (2, 5.0)), ((1, 3), (2, 5))
    assert run(floats) == run(ints) == run(floats) == [Fraction(1, 5), Fraction(1, 6)]
    assert TableWeight(floats).entries == TableWeight(ints).entries


def test_scheme_json_roundtrip():
    for scheme in (UnitWeight(), RhoWeight(P_HALF), PolyWeight(PExponent.parse("1/3")),
                   TableWeight(((2, 1.0), (6, 4.0)))):
        blob = json.dumps(scheme_to_json(scheme), sort_keys=True)
        back = scheme_from_json(json.loads(blob))
        assert json.dumps(scheme_to_json(back), sort_keys=True) == blob
    for data in ({"kind": "x"}, {}):
        with pytest.raises(ValueError, match="unknown weight scheme kind"):
            scheme_from_json(data)


def test_subsequence_validation():
    with pytest.raises(ValueError):
        Subsequence(())
    with pytest.raises(ValueError):
        Subsequence((3, 3))
    with pytest.raises(ValueError):
        Subsequence((0, 1))
    assert Subsequence.powers_of_two(3).indices == (1, 2, 4, 8)


# -- weighted maximal ------------------------------------------------------------


def test_weighted_maximal_walsh5_enumerated():
    # Enumerate all orders by hand: partial sums of w_5 at m = 3 are 0 below
    # order 6 and w_5 beyond; the damping at orders 6, 7, 8 is 2, 4, 1.
    f = walsh(5, 3)
    by_hand = None
    for n in range(1, 9):
        sn = partial_sum(f, n).values
        w = RhoWeight(P_HALF).at(n)
        cand = np.abs(sn) * (Fraction(1) / w)
        by_hand = cand if by_hand is None else np.maximum(by_hand, cand)
    assert by_hand.tolist() == [1] * 8
    got = weighted_maximal(f, RhoWeight(P_HALF))
    assert got.values.tolist() == [1] * 8


def test_unit_weighted_maximal_dominates_input():
    rng = np.random.default_rng(51)
    f = DyadicFunction.from_values(5, rng.standard_normal(32))
    g = weighted_maximal(f, UnitWeight())
    assert np.all(g.values >= np.abs(f.values) - 1e-12)


def test_unit_dominates_any_scheme():
    rng = np.random.default_rng(53)
    f = DyadicFunction.from_values(5, rng.standard_normal(32))
    unit = weighted_maximal(f, UnitWeight()).values
    for scheme in (RhoWeight(P_HALF), PolyWeight(P_HALF)):
        assert np.all(weighted_maximal(f, scheme).values <= unit + 1e-12)


def test_weighted_maximal_positive_homogeneity():
    rng = np.random.default_rng(59)
    f = DyadicFunction.from_values(4, rng.standard_normal(16))
    lhs = weighted_maximal(-2.5 * f, RhoWeight(P_HALF)).values
    rhs = 2.5 * weighted_maximal(f, RhoWeight(P_HALF)).values
    assert np.allclose(lhs, rhs, rtol=1e-13)


def test_weighted_maximal_exact_matches_float():
    rng = np.random.default_rng(61)
    ints = [int(v) for v in rng.integers(-8, 9, 64)]
    fe = DyadicFunction.from_values(6, ints, "exact")
    ff = DyadicFunction.from_values(6, [float(v) for v in ints])
    ge = weighted_maximal(fe, RhoWeight(P_HALF)).values.astype(float)
    gf = weighted_maximal(ff, RhoWeight(P_HALF)).values
    assert np.allclose(ge, gf, atol=1e-11)


def test_tail_sufficiency():
    # Extending the sup past 2^m (where partial sums clamp to f) changes nothing.
    rng = np.random.default_rng(67)
    for m in (4, 6, 8):
        for scheme in (RhoWeight(P_HALF), PolyWeight(P_HALF), UnitWeight()):
            for _ in range(5 if m < 8 else 2):
                f = DyadicFunction.from_values(m, rng.standard_normal(1 << m))
                base = weighted_maximal(f, scheme).values
                for n in range((1 << m) + 1, (1 << (m + 2)) + 1):
                    tail = partial_sum(f, n)
                    assert np.array_equal(tail.values, f.values)
                    extended = np.maximum(base, np.abs(f.values) / scheme.at(n))
                    assert np.array_equal(base, extended)


def test_weighted_maximal_with_full_table():
    m = 3
    table = TableWeight(tuple((n, float(n)) for n in range(1, 9)))
    f = walsh(3, m, "float64")
    got = weighted_maximal(f, table)
    ref = restricted_maximal(f, list(range(1, 9)), table)
    assert np.allclose(got.values, ref.values, atol=1e-13)


def test_weighted_maximal_table_must_cover_all_orders():
    with pytest.raises(ValueError):
        weighted_maximal(walsh(1, 3, "float64"), TableWeight(((1, 1.0),)))


def test_shell_vanishing_for_atoms():
    # For an atom and any order whose lowest set bit exceeds the shell index,
    # the partial sum vanishes on that shell.
    m = 6
    for seed in range(5):
        atom = make_atom(AtomRecipe(3, 0, P_HALF, "random-bounded", seed), m, "exact")
        for n in range(1, (1 << m) + 1):
            low = index_stats(n).low
            sn = partial_sum(atom.values, n).values
            for s in range(min(low, 3)):
                shell = sn[1 << (m - s - 1) : 1 << (m - s)]
                assert all(v == 0 for v in shell), (n, s)


def test_exact_mode_non_integer_exponent_raises():
    f = DyadicFunction.from_values(3, [1, -1, 0, 0, 2, 0, 0, -2], "exact")
    with pytest.raises(ValueError, match="not exactly representable"):
        weighted_maximal(f, RhoWeight(PExponent.parse("3/4")))


def test_weight_overflow_is_value_error():
    # (n + 1)^99 passes the float64 range below order 2^11, and 2^(99 rho) at spread 11.
    p = PExponent.parse("1/100")
    f = DyadicFunction.from_values(12, np.ones(1 << 12))
    with pytest.raises(ValueError, match="overflows"):
        weighted_maximal(f, PolyWeight(p))
    with pytest.raises(ValueError, match="overflows"):
        weighted_maximal(f, RhoWeight(p))
    with pytest.raises(ValueError, match="overflows"):
        restricted_maximal(f, [4095], PolyWeight(p))
    exact = weighted_maximal(DyadicFunction.from_values(4, [1] * 16, "exact"), PolyWeight(p))
    assert exact.values.tolist() == [Fraction(1, 2**99)] * 16  # exact weights do not overflow


@dataclass(frozen=True)
class _CountedWeight:
    """``inner`` with every order it is read at logged; ``tag`` keeps its tables its own."""

    inner: object
    tag: object = field(default_factory=object)
    reads: list = field(default_factory=list, compare=False)

    @property
    def spread_only(self):
        return self.inner.spread_only

    def at(self, n: int):
        self.reads.append(n)
        return self.inner.at(n)


def test_each_weight_table_is_read_once():
    # One read per (scheme, orders, mode) table: the recursion reads one order
    # per bit spread, the pruned search and its floors every order up to 2^m.
    m = 5
    f = DyadicFunction.from_values(m, np.arange(1 << m) % 7 - 3.0)
    fx = DyadicFunction.from_values(m, [Fraction(int(v), 4) for v in f.values], "exact")
    spread, poly = _CountedWeight(RhoWeight(P_HALF)), _CountedWeight(PolyWeight(P_HALF))
    ops = (lambda g: weighted_maximal(g, spread), lambda g: weighted_maximal(g, poly),
           lambda g: restricted_maximal(g, [3, 6, 40], spread))
    runs = [[op(g).values.tolist() for g in (f, fx) for op in ops] for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert spread.reads == [1, 3, 5, 9, 17, 3, 6, 40] * 2
    assert poly.reads == list(range(1, 33)) * 2
    tables = [operators._weights(spread, (1, 3, 5, 9, 17), exact) for exact in (False, True)]
    tables += operators._weight_floors(poly, m, True)
    assert not any(table.flags.writeable for table in tables)


def test_weight_errors_are_not_cached():
    ones = DyadicFunction.from_values(11, np.ones(1 << 11))
    exact = DyadicFunction.from_values(3, [1, -1, 0, 0, 2, 0, 0, -2], "exact")
    for f, scheme, match in ((ones, PolyWeight(PExponent.parse("1/100")), "overflows float64"),
                             (exact, RhoWeight(PExponent.parse("3/4")), "not exactly representable")):
        sizes = operators._weights.cache_info().currsize, operators._weight_floors.cache_info().currsize
        messages = []
        for _ in range(2):
            for run in (lambda: weighted_maximal(f, scheme), lambda: restricted_maximal(f, [3, 2047], scheme)):
                with pytest.raises(ValueError, match=match) as err:
                    run()
                messages.append(str(err.value))
        assert messages[:2] == messages[2:]
        assert (operators._weights.cache_info().currsize,
                operators._weight_floors.cache_info().currsize) == sizes


# -- Paley-block recursion against the definition and a listed table -------------

SPREAD_KINDS = ("unit", "1/4", "1/3", "1/2", "3/4", "1")


def _spread_scheme(kind: str):
    """The scheme and its weight from the definition ``2^(rho(n) (1/p - 1))``."""
    if kind == "unit":
        return UnitWeight(), lambda n: 1
    e = 1 / Fraction(kind) - 1

    def rho(n):
        return n.bit_length() - (n & -n).bit_length()

    if e.denominator == 1:
        return RhoWeight(PExponent.parse(kind)), lambda n: 2 ** (rho(n) * int(e))
    return RhoWeight(PExponent.parse(kind)), lambda n: 2.0 ** (rho(n) * float(e))


def _spread_input(m: int, seed: int, dyadic: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if dyadic:
        return rng.integers(-64, 65, 1 << m) / 8.0
    return rng.standard_normal(1 << m)


@dataclass(frozen=True)
class _ListedWeight:
    """Every order's weight listed, with no monotonicity requirement; the pruned engine reads it as a table."""

    entries: tuple
    spread_only = False

    def at(self, n: int):
        return dict(self.entries)[n]


@given(m=st.integers(1, 8), kind=st.sampled_from(SPREAD_KINDS),
       seed=st.integers(0, 2**32 - 1), dyadic=st.booleans())
@settings(max_examples=40, deadline=None)
def test_spread_engine_matches_definition(m, kind, seed, dyadic):
    scheme, w = _spread_scheme(kind)
    vals = _spread_input(m, seed, dyadic)
    got = weighted_maximal(DyadicFunction.from_values(m, vals), scheme).values
    want = np.array(weighted_maximal_by_definition(vals.tolist(), m, lambda n: float(w(n))))
    if dyadic:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@given(m=st.integers(1, 6), kind=st.sampled_from(("unit", "1/4", "1/3", "1/2", "1")),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_exact_spread_engine_matches_definition(m, kind, seed):
    scheme, w = _spread_scheme(kind)
    vals = [Fraction(int(v), 8) for v in np.random.default_rng(seed).integers(-64, 65, 1 << m)]
    got = weighted_maximal(DyadicFunction.from_values(m, vals, "exact"), scheme).values
    assert got.tolist() == weighted_maximal_by_definition(vals, m, w)


@given(m=st.integers(1, 8), kind=st.sampled_from(SPREAD_KINDS),
       seed=st.integers(0, 2**32 - 1), dyadic=st.booleans())
@settings(max_examples=40, deadline=None)
def test_spread_engine_matches_listed_table(m, kind, seed, dyadic):
    scheme, _ = _spread_scheme(kind)
    listed = _ListedWeight(tuple((n, scheme.at(n)) for n in range(1, (1 << m) + 1)))
    f = DyadicFunction.from_values(m, _spread_input(m, seed, dyadic))
    got = weighted_maximal(f, scheme).values
    pruned = weighted_maximal(f, listed).values
    if dyadic:
        assert np.array_equal(got, pruned)
    else:
        assert np.allclose(got, pruned, rtol=0, atol=1e-12)


@given(m=st.integers(2, 8), kind=st.sampled_from(("unit", "1/4", "1/3", "1/2")),
       generator=st.sampled_from(GENERATORS), data=st.data())
@settings(max_examples=30, deadline=None)
def test_exact_engine_matches_float_on_atoms(m, kind, generator, data):
    scheme, _ = _spread_scheme(kind)
    level = data.draw(st.integers(0, m - 1))
    base = data.draw(st.integers(0, (1 << m) - 1))
    seed = data.draw(st.integers(0, 2**62))
    recipe = AtomRecipe(level, base, PExponent.parse("1/2" if kind == "unit" else kind), generator, seed)
    exact = weighted_maximal(make_atom(recipe, m, "exact").values, scheme).values
    floats = weighted_maximal(make_atom(recipe, m, "float64").values, scheme).values
    assert [float(v) for v in exact] == floats.tolist()


@pytest.mark.parametrize("n", [4, 10])
def test_exact_sharpness_law_at_m14(n):
    # Theorem 2's R^p = (n+2)/2 at tolerance zero: L_p(g) / H_p(f_n) = ((n+2)/2)^2 at p = 1/2.
    f = counterexample_fn(n, 14, "exact")
    g = weighted_maximal(f, RhoWeight(P_HALF))
    assert lp_quasinorm(g, P_HALF) / hardy_quasinorm(f, P_HALF) == Fraction(n + 2, 2) ** 2


# -- pruned engine (PolyWeight, TableWeight, listed tables) -----------------------
#
# The ``dense`` test names date from the O(4^m) engine these weights ran
# before the Paley-tree search; the checks apply to whichever engine serves them.

POLY_KINDS = ("1/2", "1/3")
PRUNED_KINDS = ("1/2", "1/3", "3/4", "2/3", "table", "flat", "listed")


def _poly_definition(kind: str):
    """The weight ``(n + 1)^(1/p - 1)`` from its definition, for integer ``1/p - 1``."""
    e = int(1 / Fraction(kind) - 1)
    return lambda n: (n + 1) ** e


def _listed(kind: str, m: int, seed: int, exact: bool):
    """A scheme listing every order ``1 .. 2^m`` with its weight, and the weight from the list.

    ``table`` is a ``TableWeight`` climbing in steps of 0, 1/4 or 1/2, so it
    has runs of ties; ``flat`` is the ``TableWeight`` 1 everywhere;
    ``listed`` draws each weight from [1, 4] into a ``_ListedWeight``, so a
    block's least weight sits inside it as often as at its start.
    """
    rng = np.random.default_rng(seed)
    if kind == "listed":
        values = [1 + Fraction(int(v), 8) for v in rng.integers(0, 25, 1 << m)]
        scheme = _ListedWeight(tuple(enumerate(values, start=1)))
    else:
        steps = np.zeros(1 << m, int) if kind == "flat" else rng.integers(0, 3, 1 << m)
        values = [1 + Fraction(int(c), 4) for c in np.cumsum(steps)]
        scheme = TableWeight(tuple(enumerate(values, start=1)))
    return scheme, (lambda n: values[n - 1]) if exact else (lambda n: float(values[n - 1]))


def _pruned_scheme(kind: str, m: int, seed: int):
    """A float64 scheme of ``PRUNED_KINDS`` and its weight from the definition."""
    if kind in ("table", "flat", "listed"):
        return _listed(kind, m, seed, exact=False)
    e = 1 / Fraction(kind) - 1
    scheme = PolyWeight(PExponent.parse(kind))
    if e.denominator == 1:
        return scheme, _poly_definition(kind)
    return scheme, lambda n: (n + 1) ** float(e)


@given(m=st.integers(1, 7), kind=st.sampled_from(PRUNED_KINDS),
       values=st.sampled_from(("dyadic", "gaussian", "zero")), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_pruned_engine_matches_definition(m, kind, values, seed):
    scheme, w = _pruned_scheme(kind, m, seed)
    vals = np.zeros(1 << m) if values == "zero" else _spread_input(m, seed, values == "dyadic")
    got = weighted_maximal(DyadicFunction.from_values(m, vals), scheme).values
    want = np.array(weighted_maximal_by_definition(vals.tolist(), m, lambda n: float(w(n))))
    if values == "gaussian":
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", POLY_KINDS)
@pytest.mark.parametrize("m", range(1, 7))
def test_exact_dense_engine_matches_definition(m, kind):
    rng = np.random.default_rng(1000 * m + len(kind))
    vals = [Fraction(int(v), 8) for v in rng.integers(-64, 65, 1 << m)]
    schemes = [(PolyWeight(PExponent.parse(kind)), _poly_definition(kind))]
    schemes += [_listed(listed, m, 3000 * m + len(kind), exact=True) for listed in ("table", "flat", "listed")]
    for scheme, w in schemes:
        for values in (vals, [Fraction(0)] * (1 << m)):
            f = DyadicFunction.from_values(m, values, "exact")
            got = weighted_maximal(f, scheme).values
            assert got.tolist() == weighted_maximal_by_definition(values, m, w)


@pytest.mark.parametrize("kind", POLY_KINDS)
@pytest.mark.parametrize("m", range(1, 9))
def test_float_dense_engine_matches_definition(m, kind):
    scheme = PolyWeight(PExponent.parse(kind))
    for dyadic in (True, False):
        vals = _spread_input(m, 2000 * m + len(kind), dyadic)
        got = weighted_maximal(DyadicFunction.from_values(m, vals), scheme).values
        want = weighted_maximal_by_definition(vals.tolist(), m, _poly_definition(kind))
        if dyadic:
            assert got.tolist() == want
        else:
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_pruned_engine_reads_the_weights_restricted_reads(monkeypatch):
    # Both operators must divide by the same float weights, also for a
    # non-integer 1/p - 1; the full sup equals the sup over every order.
    # At m = 6..9 a frontier of 8 pairs, which splits every stage of the
    # pruned walk, must not move a bit, on exact input too.
    def chunked(f, scheme):
        with monkeypatch.context() as patched:
            patched.setattr(operators, "_FRONTIER_CHUNK", 8)
            return weighted_maximal(f, scheme).values.tolist()

    rng = np.random.default_rng(83)
    for m in range(1, 11):
        schemes = [PolyWeight(PExponent.parse(kind)) for kind in ("1/2", "1/3", "3/4", "2/3")]
        schemes.append(_listed("table", m, m, exact=False)[0])
        for scheme in schemes:
            for dyadic in (True, False):
                f = DyadicFunction.from_values(m, _spread_input(m, int(rng.integers(2**32)), dyadic))
                full = weighted_maximal(f, scheme).values
                every = restricted_maximal(f, range(1, (1 << m) + 1), scheme).values
                if dyadic:
                    assert np.array_equal(full, every), (scheme, m)
                else:
                    assert np.allclose(full, every, rtol=0, atol=1e-12), (scheme, m)
                if 6 <= m <= 9:
                    assert chunked(f, scheme) == full.tolist(), (scheme, m)
        if 6 <= m <= 9:
            draws = np.random.default_rng(m).integers(-64, 65, 1 << m)
            f = DyadicFunction.from_values(m, [Fraction(int(v), 8) for v in draws], "exact")
            # One exact scheme per resolution, alternating, keeps the Fraction runs short.
            scheme = PolyWeight(PExponent.parse("1/2")) if m % 2 else _listed("listed", m, m, exact=True)[0]
            assert chunked(f, scheme) == weighted_maximal(f, scheme).values.tolist(), (scheme, m)


def test_ties_do_not_keep_blocks_open(monkeypatch):
    # A block whose bound only ties a point's best is closed.  With a flat
    # table every bound on w_5 ties |w_5| = 1 and every bound on the zero
    # function is 0, so no point gets past two blocks per level.
    m = 8
    pairs = []
    bound = operators._PaleyTree.bound

    def counted(self, level, pts, q, t):
        pairs.append(pts.size)
        return bound(self, level, pts, q, t)

    monkeypatch.setattr(operators._PaleyTree, "bound", counted)
    flat, _ = _listed("flat", m, 0, exact=False)
    for f in (walsh(5, m, "float64"), DyadicFunction.zeros(m)):
        pairs.clear()
        assert weighted_maximal(f, flat).values.tolist() == np.abs(f.values).tolist()
        assert sum(pairs) <= (2 * m) << m


# -- restricted maximal ------------------------------------------------------------


def test_restricted_powers_equals_dyadic_maximal():
    # Both halve the same pair sums, so the match is exact in float64 too.
    rng = np.random.default_rng(71)
    for m in range(1, 13):
        for values in (rng.standard_normal(1 << m), rng.integers(-64, 65, 1 << m) / 8.0):
            f = DyadicFunction.from_values(m, values)
            got = restricted_maximal(f, Subsequence.powers_of_two(m), UnitWeight())
            assert np.array_equal(got.values, maximal_function(f).values), m
    f = DyadicFunction.from_values(6, [Fraction(int(a), 1 << int(b)) for a, b in
                                       zip(rng.integers(-99, 100, 64), rng.integers(0, 6, 64))], "exact")
    got = restricted_maximal(f, Subsequence.powers_of_two(6), UnitWeight())
    assert got.values.tolist() == maximal_function(f).values.tolist()


def test_restricted_singleton_is_partial_sum():
    rng = np.random.default_rng(73)
    f = DyadicFunction.from_values(4, rng.standard_normal(16))
    got = restricted_maximal(f, [9], UnitWeight())
    assert np.allclose(got.values, np.abs(partial_sum(f, 9).values), atol=0)


def test_restricted_empty_errors():
    with pytest.raises(ValueError):
        restricted_maximal(DyadicFunction.zeros(3), [], UnitWeight())


def test_restricted_below_full_sup():
    rng = np.random.default_rng(79)
    f = DyadicFunction.from_values(5, rng.standard_normal(32))
    full = weighted_maximal(f, RhoWeight(P_HALF)).values
    sub = restricted_maximal(f, [3, 6, 12, 24], RhoWeight(P_HALF)).values
    assert np.all(sub <= full + 1e-12)


def test_restricted_clamps_above_resolution():
    f = DyadicFunction.from_values(3, np.arange(8, dtype=float))
    got = restricted_maximal(f, [32], UnitWeight())
    assert np.array_equal(got.values, np.abs(f.values))


def test_restricted_traced_peak_holds_a_few_grids():
    # One partial sum at a time: O(2^m) memory, not the m 2^m values of a
    # packet table (about 10 MiB here). A grid at m = 16 is 0.5 MiB.
    m = 16
    f = DyadicFunction.from_values(m, np.random.default_rng(83).standard_normal(1 << m))
    spikes = Subsequence(tuple((1 << k) + 1 for k in range(1, m)))
    tracemalloc.start()
    try:
        got = restricted_maximal(f, spikes, UnitWeight())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.values.shape == (1 << m,)
    assert peak < 4 << 20


# -- functions on I_L(0) through their 2^e cells ------------------------------------


def _on_the_grid(cells, level, orders, scheme):
    m = level + cells.size.bit_length() - 1
    vals = np.zeros(1 << m)
    vals[: cells.size] = cells
    f = DyadicFunction.from_values(m, vals)
    g = (weighted_maximal(f, scheme) if orders is None else restricted_maximal(f, orders, scheme)).values
    return [g[1 << (m - s - 1) : 1 << (m - s)] for s in range(level)], g[: cells.size]


@dataclass(frozen=True)
class _SpreadTable:
    """A spread-only weight read off a table by bit spread, its last entry past the end."""

    spread_only = True
    table: tuple[float, ...]

    def at(self, n):
        return self.table[min(index_stats(n).rho, len(self.table) - 1)]


# Falling with the spread, orders with low bits win, on the support and on
# shells they reach in many Paley terms; a notch at spread 2 lets the orders
# below 2^L win at some points.
_SHRINKING = _SpreadTable(tuple(1.5**-k for k in range(20)))
_NOTCHED = _SpreadTable((2.0**20, 2.0**20, 1.0, 2.0**20))


@dataclass(frozen=True)
class _Scrambled:
    """Weights between 1 and 11 in no order: the bound-and-prune search's, summed from the top bit."""

    spread_only = False

    def at(self, n):
        return 1.0 + (n * 2654435761 % 1009) / 100


@pytest.mark.parametrize("p_str", ["1/8", "1/5", "1/4", "1/2", "2/3", "1"])
def test_atom_maximal_matches_the_engines(p_str):
    # Any function on I_L(0), atom or not: each shell is flat, and the reduced
    # path returns the engines' floats there and, for a spread weight over
    # every order, on the support.  Gaussian cells give full-mantissa packets.
    # Below p = 1/4 the polynomial weight's best orders reach a shell in
    # three or more Paley terms, which round as the engine sums them.
    p = PExponent.parse(p_str)
    rng = np.random.default_rng(len(p_str))
    for m in (5, 8, 10):
        ops = [(None, RhoWeight(p)), (None, UnitWeight()), (None, PolyWeight(p)),
               (None, _SHRINKING), (None, _NOTCHED), (None, _Scrambled())]
        if p.p < 1:
            ops += experiments._corollary_operators(m, p).values()
        for level in range(1, m):
            cells = rng.standard_normal(1 << (m - level)) + rng.choice([0.0, 1.0])
            packets = operators._packet_table(cells, m - level)
            for (orders, scheme), shells in zip(ops, operators._atom_maximal(packets, level, ops)):
                grid, on = _on_the_grid(cells, level, orders, scheme)
                assert all((shell == v).all() for shell, v in zip(grid, shells))
                if orders is None and scheme.spread_only:
                    w = operators._spread_weights(scheme, m, False)
                    assert operators._spread_recursion(packets, level, np.divide, w).tolist() == on.tolist()


def test_atom_maximal_keeps_every_order_near_the_best():
    # At shell 2 orders 1 and 2 have |c| = 1 and 2.  With weights x and
    # y just below 2x the two ratios round to one float, so the shell table
    # keeps both, and the larger of their floats is the engine's.
    x = next(x for x in (1 + k / 7 for k in range(1, 99)) if 1 / x == 2 / np.nextafter(2 * x, 0))
    seq, table = Subsequence((1, 2)), TableWeight(((1, x), (2, float(np.nextafter(2 * x, 0)))))
    assert sorted(operators._shell_table(table, seq.indices, 3, 5).weight[:, 2, 0]) == [table.at(1), table.at(2)]
    rng = np.random.default_rng(9)
    for _ in range(20):
        cells = rng.standard_normal(4) + 1
        [shells] = operators._atom_maximal(operators._packet_table(cells, 2), 3, [(seq, table)])
        grid, _ = _on_the_grid(cells, 3, seq, table)
        assert shells.tolist() == [v.max() for v in grid]
    # Order 3 has |c| = 3 there, in two terms that round: its ratio is a
    # float below order 1's, but at this spectrum its rounded sum wins.
    x, y, a = (float.fromhex(v) for v in ("0x1.78cda461018aep+0", "0x1.1a9a3b48c1283p+2", "0x1.573f3339bae72p+0"))
    seq, table = Subsequence((1, 3)), TableWeight(((1, x), (3, y)))
    assert 3 / y < 1 / x and (3 * a) / y > a / x
    cells = np.full(4, 8 * a)  # |U(0)| 2^-3 = a
    [shells] = operators._atom_maximal(operators._packet_table(cells, 2), 3, [(seq, table)])
    assert shells[2] == (3 * a) / y == _on_the_grid(cells, 3, seq, table)[0][2].max()


# -- weak-type measurement ------------------------------------------------------------


def test_weak_type_single_level():
    g = dirichlet_dyadic(3, 6, "float64")  # value 8 on measure 2^-3
    rep = weak_type_constant(g, P_HALF)
    assert rep.value == 8**0.5 * 2**-3
    assert rep.attaining_level == 8.0


def test_weak_type_takes_any_exponent_the_norms_take():
    g = dirichlet_dyadic(3, 6, "float64")
    want = weak_type_constant(g, P_HALF)
    assert weak_type_constant(g, Fraction(1, 2)) == want == weak_type_constant(g, 0.5)
    # So does a Fraction with no positive finite float form: 10^400
    # overflows, and 10^-400 rounds to 0.
    for p in (0, -1, Fraction(-1, 2), 0.0, float("nan"), float("inf"), float("-inf"),
              Fraction(10**400), Fraction(1, 10**400)):
        with pytest.raises(ValueError, match="exponent must be positive and finite"):
            weak_type_constant(g, p)


def test_weak_type_zero_function():
    rep = weak_type_constant(DyadicFunction.zeros(4), P_HALF)
    assert rep.value == 0.0 and rep.attaining_level == 0.0


def test_weak_type_rejects_negative():
    with pytest.raises(ValueError):
        weak_type_constant(DyadicFunction.from_values(2, [-1.0, 0, 0, 0]), P_HALF)
    # A nan must not hide a negative value from the check.
    with pytest.raises(ValueError):
        weak_type_constant(DyadicFunction(2, np.array([-1.0, np.nan, 0, 0])), P_HALF)
    # Nor may rounding: -2^-1100 is -0.0 as a float, and -1e-320 is a
    # subnormal; the check reads the exact value, and the float64 one as stored.
    for g in (DyadicFunction.from_values(2, [Fraction(-1, 1 << 1100), 1, 0, 0], "exact"),
              DyadicFunction.from_values(2, [-1e-320, 1.0, 0, 0])):
        with pytest.raises(ValueError, match="nonnegative"):
            weak_type_constant(g, P_HALF)


def test_weak_type_restriction():
    # Measuring off a set means zeroing g there; the measure stays the whole group's.
    vals = np.zeros(16)
    vals[0] = 100.0  # huge spike inside the excluded region
    vals[8:] = 2.0
    g = DyadicFunction.from_values(4, np.where(np.arange(16) >= 4, vals, 0.0))
    rep = weak_type_constant(g, P_HALF)
    assert rep.attaining_level == 2.0
    assert rep.value == 2**0.5 * (8 / 16)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_weak_type_matches_bruteforce_sup(seed):
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.standard_normal(32))
    g = DyadicFunction.from_values(5, vals)
    rep = weak_type_constant(g, P_HALF)
    brute = max(t**0.5 * (np.sum(vals >= t) / 32) for t in vals)
    assert rep.value == pytest.approx(brute, rel=1e-12)
