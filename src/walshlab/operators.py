"""Weighted and restricted maximal operators of spectral partial sums.

The central object takes the pointwise sup over all orders ``n`` of
``|S_n f| / weight(n)``.  The reference weight is ``2^(rho(n) (1/p - 1))``
with ``rho`` the spread between the highest and lowest set bit of ``n``;
siblings are the polynomial weight ``(n+1)^(1/p-1)``, the unit weight, and
explicit tables.  The sup over all naturals reduces to ``n in [1, 2^m]``
because the tail clamps to ``f`` with weights that never dip below the
weight at ``2^m``; the tests check that reduction rather than assume it.

Every engine and ``restricted_maximal`` read the weight through one
memoized helper, ``_weights``, each naming its orders: float64 values that
raise ``ValueError`` on overflow, or exact ``Fraction`` values that raise
``ValueError`` when the weight is irrational.  No engine runs a transform;
all of them read the Walsh packets ``U_j[Q] = E_j(f prod_{k in Q} r_k)``,
built level by level from halved pair sums and differences.  In exact mode the table holds integer
numerators pre-scaled by ``2^m`` (``functions._numerators``), so every
halving is an exact shift, and ``Fraction`` values are built once, at the
output.  Engines, one per kind of weight, each written
once for float64 and exact:

* spread-only weights (``UnitWeight``, ``RhoWeight``; ``spread_only`` is
  true) go through the Paley-block recursion, O(m^2 2^m).  For ``i < 2^h``
  the block identity ``S_{2^h+i} f = E_h f + r_h S_i(E_h(f r_h))`` reduces
  the sup to the max and min of ``S_i`` grouped by the lowest set bit of
  ``i``, carried level by level over the packets;
* every other weight (``PolyWeight``, ``TableWeight``, any listed table)
  goes through a bound-and-prune search of the Paley tree of order blocks
  ``[a, a + 2^l)``.  For ``2^l | a`` and ``i < 2^l``,
  ``S_{a+i} f = S_a f + w_a S_i(U_l[Q_a])``, so per-level extrema of
  ``S_i U_l[Q]`` give each block's exact max of ``|S_n f|``; divided by
  the block's least weight, that bound closes every block that cannot
  beat a point's best.  O(m 2^m) set-up, then a few blocks per point and
  level on typical inputs, and never more than O(4^m);
* ``restricted_maximal`` builds each requested partial sum by
  ``spectral._partial_sum_numerators``, the halving chain behind
  ``partial_sum``, in O(2^m) time and memory per order;
* ``_atom_maximal`` gives the same floats for a function on ``I_L(0)``
  from the packets of its ``2^e`` cells, ``e = m - L``, on the flat shells
  off the support, through a memoized shell table; on the support the
  Paley-block recursion runs from level ``L`` on those cells' packets.

``weak_type_constant`` measures an operator's output over the whole group
through ``analysis.LevelSet``, the distribution of ``|f|`` the norms read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from numbers import Integral, Rational, Real
from typing import ClassVar, Iterable, NamedTuple, Union

import numpy as np

from .analysis import ExponentLike, LevelSet, PExponent, _exponent_value
from .functions import DyadicFunction, _divider, _from_numerators, _halve, _numerators
from .group import _as_int
from .spectral import _partial_sum_numerators, index_stats


@dataclass(frozen=True)
class UnitWeight:
    """No damping: the classical maximal operator."""

    spread_only: ClassVar[bool] = True

    def at(self, n: int):
        n = _check_order(n)
        return 1


@dataclass(frozen=True)
class RhoWeight:
    """``2^(rho(n) (1/p - 1))``; exact powers of two for integer ``1/p - 1``."""

    spread_only: ClassVar[bool] = True
    p: PExponent

    def at(self, n: int):
        n = _check_order(n)
        e = self.p.weight_exponent
        rho = index_stats(n).rho
        if e.denominator == 1:
            return 1 << (rho * int(e))
        return float(2.0 ** (rho * float(e)))


@dataclass(frozen=True)
class PolyWeight:
    """``(n + 1)^(1/p - 1)``, the polynomial-order damping."""

    spread_only: ClassVar[bool] = False
    p: PExponent

    def at(self, n: int):
        n = _check_order(n)
        e = self.p.weight_exponent
        if e.denominator == 1:
            return (n + 1) ** int(e)
        return float((n + 1) ** float(e))


@dataclass(frozen=True)
class TableWeight:
    """Explicit weights at chosen orders; must be finite, >= 1 and nondecreasing."""

    spread_only: ClassVar[bool] = False
    entries: tuple[tuple[int, Union[int, float, Fraction]], ...]

    def __post_init__(self) -> None:
        prev_n, prev_v = 0, None
        for n, v in self.entries:
            if not isinstance(n, Integral) or isinstance(n, bool):
                raise ValueError(f"table order {n!r} is not an integer")
            if not isinstance(v, Real) or isinstance(v, bool):
                raise ValueError(f"table weight {v!r} at n={n} is not a real number")
            if n < 1:
                raise ValueError(f"table order {n} must be >= 1")
            if n <= prev_n:
                raise ValueError("table orders must be strictly increasing")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"table weight {v} at n={n} is not finite")
            if v < 1:
                raise ValueError(f"table weight {v} at n={n} is below 1")
            if prev_v is not None and v < prev_v:
                raise ValueError(
                    f"table weights must be nondecreasing; {v} at n={n} follows {prev_v}"
                )
            prev_n, prev_v = n, v
        # Each weight as the Fraction it equals, a float exactly, so equal tables read alike.
        object.__setattr__(self, "entries", tuple((int(n), Fraction(v)) for n, v in self.entries))
        object.__setattr__(self, "_by_order", dict(self.entries))

    @classmethod
    def from_dict(cls, mapping: dict) -> "TableWeight":
        items = sorted((int(k), v) for k, v in mapping.items())
        return cls(tuple(items))

    def at(self, n: int):
        n = _check_order(n)
        if n not in self._by_order:
            raise ValueError(f"table weight has no entry for order {n}")
        return self._by_order[n]


WeightScheme = Union[UnitWeight, RhoWeight, PolyWeight, TableWeight]


def _check_order(n: int) -> int:
    n = _as_int(n, "weight order")
    if n < 1:
        raise ValueError(f"weights are undefined at order {n}; the bit spread needs n >= 1")
    return n


def float_weight(scheme: WeightScheme, n: int) -> float:
    """The scheme's value at order ``n`` as a float; ``ValueError`` if it overflows."""
    try:
        out = float(scheme.at(n))
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"weight at order {n} overflows float64")
    return out


@cache
def _weights(scheme: WeightScheme, orders: tuple[int, ...] | range, exact: bool) -> np.ndarray:
    """The scheme's weights at ``orders``: float64, or ``Fraction`` objects in exact mode.

    Every engine and ``restricted_maximal`` read their weights here, each
    table once per ``(scheme, orders, exact)``, read-only.  A float weight
    that overflows, or a weight exact mode cannot represent, raises
    ``ValueError``, and nothing is cached.
    """
    if exact:
        table = np.empty(len(orders), dtype=object)
        for i, n in enumerate(orders):
            v = scheme.at(n)
            if not isinstance(v, Rational):
                raise ValueError(
                    f"weight at order {n} is not exactly representable; use float64 mode"
                )
            table[i] = Fraction(v)
    else:
        table = np.array([float_weight(scheme, n) for n in orders])
    table.setflags(write=False)
    return table


def scheme_to_json(scheme: WeightScheme) -> dict:
    if isinstance(scheme, UnitWeight):
        return {"kind": "unit"}
    if isinstance(scheme, RhoWeight):
        return {"kind": "rho", "p": str(scheme.p)}
    if isinstance(scheme, PolyWeight):
        return {"kind": "poly", "p": str(scheme.p)}
    return {"kind": "table", "values": {str(n): float(v) for n, v in scheme.entries}}


def scheme_from_json(data: dict) -> WeightScheme:
    kind = data.get("kind")
    if kind == "unit":
        return UnitWeight()
    if kind == "rho":
        return RhoWeight(PExponent.parse(data["p"]))
    if kind == "poly":
        return PolyWeight(PExponent.parse(data["p"]))
    if kind == "table":
        return TableWeight.from_dict(data["values"])
    raise ValueError(f"unknown weight scheme kind {kind!r}")


@dataclass(frozen=True)
class Subsequence:
    """A strictly increasing list of positive spectral orders."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(_as_int(n, "subsequence order") for n in self.indices))
        if not self.indices:
            raise ValueError("subsequence must be nonempty")
        prev = 0
        for n in self.indices:
            if n <= prev:
                raise ValueError("subsequence must be strictly increasing and positive")
            prev = n

    @classmethod
    def powers_of_two(cls, m: int) -> "Subsequence":
        return cls(tuple(1 << k for k in range(m + 1)))


# -- Paley-block recursion (spread-only weights) ------------------------------


def _packet_table(values: np.ndarray, m: int) -> list[np.ndarray]:
    """Walsh packets ``U_j[Q] = E_j(f prod_{k in Q} r_k)`` for every level ``j``.

    Entry ``j`` has shape ``(2^(m-j), 2^j)``: row ``q`` holds the packet of
    ``Q = {k >= j : bit k-j of q}`` on the level-``j`` intervals.  Each level
    comes from the one above by halved pair sums (``j`` not in ``Q``) and
    halved pair differences (``j`` in ``Q``).  ``values`` are float64, or
    integer numerators pre-scaled by ``2^m``, which keeps every halving exact.
    They hold the ``2^m`` cells on their last axis; leading axes, such as
    one per trial, lead every entry too.
    """
    lead = values.shape[:-1]
    table = [values.reshape(*lead, 1, -1)]
    for j in range(m - 1, -1, -1):
        fine = table[-1]
        a, b = fine[..., 0::2], fine[..., 1::2]
        coarse = np.empty((*lead, 1 << (m - j - 1), 2, 1 << j), values.dtype)
        np.add(a, b, out=coarse[..., 0, :])
        np.subtract(a, b, out=coarse[..., 1, :])
        _halve(coarse)
        table.append(coarse.reshape(*lead, 1 << (m - j), 1 << j))
    return table[::-1]


def _child_extrema(base: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of ``base + r_j S`` on the level-``(j+1)`` cells, from the max and min of ``S``.

    ``base`` and ``S`` live on the level-``j`` cells along the last axis;
    ``r_j`` is +1 on the even and -1 on the odd level-``(j+1)`` cell of each.
    """
    shape = np.broadcast_shapes(base.shape, hi.shape)
    up = np.empty(shape + (2,), hi.dtype)
    down = np.empty(shape + (2,), hi.dtype)
    np.add(base, hi, out=up[..., 0])
    np.subtract(base, lo, out=up[..., 1])
    np.add(base, lo, out=down[..., 0])
    np.subtract(base, hi, out=down[..., 1])
    cells = shape[:-1] + (2 * shape[-1],)
    return up.reshape(cells), down.reshape(cells)


def _spread_max(f: DyadicFunction, scheme: WeightScheme) -> np.ndarray:
    """Sup over ``n in [1, 2^m]`` of ``|S_n f| / weight(n)`` for a spread-only weight.

    Exact mode runs on numerators: every ``S_i`` is at most ``m`` times
    the largest entry, and a weighed entry at most ``max(w)`` times that.
    """
    m = f.m
    w = _spread_weights(scheme, m, f.mode == "exact")
    values, unit = _numerators(f.values, m.bit_length() + int(max(w)).bit_length(), shift=m)
    weigh, w, unit = _divider(w, unit)
    return _from_numerators(_spread_recursion(_packet_table(values, m), 0, weigh, w), unit)


def _spread_weights(scheme: WeightScheme, m: int, exact: bool) -> np.ndarray:
    """A spread-only weight at resolution ``m``, entry ``r`` at bit spread ``r``: orders 1, then ``2^r + 1``."""
    return _weights(scheme, tuple((1 << r) | 1 for r in range(m)), exact)


def _spread_recursion(packets: list[np.ndarray], level: int, weigh, w: np.ndarray) -> np.ndarray:
    """The Paley-block recursion: sup over ``n in [1, 2^m]`` of ``|S_n f| / w``, one value per cell of ``packets[-1]``.

    Level ``j`` carries, per packet ``Q`` and lowest set bit ``l``, the max
    ``hi`` and min ``lo`` of ``S_i U_j[Q]`` over ``1 <= i < 2^j``, shape
    ``(2^(m-j), j, 2^j)``.  Orders ``2^j + i`` give
    ``U_j[Q] + r_j S_i(U_j[Q + {j}])``; with ``Q`` empty these are the
    partial sums of ``f`` whose highest bit is ``j``, and their weight
    ``w[j - l]`` is fixed by the spread.  ``weigh(x, w[r])`` divides ``x``
    by that weight.  O(m^2 2^m) work in O(m) array stages.

    At ``level`` 0 ``packets`` is the whole group's table.  At ``level > 0``
    (float64 only) it is the table of a function's ``2^e`` cells on
    ``I_level(0)``, entry ``k`` at level ``level + k``: below ``level``
    each packet at the support is ``U(h) 2^(j - level)``, one row per
    block ``h``, and ``r_j = +1``.  Leading axes of the table, such as one
    per trial, lead every stage and the output.
    """
    k = len(packets) - 1
    lead = packets[0].shape[:-2]
    out = weigh(np.abs(packets[k][..., 0, :]), w[0])  # n = 2^m, where S_n f = f
    hi = lo = packets[0][..., :0]
    for j in range(level):
        base = np.ldexp(packets[0], j - level)  # U_j[Q] at I, one row per block
        up, down = base + hi, base + lo  # the child at I: r_j = +1
        if j:  # orders below 2^level with top bit j; order 2^j loses to 2^level, of equal weight
            best = weigh(np.maximum(up[..., 0, :], -down[..., 0, :]), w[j - np.arange(j)])
            np.maximum(out, best.max(axis=-1, keepdims=True), out=out)
        hi = np.concatenate([np.maximum(hi, up), base], axis=-1)
        lo = np.concatenate([np.minimum(lo, down), base], axis=-1)
    hi, lo = hi[..., None], lo[..., None]
    for jr in range(k):
        j = level + jr
        groups = 1 << (k - jr - 1)
        base = packets[jr].reshape(*lead, groups, 2, 1 << jr)[..., 0, None, :]
        hi2 = hi.reshape(*lead, groups, 2, j, 1 << jr)
        lo2 = lo.reshape(*lead, groups, 2, j, 1 << jr)
        up, down = _child_extrema(base, hi2[..., 1, :, :], lo2[..., 1, :, :])
        cand = weigh(np.abs(base[..., 0, 0, :]), w[0]).repeat(2, axis=-1)  # n = 2^j
        if j:
            spread = weigh(np.maximum(up[..., 0, :, :], -down[..., 0, :, :]), w[j - np.arange(j)][:, None])
            cand = np.maximum(cand, spread.max(axis=-2))
        np.maximum(out, cand.repeat(groups, axis=-1), out=out)
        if jr + 1 < k:
            hi = np.empty((*lead, groups, j + 1, 2 << jr), base.dtype)
            lo = np.empty((*lead, groups, j + 1, 2 << jr), base.dtype)
            np.maximum(hi2[..., 0, :, :].repeat(2, axis=-1), up, out=hi[..., :j, :])
            np.minimum(lo2[..., 0, :, :].repeat(2, axis=-1), down, out=lo[..., :j, :])
            hi[..., j, :] = lo[..., j, :] = base[..., 0, :].repeat(2, axis=-1)
    return out


# -- bound-and-prune over the Paley tree (every other weight) -------------------

#: Most (point, block) pairs the pruned search holds in one array stage.
_FRONTIER_CHUNK = 1 << 14


def _block_extrema(packets: list[np.ndarray], m: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per level ``l``, the max and min over ``0 <= i < 2^l`` of ``S_i U_l[Q]``.

    Entry ``l`` of each list has the shape of ``packets[l]``.  With
    ``S_0 = 0`` the max is >= 0 >= the min.  Below ``2^l`` the partial
    sums of ``U_{l+1}[Q]`` are those of ``U_l[Q]``; orders ``2^l + i`` give
    ``U_l[Q] + r_l S_i(U_l[Q + {l}])``.  O(m 2^m) work in O(m) array stages.
    """
    hi = [np.zeros_like(packets[0])]
    lo = [np.zeros_like(packets[0])]
    for j in range(m):
        groups = 1 << (m - j - 1)
        base = packets[j].reshape(groups, 2, 1 << j)[:, 0]
        hi2 = hi[-1].reshape(groups, 2, 1 << j)
        lo2 = lo[-1].reshape(groups, 2, 1 << j)
        up, down = _child_extrema(base, hi2[:, 1], lo2[:, 1])
        hi.append(np.maximum(up, hi2[:, 0].repeat(2, axis=-1), out=up))
        lo.append(np.minimum(down, lo2[:, 0].repeat(2, axis=-1), out=down))
    return hi, lo


@cache
def _weight_floors(scheme: WeightScheme, m: int, exact: bool) -> tuple[np.ndarray, ...]:
    """Entry ``l``: the least weight over each order block ``[q 2^l, (q+1) 2^l)``, memoized.

    Order 0 has no weight and reads the weight at order 1.  A minimum, not
    the weight at the block start, keeps the block bound valid for any
    positive weights, monotone or not.
    """
    w = _weights(scheme, range(1, (1 << m) + 1), exact)
    level = np.concatenate([w[:1], w[:-1]])  # orders 0 .. 2^m - 1
    floors = [level]
    for _ in range(m):
        level = np.minimum(level[0::2], level[1::2])
        floors.append(level)
    for table in floors:
        table.setflags(write=False)
    return tuple(floors)


class _PaleyTree(NamedTuple):
    """One function's packet table, block extrema and weights, read per (point, block) pair.

    A block at level ``l`` is the orders ``[a, a + 2^l)`` with ``q = a >> l``.
    The search carries ``t = w_a S_a f`` at each pair's point; then
    ``|S_{a+i} f| = |t + S_i U_l[Q_a]|`` for ``i < 2^l``.
    """

    m: int
    packets: list[np.ndarray]
    hi: list[np.ndarray]
    lo: list[np.ndarray]
    weights: np.ndarray
    floors: tuple[np.ndarray, ...]

    def bound(self, level: int, pts: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Each block's max of ``|S_n f|`` over its least weight: a bound on ``|S_n f| / weight(n)`` there."""
        cell = (q << level) + (pts >> (self.m - level))
        top = self.hi[level].reshape(-1)[cell]
        bottom = self.lo[level].reshape(-1)[cell]
        return np.maximum(t + top, -(t + bottom)) / self.floors[level][q]

    def right_child(self, level: int, pts: np.ndarray, q: np.ndarray, t: np.ndarray):
        """``t`` of the upper half ``[a + 2^(l-1), a + 2^l)`` and ``|S f| / weight`` at its start."""
        shift = self.m - level
        u = self.packets[level - 1].reshape(-1)[(q << level) + (pts >> (shift + 1))]
        s = t + u
        # w_{a + 2^(l-1)} = w_a r_{l-1}, and r_{l-1} is -1 on the odd level-l cells.
        child = np.where((pts >> shift) & 1, -s, s)
        start = (2 * q + 1) << (level - 1)
        return child, np.abs(s) / self.weights[start - 1]


def _pruned_max(f: DyadicFunction, scheme: WeightScheme) -> np.ndarray:
    """Sup over ``n in [1, 2^m]`` of ``|S_n f| / weight(n)`` for any positive weights.

    Searches the Paley tree of order blocks ``[a, a + 2^l)``, ``2^l | a``, per
    point.  For ``i < 2^l``, ``S_{a+i} f = S_a f + w_a S_i(U_l[Q_a])`` with
    ``Q_a`` the set bits of ``a``, so a block's exact max of ``|S_n f|`` is
    ``t`` plus the block extrema of its packet.  Each point's best starts at
    ``n = 2^m``, then one greedy dive per point takes the child with the
    larger bound; every block start on the path is a real order and counts.
    A last walk from the root keeps a block only while its bound strictly
    exceeds the point's best, and counts every block start it visits.  The
    walk holds at most ``_FRONTIER_CHUNK`` pairs per stage, deepest first.

    Exact mode runs on numerators, each ``|S_n f|`` at most ``m`` times the
    largest entry, over the exact weights; one rescale at the output.
    """
    m, exact = f.m, f.mode == "exact"
    values, unit = _numerators(f.values, m.bit_length(), shift=m)
    packets = _packet_table(values, m)
    tree = _PaleyTree(m, packets, *_block_extrema(packets, m),
                      _weights(scheme, range(1, (1 << m) + 1), exact), _weight_floors(scheme, m, exact))
    best = np.abs(values) / tree.weights[-1]  # n = 2^m, where S_n f = f
    size = best.size
    root = (np.arange(size), np.zeros(size, np.int64), np.zeros(size, values.dtype))

    pts, q, t = root
    for level in range(m, 0, -1):
        child, cand = tree.right_child(level, pts, q, t)
        np.maximum(best, cand, out=best)
        if level > 1:
            go = tree.bound(level - 1, pts, 2 * q + 1, child) > tree.bound(level - 1, pts, 2 * q, t)
            q = 2 * q + go
            t = np.where(go, child, t)

    stack = [(m, *root)]
    while stack:
        level, pts, q, t = stack.pop()
        if pts.size > _FRONTIER_CHUNK:
            cut = _FRONTIER_CHUNK
            stack.append((level, pts[cut:], q[cut:], t[cut:]))
            pts, q, t = pts[:cut], q[:cut], t[:cut]
        keep = tree.bound(level, pts, q, t) > best[pts]
        pts, q, t = pts[keep], q[keep], t[keep]
        if not pts.size:
            continue
        child, cand = tree.right_child(level, pts, q, t)
        np.maximum.at(best, pts, cand)
        if level > 1:
            stack.append((level - 1, np.concatenate([pts, pts]),
                          np.concatenate([2 * q, 2 * q + 1]), np.concatenate([t, child])))
    return _from_numerators(best, unit)


def weighted_maximal(f: DyadicFunction, scheme: WeightScheme) -> DyadicFunction:
    """Pointwise sup over ``n in [1, 2^m]`` of ``|S_n f| / weight(n)``.

    A float weight that overflows, or a weight exact mode cannot represent,
    raises ``ValueError``.
    """
    engine = _spread_max if scheme.spread_only else _pruned_max
    return f.with_values(engine(f, scheme))


def restricted_maximal(
    f: DyadicFunction,
    seq: Union[Subsequence, Iterable[int]],
    scheme: WeightScheme,
) -> DyadicFunction:
    """Sup of ``|S_n f| / weight(n)`` over a chosen subsequence of orders.

    Orders above 2^m are allowed: their partial sum clamps to ``f`` while
    the weight stays the sequence's own.  Each partial sum is one
    halving chain, ``partial_sum``'s own, with no transform: O(2^m) time
    and memory per order.
    """
    if not isinstance(seq, Subsequence):
        seq = Subsequence(tuple(seq))
    values, unit = _numerators(f.values, f.m.bit_length(), shift=f.m)
    weights = _weights(scheme, seq.indices, f.mode == "exact")
    out = None
    for n, w in zip(seq.indices, weights):
        part = values if n >= f.size else _partial_sum_numerators(values, n, f.m)
        cand = np.abs(part) / w
        out = cand if out is None else np.maximum(out, cand)
    return f.with_values(_from_numerators(out, unit))


# -- atoms on I_L(0): the 2^e-cell reduction ----------------------------------

#: Orders whose ratio ``|c_s(n)| / weight(n)`` lies within this relative band
#: of a block's best all enter the shell table.  The engines' floats of
#: ``|S_n f|`` stray from ``|c_s(n)| |U|`` by far less (about ``2^(level-53)``
#: relative where the Paley terms cancel), so no order outside it can win.
_SHELL_BAND = 2.0**-20


class _ShellTable(NamedTuple):
    """Per slot ``k``, shell ``s`` and block ``h``: one order near the block's best ratio.

    ``scale`` is its ``|c_s(n)| 2^-level`` and ``weight`` its weight (``inf``
    in unused slots).  ``orders`` holds its bits that reach the shell,
    ``n mod 2^(s+1)``, where some entry has more than two, else None: those
    sums round term by term in the engine's order, ``top_down`` for the
    bound-and-prune search.
    """

    scale: np.ndarray
    weight: np.ndarray
    orders: np.ndarray | None
    top_down: bool


@cache
def _shell_table(scheme: WeightScheme, orders: tuple[int, ...] | None, level: int, m: int) -> _ShellTable:
    """The shell table of one operator at resolution ``m``, memoized and read-only, as ``_weights`` is.

    For ``n = h 2^level + r`` a function on ``I_level(0)`` has
    ``|S_n f| = |c_s(n)| |U(h)| 2^-level`` on shell ``s``, with
    ``c_s(n) = (r mod 2^s) - r_s 2^s``.  Each block keeps every order whose
    ratio ``|c_s(n)| / weight(n)`` is within ``_SHELL_BAND`` of its best, one
    per float it can round to; the caller takes the largest.
    """
    size, blocks = 1 << m, 1 << (m - level)
    n = np.arange(size)
    member = n > 0
    if orders is not None:
        listed = [k for k in orders if k < size]
        member = np.zeros(size, bool)
        member[listed] = True
        w = np.ones(size)
        w[listed] = _weights(scheme, orders, False)[: len(listed)]
    elif scheme.spread_only:
        spread = np.frexp(n)[1] - np.frexp(n & -n)[1]  # top bit minus lowest bit
        w = _spread_weights(scheme, m, False)[np.where(member, spread, 0)]
    else:
        w = np.concatenate([[1.0], _weights(scheme, range(1, size + 1), False)[:-1]])
    r = np.arange(1 << level)
    s = np.arange(level)[:, None]
    low = r & ((2 << s) - 1)  # the bits of r that reach shell s
    c = np.abs((low & ((1 << s) - 1)) - (low & (1 << s)))
    # Entries round alike when they share the weight and, with at most two
    # Paley terms, |c|; with more, the bits themselves.
    key = np.where(np.bitwise_count(low) > 2, -1 - low, c)
    c, low, key = (np.broadcast_to(a[:, None], (level, blocks, 1 << level)) for a in (c, low, key))
    w = np.broadcast_to(w.reshape(blocks, 1 << level), c.shape)
    ratio = np.where(member.reshape(blocks, 1 << level), c / w, 0.0)
    live = (ratio > 0) & (ratio >= ratio.max(axis=2, keepdims=True) * (1 - _SHELL_BAND))
    slots = []
    while not slots or live.any():
        k = live.argmax(axis=2)[..., None]  # the first live order per (s, h)
        on = np.take_along_axis(live, k, 2)
        picked = [np.take_along_axis(a, k, 2) for a in (low, c, w, key)]
        slots.append([np.where(on, v, z)[..., 0] for v, z in zip(picked, (0, 0, np.inf))])
        live &= (key != picked[3]) | (w != picked[2])
    low, c, w = (np.stack(a) for a in zip(*slots))
    scale = np.ldexp(c.astype(float), -level)
    for table in (low, scale, w):
        table.setflags(write=False)
    return _ShellTable(scale, w, low if (np.bitwise_count(low) > 2).any() else None,
                       orders is None and not scheme.spread_only)


def _paley_sums(a: np.ndarray, table: _ShellTable) -> np.ndarray:
    """``|S_n f|`` per entry of ``table``, summed from its Paley terms ``2^j a(h)`` as the engine does.

    On shell ``s`` every term below ``s`` enters with sign +1 and the term
    at ``s`` with -1.  The Paley-block recursion and the partial-sum chain
    behind ``restricted_maximal`` nest from the lowest bit up; the
    bound-and-prune search adds from the top.
    ``a`` broadcasts against the table's ``(slot, shell, block)`` axes.
    """
    level = table.orders.shape[1]
    s = np.arange(level)[:, None]
    out = np.zeros(np.broadcast_shapes(a.shape, table.orders.shape))
    for j in range(level - 1, -1, -1) if table.top_down else range(level):
        term = np.where((table.orders >> j) & 1 & (s >= j), np.ldexp(a, j), 0.0)  # 0 above the shell
        if table.top_down:
            out = np.where(s == j, out - term, out + term)
        else:
            out = np.where(s == j, term - out, term + out)
    return np.abs(out)


def _atom_maximal(
    packets: list[np.ndarray], level: int, operators: Iterable[tuple[Subsequence | None, WeightScheme]]
) -> list[np.ndarray]:
    """Maximal operators of a float64 function on ``I_level(0)``, on the shells ``s < level``.

    ``packets`` is the ``_packet_table`` of its ``2^e`` cells there, and
    ``operators`` lists ``(orders, scheme)``, ``orders`` None for every
    order.  Per operator: the value on each shell, the float
    ``weighted_maximal`` and ``restricted_maximal`` give at ``m = level + e``,
    with the table's leading axes, such as one per trial, in front.
    """
    spectrum = np.abs(packets[0][..., 0])[..., None, None, :]  # |U(h)| = |U_level[Q_h]| on I, h < 2^e
    out = []
    for orders, scheme in operators:
        table = _shell_table(scheme, None if orders is None else orders.indices, level, level + len(packets) - 1)
        if table.orders is None:  # one rounding, as fl(|c| |U| 2^-level)
            sums = table.scale * spectrum
        else:
            sums = _paley_sums(np.ldexp(spectrum, -level), table)
        out.append((sums / table.weight).max(axis=(-3, -1)))
    return out


# -- weak-type measurement --------------------------------------------------


@dataclass(frozen=True)
class WeakTypeReport:
    """The measured ``sup_t t^p mu{g >= t}`` with its attaining level."""

    value: float
    attaining_level: float


def weak_type_constant(g: DyadicFunction, p: ExponentLike) -> WeakTypeReport:
    """Exact sup over levels of ``t^p mu{g >= t}`` for a nonnegative ``g``.

    The measure is taken over the whole group.  To measure off a set, such
    as an atom's support, set ``g`` to 0 there: zero carries no measure.
    The sup over real ``t`` is attained at a level of ``g`` because the
    distribution function only steps there.  Exact input is read as
    numerators, so only its distinct levels become floats.
    """
    pv = _exponent_value(p)
    nums, unit = _numerators(g.values, 0)
    if not (nums >= 0).all():
        raise ValueError("weak-type measurement expects a nonnegative function")
    return _weak_type(LevelSet.of(nums, unit, g.size), float(pv))


def _weak_type(levels: LevelSet, pw: float) -> WeakTypeReport:
    """``weak_type_constant`` at exponent ``pw``, read off a level set of either mode."""
    best, level = levels.scan(lambda v, c: float(v) ** pw * (c / levels.size), 0.0)
    return WeakTypeReport(best, float(level))
