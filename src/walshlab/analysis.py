"""Norms and spaces: L_p, weak-L_p, the martingale maximal function, H_p.

For exponents ``p <= 1`` these are quasi-norms; all definitions follow the
usual conventions on a probability space.  Exact mode keeps every result a
dyadic-capable rational where mathematics allows: the key device is that
for ``p = 1/q`` with integer ``q`` a single-level function has
``||f||_p = v * mu(support)^q``, and the weak quasi-norm is always the max
of such rational candidates over the levels of the distribution function.
``LevelSet`` is that distribution, the one every norm and weak-type scan
reads.  The exact maximal function and level counts run on integer
numerators (``functions._numerators``) and build exact values once, at
the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple, Union

import numpy as np

from .functions import DyadicFunction, Mode, Scalar, _exact_sum, _float_sum, _from_numerators, _halve, _numerators
from .group import DyadicInterval, _shell_counts

ExponentLike = Union["PExponent", Fraction, float, int]


@dataclass(frozen=True)
class PExponent:
    """An exponent in (0, 1], kept as an exact fraction.

    Exact-mode arithmetic is available exactly when ``1/p`` is an integer
    (p = 1, 1/2, 1/3, ...), i.e. when ``1/p - 1`` is a nonnegative integer.
    """

    p: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.p, Fraction):
            raise ValueError("PExponent stores a Fraction; use PExponent.parse")
        if not 0 < self.p <= 1:
            raise ValueError(f"exponent {self.p} outside (0, 1]")

    @classmethod
    def parse(cls, value: Union[str, float, int, Fraction, "PExponent"]) -> "PExponent":
        if isinstance(value, PExponent):
            return value
        try:
            return cls(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"exponent {value} has a zero denominator") from None
        except OverflowError:
            raise ValueError(f"exponent {value} is not finite") from None

    # Cached, since weight tables read them per order; eq, hash and pickle see ``p`` alone.
    @cached_property
    def reciprocal(self) -> Fraction:
        return 1 / self.p

    @cached_property
    def weight_exponent(self) -> Fraction:
        """The exponent ``1/p - 1`` used by the weighted maximal operators."""
        return self.reciprocal - 1

    def __getstate__(self) -> dict:
        return {"p": self.p}

    @property
    def is_exact(self) -> bool:
        return self.reciprocal.denominator == 1

    def __str__(self) -> str:
        return str(self.p)


def _exponent_value(p: ExponentLike) -> Union[Fraction, float]:
    """``p`` as a ``Fraction``, or a float for float input; ``ValueError`` unless positive and finite.

    So must its float form be, which the float64 paths raise to.
    """
    if isinstance(p, PExponent):
        pv = p.p
    elif isinstance(p, (Fraction, int)):
        pv = Fraction(p)
    else:
        pv = float(p)
    try:
        pf = float(pv)
    except OverflowError:
        pf = math.inf
    if not 0 < pf < math.inf:  # a nan exponent fails here too
        raise ValueError(f"exponent must be positive and finite, got {pv}")
    return pv


def _require_reciprocal_integer(p: Union[Fraction, float]) -> int:
    if isinstance(p, float):
        p = Fraction(p)  # exact binary expansion; dyadic p like 0.5 survives
    if p.numerator == 1:
        return p.denominator
    raise ValueError(
        f"exact mode supports p = 1/q with integer q, got p = {p}; use float64 mode"
    )


def _int_root(v: int, q: int) -> int | None:
    """Integer q-th root of v if exact, else None."""
    if v < 0:
        return None
    if v in (0, 1) or q == 1:
        return v
    x = 1 << -(-v.bit_length() // q)
    while True:
        y = ((q - 1) * x + v // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    return x if x ** q == v else None


def _exact_root(x: Fraction, q: int) -> Fraction | None:
    num = _int_root(x.numerator, q)
    den = _int_root(x.denominator, q)
    if num is None or den is None:
        return None
    return Fraction(num, den)


class LevelSet(NamedTuple):
    """The distribution of ``|f|`` on ``size`` points: its distinct nonzero levels and how many points reach each.

    Both are Python lists, so a scan runs on Python floats and ints:
    ``levels`` ascend, float or exact values, and ``above[i]`` counts the
    points at or above ``levels[i]``.  ``above[0]`` may be less than
    ``size``, which the measures divide by.
    """

    levels: list
    above: list
    size: int

    @classmethod
    def of(cls, nums: np.ndarray, unit: Scalar | None, size: int) -> "LevelSet":
        """The level set of ``nums * unit``, a pair as ``functions._numerators`` gives it.

        Only the distinct levels are turned back into exact values.
        """
        levels, counts = np.unique(np.abs(nums), return_counts=True)
        if levels.size and levels[0] == 0:
            levels, counts = levels[1:], counts[1:]
        return cls(_from_numerators(levels, unit).tolist(), counts[::-1].cumsum()[::-1].tolist(), size)

    def scan(self, candidate: Callable, zero) -> tuple:
        """The largest ``candidate(v, c)`` over the levels ``v`` and the level attaining it.

        ``c`` is the count of points at or above ``v``.  The scan climbs
        from ``(zero, zero)``; a later level wins only when its candidate is
        strictly larger.
        """
        best = level = zero
        for v, c in zip(self.levels, self.above):
            cand = candidate(v, c)
            if cand > best:
                best, level = cand, v
        return best, level


def _level_sets(values: np.ndarray, counts: np.ndarray, size: int) -> list[LevelSet]:
    """The level set of each row of float64 ``values``, ``counts[i]`` points at ``|values[..., i]|``.

    One pass for all rows, taken in C order over the leading axes: each
    row's magnitudes sort along the last axis with their int64 counts, the
    counts are summed from the top down, and a level keeps only its first
    entry, whose sum counts every point at or above it.  Zeros drop.
    """
    mags = np.abs(values).reshape(-1, values.shape[-1])
    order = np.argsort(mags, axis=-1)
    levels = np.take_along_axis(mags, order, -1)
    above = np.take_along_axis(np.broadcast_to(counts, mags.shape), order, -1)
    above = above[:, ::-1].cumsum(axis=-1)[:, ::-1]
    first = levels > 0
    first[:, 1:] &= levels[:, 1:] != levels[:, :-1]
    ends = first.sum(axis=-1).cumsum().tolist()
    flat_levels, flat_above = levels[first].tolist(), above[first].tolist()
    return [LevelSet(flat_levels[a:b], flat_above[a:b], size) for a, b in zip([0, *ends], ends)]


def _lp(cells: Callable[[int, int], np.ndarray], unit: Scalar | None, size: int, p: ExponentLike):
    """The ``L_p`` quasi-norm of the ``size`` values ``cells(0, size) * unit`` (``unit`` None in float64).

    ``cells(start, stop)`` returns those entries' numerators.  float64 sums
    ``|.|^p`` a chunk of cells at a time (``functions._float_sum``), so no
    array of ``size`` powers is built; a power, the sum or the result past
    the float64 range raises ``ValueError``.
    """
    pv = _exponent_value(p)
    if unit is None:
        pw = float(pv)
        with np.errstate(over="ignore"):
            try:
                total = _float_sum(lambda start, stop: np.abs(cells(start, stop)) ** pw, size)
                norm = (total / size) ** (1.0 / pw)
            except OverflowError:
                norm = math.inf
        if not math.isfinite(norm):
            raise ValueError(f"L_{pv} quasi-norm of this function overflows float64")
        return norm
    q = _require_reciprocal_integer(pv)
    levels, above, _ = LevelSet.of(cells(0, size), unit, size)
    if not levels:
        return Fraction(0)
    if len(levels) == 1:
        return levels[0] * Fraction(above[0], size) ** q
    total = Fraction(0)
    for v, c, higher in zip(levels, above, [*above[1:], 0]):
        root = _exact_root(v, q)
        if root is None:
            raise ValueError(
                f"L_{pv} quasi-norm of this function is irrational; use float64 mode"
            )
        total += Fraction(c - higher, size) * root
    return total**q


def lp_quasinorm(f: DyadicFunction, p: ExponentLike):
    """``(mean |f|^p)^(1/p)``; a norm for p >= 1, a quasi-norm below.

    Float mode returns a float for any ``p > 0``.  Exact mode requires
    ``p = 1/q`` and returns a ``Fraction`` when the value is rational
    (always for a single-level function), raising otherwise.
    """
    values, unit = _numerators(f.values, 0)
    return _lp(lambda start, stop: values[start:stop], unit, f.size, p)


def weak_lp_quasinorm(f: DyadicFunction, p: ExponentLike):
    """``sup_t t (mu|f| > t)^(1/p)``, computed exactly over the level set.

    The distribution function is a right-continuous step function, so the
    supremum is attained as ``t`` climbs to a level from the left; scanning
    the distinct levels of ``|f|`` gives the exact value with no grid.  The
    mode only picks how ``mu^(1/p)`` is formed.
    """
    pv = _exponent_value(p)
    return _weak_lp(LevelSet.of(*_numerators(f.values, 0), f.size), pv, f.mode == "exact")


def _weak_lp(levels: LevelSet, pv: Union[Fraction, float], exact: bool):
    """``weak_lp_quasinorm`` read off a level set, at an exponent checked by ``_exponent_value``."""
    if not exact:
        root = 1.0 / float(pv)
        return levels.scan(lambda v, c: v * (c / levels.size) ** root, 0.0)[0]
    q = _require_reciprocal_integer(pv)
    return levels.scan(lambda v, c: v * Fraction(c, levels.size) ** q, Fraction(0))[0]


def _maximal_numerators(f: DyadicFunction) -> tuple[Callable[[int, int], np.ndarray], Scalar | None]:
    """The maximal function of ``f`` as ``(cells, unit)``: ``cells(start, stop)`` reads its numerators ``start:stop`` (both even).

    The averages are built fine to coarse by halved pair sums, then the
    running max of their magnitudes is carried coarse to fine in place,
    down to the pairs of cells.  ``cells`` sets that max against ``|f|`` on
    its own cells alone, so a caller that reads a chunk at a time never
    holds all of it.  ``unit`` is as ``functions._numerators`` gives it.
    Exact mode runs on numerators pre-scaled by ``2^m``, each pair sum at
    most twice the largest entry.
    """
    values, unit = _numerators(f.values, 1, shift=f.m)
    averages = []
    cur = values
    for _ in range(f.m):
        cur = cur[0::2] + cur[1::2]
        _halve(cur)
        averages.append(cur)
    best = np.abs(cur)
    for level in reversed(averages[:-1]):
        np.abs(level, out=level)
        pairs = level.reshape(-1, 2)
        np.maximum(pairs, best[:, None], out=pairs)
        best = level

    def cells(start: int, stop: int) -> np.ndarray:
        out = np.abs(values[start:stop])
        pairs = out.reshape(-1, 2)
        np.maximum(pairs, best[start // 2 : stop // 2, None], out=pairs)
        return out

    return cells, unit


def maximal_function(f: DyadicFunction) -> DyadicFunction:
    """Pointwise sup over all levels of the dyadic conditional expectations.

    Level ``k`` averages ``f`` over the level-``k`` interval around each
    point, which coincides with the 2^k-th spectral partial sum; the sup
    runs over ``k = 0 .. m`` and dominates ``|f|``.  The averages are built
    fine to coarse, then the running max is carried coarse to fine in
    place (:func:`_maximal_numerators`): O(2^m) in all.  Exact mode returns
    ``Fraction`` values.
    """
    cells, unit = _maximal_numerators(f)
    return f.with_values(_from_numerators(cells(0, f.size), unit))


def hardy_quasinorm(f: DyadicFunction, p: ExponentLike):
    """H_p quasi-norm: the L_p quasi-norm of the maximal function.

    float64 reads the maximal function a chunk at a time into one exact
    sum of its p-th powers, so it never holds all ``2^m`` of either.
    Exact mode counts the levels straight off the maximal function's
    numerators, so only its distinct levels become ``Fraction`` values.
    """
    return _lp(*_maximal_numerators(f), f.size, p)


def _atom_hardy(packets: list[np.ndarray], level: int, m: int, p: ExponentLike) -> list[float]:
    """``hardy_quasinorm`` at resolution ``m`` of float64 functions on ``I_level(0)``, one per row of their cells' ``packets``.

    ``packets`` is the ``_packet_table`` of the ``2^(m - level)`` cells, and
    its ``Q = {}`` rows are their dyadic averages.  Off ``I_level(0)`` the
    maximal function reads only averages over the intervals that hold it:
    on shell ``s < level`` it is ``|t| 2^(s - level)`` on ``2^(m - s - 1)``
    points, ``t`` the cells' mean as the halved pair sums round it (0
    whenever those sums are exact).  A power-of-two count scales a term
    exactly, so one ``fsum`` per row gives the grid's sum.
    """
    pw = float(_exponent_value(p))
    mean = np.abs(packets[0][..., 0, :])
    best = mean
    for table in packets[1:]:
        best = np.maximum(np.abs(table[..., 0, :]), best.repeat(2, axis=-1))
    shells = np.ldexp(mean, np.arange(level) - level)
    terms = np.concatenate([best, shells], axis=-1) ** pw
    terms[..., best.shape[-1] :] *= _shell_counts(level, m)
    return [(math.fsum(row) / (1 << m)) ** (1.0 / pw) for row in terms.tolist()]


# -- atoms ---------------------------------------------------------------


def atom_sup_bound(level: int, p: PExponent, mode: Mode):
    """The sup-norm cap ``mu(I)^(-1/p)`` on a level-``level`` interval; ``ValueError`` if a float cap overflows."""
    exponent = level * p.reciprocal
    if mode == "exact":
        if exponent.denominator != 1:
            raise ValueError(
                f"exact atoms need an integral bound exponent, got 2^{exponent}"
            )
        return 1 << int(exponent)
    return _power_of_two(float(exponent), f"atom bound 2^{exponent} at level {level}")


def _power_of_two(exponent: float, what: str) -> float:
    """``2.0 ** exponent``; ``ValueError`` naming ``what`` if it overflows float64."""
    try:
        return 2.0 ** exponent
    except OverflowError:
        raise ValueError(f"{what} overflows float64") from None


@dataclass(frozen=True)
class AtomSpec:
    """A candidate atom: a function supported on a dyadic interval."""

    support: DyadicInterval
    values: DyadicFunction
    p: PExponent

    def __post_init__(self) -> None:
        if self.support.m != self.values.m:
            raise ValueError("atom support and values disagree on resolution")


@dataclass(frozen=True)
class AtomValidation:
    """Per-condition verdicts for the three atom requirements."""

    zero_mean: bool
    sup_bound: bool
    support: bool
    worst_violation: float

    @property
    def passed(self) -> bool:
        return self.zero_mean and self.sup_bound and self.support

    def to_json_dict(self) -> dict:
        return {
            "zero_mean": self.zero_mean,
            "sup_bound": self.sup_bound,
            "support": self.support,
            "worst_violation": self.worst_violation,
        }


def validate_atom(a: AtomSpec) -> AtomValidation:
    """Check zero mean on the support, the sup-norm cap, and the support itself.

    All three checks are exact: sums use exact rational arithmetic in exact
    mode and compensated float summation otherwise, so a constructively
    valid atom reports violation 0.0.
    """
    f = a.values
    iv = a.support
    outside_max = 0.0
    if iv.start > 0 or iv.stop < f.size:
        off = np.concatenate([f.values[: iv.start], f.values[iv.stop :]])
        support_ok = bool(np.all(off == 0))
        outside_max = float(max(abs(v) for v in off.tolist())) if not support_ok else 0.0
    else:
        support_ok = True
    [inside] = _validate_cells(f.values[None, iv.start : iv.stop], iv.level, a.p, f.mode, f.size)
    return replace(inside, support=support_ok, worst_violation=max(inside.worst_violation, outside_max))


def _validate_cells(rows: np.ndarray, level: int, p: PExponent, mode: Mode, size: int) -> list[AtomValidation]:
    """``validate_atom`` per row of ``rows``, each an atom's values on its level-``level`` support.

    Nothing lies off the support, so its check passes; the mean violation
    is relative to the ``size`` points of the group.
    """
    bound = atom_sup_bound(level, p, mode)
    out = []
    for row, peak in zip(rows, np.abs(rows).max(axis=-1).tolist()):
        total = _exact_sum(row) if mode == "exact" else math.fsum(row.tolist())
        sup_ok = bool(peak <= bound)
        sup_violation = float(peak - bound) if not sup_ok else 0.0
        out.append(AtomValidation(total == 0, sup_ok, True, max(abs(float(total)) / size, sup_violation)))
    return out
