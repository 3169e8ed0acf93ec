"""Generators for test objects: atoms, the sharpness sequence, probe orders.

Atoms come from three recipes: the two-sided indicator pair that saturates
the sup-norm cap, balanced random signs at the cap, and mean-corrected
random values below it.  Randomness uses a counter-based generator keyed
from the recipe, so every atom is bit-reproducible across platforms and
safe to generate in parallel.

The sharpness sequence is the difference of consecutive power-of-two
Dirichlet kernels; its spectrum is the indicator of one dyadic frequency
block, which makes it the canonical input for divergence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .analysis import AtomSpec, PExponent, _validate_cells, atom_sup_bound
from .functions import DyadicFunction, Mode, _mode_dtype
from .group import GroupPoint, ResolutionLike, _as_int, as_resolution, interval
from .spectral import index_stats

Generator = Literal["haar-pair", "random-signs", "random-bounded"]

GENERATORS: tuple[Generator, ...] = ("haar-pair", "random-signs", "random-bounded")

_MASK64 = (1 << 64) - 1
_RAW_MAGNITUDE = 1 << 12  # raw integer range for the bounded generator


@dataclass(frozen=True)
class AtomRecipe:
    """Everything needed to reproduce one atom."""

    support_level: int
    base: int
    p: PExponent
    generator: Generator
    seed: int

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown atom generator {self.generator!r}")
        object.__setattr__(self, "support_level", _as_int(self.support_level, "support level"))
        object.__setattr__(self, "base", _as_int(self.base, "base index"))
        object.__setattr__(self, "seed", _as_int(self.seed, "atom seed"))
        if self.support_level < 0:
            raise ValueError(f"support level {self.support_level} must be >= 0")
        if self.base < 0:
            raise ValueError(f"base index {self.base} must be >= 0")


def _rng_for(recipe: AtomRecipe, m: int) -> np.random.Generator:
    lane = (
        (recipe.support_level << 40)
        ^ (recipe.base << 16)
        ^ (GENERATORS.index(recipe.generator) << 8)
        ^ m
    )
    key = np.array([recipe.seed & _MASK64, lane & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _power_of_two_fit(max_mag: int, bound) -> int:
    """Largest j with ``max_mag * 2^j <= bound``; keeps scaling dyadic.

    ``Fraction(bound)`` is exact for an int or a float bound.  A ratio with
    an ``a``-bit numerator and a ``b``-bit denominator lies in
    ``(2^(a-b-1), 2^(a-b+1))``, so one comparison settles ``j``.
    """
    ratio = Fraction(bound) / max_mag
    j = ratio.numerator.bit_length() - ratio.denominator.bit_length()
    return j if Fraction(2) ** j <= ratio else j - 1


def make_atom(
    recipe: AtomRecipe,
    m: ResolutionLike,
    mode: Mode = "float64",
) -> AtomSpec:
    """Emit a valid atom per the recipe: its support cells (``_atom_cells``) placed on the grid."""
    r = as_resolution(m)
    [cells] = _atom_cells([recipe], r.m, mode)
    iv = interval(GroupPoint(r.m, recipe.base), recipe.support_level)
    # Cells off the support stay integer zeros in exact mode.
    values = np.zeros(r.size, dtype=object if mode == "exact" else np.float64)
    values[iv.start : iv.stop] = cells
    return AtomSpec(iv, DyadicFunction(r.m, values, mode), recipe.p)


def _atom_cells(recipes: Sequence[AtomRecipe], m: ResolutionLike, mode: Mode = "float64") -> np.ndarray:
    """The recipes' atoms at resolution ``m`` on their ``2^(m - level)`` support cells, one checked row each.

    The recipes share one support level and exponent; each draws from its
    own generator, so a row does not depend on the others.  Every recipe
    builds integer units on the support times one scale: the sup bound for
    the two sign recipes, and a power of two for the bounded generator,
    which draws integers and removes their mean in integer arithmetic.  So
    even float64 atoms sum to exactly zero.
    """
    r = as_resolution(m)
    M, p = recipes[0].support_level, recipes[0].p
    if any(rc.support_level != M or rc.p != p for rc in recipes):
        raise ValueError("atoms built together share one support level and exponent")
    if M > r.m:
        raise ValueError(f"support level {M} exceeds resolution {r.m}")
    if mode == "exact" and not p.is_exact:
        raise ValueError(f"exact atoms need 1/p integral, got p = {p}")
    ncells = 1 << (r.m - M)
    if ncells < 2:
        raise ValueError("atom support has a single cell; only the zero atom fits")
    bound = atom_sup_bound(M, p, mode)

    pair = np.repeat(np.array([1, -1], dtype=np.int64), ncells // 2)
    units = np.empty((len(recipes), ncells), dtype=np.int64)
    scales = []
    for row, recipe in zip(units, recipes):
        if recipe.generator == "random-bounded":
            draws = _rng_for(recipe, r.m).integers(-_RAW_MAGNITUDE, _RAW_MAGNITUDE + 1, ncells)
            row[:] = ncells * draws - draws.sum()
            max_mag = int(np.abs(row).max())
            scales.append(Fraction(2) ** _power_of_two_fit(max_mag, bound) if max_mag else 1)
        else:
            row[:] = _rng_for(recipe, r.m).permutation(pair) if recipe.generator == "random-signs" else pair
            scales.append(bound)

    if mode == "exact":
        values = units.astype(object) * np.array(scales, dtype=object)[:, None]
    else:
        values = units * np.array([float(scale) for scale in scales])[:, None]
    for report in _validate_cells(values, M, p, mode, r.size):
        if not report.passed:
            raise RuntimeError(f"generated atom violates its own contract: {report.to_json_dict()}")
    return values


def counterexample_fn(n: int, m: ResolutionLike, mode: Mode = "exact") -> DyadicFunction:
    """Difference of the dyadic kernels of orders ``2^(n+1)`` and ``2^n``.

    Supported on the level-``n`` interval at 0 with values of magnitude
    ``2^n``; its spectrum is the indicator of ``[2^n, 2^(n+1))``.
    """
    r = as_resolution(m)
    n = _as_int(n, "sharpness scale")
    if n < 1:
        raise ValueError(f"sharpness scale must be >= 1, got {n}")
    if n + 1 > r.m:
        raise ValueError(f"scale {n} needs resolution >= {n + 1}, got {r.m}")
    half = 1 << (r.m - n - 1)
    values = np.zeros(r.size, dtype=_mode_dtype(mode))  # exact mode's zeros are ints
    values[:half] = 1 << n
    values[half : 2 * half] = -(1 << n)
    return DyadicFunction(r.m, values, mode)


@dataclass(frozen=True)
class ProbeIndex:
    """An order strictly between consecutive powers of two with a prescribed low bit."""

    n: int
    s: int
    q: int

    def __post_init__(self) -> None:
        stats = index_stats(self.q)
        if not (stats.low == self.s and stats.high == self.n and stats.rho == self.n - self.s):
            raise ValueError(f"probe order {self.q} inconsistent with (n={self.n}, s={self.s})")


def probe_index(n: int, s: int) -> ProbeIndex:
    """The canonical probe ``q = 2^n + 2^s`` with lowest set bit ``s``."""
    n, s = _as_int(n, "probe scale"), _as_int(s, "probe bit")
    if not 0 <= s < n:
        raise ValueError(f"probe bit s={s} must satisfy 0 <= s < n={n}")
    return ProbeIndex(n=n, s=s, q=(1 << n) + (1 << s))
