"""Finite model of the dyadic group.

The group of binary sequences under coordinate-wise mod-2 addition is
modeled at a finite resolution ``m``: every function we handle is constant
on the cosets of the level-``m`` interval around each point, so the first
``m`` coordinates carry all the information.  A point is stored as an
integer index in ``[0, 2^m)`` whose most significant bit is coordinate 0.
Under that convention every dyadic interval is a contiguous index range,
which keeps membership tests and measures O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Union

import numpy as np

#: Largest supported resolution; 2^24 float64 values is the desk-scale ceiling.
MAX_RESOLUTION = 24


@dataclass(frozen=True)
class Resolution:
    """Number of binary coordinates kept in the finite model."""

    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _as_int(self.m, "resolution"))  # a numpy integer is stored as int
        if not 1 <= self.m <= MAX_RESOLUTION:
            raise ValueError(
                f"resolution m={self.m} outside [1, {MAX_RESOLUTION}]"
            )

    @property
    def size(self) -> int:
        return 1 << self.m


ResolutionLike = Union[int, Resolution]


def as_resolution(m: ResolutionLike) -> Resolution:
    return m if isinstance(m, Resolution) else Resolution(m)


def _as_int(value, what: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer, which a ``bool`` is not."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GroupPoint:
    """A group element at resolution ``m``, addressed by its index.

    Coordinate ``x_j`` is bit ``m - 1 - j`` of ``idx``: coordinate 0 is the
    most significant bit.
    """

    m: int
    idx: int

    def __post_init__(self) -> None:
        r = as_resolution(self.m)
        object.__setattr__(self, "m", r.m)
        object.__setattr__(self, "idx", _as_int(self.idx, "index"))
        if not 0 <= self.idx < r.size:
            raise ValueError(f"index {self.idx} outside [0, 2^{self.m})")

    def coordinate(self, j: int) -> int:
        j = _as_int(j, "coordinate")
        if not 0 <= j < self.m:
            raise ValueError(f"coordinate {j} outside [0, {self.m})")
        return (self.idx >> (self.m - 1 - j)) & 1

    def coordinates(self) -> tuple[int, ...]:
        return tuple(self.coordinate(j) for j in range(self.m))

    def __xor__(self, other: "GroupPoint") -> "GroupPoint":
        if self.m != other.m:
            raise ValueError("group addition needs matching resolutions")
        return GroupPoint(self.m, self.idx ^ other.idx)


@dataclass(frozen=True)
class DyadicInterval:
    """Points agreeing with a base point on coordinates ``0 .. level-1``.

    Contiguous as an index range; ``start`` is the canonical (smallest)
    member.  ``level == 0`` is the whole group.
    """

    m: int
    level: int
    start: int

    def __post_init__(self) -> None:
        r = as_resolution(self.m)
        object.__setattr__(self, "m", r.m)
        object.__setattr__(self, "level", _as_int(self.level, "interval level"))
        object.__setattr__(self, "start", _as_int(self.start, "interval start"))
        if not 0 <= self.level <= r.m:
            raise ValueError(f"interval level {self.level} outside [0, {r.m}]")
        if not 0 <= self.start < r.size:
            raise ValueError(f"start {self.start} outside [0, 2^{r.m})")
        if self.start % (1 << (r.m - self.level)) != 0:
            raise ValueError(f"start {self.start} not aligned to level {self.level}")

    @property
    def size(self) -> int:
        return 1 << (self.m - self.level)

    @property
    def stop(self) -> int:
        return self.start + self.size

    @property
    def base(self) -> GroupPoint:
        return GroupPoint(self.m, self.start)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    def indices(self) -> range:
        return range(self.start, self.stop)

    def __str__(self) -> str:
        return f"I_{self.level}({self.start})@m={self.m}"


def interval(x: GroupPoint, n: int) -> DyadicInterval:
    """The level-``n`` dyadic interval containing ``x``."""
    r = as_resolution(x.m)
    n = _as_int(n, "interval level")
    if not 0 <= n <= r.m:
        raise ValueError(f"interval level {n} outside [0, {r.m}]")
    width = r.m - n
    start = (x.idx >> width) << width
    return DyadicInterval(r.m, n, start)


@dataclass(frozen=True)
class ShellDecomposition:
    """The complement of the level-``m`` interval at 0, split into shells.

    Shell ``s`` is the set of points agreeing with 0 on coordinates
    ``0 .. s-1`` but not on coordinate ``s``; as indices it is the range
    ``[2^(m-s-1), 2^(m-s))``, of measure ``2^-(s+1)``.
    """

    m: int

    def __post_init__(self) -> None:
        as_resolution(self.m)

    def shell(self, s: int) -> range:
        s = _as_int(s, "shell index")
        if not 0 <= s < self.m:
            raise ValueError(f"shell index {s} outside [0, {self.m})")
        return range(1 << (self.m - s - 1), 1 << (self.m - s))

    def shells(self) -> list[tuple[int, range]]:
        return [(s, self.shell(s)) for s in range(self.m)]


def shell_decomposition(m: ResolutionLike) -> ShellDecomposition:
    return ShellDecomposition(as_resolution(m).m)


def _shell_counts(level: int, m: int) -> np.ndarray:
    """The points of shells ``s = 0 .. level - 1`` off ``I_level(0)`` at resolution ``m``: ``2^(m-s-1)`` each."""
    return 1 << (m - 1 - np.arange(level))


def measure(indices: Iterable[int], m: ResolutionLike) -> Fraction:
    """Normalized counting measure of an index set, as an exact rational; ``ValueError`` on a non-integer entry."""
    r = as_resolution(m)
    arr = np.asarray(indices if isinstance(indices, (np.ndarray, range)) else list(indices))
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"index set must hold integers in [0, 2^{r.m}), got {arr.dtype} entries")
    arr = np.unique(arr.astype(np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= r.size):
        raise ValueError(f"index set not contained in [0, 2^{r.m})")
    return Fraction(int(arr.size), r.size)
