"""The universal signal type: functions constant on level-``m`` cosets.

A :class:`DyadicFunction` stores one value per index in ``[0, 2^m)``.  Two
numeric modes are supported:

* ``"float64"`` — a plain float64 vector, the workhorse for experiments;
* ``"exact"`` — an object vector of Python ints and ``Fraction`` values
  whose denominators are powers of two.  Every kernel, atom and integral
  arising here is such a dyadic rational, so exact mode admits
  tolerance-zero tests.

``Fraction`` values live at the API boundary only.  Every exact engine
(transform, partial sums, maximal function, level counts, packet table,
maximal operators) reads its input through ``_numerators``: integer
numerators over one common denominator, int64 when the caller's stated
bound rules out overflow and Python ints in an object array otherwise.
``_from_numerators`` turns their output back into exact values, and
``_halve`` and ``_divider`` are the per-dtype steps in between, so every
per-mode decision of those engines lives here.

CSV and raw-binary serialization for both directions live here too.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from pathlib import Path
from typing import Callable, Literal, Union

import numpy as np

from .group import GroupPoint, ResolutionLike, as_resolution

Mode = Literal["exact", "float64"]

Scalar = Union[int, float, Fraction]


def is_dyadic_rational(v) -> bool:
    """True for ints and fractions whose denominator is a power of two."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return True
    if isinstance(v, Fraction):
        d = v.denominator
        return d & (d - 1) == 0
    return False


def _mode_dtype(mode: Mode) -> np.dtype:
    """The dtype each mode holds: float64, or objects (ints and ``Fraction`` values) when exact."""
    if mode == "float64":
        return np.dtype(np.float64)
    if mode == "exact":
        return np.dtype(object)
    raise ValueError(f"unknown mode {mode!r}")


def _seal(arr: np.ndarray, m: int, mode: Mode, what: str) -> None:
    """Check ``arr`` holds one entry per index at resolution ``m`` in the mode's dtype; freeze it."""
    r = as_resolution(m)
    if arr.shape != (r.size,):
        raise ValueError(f"expected {r.size} {what} at resolution {r.m}, got shape {arr.shape}")
    if arr.dtype != _mode_dtype(mode):
        raise ValueError(f"{mode} mode requires {_mode_dtype(mode)} {what}, got {arr.dtype}")
    arr.setflags(write=False)


def _halve(table: np.ndarray) -> None:
    """Halve ``table`` in place: ``*= 0.5`` in float64, ``>>= 1`` on integer numerators.

    Integer callers pre-scale their numerators (see :func:`_numerators`)
    so that every halving they make is exact.
    """
    if table.dtype == np.float64:
        table *= 0.5
    else:
        table >>= 1


def _numerators(values: np.ndarray, headroom: int, shift: int = 0) -> tuple[np.ndarray, Scalar | None]:
    """An engine's integer input: ``(nums, unit)`` with ``values == nums * unit``.

    Exact values become numerators over one denominator ``K``, the lcm of
    their denominators (so a non-dyadic entry works too), times ``2^shift``;
    ``unit`` is ``Fraction(1, K 2^shift)``, or the int 1 when every value is
    an int and ``shift`` is 0, so that :func:`_from_numerators` gives back
    the element types ``Fraction`` arithmetic on ``values`` would.  The
    caller's ``headroom`` bounds its intermediates: none exceeds
    ``2^headroom`` times the largest ``|nums|``.  Then ``nums`` is int64
    when ``bits(max |nums|) + headroom <= 62``, so that no intermediate
    reaches ``2^62``, and an object array of Python ints otherwise.
    float64 values pass through, with ``unit`` None.
    """
    if values.dtype != object:
        return values, None
    vals = values.tolist()
    denom = math.lcm(*{v.denominator for v in vals})
    nums = [(v.numerator * (denom // v.denominator)) << shift for v in vals]
    wide = max(map(abs, nums)).bit_length() + headroom > 62
    unit = Fraction(1, denom << shift) if shift or any(isinstance(v, Fraction) for v in vals) else 1
    return np.array(nums, dtype=object if wide else np.int64), unit


def _divider(divisors: np.ndarray, unit: Scalar | None):
    """``(op, by, unit)``: ``op(x, by[i])`` is ``x / divisors[i]``, in entries worth the new ``unit``.

    float64 (``unit`` None) divides.  On integer numerators every divisor
    must divide the largest, ``D``, as exact spread weights (powers of two)
    do; then ``op`` multiplies by the integer ``D // divisors[i]``, which
    is at most ``D``, and each entry is worth ``unit / D``.
    """
    if unit is None:
        return np.divide, divisors, None
    top = max(divisors)
    by = [int(top // d) for d in divisors]
    return np.multiply, np.array(by, dtype=np.int64 if int(top).bit_length() <= 62 else object), unit / top


def _from_numerators(nums: np.ndarray, unit: Scalar | None, divisor: int = 1) -> np.ndarray:
    """The values ``nums * unit / divisor`` that :func:`_numerators` stood for.

    In exact mode an object array: int entries times the int unit stay
    ints, anything times a ``Fraction`` is a ``Fraction``.  float64 entries
    (``unit`` None) are divided as they are.
    """
    if unit is None:
        return nums if divisor == 1 else nums / divisor
    if divisor != 1:
        unit = unit * Fraction(1, divisor)
    if isinstance(unit, int):
        return np.array(nums.tolist(), dtype=object)
    # unit is 1/D: one Fraction(v, D) per entry costs half of v * unit.
    return np.array([Fraction(v, unit.denominator) for v in nums.tolist()], dtype=object)


#: Floats ``_float_sum`` reads at a time; each chunk's per-exponent bins stay exact (see there).
_SUM_CHUNK = 1 << 15

_MANTISSA_BITS = 52
_EXPONENT_FIELDS = 1 << 11  # biased exponent fields 0 .. 2046; 2047 is inf and nan
_LOW_BITS = 26
_LOW_MASK = (1 << _LOW_BITS) - 1
# Every finite float64 is mant * 2^(max(field, 1) - 1075) with a signed 53-bit integer mant.
_SCALE = 1 << 1075


def _float_sum(cells: Callable[[int, int], np.ndarray], size: int) -> float:
    """The correctly rounded sum of the ``size`` floats ``cells(0, size)``, bit for bit ``math.fsum``'s.

    ``cells(start, stop)`` returns those entries, so the floats are read
    one ``_SUM_CHUNK`` at a time and never held at once.  Each chunk's
    floats split into exponent fields and signed integer mantissas; two
    ``np.bincount`` calls add the mantissas' high 27 and low 26 bits per
    field.  Float64 adds such terms exactly for up to ``2^26`` of them per
    bin, far beyond a chunk.  The bins fold into one Python int, the exact
    sum times ``2^1075``, and its one int true division by ``2^1075`` is
    correctly rounded, as ``math.fsum`` is.

    A chunk holding inf or nan sends the whole sum to ``math.fsum``, so
    non-finite input gives fsum's results and errors.  An exact sum past
    the float64 range raises ``OverflowError``, as fsum does; fsum raises
    it also when only a running sum leaves the range, where this returns
    the correctly rounded sum.
    """
    total = 0
    for start in range(0, size, _SUM_CHUNK):
        bits = np.ascontiguousarray(cells(start, start + _SUM_CHUNK), dtype=np.float64).view(np.int64)
        field = (bits >> _MANTISSA_BITS) & (_EXPONENT_FIELDS - 1)
        if bits.size and field.max() == _EXPONENT_FIELDS - 1:
            chunks = (cells(i, i + _SUM_CHUNK).tolist() for i in range(0, size, _SUM_CHUNK))
            return math.fsum(itertools.chain.from_iterable(chunks))
        # |mant| is the fraction field plus the implicit bit of a normal float; the sign bit negates it.
        mant = bits & ((1 << _MANTISSA_BITS) - 1)
        mant |= np.minimum(field, 1) << _MANTISSA_BITS
        sign = bits >> 63
        mant ^= sign
        mant -= sign
        np.maximum(field, 1, out=field)
        high = np.bincount(field, (mant >> _LOW_BITS).astype(np.float64), _EXPONENT_FIELDS)
        low = np.bincount(field, (mant & _LOW_MASK).astype(np.float64), _EXPONENT_FIELDS)
        used = np.flatnonzero((high != 0) | (low != 0))
        for e, h, lo in zip(used.tolist(), high[used].tolist(), low[used].tolist()):
            total += ((int(h) << _LOW_BITS) + int(lo)) << e
    return total / _SCALE


def _exact_sum(values: np.ndarray):
    """The sum of ``values``: exact in exact mode, correctly rounded in float64 (see :func:`_float_sum`)."""
    if values.dtype == object:
        return sum(values.tolist(), Fraction(0))
    flat = values.reshape(-1)
    return _float_sum(lambda start, stop: flat[start:stop], flat.size)


def _coerce_exact(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        if isinstance(v, np.integer):
            v = int(v)
        if not is_dyadic_rational(v):
            raise ValueError(f"exact mode requires dyadic rationals, got {v!r}")
        out[i] = v
    return out


@dataclass(frozen=True, eq=False)
class DyadicFunction:
    """A function on the group at resolution ``m``, one value per index."""

    m: int
    values: np.ndarray
    mode: Mode = "float64"

    def __post_init__(self) -> None:
        _seal(self.values, self.m, self.mode, "values")

    # -- construction -------------------------------------------------

    @classmethod
    def from_values(cls, m: ResolutionLike, values, mode: Mode = "float64") -> "DyadicFunction":
        r = as_resolution(m)
        if mode == "exact":
            arr = _coerce_exact(list(values))
        else:
            arr = np.asarray(values, dtype=np.float64).copy()
            if not np.isfinite(arr).all():
                raise ValueError("float64 values must be finite")
        return cls(r.m, arr, mode)

    @classmethod
    def zeros(cls, m: ResolutionLike, mode: Mode = "float64") -> "DyadicFunction":
        r = as_resolution(m)
        return cls(r.m, np.zeros(r.size, _mode_dtype(mode)), mode)

    @classmethod
    def constant(cls, m: ResolutionLike, value: Scalar, mode: Mode = "float64") -> "DyadicFunction":
        r = as_resolution(m)
        if mode == "exact":
            if not is_dyadic_rational(value):
                raise ValueError(f"exact mode requires a dyadic rational, got {value!r}")
            arr = np.full(r.size, value, dtype=object)
        elif not math.isfinite(float(value)):
            raise ValueError(f"float64 value {value!r} is not finite")
        else:
            arr = np.full(r.size, float(value))
        return cls(r.m, arr, mode)

    # -- basic queries -------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def value(self, idx: int) -> Scalar:
        return self.values[idx]

    def integral(self) -> Scalar:
        """Mean of the values: the integral against normalized measure."""
        return _exact_sum(self.values) / self.size

    def with_values(self, values: np.ndarray) -> "DyadicFunction":
        return DyadicFunction(self.m, values, self.mode)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "DyadicFunction") -> None:
        if self.m != other.m or self.mode != other.mode:
            raise ValueError("operands must share resolution and mode")

    def __add__(self, other: "DyadicFunction") -> "DyadicFunction":
        self._check_compatible(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "DyadicFunction") -> "DyadicFunction":
        self._check_compatible(other)
        return self.with_values(self.values - other.values)

    def __neg__(self) -> "DyadicFunction":
        return self.with_values(-self.values)

    def __abs__(self) -> "DyadicFunction":
        return self.with_values(np.abs(self.values))

    def __mul__(self, other: Union["DyadicFunction", Scalar]) -> "DyadicFunction":
        if isinstance(other, DyadicFunction):
            self._check_compatible(other)
            return self.with_values(self.values * other.values)
        if self.mode == "exact":
            if not is_dyadic_rational(other):
                raise ValueError(f"exact mode requires a dyadic rational scalar, got {other!r}")
            return self.with_values(self.values * other)
        return self.with_values(self.values * float(other))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Walsh-Fourier coefficients in Paley order; entry ``k`` pairs with ``w_k``."""

    m: int
    coeffs: np.ndarray
    mode: Mode = "float64"

    def __post_init__(self) -> None:
        _seal(self.coeffs, self.m, self.mode, "coefficients")

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]


def values_equal(a: Union[DyadicFunction, SpectralVector], b: Union[DyadicFunction, SpectralVector]) -> bool:
    """Elementwise equality of the stored values (exact; no tolerance)."""
    va = a.values if isinstance(a, DyadicFunction) else a.coeffs
    vb = b.values if isinstance(b, DyadicFunction) else b.coeffs
    if va.shape != vb.shape:
        return False
    return bool(np.all(va == vb))


def translate(f: DyadicFunction, t: Union[int, GroupPoint]) -> DyadicFunction:
    """Group translation ``x -> f(x + t)``, realized as XOR on indices; ``t`` at the resolution of ``f``."""
    if isinstance(t, GroupPoint) and t.m != f.m:
        raise ValueError(f"translation point at resolution {t.m}, function at resolution {f.m}")
    shift = t.idx if isinstance(t, GroupPoint) else int(t)
    if not 0 <= shift < f.size:
        raise ValueError(f"translation index {shift} outside [0, {f.size})")
    idx = np.arange(f.size) ^ shift
    return f.with_values(f.values[idx])


# -- serialization ------------------------------------------------------

_CSV_HEADER = "index,value"


def _format_value(v, mode: Mode) -> str:
    if mode == "exact":
        return str(v)  # ints as "3", fractions as "p/q"
    return repr(float(v))


def _csv_text(f: Union[DyadicFunction, SpectralVector]) -> str:
    """The ``index,value`` rows :func:`store_csv` writes."""
    vals = f.values if isinstance(f, DyadicFunction) else f.coeffs
    lines = [_CSV_HEADER]
    lines.extend(f"{i},{_format_value(v, f.mode)}" for i, v in enumerate(vals))
    return "\n".join(lines) + "\n"


def store_csv(f: Union[DyadicFunction, SpectralVector], path: Union[str, Path]) -> None:
    """Write ``index,value`` rows; exact mode emits integers and ``p/q``."""
    Path(path).write_text(_csv_text(f))


def _parse_value(text: str):
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"value {text!r} has a zero denominator") from None
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value {text!r} is not finite")
    return value


def load_csv(path: Union[str, Path], mode: Mode | None = None) -> DyadicFunction:
    """Read a function written by :func:`store_csv`.

    Mode is inferred when not given: exact iff every value parses as an
    integer or a fraction.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise ValueError(f"{path}: missing '{_CSV_HEADER}' header")
    pairs = []
    for ln in lines[1:]:
        i_s, v_s = ln.split(",", 1)
        pairs.append((int(i_s), _parse_value(v_s)))
    pairs.sort()
    n = len(pairs)
    if n == 0 or n & (n - 1):
        raise ValueError(f"{path}: value count {n} is not a power of two")
    if [i for i, _ in pairs] != list(range(n)):
        raise ValueError(f"{path}: indices are not 0..{n - 1}")
    values = [v for _, v in pairs]
    if mode is None:
        mode = "exact" if all(isinstance(v, Rational) for v in values) else "float64"
    m = n.bit_length() - 1
    if mode == "exact":
        return DyadicFunction.from_values(m, values, "exact")
    return DyadicFunction.from_values(m, [float(v) for v in values], "float64")


def store_binary(f: DyadicFunction, path: Union[str, Path]) -> None:
    """Raw little-endian float64 dump with an 8-byte count prefix."""
    if f.mode != "float64":
        raise ValueError("binary format is float64-only; use CSV for exact mode")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", f.size))
        fh.write(f.values.astype("<f8").tobytes())


def load_binary(path: Union[str, Path]) -> DyadicFunction:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    (n,) = struct.unpack("<Q", raw[:8])
    if n == 0 or n & (n - 1):
        raise ValueError(f"{path}: value count {n} is not a power of two")
    body = raw[8:]
    if len(body) != 8 * n:
        raise ValueError(f"{path}: expected {8 * n} payload bytes, got {len(body)}")
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: payload holds a value that is not finite")
    return DyadicFunction(n.bit_length() - 1, values, "float64")
