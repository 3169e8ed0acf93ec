"""The verification harness.

Every claim the library makes about its operators becomes a named,
reproducible experiment with a machine-readable verdict:

* kernel identities — three Dirichlet constructions agree bit-exactly,
  including the shift identity between a kernel block and its twist;
* the kernel lower-bound lemma on the interval pinned by the lowest bit;
* the L1-norm sandwich between the binary variation and an eighth of it;
* weak-type boundedness of the spread-weighted maximal operator on atoms
  (stability of measured constants across support levels);
* sharpness: growth of the normalized operator ratio along the sharpness
  sequence, and divergence of the weak quasi-norm for any weaker weight.

Measured constants are empirical: the theory only asserts their existence,
so verdicts enforce stability or growth trends rather than absolute caps.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from functools import partial
from numbers import Integral
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .analysis import LevelSet, PExponent, _atom_hardy, _level_sets, _weak_lp, hardy_quasinorm, lp_quasinorm
from .constructions import _MASK64, GENERATORS, AtomRecipe, _atom_cells, counterexample_fn, probe_index
from .group import MAX_RESOLUTION, as_resolution, shell_decomposition
from .operators import (
    PolyWeight,
    RhoWeight,
    Subsequence,
    TableWeight,
    UnitWeight,
    WeightScheme,
    _atom_maximal,
    _packet_table,
    _spread_recursion,
    _spread_weights,
    _weak_type,
    float_weight,
    scheme_from_json,
    scheme_to_json,
    weighted_maximal,
)
from .reporting import ExperimentReport
from .spectral import (
    _binary_variation,
    _dirichlet_direct_int64,
    _dirichlet_dyadic_int64,
    _dirichlet_fast_int64,
    _kernel_pair_stream,
    _kernel_rows_stream,
    partial_sum,
    walsh_rows,
)

_GOLDEN = 0x9E3779B97F4A7C15

#: Resolution caps for the exhaustive sweeps.
KERNEL_SWEEP_MAX = 12
SANDWICH_SWEEP_MAX = 14
ATOM_RESOLUTION_MAX = 14


class ConfigError(ValueError):
    """A config failed validation; ``problems`` lists the offending fields."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid experiment config: " + "; ".join(self.problems))


class ExperimentContract(NamedTuple):
    """The config fields an experiment reads, the case keys of its TSV series and its config check.

    ``validate`` raises ``ConfigError`` if a config cannot run the
    experiment, and runs nothing.
    """

    fields: tuple[str, ...]
    series: tuple[str, str]
    validate: Callable[["ExperimentConfig"], object]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter carrier; each experiment reads the fields ``EXPERIMENTS`` lists for it and refuses any other set.

    Every way of building a config runs ``_FIELD_CHECKS``, with JSON lists
    read as tuples and numpy integers as ``int``; a bad field raises
    ``ConfigError`` naming it.
    """

    name: str = ""
    p_list: tuple[str, ...] = ()
    support_levels: tuple[int, ...] = ()
    resolution: int | None = None
    scales: tuple[int, ...] = ()
    trials: int = 100
    seed: int = 0
    extra_resolution: int = 2
    scheme: dict | None = None
    probes: tuple[tuple[int, int], ...] | None = None
    expectation: str | None = None
    ratio_cap: float = 1.2
    growth_floor: float = 1.5
    band_cap: float = 2.0
    slope_fraction: float = 0.8
    jobs: int = 1

    def __post_init__(self) -> None:
        problems: list[str] = []
        for field in dataclass_fields(self):
            value = _plain(getattr(self, field.name))
            if field.name == "p_list" and isinstance(value, tuple):
                value = tuple(map(str, value))
                seen = set()
                for pstr in value:
                    try:
                        exponent = PExponent.parse(pstr).p
                    except ValueError as exc:
                        problems.append(f"'p_list' entry {pstr!r} is not an exponent in (0, 1]: {exc}")
                        continue
                    if exponent in seen:
                        problems.append(f"'p_list' entry {pstr!r} repeats the exponent {exponent}")
                    seen.add(exponent)
            object.__setattr__(self, field.name, value)
            ok, message = _FIELD_CHECKS[field.name]
            if not ok(value):
                problems.append(f"'{field.name}' {message}")
        if problems:
            raise ConfigError(problems)

    def to_json_dict(self, experiment: str) -> dict:
        """The fields ``experiment`` records in its report: all it reads but ``jobs``."""
        return {name: getattr(self, name) for name in EXPERIMENTS[experiment].fields if name != "jobs"}

    @classmethod
    def from_json_dict(cls, data: dict, experiment: str) -> "ExperimentConfig":
        """Parse a config file's object; only the fields ``experiment`` reads are allowed."""
        allowed, known = EXPERIMENTS[experiment].fields, {f.name for f in dataclass_fields(cls)}
        problems = [
            f"field '{key}' " + (f"is not read by {experiment}" if key in known else "is unknown")
            for key in data
            if key not in allowed
        ]
        try:
            cfg = cls(**{key: value for key, value in data.items() if key in allowed})
        except ConfigError as exc:
            problems += exc.problems
        if problems:
            raise ConfigError(problems)
        return cfg


def _is_int(value) -> bool:
    """An integer config value; JSON ``true`` and ``false`` parse as ``bool`` and are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_seed(value) -> bool:
    """A seed in ``[0, 2^64)``: trial seeds are masked to 64 bits, so a seed outside would repeat another's cases."""
    return _is_int(value) and 0 <= value <= _MASK64


def _plain(value):
    """``value`` with its lists, at any depth, as tuples and its integers but ``bool`` as ``int``."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_plain, value))
    return int(value) if isinstance(value, Integral) and not isinstance(value, bool) else value


def _ints(value, distinct: bool = False) -> bool:
    """A tuple of integers, no two equal if ``distinct``."""
    ints = isinstance(value, tuple) and all(map(_is_int, value))
    return ints and not (distinct and len(set(value)) < len(value))


#: Each field's type check, run on the value as ``_plain`` gives it, and its message.
_FIELD_CHECKS: dict[str, tuple[Callable[[object], bool], str]] = {
    "name": (lambda v: isinstance(v, str) and "/" not in v and "\\" not in v,
             "must be a string without a path separator"),
    "p_list": (lambda v: isinstance(v, tuple), "must be a list"),
    "support_levels": (partial(_ints, distinct=True), "entries must be distinct integers"),
    "resolution": (lambda v: v is None or _is_int(v), "must be an integer"),
    "scales": (partial(_ints, distinct=True), "entries must be distinct integers"),
    **dict.fromkeys(("trials", "extra_resolution", "jobs"), (_is_int, "must be an integer")),
    "seed": (_is_seed, "must be an integer in [0, 2^64)"),
    "scheme": (lambda v: v is None or isinstance(v, dict), "must be an object"),
    "probes": (lambda v: v is None or isinstance(v, tuple) and all(_ints(q) and len(q) == 2 for q in v),
               "must be a list of [n, s] integer pairs"),
    "expectation": (lambda v: v in (None, "divergent", "bounded"), "must be 'divergent', 'bounded', or omitted"),
    **dict.fromkeys(
        ("ratio_cap", "growth_floor", "band_cap", "slope_fraction"),
        (lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)), "must be a finite number"),
    ),
}


def _shared_problems(cfg: ExperimentConfig, experiment: str) -> list[str]:
    """The rules every experiment shares: a nonempty ``p_list`` in (0, 1), and no field it does not read set.

    A set field is one that differs from its default; a config file meets
    the same rule, worded the same, in ``from_json_dict``.
    """
    read = EXPERIMENTS[experiment].fields
    problems = [
        f"field '{f.name}' is not read by {experiment}"
        for f in dataclass_fields(cfg)
        if f.name not in read and getattr(cfg, f.name) != f.default
    ]
    if not cfg.p_list:
        problems.append("'p_list' must be nonempty")
    for pstr in cfg.p_list:
        if not PExponent.parse(pstr).p < 1:
            problems.append(f"'p_list' entry {pstr} must lie in (0, 1)")
    return problems


def _scale_problems(scales: Sequence[int], resolution: int) -> list[str]:
    """The scale rule both parts of thm2 share: scale ``n`` runs at resolution ``n + 1``.

    That must lie within ``resolution`` and the group's cap, so every
    scale is checked before any runs.
    """
    top = min(resolution, MAX_RESOLUTION) - 1
    if all(1 <= n <= top for n in scales):
        return []
    return [f"'scales' must lie within [1, {top}]: scale n runs at n + 1 <= resolution {resolution}, "
            f"and at most {MAX_RESOLUTION}"]


def _provenance(seed: int | None) -> dict:
    return {"seed": seed, "package_version": _pkg_version, "numpy_version": np.__version__}


def _config_report(
    experiment: str, default_name: str, cfg: ExperimentConfig, cases: list, summary: dict, verdict: bool
) -> ExperimentReport:
    """The report of an ``EXPERIMENTS`` run, recording the config fields it read."""
    return ExperimentReport(
        cfg.name or default_name, cfg.to_json_dict(experiment), cases, summary, verdict, _provenance(cfg.seed)
    )


def _consecutive_ratios(values: Sequence[float]) -> list[float]:
    out = []
    for a, b in zip(values, values[1:]):
        if a == 0:
            out.append(1.0 if b == 0 else float("inf"))
        else:
            out.append(b / a)
    return out


#: Trend gates of the corollary suite; each report's config records them.
_COROLLARY_STABLE_CAP = 1.4
_COROLLARY_BAND_CAP = 4.0
_COROLLARY_GROWTH_FLOOR = 1.7


def _window_trend(maxima: Sequence[float]) -> dict:
    """Classify a per-level series as flat or growing.

    Uses two-level windows at both ends so that parity oscillations (a
    weight matching the bit spread only at every other order) do not
    masquerade as growth, plus an overall band check.
    """
    lo = max(maxima[:2])
    hi = max(maxima[-2:])
    if lo > 0:
        growth = hi / lo
    else:
        growth = float("inf") if hi > 0 else 1.0
    nonzero = [v for v in maxima if v > 0]
    band = max(nonzero) / min(nonzero) if nonzero else 1.0
    return {
        "max_by_level": list(maxima),
        "window_growth": growth,
        "band": band,
        "stable": growth <= _COROLLARY_STABLE_CAP and band <= _COROLLARY_BAND_CAP,
        "growing": growth >= _COROLLARY_GROWTH_FLOOR,
    }


def worker_count(jobs: int) -> int:
    """The worker count for ``jobs``: ``ValueError`` below 1, capped at the CPU count."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _map_tasks(fn: Callable, tasks: list, jobs: int) -> list:
    """Order-preserving map; a process pool when more than one worker is allowed."""
    jobs = worker_count(jobs)
    if jobs == 1 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


# -- kernel identity sweep --------------------------------------------------


def _sweep_resolution(m: int, cap: int, sweep: str):
    r = as_resolution(m)
    if r.m > cap:
        raise ValueError(f"{sweep} capped at m = {cap}, got {r.m}")
    return r


def _sweep_report(name: str, m: int, cases: list, summary: dict, verdict: bool) -> ExperimentReport:
    return ExperimentReport(name, {"resolution": m}, cases, summary, verdict, _provenance(None))


@dataclass
class _KernelTally:
    """What one pass over the kernels ``D_1 .. D_{2^m}`` found; each verifier reads its own part."""

    m: int
    direct_fast: int = 0  # orders whose definition sum and binary-expansion assembly differ
    closed_form: int = 0  # orders 2^k whose kernel differs from the closed form
    shift_checked: int = 0
    shift: int = 0
    lemma_checked: int = 0
    equality: int = 0
    bound: int = 0
    lemma_min: int | None = None  # least min |D_n| on a pinned interval of level l, times 2^(m - l)
    abs_sums: np.ndarray | None = None  # 2^m ||D_n||_1 at index n - 1


def _kernel_sweep(m: int, identities: bool = False, lemma1: bool = False, sandwich: bool = False) -> _KernelTally:
    """One pass over the kernels ``D_1 .. D_{2^m}``, tallying only the parts asked for.

    The shift identity and Lemma 1 pair each block above a power of two
    with the kernels below it, so they read ``_kernel_pair_stream``; its
    ``D_1`` and high rows give every order once, and feed the per-order
    checks and the L1 sums as well.  The sandwich alone reads one running
    sum and skips the low-order replay.
    """
    tally = _KernelTally(m, abs_sums=np.empty(1 << m, dtype=np.int64) if sandwich else None)

    def per_order(lo: int, rows: np.ndarray) -> None:  # rows[i] is D_{lo+i+1}
        hi = lo + rows.shape[0]
        if identities:
            fast = _dirichlet_fast_int64(lo + 1, hi + 1, m)
            tally.direct_fast += int((rows != fast).any(axis=1).sum())
            for k in range(lo.bit_length(), hi.bit_length()):  # the orders 2^k in lo+1 .. hi
                tally.closed_form += not np.array_equal(rows[(1 << k) - lo - 1], _dirichlet_dyadic_int64(k, m))
        if sandwich:
            tally.abs_sums[lo:hi] = np.abs(rows).sum(axis=1, dtype=np.int64)

    if not (identities or lemma1):
        for lo, rows in _kernel_rows_stream(m):
            per_order(lo, rows)
        return tally
    shells = shell_decomposition(m)
    for k, lo, low, high, base in _kernel_pair_stream(m):
        if k == 0:
            per_order(0, low)  # D_1, by its definition
        per_order((1 << k) + lo, high)
        if identities:
            if lo == 0:
                twist = walsh_rows(1 << k, (1 << k) + 1, m)[0]
            tally.shift_checked += low.shape[0]
            tally.shift += int((high - base != low * twist).any(axis=1).sum())
        if not lemma1:
            continue
        # Order 2^k + j has top bit k and the lowest bit of j; the rows
        # with lowest bit l < k are every 2^(l+1)-th from j = 2^l.
        for low_bit in range(k):
            pinned = shells.shell(low_bit)
            first = ((1 << low_bit) - 1 - lo) % (2 << low_bit)
            dn = np.abs(high[first :: 2 << low_bit, pinned.start : pinned.stop])
            dref = np.abs(low[first :: 2 << low_bit, pinned.start : pinned.stop])
            tally.equality += int((dn != dref).any(axis=1).sum())
            mins = dn.min(axis=1).astype(np.int64)  # 4 * 2^14 overflows int16
            tally.bound += int((4 * mins < (1 << low_bit)).sum())
            tally.lemma_checked += mins.size
            if mins.size:
                # Ratios min/2^l compared as integers over the common denominator 2^m.
                scaled = int(mins.min()) << (m - low_bit)
                tally.lemma_min = scaled if tally.lemma_min is None else min(tally.lemma_min, scaled)
    return tally


def _kernels_report(tally: _KernelTally) -> ExperimentReport:
    size = 1 << tally.m
    spot = [int(v) for v in _dirichlet_direct_int64(3, 2)]
    cases = [
        {"check": "direct_vs_fast", "count": size, "mismatches": tally.direct_fast},
        {"check": "closed_form_powers", "count": tally.m + 1, "mismatches": tally.closed_form},
        {"check": "shift_identity", "count": tally.shift_checked, "mismatches": tally.shift},
    ]
    total = tally.direct_fast + tally.closed_form + tally.shift
    summary = {
        "resolution": tally.m,
        "kernels_checked": size,
        "mismatches": total,
        "spot_order3_at_m2": spot,
    }
    return _sweep_report("kernel-identities", tally.m, cases, summary, total == 0 and spot == [3, 1, 1, -1])


def _lemma1_report(tally: _KernelTally) -> ExperimentReport:
    checked = tally.lemma_checked
    min_ratio = None if tally.lemma_min is None else Fraction(tally.lemma_min, 1 << tally.m)
    cases = [
        {"check": "absolute_value_equality", "count": checked, "mismatches": tally.equality},
        {"check": "quarter_lower_bound", "count": checked, "mismatches": tally.bound},
    ]
    summary = {
        "resolution": tally.m,
        "orders_checked": checked,
        "min_ratio": float(min_ratio) if min_ratio is not None else None,
        "min_ratio_exact": str(min_ratio) if min_ratio is not None else None,
        "bound_ever_tight": bool(min_ratio == Fraction(1, 4)) if min_ratio is not None else False,
    }
    verdict = tally.equality == 0 and tally.bound == 0
    return _sweep_report("kernel-lower-bound", tally.m, cases, summary, verdict)


def _sandwich_report(tally: _KernelTally) -> ExperimentReport:
    size = 1 << tally.m
    abs_sums = tally.abs_sums
    variation = _binary_variation(np.arange(1, size + 1, dtype=np.int64))
    lower_ok = variation * size <= 8 * abs_sums
    upper_ok = abs_sums <= variation * size
    ratios = abs_sums / (variation.astype(np.float64) * size)  # ||D_n||_1 / V(n)
    i_min, i_max = int(np.argmin(ratios)), int(np.argmax(ratios))
    cases = [
        {"check": "lower_eighth", "count": size, "mismatches": int((~lower_ok).sum())},
        {"check": "upper_variation", "count": size, "mismatches": int((~upper_ok).sum())},
    ]
    summary = {
        "resolution": tally.m,
        "min_norm_over_variation": float(ratios[i_min]),
        "min_at_order": i_min + 1,
        "max_norm_over_variation": float(ratios[i_max]),
        "max_at_order": i_max + 1,
        "max_variation_over_norm": float(1.0 / ratios[i_min]),
    }
    return _sweep_report("kernel-l1-sandwich", tally.m, cases, summary, bool(lower_ok.all() and upper_ok.all()))


def verify_kernels(m: int) -> ExperimentReport:
    """Exhaustive bit-exact agreement of the three kernel constructions.

    Checks, for every order up to 2^m: definition-sum vs binary-expansion
    assembly; the closed form at powers of two; and the shift identity that
    a kernel block beyond a power of two is the twisted low-order kernel.
    """
    r = _sweep_resolution(m, KERNEL_SWEEP_MAX, "kernel sweep")
    return _kernels_report(_kernel_sweep(r.m, identities=True))


def verify_lemma1(m: int) -> ExperimentReport:
    """Sweep of the kernel lower bound on the interval pinned by the lowest bit.

    For every order whose lowest and highest set bits differ, the kernel's
    absolute value on that interval must match the kernel with the top bit
    removed, and sit at least a quarter of ``2^low``.  The minimum observed
    ratio is recorded; at finite resolution it turns out to be exactly 1.
    """
    r = _sweep_resolution(m, KERNEL_SWEEP_MAX, "lower-bound sweep")
    return _lemma1_report(_kernel_sweep(r.m, lemma1=True))


def verify_kernel_l1_sandwich(m: int) -> ExperimentReport:
    """Exact integer check that the kernel L1 norm sits in the variation sandwich.

    ``variation/8 <= ||D_n||_1 <= variation`` for every order; both sides
    compare integers (norms carry an exact 2^-m denominator), so there is
    no tolerance anywhere.
    """
    r = _sweep_resolution(m, SANDWICH_SWEEP_MAX, "sandwich sweep")
    return _sandwich_report(_kernel_sweep(r.m, sandwich=True))


# -- weak-type boundedness on atoms ------------------------------------------


def _trial_seed(seed: int, trial: int) -> int:
    return (seed ^ ((trial + 1) * _GOLDEN)) & _MASK64


#: Most elements, ``m 2^e`` per trial, that one chunk of a cell's trials
#: holds in an array stage: a chunk's arrays stay a few MiB at any ``e``.
_CELL_BUDGET = 1 << 16


def _trial_atoms(p_str: str, level: int, m: int, seed: int, trials: range) -> Iterator[tuple]:
    """``trials`` in order, a chunk of at most ``_CELL_BUDGET`` elements (one trial at least) at a time.

    Per chunk: its trials, their generators, their float64 atoms on the
    ``2^(m - level)`` cells of ``I_level(0)`` at resolution ``m``, one row
    each, and those rows' packet table.
    """
    p = PExponent.parse(p_str)
    per = max(1, _CELL_BUDGET // (m << (m - level)))
    for start in range(0, len(trials), per):
        chunk = trials[start : start + per]
        recipes = [AtomRecipe(level, 0, p, GENERATORS[t % len(GENERATORS)], _trial_seed(seed, t)) for t in chunk]
        cells = _atom_cells(recipes, m)
        yield chunk, [r.generator for r in recipes], cells, _packet_table(cells, m - level)


def _shell_counts(level: int, m: int) -> np.ndarray:
    """The points of shells ``s = 0 .. level - 1`` off ``I_level(0)`` at resolution ``m``: ``2^(m-s-1)`` each."""
    return 1 << (m - 1 - np.arange(level))


def _thm1_cell(args: tuple) -> list[dict]:
    """thm1's cases of one (exponent, level) cell, in trial order.

    Each chunk of trials runs its atoms' cells through every array stage
    at once, level sets included; only the scans and case dicts are per
    trial.
    """
    p_str, level, m, seed, trials = args
    p = PExponent.parse(p_str)
    scheme = RhoWeight(p)
    weights = _spread_weights(scheme, m, False)
    counts = np.concatenate([_shell_counts(level, m), np.ones(1 << (m - level), np.int64)])
    cases = []
    for chunk, generators, cells, packets in _trial_atoms(p_str, level, m, seed, trials):
        [shells] = _atom_maximal(packets, level, [(None, scheme)])
        # Each row's values on the whole group, and a copy off the support,
        # where the support's cells carry 0: one level pass takes both.
        rows = np.zeros((2, len(chunk), counts.size))
        rows[..., :level] = shells
        rows[1, :, level:] = _spread_recursion(packets, level, np.divide, weights)
        sets = _level_sets(rows, counts, 1 << m)
        hardy = _atom_hardy(cells, level, m, p)
        for trial, generator, *measured in zip(chunk, generators, shells.tolist(), sets, sets[len(chunk) :], hardy):
            case = {"p": p_str, "M": level, "trial": trial, "generator": generator}
            case.update(_thm1_measures(p, level, *measured))
            cases.append(case)
    return cases


def _thm1_measures(p: PExponent, level: int, shells: list, off: LevelSet, whole: LevelSet, hardy: float) -> dict:
    """One thm1 case's measured fields from its operator's shell values, its level sets off the support and on the whole group, and its Hardy norm."""
    wt = _weak_type(off, float(p.p))
    weak_all = _weak_lp(whole, p.p, exact=False)
    normalized = weak_all / hardy if hardy > 0 else 0.0

    inv_p = float(p.reciprocal)
    shell_ratios = [smax / 2.0 ** (s * inv_p) for s, smax in enumerate(shells)]
    shell_constant = max(shell_ratios) if shell_ratios else 0.0

    # Tail bound: above threshold 2^(k/p) (times the trial constant), the
    # super-level set off the support keeps measure below 2^(1-k).  Its
    # count is a search of the off-support levels; sigma0 reads the top one.
    sigma4_margin = None
    if shell_constant > 0:
        above = [*off.above, 0]
        sigma4_margin = max(
            above[bisect_left(off.levels, shell_constant * 2.0 ** (k * inv_p))] / off.size - 2.0 / (1 << k)
            for k in range(level)
        )
    sigma0_ok = shell_constant == 0.0 or off.levels[-1] <= shell_constant * 2.0 ** (level * inv_p)

    return {
        "wt_off_value": wt.value,
        "wt_off_attaining_level": wt.attaining_level,
        "normalized_ratio": normalized,
        "shell_constant": shell_constant,
        "sigma4_margin": sigma4_margin,
        "sigma0_ok": sigma0_ok,
    }


def _validate_thm1(cfg: ExperimentConfig) -> None:
    problems = _shared_problems(cfg, "thm1")
    if not cfg.support_levels:
        problems.append("'support_levels' must be nonempty")
    if any(lv < 1 for lv in cfg.support_levels):
        problems.append("'support_levels' entries must be >= 1")
    if cfg.extra_resolution < 1:
        problems.append("'extra_resolution' must be >= 1: an atom needs at least two cells")
    if any(lv + cfg.extra_resolution > ATOM_RESOLUTION_MAX for lv in cfg.support_levels):
        problems.append(
            f"'support_levels' plus extra_resolution exceed the cap {ATOM_RESOLUTION_MAX}"
        )
    if cfg.trials < 1:
        problems.append("'trials' must be >= 1")
    if cfg.jobs < 1:
        problems.append("'jobs' must be >= 1")
    if problems:
        raise ConfigError(problems)


def theorem1_weak_type(cfg: ExperimentConfig) -> ExperimentReport:
    """Weak-type stability of the spread-weighted maximal operator on atoms.

    For each exponent and support level, many random atoms are pushed
    through the operator; the sup-level measurement off the support must
    stay flat as the support shrinks, every trial must obey a single
    per-exponent shell constant, and the tail measures must respect the
    geometric bound.  The verdict enforces those trends, which is the only
    falsifiable desk-scale reading of "a constant exists".
    """
    _validate_thm1(cfg)
    levels = tuple(sorted(cfg.support_levels))
    tasks = [
        (p_str, level, level + cfg.extra_resolution, cfg.seed, range(cfg.trials))
        for p_str in cfg.p_list
        for level in levels
    ]
    results = _map_tasks(_thm1_cell, tasks, cfg.jobs)
    cases = [case for rows in results for case in rows]

    cells = [
        {
            "p": p_str,
            "M": level,
            "max_wt_off": max(r["wt_off_value"] for r in rows),
            "max_normalized": max(r["normalized_ratio"] for r in rows),
            "max_shell_constant": max(r["shell_constant"] for r in rows),
        }
        for (p_str, level, *_), rows in zip(tasks, results)
    ]
    per_p: dict[str, dict] = {}
    for i, p_str in enumerate(cfg.p_list):
        span = slice(i * len(levels), (i + 1) * len(levels))  # this exponent's tasks, by level
        maxima = [cell["max_wt_off"] for cell in cells[span]]
        ratios = _consecutive_ratios(maxima)
        c_p = max(cell["max_shell_constant"] for cell in cells[span])
        per_p[p_str] = {
            "max_wt_off_by_level": maxima,
            "consecutive_ratios": ratios,
            "max_consecutive_ratio": max(ratios) if ratios else 1.0,
            "stable": all(rho <= cfg.ratio_cap for rho in ratios),
            "shell_constant": c_p,
            "single_constant_ok": all(r["shell_constant"] <= c_p for rows in results[span] for r in rows),
        }

    margins = [c["sigma4_margin"] for c in cases if c["sigma4_margin"] is not None]
    sigma4_ok = all(mg <= 0 for mg in margins)
    sigma0_ok = all(c["sigma0_ok"] for c in cases)
    verdict = (
        all(v["stable"] and v["single_constant_ok"] for v in per_p.values())
        and sigma4_ok
        and sigma0_ok
    )
    summary = {
        "cells": cells,
        "per_p": per_p,
        "sigma4_worst_margin": max(margins) if margins else None,
        "sigma4_ok": sigma4_ok,
        "sigma0_ok": sigma0_ok,
        "ratio_cap": cfg.ratio_cap,
    }
    return _config_report("thm1", "weak-type-on-atoms", cfg, cases, summary, verdict)


# -- sharpness: growth of the normalized ratio --------------------------------


def _validate_thm2a(cfg: ExperimentConfig) -> None:
    problems = _shared_problems(cfg, "thm2a")
    if cfg.resolution is None or cfg.resolution < 5:
        problems.append("'resolution' must be an integer >= 5")
    else:
        problems += _scale_problems(cfg.scales or range(3, cfg.resolution), cfg.resolution)
    if len(cfg.scales) == 1:
        problems.append("'scales' needs two distinct scales to fit a slope")
    if problems:
        raise ConfigError(problems)


def theorem2_growth(cfg: ExperimentConfig) -> ExperimentReport:
    """Divergence of the weighted operator along the sharpness sequence.

    Two series are measured per scale: the full operator ratio (L_p of the
    output over H_p of the input) and the normalized shell lower bound
    re-derived by integrating measured partial sums over the pinned
    intervals.  The full ratio obeys the exact law ``R^p = (n + 2)/2``, so
    its finite-scale log-log slope sits below ``1/p``; the lower-bound
    ratio equals ``(n/2)^(1/p)`` with slope exactly ``1/p``, and that is
    the series the slope verdict applies to.  Strict growth is required of
    the full ratio, and the shell sums must match their closed form.

    Each scale runs at resolution ``n + 1``, on which ``f_n`` and all its
    operators depend; ``resolution`` only caps the scales.  The report is
    the one resolution ``m`` would give: the norms are correctly rounded
    sums, and each shell sum adds its block as it stands at ``m``.
    """
    _validate_thm2a(cfg)
    m = cfg.resolution
    scales = tuple(cfg.scales or range(3, m))
    cases = []
    per_p: dict[str, dict] = {}
    for p_str in cfg.p_list:
        p = PExponent.parse(p_str)
        inv_p = float(p.reciprocal)
        ratios = []
        shell_ratios = []
        for n in scales:
            f = counterexample_fn(n, n + 1, "float64")
            g = weighted_maximal(f, RhoWeight(p))
            lp_out = lp_quasinorm(g, p)
            hardy = hardy_quasinorm(f, p)
            ratio = lp_out / hardy

            shell_sum = 0.0
            pw = float(p.p)
            for s, shell in shell_decomposition(n + 1).shells()[:n]:
                q = probe_index(n, s).q
                sq = partial_sum(f, q).values
                block = np.abs(sq[shell.start : shell.stop])
                w = 2.0 ** ((n - s) * (inv_p - 1.0))
                # Sum the block as it stands at m, each value repeated 2^(m-n-1) times.
                # np.sum adds a contiguous float64 array in 128-value blocks and pairs
                # the blocks up a binary tree, so a run of r >= 128 copies sums to
                # exactly r/128 times the sum of 128: repeat at most 128 times and
                # scale by the power-of-two rest.
                reps = 1 << (m - n - 1)
                copies = min(reps, 128)
                terms = np.repeat((block / w) ** pw, copies)
                shell_sum += float(terms.sum()) * (reps // copies) / (1 << m)
            closed_form = n / 2.0 ** (n * (1.0 - pw) + 1.0)
            rel_err = abs(shell_sum - closed_form) / closed_form
            shell_ratio = shell_sum**inv_p / hardy
            cases.append(
                {
                    "p": p_str,
                    "n": n,
                    "ratio": ratio,
                    "shell_ratio": shell_ratio,
                    "lp_of_output": lp_out,
                    "hardy_of_input": hardy,
                    "shell_sum": shell_sum,
                    "shell_sum_closed_form": closed_form,
                    "shell_sum_rel_err": rel_err,
                }
            )
            ratios.append(ratio)
            shell_ratios.append(shell_ratio)
        increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
        log_n = np.log(np.array(scales, dtype=float))
        slope_full = float(np.polyfit(log_n, np.log(ratios), 1)[0])
        slope_shell = float(np.polyfit(log_n, np.log(shell_ratios), 1)[0])
        floor = cfg.slope_fraction * inv_p
        # Exact law of the full ratio at finite scale: R^p = (n + 2)/2.
        law_err = max(
            abs(r ** float(p.p) * 2.0 - 2.0 - n) for r, n in zip(ratios, scales)
        )
        per_p[p_str] = {
            "ratios": ratios,
            "shell_ratios": shell_ratios,
            "strictly_increasing": increasing,
            "slope_full_ratio": slope_full,
            "slope": slope_shell,
            "slope_floor": floor,
            "slope_ok": slope_shell >= floor,
            "full_ratio_law_max_err": law_err,
        }
    shell_ok = all(c["shell_sum_rel_err"] <= 1e-6 for c in cases)
    verdict = shell_ok and all(
        v["strictly_increasing"] and v["slope_ok"] for v in per_p.values()
    )
    summary = {"per_p": per_p, "shell_sums_match_closed_form": shell_ok}
    return _config_report("thm2a", "sharpness-growth", cfg, cases, summary, verdict)


# -- sharpness: divergence under any weaker weight ----------------------------

#: Lower-bound constant for the probe partial sum on its pinned interval.
_PROBE_LOWER_CONSTANT = 0.25


def _validate_thm2b(cfg: ExperimentConfig) -> WeightScheme:
    """Check the config and return its weight, the unit weight when ``scheme`` is unset."""
    problems = _shared_problems(cfg, "thm2b")
    if cfg.resolution is None or cfg.resolution < 3:
        problems.append("'resolution' must be an integer >= 3")
    else:
        problems += _scale_problems([*cfg.scales, *(n for n, _ in cfg.probes or ())], cfg.resolution)
    if bool(cfg.scales) == bool(cfg.probes):
        problems.append("exactly one of 'scales' and 'probes' must be given")
    for n, s in cfg.probes or ():
        if not 0 <= s < n:
            problems.append(f"probe ({n}, {s}) needs 0 <= s < n")
    try:
        phi = UnitWeight() if cfg.scheme is None else scheme_from_json(cfg.scheme)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"'scheme' {cfg.scheme!r} is not a weight scheme: {exc}")
    if problems:
        raise ConfigError(problems)
    return phi


#: A config may set only the fields its experiment reads, and the report
#: records them all but ``jobs``, a run setting kept in the ``.meta.json``
#: sidecar, so feeding a report's config back reruns it.
EXPERIMENTS = {
    "thm1": ExperimentContract(
        ("name", "p_list", "support_levels", "trials", "seed", "extra_resolution", "ratio_cap", "jobs"),
        ("M", "max_wt_off"),
        _validate_thm1,
    ),
    "thm2a": ExperimentContract(
        ("name", "p_list", "resolution", "scales", "seed", "slope_fraction"),
        ("n", "ratio"),
        _validate_thm2a,
    ),
    "thm2b": ExperimentContract(
        ("name", "p_list", "resolution", "scales", "probes", "scheme", "expectation", "seed",
         "growth_floor", "band_cap"),
        ("n", "ratio"),
        _validate_thm2b,
    ),
}


def _auto_probe_bit(n: int, p: PExponent, phi: WeightScheme) -> int:
    """The low bit maximizing damped spread: reference weight over phi."""
    inv_p1 = float(p.weight_exponent)
    best_s, best_val = 0, -np.inf
    for s in range(n):
        val = 2.0 ** ((n - s) * inv_p1) / float_weight(phi, probe_index(n, s).q)
        if val > best_val:
            best_s, best_val = s, val
    return best_s


def _count_beyond(values: np.ndarray, t: float) -> int:
    """How many ``|values| >= t``, for ``t > 0``: ``values >= t`` plus ``values <= -t``, with no ``|values|`` copy."""
    return int(np.count_nonzero(values >= t)) + int(np.count_nonzero(values <= -t))


def theorem2_weak_divergence(cfg: ExperimentConfig) -> ExperimentReport:
    """Weak quasi-norm blow-up for any nondecreasing weight below the reference.

    Along probe orders, the normalized weak-L_p ratio of the damped partial
    sum is measured and compared with the reference-to-phi weight ratio it
    must track; with the trivial weight it diverges geometrically, with the
    reference weight itself it stays in a constant band.  The weight phi is
    ``cfg.scheme``, the unit weight when unset.

    Each scale runs at resolution ``n + 1``, as in :func:`theorem2_growth`;
    measures are exact ratios of counts, so the report is the one
    resolution ``m`` would give.
    """
    phi = _validate_thm2b(cfg)
    cases = []
    per_p: dict[str, dict] = {}
    for p_str in cfg.p_list:
        p = PExponent.parse(p_str)
        inv_p = float(p.reciprocal)
        probes = cfg.probes or [(n, _auto_probe_bit(n, p, phi)) for n in cfg.scales]
        ratios, tracking = [], []
        for n, s in probes:
            q = probe_index(n, s).q
            f = counterexample_fn(n, n + 1, "float64")
            phi_q = float_weight(phi, q)
            threshold = _PROBE_LOWER_CONSTANT * 2.0**s
            # Only the count of S_q f outlives this line, so the norm below runs without it.
            meas = _count_beyond(partial_sum(f, q).values, threshold) / f.size
            hardy = hardy_quasinorm(f, p)
            ratio = (threshold / phi_q) * meas**inv_p / hardy
            reference = 2.0 ** ((n - s) * (inv_p - 1.0)) / phi_q
            tracking.append(ratio / reference)
            pinned_measure = 2.0 ** (-(s + 1))
            cases.append(
                {
                    "p": p_str,
                    "n": n,
                    "s": s,
                    "q": q,
                    "phi": phi_q,
                    "measure": meas,
                    "ratio": ratio,
                    "reference": reference,
                    "tracking": tracking[-1],
                    "measure_at_least_pinned_interval": bool(meas >= pinned_measure),
                }
            )
            ratios.append(ratio)
        growth = _consecutive_ratios(ratios)
        entry = {
            "ratios": ratios,
            "tracking_spread": max(tracking) / min(tracking) if tracking else 1.0,
            "tracking_ok": bool(tracking and max(tracking) / min(tracking) <= 4.0),
            "growth_factors": growth,
        }
        if cfg.expectation == "divergent":
            entry["expectation_ok"] = all(g >= cfg.growth_floor for g in growth)
        elif cfg.expectation == "bounded":
            entry["expectation_ok"] = (
                max(ratios) / min(ratios) <= cfg.band_cap if ratios else True
            )
        else:
            entry["expectation_ok"] = True
        per_p[p_str] = entry
    measures_ok = all(c["measure_at_least_pinned_interval"] for c in cases)
    verdict = measures_ok and all(
        v["tracking_ok"] and v["expectation_ok"] for v in per_p.values()
    )
    summary = {
        "phi": scheme_to_json(phi),
        "per_p": per_p,
        "pinned_interval_measures_ok": measures_ok,
        "expectation": cfg.expectation,
    }
    return _config_report("thm2b", "sharpness-weak-divergence", cfg, cases, summary, verdict)


# -- corollary suite ----------------------------------------------------------


def _corollary_operators(m: int, p: PExponent) -> dict[str, tuple[Subsequence | None, WeightScheme]]:
    """Named ``(orders, weight)`` operators at resolution ``m``; ``orders`` None runs every order."""
    e = p.weight_exponent
    powers = Subsequence.powers_of_two(m)
    bounded = Subsequence(tuple((1 << k) + (1 << (k - 1)) for k in range(1, m)))
    spikes = Subsequence(tuple((1 << k) + 1 for k in range(1, m)))
    half = tuple((1 << k) + (1 << (k // 2)) for k in range(1, m))
    half_weights = TableWeight(
        tuple((n, 2.0 ** float((k // 2) * e)) for k, n in zip(range(1, m), half))
    )
    spike_rho = TableWeight(
        tuple((n, 2.0 ** float(k * e)) for k, n in zip(range(1, m), spikes.indices))
    )
    ops: dict[str, tuple] = {
        "dyadic-orders-unit": (powers, UnitWeight()),
        "bounded-spread-unit": (bounded, UnitWeight()),
        "unbounded-spread-unit": (spikes, UnitWeight()),
        "half-bit-weighted": (Subsequence(half), half_weights),
        "spike-orders-rho-exponent": (spikes, spike_rho),
        "polynomial-weight": (None, PolyWeight(p)),
    }
    stated = p.reciprocal - 2
    if stated >= 0:
        spike_stated = TableWeight(
            tuple((n, 2.0 ** float(k * stated)) for k, n in zip(range(1, m), spikes.indices))
        )
        ops["spike-orders-stated-exponent"] = (spikes, spike_stated)
    return ops


def _corollary_cell(ops: dict, args: tuple) -> list[dict]:
    """The corollary suite's rows of one level, in trial order, a chunk of trials per array stage."""
    p_str, level, m, seed, trials = args
    pw = float(PExponent.parse(p_str).p)
    counts = _shell_counts(level, m)
    rows = []
    for chunk, generators, _, packets in _trial_atoms(p_str, level, m, seed, trials):
        # One level pass for every operator's rows, operator-major.
        sets = _level_sets(np.stack(_atom_maximal(packets, level, ops.values())), counts, 1 << m)
        for i, (trial, generator) in enumerate(zip(chunk, generators)):
            row: dict = {"p": p_str, "M": level, "trial": trial, "generator": generator}
            for op_name, levels in zip(ops, sets[i :: len(chunk)]):
                row[op_name] = _weak_type(levels, pw).value
            rows.append(row)
    return rows


_COROLLARY_EXPECT_STABLE = (
    "dyadic-orders-unit",
    "bounded-spread-unit",
    "half-bit-weighted",
    "spike-orders-rho-exponent",
    "polynomial-weight",
)
_COROLLARY_EXPECT_GROWTH = ("unbounded-spread-unit",)


def corollary_suite(
    m: int,
    p: PExponent | str,
    trials: int = 60,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentReport:
    """Weak-type trends for the derived operators.

    Each special-case operator runs over random atoms at the support levels
    ``2 .. m-2``.  Restricted operators with bounded bit spread (or the
    matching damping) must show flat constants; the undamped
    unbounded-spread operator must grow.  The spiked orders are also run
    with the weaker, lower-exponent damping, and the report records which
    variant is stable without declaring a verdict on it.
    """
    r = as_resolution(m)
    if r.m < 6:
        raise ValueError(f"corollary suite needs resolution >= 6, got {r.m}")
    p = PExponent.parse(p)
    if not p.p < 1:
        raise ValueError(f"corollary suite needs p in (0, 1), got {p}")
    for name, value in (("trials", trials), ("jobs", jobs)):
        if not _is_int(value):
            raise ValueError(f"corollary suite needs an integer {name}, got {value!r}")
    if not _is_seed(seed):
        raise ValueError(f"corollary suite needs an integer seed in [0, 2^64), got {seed!r}")
    if trials < 1:
        raise ValueError(f"corollary suite needs trials >= 1, got {trials}")
    levels = tuple(range(2, r.m - 1))
    if len(levels) < 4:
        shared = ", ".join(str(lv) for lv in sorted(set(levels[:2]) & set(levels[-2:])))
        raise ValueError(
            f"corollary trends need at least 4 support levels, got {list(levels)}: "
            f"both two-level end windows would hold level {shared}"
        )

    ops = _corollary_operators(r.m, p)
    tasks = [(str(p), lv, r.m, seed, range(trials)) for lv in levels]
    results = _map_tasks(partial(_corollary_cell, ops), tasks, jobs)
    cases = [row for rows in results for row in rows]

    trends = {op_name: _window_trend([max(row[op_name] for row in rows) for rows in results]) for op_name in ops}
    checks = {}
    for op_name in _COROLLARY_EXPECT_STABLE:
        checks[op_name] = trends[op_name]["stable"]
    for op_name in _COROLLARY_EXPECT_GROWTH:
        checks[op_name] = trends[op_name]["growing"]
    verdict = all(checks.values())
    summary = {
        "levels": list(levels),
        "trends": trends,
        "expectation_checks": checks,
        # The dyadic-orders operator of a mean-zero atom averages to zero
        # everywhere off the support; record that identity when observed.
        "dyadic_orders_vanish_off_support": all(
            v == 0.0 for v in trends["dyadic-orders-unit"]["max_by_level"]
        ),
        "stated_exponent_finding": (
            {
                "present": "spike-orders-stated-exponent" in trends,
                "stable": trends.get("spike-orders-stated-exponent", {}).get("stable"),
                "rho_exponent_stable": trends["spike-orders-rho-exponent"]["stable"],
            }
        ),
    }
    cfg = {
        "resolution": r.m,
        "p": str(p),
        "trials": trials,
        "seed": seed,
        "support_levels": list(levels),
        "stable_cap": _COROLLARY_STABLE_CAP,
        "band_cap": _COROLLARY_BAND_CAP,
        "growth_floor": _COROLLARY_GROWTH_FLOOR,
    }
    return ExperimentReport("corollary-suite", cfg, cases, summary, verdict, _provenance(seed))


# -- umbrella -----------------------------------------------------------------


def verify_all(m: int) -> ExperimentReport:
    """Kernel identities, the lower-bound sweep, and the L1 sandwich in one verdict, from one kernel pass."""
    r = _sweep_resolution(m, KERNEL_SWEEP_MAX, "kernel sweep")
    tally = _kernel_sweep(r.m, identities=True, lemma1=True, sandwich=True)
    parts = [_kernels_report(tally), _lemma1_report(tally), _sandwich_report(tally)]
    return _sweep_report(
        "verify-all",
        r.m,
        [{"experiment": part.name, "verdict": part.verdict, "summary": part.summary} for part in parts],
        {"parts": [part.name for part in parts]},
        all(part.verdict for part in parts),
    )
