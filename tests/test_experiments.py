import dataclasses
import json
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest

from walshlab import analysis, constructions, experiments, operators, spectral
from walshlab.analysis import PExponent, hardy_quasinorm, lp_quasinorm, weak_lp_quasinorm
from walshlab.constructions import GENERATORS, AtomRecipe, counterexample_fn, make_atom, probe_index
from walshlab.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    corollary_suite,
    theorem1_weak_type,
    theorem2_growth,
    theorem2_weak_divergence,
    verify_all,
    verify_kernel_l1_sandwich,
    verify_kernels,
    verify_lemma1,
    worker_count,
)
from walshlab.group import GroupPoint, interval, shell_decomposition
from walshlab.operators import (
    PolyWeight,
    RhoWeight,
    TableWeight,
    restricted_maximal,
    weak_type_constant,
    weighted_maximal,
)
from walshlab.reporting import load_report
from walshlab.spectral import dirichlet_dyadic, partial_sum


# -- config ---------------------------------------------------------------------


def test_config_roundtrip():
    cfg = ExperimentConfig(
        p_list=("1/2", "1/4"),
        support_levels=(4, 5),
        resolution=10,
        scales=(3, 4, 5),
        trials=20,
        seed=7,
        probes=((4, 0), (5, 1)),
        expectation="divergent",
    )
    for experiment in EXPERIMENTS:
        # JSON turns tuples into lists; the config turns them back.
        blob = json.loads(json.dumps(cfg.to_json_dict(experiment)))
        back = ExperimentConfig.from_json_dict(blob, experiment)
        assert back.to_json_dict(experiment) == cfg.to_json_dict(experiment)


def test_config_stores_numpy_integers_as_int():
    cfg = ExperimentConfig(resolution=np.int64(12), seed=np.uint8(3), scales=[np.int32(4), 5])
    assert type(cfg.resolution) is int and type(cfg.seed) is int
    assert all(type(n) is int for n in cfg.scales)
    assert json.dumps(cfg.to_json_dict("thm2a")) == json.dumps(ExperimentConfig(resolution=12, seed=3, scales=(4, 5)).to_json_dict("thm2a"))
    with pytest.raises(ConfigError):
        ExperimentConfig(resolution=np.bool_(True))


def test_config_rejects_unknown_and_bad_fields():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_json_dict({"p_list": ["1/2"], "nonsense": 1, "trials": "many"}, "thm1")
    problems = "; ".join(exc.value.problems)
    assert "nonsense" in problems and "trials" in problems


def test_config_rejects_bad_exponent():
    for entry in ("5/4", "1/0"):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json_dict({"p_list": [entry]}, "thm1")
        assert entry in "; ".join(exc.value.problems)


def test_config_float_gates_take_finite_numbers():
    gates = {"ratio_cap": 2, "growth_floor": 1.25, "band_cap": 3, "slope_fraction": 0.5}
    cfg = ExperimentConfig(**gates)
    assert {key: getattr(cfg, key) for key in gates} == gates
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(ratio_cap=False, band_cap=float("-inf"), growth_floor=[1])
    assert len(exc.value.problems) == 3


@pytest.mark.parametrize(
    "key, value",
    # A value of no field's type, for every field, so a field added later cannot skip the check.
    [(f.name, object()) for f in dataclasses.fields(ExperimentConfig)]
    + [
        ("trials", "5"),
        ("resolution", "9"),
        ("probes", ((5,),)),
        ("ratio_cap", float("nan")),
        ("p_list", ("abc",)),
        ("support_levels", (3, 3)),
        ("scales", (4, 4, 5)),
        ("name", "sub/../escape"),
        ("name", ["x"]),
        ("expectation", "maybe"),
        ("p_list", ("1/2", "0.5")),  # one exponent, spelled twice
        ("seed", -1),  # trial seeds are masked to 64 bits: -1 would repeat 2^64 - 1's cases
        ("seed", 2**64),
        ("trials", 0),
        ("jobs", 0),
        ("extra_resolution", 0),  # an atom needs at least two cells
    ],
)
def test_every_config_field_is_checked_when_built(key, value):
    # The constructor, dataclasses.replace (behind --jobs) and JSON share one check.
    for build in (
        lambda: ExperimentConfig(**{key: value}),
        lambda: dataclasses.replace(ExperimentConfig(), **{key: value}),
        lambda: ExperimentConfig.from_json_dict({key: value}, next(e for e, c in EXPERIMENTS.items() if key in c.fields)),
    ):
        with pytest.raises(ConfigError) as exc:
            build()
        assert len(exc.value.problems) == 1 and exc.value.problems[0].startswith(f"'{key}'")


_CONTRACT_RUNS = {
    "thm1": (theorem1_weak_type, dict(p_list=("1/2",), support_levels=(3, 4), trials=2)),
    "thm2a": (theorem2_growth, dict(p_list=("1/2",), resolution=7)),
    "thm2b": (theorem2_weak_divergence, dict(p_list=("1/2",), resolution=8, scales=(4, 5))),
}


@pytest.mark.parametrize("experiment", sorted(_CONTRACT_RUNS))
def test_each_experiment_accepts_checks_and_records_its_own_fields(experiment):
    run, fields = _CONTRACT_RUNS[experiment]
    contract = EXPERIMENTS[experiment]
    rep = run(ExperimentConfig(**fields))
    # The report records every field read but the run setting jobs.
    assert list(rep.config) == [f for f in contract.fields if f != "jobs"]
    assert ExperimentConfig.from_json_dict(rep.config, experiment).to_json_dict(experiment) == rep.config
    unread = next(f for f in ("trials", "resolution") if f not in contract.fields)
    with pytest.raises(ConfigError, match=f"'{unread}' is not read by {experiment}"):
        ExperimentConfig.from_json_dict({**rep.config, unread: 5}, experiment)
    # A library caller meets the same rule; a field left at its default is not set.
    with pytest.raises(ConfigError, match=f"field '{unread}' is not read by {experiment}"):
        run(ExperimentConfig(**{**fields, unread: 5}))
    default = next(f.default for f in dataclasses.fields(ExperimentConfig) if f.name == unread)
    contract.validate(ExperimentConfig(**{**fields, unread: default}))
    # One exponent rule for every experiment: p = 1 lies outside (0, 1).
    with pytest.raises(ConfigError, match="entry 1 must lie in"):
        run(ExperimentConfig(**{**fields, "p_list": ("1",)}))


# -- kernel sweeps -----------------------------------------------------------------


def test_verify_kernels_passes():
    rep = verify_kernels(7)
    assert rep.verdict
    assert rep.summary["mismatches"] == 0
    assert rep.summary["kernels_checked"] == 128
    assert rep.summary["spot_order3_at_m2"] == [3, 1, 1, -1]
    assert {c["check"] for c in rep.cases} == {
        "direct_vs_fast",
        "closed_form_powers",
        "shift_identity",
    }


def test_verify_kernels_resolution_cap():
    with pytest.raises(ValueError):
        verify_kernels(13)


def _mismatches(rep) -> dict:
    return {c["check"]: c["mismatches"] for c in rep.cases}


def test_verify_kernels_counts_injected_faults(monkeypatch):
    fast, dyadic = experiments._dirichlet_fast_int64, experiments._dirichlet_dyadic_int64
    rows = experiments.walsh_rows
    with monkeypatch.context() as mp:  # a wrong kernel from the binary expansion at order 6
        mp.setattr(experiments, "_dirichlet_fast_int64",
                   lambda lo, hi, m: fast(lo, hi, m) + (np.arange(lo, hi) == 6)[:, None])
        rep = verify_kernels(5)
    assert _mismatches(rep) == {"direct_vs_fast": 1, "closed_form_powers": 0, "shift_identity": 0}
    assert rep.summary["mismatches"] == 1 and not rep.verdict
    with monkeypatch.context() as mp:  # a wrong closed form at order 2^3
        mp.setattr(experiments, "_dirichlet_dyadic_int64", lambda k, m: dyadic(k, m) + (k == 3))
        rep = verify_kernels(5)
    assert _mismatches(rep) == {"direct_vs_fast": 0, "closed_form_powers": 1, "shift_identity": 0}
    assert not rep.verdict

    def flipped_twist(lo, hi, m):  # w_4 with the wrong sign at 0, where every D_j is j
        out = rows(lo, hi, m)
        return -out if (lo, hi) == (4, 5) else out

    with monkeypatch.context() as mp:
        mp.setattr(experiments, "walsh_rows", flipped_twist)
        rep = verify_kernels(5)
    # Every order 4 + j, j = 1..4, of the k = 2 block fails the shift identity.
    assert _mismatches(rep) == {"direct_vs_fast": 0, "closed_form_powers": 0, "shift_identity": 4}
    assert not rep.verdict


@pytest.mark.parametrize(
    "order, value, expected",
    [
        # |D_11| doubled at the start of its pinned interval: order 11 and
        # the orders 27 and 43 that compare against it lose the equality.
        (11, lambda v: 2 * v, {"absolute_value_equality": 3, "quarter_lower_bound": 0}),
        # D_43 zeroed there: no order compares against it, and the bound fails.
        (43, lambda v: 0 * v, {"absolute_value_equality": 1, "quarter_lower_bound": 1}),
    ],
)
def test_verify_lemma1_counts_injected_faults(monkeypatch, order, value, expected):
    stream = spectral._kernel_rows_stream

    def faulty(m, *args, **kwargs):
        for lo, rows in stream(m, *args, **kwargs):
            if lo < order <= lo + rows.shape[0]:
                rows[order - lo - 1, 32] = value(rows[order - lo - 1, 32])
            yield lo, rows

    monkeypatch.setattr(spectral, "_kernel_rows_stream", faulty)
    rep = verify_lemma1(6)
    assert _mismatches(rep) == expected
    assert not rep.verdict


def test_verify_lemma1_holds_no_kernel_family():
    tracemalloc.start()
    try:
        rep = verify_lemma1(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict
    assert peak < 4**12 * 4  # the int32 family of every order's kernel


def test_verify_all_traced_peak_stays_small():
    # One 128-order int16 chunk is 1 MiB at m = 12; the popcount rows took 11 MiB.
    tracemalloc.start()
    try:
        rep = verify_all(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict
    assert peak < 6 << 20


def test_verify_lemma1_passes_with_unit_ratio():
    rep = verify_lemma1(8)
    assert rep.verdict
    # At finite resolution the bound is loose: the observed ratio is exactly 1.
    assert rep.summary["min_ratio"] == 1.0
    assert rep.summary["bound_ever_tight"] is False


def test_verify_sandwich_passes():
    rep = verify_kernel_l1_sandwich(9)
    assert rep.verdict
    assert rep.summary["max_variation_over_norm"] <= 8.0
    assert rep.summary["max_norm_over_variation"] <= 1.0
    # Power-of-two orders: norm 1, variation 2, ratio exactly one half.
    assert rep.summary["min_norm_over_variation"] <= 0.5


def test_verify_all_aggregates():
    rep = verify_all(6)
    assert rep.verdict
    assert [c["experiment"] for c in rep.cases] == [
        "kernel-identities",
        "kernel-lower-bound",
        "kernel-l1-sandwich",
    ]


def test_verify_all_reads_each_kernel_once(monkeypatch):
    # One pair stream feeds all three parts: its high and low rows, the
    # binary-expansion twists and one shift twist per stage, no more.
    rows = spectral.walsh_rows
    read = []

    def counted(lo, hi, m):
        read.append(hi - lo)
        return rows(lo, hi, m)

    monkeypatch.setattr(spectral, "walsh_rows", counted)
    monkeypatch.setattr(experiments, "walsh_rows", counted)
    # At m = 10 the rows are Kronecker products, whose factors must not read the public name.
    for m in (8, 10):
        read.clear()
        assert verify_all(m).verdict
        assert sum(read) <= 3 * 2**m + m, m


# -- weak type on atoms ---------------------------------------------------------------


def _small_thm1_cfg(**overrides):
    base = dict(p_list=("1/2",), support_levels=(3, 4, 5), trials=15, seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_theorem1_small_run_passes():
    rep = theorem1_weak_type(_small_thm1_cfg())
    assert rep.verdict
    stats = rep.summary["per_p"]["1/2"]
    assert stats["stable"] and stats["single_constant_ok"]
    assert rep.summary["sigma4_ok"] and rep.summary["sigma0_ok"]
    assert len(rep.cases) == 45


def test_summaries_equal_the_cases_filtered_by_cell():
    # Each summary reduces its cells' own case lists; filtering the flat
    # cases on their keys is the reference.
    rep = theorem1_weak_type(_small_thm1_cfg(p_list=("1/4", "1/2", "3/4"), trials=4))
    levels = (3, 4, 5)

    def cell(p_str, level):
        return [c for c in rep.cases if c["p"] == p_str and c["M"] == level]

    assert rep.summary["cells"] == [
        {"p": p_str, "M": level, "max_wt_off": max(c["wt_off_value"] for c in cell(p_str, level)),
         "max_normalized": max(c["normalized_ratio"] for c in cell(p_str, level)),
         "max_shell_constant": max(c["shell_constant"] for c in cell(p_str, level))}
        for p_str in ("1/4", "1/2", "3/4") for level in levels
    ]
    for p_str, stats in rep.summary["per_p"].items():
        assert stats["max_wt_off_by_level"] == [max(c["wt_off_value"] for c in cell(p_str, lv)) for lv in levels]
        assert stats["shell_constant"] == max(c["shell_constant"] for c in rep.cases if c["p"] == p_str)

    cor = corollary_suite(8, "1/2", trials=3, seed=4)
    for op_name, trend in cor.summary["trends"].items():
        maxima = [max(c[op_name] for c in cor.cases if c["M"] == lv) for lv in cor.summary["levels"]]
        assert trend["max_by_level"] == maxima

    div = theorem2_weak_divergence(ExperimentConfig(p_list=("1/2", "1/3"), resolution=9, scales=(4, 6, 8)))
    for p_str, stats in div.summary["per_p"].items():
        track = [c["tracking"] for c in div.cases if c["p"] == p_str]
        assert stats["tracking_spread"] == max(track) / min(track)


def test_theorem1_zero_shell_guard():
    # A run mixing generators includes no zero atoms at these sizes, but the
    # margin field must be present and nonpositive for every real trial.
    rep = theorem1_weak_type(_small_thm1_cfg(trials=6))
    for case in rep.cases:
        if case["sigma4_margin"] is not None:
            assert case["sigma4_margin"] <= 0


def test_theorem1_determinism_and_jobs_equivalence():
    cfg = _small_thm1_cfg(trials=8)
    a = theorem1_weak_type(cfg).to_json()
    b = theorem1_weak_type(cfg).to_json()
    assert a == b
    # parallel execution must not change any recorded number, nor the config
    c = theorem1_weak_type(dataclasses.replace(cfg, jobs=2))
    assert c.to_json() == a


def test_theorem1_shell_constant_reads_shells_by_definition():
    # Shell s is the index range [2^(m-s-1), 2^(m-s)); the constant is the max
    # over shells s < M of the operator's sup there over 2^(s/p).
    p, level, m, seed = PExponent.parse("1/2"), 4, 6, 11
    for trial in range(len(GENERATORS)):
        [case] = experiments._thm1_cell((str(p), level, m, seed, range(trial, trial + 1)))
        recipe = AtomRecipe(level, 0, p, case["generator"], experiments._trial_seed(seed, trial))
        g = weighted_maximal(make_atom(recipe, m).values, RhoWeight(p)).values
        want = max(g[1 << (m - s - 1) : 1 << (m - s)].max() / 2.0 ** (2 * s) for s in range(level))
        assert case["shell_constant"] == want
        # The tail statistics read the off-support points, the shells s < M.
        off = g[1 << (m - level) :]
        cands = {float(t): float(t) ** 0.5 * (int((off >= t).sum()) / g.size) for t in off[off > 0]}
        best = max(cands.values())
        assert case["wt_off_value"] == best
        assert case["wt_off_attaining_level"] == min(t for t, c in cands.items() if c == best)
        tails = [int((off >= want * 2.0 ** (2 * k)).sum()) / g.size - 2.0 / (1 << k) for k in range(level)]
        assert case["sigma4_margin"] == max(tails)
        assert case["sigma0_ok"] == bool(off.max() <= want * 2.0 ** (2 * level))


def test_theorem1_config_validation():
    with pytest.raises(ConfigError):
        theorem1_weak_type(ExperimentConfig(p_list=(), support_levels=(4,)))
    with pytest.raises(ConfigError):
        theorem1_weak_type(ExperimentConfig(p_list=("1",), support_levels=(4,)))
    with pytest.raises(ConfigError):
        theorem1_weak_type(ExperimentConfig(p_list=("1/2",), support_levels=(14,)))
    for fields, named in (
        (dict(support_levels=()), "'support_levels' must be nonempty"),
        (dict(support_levels=(0, 3)), "'support_levels' entries must be >= 1"),
        (dict(support_levels=(3,), trials=0), "'trials' must be an integer >= 1"),
        (dict(support_levels=(3,), extra_resolution=-5), "'extra_resolution' must be an integer >= 1"),
        (dict(support_levels=(3,), extra_resolution=0), "'extra_resolution' must be an integer >= 1"),
    ):
        with pytest.raises(ConfigError, match=named):
            theorem1_weak_type(ExperimentConfig(p_list=("1/2",), **fields))


# -- sharpness growth --------------------------------------------------------------------


def test_theorem2_growth_small():
    cfg = ExperimentConfig(p_list=("1/2",), resolution=9, scales=tuple(range(3, 9)))
    rep = theorem2_growth(cfg)
    assert rep.verdict
    stats = rep.summary["per_p"]["1/2"]
    assert stats["strictly_increasing"]
    assert stats["slope"] == pytest.approx(2.0, abs=1e-9)
    # The full operator ratio obeys its exact finite-scale law.
    assert stats["full_ratio_law_max_err"] < 1e-9
    for case in rep.cases:
        assert case["shell_sum_rel_err"] < 1e-9


def test_theorem2_growth_validation():
    with pytest.raises(ConfigError):
        theorem2_growth(ExperimentConfig(p_list=("1/2",), resolution=4))
    with pytest.raises(ConfigError):
        theorem2_growth(ExperimentConfig(p_list=("1/2",), resolution=9, scales=(9,)))


# -- sharpness weak divergence ----------------------------------------------------------


def test_theorem2b_trivial_weight_diverges():
    cfg = ExperimentConfig(
        p_list=("1/2",), resolution=10, scales=tuple(range(4, 10)), expectation="divergent"
    )
    rep = theorem2_weak_divergence(cfg)
    assert rep.verdict
    growth = rep.summary["per_p"]["1/2"]["growth_factors"]
    assert all(g == pytest.approx(2.0, rel=1e-12) for g in growth)
    assert rep.summary["pinned_interval_measures_ok"]


def test_theorem2b_reference_weight_bounded():
    cfg = ExperimentConfig(
        p_list=("1/2",), resolution=10, scales=tuple(range(4, 10)), expectation="bounded",
        scheme={"kind": "rho", "p": "1/2"},
    )
    rep = theorem2_weak_divergence(cfg)
    assert rep.verdict
    ratios = rep.summary["per_p"]["1/2"]["ratios"]
    assert max(ratios) / min(ratios) <= 2.0


def test_theorem2b_explicit_probes_and_auto_choice():
    cfg = ExperimentConfig(p_list=("1/2",), resolution=9, probes=((5, 0), (6, 2)))
    rep = theorem2_weak_divergence(cfg)
    assert [(c["n"], c["s"]) for c in rep.cases] == [(5, 0), (6, 2)]
    auto = theorem2_weak_divergence(
        ExperimentConfig(p_list=("1/2",), resolution=9, scales=(5, 6))
    )
    # With a flat weight the best probe bit is always 0 (maximal spread).
    assert [(c["n"], c["s"]) for c in auto.cases] == [(5, 0), (6, 0)]


def test_theorem2b_probe_count_equals_the_magnitude_count():
    # Part b counts |S_q f| >= t, t > 0, as S_q f >= t plus S_q f <= -t.
    # Entries exactly at +-t count once; those one ulp inside, and zeros of
    # either sign, do not.
    t = experiments._PROBE_LOWER_CONSTANT * 2.0**3
    rng = np.random.default_rng(5)
    inside = np.nextafter(t, 0)
    values = rng.choice([-4.0, -t, -inside, -1.0, -0.0, 0.0, 1.0, inside, t, 4.0], 1000)
    assert np.any(values == t) and np.any(values == -t)
    assert experiments._count_beyond(values, t) == int((np.abs(values) >= t).sum())
    # On part b's own partial sums, which read +-2^s or 0, and on a quarter of
    # them, which puts entries exactly at +-threshold.
    for n, s in [(5, 0), (6, 2), (9, 4), (12, 11)]:
        sq = partial_sum(counterexample_fn(n, n + 1, "float64"), probe_index(n, s).q).values
        threshold = experiments._PROBE_LOWER_CONSTANT * 2.0**s
        for x in (sq, sq / 4):
            assert experiments._count_beyond(x, threshold) == int((np.abs(x) >= threshold).sum())
        assert np.any(sq / 4 == threshold) and np.any(sq / 4 == -threshold)


def test_theorem2b_table_monotonicity_enforced():
    with pytest.raises(ValueError):
        TableWeight(((17, 4.0), (33, 2.0)))


def test_theorem2b_validation():
    with pytest.raises(ConfigError):
        theorem2_weak_divergence(
            ExperimentConfig(p_list=("1/2",), resolution=9, probes=((3, 3),))
        )
    with pytest.raises(ConfigError):
        theorem2_weak_divergence(
            ExperimentConfig(p_list=("1/2",), resolution=5, scales=(7,))
        )
    with pytest.raises(ConfigError, match="'resolution' must be an integer >= 3"):
        theorem2_weak_divergence(ExperimentConfig(p_list=("1/2",), resolution=2, scales=(1,)))


@pytest.mark.parametrize(
    "run, fields, top",
    [
        # Past the group's cap a scale fails however large the resolution.
        (theorem2_growth, dict(resolution=26, scales=(3, 17, 25)), 23),
        (theorem2_growth, dict(resolution=26), 23),  # the default scales 3 .. 25
        (theorem2_weak_divergence, dict(resolution=30, scales=(4, 24)), 23),
        (theorem2_weak_divergence, dict(resolution=30, probes=((5, 0), (24, 3))), 23),
        # A scale below 1 has no probe bit.
        (theorem2_weak_divergence, dict(resolution=8, scales=(0, 4)), 7),
        (theorem2_weak_divergence, dict(resolution=8, scales=(-2, 4)), 7),
        (theorem2_growth, dict(resolution=8, scales=(0, 4)), 7),
    ],
)
def test_thm2_scales_are_checked_before_any_scale_runs(monkeypatch, run, fields, top):
    def no_scale(*args, **kwargs):
        raise AssertionError("a scale ran before the config was checked")

    monkeypatch.setattr(experiments, "counterexample_fn", no_scale)
    with pytest.raises(ConfigError, match=rf"'scales' must lie within \[1, {top}\]"):
        run(ExperimentConfig(p_list=("1/2",), **fields))


def test_thm2_scales_may_reach_the_group_cap():
    # resolution only caps the scales, so one past the group's cap is allowed
    # while every scale runs within it.
    EXPERIMENTS["thm2a"].validate(ExperimentConfig(p_list=("1/2",), resolution=30, scales=(3, 23)))
    EXPERIMENTS["thm2b"].validate(ExperimentConfig(p_list=("1/2",), resolution=30, probes=((23, 0),)))


def test_theorem2_runs_without_the_transform(monkeypatch):
    # Every sharpness path is transform-free: partial sums by the halving
    # chain, the maximal function by averaging, the operator by the recursion.
    # Every maximal operator is: operators imports no transform at all.
    def no_transform(*args, **kwargs):
        raise AssertionError("the sharpness experiments must not call the transform")

    monkeypatch.setattr(spectral, "fwht_forward", no_transform)
    monkeypatch.setattr(spectral, "fwht_inverse", no_transform)
    assert not hasattr(operators, "fwht_forward")
    f = counterexample_fn(4, 7, "float64")
    table = TableWeight(tuple((n, float(n.bit_length())) for n in range(1, 129)))
    for scheme in (PolyWeight(PExponent.parse("1/2")), table):
        assert weighted_maximal(f, scheme).values.max() > 0
    growth = ExperimentConfig(p_list=("1/2",), resolution=8, scales=(3, 4, 5))
    assert theorem2_growth(growth).verdict
    for scheme, expectation in (({"kind": "unit"}, "divergent"),
                                ({"kind": "rho", "p": "1/2"}, "bounded")):
        cfg = ExperimentConfig(p_list=("1/2",), resolution=9, scales=(4, 5, 6),
                               expectation=expectation, scheme=scheme)
        assert theorem2_weak_divergence(cfg).verdict
    for mode in ("exact", "float64"):
        probe = partial_sum(counterexample_fn(5, 8, mode), probe_index(5, 2).q)
        assert np.abs(probe.values).tolist() == dirichlet_dyadic(2, 8, mode).values.tolist()


_FULL_RESOLUTION_SCALES = {9: (1, 2, 3, 5, 8), 12: (4, 7, 11), 14: (5, 13), 16: (3, 15)}


@pytest.mark.parametrize("m", sorted(_FULL_RESOLUTION_SCALES))
def test_theorem2_reports_equal_the_full_resolution_path(m):
    # Both parts build f_n at n + 1. The reference here builds it at m and runs
    # every operator, partial sum and norm on all 2^m points; the report fields
    # must equal it exactly.
    p_list = ("1/2", "1/3")
    scales = _FULL_RESOLUTION_SCALES[m]
    growth = theorem2_growth(ExperimentConfig(p_list=p_list, resolution=m, scales=scales))
    assert len(growth.cases) == len(p_list) * len(scales)
    for case in growth.cases:
        n, p = case["n"], PExponent.parse(case["p"])
        inv_p, pw = float(p.reciprocal), float(p.p)
        f = counterexample_fn(n, m, "float64")
        g = weighted_maximal(f, RhoWeight(p))
        own = weighted_maximal(counterexample_fn(n, n + 1, "float64"), RhoWeight(p))
        assert np.array_equal(g.values, np.repeat(own.values, 1 << (m - n - 1)))
        lp_out, hardy = lp_quasinorm(g, p), hardy_quasinorm(f, p)
        shell_sum = 0.0
        for s, shell in shell_decomposition(m).shells()[:n]:
            block = np.abs(partial_sum(f, probe_index(n, s).q).values[shell.start : shell.stop])
            w = 2.0 ** ((n - s) * (inv_p - 1.0))
            shell_sum += float(((block / w) ** pw).sum()) / f.size
        assert case["lp_of_output"] == lp_out
        assert case["hardy_of_input"] == hardy
        assert case["ratio"] == lp_out / hardy
        assert case["shell_sum"] == shell_sum
        assert case["shell_ratio"] == shell_sum**inv_p / hardy

    probes = tuple((n, s) for n in scales for s in sorted({0, n // 2, n - 1}))
    for scheme in ({"kind": "unit"}, {"kind": "rho", "p": "1/2"}):
        cfg = ExperimentConfig(p_list=p_list, resolution=m, probes=probes, scheme=scheme)
        phi = operators.scheme_from_json(scheme)
        cases = theorem2_weak_divergence(cfg).cases
        assert len(cases) == len(p_list) * len(probes)
        for case in cases:
            n, s, p = case["n"], case["s"], PExponent.parse(case["p"])
            f = counterexample_fn(n, m, "float64")
            sq = partial_sum(f, probe_index(n, s).q)
            threshold = 0.25 * 2.0**s
            meas = int((np.abs(sq.values) >= threshold).sum()) / f.size
            phi_q = operators.float_weight(phi, case["q"])
            ratio = (threshold / phi_q) * meas ** float(p.reciprocal) / hardy_quasinorm(f, p)
            assert case["measure"] == meas
            assert case["ratio"] == ratio


def test_theorem2b_cases_do_not_depend_on_resolution():
    # resolution only caps the scales: every scale runs at its own n + 1, so
    # the cap at 24 costs what the cap at 9 does.
    fields = dict(p_list=("1/2", "1/3"), scales=(4, 5, 6, 7, 8), scheme={"kind": "rho", "p": "1/2"})
    low = theorem2_weak_divergence(ExperimentConfig(resolution=9, **fields))
    tracemalloc.start()
    try:
        high = theorem2_weak_divergence(ExperimentConfig(resolution=24, **fields))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert high.cases == low.cases
    assert high.summary == low.summary
    assert (high.config["resolution"], low.config["resolution"]) == (24, 9)
    assert peak < 8 << 20  # one float64 function at m = 24 is 128 MiB


# -- corollaries --------------------------------------------------------------------------


def test_corollary_suite_verdicts():
    rep = corollary_suite(8, "1/2", trials=9, seed=3)
    assert rep.verdict
    trends = rep.summary["trends"]
    assert trends["dyadic-orders-unit"]["stable"]
    assert trends["bounded-spread-unit"]["stable"]
    assert trends["unbounded-spread-unit"]["growing"]
    assert trends["spike-orders-rho-exponent"]["stable"]
    assert trends["polynomial-weight"]["stable"]
    assert rep.summary["dyadic_orders_vanish_off_support"]
    finding = rep.summary["stated_exponent_finding"]
    assert finding["rho_exponent_stable"]


def _support_mask(m, level):
    support = interval(GroupPoint(m, 0), level)
    return np.array([x in support.indices() for x in range(1 << m)])


def _atom_by_recipe(p_str, level, m, seed, trial):
    generator = GENERATORS[trial % len(GENERATORS)]
    recipe = AtomRecipe(level, 0, PExponent.parse(p_str), generator, experiments._trial_seed(seed, trial))
    return generator, make_atom(recipe, m)


def _thm1_case_by_engine(args):
    # thm1's case read off the general engine's 2^m-point output, field by field.
    p_str, level, m, seed, trial = args
    generator, atom = _atom_by_recipe(*args)
    p = atom.p
    g = weighted_maximal(atom.values, RhoWeight(p))
    on = _support_mask(m, level)
    wt = weak_type_constant(g.with_values(np.where(on, 0.0, g.values)), p)
    hardy = hardy_quasinorm(atom.values, p)
    inv_p = float(p.reciprocal)
    shells = [g.values[shell.start : shell.stop].max() for _, shell in shell_decomposition(m).shells()[:level]]
    constant = max(float(v) / 2.0 ** (s * inv_p) for s, v in enumerate(shells))
    off = g.values[~on]
    margin = None
    if constant > 0:
        margin = max(int((off >= constant * 2.0 ** (k * inv_p)).sum()) / g.size - 2.0 / (1 << k)
                     for k in range(level))
    return {
        "p": p_str,
        "M": level,
        "trial": trial,
        "generator": generator,
        "wt_off_value": wt.value,
        "wt_off_attaining_level": wt.attaining_level,
        "normalized_ratio": weak_lp_quasinorm(g, p) / hardy if hardy > 0 else 0.0,
        "shell_constant": constant,
        "sigma4_margin": margin,
        "sigma0_ok": bool(constant == 0.0 or off.max() <= constant * 2.0 ** (level * inv_p)),
    }


def _corollary_case_by_engine(ops, args):
    p_str, level, m, seed, trial = args
    generator, atom = _atom_by_recipe(*args)
    on = _support_mask(m, level)
    row = {"p": p_str, "M": level, "trial": trial, "generator": generator}
    for name, (orders, scheme) in ops.items():
        if orders is None:
            g = weighted_maximal(atom.values, scheme)
        else:
            g = restricted_maximal(atom.values, orders, scheme)
        row[name] = weak_type_constant(g.with_values(np.where(on, 0.0, g.values)), atom.p).value
    return row


@pytest.mark.parametrize("p_str", ["1/2", "1/3", "1/4", "2/3", "3/4", "1/5", "1/8"])
def test_off_support_constants_equal_weak_type_constant(p_str):
    # Off the support I_M(0) means outside the level-M interval at 0.  thm1
    # and the corollaries read each atom through its 2^e cells; every field
    # of their cases must be the one the general engines' 2^m-point output
    # gives through the public measurements, bit for bit.
    p, seed = PExponent.parse(p_str), 5
    for level, e in [(4, 1), (4, 2), (3, 3), (5, 3), (4, 4)]:
        for trial in range(len(GENERATORS)):
            args = (p_str, level, level + e, seed, trial)
            [case] = experiments._thm1_cell((*args[:4], range(trial, trial + 1)))
            assert case["generator"] == GENERATORS[trial]
            assert json.dumps(case) == json.dumps(_thm1_case_by_engine(args))
    for m in (7, 8, 10, 12):
        ops = experiments._corollary_operators(m, p)
        for level in (2, m // 2, m - 2):
            for trial in range(len(GENERATORS)):
                args = (p_str, level, m, seed, trial)
                [row] = experiments._corollary_cell(ops, (*args[:4], range(trial, trial + 1)))
                assert list(row) == ["p", "M", "trial", "generator", *ops]
                assert json.dumps(row) == json.dumps(_corollary_case_by_engine(ops, args))


def test_atom_experiments_run_no_grid_engine(monkeypatch):
    # thm1 and the corollaries read atoms through their cells' packets alone.
    def refuse(*args, **kwargs):
        raise AssertionError("a 2^m-point engine ran")

    for name in ("weighted_maximal", "restricted_maximal", "_spread_max", "_pruned_max"):
        monkeypatch.setattr(operators, name, refuse)
    monkeypatch.setattr(experiments, "weighted_maximal", refuse)
    # Nor do they build, check or measure an atom on the 2^m grid, through
    # whichever module holds the name.
    for module, name in ((constructions, "make_atom"), (analysis, "validate_atom"), (analysis, "hardy_quasinorm")):
        for holder in (module, experiments):
            if hasattr(holder, name):
                monkeypatch.setattr(holder, name, refuse)
    # A cell's level sets come from its one level pass, never from a grid's values.
    monkeypatch.setattr(analysis.LevelSet, "of", refuse)
    assert theorem1_weak_type(_small_thm1_cfg(trials=3)).verdict
    assert len(corollary_suite(7, "1/2", trials=2, seed=1).cases) == 8


@pytest.mark.parametrize("trials", [1, 4, 7])
def test_batched_cells_equal_the_engines(monkeypatch, trials):
    # A cell runs its trials through each array stage at once, a chunk of
    # trials at a time.  Every case, whole or cut into chunks of two, must be
    # the one the general engines give trial by trial.  At p = 3/4 the
    # random-signs atoms at e = 9 have a rounded mean, which the Hardy norm
    # reads off the support.
    p_str, seed = "3/4", 3

    def both(cell, args, level, m):
        whole = cell((*args, range(trials)))
        with monkeypatch.context() as mp:
            mp.setattr(experiments, "_CELL_BUDGET", 2 * (m << (m - level)))
            assert len(list(experiments._trial_atoms(*args, range(trials)))) == (trials + 1) // 2
            chunked = cell((*args, range(trials)))
        assert json.dumps(chunked) == json.dumps(whole)
        assert [c["trial"] for c in whole] == list(range(trials))
        return whole

    for level, m in [(1, 10), (4, 6), (3, 8), (5, 9)]:
        args = (p_str, level, m, seed)
        for t, case in enumerate(both(experiments._thm1_cell, args, level, m)):
            assert json.dumps(case) == json.dumps(_thm1_case_by_engine((*args, t)))
    for m in (7, 10):
        ops = experiments._corollary_operators(m, PExponent.parse(p_str))
        for level in (2, m // 2, m - 2):
            args = (p_str, level, m, seed)
            for t, row in enumerate(both(partial(experiments._corollary_cell, ops), args, level, m)):
                assert json.dumps(row) == json.dumps(_corollary_case_by_engine(ops, (*args, t)))


def test_theorem1_trial_chunks_bound_memory():
    # At e = 13 a trial holds m 2^e = 114,688 elements per array stage, so a
    # chunk is one trial.  The per-case path this replaced, one 2^14-point
    # grid atom per task, peaked at 8,457,145 B traced on this config in a
    # fresh process (7.2-7.9 MiB once its shell table was cached); all 64
    # trials in one chunk peaked at 455 MiB.
    cfg = ExperimentConfig(p_list=("1/2",), support_levels=(1,), extra_resolution=13, trials=64, seed=0)
    tracemalloc.start()
    try:
        rep = theorem1_weak_type(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.cases) == 64
    assert peak <= 2 * 8_457_145


def test_corollary_suite_builds_its_operators_once(monkeypatch):
    calls = []
    build = experiments._corollary_operators
    monkeypatch.setattr(experiments, "_corollary_operators", lambda *a: calls.append(a) or build(*a))
    rep = corollary_suite(7, "1/2", trials=2, seed=1)
    assert calls == [(7, PExponent.parse("1/2"))]
    assert len(rep.cases) == 8


def test_corollary_suite_records_its_config():
    # The report's config is built from the checked ExperimentConfig and
    # records the derived levels and the trend gates, not the contract's fields.
    rep = corollary_suite(7, "1/2", trials=2, seed=1)
    assert rep.config == {
        "resolution": 7,
        "p": "1/2",
        "trials": 2,
        "seed": 1,
        "support_levels": [2, 3, 4, 5],
        "stable_cap": 1.4,
        "band_cap": 4.0,
        "growth_floor": 1.7,
    }
    assert rep.name == "corollary-suite" and EXPERIMENTS["corollaries"].series is None


def test_corollary_suite_validation():
    with pytest.raises(ValueError, match=r"'resolution' must be an integer in \[6, 24\]"):
        corollary_suite(5, "1/2")
    with pytest.raises(ValueError, match=r"'p_list' entry 1 must lie in \(0, 1\)"):
        corollary_suite(8, "1")
    with pytest.raises(ValueError, match="'trials' must be an integer >= 1"):
        corollary_suite(8, "1/2", trials=0)
    # Three levels put the middle one in both two-level end windows, so the
    # growth check cannot pass: m = 6 has only the levels 2, 3, 4.
    with pytest.raises(ValueError, match="hold level 3"):
        corollary_suite(6, "1/2")
    with pytest.raises(ValueError, match="'jobs' must be an integer >= 1"):
        corollary_suite(8, "1/2", trials=1, jobs=0)
    # Non-integer counts are input errors, not a TypeError deep in the run;
    # a bool is no count, so True does not run one trial.
    for kwargs, bound in (({"trials": "5"}, ">= 1"), ({"trials": 2.0}, ">= 1"), ({"trials": True}, ">= 1"),
                          ({"seed": 1.5}, r"in \[0, 2\^64\)"), ({"jobs": "2"}, ">= 1")):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"'{name}' must be an integer {bound}"):
            corollary_suite(8, "1/2", **{"trials": 1, **kwargs})
    # Trial seeds are masked to 64 bits, so a seed outside [0, 2^64) would repeat another's cases.
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"'seed' must be an integer in \[0, 2\^64\)"):
            corollary_suite(8, "1/2", trials=1, seed=seed)


def test_thm1_rejects_jobs_below_one():
    with pytest.raises(ConfigError, match="'jobs' must be an integer >= 1"):
        theorem1_weak_type(ExperimentConfig(p_list=("1/2",), support_levels=(3, 4), trials=1, jobs=0))


def test_worker_count_caps_at_cpu_count():
    cpus = os.cpu_count() or 1
    assert worker_count(1) == 1
    assert worker_count(cpus) == cpus
    assert worker_count(cpus + 1000) == cpus
    with pytest.raises(ValueError):
        worker_count(0)


# -- reports ------------------------------------------------------------------------------


def test_report_files_roundtrip(tmp_path):
    rep = verify_kernels(5)
    out = tmp_path / "rk.json"
    rep.write(out, runtime_seconds=0.1)
    loaded = load_report(out)
    assert loaded.name == rep.name and loaded.verdict == rep.verdict
    meta = json.loads((tmp_path / "rk.meta.json").read_text())
    assert "written_at" in meta and "runtime_seconds" in meta
    assert "written_at" not in out.read_text()

    csv_path = rep.write_cases_csv(tmp_path / "rk.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "check,count,mismatches"
    assert len(lines) == 1 + len(rep.cases)


def test_series_tsv(tmp_path):
    cfg = ExperimentConfig(p_list=("1/2",), resolution=8, scales=(3, 4, 5))
    rep = theorem2_growth(cfg)
    path = rep.write_series_tsv(tmp_path / "series.tsv", "n", "ratio")
    lines = path.read_text().splitlines()
    assert lines[0] == "n\tratio"
    assert len(lines) == 4
    assert lines[1].split("\t")[0] == "3"


def test_reports_byte_identical_across_runs(tmp_path):
    for build in (
        lambda: verify_all(6),
        lambda: theorem2_growth(
            ExperimentConfig(p_list=("1/2",), resolution=8, scales=(3, 4, 5))
        ),
        lambda: corollary_suite(8, "1/2", trials=5, seed=9),
    ):
        assert build().to_json() == build().to_json()
