"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
measured quantities.  Tolerances are pinned here, not configurable:
bit-exact checks assert equality of exact values, float checks carry the
stated bounds, and trend checks use the stated caps and floors.
"""

import os
import time
from fractions import Fraction

import numpy as np

from walshlab.analysis import PExponent, hardy_quasinorm
from walshlab.constructions import counterexample_fn
from walshlab.experiments import (
    ExperimentConfig,
    corollary_suite,
    theorem1_weak_type,
    theorem2_growth,
    theorem2_weak_divergence,
    verify_all,
    verify_kernel_l1_sandwich,
    verify_kernels,
    verify_lemma1,
)
from walshlab.functions import DyadicFunction, values_equal
from walshlab.spectral import (
    dirichlet_direct,
    dirichlet_dyadic,
    dirichlet_fast,
    fwht_forward,
    fwht_inverse,
)

from oracles import naive_forward

JOBS = min(8, os.cpu_count() or 1)


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_kernel_identities():
    t0 = time.perf_counter()
    m = 10
    rep = verify_kernels(m)
    api_mismatches = 0
    for n in range(1, (1 << m) + 1):
        direct = dirichlet_direct(n, m, "exact")
        if not values_equal(direct, dirichlet_fast(n, m, "exact")):
            api_mismatches += 1
        if n & (n - 1) == 0:
            if not values_equal(direct, dirichlet_dyadic(n.bit_length() - 1, m, "exact")):
                api_mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = rep.verdict and api_mismatches == 0 and elapsed <= 60
    _report(1, ok, f"1024 kernels bit-exact (engine + exact API), {elapsed:.1f}s <= 60s")
    assert rep.verdict and rep.summary["mismatches"] == 0
    assert api_mismatches == 0
    assert elapsed <= 60


def test_criterion_2_kernel_lower_bound_sweep():
    t0 = time.perf_counter()
    rep = verify_lemma1(10)
    elapsed = time.perf_counter() - t0
    min_ratio = Fraction(rep.summary["min_ratio_exact"])
    ok = rep.verdict and min_ratio >= Fraction(1, 4) and elapsed <= 60
    _report(2, ok, f"min |D_n|/2^low = {min_ratio} >= 1/4 over n <= 2^10, {elapsed:.1f}s <= 60s")
    assert rep.verdict
    assert min_ratio >= Fraction(1, 4)
    assert elapsed <= 60


def test_criterion_3_l1_sandwich():
    t0 = time.perf_counter()
    rep = verify_kernel_l1_sandwich(12)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict and elapsed <= 300
    _report(
        3,
        ok,
        f"V/8 <= ||D_n||_1 <= V for all n <= 2^12 exactly "
        f"(norm/V in [{rep.summary['min_norm_over_variation']:.4f}, "
        f"{rep.summary['max_norm_over_variation']:.4f}]), {elapsed:.1f}s <= 300s",
    )
    assert rep.verdict
    assert elapsed <= 300


def test_criterion_4_transform_correctness():
    rng = np.random.default_rng(42)
    # Exhaustive over basis vectors at m <= 6, bit-exact in exact mode.
    basis_fail = 0
    for m in range(1, 7):
        for i in range(1 << m):
            vals = [0] * (1 << m)
            vals[i] = 1
            f = DyadicFunction.from_values(m, vals, "exact")
            if fwht_forward(f).coeffs.tolist() != naive_forward(vals, m):
                basis_fail += 1
    # 100 random integer-valued functions, bit-exact.
    random_fail = 0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        vals = [int(v) for v in rng.integers(-50, 51, 1 << m)]
        f = DyadicFunction.from_values(m, vals, "exact")
        if fwht_forward(f).coeffs.tolist() != naive_forward(vals, m):
            random_fail += 1
    # Float roundtrip at m = 16.
    f16 = DyadicFunction.from_values(16, rng.standard_normal(1 << 16))
    sup_err = float(np.max(np.abs(fwht_inverse(fwht_forward(f16)).values - f16.values)))
    ok = basis_fail == 0 and random_fail == 0 and sup_err <= 1e-12
    _report(
        4,
        ok,
        f"transform vs naive oracle: 0 mismatches over bases m<=6 and 100 random; "
        f"roundtrip sup-error {sup_err:.2e} <= 1e-12 at m=16",
    )
    assert basis_fail == 0 and random_fail == 0
    assert sup_err <= 1e-12


def test_criterion_5_weak_type_stability():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        p_list=("1/4", "1/2", "3/4"),
        support_levels=(4, 5, 6, 7, 8, 9),
        trials=500,
        seed=42,
        ratio_cap=1.2,
        jobs=JOBS,
    )
    rep = theorem1_weak_type(cfg)
    elapsed = time.perf_counter() - t0
    worst_ratio = max(v["max_consecutive_ratio"] for v in rep.summary["per_p"].values())
    single = all(v["single_constant_ok"] for v in rep.summary["per_p"].values())
    ok = rep.verdict and elapsed <= 600
    _report(
        5,
        ok,
        f"9000 atoms, max consecutive cell ratio {worst_ratio:.4f} <= 1.2, "
        f"single shell constant per p: {single}, {elapsed:.1f}s <= 600s (jobs={JOBS})",
    )
    assert rep.verdict
    assert worst_ratio <= 1.2
    assert single
    assert elapsed <= 600


def test_criterion_6_growth():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        p_list=("1/2", "1/3"),
        resolution=12,
        scales=tuple(range(3, 12)),
        slope_fraction=0.8,
    )
    rep = theorem2_growth(cfg)
    elapsed = time.perf_counter() - t0
    s_half = rep.summary["per_p"]["1/2"]
    s_third = rep.summary["per_p"]["1/3"]
    ok = (
        rep.verdict
        and s_half["strictly_increasing"]
        and s_third["strictly_increasing"]
        and s_half["slope"] >= 1.6
        and s_third["slope"] >= 2.4
        and elapsed <= 600
    )
    _report(
        6,
        ok,
        f"R(n) strictly increasing; normalized lower-bound slopes "
        f"{s_half['slope']:.3f} >= 1.6 and {s_third['slope']:.3f} >= 2.4 "
        f"(full-ratio slopes {s_half['slope_full_ratio']:.3f}, "
        f"{s_third['slope_full_ratio']:.3f}); {elapsed:.1f}s <= 600s",
    )
    assert s_half["strictly_increasing"] and s_third["strictly_increasing"]
    assert s_half["slope"] >= 1.6
    assert s_third["slope"] >= 2.4
    assert rep.verdict
    assert elapsed <= 600


def test_criterion_7_weak_divergence():
    scales = tuple(range(4, 11))
    probes = tuple((n, 0) for n in scales)
    divergent = theorem2_weak_divergence(
        ExperimentConfig(
            p_list=("1/2",),
            resolution=11,
            probes=probes,
            expectation="divergent",
            growth_floor=1.5,
        )
    )
    growth = divergent.summary["per_p"]["1/2"]["growth_factors"]
    bounded = theorem2_weak_divergence(
        ExperimentConfig(
            p_list=("1/2",),
            resolution=11,
            probes=probes,
            expectation="bounded",
            band_cap=2.0,
            scheme={"kind": "rho", "p": "1/2"},
        )
    )
    ratios = bounded.summary["per_p"]["1/2"]["ratios"]
    band = max(ratios) / min(ratios)
    ok = divergent.verdict and bounded.verdict
    _report(
        7,
        ok,
        f"flat weight: ratio grows x{min(growth):.2f}..x{max(growth):.2f} per scale (>= 1.5); "
        f"reference weight: band {band:.3f} <= 2",
    )
    assert divergent.verdict
    assert all(g >= 1.5 for g in growth)
    assert bounded.verdict
    assert band <= 2.0


def test_criterion_8_exactness_anchors():
    p = PExponent.parse("1/2")
    m = 12
    hardy_ok = True
    spectrum_ok = True
    for n in range(1, 10):
        f = counterexample_fn(n, m, "exact")
        if hardy_quasinorm(f, p) != Fraction(1, 1 << n):
            hardy_ok = False
        coeffs = fwht_forward(f).coeffs
        expected = [1 if (1 << n) <= k < (1 << (n + 1)) else 0 for k in range(1 << m)]
        if coeffs.tolist() != expected:
            spectrum_ok = False
    ok = hardy_ok and spectrum_ok
    _report(
        8,
        ok,
        "H_p norm of sharpness functions = 2^(n(1-1/p)) exactly and spectra are "
        "exact block indicators, n = 1..9 at m = 12",
    )
    assert hardy_ok
    assert spectrum_ok


def test_criterion_9_determinism():
    runs = []

    def twice(label, build):
        a, b = build().to_json(), build().to_json()
        runs.append((label, a == b))
        return a == b

    ok = True
    ok &= twice("verify-all", lambda: verify_all(8))
    ok &= twice(
        "thm1",
        lambda: theorem1_weak_type(
            ExperimentConfig(p_list=("1/2",), support_levels=(3, 4), trials=10, seed=42)
        ),
    )
    ok &= twice(
        "thm2a",
        lambda: theorem2_growth(
            ExperimentConfig(p_list=("1/2",), resolution=9, scales=(3, 4, 5, 6))
        ),
    )
    ok &= twice(
        "thm2b",
        lambda: theorem2_weak_divergence(
            ExperimentConfig(p_list=("1/2",), resolution=9, scales=(4, 5, 6))
        ),
    )
    ok &= twice("corollaries", lambda: corollary_suite(8, "1/2", trials=6, seed=5))
    detail = ", ".join(f"{label}={'ok' if same else 'DIFFERS'}" for label, same in runs)
    _report(9, bool(ok), f"byte-identical reruns: {detail}")
    assert ok
