"""The three workloads: inputs made from the seed, one timed round, and its checks.

Building a workload object is set-up (it is timed as ``setup_s``);
``run`` is the timed round (``wall_s``); ``check`` runs afterwards,
untimed, and compares the round's outputs with ``oracle`` and with closed
forms.  Every experiment invocation and every check is one operation; a
round always attempts the same operations, so a failing one fails in
every round and the failed share of a run does not depend on its length.

Experiments with a subcommand go through ``walshlab.cli.main`` in-process
with ``--jobs 1``, so argument handling and report writing are measured as
a user runs them.  Importing this module imports walshlab.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from fractions import Fraction

import numpy as np

from walshlab import cli
from walshlab.analysis import PExponent, hardy_quasinorm, lp_quasinorm, maximal_function
from walshlab.constructions import GENERATORS, AtomRecipe, counterexample_fn, make_atom
from walshlab.functions import DyadicFunction
from walshlab.operators import RhoWeight, weighted_maximal
from walshlab.spectral import dirichlet_direct, dirichlet_fast, fwht_forward, fwht_inverse

import oracle
from oracle import Oracle, close


def _attempt(fn):
    """Run one operation; any exception is that operation's failure."""
    try:
        return fn()
    except Exception as exc:  # an operation boundary: record and go on
        return False, f"{type(exc).__name__}: {exc}"


def _by(cases: list[dict], **match) -> dict:
    for case in cases:
        if all(str(case.get(k)) == str(v) for k, v in match.items()):
            return case
    raise LookupError(f"no case with {match}")


class Workload:
    """One round of one workload, its outputs, and the operations it attempted."""

    name = ""

    def __init__(self, seed: int, outdir: str, tiny: bool) -> None:
        self.seed = seed
        self.outdir = outdir
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.ops: list[tuple[str, bool, str]] = []
        self.reports: dict[str, str] = {}
        self.outputs: dict[str, object] = {}

    def invoke(self, key: str, argv: list[str]) -> None:
        """``walshlab <argv> --output <outdir>/<key>.json``; exit code 0 passes."""
        path = os.path.join(self.outdir, key + ".json")
        self.reports[key] = path

        def call():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main([*argv, "--output", path])
            return code == 0, f"exit {code}: {out.getvalue().strip()}"

        self.ops.append((key, *_attempt(call)))

    def compute(self, key: str, fn) -> None:
        """A library call outside the CLI; ``fn`` returns the output to keep."""
        result = _attempt(lambda: (True, fn()))
        self.ops.append((key, result[0], "" if result[0] else result[1]))
        self.outputs[key] = result[1] if result[0] else None

    def output(self, key: str):
        if self.outputs.get(key) is None:
            raise LookupError(f"{key} produced no output")
        return self.outputs[key]

    def report(self, key: str) -> dict:
        with open(self.reports[key]) as fh:
            return json.load(fh)

    def data_digests(self) -> dict[str, str]:
        """SHA-256 of each data file written; ``.meta.json`` sidecars hold timestamps."""
        out = {}
        for name in sorted(os.listdir(self.outdir)):
            if not name.endswith(".meta.json"):
                with open(os.path.join(self.outdir, name), "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def run(self) -> None:
        raise NotImplementedError

    def checks(self, orc: Oracle) -> list[tuple[str, object]]:
        """(name, thunk) pairs; a thunk returns (ok, detail)."""
        raise NotImplementedError

    def check(self) -> None:
        orc = Oracle()
        for name, thunk in self.checks(orc):
            self.ops.append((f"check:{name}", *_attempt(thunk)))


# -- atoms: Theorem 1 and the corollaries ------------------------------------

P_ATOMS = ("1/4", "1/2", "3/4")


def _haar_pair(m: int, level: int, p: Fraction) -> np.ndarray:
    """``+-mu(I)^(-1/p)`` on the two halves of the level-``level`` interval at 0."""
    bound = 2.0 ** float(level / p)
    half = 1 << (m - level - 1)
    f = np.zeros(1 << m)
    f[:half] = bound
    f[half : 2 * half] = -bound
    return f


def _corollary_orders(m: int, p: Fraction) -> dict[str, tuple[list[int], list[float]]]:
    """Orders and weights of each corollary operator, from their definitions."""
    e = float(1 / p - 1)
    ks = range(1, m)
    spikes = [(1 << k) + 1 for k in ks]
    ops = {
        "dyadic-orders-unit": ([1 << k for k in range(m + 1)], [1.0] * (m + 1)),
        "bounded-spread-unit": ([(1 << k) + (1 << (k - 1)) for k in ks], [1.0] * (m - 1)),
        "unbounded-spread-unit": (spikes, [1.0] * (m - 1)),
        "half-bit-weighted": ([(1 << k) + (1 << (k // 2)) for k in ks], [2.0 ** ((k // 2) * e) for k in ks]),
        "spike-orders-rho-exponent": (spikes, [2.0 ** (k * e) for k in ks]),
    }
    stated = 1 / p - 2
    if stated >= 0:
        ops["spike-orders-stated-exponent"] = (spikes, [2.0 ** (k * float(stated)) for k in ks])
    return ops


class Atoms(Workload):
    """thm1 over p in {1/4, 1/2, 3/4}, levels 4..9 at m = level + 2, then corollaries at m = 10."""

    name = "atoms"

    def __init__(self, seed: int, outdir: str, tiny: bool) -> None:
        super().__init__(seed, outdir, tiny)
        self.levels = (3, 5) if tiny else (4, 9)
        self.cor_m = 7 if tiny else 10
        trials = "3" if tiny else "12"
        cor_trials = "3" if tiny else "12"
        self.thm1_argv = ["thm1", *(a for p in P_ATOMS for a in ("--p", p)),
                          "--levels", f"{self.levels[0]}..{self.levels[1]}",
                          "--trials", trials, "--seed", str(seed), "--jobs", "1"]
        self.cor_argv = ["corollaries", "--resolution", str(self.cor_m), "--p", "1/2",
                         "--trials", cor_trials, "--seed", str(seed), "--jobs", "1"]
        # Sampled atoms for the definitional check, one per exponent: dyadic
        # values with zero mean on a random dyadic interval of a random level.
        self.probes = []
        for p in P_ATOMS:
            m = int(self.rng.integers(self.levels[0], self.levels[1] + 1)) + 2
            width = 1 << (m - int(self.rng.integers(1, m)))
            start = int(self.rng.integers(0, (1 << m) // width)) * width
            raw = self.rng.integers(-1000, 1001, width)
            f = np.zeros(1 << m)
            f[start : start + width] = (width * raw - raw.sum()) / 2.0**20
            self.probes.append((p, m, f))

    def run(self) -> None:
        self.invoke("thm1", self.thm1_argv)
        self.invoke("corollaries", self.cor_argv)

    def checks(self, orc: Oracle):
        out = []
        for p_str in P_ATOMS:
            for level in range(self.levels[0], self.levels[1] + 1):
                out.append((f"thm1-haar p={p_str} M={level}", self._thm1_haar(orc, p_str, level)))
        for level in range(2, self.cor_m - 1):
            out.append((f"corollary-haar M={level}", self._corollary_haar(orc, level)))
        for p_str, m, f in self.probes:
            out.append((f"weighted-maximal-oracle p={p_str} m={m}", self._probe(orc, p_str, m, f)))
            out.append((f"maximal-sandwich p={p_str} m={m}", self._sandwich(p_str, m, f)))
        return out

    def _thm1_haar(self, orc, p_str, level):
        def thunk():
            case = _by(self.report("thm1")["cases"], p=p_str, M=level, generator="haar-pair")
            p = Fraction(p_str)
            m = level + 2
            g = orc.weighted_sup(_haar_pair(m, level, p), m, oracle.spread_weights(m, float(1 / p - 1)))
            want = oracle.weak_type(g[1 << (m - level) :], float(p), 1 << m)
            return close(case["wt_off_value"], want), f"{case['wt_off_value']} vs {want}"
        return thunk

    def _corollary_haar(self, orc, level):
        def thunk():
            row = _by(self.report("corollaries")["cases"], M=level, generator="haar-pair")
            p, m = Fraction(1, 2), self.cor_m
            f = _haar_pair(m, level, p)
            off = slice(1 << (m - level), None)
            bad = []
            for op, (orders, weights) in _corollary_orders(m, p).items():
                g = orc.restricted_sup(f, m, orders, weights)
                if not close(row[op], oracle.weak_type(g[off], float(p), 1 << m)):
                    bad.append(op)
            poly = orc.weighted_sup(f, m, np.arange(2, (1 << m) + 2) ** float(1 / p - 1))
            if not close(row["polynomial-weight"], oracle.weak_type(poly[off], float(p), 1 << m)):
                bad.append("polynomial-weight")
            return not bad, f"mismatched: {bad}"
        return thunk

    def _probe(self, orc, p_str, m, f):
        def thunk():
            p = PExponent.parse(p_str)
            got = weighted_maximal(DyadicFunction(m, f.copy(), "float64"), RhoWeight(p)).values
            want = orc.weighted_sup(f, m, oracle.spread_weights(m, float(p.weight_exponent)))
            err = float(np.abs(got - want).max())
            return err <= 1e-12 * float(np.abs(f).max()), f"sup error {err}"
        return thunk

    def _sandwich(self, p_str, m, f):
        def thunk():
            fn = DyadicFunction(m, f.copy(), "float64")
            g = weighted_maximal(fn, RhoWeight(PExponent.parse(p_str))).values
            mf = oracle.interval_maximal(f, m)
            tol = 1e-12 * float(np.abs(f).max())
            ok = (g >= mf - tol).all() and (mf >= np.abs(f)).all()
            same = float(np.abs(maximal_function(fn).values - mf).max()) <= tol
            return bool(ok and same), f"ordered={bool(ok)} maximal_function matches={same}"
        return thunk


# -- sharpness: Theorem 2 -----------------------------------------------------

P_SHARP = ("1/2", "1/3")


class Sharpness(Workload):
    """thm2 part a at m = 12 for p in {1/2, 1/3}; part b at m = 19 with the unit and spread weights."""

    name = "sharpness"

    def __init__(self, seed: int, outdir: str, tiny: bool) -> None:
        super().__init__(seed, outdir, tiny)
        self.m_a = 7 if tiny else 12
        self.m_b = 10 if tiny else 19
        self.a_argv = ["thm2", "--part", "a", "--resolution", str(self.m_a),
                       *(a for p in P_SHARP for a in ("--p", p)), "--seed", str(seed)]
        self.b_argv = {
            phi: ["thm2", "--part", "b", "--resolution", str(self.m_b), "--phi", phi, "--seed", str(seed)]
            for phi in ("unit", "rho")
        }
        self.oracle_scale = int(self.rng.integers(3, self.m_a))
        self.oracle_p = P_SHARP[int(self.rng.integers(0, len(P_SHARP)))]

    def run(self) -> None:
        self.invoke("thm2a", self.a_argv)
        for phi, argv in self.b_argv.items():
            self.invoke(f"thm2b-{phi}", argv)

    def checks(self, orc: Oracle):
        out = []
        for p_str in P_SHARP:
            for n in range(3, self.m_a):
                out.append((f"thm2a-law p={p_str} n={n}", self._law(p_str, n)))
        out.append((f"thm2a-oracle p={self.oracle_p} n={self.oracle_scale}", self._oracle(orc, self.oracle_p)))
        for phi in self.b_argv:
            for n in range(4, self.m_b):
                out.append((f"thm2b-{phi} n={n}", self._probe(phi, n)))
        return out

    def _law(self, p_str, n):
        def thunk():
            case = _by(self.report("thm2a")["cases"], p=p_str, n=n)
            p = Fraction(p_str)
            law = case["ratio"] ** float(p)
            hardy = 2.0 ** float(n * (1 - 1 / p))
            ok = close(law, (n + 2) / 2) and close(case["hardy_of_input"], hardy)
            return ok, f"R^p={law} vs {(n + 2) / 2}, H_p={case['hardy_of_input']} vs {hardy}"
        return thunk

    def _oracle(self, orc, p_str):
        def thunk():
            n, m, p = self.oracle_scale, self.m_a, Fraction(p_str)
            case = _by(self.report("thm2a")["cases"], p=p_str, n=n)
            g = orc.weighted_sup(orc.sharpness(n, m), m, oracle.spread_weights(m, float(1 / p - 1)))
            lp = (math.fsum(g ** float(p)) / g.size) ** float(1 / p)
            return close(case["lp_of_output"], lp), f"{case['lp_of_output']} vs {lp}"
        return thunk

    def _probe(self, phi, n):
        def thunk():
            rep = self.report(f"thm2b-{phi}")
            case = _by(rep["cases"], n=n)
            p = Fraction(rep["config"]["p_list"][0])
            s = int(case["s"])
            phi_q = 1.0 if phi == "unit" else 2.0 ** float((n - s) * (1 / p - 1))
            ratio = (2.0**s / 4 / phi_q) * (2.0**-s) ** float(1 / p) / 2.0 ** float(n * (1 - 1 / p))
            ok = (
                case["q"] == (1 << n) + (1 << s)
                and case["measure"] == 2.0**-s
                and close(case["phi"], phi_q)
                and close(case["ratio"], ratio)
            )
            return ok, f"s={s} measure={case['measure']} ratio={case['ratio']} vs {ratio}"
        return thunk


# -- exact: integer kernel sweeps and Fraction arithmetic ----------------------

P_EXACT = PExponent.parse("1/2")
ROUNDTRIP_SHIFT = 9  # round-trip values are k / 2^j with j <= ROUNDTRIP_SHIFT


class Exact(Workload):
    """verify all at m = 12, then exact-mode operators on f_n, dyadic atoms and a transform round trip."""

    name = "exact"

    def __init__(self, seed: int, outdir: str, tiny: bool) -> None:
        super().__init__(seed, outdir, tiny)
        self.m_verify = 6 if tiny else 12
        self.m_f = 5 if tiny else 7
        self.m_roundtrip = 8 if tiny else 13
        self.verify_argv = ["verify", "all", "--resolution", str(self.m_verify)]
        self.recipes = [
            (m, AtomRecipe(m - 2, int(self.rng.integers(0, 1 << m)), P_EXACT, gen,
                           int(self.rng.integers(0, 1 << 62))))
            for m in ((5, 6) if tiny else (7, 8))
            for gen in GENERATORS
        ]
        size = 1 << self.m_roundtrip
        nums = self.rng.integers(-1000, 1001, size)
        shifts = self.rng.integers(0, ROUNDTRIP_SHIFT + 1, size)
        self.roundtrip_values = [Fraction(int(a), 1 << int(b)) for a, b in zip(nums, shifts)]
        self.orders = sorted(int(n) for n in self.rng.choice(1 << self.m_verify, 8, replace=False) + 1)
        self.coeff_index = [int(k) for k in self.rng.choice(size, 8, replace=False)]

    def run(self) -> None:
        self.invoke("verify", self.verify_argv)
        for n in range(1, self.m_f):
            self.compute(f"f_{n}", lambda n=n: self._sharpness_fn(n))
        for i, (m, recipe) in enumerate(self.recipes):
            self.compute(f"atom-{i}", lambda m=m, r=recipe: self._atom(m, r))
        self.compute("roundtrip", self._roundtrip)

    def _sharpness_fn(self, n):
        f = counterexample_fn(n, self.m_f, "exact")
        g = weighted_maximal(f, RhoWeight(P_EXACT))
        hardy = hardy_quasinorm(f, P_EXACT)
        # L_1/2 of the output is rational only at even n.
        lp = lp_quasinorm(g, P_EXACT) if n % 2 == 0 else None
        return g, hardy, lp

    def _atom(self, m, recipe):
        atom = make_atom(recipe, m, "exact")
        g = weighted_maximal(atom.values, RhoWeight(P_EXACT))
        # L_p at p = 1/2 is irrational on most multi-level atoms; L_1 is always exact.
        return atom.values, g, lp_quasinorm(g, 1), hardy_quasinorm(atom.values, 1)

    def _roundtrip(self):
        f = DyadicFunction.from_values(self.m_roundtrip, self.roundtrip_values, "exact")
        spec = fwht_forward(f)
        return spec, fwht_inverse(spec)

    def checks(self, orc: Oracle):
        out = []
        for n in self.orders:
            out.append((f"dirichlet n={n}", self._kernel(orc, n)))
            out.append((f"l1-sandwich n={n}", self._sandwich(orc, n)))
        out.append(("l1-sandwich-report", self._sandwich_report(orc)))
        for n in range(1, self.m_f):
            out.append((f"f_{n}", self._fn(orc, n)))
        for i, (m, _) in enumerate(self.recipes):
            out.append((f"atom-{i} m={m}", self._atom_check(orc, i, m)))
        out.append(("roundtrip", self._roundtrip_check(orc)))
        return out

    def _kernel(self, orc, n):
        def thunk():
            want = orc.dirichlet(n, self.m_verify)
            fast = np.array(dirichlet_fast(n, self.m_verify, "exact").values, dtype=np.int64)
            direct = np.array(dirichlet_direct(n, self.m_verify, "exact").values, dtype=np.int64)
            return bool((fast == want).all() and (direct == want).all()), "fast/direct vs Walsh sum"
        return thunk

    def _sandwich(self, orc, n):
        def thunk():
            l1 = int(np.abs(orc.dirichlet(n, self.m_verify)).sum())
            scaled_v = oracle.variation(n) << self.m_verify
            return scaled_v <= 8 * l1 and l1 <= scaled_v, f"2^m ||D_n||_1 = {l1}, 2^m V = {scaled_v}"
        return thunk

    def _sandwich_report(self, orc):
        def thunk():
            part = _by(self.report("verify")["cases"], experiment="kernel-l1-sandwich")["summary"]
            bad = []
            for which in ("min", "max"):
                n = part[f"{which}_at_order"]
                want = int(np.abs(orc.dirichlet(n, self.m_verify)).sum()) / (oracle.variation(n) << self.m_verify)
                if not close(part[f"{which}_norm_over_variation"], want):
                    bad.append(which)
            return not bad, f"mismatched: {bad}"
        return thunk

    def _fn(self, orc, n):
        def thunk():
            g, hardy, lp = self.output(f"f_{n}")
            m = self.m_f
            want_g = orc.weighted_sup(orc.sharpness(n, m), m, oracle.spread_weights(m, 1.0))
            ok = bool((np.array([float(v) for v in g.values]) == want_g).all())
            ok = ok and hardy == Fraction(1, 1 << n)  # H_p(f_n) = 2^(n(1 - 1/p))
            if lp is not None:
                ok = ok and lp / hardy == Fraction(n + 2, 2) ** 2
            return ok, f"H_p={hardy} L_p/H_p={None if lp is None else lp / hardy}"
        return thunk

    def _atom_check(self, orc, i, m):
        def thunk():
            atom, g, l1, h1 = self.output(f"atom-{i}")
            values = list(atom.values)
            floats = np.array([float(v) for v in values])
            exact_g = np.array([float(v) for v in g.values])
            float_g = weighted_maximal(DyadicFunction(m, floats, "float64"), RhoWeight(P_EXACT)).values
            want_g = orc.weighted_sup(floats, m, oracle.spread_weights(m, 1.0))
            engines = bool((exact_g == float_g).all() and (exact_g == want_g).all())
            norms = l1 == oracle.mean_abs_exact(g.values) and h1 == oracle.mean_abs_exact(
                oracle.interval_maximal_exact(values, m)
            )
            return engines and norms, f"engines bit-identical={engines} L_1 and H_1 exact={norms}"
        return thunk

    def _roundtrip_check(self, orc):
        def thunk():
            spec, back = self.output("roundtrip")
            m = self.m_roundtrip
            same = list(back.values) == self.roundtrip_values
            scaled = np.array([int(v * (1 << ROUNDTRIP_SHIFT)) for v in self.roundtrip_values], dtype=np.int64)
            coeffs_ok = all(
                spec.coeffs[k] == Fraction(int(scaled @ orc.walsh_row(k, m)), 1 << (ROUNDTRIP_SHIFT + m))
                for k in self.coeff_index
            )
            return same and coeffs_ok, f"round trip exact={same} coefficients={coeffs_ok}"
        return thunk


WORKLOADS = {cls.name: cls for cls in (Atoms, Sharpness, Exact)}
