"""Command-line front end.

Subcommands: ``stats``, ``kernel``, ``transform``, ``verify``, ``thm1``,
``thm2``, ``corollaries``, ``report``.  Exit codes are a stable contract:
0 means success (and, for verifications, a passing verdict), 1 means a
verification ran and came back false, 2 means a usage or config error.
Identical invocations write byte-identical data files; wall-clock metadata,
the write time and the run's wall time, lives only in ``.meta.json``
sidecars.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .analysis import PExponent
from .experiments import (
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
)
from .functions import SpectralVector, _csv_text, load_csv
from .operators import RhoWeight, UnitWeight, scheme_to_json
from .reporting import ExperimentReport, load_report
from .spectral import dirichlet_direct, dirichlet_dyadic, dirichlet_fast, fwht_forward, fwht_inverse, index_stats


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Accept '4..9' ranges or '4,5,6' lists; an empty one is a usage error."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        out = tuple(range(int(lo), int(hi) + 1))
    else:
        out = tuple(int(tok) for tok in text.split(",") if tok)
    if not out:
        raise argparse.ArgumentTypeError(f"{text!r} lists no value")
    return out


def _parse_probes(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for tok in text.split(","):
        n, s = tok.split(":")
        pairs.append((int(n), int(s)))
    return tuple(pairs)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).parent.mkdir(parents=True, exist_ok=True)
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _write_report_files(
    report: ExperimentReport,
    output: str | None,
    started: float,
    series: tuple[str, str] | None = None,
    series_rows: list | None = None,
    **run_settings,
) -> None:
    """Write the report and its CSV/TSV views; the sidecar also gets the wall time."""
    out = Path(output) if output else Path(f"walshlab-{report.name}.json")
    report.write(out, runtime_seconds=time.perf_counter() - started, **run_settings)
    report.write_cases_csv(out.with_suffix(".cases.csv"))
    if series:
        report.write_series_tsv(out.with_suffix(".series.tsv"), *series, rows=series_rows)
    print(f"{report.name}: {'pass' if report.verdict else 'FAIL'} -> {out}")


# -- subcommands -------------------------------------------------------------


def _cmd_stats(args) -> int:
    stats = index_stats(args.n)
    payload = stats.to_json_dict()
    if args.format == "table":
        width = max(len(k) for k in payload)
        text = "\n".join(f"{k:<{width}}  {v}" for k, v in payload.items()) + "\n"
    else:
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_kernel(args) -> int:
    mode = "exact"  # kernels are integer-valued; exact is the natural emission
    if args.construction == "fast":
        f = dirichlet_fast(args.n, args.resolution, mode)
    elif args.construction == "dyadic":
        if args.n & (args.n - 1):
            raise ValueError("the closed-form construction needs a power-of-two order")
        f = dirichlet_dyadic(args.n.bit_length() - 1, args.resolution, mode)
    else:
        f = dirichlet_direct(args.n, args.resolution, mode)
    if args.format == "json":
        text = json.dumps({"order": args.n, "resolution": args.resolution,
                           "values": [str(v) for v in f.values]}) + "\n"
    else:
        text = _csv_text(f)
    _emit(text, args.output)
    return 0


def _cmd_transform(args) -> int:
    f = load_csv(args.input, "exact" if args.exact else None)
    if args.inverse:
        spec = SpectralVector(f.m, f.values, f.mode)
        result = fwht_inverse(spec)
    else:
        result = fwht_forward(f)
    _emit(_csv_text(result), args.output)
    return 0


_VERIFIERS = {
    "all": verify_all,
    "kernels": verify_kernels,
    "lemma1": verify_lemma1,
    "sandwich": verify_kernel_l1_sandwich,
}


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    report = _VERIFIERS[args.which](args.resolution)
    out = Path(args.output) if args.output else Path(f"walshlab-verify-{args.which}.json")
    report.write(out, runtime_seconds=time.perf_counter() - started)
    print(f"verify {args.which} (m={args.resolution}): {'pass' if report.verdict else 'FAIL'} -> {out}")
    return 0 if report.verdict else 1


def _config(args, experiment: str, flags: tuple[str, ...], from_flags) -> ExperimentConfig:
    """The config from ``--config`` alone, or else ``from_flags()``; ``--jobs`` overrides either."""
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if args.config is None:
        cfg = from_flags()
    elif given:
        raise ValueError(f"{', '.join(given)} cannot be combined with --config, which sets every field")
    else:
        try:
            data = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
        if not isinstance(data, dict):
            raise ConfigError(["config must be a JSON object"])
        cfg = ExperimentConfig.from_json_dict(data, experiment)
    jobs = getattr(args, "jobs", None)
    return cfg if jobs is None else dataclasses.replace(cfg, jobs=jobs)


_THM1_FLAGS = ("p", "levels", "trials", "seed")
_THM2_FLAGS = ("p", "resolution", "scales", "seed", "phi", "probes", "expectation")


def _cmd_thm1(args) -> int:
    started = time.perf_counter()
    cfg = _config(args, "thm1", _THM1_FLAGS, lambda: ExperimentConfig(
        p_list=tuple(args.p or ("1/4", "1/2", "3/4")),
        support_levels=args.levels or tuple(range(4, 10)),
        trials=500 if args.trials is None else args.trials,
        seed=42 if args.seed is None else args.seed,
    ))
    report = theorem1_weak_type(cfg)
    series = EXPERIMENTS["thm1"].series
    _write_report_files(report, args.output, started, series, report.summary["cells"], jobs=cfg.jobs)
    return 0 if report.verdict else 1


def _thm2b_from_flags(args) -> ExperimentConfig:
    m = 12 if args.resolution is None else args.resolution
    rho = args.phi == "rho"
    cfg = ExperimentConfig(
        p_list=tuple(args.p or ("1/2",)),
        resolution=m,
        scales=args.scales or (() if args.probes else tuple(range(4, m))),
        probes=args.probes,
        expectation=args.expectation or ("bounded" if rho else "divergent"),
        seed=0 if args.seed is None else args.seed,
    )
    # The weight is built once the config has checked the exponent it reads.
    phi = RhoWeight(PExponent.parse(cfg.p_list[0])) if rho else UnitWeight()
    return dataclasses.replace(cfg, scheme=scheme_to_json(phi))


def _cmd_thm2(args) -> int:
    if args.config and args.part == "both":
        raise ValueError("a config describes one part; pass --part a or --part b with --config")
    part_b_only = [f"--{flag}" for flag in _THM2_FLAGS[4:] if getattr(args, flag) is not None]
    if args.part == "a" and part_b_only:
        raise ValueError(f"{', '.join(part_b_only)} only apply to --part b")
    # Every part's config is built and checked before any part runs, so a
    # bad part b leaves no part-a files behind.
    parts = []
    if args.part in ("a", "both"):
        parts.append(("thm2a", theorem2_growth, args.output, _config(
            args, "thm2a", _THM2_FLAGS, lambda: ExperimentConfig(
                p_list=tuple(args.p or ("1/2", "1/3")),
                resolution=12 if args.resolution is None else args.resolution,
                scales=args.scales or (),
                seed=0 if args.seed is None else args.seed,
            ))))
    if args.part in ("b", "both"):
        out = args.output
        if out and args.part == "both":
            out = str(Path(out).with_suffix(".part-b.json"))
        parts.append(("thm2b", theorem2_weak_divergence, out,
                      _config(args, "thm2b", _THM2_FLAGS, lambda: _thm2b_from_flags(args))))
    for experiment, _, _, cfg in parts:
        EXPERIMENTS[experiment].validate(cfg)
    ok = True
    for experiment, run, out, cfg in parts:
        started = time.perf_counter()
        report = run(cfg)
        _write_report_files(report, out, started, EXPERIMENTS[experiment].series)
        ok = ok and report.verdict
    return 0 if ok else 1


def _cmd_corollaries(args) -> int:
    started = time.perf_counter()
    report = corollary_suite(
        args.resolution,
        args.p,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
    )
    _write_report_files(report, args.output, started, jobs=args.jobs)
    return 0 if report.verdict else 1


def _cmd_report(args) -> int:
    report = load_report(args.input)
    if args.format == "tsv":
        if not (args.x and args.y):
            raise ValueError("tsv output needs --x and --y case keys")
        missing = [key for key in (args.x, args.y) if not any(key in case for case in report.cases)]
        if missing:
            raise ValueError(f"no case holds {', '.join(repr(key) for key in missing)}")
        out = Path(args.output) if args.output else Path(args.input).with_suffix(".series.tsv")
        report.write_series_tsv(out, args.x, args.y)
    else:
        out = Path(args.output) if args.output else Path(args.input).with_suffix(".cases.csv")
        report.write_cases_csv(out)
    print(f"{report.name} -> {out}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshlab",
        description="Walsh-Fourier analysis on the dyadic group: kernels, transforms, and verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stats", help="binary-expansion characteristics of an order")
    sp.add_argument("n", type=int)
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("kernel", help="emit a Dirichlet kernel as CSV")
    sp.add_argument("n", type=int)
    sp.add_argument("--resolution", type=int, required=True, metavar="M")
    sp.add_argument("--construction", choices=("direct", "fast", "dyadic"), default="direct")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("transform", help="forward or inverse spectral transform of a CSV function")
    sp.add_argument("--input", required=True)
    sp.add_argument("--inverse", action="store_true")
    sp.add_argument("--exact", action="store_true", help="force exact-mode parsing")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("verify", help="run the exhaustive kernel verifications")
    sp.add_argument("which", choices=tuple(_VERIFIERS))
    sp.add_argument("--resolution", type=int, required=True, metavar="M")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("thm1", help="weak-type stability of the weighted maximal operator on atoms")
    sp.add_argument("--config", help="JSON experiment config, in place of the experiment flags")
    sp.add_argument("--p", action="append", help="exponent, repeatable (default 1/4, 1/2, 3/4)")
    sp.add_argument("--levels", type=_parse_int_list, help="support levels (default 4..9)")
    sp.add_argument("--trials", type=int, help="atoms per exponent and level (default 500)")
    sp.add_argument("--seed", type=int, help="default 42")
    sp.add_argument("--jobs", type=int, help="worker processes, >= 1; capped at the CPU count")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_thm1)

    sp = sub.add_parser("thm2", help="sharpness: growth and weak divergence")
    sp.add_argument("--part", choices=("a", "b", "both"), default="both")
    sp.add_argument("--config", help="JSON config for --part a or b, in place of flags")
    sp.add_argument("--p", action="append", help="exponent, repeatable (default 1/2, 1/3 for a; 1/2 for b)")
    sp.add_argument("--resolution", type=int, metavar="M",
                    help="cap on the scales, n + 1 <= M; each scale runs at n + 1 (default 12)")
    sp.add_argument("--scales", type=_parse_int_list, help="default 3..M-1 for a, 4..M-1 for b")
    sp.add_argument("--phi", choices=("unit", "rho"), help="weight for part b (default unit)")
    sp.add_argument("--probes", type=_parse_probes, help="part b probe orders in place of scales, e.g. 4:0,5:0")
    sp.add_argument("--expectation", choices=("divergent", "bounded"), help="part b (default by --phi)")
    sp.add_argument("--seed", type=int, help="default 0")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_thm2)

    sp = sub.add_parser("corollaries", help="weak-type trends for the derived operators")
    sp.add_argument("--resolution", type=int, default=10, metavar="M")
    sp.add_argument("--p", default="1/2")
    sp.add_argument("--trials", type=int, default=60)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes, >= 1; capped at the CPU count")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_corollaries)

    sp = sub.add_parser("report", help="render a report JSON as CSV cases or a TSV series")
    sp.add_argument("input")
    sp.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sp.add_argument("--x", help="case key for the TSV x column")
    sp.add_argument("--y", help="case key for the TSV y column")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"walshlab: config error: {'; '.join(exc.problems)}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"walshlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
