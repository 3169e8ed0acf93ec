"""Benchmark entry point: one workload, one seed, a fixed run length.

Run from the root of a walshlab checkout; it measures the walshlab under
``./src``:

    python3 perfbench/run.py --workload atoms --seed 1 --seconds 30 --trace 0

Each round runs in a fresh process (``worker.py``), one at a time, so every
round pays the start-up and cache fills a user's ``walshlab`` invocation
pays.  Rounds repeat until the next one would end past ``--seconds``; at
least one runs.  Before them, one untimed start warms the bytecode cache.
Every round also samples ``setup_s``, and so do set-up-only starts just
before each round, so the samples span the whole run as the rounds do.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the run's samples.  With ``--trace 1`` untraced and
traced rounds alternate; it reports the per-layer metrics (medians over
traced rounds) and ``trace.overhead_s``, the traced minus the untraced
median wall time.  Spans of the last traced round are kept under
``.perfbench/spans/``.

Exit code 0 means a result was printed, whatever the checks found;
failed checks and experiments are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("atoms", "sharpness", "exact")
SETUPS_PER_ROUND = 2
ROUND_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, outdir: str, tiny: bool, setup_only: bool = False,
          spans: str | None = None) -> dict:
    """Run one worker; returns its result with ``setup_s`` measured from process start."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", outdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    if tiny:
        cmd.append("--tiny")
    os.makedirs(outdir, exist_ok=True)
    # The worker prints the same system-wide monotonic clock when it is ready,
    # so one timed ``communicate`` covers the whole worker, set-up included.
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {workload} ran past {ROUND_TIMEOUT_S} s") from exc
    lines = out.strip().splitlines()
    ready = lines[0].split() if lines else []
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    setup_s = float(ready[1]) - start
    result = {} if setup_only else json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the rounds of one benchmark run and reduce them to its result line."""
    if not os.path.isfile(os.path.join("src", "walshlab", "__init__.py")):
        raise BenchError("no walshlab source under ./src; run from the root of a checkout")
    base = os.path.abspath(".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    span_file = None
    if trace:
        os.makedirs(os.path.join(base, "spans"), exist_ok=True)
        span_file = os.path.join(base, "spans", f"{workload}-seed{seed}.jsonl")
    try:
        start = time.perf_counter()
        spawn(workload, seed, os.path.join(work, "warm"), tiny, setup_only=True)
        rounds, durations, setups = [], [], []
        while True:
            traced = trace and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            if not trace:
                setups += [
                    spawn(workload, seed, os.path.join(work, "setup"), tiny, setup_only=True)["setup_s"]
                    for _ in range(SETUPS_PER_ROUND)
                ]
            result = spawn(workload, seed, os.path.join(work, f"round{len(rounds)}"), tiny,
                           spans=span_file if traced else None)
            durations.append(time.perf_counter() - t0)
            result["traced"] = traced
            rounds.append(result)
            print(f"{workload} seed {seed} round {len(rounds)}: wall {result['wall_s']:.3f} s"
                  f" of {durations[-1]:.3f} s at {time.perf_counter() - start:.1f} s"
                  f"{' (traced)' if traced else ''}", file=sys.stderr)
            elapsed = time.perf_counter() - start
            enough = len(rounds) >= (2 if trace else 1)
            if enough and elapsed + statistics.median(durations) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r["ops"]]
    for name, ok, detail in ops:
        if not ok:
            print(f"FAILED {workload} {name}: {detail}", file=sys.stderr)
    # Identical rounds must write byte-identical data files.
    correct = all(r["digests"] == rounds[0]["digests"] for r in rounds)
    if not correct:
        print(f"FAILED {workload}: reports differ between identical rounds", file=sys.stderr)

    if trace:
        plain = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        metrics = {}
        for name, (_, unit) in traced[0]["layers"].items():
            value = statistics.median(r["layers"][name][0] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in rounds]), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in rounds), "unit": "MiB"},
        }
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for _, ok, _ in ops if not ok),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
