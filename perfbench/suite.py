"""Run every workload, or two sets of runs and whether they agree.

From the root of a checkout:

    python3 perfbench/suite.py run [--seed 1] [--trace]
    python3 perfbench/suite.py agree [--workloads atoms,exact]

Every run lasts ``run_seconds`` from ``BENCHMARK.json``.  ``run`` starts
``run.py`` once per workload, each in its own process, and prints every
metric by name and unit (the per-layer ones with ``--trace``).  ``agree``
runs two sets of ten seeds per workload, alternating between the sets,
and reports for each end-to-end metric the spread of each set (quartile
distance over the median) and the change of the second median over the
first.  The sets agree when every spread is within the metric's bound in
``BENCHMARK.json``, no second median differs from the first by more than
the bound, in either direction, and the failed share of operations is the
same.  Exit code 0 means they agree.
Every result line is appended to ``.perfbench/suite.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
AGREE_RUNS = 10


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "suite.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    return result


def spread(values: list[float]) -> float:
    """Quartile distance over the median, as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare_sets(first: list[dict], second: list[dict], end_to_end: list[dict]) -> tuple[bool, list[str]]:
    """Whether two sets of results of one workload agree, with one line per metric."""
    ok, lines = True, []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in first]
        b = [r["metrics"][name]["value"] for r in second]
        sa, sb = spread(a), spread(b)
        change = statistics.median(b) / statistics.median(a) - 1
        if metric["better"] == "higher":
            change = -change
        good = abs(change) <= bound and sa <= bound and sb <= bound
        ok = ok and good
        lines.append(f"  {name:14s} median {statistics.median(a):.6g} -> {statistics.median(b):.6g}"
                     f" ({change:+.2%} worse)  spread {sa:.2%} / {sb:.2%}  bound {bound:.0%}"
                     f"  {'ok' if good else 'DISAGREE'}")
    share_a = [r["failed"] / r["attempted"] for r in first]
    share_b = [r["failed"] / r["attempted"] for r in second]
    same_share = len(set(share_a + share_b)) == 1
    ok = ok and same_share and all(r["correct"] for r in first + second)
    lines.append(f"  failed share {sorted(set(share_a + share_b))}  {'ok' if same_share else 'DISAGREE'}")
    return ok, lines


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--trace", action="store_true")
    agree_p = sub.add_parser("agree")
    for p in (run_p, agree_p):
        p.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    if args.command == "run":
        for w in workloads:
            result = run_one(w, args.seed, spec["run_seconds"], args.trace)
            print(f"{w}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:55s} {m['value']:.6g} {m['unit']}")
        return 0

    agree = True
    for w in workloads:
        first, second = [], []
        for i in range(AGREE_RUNS):
            pair = [(first, 1 + i), (second, 1 + AGREE_RUNS + i)]
            for results, seed in (pair if i % 2 == 0 else pair[::-1]):
                results.append(run_one(w, seed, spec["run_seconds"], False))
        ok, lines = compare_sets(first, second, spec["end_to_end"])
        agree = agree and ok
        print(f"{w}: {'agree' if ok else 'DISAGREE'} over {AGREE_RUNS} + {AGREE_RUNS} runs")
        print("\n".join(lines), flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
