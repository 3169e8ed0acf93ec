"""One round of one workload, in a fresh process.

``run.py`` starts this from the checkout root:

    python3 perfbench/worker.py --workload atoms --seed 1 --outdir DIR [--spans FILE] [--setup-only] [--tiny]

It imports the walshlab under ``./src``, builds the workload's inputs and
prints ``ready`` with the system-wide monotonic clock; the parent takes
process start to that reading as set-up.
Unless ``--setup-only``, it then runs the timed round, reads its peak
resident memory, runs the checks and prints one JSON line.  With
``--spans`` the round runs under the tracer and the spans go to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import walshlab

    if not os.path.abspath(walshlab.__file__).startswith(src + os.sep):
        print(f"worker: walshlab imported from {walshlab.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.outdir, args.tiny)
    print("ready", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        tracer.install(extra_modules=[workloads])
    start = time.perf_counter()
    wl.run()
    wall = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.reduce(tracer)
        spans.dump(tracer, args.spans)
    wl.check()
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "ops": wl.ops,
        "digests": wl.data_digests(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
