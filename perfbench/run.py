"""Benchmark for prefattach: one workload, timed rounds, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

The run first launches ``SETUP_PROBES`` fresh interpreters, each of which
imports prefattach from ``src/`` and builds the workload's inputs; ``setup_s``
is the median time from launch to ready.  It then imports prefattach itself,
builds the inputs, and performs whole rounds of the workload's operations
until the next round would end past ``--seconds`` (at least ``MIN_ROUNDS``).

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (the timed
section per round: summed operation times over all rounds, divided by the
number of rounds; output checks run between operations, untimed), ``setup_s``
and ``peak_rss_mb``.  With ``--trace 1`` it wraps prefattach's
public functions (see tracing.py), reports the per-layer metrics and writes the
spans to ``perfbench/out/``.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_ROUNDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("chain", "clock", "spectrum", "verify-quick"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package():
    """Import prefattach from this checkout's src/, never from elsewhere."""
    if not (SRC / "prefattach" / "__init__.py").is_file():
        print(f"error: no prefattach sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import prefattach

    import_s = time.perf_counter() - start
    if Path(prefattach.__file__).resolve().parent != SRC / "prefattach":
        print(f"error: imported prefattach from {prefattach.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return import_s


def probe_setup(args, out_dir) -> int:
    """Child side of a setup probe: import, build inputs, report when ready."""
    import_s = load_package()
    import workloads

    workloads.WORKLOADS[args.workload]().prepare(args.seed, str(out_dir))
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


def measure_setup(args):
    """Median launch-to-ready time and import time over fresh interpreters."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--probe-setup",
    ]
    ready, imports = [], []
    for _ in range(SETUP_PROBES):
        launch = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: setup probe exited with {done.returncode}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        ready.append(probe["ready"] - launch)
        imports.append(probe["import_s"])
    return statistics.median(ready), statistics.median(imports)


def run_rounds(workload, seconds, tracer):
    import workloads

    rounds = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(rounds)
        rnd = workloads.Round()
        t0 = time.perf_counter()
        workload.run_round(rnd)
        rounds.append(rnd)
        last = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + last > seconds:
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    if args.probe_setup:
        try:
            return probe_setup(args, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    load_package()
    setup_s, import_s = measure_setup(args)
    import workloads
    from tracing import PER_LAYER, Tracer

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    try:
        workload.prepare(args.seed, str(out_dir))
        if args.trace:
            tracer = Tracer()
            tracer.install()
        rounds = run_rounds(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    walls = [r.wall_s for r in rounds]
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}{' traced' if args.trace else ''}: round wall s "
        + " ".join(f"{w:.4f}" for w in walls),
        file=sys.stderr,
    )

    if args.trace:
        metrics = tracer.metrics(len(rounds), import_s)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        for label, us in tracer.chain_breakdown().items():
            print(f"graph.us_per_step[{label}] = {us:.3f}", file=sys.stderr)
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
