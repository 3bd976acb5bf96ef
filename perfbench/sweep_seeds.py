"""Seed sweeps behind the benchmark's stochastic bounds and its choice of checks.

    python3 perfbench/sweep_seeds.py --clock 200     # z-scores of the clock means
    python3 perfbench/sweep_seeds.py --verify 60     # quick-profile verdicts per seed

``--clock N`` draws the clock workload's short embeddings and size paths at
workload seeds 0..N-1 and prints, per stochastic check, the largest |z| seen
and how many seeds exceed oracles.Z_BOUND.  ``--verify N`` runs a
quick-profile VerifySession at the master seeds the verify-quick workload
derives from seeds 0..N-1 and prints every check that fails.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from prefattach import VerifySession  # noqa: E402


def sweep_clock(seeds: int) -> None:
    worst = defaultdict(float)
    over = defaultdict(int)
    clock = workloads.Clock()
    for seed in range(seeds):
        clock.prepare(seed, str(HERE / "out"))
        rnd = workloads.Round()
        clock._short_embeddings(rnd)
        clock._size_paths(rnd)
        for check, z in rnd.z_scores.items():
            worst[check] = max(worst[check], abs(z))
            over[check] += abs(z) > oracles.Z_BOUND
    for check in worst:
        print(f"{check}: max |z| {worst[check]:.2f} over {seeds} seeds, {over[check]} above {oracles.Z_BOUND:g}")


def sweep_verify(seeds: int) -> None:
    failures = defaultdict(int)
    for seed in range(seeds):
        quick = workloads.VerifyQuick()
        quick.prepare(seed, str(HERE / "out"))
        report = VerifySession(profile="quick", master_seed=quick.master_seed).run()
        for check in report.checks:
            if not check.passed:
                failures[check.name] += 1
                print(f"seed {seed}: {check.name} fails ({check.value:.4g} vs {check.threshold:g})", flush=True)
    print(f"{seeds} seeds; failing checks: {dict(failures) or 'none'}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--clock", type=int, default=0, metavar="N")
    p.add_argument("--verify", type=int, default=0, metavar="N")
    args = p.parse_args()
    if args.clock:
        sweep_clock(args.clock)
    if args.verify:
        sweep_verify(args.verify)
    return 0


if __name__ == "__main__":
    sys.exit(main())
