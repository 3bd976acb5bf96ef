"""Pass rates of ``scaled-size-limit`` by path count, under its model and three wrong clocks.

    PYTHONPATH=src python tests/size_limit_power.py [--seeds 60] [--sizes 100,150,...]

For master seeds 0..K-1, each case of the check (det:1 at beta 0 and 1) draws
the largest size's paths on its own substream, as the check does.  At each
size N the reading is the check's own at N: its first N paths, and for the
law condition N uniforms drawn after them, from a copy of the generator.  The
conditions are:

* ``model``: the check's own paths;
* ``clock 1 % fast`` and ``clock 3 % fast``: every wait divided by 1.01 or 1.03;
* ``half rate``: a path drawn to half the horizon and stretched over all of it,
  the test suite's negative control.

Each row counts the seeds at which the law condition holds in each case
(sqrt(N) KS at most ``law_ks``), the plateau condition holds at the full and
the quick rate (with every run positive), and the whole check passes at the
full and the quick profile's bounds; "max KS" is the largest reading of
either case.  Not collected by pytest: 60 seeds take
about five minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import copy
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from prefattach import verify
from prefattach.branching import _PathBuffers
from prefattach.streams import substream

CHECK = verify._BY_NAME["scaled-size-limit"]
HORIZON, INITIAL = 8.0, 10  # as check_scaled_size_limit
CONDITIONS = {"model": 1.0, "clock 1 % fast": 1.01, "clock 3 % fast": 1.03, "half rate": None}


class FastClocks:
    """A generator whose exponentials are its draws over ``factor``."""

    def __init__(self, rng, factor):
        self.rng, self.factor = rng, factor

    def standard_exponential(self, size, out=None):
        draws = self.rng.standard_exponential(size, out=out)
        draws /= self.factor
        return draws

    def __getattr__(self, name):
        return getattr(self.rng, name)


def case_readings(master, i, factor, sizes, osc_tol):
    """{N: (plateau pass fraction, all positive, law KS)} for case i at each size N."""
    law, beta = CHECK.cases[i]
    base = substream(master, 10 + i)
    rng = base if factor is None else FastClocks(base, factor)
    paths = _PathBuffers()
    runs = max(sizes)
    jumps = np.empty(runs, dtype=np.int64)
    hits = np.empty(runs, dtype=bool)
    positive = np.empty(runs, dtype=bool)
    readings = {}
    for r in range(runs):
        if factor is None:
            n = paths.draw(INITIAL, beta, law, HORIZON / 2, rng)
            paths.times[: n + 1] *= 2
        else:
            n = paths.draw(INITIAL, beta, law, HORIZON, rng)
        jumps[r] = n
        osc, last = paths.plateau(n, m=law.mean)
        hits[r], positive[r] = osc < osc_tol, last > 0
        if r + 1 in sizes:
            size = r + 1
            fork = copy.deepcopy(base)  # the check draws its uniforms here
            law_ks = verify._jump_law_ks(jumps[:size], law.x0, INITIAL + beta, HORIZON, fork)
            readings[size] = (float(hits[:size].mean()), bool(positive[:size].all()), law_ks)
    return readings


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=60)
    p.add_argument("--sizes", default="100,150,250,500,1000,2000")
    args = p.parse_args()
    sizes = sorted({int(s) for s in args.sizes.split(",")})
    full, quick = CHECK.defaults(False), CHECK.defaults(True)
    name = CHECK.name
    rates = (full[name], quick[name])
    law_tol, osc_tol = full[f"{name}.law_ks"], full[f"{name}.osc"]
    assert (law_tol, osc_tol) == (quick[f"{name}.law_ks"], quick[f"{name}.osc"])

    cases = [f"law b={beta:g}" for _, beta in CHECK.cases]
    columns = [*cases, "plateau .90", "plateau .80", "check full", "check quick"]
    print(f"{args.seeds} seeds; law: sqrt(N) KS <= {law_tol:g} per case; plateau: pass fraction "
          f">= {rates[0]:g} (full) or {rates[1]:g} (quick) in every case, every run positive")
    print(f"{'condition':<16}{'N':>6}" + "".join(f"{c:>13}" for c in columns) + f"{'max KS':>8}")
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for label, factor in CONDITIONS.items():
            counts = {size: np.zeros(len(columns), dtype=int) for size in sizes}
            worst = dict.fromkeys(sizes, 0.0)
            for seed in range(args.seeds):
                jobs = [
                    pool.submit(case_readings, seed, i, factor, sizes, osc_tol)
                    for i in range(len(CHECK.cases))
                ]
                readings = [job.result() for job in jobs]
                for size in sizes:
                    fracs, positive, ks = zip(*(case[size] for case in readings))
                    law = [k <= law_tol for k in ks]
                    plateau = [min(fracs) >= rate and all(positive) for rate in rates]
                    checks = [p and all(law) for p in plateau]
                    counts[size] += (*law, *plateau, *checks)
                    worst[size] = max(worst[size], *ks)
            for size in sizes:
                cells = "".join(f"{f'{c}/{args.seeds}':>13}" for c in counts[size])
                print(f"{label:<16}{size:>6}{cells}{worst[size]:>8.2f}", flush=True)
    print(f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
