"""Reference figures for the README: layer costs measured directly, outside the rounds.

    python3 perfbench/reference.py

Prints chain us/step and embedding us/event for each law x beta, pi_quadrature
at j_max = 100 in fresh processes (first call and warm calls), and the
``replicate`` fan-out at parallelism 1 and 2.  Each figure is the median of
three repetitions.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from prefattach import ModelConfig, replicate, run_chain, run_embedding, validate_edge_law  # noqa: E402

LAWS = ("det:1", "geom:0.5", "explicit:0.5,0.3,0.2")
BETAS = (0.0, 1.0)
N = 100_000
REPS = 3

QUADRATURE_PROBE = """
import sys, time, json
sys.path.insert(0, sys.argv[1])
from prefattach import geometric, pi_quadrature
times = []
for _ in range(4):
    t = time.perf_counter(); pi_quadrature(geometric(0.5), 1.0, 100); times.append(time.perf_counter() - t)
print(json.dumps(times))
"""


def timed(func) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    print(f"| law | beta | chain us/step | embedding us/event |  (n = {N:,}, median of {REPS})")
    print("|---|---|---|---|")
    for label in LAWS:
        law = validate_edge_law(label)
        for beta in BETAS:
            model = ModelConfig(beta=beta, edge_law=law, n=N, probe_vertices=(1, 2), record_stride=N // 1000)
            chain = timed(lambda: run_chain(model)) / N * 1e6
            embed = timed(lambda: run_embedding(law, beta, N, np.random.default_rng(1))) / N * 1e6
            print(f"| {label} | {beta:g} | {chain:.2f} | {embed:.2f} |")

    firsts, warms = [], []
    for _ in range(REPS):
        out = subprocess.run(
            [sys.executable, "-c", QUADRATURE_PROBE, str(SRC)], capture_output=True, text=True, check=True
        )
        times = json.loads(out.stdout)
        firsts.append(times[0])
        warms.append(statistics.median(times[1:]))
    print(
        f"pi_quadrature(geom:0.5, beta=1, j_max=100): first call in a process "
        f"{', '.join(f'{t:.3f}' for t in firsts)} s; warm {statistics.median(warms):.4f} s"
    )

    model = ModelConfig(beta=0.0, edge_law=validate_edge_law("det:1"), n=20_000, record_stride=20)
    for parallelism in (1, 2):
        t = timed(lambda: replicate(model, 8, parallelism=parallelism))
        print(f"replicate 8 x det:1 n=20,000 at parallelism {parallelism}: {t:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
