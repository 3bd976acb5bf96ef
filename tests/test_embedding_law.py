"""The law of the two event-clock constructions, and of the chain.

``run_embedding`` keeps its heap below ``_ROUNDS_MIN_EVENTS`` events and
advances the clocks in rounds from there.  Both are tested against two exact
finite-n laws for det laws (the n-th event time and process 1's size after n
events) and against each other (a two-sample KS on six statistics at
n = 2000).  The chain itself, batched replicates through ``graph._run_pass``,
is tested against the second of these laws: vertex 1's degree after n steps
has process 1's law after n events.  Negative controls, wired in from the
test side, show that the exact-law tests can go red.

sqrt(N) KS = 1.95 (one sample) and sqrt(NM / (N + M)) KS = 1.95 (two samples)
are about p = 0.001.
"""

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest

from prefattach import branching, graph
from prefattach.analysis import uniformity_ks
from prefattach.branching import _ROUNDS_MIN_EVENTS, _run_rounds, run_embedding
from prefattach.graph import ModelConfig
from prefattach.laws import EdgeCountDistribution, deterministic, geometric
from prefattach.replicate import _batch_size, replicate
from prefattach.streams import substream

KS_BOUND = 1.95
N = 2000  # events per run in both constructions' law tests
HEAP_N = 1000  # below _ROUNDS_MIN_EVENTS: run_embedding's heap

# (label, law, beta, runs per construction)
CASES = [
    ("det:1-0", deterministic(1), 0.0, 300),
    ("geom:0.5-1", geometric(0.5), 1.0, 300),
    ("det:2-0.5", deterministic(2), 0.5, 300),
    ("det:1-1", deterministic(1), 1.0, 300),
]
STATISTICS = ("tau_n", "tau_half", "d1", "max", "argmax", "share_1_10")


def _heap(law, beta, n, rng):
    """run_embedding by its heap at any n."""
    with mock.patch.object(branching, "_ROUNDS_MIN_EVENTS", n + 1):
        return run_embedding(law, beta, n, rng)


CONSTRUCTIONS = {"heap": _heap, "rounds": _run_rounds}


def _statistics(res):
    n = res.taus.shape[0]
    return (
        res.taus[-1],
        res.taus[n // 2 - 1],
        res.sizes[0],
        res.sizes.max(),
        res.sizes.argmax() + 1,  # the smallest label on a tie, as the chain's
        np.count_nonzero(res.chosen <= 10) / n,
    )


@functools.cache
def _runs(construction, case, runs, slow=False):
    """The six statistics of ``runs`` runs at N events, one row each."""
    _, law, beta, _ = CASES[case]
    rng = substream(61, 2 * case + (construction == "rounds"))
    if slow:
        rng = SlowClocks(substream(62, case))
    draw = CONSTRUCTIONS[construction]
    return np.array([_statistics(draw(law, beta, N, rng)) for _ in range(runs)], dtype=float)


def _ks2(a, b):
    """sqrt(NM / (N + M)) times the two-sample KS distance; ties allowed."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate((a, b))
    below_a = np.searchsorted(a, pooled, "right") / a.size
    below_b = np.searchsorted(b, pooled, "right") / b.size
    return math.sqrt(a.size * b.size / (a.size + b.size)) * np.abs(below_a - below_b).max()


class SlowClocks:
    """A generator whose exponentials are 1.03 times its draws: every clock 3 % slow."""

    def __init__(self, rng):
        self.rng = rng

    def standard_exponential(self, size, out=None):
        draws = self.rng.standard_exponential(size, out=out)
        draws *= 1.03
        return draws

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("case", range(len(CASES)), ids=[c[0] for c in CASES])
def test_heap_and_rounds_draw_one_law(case):
    runs = CASES[case][3]
    heap, rounds = _runs("heap", case, runs), _runs("rounds", case, runs)
    stats = {name: _ks2(heap[:, i], rounds[:, i]) for i, name in enumerate(STATISTICS)}
    assert max(stats.values()) < KS_BOUND, stats


# -- tau_n: an exact Beta law for det laws ------------------------------------


def _beta_cdf(u, c, n):
    """P(U <= u) for U ~ Beta(c, n), integer n: u^c sum_{j<n} (c)_j / j! (1 - u)^j."""
    j = np.arange(n - 1.0)
    ratios = (c + j) / (j + 1.0) * (1.0 - u)[:, None]
    terms = np.cumprod(np.concatenate((np.ones((u.shape[0], 1)), ratios), axis=1), axis=1)
    return u**c * terms.sum(axis=1)


def _tau_ks(tau_n, x0, beta, n):
    """sqrt(N) KS of F(U) for U = exp(-b tau_n), b = 2 x0 + beta.

    S_k = 2 + 2 beta + b k, so b tau_n = sum_{k<n} E_k / (c + k) with
    c = (2 + 2 beta) / b: -log of a product of independent Beta(c + k, 1)
    variables, that is, U ~ Beta(c, n) exactly.
    """
    b = 2.0 * x0 + beta
    pits = _beta_cdf(np.exp(-b * tau_n), (2.0 + 2.0 * beta) / b, n)
    return math.sqrt(pits.shape[0]) * uniformity_ks(pits)


ORACLE_CASES = [(1, 0.0, 0), (1, 1.0, 3), (2, 0.5, 2)]  # (x0, beta, index into CASES)
ORACLE_IDS = ["det:1-0", "det:1-1", "det:2-0.5"]  # c = 1, 4/3 and 2/3


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize(("x0", "beta", "case"), ORACLE_CASES, ids=ORACLE_IDS)
def test_tau_n_follows_its_exact_beta_law(construction, x0, beta, case):
    tau_n = _runs(construction, case, CASES[case][3])[:, 0]
    assert _tau_ks(tau_n, x0, beta, N) < KS_BOUND


# Runs of the slow-clock control.  A 3 % slower clock shifts b tau_n by about
# 0.2 sd; at det:1, beta = 1 (the most concentrated tau_n of the three) it read
# above KS_BOUND at 11, 16, 19 and 20 of 20 seeds at 300, 400, 600 and 800 runs.
SLOW_RUNS = 800


def test_a_three_percent_slower_clock_turns_the_tau_n_law_red():
    slow = _runs("rounds", 3, SLOW_RUNS, slow=True)[:, 0]
    assert _tau_ks(slow, 1, 1.0, N) > KS_BOUND


# -- process 1 after n events: an exact law for det laws ----------------------


@functools.cache
def _d1_law(x0, beta, n):
    """P(D_1(n) = 1 + j x0) for j = 0..n.

    Before event k the total weight is W_k = 2 (1 + (k - 1) x0) + (k + 1) beta,
    and process 1 at size d gains x0 with probability (d + beta) / W_k.
    """
    p = np.zeros(n + 1)
    p[0] = 1.0
    weight = 1.0 + x0 * np.arange(n + 1) + beta  # d + beta on the grid
    for k in range(1, n + 1):
        gain = p[:k] * weight[:k] / (2 * (1 + (k - 1) * x0) + (k + 1) * beta)
        p[:k] -= gain
        p[1 : k + 1] += gain
    return p


def _d1_pits(d1, x0, beta, n, rng):
    """Randomized PIT of observed D_1(n) values under the exact law; a value
    off the grid 1 + j x0 gets no mass of its own."""
    p = _d1_law(x0, beta, n)
    grid = 1 + x0 * np.arange(n + 1)
    below = np.concatenate(([0.0], np.cumsum(p)))
    j = np.searchsorted(grid, d1)
    on_grid = grid[np.minimum(j, n)] == d1
    mass = np.where(on_grid, p[np.minimum(j, n)], 0.0)
    return np.minimum(below[j] + rng.random(d1.shape[0]) * mass, 1.0)


def _d1_ks(d1, x0, beta, n, rng):
    """sqrt(N) KS of the randomized PITs of N observed D_1(n) values."""
    pits = _d1_pits(d1, x0, beta, n, rng)
    return math.sqrt(pits.shape[0]) * uniformity_ks(pits)


class OneEdgeMore(EdgeCountDistribution):
    """det:x0 by its kind and mean, but every X drawn is x0 + 1."""

    def sample(self, rng, size):
        return np.full(size, self.x0 + 1, dtype=np.int64)


@pytest.mark.parametrize(("x0", "beta", "case"), ORACLE_CASES, ids=ORACLE_IDS)
def test_process_one_follows_the_exact_finite_n_law(x0, beta, case):
    # rounds at N reuse the law test's runs; the heap runs below the constant
    assert HEAP_N < _ROUNDS_MIN_EVENTS <= N
    rng = substream(63, case)
    law = deterministic(x0)
    heap = np.array([run_embedding(law, beta, HEAP_N, rng).sizes[0] for _ in range(300)])
    rounds = _runs("rounds", case, CASES[case][3])[:, 2]
    for d1, n in ((heap, HEAP_N), (rounds, N)):
        assert _d1_ks(d1, x0, beta, n, rng) < KS_BOUND, n


@pytest.mark.parametrize("n", [HEAP_N, N], ids=["heap", "rounds"])
def test_one_edge_more_than_the_law_says_turns_the_oracle_red(n):
    # det:1 at beta = 1 read 3.3-5.2 at 100 runs; det:1 at beta = 0 and det:2
    # at beta = 0.5 only 1.5-3.2
    x0, beta = 1, 1.0
    law = OneEdgeMore(kind="deterministic", x0=x0, mean=float(x0))
    rng = substream(64, n)
    d1 = np.array([run_embedding(law, beta, n, rng).sizes[0] for _ in range(100)])
    assert _d1_ks(d1, x0, beta, n, rng) > KS_BOUND


# -- vertex 1 of the chain: the same exact law --------------------------------

CHAIN_N = 1000  # steps per chain
CHAIN_RUNS = 1000


def _chain_d1(x0, beta, master_seed):
    """Vertex 1's degree after CHAIN_N steps in CHAIN_RUNS chains."""
    model = ModelConfig(
        beta=beta, edge_law=deterministic(x0), n=CHAIN_N, probe_vertices=(1,), record_stride=CHAIN_N
    )
    agg = replicate(model, CHAIN_RUNS, master_seed=master_seed)
    return np.array([rep.probes[1][-1] for rep in agg.replicates])


@pytest.mark.parametrize(("x0", "beta"), [(1, 1.0), (2, 0.5)], ids=["det:1-1", "det:2-0.5"])
def test_the_chain_follows_process_ones_exact_law(x0, beta):
    # the chain gives vertex 1 at degree d the step with probability
    # (d + beta) / W_k, as the embedding gives process 1 its event
    assert _batch_size(CHAIN_N, CHAIN_RUNS) == 32  # batches share one graph._run_pass
    d1 = _chain_d1(x0, beta, 65)
    assert _d1_ks(d1, x0, beta, CHAIN_N, substream(66, x0)) < KS_BOUND


def test_a_dropped_beta_mixture_turns_the_chain_law_red():
    # Every step takes the endpoint route, as at beta = 0.  At det:2, beta =
    # 0.5 this read only 2.4-3.7, so the control runs det:1 at beta = 1.
    draw = graph._draw_steps

    def endpoint_route_only(config, rng):
        return draw(dataclasses.replace(config, beta=0.0), rng)

    with mock.patch.object(graph, "_draw_steps", endpoint_route_only):
        d1 = _chain_d1(1, 1.0, 67)
    assert _d1_ks(d1, 1, 1.0, CHAIN_N, substream(66, 0)) > KS_BOUND
