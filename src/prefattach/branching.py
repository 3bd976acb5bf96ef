"""Continuous-time size processes and the event-clock construction.

A size process sits in state i and waits an Exponential(i + beta) time; at
the event its size jumps by X, drawn from the edge-count law.  With beta = 0
this is a pure branching population (every individual carries an independent
unit-rate clock; a death is replaced by 1 + X children, so the net jump is
+X at total rate i).  With beta > 0 the same jump chain also arises as the
superposition of an initial population plus descendants of immigrants that
arrive at Poisson(beta) times, each founding an independent beta = 0 copy.
Both representations are implemented and can be checked against each other.

The event-clock construction couples a whole family of such processes to the
growing graph: each vertex owns a process (started at its birth), all clocks
run in parallel, and the k-th event overall reproduces the k-th attachment
step of the discrete chain.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedLengths, NonPositiveMean, RangeError, checked_int, checked_real
from .laws import EdgeCountDistribution, validate_edge_law


@dataclass(frozen=True)
class BranchingConfig:
    """One size process: edge-count law, immigration rate, starting size."""

    edge_law: EdgeCountDistribution
    beta: float = 0.0
    initial: int = 1

    def __post_init__(self):
        object.__setattr__(self, "beta", checked_real("branching.beta", self.beta))
        object.__setattr__(self, "initial", checked_int("branching.initial", self.initial, 1))
        object.__setattr__(self, "edge_law", validate_edge_law(self.edge_law))


@dataclass(frozen=True)
class JumpPath:
    """A piecewise-constant, increasing path: size after each event.

    ``times`` are the event times (strictly increasing, all within the run's
    horizon); ``values[k]`` is the size right after the event at ``times[k]``.
    The path starts at ``initial`` at time 0.
    """

    initial: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times, values = self.times, self.values
        if times.shape != values.shape:
            raise MismatchedLengths("times and values differ in length")
        if times.shape[0]:
            if not (times[0] > 0 and (times[1:] > times[:-1]).all()):
                raise RangeError("path.times", "event times must be strictly increasing")
            if not (values[0] >= self.initial + 1 and (values[1:] >= values[:-1] + 1).all()):
                raise RangeError("path.values", "every jump must be >= 1")

    @property
    def final(self) -> int:
        return int(self.values[-1]) if self.values.shape[0] else self.initial


_TAIL_FRACTION = 0.25  # trailing share of a path's time horizon a plateau spans
_BLOCK_MARGIN = 64  # variates drawn beyond the expected event count
_BLOCK_CAP = 1 << 16
_MAX_EXPONENT = 700.0  # keeps math.expm1 below float overflow


class _PathBuffers:
    """Jump chains drawn into arrays that one caller reuses from path to path.

    After ``draw`` returns n, ``times[:n + 1]`` and ``sizes[:n + 1]`` hold the
    path with its t = 0 point first.  The arrays grow as needed and are never
    shrunk, so a run of similar paths allocates once.
    """

    def __init__(self):
        self.times = np.empty(1)
        self.sizes = np.empty(1, dtype=np.int64)
        self._work = np.empty(1)  # exponentials while drawing, scaled sizes after

    def _reserve(self, length: int, keep: int) -> None:
        if length > self.times.shape[0]:
            length = max(length, 2 * self.times.shape[0])
            times, sizes = np.empty(length), np.empty(length, dtype=np.int64)
            times[:keep], sizes[:keep] = self.times[:keep], self.sizes[:keep]
            self.times, self.sizes, self._work = times, sizes, np.empty(length)

    def draw(
        self,
        initial: int,
        beta: float,
        law: EdgeCountDistribution,
        horizon: float,
        rng: np.random.Generator,
    ) -> int:
        """Draw the jump chain directly: wait Exp(size + beta), jump by X.

        Variates come in blocks.  Each block holds the number of events still
        expected before the horizon from the current state, (size + beta)
        (e^{m(horizon - t)} - 1) / m, plus a small margin; the first block past
        the horizon is cut there.  Returns the number of events kept.
        """
        m, t, size, n = law.mean, 0.0, initial, 0
        self.times[0], self.sizes[0] = 0.0, initial
        while True:
            expected = (size + beta) * math.expm1(min(m * (horizon - t), _MAX_EXPONENT)) / m
            b = int(min(expected + _BLOCK_MARGIN, _BLOCK_CAP))
            self._reserve(n + 1 + b, n + 1)
            xs = law.sample(rng, b)
            post = self.sizes[n + 1 : n + 1 + b]
            np.add.accumulate(xs, out=post)
            post += size
            ts = self.times[n + 1 : n + 1 + b]
            np.subtract(post, xs, out=ts)  # the rates, until the times overwrite them
            ts += beta
            waits = self._work[:b]
            rng.standard_exponential(b, out=waits)
            waits /= ts
            np.add.accumulate(waits, out=ts)
            ts += t
            cut = int(np.searchsorted(ts, horizon, side="right"))
            n += cut
            if cut < b:
                break
            t, size = float(ts[-1]), int(post[-1])
        times = self.times[: n + 1]
        if not (times[1:] > times[:-1]).all():
            raise RangeError("path.times", "event times must be strictly increasing")
        return n

    def plateau(self, n: int, m: float) -> tuple[float, float]:
        """(tail oscillation, last scaled value) of the n-event path just drawn."""
        scaled = self._work[: n + 1]
        osc = _tail_plateau(self.times[: n + 1], self.sizes[: n + 1], m, scaled)
        return osc, float(scaled[n])

    def path(self, initial, beta, law, horizon, rng) -> JumpPath:
        """A path drawn as by ``draw``, copied out of the buffers."""
        n = self.draw(initial, beta, law, horizon, rng)
        return JumpPath(initial, self.times[1 : n + 1].copy(), self.sizes[1 : n + 1].copy())


def simulate_mbp(config: BranchingConfig, horizon: float, rng: np.random.Generator) -> JumpPath:
    """One pure (no-immigration) size process up to ``horizon``."""
    if config.beta != 0.0:
        raise RangeError("branching.beta", "pure process needs beta = 0")
    return simulate_mbpi(config, horizon, rng)


def simulate_mbpi(
    config: BranchingConfig,
    horizon: float,
    rng: np.random.Generator,
    representation: str = "jump-chain",
) -> JumpPath:
    """A size process with immigration at rate beta, up to ``horizon``.

    ``representation`` selects how the path is built:

    * "jump-chain": wait Exp(size + beta), jump by X (single process);
    * "superposition": an initial pure process plus, at each Poisson(beta)
      arrival, an independent pure process started from a fresh X, all
      added together.

    The two constructions have the same law; drawing both with independent
    generators and comparing marginals is one of the package's self-checks.
    """
    horizon = checked_real("horizon", horizon)
    law, initial = config.edge_law, config.initial
    buffers = _PathBuffers()
    if representation == "jump-chain":
        return buffers.path(initial, config.beta, law, horizon, rng)
    if representation != "superposition":
        raise RangeError("representation", f"unknown representation {representation!r}")

    arrivals: list[float] = []
    if config.beta > 0.0:
        t = 0.0
        scale = 1.0 / config.beta
        while True:
            t += rng.exponential(scale)
            if t > horizon:
                break
            arrivals.append(t)
    founders = law.sample(rng, len(arrivals))

    base = buffers.path(initial, 0.0, law, horizon, rng)
    all_times = [base.times]
    all_jumps = [np.diff(base.values, prepend=initial)]
    for t_i, x_i in zip(arrivals, founders.tolist()):
        branch = buffers.path(x_i, 0.0, law, horizon - t_i, rng)
        all_times.append(np.concatenate(([t_i], t_i + branch.times)))
        all_jumps.append(np.diff(branch.values, prepend=[0, x_i]))

    times = np.concatenate(all_times)
    jumps = np.concatenate(all_jumps)
    order = np.argsort(times, kind="stable")
    return JumpPath(initial=initial, times=times[order], values=initial + np.cumsum(jumps[order]))


@dataclass(frozen=True)
class EmbeddingResult:
    """The event-clock family after n events.

    ``sizes[i-1]`` is process i's size at the last event time; processes 1
    and 2 start at time 0 with size 1, process j >= 3 is born at event j-2
    with size X_{j-2}.  ``taus`` are the event times, ``chosen`` the owner of
    each event, ``xs`` the net additions, and ``s_values[k]`` the total rate
    ledger after k events: sum of sizes plus (number of processes) * beta.
    """

    sizes: np.ndarray
    start_times: np.ndarray
    taus: np.ndarray
    chosen: np.ndarray
    xs: np.ndarray
    s_values: np.ndarray


def run_embedding(
    edge_law: EdgeCountDistribution,
    beta: float,
    n: int,
    rng: np.random.Generator,
) -> EmbeddingResult:
    """Run the coupled family of clocks for n events.

    Each process i carries an exponential clock at rate size_i + beta; the
    earliest clock fires, its owner gains X, and a new process of size X is
    born at that instant.  Reading off the owners and the X's reproduces the
    discrete chain's attachment steps, and the event times carry the
    continuous-time information.  All n jumps and the 2n + 2 unit clocks are
    drawn up front; a clock is scaled by its rate when it is pushed.
    """
    n = checked_int("n", n, 0)
    law = validate_edge_law(edge_law)
    beta = checked_real("beta", beta)

    xs = law.sample(rng, n)
    jumps = xs.tolist()
    clock = iter(rng.standard_exponential(2 * n + 2).tolist()).__next__
    # sizes[i] is process i's size; a newborn's entry already holds its X
    sizes = [0, 1, 1] + jumps
    heap = [(clock() / (1.0 + beta), 1), (clock() / (1.0 + beta), 2)]
    heapq.heapify(heap)
    taus = []
    chosen = []
    size_sum = 2
    s_values = [size_sum + 2 * beta]

    pop, push = heapq.heappop, heapq.heappush
    for j, x in enumerate(jumps, start=3):
        t, i = pop(heap)
        sizes[i] += x
        push(heap, (t + clock() / (sizes[i] + beta), i))
        push(heap, (t + clock() / (x + beta), j))
        size_sum += 2 * x
        taus.append(t)
        chosen.append(i)
        s_values.append(size_sum + j * beta)

    return EmbeddingResult(
        sizes=np.array(sizes[1:], dtype=np.int64),
        start_times=np.array([0.0, 0.0] + taus),
        taus=np.array(taus, dtype=float),
        chosen=np.array(chosen, dtype=np.int64),
        xs=xs,
        s_values=np.array(s_values, dtype=float),
    )


@dataclass(frozen=True)
class TauDiagnostics:
    """Residual series for the event-time asymptotics.

    ``martingale_residual[k]`` = tau_{k+1} - sum_{j<=k} 1/S_j has mean zero
    by construction (each wait is Exp(S_j)); ``log_drift_residual[k]`` =
    tau_{k+1} - alpha log(k+1) should settle near a random constant, with
    alpha = 1/(2m + beta).  ``log_drift_tail_osc`` is max - min of the latter
    over the last half of the indices.
    """

    alpha: float
    martingale_residual: np.ndarray
    log_drift_residual: np.ndarray
    log_drift_tail_osc: float


def tau_diagnostics(
    taus: np.ndarray, s_values: np.ndarray, m: float, beta: float
) -> TauDiagnostics:
    """Center the event times by their exact and asymptotic drifts."""
    taus = np.asarray(taus, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    n = taus.shape[0]
    if n < 1:
        raise MismatchedLengths("need at least one event time")
    if s_values.shape[0] not in (n, n + 1):
        raise MismatchedLengths(
            f"need S_0..S_{n - 1} (or through S_n); got {s_values.shape[0]} values"
        )
    if not (math.isfinite(m) and m > 0):
        raise NonPositiveMean(f"mean edge count must be finite and positive, got {m}")
    beta = checked_real("beta", beta)
    alpha = 1.0 / (2.0 * m + beta)
    drift = np.cumsum(1.0 / s_values[:n])
    mart = taus - drift
    logd = taus - alpha * np.log(np.arange(1, n + 1))
    half = n // 2
    return TauDiagnostics(
        alpha=alpha,
        martingale_residual=mart,
        log_drift_residual=logd,
        log_drift_tail_osc=float(logd[half:].max() - logd[half:].min()),
    )


@dataclass(frozen=True)
class ScaledTrajectory:
    """D(t) e^{-mt} sampled at the path's event times (plus t = 0)."""

    times: np.ndarray
    scaled: np.ndarray
    tail_oscillation: float  # (max - min) / mean over the trailing time window


def _tail_plateau(times, sizes, m, scaled, whole=False) -> float:
    """Write sizes * e^{-mt} into ``scaled`` and measure the tail plateau.

    ``times`` and ``sizes`` start with the t = 0 point.  The window holds every
    point at or after (1 - _TAIL_FRACTION) of the last time; only the window
    is scaled unless ``whole``.  Returns the window's relative oscillation
    (max - min) / mean.
    """
    start = int(np.searchsorted(times, (1.0 - _TAIL_FRACTION) * times[-1]))
    lo = 0 if whole else start
    out = scaled[lo:]
    np.multiply(times[lo:], -m, out=out)
    np.exp(out, out=out)
    out *= sizes[lo:]
    window = scaled[start:]
    mean = float(window.mean())
    return float((window.max() - window.min()) / mean) if mean > 0 else float("inf")


def zeta_trajectory(path: JumpPath, m: float) -> ScaledTrajectory:
    """Scale a path by its exponential growth and measure the tail plateau.

    The trailing window is the last quarter of the time horizon (by time,
    not by event count).
    """
    if not (math.isfinite(m) and m > 0):
        raise NonPositiveMean(f"growth rate m must be finite and positive, got {m}")
    times = np.concatenate(([0.0], path.times))
    sizes = np.concatenate(([path.initial], path.values)).astype(float)
    scaled = np.empty_like(times)
    osc = _tail_plateau(times, sizes, m, scaled, whole=True)
    return ScaledTrajectory(times=times, scaled=scaled, tail_oscillation=osc)
