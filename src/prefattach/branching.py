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
step of the discrete chain.  ``run_embedding`` merges the clocks through a
heap for short runs; from ``_ROUNDS_MIN_EVENTS`` events on it advances the
family in rounds instead, every process whose clock falls before a horizon
firing at once, and sorts the events afterwards.  The two draw the same law
from different variates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_BETA, RangeError, checked_int, checked_real
from .graph import _MAX_ENDPOINTS, _MAX_LABEL
from .laws import EdgeCountDistribution, validate_edge_law


@dataclass(frozen=True)
class BranchingConfig:
    """One size process: edge-count law, immigration rate, starting size."""

    edge_law: EdgeCountDistribution
    beta: float = 0.0
    initial: int = 1

    def __post_init__(self):
        object.__setattr__(self, "beta", checked_real("branching.beta", self.beta, 0.0, MAX_BETA))
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
            raise RangeError("path.values", "times and values differ in length")
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
# expected events a public size path may ask for; the package's own paths
# stay under 7 * 10^4
MAX_PATH_EVENTS = 1 << 22


def _grown(length: int) -> int:
    return length + length // 8


def _size_table(initial: int, x0: int, length: int) -> np.ndarray:
    """initial + k x0 for k < length, as float64 (exact integers)."""
    table = np.arange(length, dtype=np.float64)
    table *= x0
    table += initial
    return table


class _PathBuffers:
    """Jump chains drawn into arrays that one caller reuses from path to path.

    After ``draw`` returns n, ``times[:n + 1]`` and ``sizes[:n + 1]`` hold the
    path with its t = 0 point first.  ``sizes`` is float64 holding exact
    integers.  For a deterministic law X = x0 it holds initial + k x0 over its
    whole length, built once per (initial, x0), so such a path draws only its
    waits.  The arrays grow by an eighth when they must and are never shrunk,
    so a run of similar paths allocates a few times at most; a caller that
    knows a path's first block sizes them for it up front.
    """

    def __init__(self, block: int = 0):
        self.times = np.empty(block + 1)
        self.sizes = np.empty(block + 1)
        self._table = None  # the (initial, x0) whose table ``sizes`` holds
        self._work = np.empty(max(block, 1))  # one block's exponentials

    def _reserve(self, length: int, keep: int, block: int) -> None:
        if length > self.times.shape[0]:
            length = max(length, _grown(self.times.shape[0]))
            times = np.empty(length)
            times[:keep] = self.times[:keep]
            self.times = times
            if self._table is None:
                sizes = np.empty(length)
                sizes[:keep] = self.sizes[:keep]
                self.sizes = sizes
            else:
                self.sizes = _size_table(*self._table, length)
        if block > self._work.shape[0]:
            self._work = np.empty(max(block, _grown(self._work.shape[0])))

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
        table = (initial, law.x0) if law.kind == "deterministic" else None
        if table != self._table:
            self._table = table
            if table is not None:
                self.sizes = _size_table(initial, law.x0, self.sizes.shape[0])
        m, t, size, n = law.mean, 0.0, initial, 0
        self.times[0], self.sizes[0] = 0.0, initial
        while True:
            expected = (size + beta) * math.expm1(min(m * (horizon - t), _MAX_EXPONENT)) / m
            b = int(min(expected + _BLOCK_MARGIN, _BLOCK_CAP))
            self._reserve(n + 1 + b, n + 1, b)
            if table is None:
                post = self.sizes[n + 1 : n + 1 + b]
                np.add.accumulate(law.sample(rng, b), out=post)
                post += size
            ts = self.times[n + 1 : n + 1 + b]
            # the rates, from the sizes before each jump, until the times overwrite them
            np.add(self.sizes[n : n + b], beta, out=ts)
            waits = self._work[:b]
            rng.standard_exponential(b, out=waits)
            waits /= ts
            np.add.accumulate(waits, out=ts)
            ts += t
            cut = int(np.searchsorted(ts, horizon, side="right"))
            n += cut
            if cut < b:
                break
            t, size = float(ts[-1]), int(self.sizes[n])
        times = self.times[: n + 1]
        if not (times[1:] > times[:-1]).all():
            raise RangeError("path.times", "event times must be strictly increasing")
        return n

    def plateau(self, n: int, m: float) -> tuple[float, float]:
        """(tail oscillation, last scaled value) of the n-event path just drawn.

        The window is scaled in place in ``times``, which the path no longer
        needs.
        """
        times = self.times[: n + 1]
        osc = _tail_plateau(times, self.sizes[: n + 1], m, times)
        return osc, float(times[n])

    def path(self, initial, beta, law, horizon, rng) -> JumpPath:
        """A path drawn as by ``draw``, copied out of the buffers."""
        n = self.draw(initial, beta, law, horizon, rng)
        values = self.sizes[1 : n + 1].astype(np.int64)
        return JumpPath(initial, self.times[1 : n + 1].copy(), values)


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
    A horizon at which a path expects more than MAX_PATH_EVENTS events,
    (initial + beta) (e^{m horizon} - 1) / m in either representation, is
    refused before anything is allocated.
    """
    horizon = checked_real("horizon", horizon)
    law, initial = config.edge_law, config.initial
    m = law.mean
    expected = (initial + config.beta) * math.expm1(min(m * horizon, _MAX_EXPONENT)) / m
    if expected > MAX_PATH_EVENTS:
        raise RangeError(
            "horizon", f"expects {expected:.3g} events, above the cap of {MAX_PATH_EVENTS}"
        )
    buffers = _PathBuffers(int(min(expected + _BLOCK_MARGIN, _BLOCK_CAP)))  # the first block
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

    # Each branch is drawn into the buffers and copied out as event times
    # and jumps; an immigrant's branch starts with its arrival, a jump by X.
    n = buffers.draw(initial, 0.0, law, horizon, rng)
    sizes = buffers.sizes
    all_times = [buffers.times[1 : n + 1].copy()]
    all_jumps = [sizes[1 : n + 1] - sizes[:n]]
    for t_i, x_i in zip(arrivals, founders.tolist()):
        n = buffers.draw(x_i, 0.0, law, horizon - t_i, rng)
        sizes = buffers.sizes
        all_times.append(buffers.times[: n + 1] + t_i)
        jumps = sizes[: n + 1].copy()
        jumps[1:] -= sizes[:n]
        all_jumps.append(jumps)

    times = np.concatenate(all_times)
    jumps = np.concatenate(all_jumps).astype(np.int64)
    order = np.argsort(times, kind="stable")
    return JumpPath(initial=initial, times=times[order], values=initial + np.cumsum(jumps[order]))


# run_embedding draws runs of this many events or more in rounds, shorter ones
# from its heap.  Rounds overtake the heap between 500 and 1000 events (2
# vCPUs); the cut sits just above 1024, the largest n that replicate batches,
# so a batched replicate, which advances in lockstep as the heap does, still
# equals run_embedding on its own generator.
_ROUNDS_MIN_EVENTS = 1025


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
    continuous-time information.  Below ``_ROUNDS_MIN_EVENTS`` events the
    clocks sit in a heap: all n jumps and the 2n + 2 unit clocks are drawn up
    front, and a clock is scaled by its rate when it is pushed.  Longer runs
    advance in rounds (``_run_rounds``), which draws the same law from other
    variates.  An n whose labels n + 2 pass 2^31 - 1, or whose size total
    2 + 2 (X_1 + ... + X_n) is expected within 10 % of 2^53, the chain's
    limits, is refused before anything is drawn.
    """
    n = checked_int("n", n, 0, _MAX_LABEL - 2)
    law = validate_edge_law(edge_law)
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
    total = 2 + 2.2 * law.mean * n
    if total >= _MAX_ENDPOINTS:
        raise RangeError("n", f"{n} events expect a size total of ~{total:.3g}, past 2**53")
    if n >= _ROUNDS_MIN_EVENTS:
        return _run_rounds(law, beta, n, rng)

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

    # The owner's new clock replaces the popped one in a single sift.
    refire, push = heapq.heapreplace, heapq.heappush
    for j, x in enumerate(jumps, start=3):
        t, i = heap[0]
        sizes[i] += x
        refire(heap, (t + clock() / (sizes[i] + beta), i))
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


def _run_rounds(
    law: EdgeCountDistribution,
    beta: float,
    n: int,
    rng: np.random.Generator,
) -> EmbeddingResult:
    """``run_embedding``'s family of clocks, advanced in rounds up to a horizon.

    Every process whose clock is at or before the horizon H fires once per
    round: its owner gains an X drawn then, its next clock is
    t + E / (size + beta), and a newborn of size X gets t + E' / (X + beta).
    Rounds repeat until no clock is at or before H; while fewer than n events
    exist, H grows from the count so far.  Each process evolves on its own and
    every drawn clock is that process's true next event, so the events up to H
    have the law of the heap construction's, found in another order.  They are
    sorted (stably), cut at the n-th and relabelled in birth order.

    H starts where the total rate S_0 e^{(2m + beta) t} expects n / 2 events
    and then grows 1.1 times as far as the count so far says n needs, so a
    run draws about 1.2 n to 1.3 n events on average, over two horizons.  H
    also grows at least to the earliest clock: when 2m + beta dwarfs S_0
    (a large x0), the expected count is carried by rare early events and
    most runs wait far longer for their first.  Internal process p (from 0)
    is born at internal event p - 2, so the process arrays and the event
    arrays share one capacity.
    """
    rate = 2.0 * law.mean + beta
    s0 = 2.0 + 2.0 * beta
    horizon = math.log1p(rate * n / (2.0 * s0)) / rate
    cap = n + n // 4 + 64
    clock, weight = np.empty(cap + 2), np.empty(cap + 2)  # weight = size + beta
    ev_t, ev_owner, ev_x = np.empty(cap), np.empty(cap, np.int64), np.empty(cap, np.int64)
    weight[:2] = 1.0 + beta
    clock[:2] = rng.standard_exponential(2) / weight[:2]
    procs = 2
    active = (clock[:2] <= horizon).nonzero()[0]
    while True:
        while active.shape[0]:
            k = active.shape[0]
            lo, procs = procs, procs + k
            if procs > cap + 2:
                cap = max(procs, 2 * cap)
                clock, weight = (np.resize(a, cap + 2) for a in (clock, weight))
                ev_t, ev_owner, ev_x = (np.resize(a, cap) for a in (ev_t, ev_owner, ev_x))
            t = clock[active]
            x = law.sample(rng, k)
            units = rng.standard_exponential(2 * k)
            grown = weight[active] + x
            weight[active] = grown
            refired = units[:k] / grown
            refired += t
            clock[active] = refired
            born = weight[lo:procs]
            np.add(x, beta, out=born)
            born = units[k:] / born
            born += t
            clock[lo:procs] = born
            ev_t[lo - 2 : procs - 2], ev_owner[lo - 2 : procs - 2], ev_x[lo - 2 : procs - 2] = (
                t, active, x
            )
            active = np.concatenate(
                (active[refired <= horizon], (born <= horizon).nonzero()[0] + lo)
            )
        events = procs - 2
        if events >= n:
            break
        step = max(0.05, 1.1 * math.log((n + 2) / (events + 2))) / rate
        horizon = max(horizon + step, clock[:procs].min())
        active = (clock[:procs] <= horizon).nonzero()[0]

    order = np.argsort(ev_t[:events], kind="stable")[:n]
    # internal process p >= 2 gets label 3 + the time rank of its birth event
    label = np.empty(procs, np.int64)
    label[:2] = 1, 2
    label[order + 2] = np.arange(3, n + 3)
    taus = ev_t[order]
    chosen = label[ev_owner[order]]
    xs = ev_x[order]
    sizes = np.bincount(chosen - 1, weights=xs, minlength=n + 2).astype(np.int64)
    sizes[:2] += 1
    sizes[2:] += xs
    # S_k = 2 + 2 (X_1 + ... + X_k) + (k + 2) beta, as the heap sums it
    size_sum = np.zeros(n + 1, np.int64)
    np.cumsum(xs, out=size_sum[1:])
    size_sum *= 2
    size_sum += 2
    return EmbeddingResult(
        sizes=sizes,
        start_times=np.concatenate((np.zeros(2), taus)),
        taus=taus,
        chosen=chosen,
        xs=xs,
        s_values=size_sum + np.arange(2, n + 3) * beta,
    )


def _run_lockstep(
    law: EdgeCountDistribution,
    beta: float,
    n: int,
    rngs,
) -> list[EmbeddingResult]:
    """``run_embedding`` once per generator of ``rngs``, advanced in lockstep.

    One array holds every run's clocks, a row per run and a column per
    process (+inf until it is born).  Each event takes the row's argmin where
    ``run_embedding`` takes the top of its heap; a tie goes to the smallest
    label there too.  Each run draws the same variates in the same order
    (its X's, then its 2n + 2 unit clocks) and the arithmetic is the same, so
    every result is bit-identical to ``run_embedding`` on that generator.
    The arguments come from a validated ``ModelConfig``.
    """
    batch = len(rngs)
    xs = np.empty((batch, n), dtype=np.int64)
    units = np.empty((batch, 2 * n + 2))
    for r, rng in enumerate(rngs):
        xs[r] = law.sample(rng, n)
        rng.standard_exponential(2 * n + 2, out=units[r])

    rows = np.arange(batch)
    clocks = np.full((batch, n + 2), np.inf)
    clocks[:, :2] = units[:, :2] / (1.0 + beta)
    sizes = np.empty((batch, n + 2), dtype=np.int64)
    sizes[:, :2] = 1
    sizes[:, 2:] = xs  # a newborn's entry already holds its X
    taus = np.empty((batch, n))
    chosen = np.empty((batch, n), dtype=np.int64)
    for k in range(n):
        i = clocks[:, : k + 2].argmin(axis=1)
        t = clocks[rows, i]
        x = xs[:, k]
        size = sizes[rows, i] + x
        sizes[rows, i] = size
        # event k uses unit clocks 2k + 2 (the owner's) and 2k + 3 (the newborn's)
        clocks[rows, i] = t + units[:, 2 * k + 2] / (size + beta)
        clocks[:, k + 2] = t + units[:, 2 * k + 3] / (x + beta)
        taus[:, k] = t
        chosen[:, k] = i
    chosen += 1
    # S_k = 2 + 2 (X_1 + ... + X_k) + (k + 2) beta, as run_embedding sums it
    size_sum = np.zeros((batch, n + 1), dtype=np.int64)
    np.cumsum(xs, axis=1, out=size_sum[:, 1:])
    size_sum *= 2
    size_sum += 2
    s_values = size_sum + np.arange(2, n + 3) * beta
    zero = np.zeros(2)
    return [
        EmbeddingResult(
            sizes=sizes[r],
            start_times=np.concatenate((zero, taus[r])),
            taus=taus[r],
            chosen=chosen[r],
            xs=xs[r],
            s_values=s_values[r],
        )
        for r in range(batch)
    ]


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
    """Center the event times by their exact and asymptotic drifts.

    ``taus`` must be a 1-D series of finite times and ``s_values`` a 1-D
    series of finite, positive rates, else RangeError names the field.
    """
    taus = np.asarray(taus, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    if taus.ndim != 1 or not np.isfinite(taus).all():
        raise RangeError("taus", "need a 1-D series of finite event times")
    if s_values.ndim != 1 or not (np.isfinite(s_values).all() and (s_values > 0).all()):
        raise RangeError("s_values", "need a 1-D series of finite, positive rates")
    n = taus.shape[0]
    if n < 1:
        raise RangeError("taus", "need at least one event time")
    if s_values.shape[0] not in (n, n + 1):
        raise RangeError(
            "s_values", f"need S_0..S_{n - 1} (or through S_n); got {s_values.shape[0]} values"
        )
    m = checked_real("m", m, None)
    if m <= 0:
        raise RangeError("m", f"mean edge count must be positive, got {m}")
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
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
    (max - min) / mean.  ``scaled`` may be ``times`` itself.
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
    m = checked_real("m", m, None)
    if m <= 0:
        raise RangeError("m", f"growth rate m must be positive, got {m}")
    n = path.times.shape[0]
    times, sizes = np.empty(n + 1), np.empty(n + 1)
    times[0], sizes[0] = 0.0, path.initial
    times[1:], sizes[1:] = path.times, path.values
    scaled = np.empty_like(times)
    osc = _tail_plateau(times, sizes, m, scaled, whole=True)
    return ScaledTrajectory(times=times, scaled=scaled, tail_oscillation=osc)
