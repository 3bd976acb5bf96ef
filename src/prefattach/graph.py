"""The growing multigraph: degree ledger and full chain runs.

The graph starts as two vertices joined by one edge.  Step k creates vertex
k + 2 and joins it to a single existing vertex i, chosen with probability
proportional to d_i(k - 1) + beta, by X_k parallel edges (X_k from the
configured edge-count law).

Selection mixes two routes that together realize the weights exactly: with
probability T / (T + (k+1) beta), T the total degree and k + 1 the vertex
count, pick a uniform entry of the edge-endpoint list (vertex i appears d_i
times); otherwise pick a vertex uniformly.

``run_chain`` samples a whole run in one vectorised pass (the endpoint-list
method of Batagelj & Brandes, pointers resolved in parallel as in Sanders &
Schulz).  The list holds edge e as entries 2e, 2e + 1: the target and the new
vertex of the step that made it (edge 0 is the seed pair 1, 2).  Once all X
are drawn, T before every step is known, so all coins and picks are drawn up
front.  An odd entry names a new vertex outright; an even entry means "the
same target as that earlier step", a pointer resolved by pointer jumping.

Short replicates share one such pass (``_run_pass``; ``run_chain`` is the pass
for one replicate).  Each draws its steps from its own generator, and the
pass packs replicate r's step k into the index r (n + 1) + k and its vertex v
into the label r (n + 3) + v.  One sort of the steps by (target, step) serves
every reading, and no endpoint array is built: each vertex's attachments form
one run, in time order, along which a cumulative sum gives its degree after
each step.  A run's last entry at or before step s is its degree at s (final
degrees, probes, snapshots); in step order these give M_n and I_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import MAX_BETA, RangeError, checked_int, checked_real
from .laws import EdgeCountDistribution, validate_edge_law
from .streams import MAX_SEED

# Vertex labels and step indices are packed into 32-bit halves of one int64
# sort key, and endpoint totals must stay exact as floats, since the mixture
# coins compare against them.
_MAX_LABEL = 2**31 - 1
_MAX_ENDPOINTS = 2**53


@dataclass(frozen=True)
class ModelConfig:
    """Immutable description of one chain run."""

    beta: float
    edge_law: EdgeCountDistribution
    n: int
    probe_vertices: tuple[int, ...] = ()
    record_stride: int = 1
    seed: int = 0

    def __post_init__(self):
        n = checked_int("model.n", self.n, 0)
        checked = {
            "beta": checked_real("model.beta", self.beta, 0.0, MAX_BETA),
            "n": n,
            "record_stride": checked_int("model.record_stride", self.record_stride, 1),
            # the last vertex, n + 2, is born at step n
            "probe_vertices": tuple(
                checked_int("model.probe_vertices", v, 1, n + 2) for v in self.probe_vertices
            ),
            "seed": checked_int("model.seed", self.seed, 0, MAX_SEED),
            "edge_law": validate_edge_law(self.edge_law),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def _degree_counts(degrees: np.ndarray) -> dict[int, int]:
    """{degree j: number of vertices of degree j} for a degree sequence."""
    hist = np.bincount(degrees)
    seen = np.flatnonzero(hist)
    return dict(zip(seen.tolist(), hist[seen].tolist()))


class DegreeLedger:
    """Degree bookkeeping of one graph state.

    ``degrees`` lists the degrees of vertices 1..n+2 in label order, and
    ``counts`` maps degree j to the number of vertices of that degree.
    """

    __slots__ = ("degrees", "counts")

    def __init__(self, degrees: np.ndarray):
        self.degrees = degrees
        self.counts = _degree_counts(degrees)


@dataclass(frozen=True)
class RunResult:
    """Everything recorded along one chain run."""

    config: ModelConfig
    ledger: DegreeLedger
    steps: np.ndarray  # recorded step indices, increasing, 0 and n included
    probes: dict[int, np.ndarray]  # vertex -> degree at each recorded step
    max_series: np.ndarray  # M_n at each recorded step
    argmax_series: np.ndarray  # I_n at each recorded step
    snapshots: dict[int, dict[int, int]] = field(default_factory=dict)


def _check_size(config: ModelConfig) -> None:
    """Refuse a run whose labels or endpoint count leave the exact range."""
    n = config.n
    endpoints = 2 + 2.2 * config.edge_law.mean * n  # 10% over the expected count
    if n + 2 > _MAX_LABEL or endpoints >= _MAX_ENDPOINTS:
        msg = f"{n} steps need labels up to {n + 2} and ~{endpoints:.3g} endpoints"
        raise RangeError("model.n", msg + f" (limits {_MAX_LABEL} and 2**53)")


def _draw_steps(
    config: ModelConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All draws of a run, made up front.

    Returns ``x`` (x[k] edges at step k, x[0] = 1 for the seed edge), and per
    step k = 1..n at index k - 1: ``uniform`` (the step took the uniform-vertex
    route) and ``pick`` (the vertex index in [0, k + 1) on that route, else
    the endpoint index in [0, T) with T the total degree before the step).
    """
    n, beta = config.n, config.beta
    x = np.concatenate(([1], config.edge_law.sample(rng, n)))
    before = np.cumsum(x[:-1])
    before *= 2
    vertices = np.arange(2, n + 2)
    uniform = np.zeros(n, dtype=bool)
    if beta > 0.0:
        weight = beta * vertices
        weight += before
        weight *= rng.random(n)
        uniform = weight >= before
        del weight
    np.copyto(before, vertices, where=uniform)  # each pick's bound, by route
    pick = rng.integers(0, before)
    return x, uniform, pick


def _resolve_targets(
    x: np.ndarray, uniform: np.ndarray, pick: np.ndarray, batch: int = 1
) -> np.ndarray:
    """The target of every step (entry 0: vertex 1, the seed edge's first end).

    Entry 2e of the endpoint list is the target of the step that made edge e
    and entry 2e + 1 its new vertex.  An unresolved target is stored as the
    pointer ~s to the step s whose target it shares.  For a batch the arrays
    hold the replicates' draws one after the other, and the targets come back
    as packed labels (see the module docstring).
    """
    n = pick.shape[0] // batch
    if batch > 1:
        # Pack replicate r into its picks: an endpoint index moves past the
        # endpoints of the replicates before it, a vertex index by r (n + 1).
        ends = 2 * x.reshape(batch, n + 1).sum(axis=1)
        shift = np.where(
            uniform,
            np.repeat(np.arange(batch) * (n + 1), n),
            np.repeat(np.cumsum(ends) - ends, n),
        )
        pick = pick + shift
        del shift
    step_of_edge = np.repeat(np.arange(batch * (n + 1), dtype=np.int32), x)
    owner = step_of_edge[pick >> 1]
    del step_of_edge
    # Odd entry: owner's new vertex, owner + 2.  Even: pointer ~owner.
    body = np.where(pick & 1, owner + 2, ~owner)
    body[uniform] = pick[uniform] + 1
    del owner
    targets = np.empty((batch, n + 1), dtype=body.dtype)
    targets[:, 0] = np.arange(batch) * (n + 1) + 1
    targets[:, 1:] = body.reshape(batch, n)
    del body
    targets = targets.ravel()
    todo = np.flatnonzero(targets < 0)
    while todo.shape[0]:
        # Pointer jumping: take what the pointed-to step holds, a label or its
        # own pointer, so the span of every remaining pointer doubles.
        held = targets[~targets[todo]]
        targets[todo] = held
        todo = todo[held < 0]
    # Labels were packed by r (n + 1) so far, which is what a step index
    # gives; the last 2r of the packing is positional.
    targets.reshape(batch, n + 1)[...] += 2 * np.arange(batch, dtype=targets.dtype)[:, None]
    return targets


def _max_series(after: np.ndarray, targets: np.ndarray, at: np.ndarray):
    """M_n and I_n at the packed recorded steps ``at``, one row per replicate.

    ``targets`` and ``after`` hold each step's target and its degree after it.
    """
    batch, size = targets.shape
    labels = size + 2
    peak = np.maximum.accumulate(after, axis=1)
    hits = np.flatnonzero(after == peak)
    peak = peak.ravel()
    # I_n is the smallest label at the running maximum: a running minimum over
    # the steps whose target reaches the maximum, restarted whenever it rises
    # and at each replicate's step 0.  Later levels get smaller offsets, so
    # one minimum.accumulate restarts.
    rise = np.diff(peak[hits], prepend=0) > 0
    rise[hits % size == 0] = True
    level = np.cumsum(rise)
    offset = (level[-1] - level) * (batch * labels)
    best = np.minimum.accumulate(offset + targets.ravel()[hits]) - offset
    argmax_series = best[np.searchsorted(hits, at, side="right") - 1]
    argmax_series -= np.arange(batch)[:, None] * labels
    return peak[at], argmax_series


class _Pass(NamedTuple):
    """What one pass records; row r of each array is replicate r."""

    steps: np.ndarray  # recorded step indices, shared by every replicate
    degrees: np.ndarray  # degrees of vertices 1..n+2
    probes: dict[int, np.ndarray]  # vertex -> degree at each recorded step
    max_series: np.ndarray
    argmax_series: np.ndarray
    snapshots: dict[int, dict[int, int]]  # of a one-replicate pass


def _run_pass(config: ModelConfig, seeds, snapshot_steps=()) -> _Pass:
    """Run config's chain once per seed, all resolved in one pass.

    Each replicate draws all its steps from its own generator, so each row
    is what the run at that seed alone gives.  ``snapshot_steps`` lists steps
    at which to record the degree counts, for a pass over one seed (only
    ``run_chain`` asks); steps outside 0..n are ignored.
    """
    _check_size(config)
    n, batch = config.n, len(seeds)
    draws = [_draw_steps(config, np.random.default_rng(seed)) for seed in seeds]
    # one replicate's arrays are used as drawn, not copied
    x, uniform, pick = (parts[0] if batch == 1 else np.concatenate(parts) for parts in zip(*draws))
    del draws
    targets = _resolve_targets(x, uniform, pick, batch).reshape(batch, n + 1)
    del uniform, pick

    steps = np.arange(0, n + 1, config.record_stride)
    if steps[-1] != n:
        steps = np.append(steps, n)
    at = np.arange(batch)[:, None] * (n + 1) + steps  # packed, one row per replicate
    # Sort the steps by (target, step), packed as target << 32 | step: each
    # vertex's attachments form one run, in time order.  A replicate's step 0
    # (its seed edge) attaches to no one.
    key = targets[:, 1:].astype(np.int64)
    key <<= 32
    key |= np.arange(batch * (n + 1)).reshape(batch, n + 1)[:, 1:]
    key = key.ravel()
    key.sort()
    order = key.astype(np.int32)  # the low half
    label = (key >> 32).astype(np.int32)
    del key
    # The target's degree just after each step: a cumulative sum of x along
    # the run, started at the vertex's degree at birth and cut off from the
    # previous run by subtracting its total.  Label r (n + 3) + v is born with
    # degree 1 for v = 1 and x[r, v - 2] for v >= 2.
    reached = x[order]
    degrees = np.ones((batch, n + 3), dtype=x.dtype)  # made final below
    degrees[:, 2:] = x.reshape(batch, n + 1)
    del x
    none = np.zeros(1, dtype=label.dtype)  # no vertex has label 0
    first = np.flatnonzero(np.diff(label, prepend=none))
    reached[first] += degrees.ravel()[label[first]]
    reached[first[1:]] -= np.add.reduceat(reached, first)[:-1]
    np.cumsum(reached, out=reached)

    probes = {}
    for v in config.probe_vertices:
        # v's runs, one per replicate, each led by the replicate's step 0 with v's
        # birth degree.  An entry's degree holds from the first recorded step at
        # or after it to the next entry's (the few entries are searched among the
        # many recorded steps, not the other way round).
        mine = np.arange(batch, dtype=label.dtype) * (n + 3) + v
        start = np.searchsorted(label, mine)
        count = np.searchsorted(label, mine, side="right") - start
        earlier = np.cumsum(count) - count  # v's attachments in the replicates before
        run = np.arange(count.sum()) + np.repeat(start - earlier, count)
        held = np.insert(reached[run], earlier, degrees[:, v])
        since = np.searchsorted(at.ravel(), np.insert(order[run], earlier, at[:, 0]))
        probes[v] = np.repeat(held, np.diff(since, append=at.size)).reshape(at.shape)
        probes[v][:, : np.searchsorted(steps, v - 2)] = 0  # before step v - 2, its birth
    snapshots = {}
    for s in snapshot_steps:
        if 0 <= s <= n:
            # each run's last step up to s (replicate 0's steps come first)
            upto = np.flatnonzero(order <= s)
            last = upto[np.diff(label[upto], append=none) != 0]
            at_s = degrees[0, : s + 3].copy()
            at_s[label[last]] = reached[last]
            snapshots[s] = _degree_counts(at_s[1:])
    last = np.append(first, label.shape[0])[1:] - 1  # the untargeted keep their birth degree
    degrees.ravel()[label[last]] = reached[last]
    del label, first, last

    after = np.empty((batch, n + 1), dtype=np.int64)
    after[:, 0] = 1  # step 0: vertex 1 holds the maximum, degree 1
    after.ravel()[order] = reached
    del order, reached
    max_series, argmax_series = _max_series(after, targets, at)
    return _Pass(steps, degrees[:, 1:], probes, max_series, argmax_series, snapshots)


def run_chain(config: ModelConfig, snapshot_steps: Iterable[int] = ()) -> RunResult:
    """Run the chain for config.n steps, deterministically in config.seed.

    ``snapshot_steps`` lists steps in 0..n at which to record the degree
    counts; other integers are ignored, and a non-integer raises RangeError.
    """
    snapshot_steps = sorted({checked_int("snapshot_steps", s, None) for s in snapshot_steps})
    run = _run_pass(config, (config.seed,), snapshot_steps)
    return RunResult(
        config=config,
        ledger=DegreeLedger(run.degrees[0]),
        steps=run.steps,
        probes={v: series[0] for v, series in run.probes.items()},
        max_series=run.max_series[0],
        argmax_series=run.argmax_series[0],
        snapshots=run.snapshots,
    )
