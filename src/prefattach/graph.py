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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import RangeError, checked_int, checked_real
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
        checked = {
            "beta": checked_real("model.beta", self.beta),
            "n": checked_int("model.n", self.n, 0),
            "record_stride": checked_int("model.record_stride", self.record_stride, 1),
            "probe_vertices": tuple(
                checked_int("model.probe_vertices", v, 1) for v in self.probe_vertices
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

    Vertices are labelled from 1.  ``degrees`` is the degree sequence,
    ``endpoints`` the edge-endpoint multiset (vertex i appears d_i times),
    ``counts`` maps degree j to the number of vertices of that degree, and
    ``max_degree`` / ``argmax`` give the maximum and the smallest vertex
    attaining it.
    """

    __slots__ = ("_deg", "endpoints", "counts", "total_degree", "step", "max_degree", "argmax")

    def __init__(self, degrees: np.ndarray, endpoints: np.ndarray):
        """``degrees[v]`` is the degree of vertex v (entry 0 is unused)."""
        self._deg = degrees
        self.endpoints = endpoints
        self.counts = _degree_counts(degrees[1:])
        self.total_degree = int(endpoints.shape[0])
        self.step = degrees.shape[0] - 3
        self.argmax = int(np.argmax(degrees))  # the first maximum: smallest label
        self.max_degree = int(degrees[self.argmax])

    @property
    def degrees(self) -> np.ndarray:
        """Degrees of vertices 1..n+2 (index 0 of the view is vertex 1)."""
        return self._deg[1:]

    @classmethod
    def from_degrees(cls, degrees: Sequence[int]) -> "DegreeLedger":
        """Assemble a ledger from an explicit degree sequence (vertex 1 first).

        Useful for frozen-state sampling tests; ``step`` is set to
        len(degrees) - 2 so that the selection weights see the right vertex
        count.
        """
        seq = np.asarray(list(degrees), dtype=np.int64)
        if seq.ndim != 1 or seq.shape[0] < 1:
            raise RangeError("degrees", "need at least one vertex")
        if np.any(seq < 1):
            raise RangeError("degrees", "degrees must be >= 1")
        ends = np.repeat(np.arange(1, seq.shape[0] + 1, dtype=np.int64), seq)
        return cls(np.concatenate(([0], seq)), ends)


def choose_vertex(ledger: DegreeLedger, beta: float, rng: np.random.Generator) -> int:
    """Draw the attachment target from a ledger's state, without mutating it.

    Implements the two-stage mixture described in the module docstring, one
    draw at a time (for beta = 0 always the endpoint route): the exact-law
    oracle, on a frozen ledger, for the routes ``run_chain`` takes in bulk.
    """
    total = ledger.total_degree
    if beta > 0.0:
        n_vert = ledger.step + 2
        if rng.random() * (total + n_vert * beta) >= total:
            return 1 + int(rng.random() * n_vert)
    return int(ledger.endpoints[int(rng.random() * total)])


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
    pick = rng.integers(0, np.where(uniform, vertices, before))
    return x, uniform, pick


def _resolve_targets(x: np.ndarray, uniform: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """The target of every step (entry 0: vertex 1, the seed edge's first end).

    Entry 2e of the endpoint list is the target of the step that made edge e
    and entry 2e + 1 its new vertex.  An unresolved target is stored as the
    pointer ~s to the step s whose target it shares.
    """
    n = pick.shape[0]
    step_of_edge = np.repeat(np.arange(n + 1, dtype=np.int32), x)
    owner = step_of_edge[pick >> 1]
    del step_of_edge
    # Odd entry: owner's new vertex, owner + 2.  Even: pointer ~owner.
    body = np.where(pick & 1, owner + 2, ~owner)
    body[uniform] = pick[uniform] + 1
    del owner
    targets = np.insert(body, 0, 1)
    todo = np.flatnonzero(targets < 0)
    while todo.shape[0]:
        # Pointer jumping: take what the pointed-to step holds, a label or its
        # own pointer, so the span of every remaining pointer doubles.
        held = targets[~targets[todo]]
        targets[todo] = held
        todo = todo[held < 0]
    return targets


def _probe_degrees(x: np.ndarray, targets: np.ndarray, v: int, steps: np.ndarray) -> np.ndarray:
    """Degree of vertex v at the recorded steps, 0 before it is born."""
    gain = np.where(targets == v, x, 0)  # x[0] = 1 is vertex 1's seed end
    if 2 <= v < x.shape[0] + 2:
        gain[v - 2] += x[v - 2]  # its ends as the new vertex of step v - 2
    return np.cumsum(gain)[steps]


def _max_series(x: np.ndarray, targets: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, ...]:
    """M_n and I_n at the recorded steps."""
    n = x.shape[0] - 1
    # Sort the steps by (target, step), packed as target << 32 | step: each
    # vertex's attachments form one run, in time order.
    key = targets[1:].astype(np.int64)
    key <<= 32
    key |= np.arange(1, n + 1)
    key.sort()
    order = key & 0xFFFFFFFF
    key >>= 32
    first = np.flatnonzero(np.diff(key, prepend=0))
    # Degree of the target just after each step: a cumulative sum of x along
    # the run, started at the vertex's degree at birth (x[0] = 1 for both
    # roots) and cut off from the previous run by subtracting its total.
    reached = x[order]
    reached[first] += x[np.maximum(key[first] - 2, 0)]
    del key
    reached[first[1:]] -= np.add.reduceat(reached, first)[:-1]
    np.cumsum(reached, out=reached)

    after = np.empty(n + 1, dtype=np.int64)
    after[0] = 1  # step 0: vertex 1 holds the maximum, degree 1
    after[order] = reached
    del order, reached

    peak = np.maximum.accumulate(after)
    hits = np.flatnonzero(after == peak)
    del after
    # I_n is the smallest label at the running maximum: a running minimum over
    # the steps whose target reaches the maximum, restarted whenever it rises.
    # Later levels get smaller offsets, so one minimum.accumulate restarts.
    level = np.cumsum(np.diff(peak[hits], prepend=0) > 0)
    offset = (level[-1] - level) * (n + 3)
    best = np.minimum.accumulate(offset + targets[hits]) - offset
    argmax_series = best[np.searchsorted(hits, steps, side="right") - 1]
    return peak[steps], argmax_series


def run_chain(config: ModelConfig, snapshot_steps: Iterable[int] = ()) -> RunResult:
    """Run the chain for config.n steps, deterministically in config.seed.

    ``snapshot_steps`` lists steps in 0..n at which to record the degree
    counts; other integers are ignored, and a non-integer raises RangeError.
    """
    snapshot_steps = sorted({checked_int("snapshot_steps", s, None) for s in snapshot_steps})
    _check_size(config)
    n = config.n
    x, uniform, pick = _draw_steps(config, np.random.default_rng(config.seed))
    targets = _resolve_targets(x, uniform, pick)
    del uniform, pick

    steps = np.arange(0, n + 1, config.record_stride)
    if steps[-1] != n:
        steps = np.append(steps, n)
    probes = {v: _probe_degrees(x, targets, v, steps) for v in config.probe_vertices}
    max_series, argmax_series = _max_series(x, targets, steps)

    # Edge e is endpoint pair (2e, 2e + 1); the edges of steps 0..s fill a prefix.
    ends = np.empty(2 * int(x.sum()), dtype=np.int64)
    ends[0::2] = np.repeat(targets, x)
    del targets
    ends[1::2] = np.repeat(np.arange(2, n + 3, dtype=np.int32), x)
    snapshots = {
        s: _degree_counts(np.bincount(ends[: 2 * int(x[: s + 1].sum())], minlength=s + 3)[1:])
        for s in snapshot_steps
        if 0 <= s <= n
    }
    del x
    degrees = np.bincount(ends, minlength=n + 3)
    return RunResult(
        config=config,
        ledger=DegreeLedger(degrees, ends),
        steps=steps,
        probes=probes,
        max_series=max_series,
        argmax_series=argmax_series,
        snapshots=snapshots,
    )

