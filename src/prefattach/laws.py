"""Edge-count distributions: laws on the positive integers {1, 2, ...}.

Each attachment step joins the incoming vertex to its target with X parallel
edges, X drawn from one of these laws.

Three kinds are supported:

* ``deterministic`` -- X = x0 with probability one (``det:K`` in CLI form),
* ``explicit``      -- a finite table p_1, ..., p_K (``explicit:p1,p2,...``),
* ``geometric``     -- P(X = j) = (1-q)^(j-1) q on {1, 2, ...} (``geom:Q``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import EmptyLaw, NonPositiveSupport, NotNormalized, ParseError, checked_int

_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class EdgeCountDistribution:
    """A validated, normalized law for the per-step edge count X >= 1.

    Attributes
    ----------
    kind : one of "deterministic", "explicit", "geometric"
    probs : for "explicit", the table (p_1, ..., p_K) normalized to sum 1
    x0 : for "deterministic", the support point
    q : for "geometric", the success probability in (0, 1]
    mean : E[X]
    """

    kind: str
    probs: tuple[float, ...] = ()
    x0: int = 0
    q: float = 0.0
    mean: float = 0.0

    def pmf_vector(self, j_max: int) -> np.ndarray:
        """Array ``p`` of length j_max + 1 with ``p[j] = P(X = j)``, p[0] = 0."""
        p = np.zeros(j_max + 1)
        if self.kind == "deterministic":
            if self.x0 <= j_max:
                p[self.x0] = 1.0
        elif self.kind == "explicit":
            k = min(len(self.probs), j_max)
            p[1 : k + 1] = self.probs[:k]
        else:
            j = np.arange(1, j_max + 1)
            p[1:] = (1.0 - self.q) ** (j - 1) * self.q
        return p

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` iid copies of X as an int64 array."""
        if self.kind == "deterministic":
            return np.full(size, self.x0, dtype=np.int64)
        if self.kind == "geometric":
            return rng.geometric(self.q, size=size).astype(np.int64)
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        u = rng.random(size)
        return (np.searchsorted(cum, u, side="right") + 1).astype(np.int64)

    def label(self) -> str:
        """CLI-form string round-tripping through validate_edge_law."""
        if self.kind == "deterministic":
            return f"det:{self.x0}"
        if self.kind == "geometric":
            return f"geom:{self.q:g}"
        return "explicit:" + ",".join(f"{p:g}" for p in self.probs)


def deterministic(x0: int) -> EdgeCountDistribution:
    """The law X = x0 a.s."""
    x0 = checked_int("x0", x0, None)
    if x0 < 1:
        raise NonPositiveSupport(f"deterministic edge count must be >= 1, got {x0}")
    return EdgeCountDistribution(kind="deterministic", x0=x0, mean=float(x0))


def explicit(probs: Iterable[float]) -> EdgeCountDistribution:
    """A finite table p_1, ..., p_K; normalized if within 1e-9 of mass one."""
    table = [float(p) for p in probs]
    if not table:
        raise EmptyLaw("explicit law needs at least one probability")
    if any(p < 0 for p in table):
        raise NotNormalized("explicit probabilities must be nonnegative")
    total = sum(table)
    if abs(total - 1.0) > _NORMALIZATION_TOL:
        raise NotNormalized(f"explicit probabilities sum to {total!r}, not 1")
    while table and table[-1] == 0.0:
        table.pop()
    if not table:
        raise EmptyLaw("explicit law has zero mass everywhere")
    table = [p / total for p in table]
    mean = sum((i + 1) * p for i, p in enumerate(table))
    return EdgeCountDistribution(kind="explicit", probs=tuple(table), mean=mean)


def geometric(q: float) -> EdgeCountDistribution:
    """The geometric law on {1, 2, ...} with success probability q."""
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ParseError(f"geometric parameter must be in (0, 1], got {q!r}")
    return EdgeCountDistribution(kind="geometric", q=q, mean=1.0 / q)


LawSpec = Union[str, int, Mapping[int, float], Iterable[float], EdgeCountDistribution]


def validate_edge_law(spec: LawSpec) -> EdgeCountDistribution:
    """Turn a law description into a validated EdgeCountDistribution.

    Accepted forms:

    * an EdgeCountDistribution (returned as-is),
    * an int K          -> deterministic K,
    * "det:K", "geom:Q", "explicit:p1,p2,..." strings,
    * a mapping {j: p_j} whose keys are ints or integer strings (JSON keys),
    * a sequence (p_1, ..., p_K) read as an explicit table from 1.

    Raises NonPositiveSupport if any mass sits on j <= 0, NotNormalized if an
    explicit table misses mass one by more than 1e-9, EmptyLaw for an empty
    table, ParseError for unreadable strings and any other form (a bool, a
    float, None, a non-integer key, a non-numeric entry).
    """
    if isinstance(spec, EdgeCountDistribution):
        return spec
    if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
        return deterministic(int(spec))
    if isinstance(spec, str):
        return _parse_law_string(spec)
    try:
        if isinstance(spec, Mapping):
            if not spec:
                raise EmptyLaw("law mapping is empty")
            keys = [_support_point(j) for j in spec]
            if min(keys) < 1:
                raise NonPositiveSupport(
                    f"law puts mass on j = {min(keys)}; support must be positive"
                )
            table = [0.0] * max(keys)
            for j, p in zip(keys, spec.values()):
                table[j - 1] = float(p)
            return explicit(table)
        return explicit(spec)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"could not read law {spec!r}: {exc}") from exc


def _support_point(j) -> int:
    """A mapping key as an int; a bool or a float is refused, not truncated."""
    if isinstance(j, str) or (isinstance(j, (int, np.integer)) and not isinstance(j, bool)):
        return int(j)
    raise ParseError(f"law support point must be an integer, got {j!r}")


def _parse_law_string(text: str) -> EdgeCountDistribution:
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise ParseError(f"law string needs a 'kind:args' form, got {text!r}")
    head = head.strip().lower()
    try:
        if head == "det":
            return deterministic(int(tail))
        if head == "geom":
            return geometric(float(tail))
        if head == "explicit":
            parts = [s for s in tail.split(",") if s.strip()]
            return explicit(float(s) for s in parts)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"could not parse law string {text!r}: {exc}") from exc
    raise ParseError(f"unknown law kind {head!r} (use det:, geom:, explicit:)")
