"""Replication fan-out with derived per-replicate streams.

Replicate r of master seed s runs on a generator seeded by mix64(s, r); the
workers share nothing, results are merged sorted by replicate index, so the
aggregate is bit-identical whatever the parallelism degree or completion
order.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .branching import run_embedding
from .errors import RangeError, checked_int
from .graph import ModelConfig, run_chain
from .streams import MAX_SEED, mix64


@dataclass(frozen=True)
class ChainSummary:
    """Per-replicate record of a discrete chain run."""

    index: int
    counts: dict[int, int]
    steps: np.ndarray
    probes: dict[int, np.ndarray]
    max_series: np.ndarray
    argmax_series: np.ndarray


@dataclass(frozen=True)
class EmbedSummary:
    """Per-replicate record of an event-clock run."""

    index: int
    counts: dict[int, int]  # size multiset of the processes, as degree counts
    taus: np.ndarray
    s_values: np.ndarray


@dataclass(frozen=True)
class AggregateResult:
    """Sorted replicate summaries plus pooled degree counts."""

    task: str
    master_seed: int
    replicates: list
    pooled_counts: dict[int, int]

    def digest(self) -> str:
        """SHA-256 over a canonical serialization (parallelism-independent)."""
        payload = {
            "task": self.task,
            "master_seed": self.master_seed,
            "pooled": {str(k): v for k, v in sorted(self.pooled_counts.items())},
            "replicates": [_summary_payload(r) for r in self.replicates],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _summary_payload(summary) -> dict:
    if isinstance(summary, ChainSummary):
        return {
            "index": summary.index,
            "counts": {str(k): v for k, v in sorted(summary.counts.items())},
            "steps": summary.steps.tolist(),
            "probes": {
                str(v): s.tolist() for v, s in sorted(summary.probes.items())
            },
            "max_series": summary.max_series.tolist(),
            "argmax_series": summary.argmax_series.tolist(),
        }
    return {
        "index": summary.index,
        "counts": {str(k): v for k, v in sorted(summary.counts.items())},
        "taus": summary.taus.tolist(),
        "s_values": summary.s_values.tolist(),
    }


def _chain_worker(args) -> ChainSummary:
    model, master_seed, index = args
    run = run_chain(replace(model, seed=mix64(master_seed, index)))
    return ChainSummary(
        index=index,
        counts=dict(run.ledger.counts),
        steps=run.steps,
        probes=run.probes,
        max_series=run.max_series,
        argmax_series=run.argmax_series,
    )


def _embed_worker(args) -> EmbedSummary:
    model, master_seed, index = args
    rng = np.random.default_rng(mix64(master_seed, index))
    res = run_embedding(model.edge_law, model.beta, model.n, rng)
    sizes, counts = np.unique(res.sizes, return_counts=True)
    return EmbedSummary(
        index=index,
        counts={int(s): int(c) for s, c in zip(sizes, counts)},
        taus=res.taus,
        s_values=res.s_values,
    )


def replicate(
    model: ModelConfig,
    replications: int,
    task: str = "simulate",
    master_seed: int | None = None,
    parallelism: int = 1,
) -> AggregateResult:
    """Run ``replications`` independent chains (or embeddings) and merge.

    ``master_seed`` defaults to the model's seed; replicate r actually runs
    with seed mix64(master_seed, r).  At most min(parallelism, replications,
    cpu count) worker processes run; with one, everything runs in-process.
    A ``replications`` or ``parallelism`` that is not an integer >= 1 raises
    RangeError.
    """
    if task not in ("simulate", "embed"):
        raise RangeError("task", f"unknown task {task!r}")
    replications = checked_int("replications", replications, 1)
    parallelism = checked_int("parallelism", parallelism, 1)
    if master_seed is None:
        seed = model.seed
    else:
        seed = checked_int("master_seed", master_seed, 0, MAX_SEED)
    worker = _chain_worker if task == "simulate" else _embed_worker
    jobs = [(model, seed, r) for r in range(replications)]

    workers = min(parallelism, replications, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, jobs, chunksize=max(1, replications // (4 * workers))))
    else:
        results = [worker(job) for job in jobs]
    results.sort(key=lambda s: s.index)

    pooled: dict[int, int] = {}
    for summary in results:
        for j, c in summary.counts.items():
            pooled[j] = pooled.get(j, 0) + c
    return AggregateResult(
        task=task, master_seed=seed, replicates=results, pooled_counts=pooled
    )
