"""Replication fan-out with derived per-replicate streams.

Replicate r of master seed s runs on a generator seeded by mix64(s, r); the
workers share nothing, results are merged sorted by replicate index, so the
aggregate is bit-identical whatever the parallelism degree or completion
order.

Short replicates run in batches: a call batches when a batch of at most
``_BATCH_STEPS`` steps (or events) holds at least ``_BATCH_MIN`` of its
replicates.  A batch of chains is resolved in one pass of ``graph``, and a
batch of embeddings advances in lockstep; each replicate still draws from its
own generator, so its summary is bit-identical to a run on its own.  Other
calls make one ``run_chain`` or ``run_embedding`` call per replicate.  Only
n <= 1024 batches, which keeps batched embeddings below the n at which
``run_embedding`` leaves its heap for rounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .branching import _run_lockstep, run_embedding
from .errors import RangeError, checked_int
from .graph import ModelConfig, _check_size, _degree_counts, _run_pass, run_chain
from .streams import MAX_SEED, mix64

_BATCH_STEPS = 1 << 15
_BATCH_MIN = 32


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


def _chains(args) -> list[ChainSummary]:
    """The replicates' chains: one pass for a batch, else a run_chain call each."""
    model, master_seed, indices, batched = args
    seeds = [mix64(master_seed, index) for index in indices]
    if not batched:
        runs = [run_chain(replace(model, seed=seed)) for seed in seeds]
        return [
            ChainSummary(
                index, dict(run.ledger.counts), run.steps, run.probes, run.max_series,
                run.argmax_series,
            )
            for index, run in zip(indices, runs)
        ]
    run = _run_pass(model, seeds)
    return [
        ChainSummary(
            index,
            _degree_counts(run.degrees[r]),
            run.steps,
            {v: series[r] for v, series in run.probes.items()},
            run.max_series[r],
            run.argmax_series[r],
        )
        for r, index in enumerate(indices)
    ]


def _embeddings(args) -> list[EmbedSummary]:
    """The replicates' embeddings: in lockstep for a batch, else a run_embedding call each."""
    model, master_seed, indices, batched = args
    law, beta, n = model.edge_law, model.beta, model.n
    rngs = [np.random.default_rng(mix64(master_seed, index)) for index in indices]
    if batched:
        results = _run_lockstep(law, beta, n, rngs)
    else:
        results = [run_embedding(law, beta, n, rng) for rng in rngs]
    return [
        EmbedSummary(index, _degree_counts(res.sizes), res.taus, res.s_values)
        for index, res in zip(indices, results)
    ]


def _batch_size(n: int, replications: int) -> int:
    """Replicates per batch, or 1 when the call does not batch."""
    size = _BATCH_STEPS // max(n, 1)
    return size if min(size, replications) >= _BATCH_MIN else 1


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
    RangeError, and so does a model too large to run, before any job starts.
    """
    if task not in ("simulate", "embed"):
        raise RangeError("task", f"unknown task {task!r}")
    _check_size(model)
    replications = checked_int("replications", replications, 1)
    parallelism = checked_int("parallelism", parallelism, 1)
    if master_seed is None:
        seed = model.seed
    else:
        seed = checked_int("master_seed", master_seed, 0, MAX_SEED)
    workers = min(parallelism, replications, os.cpu_count() or 1)
    worker = _chains if task == "simulate" else _embeddings
    size = _batch_size(model.n, replications)
    batched = size > 1
    if batched:
        size = min(size, -(-replications // workers))  # a batch for every worker
    jobs = [
        (model, seed, range(lo, min(lo + size, replications)), batched)
        for lo in range(0, replications, size)
    ]

    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(worker, jobs, chunksize=max(1, len(jobs) // (4 * workers)))
            results = [summary for chunk in chunks for summary in chunk]
    else:
        results = [summary for job in jobs for summary in worker(job)]
    results.sort(key=lambda s: s.index)

    pooled: dict[int, int] = {}
    for summary in results:
        for j, c in summary.counts.items():
            pooled[j] = pooled.get(j, 0) + c
    return AggregateResult(
        task=task, master_seed=seed, replicates=results, pooled_counts=pooled
    )
