"""Replication fan-out: determinism, pooling, and parallel equivalence."""

import concurrent.futures
import importlib
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from prefattach.branching import _ROUNDS_MIN_EVENTS, _run_lockstep, run_embedding
from prefattach.cli import main
from prefattach.errors import RangeError
from prefattach.graph import ModelConfig, run_chain
from prefattach.laws import deterministic, explicit, geometric
from prefattach.replicate import (
    _BATCH_STEPS,
    ChainSummary,
    EmbedSummary,
    _batch_size,
    replicate,
)
from prefattach.streams import mix64
from prefattach.verify import VerifySession


def _model(n=300, **kw):
    base = dict(
        beta=0.0,
        edge_law=deterministic(1),
        n=n,
        probe_vertices=(1,),
        record_stride=max(1, n // 10),
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def _equal(a, b) -> bool:
    """Exact equality of summary fields: arrays by np.array_equal, dicts by key."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _same_runs(a, b) -> bool:
    """Whether two aggregates hold the same pooled counts and replicate summaries."""
    return (
        a.pooled_counts == b.pooled_counts
        and len(a.replicates) == len(b.replicates)
        and all(
            type(x) is type(y)
            and all(_equal(getattr(x, f.name), getattr(y, f.name)) for f in fields(x))
            for x, y in zip(a.replicates, b.replicates)
        )
    )


def _assert_identical(a, b):
    assert (a.task, a.master_seed) == (b.task, b.master_seed)
    assert _same_runs(a, b)


class TestDeterminism:
    def test_replicate_zero_matches_a_direct_run(self):
        agg = replicate(_model(), 4, task="simulate", master_seed=11)
        direct = run_chain(_model(seed=mix64(11, 0)))
        assert agg.replicates[0].counts == dict(direct.ledger.counts)
        assert agg.replicates[0].max_series[-1] == direct.max_series[-1]
        assert agg.replicates[0].argmax_series[-1] == direct.argmax_series[-1]

    def test_parallel_and_serial_runs_are_bit_identical(self):
        serial = replicate(_model(), 8, task="simulate", master_seed=11, parallelism=1)
        parallel = replicate(_model(), 8, task="simulate", master_seed=11, parallelism=2)
        _assert_identical(serial, parallel)

    def test_importing_the_package_leaves_the_process_pool_out(self):
        # the pool pulls in multiprocessing, socket and selectors; only a
        # replicate call with more than one worker imports it.  The package
        # needs numpy alone, so no scipy module may load either.
        probe = (
            "import sys, prefattach; print('multiprocessing' in sys.modules,"
            " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "False []"

    def test_runs_are_stable_across_calls(self):
        a = replicate(_model(), 3, task="simulate", master_seed=5)
        b = replicate(_model(), 3, task="simulate", master_seed=5)
        _assert_identical(a, b)

    def test_runs_react_to_the_master_seed(self):
        a = replicate(_model(), 3, task="simulate", master_seed=5)
        b = replicate(_model(), 3, task="simulate", master_seed=6)
        assert not _same_runs(a, b)

    def test_replicates_come_back_in_index_order(self):
        agg = replicate(_model(), 6, task="simulate", master_seed=2, parallelism=2)
        assert [r.index for r in agg.replicates] == list(range(6))


class TestPooling:
    def test_pooled_degree_total_is_the_exact_handshake_sum(self):
        reps, n = 100, 10_000
        agg = replicate(_model(n=n), reps, task="simulate", master_seed=7)
        pooled_total = sum(j * c for j, c in agg.pooled_counts.items())
        assert pooled_total == reps * (2 + 2 * n)
        assert sum(agg.pooled_counts.values()) == reps * (n + 2)

    def test_pooled_counts_sum_the_per_run_counts(self):
        agg = replicate(_model(n=200), 5, task="simulate", master_seed=3)
        recombined = {}
        for rep in agg.replicates:
            for j, c in rep.counts.items():
                recombined[j] = recombined.get(j, 0) + c
        assert recombined == agg.pooled_counts


class TestEmbedTask:
    def test_embed_summaries_carry_event_times_and_weights(self):
        n = 200
        agg = replicate(_model(n=n), 3, task="embed", master_seed=5)
        for rep in agg.replicates:
            assert rep.taus.shape == (n,)
            assert rep.s_values.shape == (n + 1,)
            assert np.all(np.diff(rep.taus) > 0)
        assert sum(agg.pooled_counts.values()) == 3 * (n + 2)

    @pytest.mark.parametrize("law", [deterministic(1), deterministic(3), geometric(0.5)])
    @pytest.mark.parametrize("n", [1, 100, 5000])
    def test_embed_counts_are_the_size_multiset_in_size_order(self, law, n):
        model = _model(n=n, edge_law=law)
        (rep,) = replicate(model, 1, task="embed", master_seed=9).replicates
        res = run_embedding(law, 0.0, n, np.random.default_rng(mix64(9, 0)))
        sizes, counts = np.unique(res.sizes, return_counts=True)
        expected = dict(zip(sizes.tolist(), counts.tolist()))
        assert list(rep.counts.items()) == list(expected.items())
        assert all(type(k) is int and type(c) is int for k, c in rep.counts.items())

    def test_unknown_task_is_rejected(self):
        with pytest.raises(RangeError):
            replicate(_model(), 2, task="nope")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seeds_outside_64_bits_are_rejected(self, seed):
        with pytest.raises(RangeError) as err:
            replicate(_model(n=10), 2, master_seed=seed)
        assert err.value.field == "master_seed"


@pytest.mark.parametrize("parallelism", [0, -3, 2.7, True])
def test_parallelism_must_be_a_positive_integer(parallelism):
    with pytest.raises(RangeError) as err:
        replicate(_model(n=10), 2, parallelism=parallelism)
    assert err.value.field == "parallelism"


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap in a pool that records max_workers and maps in-process, on 4 CPUs."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # replicate imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return sizes


class TestPoolCap:
    @pytest.mark.parametrize(
        ("parallelism", "replications", "workers"),
        [(10**9, 3, 3), (10**9, 10, 4), (2, 10, 2), (3, 3, 3)],
    )
    def test_pool_size_is_the_smallest_of_the_three(
        self, pool_sizes, parallelism, replications, workers
    ):
        agg = replicate(_model(n=50), replications, master_seed=4, parallelism=parallelism)
        assert pool_sizes == [workers]
        _assert_identical(agg, replicate(_model(n=50), replications, master_seed=4))

    @pytest.mark.parametrize(("parallelism", "replications"), [(10**9, 1), (1, 10)])
    def test_one_worker_runs_in_process(self, pool_sizes, parallelism, replications):
        replicate(_model(n=50), replications, parallelism=parallelism)
        assert pool_sizes == []

    def test_unknown_cpu_count_runs_in_process(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        replicate(_model(n=50), 5, parallelism=8)
        assert pool_sizes == []

    def test_cli_parallelism_is_capped(self, pool_sizes, tmp_path):
        args = ["simulate", "--n", "50", "--reps", "3", "--parallelism", str(10**9)]
        assert main(args + ["--out", str(tmp_path)]) == 0
        assert pool_sizes == [3]

    def test_verify_session_parallelism_is_capped(self, pool_sizes):
        session = VerifySession(profile="quick", parallelism=10**9)
        session.ensemble_n = 100
        session.ensemble()
        assert pool_sizes == [4]


# -- batches -------------------------------------------------------------------

BATCH_LAWS = [deterministic(1), deterministic(3), geometric(0.5), explicit([0.5, 0.3, 0.2])]


def _one_at_a_time(model, replications, task, master_seed):
    """The summaries of ``replicate``, from one run_chain or run_embedding call each."""
    out = []
    for index in range(replications):
        seed = mix64(master_seed, index)
        if task == "simulate":
            run = run_chain(replace(model, seed=seed))
            out.append(
                ChainSummary(
                    index, dict(run.ledger.counts), run.steps, run.probes,
                    run.max_series, run.argmax_series,
                )
            )
        else:
            res = run_embedding(model.edge_law, model.beta, model.n, np.random.default_rng(seed))
            sizes, counts = np.unique(res.sizes, return_counts=True)
            counts = dict(zip(sizes.tolist(), counts.tolist()))
            out.append(EmbedSummary(index, counts, res.taus, res.s_values))
    return out


def _assert_each_replicate_alone(model, replications, task, master_seed=21, parallelism=1):
    agg = replicate(model, replications, task, master_seed, parallelism)
    expected = _one_at_a_time(model, replications, task, master_seed)
    assert len(agg.replicates) == replications
    for got, want in zip(agg.replicates, expected):
        assert type(got) is type(want)
        for f in fields(want):
            assert _equal(getattr(got, f.name), getattr(want, f.name)), (got.index, f.name)
    pooled = {}
    for summary in expected:
        for j, c in summary.counts.items():
            pooled[j] = pooled.get(j, 0) + c
    assert agg.pooled_counts == pooled


class TestBatches:
    """Batched replicates equal the same replicates run one at a time, field by field."""

    @pytest.mark.parametrize(
        ("n", "replications", "batch"),
        [
            (100, 31, 1), (100, 32, 327), (0, 32, _BATCH_STEPS), (1000, 32, 32), (1024, 500, 32),
            (1025, 500, 1),
        ],
    )
    def test_the_size_rule(self, n, replications, batch):
        assert _batch_size(n, replications) == batch

    def test_no_batch_reaches_the_rounds(self):
        # a batch advances in lockstep, which equals run_embedding's heap only
        assert _batch_size(_ROUNDS_MIN_EVENTS, 10**9) == 1

    @pytest.mark.parametrize(("replications", "singles"), [(31, 31), (32, 0)])
    def test_only_small_calls_make_one_run_per_replicate(self, monkeypatch, replications, singles):
        # the package attribute ``replicate`` is the function, not the module
        replicate_module = importlib.import_module("prefattach.replicate")
        calls = []
        real = replicate_module.run_chain

        def counting(config, *args):
            calls.append(config.seed)
            return real(config, *args)

        monkeypatch.setattr(replicate_module, "run_chain", counting)
        replicate(_model(n=100), replications, master_seed=3)
        assert len(calls) == singles

    @pytest.mark.parametrize("law", BATCH_LAWS, ids=lambda law: law.label())
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 100, 1024])
    @pytest.mark.parametrize("task", ["simulate", "embed"])
    def test_every_field_matches_a_run_alone(self, law, beta, n, task):
        # 33 replicates: one batch below n = 1024, a full batch plus one at it
        for stride in (1, max(n, 1)) if task == "simulate" else (1,):
            model = _model(
                n=n, beta=beta, edge_law=law, probe_vertices=(1, 2, n + 2), record_stride=stride
            )
            _assert_each_replicate_alone(model, 33, task)

    @pytest.mark.parametrize("task", ["simulate", "embed"])
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("replications", [32, 33, 328])  # 327 replicates fill a batch at n = 100
    def test_replication_counts_and_parallelism(self, task, parallelism, replications):
        model = _model(n=100, beta=1.0, edge_law=geometric(0.5), probe_vertices=(1, 50))
        _assert_each_replicate_alone(model, replications, task, parallelism=parallelism)


class UnitClocks:
    """A generator whose exponentials are all 1.0, so clocks tie often."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_exponential(self, size, out=None):
        if out is None:
            return np.ones(size)
        out[...] = 1.0
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("law", [deterministic(1), geometric(0.5)], ids=lambda law: law.label())
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_lockstep_breaks_clock_ties_as_the_heap_does(law, beta):
    n = 200
    batch = _run_lockstep(law, beta, n, [UnitClocks(s) for s in range(8)])
    for seed, got in enumerate(batch):
        want = run_embedding(law, beta, n, UnitClocks(seed))
        assert np.unique(want.taus).shape[0] < n  # event times do tie
        for f in fields(want):
            assert _equal(getattr(got, f.name), getattr(want, f.name)), (seed, f.name)
