"""Replication fan-out: determinism, pooling, and parallel equivalence."""

import importlib
import os

import numpy as np
import pytest

from prefattach.cli import main
from prefattach.errors import RangeError
from prefattach.graph import ModelConfig, run_chain
from prefattach.laws import deterministic
from prefattach.replicate import replicate
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


class TestDeterminism:
    def test_replicate_zero_matches_a_direct_run(self):
        agg = replicate(_model(), 4, task="simulate", master_seed=11)
        direct = run_chain(_model(seed=mix64(11, 0)))
        assert agg.replicates[0].counts == dict(direct.ledger.counts)
        assert agg.replicates[0].max_series[-1] == direct.ledger.max_degree
        assert agg.replicates[0].argmax_series[-1] == direct.ledger.argmax

    def test_parallel_and_serial_runs_are_bit_identical(self):
        serial = replicate(_model(), 8, task="simulate", master_seed=11, parallelism=1)
        parallel = replicate(_model(), 8, task="simulate", master_seed=11, parallelism=2)
        assert serial.digest() == parallel.digest()

    def test_digest_is_stable_across_calls(self):
        a = replicate(_model(), 3, task="simulate", master_seed=5)
        b = replicate(_model(), 3, task="simulate", master_seed=5)
        assert a.digest() == b.digest()

    def test_digest_reacts_to_the_master_seed(self):
        a = replicate(_model(), 3, task="simulate", master_seed=5)
        b = replicate(_model(), 3, task="simulate", master_seed=6)
        assert a.digest() != b.digest()

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

    module = importlib.import_module("prefattach.replicate")
    monkeypatch.setattr(module, "ProcessPoolExecutor", SerialPool)
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
        assert agg.digest() == replicate(_model(n=50), replications, master_seed=4).digest()

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
