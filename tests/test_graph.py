"""Growing-graph runs: exact bookkeeping and the selection law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefattach.analysis import distribution_distance, empirical_distribution, uniformity_ks
from prefattach.errors import RangeError
from prefattach.graph import ModelConfig, _draw_steps, _resolve_targets, run_chain
from prefattach.laws import EdgeCountDistribution, deterministic, explicit, geometric
from prefattach.streams import substream
from prefattach.theory import pi_recursive


def validate_run(run):
    """Assert the ledger's invariants against the run's size and series."""
    deg = run.ledger.degrees
    assert deg.shape[0] == run.config.n + 2
    assert np.all(deg >= 1), "every vertex keeps degree >= 1"
    assert int(deg.sum()) % 2 == 0, "handshake identity: each edge has two ends"
    counted = {}
    for d in deg.tolist():
        counted[d] = counted.get(d, 0) + 1
    assert counted == run.ledger.counts, "degree counts mirror the degree sequence"
    assert run.max_series[-1] == deg.max()
    assert run.argmax_series[-1] == 1 + int(np.argmax(deg)), "smallest label at the maximum"


def _targets(cfg):
    """The target of every step of cfg's run, entry 0 the seed edge's vertex 1."""
    return _resolve_targets(*_draw_steps(cfg, np.random.default_rng(cfg.seed)))


def _selection_pits(cfg, rng):
    """Randomized PIT of every pick of cfg's run, from an independent step loop.

    Before step k the weights are w_v = d_v + beta over vertices 1..k+1, with
    total W = T + (k+1) beta.  The step's target i gives u_k = (W_{<i} + V w_i)
    / W, V ~ U(0, 1) from ``rng``; the u_k are exactly iid uniform when every
    pick follows the weights.  Returns them with the final degrees.
    """
    x, uniform, pick = _draw_steps(cfg, np.random.default_rng(cfg.seed))
    targets = _resolve_targets(x, uniform, pick)
    beta, n = cfg.beta, cfg.n
    deg = np.zeros(n + 3)  # deg[v] for labels 1..n+2
    deg[1:3] = 1
    total = 2.0
    jitter = rng.random(n)
    pits = np.empty(n)
    for k in range(1, n + 1):
        i, xk = int(targets[k]), int(x[k])
        assert 1 <= i <= k + 1, f"step {k} picked the unborn vertex {i}"
        below = deg[1:i].sum() + (i - 1) * beta
        pits[k - 1] = (below + jitter[k - 1] * (deg[i] + beta)) / (total + (k + 1) * beta)
        deg[i] += xk
        deg[k + 2] = xk
        total += 2 * xk
    return pits, deg[1:]


def _starting_run():
    return run_chain(ModelConfig(beta=0.0, edge_law=deterministic(1), n=0))


class TestStartingState:
    def test_two_vertices_one_edge(self):
        led = _starting_run().ledger
        assert led.degrees.tolist() == [1, 1]
        assert led.counts == {1: 2}

    def test_maximum_starts_at_smallest_label(self):
        run = _starting_run()
        assert run.max_series.tolist() == [1]
        assert run.argmax_series.tolist() == [1]


class TestSelectionLaw:
    @pytest.mark.parametrize(
        ("law", "beta"),
        [
            (deterministic(1), 0.0),
            (deterministic(3), 0.5),
            (geometric(0.5), 1.0),
            (explicit([0.5, 0.3, 0.2]), 2.0),
        ],
    )
    def test_every_pick_follows_the_degree_plus_beta_weights(self, law, beta):
        # sqrt(N) KS = 1.95 is about p = 0.001.  Uniform attachment reads
        # 11-19 here; dropping the beta mixture 4-8 at geom and explicit.
        pits = []
        for seed in range(10):
            cfg = ModelConfig(beta=beta, edge_law=law, n=1000, seed=seed)
            u, deg = _selection_pits(cfg, substream(31, seed))
            assert deg.tolist() == run_chain(cfg).ledger.degrees.tolist()
            pits.append(u)
        pits = np.concatenate(pits)
        assert np.sqrt(pits.shape[0]) * uniformity_ks(pits) < 1.95


class TestChainRuns:
    def test_degree_total_is_twice_the_edge_count(self):
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=10_000, seed=3)
        assert int(run_chain(cfg).ledger.degrees.sum()) == 2 + 2 * 10_000

    def test_count_closure_is_exact(self):
        cfg = ModelConfig(beta=0.5, edge_law=explicit([0.5, 0.5]), n=2_000, seed=4)
        led = run_chain(cfg).ledger
        assert sum(led.counts.values()) == 2_000 + 2
        assert sum(j * c for j, c in led.counts.items()) == int(led.degrees.sum())

    def test_weight_denominator_identity_is_exact(self):
        beta = 0.5  # dyadic, so float arithmetic below is exact
        cfg = ModelConfig(beta=beta, edge_law=geometric(0.5), n=300, seed=5)
        led = run_chain(cfg).ledger
        lhs = int(led.degrees.sum()) + (cfg.n + 2) * beta
        rhs = sum(j * c for j, c in led.counts.items()) + (cfg.n + 2) * beta
        assert lhs == rhs

    def test_zero_steps_returns_the_starting_state(self):
        run = run_chain(ModelConfig(beta=0.0, edge_law=deterministic(1), n=0))
        assert run.ledger.degrees.tolist() == [1, 1]
        assert run.steps.tolist() == [0]

    def test_same_seed_reproduces_the_run_exactly(self):
        cfg = ModelConfig(
            beta=0.25,
            edge_law=geometric(0.5),
            n=500,
            probe_vertices=(1, 2),
            record_stride=25,
            seed=77,
        )
        a, b = run_chain(cfg), run_chain(cfg)
        assert np.array_equal(a.ledger.degrees, b.ledger.degrees)
        assert a.ledger.counts == b.ledger.counts
        assert np.array_equal(a.max_series, b.max_series)
        assert all(np.array_equal(a.probes[v], b.probes[v]) for v in (1, 2))

    def test_recording_hits_stride_multiples_and_the_final_step(self):
        cfg = ModelConfig(
            beta=0.0, edge_law=deterministic(1), n=105, record_stride=10, seed=0
        )
        run = run_chain(cfg)
        assert run.steps.tolist() == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 105]
        assert run.max_series.shape == run.steps.shape
        assert run.argmax_series.shape == run.steps.shape

    def test_probe_of_an_unborn_vertex_reads_zero_then_its_degree(self):
        cfg = ModelConfig(
            beta=0.0,
            edge_law=deterministic(1),
            n=50,
            probe_vertices=(5,),
            record_stride=1,
            seed=1,
        )
        run = run_chain(cfg)
        series = run.probes[5]
        assert series[0] == 0  # vertex 5 appears at step 2
        assert series[-1] >= 1
        assert np.all(np.diff(series) >= 0)

    def test_snapshots_capture_the_counts_at_requested_steps(self):
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=100, seed=2)
        run = run_chain(cfg, snapshot_steps=(50, 100))
        assert set(run.snapshots) == {50, 100}
        assert sum(run.snapshots[50].values()) == 52
        assert sum(run.snapshots[100].values()) == 102

    def test_maximum_tracks_the_smallest_attaining_label(self):
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=500, seed=9)
        validate_run(run_chain(cfg))

    def test_guard_refuses_to_grow_past_the_exact_integer_range(self, monkeypatch):
        def no_draws(self, rng, size):
            raise AssertionError(f"asked to draw {size} edge counts")

        # the edge counts are the run's first n-sized allocation
        monkeypatch.setattr(EdgeCountDistribution, "sample", no_draws)
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=10**16)
        with pytest.raises(RangeError) as err:
            run_chain(cfg)
        assert err.value.field == "model.n"
        # the endpoint bound alone also trips: few labels, huge edge counts
        with pytest.raises(RangeError):
            run_chain(ModelConfig(beta=0.0, edge_law=deterministic(10**9), n=10**7))

    def test_a_tied_maximum_goes_to_the_smaller_label(self):
        # Two steps of det:1, beta = 0: the targets are (2, 1) for some seeds
        # and (1, 2) for others; either way both roots end at degree 2.
        seen = {}
        for seed in range(64):
            cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=2, seed=seed)
            seen.setdefault(tuple(_targets(cfg)[1:].tolist()), run_chain(cfg))
        late, early = seen[(2, 1)], seen[(1, 2)]
        # vertex 2 leads after step 1; vertex 1 ties it at step 2 and takes I_n
        assert late.max_series.tolist() == [1, 2, 2]
        assert late.argmax_series.tolist() == [1, 2, 1]
        # vertex 1 leads; vertex 2 ties it but does not take I_n
        assert early.argmax_series.tolist() == [1, 1, 1]


def _reference_loop(cfg, snapshot_steps):
    """One step at a time, from the sampler's own up-front draws.

    Keeps the endpoint list (edge e as entries 2e, 2e + 1: target, new
    vertex), the degrees and the running maximum with its smallest-label
    tie-break, exactly as a per-step chain would, and returns the target of
    every step (entry 0: vertex 1).
    """
    x, uniform, pick = _draw_steps(cfg, np.random.default_rng(cfg.seed))
    ends, deg, targets = [1, 2], [0, 1, 1], [1]
    peak, arg = 1, 1
    rec = {"steps": [], "max": [], "arg": [], "probes": {v: [] for v in cfg.probe_vertices}}
    snaps = {}

    def record(k):
        rec["steps"].append(k)
        rec["max"].append(peak)
        rec["arg"].append(arg)
        for v in cfg.probe_vertices:
            rec["probes"][v].append(deg[v] if v < len(deg) else 0)

    def snapshot(k):
        if k in snapshot_steps:
            counts = {}
            for d in deg[1:]:
                counts[d] = counts.get(d, 0) + 1
            snaps[k] = counts

    record(0)
    snapshot(0)
    for k in range(1, cfg.n + 1):
        xk, p = int(x[k]), int(pick[k - 1])
        i = p + 1 if uniform[k - 1] else ends[p]
        targets.append(i)
        ends.extend([i, k + 2] * xk)
        deg[i] += xk
        deg.append(xk)
        if deg[i] > peak or (deg[i] == peak and i < arg):
            peak, arg = deg[i], i
        if xk > peak:
            peak, arg = xk, k + 2
        if k % cfg.record_stride == 0 or k == cfg.n:
            record(k)
        snapshot(k)
    return targets, deg, rec, snaps


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize(
        "law", [deterministic(1), deterministic(3), geometric(0.5), explicit([0.5, 0.3, 0.2])]
    )
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    def test_vectorised_pass_matches_the_step_loop_exactly(self, law, beta):
        for seed, n in enumerate((0, 1, 2, 7, 60, 600)):
            cfg = ModelConfig(
                beta=beta,
                edge_law=law,
                n=n,
                # n + 2, the last vertex, is born at the last step
                probe_vertices=tuple(v for v in (1, 2, 3, 9) if v < n + 2) + (n + 2,),
                record_stride=1 if seed % 2 else 3,
                seed=seed,
            )
            wanted = (0, n // 3, n)
            run = run_chain(cfg, snapshot_steps=wanted + (-1, n + 1))
            targets, deg, rec, snaps = _reference_loop(cfg, wanted)
            assert _targets(cfg).tolist() == targets
            assert run.ledger.degrees.tolist() == deg[1:]
            assert run.steps.tolist() == rec["steps"]
            assert run.max_series.tolist() == rec["max"]
            assert run.argmax_series.tolist() == rec["arg"]
            assert {v: s.tolist() for v, s in run.probes.items()} == rec["probes"]
            assert run.snapshots == snaps

    @pytest.mark.parametrize(
        ("law", "beta"), [(deterministic(1), 0.0), (geometric(0.5), 1.0)]
    )
    def test_degree_frequencies_approach_the_limit_spectrum(self, law, beta):
        # the sampling noise at this n is about 0.003 in TV; the spectrum of
        # the other offset (beta = 1 vs 0) is 0.04-0.07 away
        run = run_chain(ModelConfig(beta=beta, edge_law=law, n=200_000, seed=12))
        dist = distribution_distance(empirical_distribution(run.ledger.counts), pi_recursive(law, beta, 60))
        assert dist.tv_core < 0.008


class TestConfigValidation:
    def test_negative_offset_is_rejected_with_a_field_path(self):
        with pytest.raises(RangeError) as err:
            ModelConfig(beta=-1.0, edge_law=deterministic(1), n=10)
        assert err.value.field == "model.beta"

    def test_negative_step_count_is_rejected(self):
        with pytest.raises(RangeError):
            ModelConfig(beta=0.0, edge_law=deterministic(1), n=-1)

    def test_vertex_labels_start_at_one(self):
        with pytest.raises(RangeError):
            ModelConfig(beta=0.0, edge_law=deterministic(1), n=10, probe_vertices=(0,))

    def test_the_last_vertex_is_a_probe(self):
        # vertex n + 2 is born at step n; test_inputs refuses n + 3
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=10, probe_vertices=(12,))
        assert run_chain(cfg).probes[12].tolist() == [0] * 10 + [1]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.0, True])
    def test_seeds_outside_64_bits_are_rejected(self, seed):
        with pytest.raises(RangeError) as err:
            ModelConfig(beta=0.0, edge_law=deterministic(1), n=10, seed=seed)
        assert err.value.field == "model.seed"

    def test_largest_seed_runs(self):
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=10, seed=np.uint64(2**64 - 1))
        assert type(cfg.seed) is int
        assert run_chain(cfg).ledger.degrees.shape[0] == 12


@settings(max_examples=25)
@given(
    law=st.sampled_from(
        [deterministic(1), deterministic(3), explicit([0.5, 0.5]), geometric(0.6)]
    ),
    beta=st.sampled_from([0.0, 0.25, 1.0, 2.5]),
    n=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_ledger_invariants_hold_for_any_small_run(law, beta, n, seed):
    run = run_chain(ModelConfig(beta=beta, edge_law=law, n=n, seed=seed))
    validate_run(run)
    assert int(run.ledger.degrees.sum()) >= 2 * (n + 1), "every step adds at least one edge"
