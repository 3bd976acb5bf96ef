"""Growing-graph ledger: exact bookkeeping and selection probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefattach.analysis import distribution_distance, empirical_distribution
from prefattach.errors import RangeError
from prefattach.graph import (
    DegreeLedger,
    ModelConfig,
    _draw_steps,
    choose_vertex,
    run_chain,
)
from prefattach.laws import EdgeCountDistribution, deterministic, explicit, geometric
from prefattach.streams import substream
from prefattach.theory import pi_recursive


def validate_ledger(ledger):
    """Assert the ledger's internal invariants."""
    deg = ledger.degrees
    assert np.all(deg >= 1), "every vertex keeps degree >= 1"
    assert int(deg.sum()) == ledger.total_degree
    assert ledger.total_degree % 2 == 0, "handshake identity: each edge has two ends"
    counted = {}
    for d in deg.tolist():
        counted[d] = counted.get(d, 0) + 1
    assert counted == ledger.counts, "degree counts mirror the degree sequence"
    assert sum(ledger.counts.values()) == ledger.step + 2
    ends = ledger.endpoints
    assert ends.shape[0] == ledger.total_degree
    mult = np.bincount(ends, minlength=deg.shape[0] + 1)[1:]
    assert np.array_equal(mult, deg), "endpoint multiplicities equal degrees"
    assert ledger.max_degree == int(deg.max())
    assert int(deg[ledger.argmax - 1]) == ledger.max_degree


def _selection_frequencies(ledger, beta, n_draws, rng):
    """Empirical pick frequencies over repeated non-mutating draws."""
    hits = np.zeros(ledger.step + 3)
    for _ in range(n_draws):
        hits[choose_vertex(ledger, beta, rng)] += 1
    return hits[1:] / n_draws


def _starting_ledger():
    return run_chain(ModelConfig(beta=0.0, edge_law=deterministic(1), n=0)).ledger


class TestStartingState:
    def test_two_vertices_one_edge(self):
        led = _starting_ledger()
        assert led.total_degree == 2
        assert led.degrees.tolist() == [1, 1]
        assert led.endpoints.tolist() == [1, 2]
        assert led.counts == {1: 2}
        assert sum(led.counts.values()) == 2

    def test_maximum_starts_at_smallest_label(self):
        led = _starting_ledger()
        assert led.max_degree == 1
        assert led.argmax == 1


class TestSelection:
    def test_both_roots_equally_likely_at_the_start(self):
        led = _starting_ledger()
        freq = _selection_frequencies(led, 0.0, 200_000, substream(31, 0))
        sigma = np.sqrt(0.25 / 200_000)
        assert abs(freq[0] - 0.5) < 4 * sigma
        assert abs(freq[1] - 0.5) < 4 * sigma

    def test_two_vertex_state_with_offset_weight(self):
        # degrees (3, 1) with offset 1: pick probabilities (4/6, 2/6)
        led = DegreeLedger.from_degrees([3, 1])
        n = 1_000_000
        freq = _selection_frequencies(led, 1.0, n, substream(31, 1))
        sigma = np.sqrt((4 / 6) * (2 / 6) / n)
        assert abs(freq[0] - 4 / 6) < 3 * sigma

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.5])
    def test_four_vertex_state_matches_weights(self, beta):
        degrees = [4, 2, 1, 1]
        led = DegreeLedger.from_degrees(degrees)
        n = 1_000_000
        freq = _selection_frequencies(led, beta, n, substream(31, 10 + int(2 * beta)))
        weights = np.array(degrees, float) + beta
        probs = weights / weights.sum()
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) < 4 * sigma)

    def test_huge_offset_washes_out_the_degrees(self):
        led = DegreeLedger.from_degrees([5, 1, 1, 1])
        n = 200_000
        freq = _selection_frequencies(led, 1e9, n, substream(31, 2))
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) < 4 * sigma + 1e-6)


class TestChainRuns:
    def test_degree_total_is_twice_the_edge_count(self):
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=10_000, seed=3)
        run = run_chain(cfg)
        assert run.ledger.total_degree == 2 + 2 * 10_000

    def test_count_closure_is_exact(self):
        cfg = ModelConfig(beta=0.5, edge_law=explicit([0.5, 0.5]), n=2_000, seed=4)
        led = run_chain(cfg).ledger
        assert sum(led.counts.values()) == 2_000 + 2
        assert sum(j * c for j, c in led.counts.items()) == led.total_degree

    def test_weight_denominator_identity_is_exact(self):
        beta = 0.5  # dyadic, so float arithmetic below is exact
        cfg = ModelConfig(beta=beta, edge_law=geometric(0.5), n=300, seed=5)
        led = run_chain(cfg).ledger
        lhs = led.total_degree + (led.step + 2) * beta
        rhs = sum(j * c for j, c in led.counts.items()) + (led.step + 2) * beta
        assert lhs == rhs

    def test_endpoint_multiset_mirrors_degrees(self):
        cfg = ModelConfig(beta=1.0, edge_law=explicit([0.5, 0.5]), n=400, seed=6)
        led = run_chain(cfg).ledger
        validate_ledger(led)
        vals, mult = np.unique(led.endpoints, return_counts=True)
        assert np.array_equal(vals, np.arange(1, led.step + 3))
        assert np.array_equal(mult, led.degrees)

    def test_zero_steps_returns_the_starting_state(self):
        run = run_chain(ModelConfig(beta=0.0, edge_law=deterministic(1), n=0))
        assert run.ledger.total_degree == 2
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
        assert DegreeLedger.from_degrees([1, 3, 3]).argmax == 2
        assert DegreeLedger.from_degrees([2, 2, 1]).argmax == 1
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=500, seed=9)
        validate_ledger(run_chain(cfg).ledger)

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
            run = run_chain(ModelConfig(beta=0.0, edge_law=deterministic(1), n=2, seed=seed))
            seen.setdefault(tuple(run.ledger.endpoints[2::2].tolist()), run)
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
    tie-break, exactly as a per-step chain would.
    """
    x, uniform, pick = _draw_steps(cfg, np.random.default_rng(cfg.seed))
    ends, deg = [1, 2], [0, 1, 1]
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
    return ends, deg, rec, snaps


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
                probe_vertices=(1, 2, 3, 9, 10**6),
                record_stride=1 if seed % 2 else 3,
                seed=seed,
            )
            wanted = (0, n // 3, n)
            run = run_chain(cfg, snapshot_steps=wanted + (-1, n + 1))
            ends, deg, rec, snaps = _reference_loop(cfg, wanted)
            assert run.ledger.endpoints.tolist() == ends
            assert run.ledger.degrees.tolist() == deg[1:]
            assert run.steps.tolist() == rec["steps"]
            assert run.max_series.tolist() == rec["max"]
            assert run.argmax_series.tolist() == rec["arg"]
            assert {v: s.tolist() for v, s in run.probes.items()} == rec["probes"]
            assert run.snapshots == snaps
            assert (run.ledger.max_degree, run.ledger.argmax) == (rec["max"][-1], rec["arg"][-1])

    @pytest.mark.parametrize(
        ("law", "beta"), [(deterministic(1), 0.0), (geometric(0.5), 1.0)]
    )
    def test_degree_frequencies_approach_the_limit_spectrum(self, law, beta):
        # the sampling noise at this n is about 0.003 in TV; the spectrum of
        # the other offset (beta = 1 vs 0) is 0.04-0.07 away
        run = run_chain(ModelConfig(beta=beta, edge_law=law, n=200_000, seed=12))
        dist = distribution_distance(empirical_distribution(run.ledger), pi_recursive(law, beta, 60))
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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.0, True])
    def test_seeds_outside_64_bits_are_rejected(self, seed):
        with pytest.raises(RangeError) as err:
            ModelConfig(beta=0.0, edge_law=deterministic(1), n=10, seed=seed)
        assert err.value.field == "model.seed"

    def test_largest_seed_runs(self):
        cfg = ModelConfig(beta=0.0, edge_law=deterministic(1), n=10, seed=np.uint64(2**64 - 1))
        assert type(cfg.seed) is int
        assert run_chain(cfg).ledger.step == 10


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
    cfg = ModelConfig(beta=beta, edge_law=law, n=n, seed=seed)
    led = run_chain(cfg).ledger
    validate_ledger(led)
    assert sum(led.counts.values()) == n + 2
    assert led.total_degree >= 2 * (n + 1), "every step adds at least one edge"
