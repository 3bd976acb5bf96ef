"""Continuous-time growth processes and the event-time construction."""

import math
from collections import Counter

import numpy as np
import pytest

from prefattach.analysis import embedding_equivalence_test
from prefattach.branching import (
    BranchingConfig,
    JumpPath,
    _PathBuffers,
    run_embedding,
    simulate_mbp,
    simulate_mbpi,
    tau_diagnostics,
    zeta_trajectory,
)
from prefattach.errors import MismatchedLengths, RangeError
from prefattach.graph import ModelConfig, run_chain
from prefattach.laws import deterministic, explicit, geometric
from prefattach.streams import substream


class TestJumpPath:
    def test_event_times_must_strictly_increase(self):
        with pytest.raises(RangeError):
            JumpPath(
                initial=1,
                times=np.array([2.0, 1.0]),
                values=np.array([2, 3], np.int64),
            )
        with pytest.raises(RangeError):
            JumpPath(
                initial=1,
                times=np.array([1.0, 1.0]),
                values=np.array([2, 3], np.int64),
            )

    def test_every_jump_adds_at_least_one(self):
        with pytest.raises(RangeError):
            JumpPath(initial=1, times=np.array([1.0]), values=np.array([1], np.int64))

    def test_final_size_is_the_last_value_or_the_start(self):
        path = JumpPath(
            initial=1, times=np.array([1.0, 2.0]), values=np.array([2, 3], np.int64)
        )
        assert path.final == 3
        empty = JumpPath(initial=4, times=np.empty(0), values=np.empty(0, np.int64))
        assert empty.final == 4


WAIT_REPS = 50_000


def _capped_wait(rate, horizon):
    """E min(tau, h) for tau ~ Exp(rate)."""
    return -np.expm1(-rate * horizon) / rate


def _mean_first_wait(cfg, horizon, rng):
    """Mean of min(first event time, horizon) over WAIT_REPS paths."""
    paths = (simulate_mbpi(cfg, horizon, rng) for _ in range(WAIT_REPS))
    return np.mean([p.times[0] if p.times.size else horizon for p in paths])


class CountingGenerator:
    """A generator that counts the exponential variates drawn through it and
    the calls (one per block of a size path) that drew them."""

    def __init__(self, rng):
        self.rng = rng
        self.exponentials = 0
        self.calls = 0

    def standard_exponential(self, size, out=None):
        self.exponentials += size
        self.calls += 1
        return self.rng.standard_exponential(size, out=out)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestConfig:
    @pytest.mark.parametrize("initial", [0, -3, 2.5, 2.0, True, None, "2"])
    def test_initial_size_must_be_an_integer_of_at_least_one(self, initial):
        with pytest.raises(RangeError) as err:
            BranchingConfig(edge_law=deterministic(1), initial=initial)
        assert err.value.field == "branching.initial"

    def test_numpy_integer_initial_size_is_accepted(self):
        cfg = BranchingConfig(edge_law=deterministic(1), initial=np.int64(4))
        assert cfg.initial == 4 and type(cfg.initial) is int


class TestHorizon:
    @pytest.mark.parametrize("horizon", [np.inf, -np.inf, np.nan, -1.0])
    @pytest.mark.parametrize("representation", ["jump-chain", "superposition"])
    def test_horizon_must_be_finite_and_nonnegative(self, horizon, representation):
        cfg = BranchingConfig(edge_law=deterministic(1), beta=1.0, initial=1)
        with pytest.raises(RangeError) as err:
            simulate_mbpi(cfg, horizon, substream(40, 0), representation=representation)
        assert err.value.field == "horizon"

    def test_pure_process_refuses_an_infinite_horizon(self):
        cfg = BranchingConfig(edge_law=deterministic(1), beta=0.0, initial=1)
        with pytest.raises(RangeError) as err:
            simulate_mbp(cfg, np.inf, substream(40, 1))
        assert err.value.field == "horizon"


class TestBlockSizes:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_blocks_sized_from_the_expected_count_draw_little_past_the_horizon(self, beta):
        # the size-limit check's scale: about 30,000 events per path
        cfg = BranchingConfig(edge_law=deterministic(1), beta=beta, initial=10)
        rng = CountingGenerator(substream(40, 2 + int(beta)))
        kept = sum(simulate_mbpi(cfg, 8.0, rng).times.size for _ in range(100))
        assert kept > 100 * 20_000
        assert rng.exponentials <= 1.5 * kept


class TestPureGrowth:
    def test_zero_horizon_means_no_events(self):
        cfg = BranchingConfig(edge_law=deterministic(1), beta=0.0, initial=1)
        path = simulate_mbp(cfg, 0.0, substream(41, 5))
        assert path.times.size == 0
        assert path.final == path.initial == 1

    def test_unit_step_growth_has_exponential_mean(self):
        # with X = 1 the size at time t has mean e^t; at t = 1 the standard
        # deviation is sqrt(e^2 - e) ~ 2.16
        cfg = BranchingConfig(edge_law=deterministic(1), beta=0.0, initial=1)
        rng = substream(41, 0)
        reps = 100_000
        finals = np.fromiter(
            (simulate_mbp(cfg, 1.0, rng).final for _ in range(reps)), dtype=np.int64
        )
        sigma = np.sqrt(np.e**2 - np.e)
        assert abs(finals.mean() - np.e) < 3 * sigma / np.sqrt(reps)

    def test_first_wait_from_size_three_has_rate_three(self):
        # E min(tau_1, h) = (1 - e^{-rh}) / r at rate r = 3; its sd is below 1/r
        cfg = BranchingConfig(edge_law=deterministic(1), beta=0.0, initial=3)
        assert abs(_mean_first_wait(cfg, 0.5, substream(41, 1)) - _capped_wait(3.0, 0.5)) < (
            3 * (1 / 3) / np.sqrt(WAIT_REPS)
        )

    def test_path_values_record_cumulative_jumps(self):
        cfg = BranchingConfig(edge_law=explicit([0.5, 0.5]), beta=0.0, initial=2)
        path = simulate_mbp(cfg, 3.0, substream(41, 2))
        assert path.values[0] >= path.initial + 1
        assert np.all(np.diff(path.values) >= 1)
        assert np.all(np.diff(path.times) > 0)


class TestGrowthWithArrivals:
    def test_zero_arrival_rate_reduces_to_pure_growth(self):
        cfg = BranchingConfig(edge_law=geometric(0.5), beta=0.0, initial=1)
        base = simulate_mbp(cfg, 2.0, substream(42, 0))
        jump = simulate_mbpi(cfg, 2.0, substream(42, 0), representation="jump-chain")
        sup = simulate_mbpi(cfg, 2.0, substream(42, 0), representation="superposition")
        for other in (jump, sup):
            assert np.array_equal(base.times, other.times)
            assert np.array_equal(base.values, other.values)

    def test_first_wait_combines_size_and_arrival_rates(self):
        # from size 2 with arrival rate 1.5 the next event has rate 3.5
        cfg = BranchingConfig(edge_law=deterministic(1), beta=1.5, initial=2)
        assert abs(_mean_first_wait(cfg, 0.5, substream(42, 1)) - _capped_wait(3.5, 0.5)) < (
            3 * (1 / 3.5) / np.sqrt(WAIT_REPS)
        )

    @pytest.mark.parametrize("representation", ["jump-chain", "superposition"])
    def test_mean_growth_with_arrivals_solves_the_rate_equation(self, representation):
        # dE/dt = E + beta gives E D(t) = (D0 + beta) e^t - beta
        cfg = BranchingConfig(edge_law=deterministic(1), beta=1.0, initial=1)
        rng = substream(42, 2 if representation == "jump-chain" else 3)
        reps = 30_000
        finals = np.fromiter(
            (
                simulate_mbpi(cfg, 1.0, rng, representation=representation).final
                for _ in range(reps)
            ),
            dtype=np.int64,
        )
        expected = 2 * np.e - 1
        assert abs(finals.mean() - expected) < 4 * finals.std() / np.sqrt(reps)

    @pytest.mark.parametrize("representation", ["jump-chain", "superposition"])
    def test_mean_growth_with_a_non_unit_mean_jump(self, representation):
        # geom:0.5 has m = 2, so E D(t) = (D0 + beta) e^{mt} - beta
        cfg = BranchingConfig(edge_law=geometric(0.5), beta=1.0, initial=1)
        rng = substream(42, 6 if representation == "jump-chain" else 7)
        reps = 10_000
        finals = np.fromiter(
            (
                simulate_mbpi(cfg, 1.0, rng, representation=representation).final
                for _ in range(reps)
            ),
            dtype=np.int64,
        )
        expected = 2 * np.exp(2.0) - 1
        assert abs(finals.mean() - expected) < 4 * finals.std() / np.sqrt(reps)

    def test_both_representations_draw_the_same_distribution(self):
        cfg = BranchingConfig(edge_law=deterministic(1), beta=1.0, initial=1)
        reps = 10_000
        rng_a, rng_b = substream(42, 4), substream(42, 5)
        counts_a, counts_b = {}, {}
        for _ in range(reps):
            va = simulate_mbpi(cfg, 1.0, rng_a, representation="jump-chain").final
            vb = simulate_mbpi(cfg, 1.0, rng_b, representation="superposition").final
            counts_a[va] = counts_a.get(va, 0) + 1
            counts_b[vb] = counts_b.get(vb, 0) + 1
        from prefattach.analysis import embedding_equivalence_test

        result = embedding_equivalence_test(counts_a, counts_b)
        assert result.p_value > 0.001


class TestEventTimeConstruction:
    def test_zero_steps_leaves_the_two_unit_processes(self):
        emb = run_embedding(deterministic(1), 0.0, 0, substream(43, 0))
        assert emb.sizes.tolist() == [1, 1]
        assert emb.taus.size == 0
        assert emb.s_values.tolist() == [2.0]

    def test_first_event_time_is_exponential_in_the_total_weight(self):
        # at the start the total weight is 2, so the first event has mean 1/2
        rng = substream(43, 1)
        reps = 100_000
        taus = np.fromiter(
            (run_embedding(deterministic(1), 0.0, 1, rng).taus[0] for _ in range(reps)),
            dtype=float,
        )
        assert abs(taus.mean() - 0.5) < 3 * 0.5 / np.sqrt(reps)

    def test_bookkeeping_identities_hold_exactly(self):
        beta = 0.5  # dyadic keeps the float ledger exact
        n = 400
        emb = run_embedding(explicit([0.5, 0.5]), beta, n, substream(43, 2))
        xs = emb.xs.astype(np.int64)
        assert emb.sizes.sum() == 2 + 2 * xs.sum()
        assert emb.s_values[0] == 2 + 2 * beta
        expected = 2 + 2 * beta + 2 * np.cumsum(xs) + np.arange(1, n + 1) * beta
        assert np.array_equal(emb.s_values[1:], expected)
        assert np.all(np.diff(emb.taus) > 0)
        assert np.all(emb.chosen >= 1)
        assert np.all(emb.chosen <= np.arange(2, n + 2))

    @pytest.mark.parametrize("law", [deterministic(1), geometric(0.5)])
    def test_sizes_match_the_chain_degrees_with_arrivals(self, law):
        # every clock runs at size + beta; at beta = 0 a wrong offset would not show
        beta, n, reps = 1.0, 100, 300
        rng = substream(43, 9)
        chain, clocks = Counter(), Counter()
        for r in range(reps):
            chain.update(run_chain(ModelConfig(beta=beta, edge_law=law, n=n, seed=r)).ledger.counts)
            clocks.update(run_embedding(law, beta, n, rng).sizes.tolist())
        assert embedding_equivalence_test(chain, clocks).p_value > 0.001

    def test_process_count_grows_by_one_per_event(self):
        emb = run_embedding(geometric(0.5), 1.0, 25, substream(43, 3))
        assert emb.sizes.size == 27
        assert emb.start_times.size == 27
        assert emb.start_times[0] == emb.start_times[1] == 0.0
        assert np.all(np.diff(emb.start_times[1:]) >= 0)


class TestEventTimeDiagnostics:
    def test_centered_series_starts_at_the_first_residual(self):
        emb = run_embedding(deterministic(1), 0.0, 50, substream(43, 4))
        diag = tau_diagnostics(emb.taus, emb.s_values, m=1.0, beta=0.0)
        assert diag.alpha == 0.5
        assert diag.martingale_residual[0] == emb.taus[0] - 1 / emb.s_values[0]
        assert diag.log_drift_residual.shape == emb.taus.shape

    def test_rate_normalizer_reflects_mean_and_offset(self):
        emb = run_embedding(deterministic(1), 0.5, 10, substream(43, 5))
        diag = tau_diagnostics(emb.taus, emb.s_values, m=1.0, beta=0.5)
        assert diag.alpha == pytest.approx(1 / 2.5)

    def test_misaligned_series_are_rejected(self):
        emb = run_embedding(deterministic(1), 0.0, 20, substream(43, 6))
        with pytest.raises(MismatchedLengths):
            tau_diagnostics(emb.taus, emb.s_values[:-3], m=1.0, beta=0.0)


class TestScaledTrajectory:
    def test_exact_exponential_path_scales_to_a_flat_line(self):
        ks = np.arange(2, 60)
        path = JumpPath(initial=1, times=np.log(ks), values=ks.astype(np.int64))
        traj = zeta_trajectory(path, m=1.0)
        assert traj.tail_oscillation < 1e-12
        assert traj.scaled == pytest.approx(1.0, abs=1e-12)

    def test_eventless_path_reports_its_starting_point(self):
        cfg = BranchingConfig(edge_law=deterministic(1), beta=0.0, initial=1)
        path = simulate_mbp(cfg, 0.0, substream(43, 7))
        traj = zeta_trajectory(path, m=1.0)
        assert traj.scaled.tolist() == [1.0]
        assert traj.tail_oscillation == 0.0

    def test_real_path_plateau_is_positive(self):
        cfg = BranchingConfig(edge_law=deterministic(1), beta=0.0, initial=10)
        path = simulate_mbp(cfg, 6.0, substream(43, 8))
        traj = zeta_trajectory(path, m=1.0)
        assert 0 <= traj.tail_oscillation < math.inf  # infinite unless the plateau is positive


def concatenated_jump_chain(initial, beta, law, horizon, rng):
    """The jump chain with a fresh array per block, concatenated at the end:
    the same draws and arithmetic as the package's in-place kernel."""
    m, t, size = law.mean, 0.0, initial
    times_parts, value_parts = [], []
    while True:
        expected = (size + beta) * math.expm1(min(m * (horizon - t), 700.0)) / m
        b = int(min(expected + 64, 1 << 16))
        xs = law.sample(rng, b)
        post = size + np.cumsum(xs)
        rates = (post - xs) + beta
        ts = t + np.cumsum(rng.standard_exponential(b) / rates)
        cut = int(np.searchsorted(ts, horizon, side="right"))
        times_parts.append(ts[:cut])
        value_parts.append(post[:cut])
        if cut < b:
            return np.concatenate(times_parts), np.concatenate(value_parts)
        t, size = float(ts[-1]), int(post[-1])


class TestPathKernel:
    """The size-limit check's in-place kernel against the public route."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize(
        "law, horizon", [(deterministic(1), 8.0), (geometric(0.5), 4.0)], ids=["det:1", "geom:0.5"]
    )
    def test_public_paths_equal_the_concatenated_block_loop(self, law, horizon, beta):
        cfg = BranchingConfig(edge_law=law, beta=beta, initial=10)
        rng_a = CountingGenerator(substream(45, int(beta)))
        rng_b = substream(45, int(beta))
        for _ in range(6):
            path = simulate_mbpi(cfg, horizon, rng_a)
            times, values = concatenated_jump_chain(10, beta, law, horizon, rng_b)
            assert np.array_equal(path.times, times)
            assert np.array_equal(path.values, values)
        assert rng_a.calls > 6  # some path took two blocks or more

    @staticmethod
    def _pairs(law, beta, initial, horizon, stream, paths):
        """(kernel, public) statistics per path on identical substreams, and
        the largest number of blocks a kernel path took."""
        cfg = BranchingConfig(edge_law=law, beta=beta, initial=initial)
        public_rng = substream(44, stream)
        kernel_rng = CountingGenerator(substream(44, stream))
        buffers = _PathBuffers()
        pairs, most_blocks = [], 0
        for _ in range(paths):
            traj = zeta_trajectory(simulate_mbpi(cfg, horizon, public_rng), m=law.mean)
            calls = kernel_rng.calls
            n = buffers.draw(cfg.initial, cfg.beta, cfg.edge_law, horizon, kernel_rng)
            most_blocks = max(most_blocks, kernel_rng.calls - calls)
            kernel = buffers.plateau(n, law.mean)
            pairs.append((kernel, (traj.tail_oscillation, float(traj.scaled[-1]))))
        return pairs, most_blocks

    # horizon 8 in units of 1/m: det:1 runs to t = 8 (about 30,000 events
    # from size 10), geom:0.5 (m = 2) to t = 4 (about 16,000)
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize(
        "law, horizon", [(deterministic(1), 8.0), (geometric(0.5), 4.0)], ids=["det:1", "geom:0.5"]
    )
    def test_kernel_statistic_equals_the_public_trajectory(self, law, horizon, beta):
        pairs, most_blocks = self._pairs(law, beta, 10, horizon, int(beta), 12)
        assert most_blocks >= 2
        for kernel, public in pairs:
            assert kernel == public

    def test_eventless_path_at_horizon_zero(self):
        ((kernel, public),), _ = self._pairs(deterministic(1), 1.0, 10, 0.0, 2, 1)
        assert kernel == public == (0.0, 10.0)
