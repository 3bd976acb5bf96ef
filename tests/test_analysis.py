"""Empirical summaries, convergence detectors, and two-sample comparison."""

import copy
import dataclasses
import functools
import time
from unittest import mock

import numpy as np
import pytest

from prefattach import analysis
from prefattach.analysis import (
    chi2_sf,
    distribution_distance,
    embedding_equivalence_test,
    empirical_distribution,
    freeze_detector,
    max_degree_check,
    split_half_pvalues,
    tail_fit,
    trajectory_limit_check,
    uniformity_ks,
)
from prefattach.errors import RangeError
from prefattach.graph import ModelConfig, run_chain
from prefattach.laws import deterministic, explicit
from prefattach.replicate import replicate
from prefattach.streams import substream
from prefattach.theory import LimitSpectrum, pi_recursive


def _power_law_spectrum(exponent: float, j_max: int) -> LimitSpectrum:
    """A synthetic spectrum with an exactly known tail."""
    j = np.arange(j_max + 1, dtype=float)
    pi = np.zeros(j_max + 1)
    pi[1:] = j[1:] ** -exponent
    pi /= pi.sum()
    return LimitSpectrum(
        theta=0.5, pi=pi, tail_exponent=exponent, truncation_mass=0.0, rate=2.0
    )


class TestEmpiricalDistribution:
    def test_frequencies_normalize_over_vertices(self):
        emp = empirical_distribution({1: 4, 2: 2})
        assert sum(emp.counts.values()) == 6
        assert emp.freq[1] == pytest.approx(2 / 3)
        assert emp.freq[2] == pytest.approx(1 / 3)
        assert emp.support_max == 2
        assert sum(emp.freq.values()) == pytest.approx(1.0, abs=1e-12)


class TestTailFit:
    def test_exact_power_law_recovers_its_exponent(self):
        fit = tail_fit(_power_law_spectrum(3.0, 100), 5, 80)
        assert fit.slope == pytest.approx(-3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_bins == 76

    def test_empirical_counts_recover_a_planted_exponent(self):
        j = np.arange(1, 200)
        counts = {int(k): int(round(1e7 * k**-3.0)) for k in j}
        emp = empirical_distribution(counts)
        fit = tail_fit(emp, 3, 60)
        assert fit.slope == pytest.approx(-3.0, abs=0.02)

    def test_sparse_degrees_are_dropped_by_the_count_floor(self):
        emp = empirical_distribution({1: 100, 2: 50, 3: 4, 4: 30, 5: 20, 6: 10, 7: 8})
        fit = tail_fit(emp, 1, 30)
        assert fit.n_bins == 6  # j = 3 excluded

    def test_a_huge_fit_range_costs_only_the_observed_degrees(self):
        emp = empirical_distribution({int(k): int(1e6 * k**-3.0) + 5 for k in range(1, 200)})
        start = time.perf_counter()
        fit = tail_fit(emp, 3, 10**12)
        assert time.perf_counter() - start < 1.0
        assert fit == dataclasses.replace(tail_fit(emp, 3, emp.support_max), j_max=10**12)

    def test_too_few_usable_points_is_an_error(self):
        emp = empirical_distribution({1: 10, 2: 8, 3: 6})
        with pytest.raises(RangeError) as err:
            tail_fit(emp, 1, 3)
        assert err.value.field == "source"


class TestScaledSeriesChecks:
    def test_correctly_scaled_series_plateaus(self):
        ns = np.unique(np.logspace(1, 4, 60).astype(int))
        d = np.ceil(3.0 * ns**0.5).astype(int)
        report = trajectory_limit_check(ns, d, 0.5)
        assert report.verdict
        assert report.tail_oscillation < 0.05
        assert report.level > 0

    def test_wrongly_scaled_series_drifts_visibly(self):
        # scaling the same series by an exponent off by 0.1 drags the
        # plateau by a factor n^0.1 (about 26% per decade)
        ns = np.unique(np.logspace(1, 4, 60).astype(int))
        d = np.ceil(3.0 * ns**0.5).astype(int)
        report = trajectory_limit_check(ns, d, 0.6)
        assert not report.verdict
        assert report.tail_oscillation > 0.2

    def test_maximum_degree_drifts_down_when_over_scaled(self):
        # with unit edges and offset 2 the maximum grows like n^{1/4};
        # dividing by n^{1/2} must therefore decay like n^{-1/4}
        cfg = ModelConfig(
            beta=2.0, edge_law=deterministic(1), n=100_000, record_stride=250, seed=0
        )
        run = run_chain(cfg)
        keep = run.steps >= 10_000
        ns = run.steps[keep].astype(float)
        wrong = run.max_series[keep] / np.sqrt(ns)
        right = run.max_series[keep] / ns**0.25
        slope_wrong = np.polyfit(np.log(ns), np.log(wrong), 1)[0]
        slope_right = np.polyfit(np.log(ns), np.log(right), 1)[0]
        assert slope_wrong < -0.1
        assert wrong[-1] / wrong[0] < 0.8
        assert slope_right > -0.1

    def test_max_degree_check_mirrors_the_trajectory_check(self):
        ns = np.unique(np.logspace(1, 4, 40).astype(int))
        m = np.ceil(2.0 * ns**0.5).astype(int)
        report = max_degree_check(ns, m, 0.5)
        assert report.verdict

    def test_short_series_are_rejected(self):
        with pytest.raises(RangeError) as err:
            trajectory_limit_check(np.arange(5), np.arange(5) + 1, 0.5)
        assert err.value.field == "ns"


class TestFreezeDetector:
    def test_constant_series_is_frozen_from_the_start(self):
        report = freeze_detector(np.array([0, 1, 2, 3]), np.array([7, 7, 7, 7]))
        assert report.frozen_fraction == 1.0

    def test_last_change_is_located_exactly(self):
        report = freeze_detector(
            np.array([0, 1, 2, 3, 4]), np.array([1, 1, 2, 2, 2])
        )
        assert report.frozen_fraction == pytest.approx(0.5)

    def test_fractional_steps_are_not_truncated(self):
        report = freeze_detector([0.5, 1.5, 2.7], [0, 1, 1])
        assert report.frozen_fraction == pytest.approx(1.2 / 2.7)

    def test_two_points_minimum(self):
        with pytest.raises(RangeError) as err:
            freeze_detector(np.array([0]), np.array([1]))
        assert err.value.field == "ns"


class TestDistributionDistance:
    def test_matching_distributions_have_zero_distance(self):
        emp = empirical_distribution({1: 2, 2: 1})
        pi = np.array([0.0, 2 / 3, 1 / 3])
        spec = LimitSpectrum(
            theta=0.5, pi=pi, tail_exponent=3.0, truncation_mass=0.0, rate=2.0
        )
        report = distribution_distance(emp, spec)
        assert report.tv_core + report.remainder == 0.0
        assert report.max_abs_error == 0.0

    def test_lattice_mismatch_is_macroscopically_far(self):
        # doubled edges put all empirical mass on even degrees, while the
        # unit-edge spectrum holds 2/3 at degree 1
        run = run_chain(
            ModelConfig(beta=0.0, edge_law=deterministic(2), n=5_000, seed=3)
        )
        emp = empirical_distribution(run.ledger.counts)
        spec = pi_recursive(deterministic(1), 0.0, 50)
        report = distribution_distance(emp, spec)
        assert report.tv_core + report.remainder > 0.3

    def test_distance_splits_into_core_and_remainder(self):
        emp = empirical_distribution({1: 6, 2: 3, 40: 1})
        spec = pi_recursive(deterministic(1), 0.0, 20)
        report = distribution_distance(emp, spec)
        assert report.remainder > 0  # degree-40 mass is outside the core


def _folding_pool():
    """In a split, degrees 5, 6 and 9 together fall short of a bin and fold
    into the one before."""
    return {1: 400, 2: 200, 3: 100, 4: 30, 5: 6, 6: 2, 9: 1}


def _zero_count_pool():
    return {1: 300, 2: 0, 3: 150, 4: 60, 5: 20, 7: 0, 8: 9}


@functools.cache
def _verify_scale_pool():
    """The chains' pool of embedding-equivalence at the full profile's scale."""
    model = ModelConfig(beta=0.0, edge_law=deterministic(1), n=200, record_stride=200)
    return replicate(model, 2000, master_seed=79).pooled_counts


def _odd_pool():
    """Halves of 50 and 51: degree 1 expects 4.95 in the smaller and 5.05 in
    the larger, so only the smaller size merges it with degree 2."""
    return {1: 10, 2: 10, 3: 81}


SPLIT_POOLS = {
    "fold": _folding_pool,
    "zero": _zero_count_pool,
    "odd": _odd_pool,
    "verify": _verify_scale_pool,
}


def _split_half_reference(pool, n_trials, rng):
    """split_half_pvalues by embedding_equivalence_test: each trial draws the
    split as it does and tests the two halves, zero counts included."""
    support = sorted(j for j, c in pool.items() if c)
    colors = np.array([pool[j] for j in support])
    pvals = []
    for _ in range(n_trials):
        half_a = rng.multivariate_hypergeometric(colors, colors.sum() // 2)
        a = dict.fromkeys(pool, 0) | dict(zip(support, half_a.tolist()))
        b = dict.fromkeys(pool, 0) | dict(zip(support, (colors - half_a).tolist()))
        pvals.append(embedding_equivalence_test(a, b).p_value)
    return pvals


def test_the_folding_pool_folds_in_a_split():
    colors = np.array(list(_folding_pool().values()))
    total = int(colors.sum())
    # a half of 369 expects 369 * 9 / 739 < 5 in degrees 5..9, which fold into 4's bin
    _, bins = analysis._merge_bins(list(_folding_pool()), colors / total, total // 2, "pool")
    assert bins[-1] == (4, 9) and total // 2 * 9 / total < 5


class TestTwoSampleComparison:
    def test_identical_pools_are_indistinguishable(self):
        counts = {1: 100, 2: 50, 3: 20}
        result = embedding_equivalence_test(counts, dict(counts))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_disjoint_pools_are_rejected_overwhelmingly(self):
        result = embedding_equivalence_test({1: 500, 2: 100}, {1: 100, 2: 500})
        assert result.p_value < 1e-6

    def test_tiny_pools_cannot_be_binned(self):
        with pytest.raises(RangeError) as err:
            embedding_equivalence_test({1: 3}, {1: 2})
        assert err.value.field == "counts_b"  # the smaller pool

    def test_split_halves_give_valid_pvalues(self):
        pooled = {1: 400, 2: 200, 3: 100}
        pvals = split_half_pvalues(pooled, 50, substream(77, 1))
        assert pvals.shape == (50,)
        assert pvals.min() >= 0.0
        assert pvals.max() <= 1.0
        assert np.unique(np.round(pvals, 6)).size > 5

    @pytest.mark.parametrize("pool_name", SPLIT_POOLS)
    def test_split_halves_are_the_two_sample_test_of_each_split(self, pool_name):
        pool = SPLIT_POOLS[pool_name]()
        rng = substream(78, 0)
        reference = copy.deepcopy(rng)
        pvals = split_half_pvalues(pool, 20, rng)
        assert pvals.tolist() == _split_half_reference(pool, 20, reference)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_split_halves_merge_the_bins_once(self):
        with mock.patch.object(analysis, "_merge_bins", wraps=analysis._merge_bins) as merge:
            split_half_pvalues(_folding_pool(), 25, substream(78, 1))
        assert merge.call_count == 1

    @pytest.mark.parametrize(
        ("pool", "message"),
        [
            ({}, "empty pool"),
            ({1: 0, 2: 0}, "empty pool"),
            ({1: 3}, "need at least 4 pooled observations to split"),
            ({1: 3, 2: 3}, "only 0 usable bin(s) after merging"),
            ({1: 10, 2: 1}, "only 1 usable bin(s) after merging"),
        ],
    )
    def test_split_half_refusals_name_the_pool(self, pool, message):
        with pytest.raises(RangeError) as err:
            split_half_pvalues(pool, 5, substream(78, 2))
        assert (err.value.field, err.value.message) == ("pooled_counts", message)

    def test_uniform_draws_pass_the_uniformity_score(self):
        ks = uniformity_ks(substream(77, 0).random(500))
        assert ks < 0.1

    def test_lopsided_pvalues_fail_the_uniformity_score(self):
        ks = uniformity_ks(np.full(100, 0.5))
        assert ks >= 0.4

    @pytest.mark.parametrize(
        ("dof", "critical"),
        [
            (1, 3.8414588206941285),
            (2, 5.991464547107983),
            (5, 11.070497693516355),
            (10, 18.30703805327515),
        ],
    )
    def test_chi_square_tail_at_the_five_percent_critical_values(self, dof, critical):
        assert chi2_sf(critical, dof) == pytest.approx(0.05, rel=1e-12)

    def test_two_degree_tail_is_an_exponential(self):
        for x in (0.3, 5.991464547107983, 40.0):
            assert chi2_sf(x, 2) == pytest.approx(np.exp(-x / 2), rel=1e-15)
        assert chi2_sf(0.0, 3) == 1.0

    def test_ks_statistic_on_a_hand_sample(self):
        # sorted 0.1, 0.4, 0.7: i/n - x peaks at 1 - 0.7 = 0.3,
        # x - (i-1)/n peaks at 0.1
        assert uniformity_ks(np.array([0.7, 0.1, 0.4])) == pytest.approx(0.3, abs=1e-15)
        assert uniformity_ks(np.array([0.9])) == pytest.approx(0.9, abs=1e-15)
