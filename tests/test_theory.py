"""Limit spectrum: closed form, recursion, quadrature, and moment sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefattach.errors import NonPositiveMean, RangeError, StepTooCoarse
from prefattach.laws import deterministic, explicit, geometric
from prefattach.theory import (
    MAX_J_MAX,
    moment_profile,
    pi_explicit,
    pi_quadrature,
    pi_recursive,
    tail_exponent_theory,
    theta,
)


class TestScalars:
    def test_growth_exponent_values(self):
        assert theta(1, 0) == pytest.approx(0.5)
        assert theta(2, 1) == pytest.approx(0.4)
        assert theta(1, 2) == pytest.approx(0.25)

    def test_growth_exponent_requires_positive_mean(self):
        with pytest.raises(NonPositiveMean):
            theta(0, 1)

    def test_tail_exponent_values(self):
        assert tail_exponent_theory(1, 0) == pytest.approx(3.0)
        assert tail_exponent_theory(2, 1) == pytest.approx(3.5)
        assert tail_exponent_theory(1, 1) == pytest.approx(4.0)


class TestClosedForm:
    def test_unit_edge_zero_offset_values(self):
        # pi_j = 4 / (j (j+1) (j+2))
        assert pi_explicit(1, 0.0, 1) == pytest.approx(2 / 3, abs=1e-15)
        assert pi_explicit(1, 0.0, 2) == pytest.approx(1 / 6, abs=1e-15)
        assert pi_explicit(1, 0.0, 3) == pytest.approx(1 / 15, abs=1e-15)

    def test_unit_edge_unit_offset_values(self):
        # pi_j = 72 / ((j+1)(j+2)(j+3)(j+4))
        assert pi_explicit(1, 1.0, 1) == pytest.approx(0.6, abs=1e-15)
        assert pi_explicit(1, 1.0, 2) == pytest.approx(0.2, abs=1e-15)

    def test_doubled_lattice_shifts_the_support(self):
        assert pi_explicit(2, 0.0, 3) == 0.0
        assert pi_explicit(2, 0.0, 2) == pytest.approx(2 / 3, abs=1e-15)
        assert pi_explicit(2, 0.0, 4) == pytest.approx(1 / 6, abs=1e-15)

    def test_closed_form_sums_to_one(self):
        total = sum(pi_explicit(1, 0.0, j) for j in range(1, 20_001))
        assert total == pytest.approx(1.0, abs=1e-7)


class TestRecursion:
    def test_two_point_law_hand_computed_values(self):
        # for the half/half law on {1, 2} with zero offset the first two
        # probabilities reduce to 3/8 and 27/80 by direct substitution
        spec = pi_recursive(explicit([0.5, 0.5]), 0.0, 10)
        assert spec.pi[1] == pytest.approx(3 / 8, abs=1e-15)
        assert spec.pi[2] == pytest.approx(27 / 80, abs=1e-15)

    def test_recursion_matches_the_closed_form(self):
        for x0 in (1, 2):
            for beta in (0.0, 1.0):
                spec = pi_recursive(deterministic(x0), beta, 60)
                closed = np.array([pi_explicit(x0, beta, j) for j in range(61)])
                assert np.max(np.abs(spec.pi - closed)) < 1e-13

    def test_spectrum_metadata(self):
        spec = pi_recursive(deterministic(1), 0.0, 10)
        assert spec.pi[0] == 0.0
        assert spec.j_max == 10
        assert spec.theta == pytest.approx(0.5)
        assert spec.rate == pytest.approx(2.0)
        assert spec.tail_exponent == pytest.approx(3.0)

    def test_truncation_mass_is_the_exact_missing_tail(self):
        # sum_{j>10} 4/(j(j+1)(j+2)) telescopes to 2/(11*12) = 1/66
        spec = pi_recursive(deterministic(1), 0.0, 10)
        assert spec.truncation_mass == pytest.approx(1 / 66, abs=1e-12)

    def test_off_lattice_probabilities_are_exactly_zero(self):
        spec = pi_recursive(deterministic(2), 0.0, 41)
        assert np.all(spec.pi[1::2] == 0.0)

    def test_degenerate_truncation_is_rejected(self):
        with pytest.raises(RangeError):
            pi_recursive(deterministic(1), 0.0, 0)

    @pytest.mark.parametrize("route", [pi_recursive, pi_quadrature])
    @pytest.mark.parametrize("j_max", [MAX_J_MAX + 1, 10**11])
    def test_truncations_above_the_cap_are_refused_up_front(self, route, j_max):
        # both sizes are refused before anything is allocated
        with pytest.raises(RangeError) as err:
            route(geometric(0.5), 1.0, j_max)
        assert err.value.field == "j_max"

    def test_probabilities_are_a_subprobability_vector(self):
        for law in (explicit([0.2, 0.3, 0.5]), geometric(0.4)):
            spec = pi_recursive(law, 0.7, 150)
            assert np.all(spec.pi >= 0)
            assert spec.pi.sum() <= 1 + 1e-12
            assert spec.truncation_mass == pytest.approx(
                1 - spec.pi.sum(), abs=1e-12
            )


@settings(max_examples=30)
@given(
    x0=st.integers(min_value=1, max_value=3),
    beta=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
def test_recursion_agrees_with_the_closed_form_for_any_parameters(x0, beta):
    spec = pi_recursive(deterministic(x0), beta, 40)
    closed = np.array([pi_explicit(x0, beta, j) for j in range(41)])
    assert np.max(np.abs(spec.pi - closed)) < 1e-11


def dense_pi_quadrature(law, beta, j_max, y_max=None, steps=20000, tol=1e-6):
    """The quadrature by powering the dense (2 j_max)^2 augmented matrix.

    The augmented system v = [R; Q] with dQ/dy = rate * R is stepped as one
    matrix, [[G, 0], [rate * I, 0]], without using its block structure.
    Raises StepTooCoarse under the same rules as ``pi_quadrature``.
    """
    m = law.mean
    rate = 2.0 * m + beta
    if y_max is None:
        y_max = -np.log(1e-12) / rate
    cutoff_mass = float(np.exp(-rate * y_max))
    if cutoff_mass >= tol:
        raise StepTooCoarse("cutoff", values=np.zeros(j_max + 1), estimate=cutoff_mass)
    p = law.pmf_vector(j_max)
    j_idx = np.arange(1, j_max + 1, dtype=float)
    gen = np.zeros((j_max, j_max))
    gen[np.diag_indices(j_max)] = -(rate + j_idx + beta)
    for k in range(1, j_max):
        if p[k] != 0.0:
            col = np.arange(1, j_max - k + 1, dtype=float)
            gen += np.diag((col + beta) * p[k], -k)
    big = np.zeros((2 * j_max, 2 * j_max))
    big[:j_max, :j_max] = gen
    big[j_max:, :j_max] = rate * np.eye(j_max)

    def propagate(n_steps):
        hb = y_max / n_steps * big
        one_step = np.eye(2 * j_max)
        term = np.eye(2 * j_max)
        for order in range(1, 5):
            term = term @ hb / order
            one_step = one_step + term
        power = one_step
        result = None
        k = n_steps
        while k:
            if k & 1:
                result = power if result is None else result @ power
            k >>= 1
            if k:
                power = power @ power
        return (result @ np.concatenate((p[1:], np.zeros(j_max))))[j_max:]

    coarse = propagate(steps)
    fine = propagate(2 * steps)
    estimate = float(np.max(np.abs(fine - coarse))) / 15.0
    pi_hat = np.concatenate(([0.0], fine))
    if estimate > tol:
        raise StepTooCoarse("step doubling", values=pi_hat, estimate=estimate)
    return pi_hat


DUAL_ROUTE_LAWS = (deterministic(1), deterministic(2), explicit([0.5, 0.5]), geometric(0.5))


class TestQuadrature:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("law", DUAL_ROUTE_LAWS, ids=lambda law: law.label())
    def test_block_pair_powering_matches_the_dense_route(self, law, beta):
        quad = pi_quadrature(law, beta, 100)
        assert np.max(np.abs(quad - dense_pi_quadrature(law, beta, 100))) <= 1e-15

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"y_max": 0.0},
            # h (rate + j_max + beta) = 2.8 lies just outside RK4's stability
            # interval, so the coarse run grows and step doubling trips
            {"y_max": 87.5, "steps": 1000},
        ],
        ids=["zero-domain", "step-doubling"],
    )
    def test_too_coarse_reports_the_dense_route_estimate(self, kwargs):
        law = deterministic(1)
        with pytest.raises(StepTooCoarse) as dense:
            dense_pi_quadrature(law, 0.0, 30, **kwargs)
        with pytest.raises(StepTooCoarse) as err:
            pi_quadrature(law, 0.0, 30, **kwargs)
        # rounding grows with the unstable modes, so the two routes agree to
        # about 1e-12 relative there
        assert err.value.estimate == pytest.approx(dense.value.estimate, rel=1e-9)
        assert np.allclose(err.value.values, dense.value.values, rtol=1e-9, atol=1e-15)

    def test_quadrature_agrees_with_the_recursion(self):
        for law, beta in (
            (deterministic(1), 0.0),
            (deterministic(2), 0.0),
            (geometric(0.5), 1.0),
        ):
            spec = pi_recursive(law, beta, 41)
            quad = pi_quadrature(law, beta, 41)
            assert np.max(np.abs(spec.pi - quad)) < 1e-8

    def test_quadrature_keeps_exact_lattice_zeros(self):
        quad = pi_quadrature(deterministic(2), 0.0, 41)
        assert np.all(quad[1::2] == 0.0)

    def test_zero_length_domain_is_too_coarse(self):
        with pytest.raises(StepTooCoarse) as err:
            pi_quadrature(deterministic(1), 0.0, 20, y_max=0.0)
        assert np.all(np.asarray(err.value.values) == 0.0)

    def test_short_domain_leaves_too_much_mass_outside(self):
        with pytest.raises(StepTooCoarse):
            pi_quadrature(deterministic(1), 0.0, 20, y_max=1.0)

    @pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
    def test_overflowing_steps_are_too_coarse(self):
        # h (rate + j_max + beta) = 9.6 is far outside RK4's stability
        # interval: the powers overflow and the estimate is NaN
        with pytest.raises(StepTooCoarse) as err:
            pi_quadrature(deterministic(1), 0.0, 30, y_max=300.0, steps=1000)
        assert np.isnan(err.value.estimate)

    def test_step_count_floor(self):
        with pytest.raises(RangeError):
            pi_quadrature(deterministic(1), 0.0, 20, steps=500)


class TestMomentSums:
    def test_zeroth_moment_plateaus_at_total_mass(self):
        spec = pi_recursive(deterministic(1), 0.0, 2000)
        curve = moment_profile(spec, [0.0])[0]
        assert curve.verdict == "plateauing"
        assert curve.partial_sums[-1] == pytest.approx(
            1 - spec.truncation_mass, abs=1e-12
        )

    def test_partial_sums_never_decrease(self):
        spec = pi_recursive(geometric(0.5), 1.0, 500)
        curve = moment_profile(spec, [1.5])[0]
        assert np.all(np.diff(curve.partial_sums) >= 0)

    def test_verdicts_split_at_the_tail_exponent(self):
        # with unit edges and zero offset the tail decays like j^{-3},
        # so sums of j^s converge for s < 2 and diverge for s >= 2
        spec = pi_recursive(deterministic(1), 0.0, 2000)
        orders = [0.0, 1.0, 2.0, 2.5]
        verdicts = [c.verdict for c in moment_profile(spec, orders)]
        assert verdicts == ["plateauing", "plateauing", "diverging", "diverging"]
