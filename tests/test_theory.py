"""Limit spectrum: closed form, recursion, quadrature, and moment sums."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefattach.errors import RangeError, StepTooCoarse
from prefattach import theory
from prefattach.laws import deterministic, explicit, geometric, validate_edge_law
from prefattach.theory import (
    _TRIL_BLOCK,
    MAX_J_MAX,
    MAX_QUAD_J_MAX,
    MIN_QUAD_STEPS,
    _lattice,
    _negbin_cdf,
    _pi_explicit_vector,
    _products,
    _tril_matmul,
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
        with pytest.raises(RangeError) as err:
            theta(0, 1)
        assert err.value.field == "m"

    def test_tail_exponent_values(self):
        assert tail_exponent_theory(1, 0) == pytest.approx(3.0)
        assert tail_exponent_theory(2, 1) == pytest.approx(3.5)
        assert tail_exponent_theory(1, 1) == pytest.approx(4.0)


def direct_pi_explicit(x0, beta, j):
    """The closed form with its product taken by np.prod on each call."""
    if j < 1 or j % x0 != 0:
        return 0.0
    l = j // x0
    k = np.arange(1.0, l)
    ratios = (k * x0 + beta) / ((k + 2.0) * x0 + 2.0 * beta)
    return (2.0 * x0 + beta) / ((l + 2.0) * x0 + 2.0 * beta) * float(np.prod(ratios))


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

    @pytest.mark.parametrize("x0", [1, 2, 3])
    def test_tabulated_products_equal_the_direct_product(self, x0):
        js = list(range(3001))
        shuffled = random.Random(x0).sample(js, len(js))
        for beta in (0.0, 0.37, 1.0, 1.234, 3.0):
            direct = {j: direct_pi_explicit(x0, beta, j) for j in js}
            # each visiting order builds and reuses a different set of tables
            for order in (js, js[::-1], shuffled):
                _products.cache_clear()
                assert [j for j in order if pi_explicit(x0, beta, j) != direct[j]] == []

    @pytest.mark.parametrize("x0", [1, 2, 3, 7])
    @pytest.mark.parametrize("j_max", [1, 6, 300, 9000])
    def test_the_vector_equals_one_call_per_degree(self, x0, j_max):
        for beta in (0.0, 0.37, 1.0, 3.0):
            closed = [pi_explicit(x0, beta, j) for j in range(j_max + 1)]
            assert _pi_explicit_vector(x0, beta, j_max).tolist() == closed

    def test_product_tables_stay_bounded(self):
        _products.cache_clear()
        tracemalloc.start()
        try:
            for x0 in (1, 2, 3):
                for beta in np.linspace(0.0, 4.0, 15).tolist():
                    for l in (1, 5000, 8192, 8193, 20_000):
                        j = l * x0
                        assert pi_explicit(x0, beta, j) == direct_pi_explicit(x0, beta, j)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 45 (x0, beta) pairs: at most 32 tables of at most 8192 entries are
        # kept, and the products past 8192 factors are not kept at all
        assert _products.cache_info().currsize == 32
        assert held < 32 * 8192 * 8 + 2**16


def _law_id(value):
    return value.label() if hasattr(value, "label") else str(value)


def loop_pi_recursive(law, beta, j_max):
    """The Laplace recursion on numpy scalars, reading the weights backwards."""
    rate = 2.0 * law.mean + beta
    p = law.pmf_vector(j_max)
    lap = np.zeros(j_max + 1)
    weighted = np.zeros(j_max + 1)  # weighted[i] = (i + beta) * lap[i]
    for j in range(1, j_max + 1):
        inflow = p[j]
        if j > 1:
            inflow += float(np.dot(p[1:j], weighted[j - 1 : 0 : -1]))
        lap[j] = inflow / (rate + j + beta)
        weighted[j] = (j + beta) * lap[j]
    return rate * lap


RECURSION_LAWS = (
    "det:1", "det:2", "geom:0.5", "geom:0.2", "explicit:0.5,0.3,0.2", "explicit:0.1,0,0.9",
)


class TestRecursion:
    @pytest.mark.parametrize("law", RECURSION_LAWS)
    def test_recursion_equals_the_reference_loop(self, law):
        law = validate_edge_law(law)
        for beta in (0.0, 0.5, 1.0, 1.234, 3.0):
            for j_max in (1, 2, 50, 200, 1500):
                spec = pi_recursive(law, beta, j_max)
                assert np.array_equal(spec.pi, loop_pi_recursive(law, beta, j_max))

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

    def test_quadrature_cap_sits_below_the_recursion_cap(self):
        law = geometric(0.5)
        tracemalloc.start()
        try:
            with pytest.raises(RangeError) as err:
                pi_quadrature(law, 1.0, MAX_QUAD_J_MAX + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.field == "j_max"
        assert peak < 10**6  # refused before the generator is built
        assert pi_recursive(law, 1.0, MAX_QUAD_J_MAX + 1).j_max == MAX_QUAD_J_MAX + 1

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
        raise StepTooCoarse("y_max", "cutoff", values=np.zeros(j_max + 1), estimate=cutoff_mass)
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
        raise StepTooCoarse("steps", "step doubling", values=pi_hat, estimate=estimate)
    return pi_hat


DUAL_ROUTE_LAWS = (
    deterministic(1), deterministic(2), explicit([0.5, 0.5]), geometric(0.5),
    explicit([0.5, 0.3, 0.2]), deterministic(3), explicit([0, 0.5, 0, 0.5]),
)

# (law, lattice step): laws whose spectrum lives on gN with g > 1
LATTICE_LAWS = [
    (deterministic(2), 2), (deterministic(3), 3), (explicit([0, 0.5, 0, 0.5]), 2),
    (explicit([0, 0, 0.4, 0, 0, 0.6]), 3),
]
ROUTES = {
    "recursion": lambda law, beta, j_max: pi_recursive(law, beta, j_max).pi,
    "quadrature": pi_quadrature,
}


class TestQuadrature:
    # 100 is multiplied whole; 201 is split into uneven halves of 100 and 101
    @pytest.mark.parametrize("j_max", [100, 201])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("law", DUAL_ROUTE_LAWS, ids=lambda law: law.label())
    def test_block_pair_powering_matches_the_dense_route(self, law, beta, j_max):
        assert 100 <= _TRIL_BLOCK < 201  # the two sizes straddle the split
        quad = pi_quadrature(law, beta, j_max)
        assert np.max(np.abs(quad - dense_pi_quadrature(law, beta, j_max))) <= 1e-15

    @pytest.mark.parametrize(
        ("law", "j_max", "states"),
        [(geometric(0.5), 50, 50), (deterministic(2), 100, 50), (deterministic(3), 128, 42),
         (deterministic(4), 500, 125)],
        ids=["geom:0.5", "det:2", "det:3", "det:4"],
    )
    def test_only_the_occupation_block_is_powered(self, monkeypatch, law, j_max, states):
        sizes = []

        def counted(a, b, out=None):
            sizes.append(a.shape[0])
            return _tril_matmul(a, b, out)

        monkeypatch.setattr(theory, "_tril_matmul", counted)
        assert states <= _TRIL_BLOCK  # multiplied whole, so no product recurses
        pi_quadrature(law, 1.0, j_max)
        # 3 Taylor products and 14 squarings of S for the 20,000 coarse
        # steps, then 3 and 15 for the 40,000 fine steps, on the j_max // g
        # states of the law's lattice
        assert sizes == [states] * 35

    @pytest.mark.parametrize("n", [1, _TRIL_BLOCK, _TRIL_BLOCK + 1, 300])
    def test_triangular_product_equals_the_dense_product(self, n):
        rng = np.random.default_rng(n)
        a, b = np.tril(rng.standard_normal((n, n))), np.tril(rng.standard_normal((n, n)))
        prod = _tril_matmul(a, b)
        np.testing.assert_allclose(prod, a @ b, rtol=0, atol=1e-12)
        assert np.all(np.triu(prod, 1) == 0.0)
        out = np.full((n, n), np.nan)
        assert _tril_matmul(a, b, out) is out
        np.testing.assert_array_equal(out, prod)

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
        assert err.value.field == dense.value.field
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

    @pytest.mark.parametrize(
        "law",
        [deterministic(1), deterministic(2), explicit([0.5, 0.5]), geometric(0.5)],
        ids=lambda law: law.label(),
    )
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_quadrature_is_the_recursion_plus_the_cut_off_tail(self, law, beta):
        # Q - rate G^-1 R is a linear invariant of the damped system, and RK4
        # steps keep linear invariants, so the quadrature equals the recursion
        # plus rate G^-1 R(y_max), a term of order exp(-rate y_max) = 1e-12,
        # whatever the step count.  dual-route-pi's pairs at its j_max.
        quad = pi_quadrature(law, beta, 100, steps=MIN_QUAD_STEPS)
        assert np.max(np.abs(quad - pi_recursive(law, beta, 100).pi)) <= 1e-12

    def test_the_cap_runs_on_the_lattice(self):
        # 500 states: blocks of 2 MB, where j_max = 2000 states held five of 32 MB
        law = deterministic(4)
        tracemalloc.start()
        try:
            quad = pi_quadrature(law, 0.5, MAX_QUAD_J_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.max(np.abs(quad - pi_recursive(law, 0.5, MAX_QUAD_J_MAX).pi)) <= 1e-12
        off = np.ones(MAX_QUAD_J_MAX + 1, dtype=bool)
        off[::4] = False
        assert np.all(quad[off] == 0.0)

    @pytest.mark.parametrize(
        ("kwargs", "field"),
        # h (rate + 2000 + beta) = 2.8 lies just outside RK4's stability interval
        [({"y_max": 0.0}, "y_max"), ({"y_max": 2000 * 2.8 / 2009.0, "steps": 2000}, "steps")],
        ids=["zero-domain", "step-doubling"],
    )
    def test_the_cap_keeps_its_refusals(self, kwargs, field):
        with pytest.raises(StepTooCoarse) as err:
            pi_quadrature(deterministic(4), 0.5, MAX_QUAD_J_MAX, **kwargs)
        assert err.value.field == field

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


class TestLattice:
    @pytest.mark.parametrize(
        ("law", "g"),
        [
            (deterministic(1), 1), (deterministic(4), 4), (geometric(0.5), 1),
            (explicit([0.5, 0.3, 0.2]), 1), (explicit([0, 0.5, 0, 0.5]), 2),
            (explicit([0, 0, 0.4, 0, 0, 0.6]), 3),
        ],
        ids=_law_id,
    )
    def test_the_lattice_is_the_gcd_of_the_support(self, law, g):
        step, q = _lattice(law, 60)
        assert step == g
        assert np.array_equal(q, law.pmf_vector(60)[::g])

    def test_the_lattice_reads_the_support_at_or_below_the_cutoff(self):
        law = explicit([0, 0, 0.5, 0, 0, 0, 0, 0.5])  # support {3, 8}
        assert _lattice(law, 7)[0] == 3
        assert _lattice(law, 8)[0] == 1
        # nothing at or below the cutoff: no state at all
        assert _lattice(deterministic(300), 200)[0] > 200

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("j_max", [41, 201])
    @pytest.mark.parametrize(("law", "g"), LATTICE_LAWS, ids=_law_id)
    def test_off_lattice_entries_are_exactly_zero(self, route, law, g, j_max):
        pi = ROUTES[route](law, 0.5, j_max)
        off = np.ones(j_max + 1, dtype=bool)
        off[::g] = False
        assert np.all(pi[off] == 0.0)
        assert np.all(pi[g::g] > 0.0)

    @pytest.mark.parametrize("route", ROUTES)
    def test_a_law_above_the_cutoff_gives_zeros(self, route):
        pi = ROUTES[route](deterministic(300), 0.0, 200)
        assert pi.shape == (201,) and np.all(pi == 0.0)


def direct_moment_curve(spectrum, s):
    """(partial sums, slope, last-decade gain) from j^s pi_j and its logs, taken as they are."""
    j_max = spectrum.j_max
    j = np.arange(1, j_max + 1, dtype=float)
    inc = j**s * spectrum.pi[1:]
    sums = np.concatenate(([0.0], np.cumsum(inc)))
    start = max(1, j_max // 10)
    window = slice(start - 1, j_max)
    pos = inc[window] > 0.0
    slope = float(np.polyfit(np.log(j[window][pos]), np.log(inc[window][pos]), 1)[0])
    return sums, slope, float((sums[-1] - sums[start]) / sums[-1])


class TestMomentSums:
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize(
        ("law", "beta"), [(deterministic(1), 0.0), (deterministic(2), 0.5), (geometric(0.5), 1.0)],
        ids=["det:1", "det:2", "geom:0.5"],
    )
    def test_curves_in_the_float_range_equal_the_direct_sums(self, law, beta, s):
        spec = pi_recursive(law, beta, 1000)
        curve = moment_profile(spec, [s])[0]
        sums, slope, gain = direct_moment_curve(spec, s)
        assert np.array_equal(curve.partial_sums, sums)
        assert (curve.increment_slope, curve.last_decade_increase) == (slope, gain)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [103.0, 400.0])
    def test_a_moment_whose_powers_overflow_still_diverges(self, s):
        # j^s passes the float range inside the trailing decade (at 103) or
        # before it starts (at 400); the increments grow like j^(s - 3)
        spec = pi_recursive(deterministic(1), 0.0, 1000)
        curve = moment_profile(spec, [s])[0]
        assert curve.verdict == "diverging"
        assert curve.increment_slope == pytest.approx(s - 3.0, abs=0.05)
        assert curve.last_decade_increase == pytest.approx(1.0, abs=1e-12)
        assert curve.partial_sums[-1] == np.inf

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


def _negbin_pmf(c0, p, k):
    """P(K = k) for K ~ NegBin(c0, p), straight from math.lgamma."""
    log_pmf = math.lgamma(c0 + k) - math.lgamma(c0) - math.lgamma(k + 1)
    return math.exp(log_pmf + c0 * math.log(p) + k * math.log1p(-p))


class TestNegBin:
    """The jump count of a det:x0 size process: NegBin((D_0 + beta) / x0, e^{-x0 t})."""

    # the size check's two cases (c0 = 10, 11 at t = 8), a det:2 start, and
    # small and fractional c0 with p far from 0
    CASES = [
        (10.0, math.exp(-8.0), 60_000),
        (11.0, math.exp(-8.0), 60_000),
        (5.5, math.exp(-3.0), 300),
        (0.5, 0.3, 40),
        (1.75, math.exp(-2.0), 80),
    ]

    @pytest.mark.parametrize(("c0", "p", "k_max"), CASES)
    def test_the_cdf_sums_the_lgamma_pmf(self, c0, p, k_max):
        cdf = _negbin_cdf(c0, p, k_max)
        assert cdf.shape == (k_max + 1,)
        partial = np.cumsum([_negbin_pmf(c0, p, k) for k in range(k_max + 1)])
        for k in (0, 1, 2, k_max // 7, k_max // 3, k_max // 2, k_max):
            assert cdf[k] == pytest.approx(partial[k], rel=1e-10, abs=1e-300), k

    @pytest.mark.parametrize(("c0", "p", "k_max"), CASES)
    def test_the_cdf_reaches_one_minus_the_tail(self, c0, p, k_max):
        # the tail summed term by term far past k_max, where the terms vanish
        cdf = _negbin_cdf(c0, p, k_max)
        tail, k = 0.0, k_max + 1
        while True:
            term = _negbin_pmf(c0, p, k)
            tail += term
            if term < 1e-18 * max(tail, 1e-300) and k > 2 * k_max:
                break
            k += 1
        assert cdf[-1] + tail == pytest.approx(1.0, abs=1e-11)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_one_founder_gives_the_geometric_law(self):
        # c0 = 1 is the Yule process from one individual: P(K <= k) = 1 - (1 - p)^(k + 1)
        p = math.exp(-1.5)
        k = np.arange(200)
        assert np.allclose(_negbin_cdf(1.0, p, 199), 1.0 - (1.0 - p) ** (k + 1), rtol=0, atol=1e-14)
