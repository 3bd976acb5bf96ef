"""The Python API refuses what the CLI refuses: a size, count or rate of the
wrong type, or a bool, ends in a RangeError naming its field, never in a
numpy TypeError and never silently truncated."""

import math
import warnings

import numpy as np
import pytest

from prefattach.analysis import (
    embedding_equivalence_test,
    empirical_distribution,
    freeze_detector,
    max_degree_check,
    split_half_pvalues,
    tail_fit,
    trajectory_limit_check,
    uniformity_ks,
)
from prefattach.branching import (
    BranchingConfig,
    JumpPath,
    run_embedding,
    simulate_mbpi,
    tau_diagnostics,
    zeta_trajectory,
)
from prefattach.errors import (
    MAX_BETA,
    NonPositiveMean,
    NotNormalized,
    ParseError,
    RangeError,
    checked_real,
)
from prefattach.graph import ModelConfig, run_chain
from prefattach.laws import deterministic, explicit, validate_edge_law
from prefattach.replicate import replicate
from prefattach.streams import MAX_SEED, mix64, substream
from prefattach.theory import (
    MAX_EXPLICIT_J,
    moment_profile,
    pi_explicit,
    pi_quadrature,
    pi_recursive,
    tail_exponent_theory,
    theta,
)

LAW = deterministic(1)


def _model(**fields):
    return ModelConfig(**{"beta": 0.0, "edge_law": LAW, "n": 10, **fields})


def _rng():
    return np.random.default_rng(0)


# Past the cap, and where rate + j + beta overflows to inf.
HUGE_BETAS = [2 * MAX_BETA, 1e308]

# A recorded series long enough for the plateau checks.
STEPS = np.arange(1, 21)

# An n past the 2^31 - 1 label limit, refused before anything is allocated.
HUGE_N = 3_000_000_000

# A second pool for the chi-square rows.
POOL = {1: 50, 2: 100, 3: 100}

# (entry point, field it must name, call with the bad value, bad values).
# Out-of-range values are covered next to each entry point's own tests, apart
# from the beta cap, which every beta shares.
CASES = [
    ("ModelConfig", "model.n", lambda v: _model(n=v), [10.5, True]),
    ("ModelConfig", "model.record_stride", lambda v: _model(record_stride=v), [10.5, True]),
    # n = 10: vertex 13 is never born
    ("ModelConfig", "model.probe_vertices", lambda v: _model(probe_vertices=(v,)), [10.5, True, 13]),
    ("ModelConfig", "model.beta", lambda v: _model(beta=v), [True, *HUGE_BETAS]),
    (
        "BranchingConfig", "branching.beta", lambda v: BranchingConfig(LAW, beta=v),
        [True, *HUGE_BETAS],
    ),
    ("replicate", "replications", lambda v: replicate(_model(), replications=v), [10.5, True]),
    ("replicate-simulate", "model.n", lambda v: replicate(_model(n=v), 1), [HUGE_N]),
    ("replicate-embed", "model.n", lambda v: replicate(_model(n=v), 1, task="embed"), [HUGE_N]),
    (
        "run_embedding", "n", lambda v: run_embedding(LAW, 0.0, v, _rng()),
        [10.5, True, 2**31 - 2, HUGE_N],
    ),
    ("run_embedding", "beta", lambda v: run_embedding(LAW, v, 5, _rng()), [True, *HUGE_BETAS]),
    ("simulate_mbpi", "horizon", lambda v: simulate_mbpi(BranchingConfig(LAW), v, _rng()), [True]),
    ("theta", "beta", lambda v: theta(1.0, v), [True, *HUGE_BETAS]),
    ("tail_exponent_theory", "beta", lambda v: tail_exponent_theory(1.0, v), [True, *HUGE_BETAS]),
    ("deterministic", "x0", deterministic, [2.5, True]),
    ("pi_explicit", "x0", lambda v: pi_explicit(v, 0.0, 5), [2.5, True]),
    ("pi_explicit", "beta", lambda v: pi_explicit(1, v, 5), [True, *HUGE_BETAS]),
    (
        "pi_explicit", "j", lambda v: pi_explicit(1, 0.0, v),
        [2.5, True, MAX_EXPLICIT_J + 1, 10**12],
    ),
    ("pi_recursive", "j_max", lambda v: pi_recursive(LAW, 0.0, v), [10.5, True]),
    ("pi_recursive", "beta", lambda v: pi_recursive(LAW, v, 10), [True, *HUGE_BETAS]),
    ("pi_quadrature", "j_max", lambda v: pi_quadrature(LAW, 0.0, v), [10.5, True]),
    ("pi_quadrature", "steps", lambda v: pi_quadrature(LAW, 0.0, 5, steps=v), [2000.5]),
    ("pi_quadrature", "beta", lambda v: pi_quadrature(LAW, v, 5), [True, *HUGE_BETAS]),
    (
        "pi_quadrature", "y_max", lambda v: pi_quadrature(LAW, 0.0, 5, y_max=v),
        [True, math.nan, math.inf],
    ),
    (
        "tau_diagnostics", "beta", lambda v: tau_diagnostics([0.5, 0.7], [2.0, 4.0], 1.0, v),
        [math.nan, -1.0, True, *HUGE_BETAS],
    ),
    (
        "tau_diagnostics", "taus", lambda v: tau_diagnostics(v, [2.0, 4.0], 1.0, 0.0),
        [[0.5, math.nan], [math.inf, 0.7], [[0.5], [0.7]], 0.5],
    ),
    (
        "tau_diagnostics", "s_values", lambda v: tau_diagnostics([0.5, 0.7], v, 1.0, 0.0),
        [[0.0, 1.0], [-2.0, 4.0], [2.0, math.nan], [2.0, math.inf], [[2.0], [4.0]]],
    ),
    ("tail_fit", "j_min", lambda v: tail_fit(pi_recursive(LAW, 0.0, 40), v, 30), [1.5, True]),
    ("tail_fit", "j_max", lambda v: tail_fit(pi_recursive(LAW, 0.0, 40), 3, v), [30.5, True]),
    (
        "split_half_pvalues", "n_trials", lambda v: split_half_pvalues({1: 40, 2: 20}, v, _rng()),
        [2.5, -1, 0, True],
    ),
    (
        "split_half_pvalues", "count", lambda v: split_half_pvalues({1: v, 2: 20}, 5, _rng()),
        [20.7, True, -5, "3"],
    ),
    (
        "split_half_pvalues", "degree", lambda v: split_half_pvalues({v: 20, 2: 20}, 5, _rng()),
        [1.5, True, 0],
    ),
    (
        "embedding_equivalence_test", "count",
        lambda v: embedding_equivalence_test({1: v, 2: 100, 3: 100}, POOL),
        [-50, 50.5, True],
    ),
    (
        "embedding_equivalence_test", "degree",
        lambda v: embedding_equivalence_test(POOL, {v: 50, 2: 100, 3: 100}),
        [1.5, True, 0, "1"],
    ),
    ("run_chain", "snapshot_steps", lambda v: run_chain(_model(), snapshot_steps=(v,)), [2.5, True]),
    (
        "empirical_distribution", "count", lambda v: empirical_distribution({1: v, 2: 10}),
        [-5, 1.5, True, "3"],
    ),
    (
        "empirical_distribution", "degree", lambda v: empirical_distribution({v: 3}),
        [1.5, True, "1", 0, -1],
    ),
    (
        "explicit", "probs", lambda v: explicit([v, 1.0]),
        [math.nan, math.inf, -math.inf, True, False, np.True_],
    ),
    ("validate_edge_law_list", "probs", lambda v: validate_edge_law([v]), [True, np.True_]),
    ("validate_edge_law_map", "probs", lambda v: validate_edge_law({1: v}), [True, np.True_]),
    ("mix64", "master_seed", lambda v: mix64(v, 0), [-1, 2**64, 2**70, 1.5, True, "1"]),
    ("mix64", "index", lambda v: mix64(0, v), [-1, 2**64, 1.5, True]),
    ("substream", "master_seed", lambda v: substream(v, 0), [-1, 1.5, True]),
    ("substream", "index", lambda v: substream(0, v), [-1, 1.5, True]),
    ("uniformity_ks", "pvalues", uniformity_ks, [[], [math.nan, 0.5], [0.5, math.inf]]),
    (
        "freeze_detector", "ns", lambda v: freeze_detector(v, [1, 2, 2]),
        [[0, 5, 3], [0, 5, 5], [0, math.nan, 3], [-5, -3, 0]],
    ),
    ("freeze_detector", "ns", lambda v: freeze_detector(v, np.ones((2, 2))), [[[0, 1], [2, 3]]]),
    ("freeze_detector", "series", lambda v: freeze_detector([0, 1, 2], v), [[[1], [2], [2]]]),
    (
        "trajectory_limit_check", "exponent", lambda v: trajectory_limit_check(STEPS, STEPS, v),
        [math.nan, math.inf, True],
    ),
    (
        "trajectory_limit_check", "threshold",
        lambda v: trajectory_limit_check(STEPS, STEPS, 0.5, threshold=v),
        [math.nan, -1.0, True],
    ),
    (
        "max_degree_check", "exponent", lambda v: max_degree_check(STEPS, STEPS, v),
        [math.nan, math.inf, True],
    ),
    (
        "max_degree_check", "threshold", lambda v: max_degree_check(STEPS, STEPS, 0.5, threshold=v),
        [math.nan, -1.0, True],
    ),
    (
        "moment_profile", "s", lambda v: moment_profile(pi_recursive(LAW, 0.0, 40), [v]),
        [math.nan, math.inf, "a", True],
    ),
]


@pytest.mark.parametrize(
    ("field", "call", "value"),
    [
        pytest.param(field, call, value, id=f"{name}-{field}-{value!r}")
        for name, field, call, values in CASES
        for value in values
    ],
)
def test_bad_input_is_refused_naming_its_field(field, call, value):
    with pytest.raises(RangeError) as err:
        call(value)
    assert err.value.field == field


@pytest.mark.parametrize("value", [10**400, -(10**400)])
def test_an_int_past_the_float_range_is_refused_as_not_finite(value):
    with pytest.raises(RangeError, match="must be finite") as err:
        checked_real("run.ymax", value, None)
    assert err.value.field == "run.ymax"


def test_the_largest_beta_gives_finite_spectra_and_chains():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow in numpy fails the test
        spectrum = pi_recursive(LAW, MAX_BETA, 50)
        quad = pi_quadrature(LAW, MAX_BETA, 50)
        closed = pi_explicit(1, MAX_BETA, 5)
        run = run_chain(_model(beta=MAX_BETA, n=1000))
    assert np.isfinite(spectrum.pi).all() and spectrum.pi[1] > 0.4
    assert np.abs(quad - spectrum.pi).max() < 1e-6
    assert 0 < closed < 1
    assert sum(run.ledger.counts.values()) == 1002


def _flat_path():
    ks = np.arange(2, 20)
    return JumpPath(initial=1, times=np.log(ks), values=ks.astype(np.int64))


@pytest.mark.parametrize("m", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda m: tau_diagnostics([0.5, 0.7], [2.0, 4.0], m, 0.0), id="tau_diagnostics"
        ),
        pytest.param(lambda m: zeta_trajectory(_flat_path(), m), id="zeta_trajectory"),
    ],
)
def test_non_finite_mean_is_refused(call, m):
    with pytest.raises(NonPositiveMean):
        call(m)


@pytest.mark.parametrize(
    "law",
    [{1: 0.5, "1": 0.5, 2: 0.5}, {"2": 0.5, np.int64(2): 0.5}],
    ids=["int-and-string", "string-and-numpy"],
)
def test_keys_naming_one_support_point_twice_are_refused(law):
    with pytest.raises(ParseError) as err:
        validate_edge_law(law)
    assert repr(law) in str(err.value)


@pytest.mark.parametrize("law", [["0.5", "0.5"], {"1": "0.5", 2: "0.5"}], ids=["list", "mapping"])
def test_numeric_string_probabilities_stay_readable(law):
    assert validate_edge_law(law).probs == (0.5, 0.5)


def test_negative_explicit_entries_stay_normalization_errors():
    with pytest.raises(NotNormalized):
        explicit([-0.5, 1.5])


@pytest.mark.parametrize(
    ("seed", "index"), [(0, 0), (MAX_SEED, MAX_SEED), (np.uint64(MAX_SEED), np.int64(3))]
)
def test_seeds_and_indices_in_range_are_accepted(seed, index):
    assert 0 <= mix64(seed, index) == mix64(int(seed), int(index)) <= MAX_SEED
