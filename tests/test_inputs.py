"""The Python API refuses what the CLI refuses: a size, count or rate of the
wrong type, or a bool, ends in a RangeError naming its field, never in a
numpy TypeError and never silently truncated."""

import math
import os
import pickle
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor

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
from prefattach.cli import _config_from_args, build_parser
from prefattach.config import parse_config
from prefattach.errors import (
    MAX_BETA,
    RangeError,
    StepTooCoarse,
    checked_int,
    checked_real,
)
from prefattach.graph import ModelConfig, run_chain
from prefattach.laws import deterministic, explicit, geometric, validate_edge_law
from prefattach.outputs import write_pi
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


def _flat_path():
    ks = np.arange(2, 20)
    return JumpPath(initial=1, times=np.log(ks), values=ks.astype(np.int64))


def _parse_file(text):
    """parse_config on a config file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            fh.write(text)
        return parse_config(path, {})

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
    # X near 10^15: sizes would leave the exact float range, or the heap's int64
    ("run_embedding", "n", lambda v: run_embedding(geometric(1e-15), 0.0, v, _rng()), [10, 2000]),
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
        "pi_quadrature", "tol", lambda v: pi_quadrature(LAW, 0.0, 5, tol=v),
        [0.0, -1.0, math.nan, math.inf, True, "a", None],
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
    # Refusals that were classes of their own with no field, one row per site.
    ("deterministic", "x0", deterministic, [0, -3]),
    ("explicit", "probs", explicit, [[], [-0.5, 1.5], [0.5, 0.6]]),
    ("geometric", "q", geometric, [0.0, 1.5, math.nan, True, "abc", "0.5", None]),
    (
        "validate_edge_law", "law", validate_edge_law,
        [
            {}, {1: 0.5, "1": 0.5}, {0: 0.3, 1: 0.7}, 2.5, None, {2.5: 1.0},
            "det1", "det:abc", "foo:1",
        ],
    ),
    ("parse_config", "config", parse_config, [""]),
    ("parse_config_file", "config", _parse_file, ["{not json", "[1, 2]"]),
    ("parse_config_file", "run.bogus", _parse_file, ['{"bogus": 1}']),
    ("parse_config", "run.bogus", lambda v: parse_config(None, {"bogus": v}), [1]),
    ("parse_config", "run.law", lambda v: parse_config(None, {"law": v}), ["foo:1", "det:0"]),
    ("parse_config", "run.thresholds", lambda v: parse_config(None, {"thresholds": v}), [[1]]),
    (
        "cli_threshold", "run.thresholds",
        lambda v: _config_from_args(build_parser().parse_args(["verify", "--threshold", v])),
        ["foo"],
    ),
    (
        "write_pi", "quadrature",
        lambda v: write_pi(os.devnull, pi_recursive(LAW, 0.0, 5), v, None, 0.0),
        [np.zeros(3)],
    ),
    ("JumpPath", "path.values", lambda v: JumpPath(1, np.array([1.0]), v), [np.array([2, 3])]),
    ("tau_diagnostics", "taus", lambda v: tau_diagnostics(v, [2.0], 1.0, 0.0), [[]]),
    (
        "tau_diagnostics", "s_values", lambda v: tau_diagnostics([0.5, 0.7], v, 1.0, 0.0),
        [[2.0], [2.0, 3.0, 4.0, 5.0]],
    ),
    (
        "tau_diagnostics", "m", lambda v: tau_diagnostics([0.5, 0.7], [2.0, 4.0], v, 0.0),
        [0.0, -1.0, math.nan, math.inf],
    ),
    (
        "tau_diagnostics", "m", lambda v: tau_diagnostics([0.5, 0.7], [2.0, 4.0], v, 0.0),
        [True, "1", None],
    ),
    (
        "zeta_trajectory", "m", lambda v: zeta_trajectory(_flat_path(), v),
        [0.0, math.nan, math.inf, True, "a", None],
    ),
    ("theta", "m", lambda v: theta(v, 1.0), [0.0, math.nan, True, "a", None]),
    (
        "tail_exponent_theory", "m", lambda v: tail_exponent_theory(v, 1.0),
        [0.0, math.inf, True, "a", None],
    ),
    ("empirical_distribution", "source", empirical_distribution, [{}, {1: 0}]),
    ("tail_fit", "j_min", lambda v: tail_fit(pi_recursive(LAW, 0.0, 40), v, 30), [0, -2]),
    ("tail_fit", "j_max", lambda v: tail_fit(pi_recursive(LAW, 0.0, 40), 3, v), [3, 2]),
    # four bins in [3, 6]; then sources of neither kind
    ("tail_fit", "source", lambda v: tail_fit(v, 3, 6), [pi_recursive(LAW, 0.0, 40)]),
    ("tail_fit", "source", lambda v: tail_fit(v, 3, 30), [{1: 5, 2: 3}, None]),
    ("trajectory_limit_check", "values", lambda v: trajectory_limit_check(STEPS, v, 0.5), [STEPS[:5]]),
    ("max_degree_check", "ns", lambda v: max_degree_check(v, v, 0.5), [STEPS[:9], [0.0] * 20]),
    ("freeze_detector", "ns", lambda v: freeze_detector(v, [1]), [[0]]),
    ("freeze_detector", "series", lambda v: freeze_detector([0, 1, 2], v), [[1, 2]]),
    ("embedding_equivalence_test", "counts_a", lambda v: embedding_equivalence_test(v, {}), [{}]),
    (
        "embedding_equivalence_test", "counts_a",
        lambda v: embedding_equivalence_test(v, POOL), [{1: 0}, {1: 3}],
    ),
    ("embedding_equivalence_test", "counts_b", lambda v: embedding_equivalence_test(POOL, v), [{1: 0}]),
    ("split_half_pvalues", "pooled_counts", lambda v: split_half_pvalues(v, 5, _rng()), [{1: 0}, {1: 3}]),
    # StepTooCoarse, the one subclass: a cutoff that keeps mass, then a failed step doubling
    ("pi_quadrature", "y_max", lambda v: pi_quadrature(LAW, 0.0, 30, y_max=v), [0.0, 1.0]),
    (
        "pi_quadrature", "steps", lambda v: pi_quadrature(LAW, 0.0, 30, y_max=87.5, steps=v),
        [1000],
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


@pytest.mark.parametrize(
    "law",
    [{1: 0.5, "1": 0.5, 2: 0.5}, {"2": 0.5, np.int64(2): 0.5}],
    ids=["int-and-string", "string-and-numpy"],
)
def test_keys_naming_one_support_point_twice_are_refused(law):
    with pytest.raises(RangeError) as err:
        validate_edge_law(law)
    assert err.value.field == "law"
    assert repr(law) in str(err.value)


@pytest.mark.parametrize("law", [["0.5", "0.5"], {"1": "0.5", 2: "0.5"}], ids=["list", "mapping"])
def test_numeric_string_probabilities_stay_readable(law):
    assert validate_edge_law(law).probs == (0.5, 0.5)


@pytest.mark.parametrize(
    ("seed", "index"), [(0, 0), (MAX_SEED, MAX_SEED), (np.uint64(MAX_SEED), np.int64(3))]
)
def test_seeds_and_indices_in_range_are_accepted(seed, index):
    assert 0 <= mix64(seed, index) == mix64(int(seed), int(index)) <= MAX_SEED


@pytest.mark.parametrize(
    "error",
    [
        RangeError("run.n", "must be >= 0, got -1"),
        StepTooCoarse("steps", "step doubling failed", np.array([0.25, 0.75]), 3e-7),
    ],
    ids=["RangeError", "StepTooCoarse"],
)
def test_refusals_survive_a_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (copy.field, copy.message, str(copy)) == (error.field, error.message, str(error))
    if isinstance(error, StepTooCoarse):
        assert np.array_equal(copy.values, error.values)
        assert copy.estimate == error.estimate


def test_a_refusal_raised_in_a_worker_reaches_the_parent_naming_its_field():
    # replicate's workers run in such a pool; their exceptions come back pickled
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(checked_int, "run.n", 2.5, 0)
        with pytest.raises(RangeError) as err:
            future.result(timeout=60)
    assert err.value.field == "run.n"
    assert err.value.message == "must be an integer, got 2.5"
