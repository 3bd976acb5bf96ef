"""The Python API refuses what the CLI refuses: a size, count or rate of the
wrong type, or a bool, ends in a RangeError naming its field, never in a
numpy TypeError and never silently truncated."""

import math

import numpy as np
import pytest

from prefattach.analysis import split_half_pvalues, tail_fit
from prefattach.branching import (
    BranchingConfig,
    JumpPath,
    run_embedding,
    simulate_mbpi,
    tau_diagnostics,
    zeta_trajectory,
)
from prefattach.errors import NonPositiveMean, RangeError
from prefattach.graph import ModelConfig, run_chain
from prefattach.laws import deterministic
from prefattach.replicate import replicate
from prefattach.theory import pi_explicit, pi_quadrature, pi_recursive, tail_exponent_theory, theta

LAW = deterministic(1)


def _model(**fields):
    return ModelConfig(**{"beta": 0.0, "edge_law": LAW, "n": 10, **fields})


def _rng():
    return np.random.default_rng(0)


# (entry point, field it must name, call with the bad value, bad values).
# Out-of-range values are covered next to each entry point's own tests.
CASES = [
    ("ModelConfig", "model.n", lambda v: _model(n=v), [10.5, True]),
    ("ModelConfig", "model.record_stride", lambda v: _model(record_stride=v), [10.5, True]),
    ("ModelConfig", "model.probe_vertices", lambda v: _model(probe_vertices=(v,)), [10.5, True]),
    ("ModelConfig", "model.beta", lambda v: _model(beta=v), [True]),
    ("BranchingConfig", "branching.beta", lambda v: BranchingConfig(LAW, beta=v), [True]),
    ("replicate", "replications", lambda v: replicate(_model(), replications=v), [10.5, True]),
    ("run_embedding", "n", lambda v: run_embedding(LAW, 0.0, v, _rng()), [10.5, True]),
    ("run_embedding", "beta", lambda v: run_embedding(LAW, v, 5, _rng()), [True]),
    ("simulate_mbpi", "horizon", lambda v: simulate_mbpi(BranchingConfig(LAW), v, _rng()), [True]),
    ("theta", "beta", lambda v: theta(1.0, v), [True]),
    ("tail_exponent_theory", "beta", lambda v: tail_exponent_theory(1.0, v), [True]),
    ("deterministic", "x0", deterministic, [2.5, True]),
    ("pi_explicit", "x0", lambda v: pi_explicit(v, 0.0, 5), [2.5, True]),
    ("pi_explicit", "beta", lambda v: pi_explicit(1, v, 5), [True]),
    ("pi_explicit", "j", lambda v: pi_explicit(1, 0.0, v), [2.5, True]),
    ("pi_recursive", "j_max", lambda v: pi_recursive(LAW, 0.0, v), [10.5, True]),
    ("pi_recursive", "beta", lambda v: pi_recursive(LAW, v, 10), [True]),
    ("pi_quadrature", "j_max", lambda v: pi_quadrature(LAW, 0.0, v), [10.5, True]),
    ("pi_quadrature", "steps", lambda v: pi_quadrature(LAW, 0.0, 5, steps=v), [2000.5]),
    ("pi_quadrature", "beta", lambda v: pi_quadrature(LAW, v, 5), [True]),
    (
        "pi_quadrature", "y_max", lambda v: pi_quadrature(LAW, 0.0, 5, y_max=v),
        [True, math.nan, math.inf],
    ),
    (
        "tau_diagnostics", "beta", lambda v: tau_diagnostics([0.5, 0.7], [2.0, 4.0], 1.0, v),
        [math.nan, -1.0, True],
    ),
    ("tail_fit", "j_min", lambda v: tail_fit(pi_recursive(LAW, 0.0, 40), v, 30), [1.5, True]),
    ("tail_fit", "j_max", lambda v: tail_fit(pi_recursive(LAW, 0.0, 40), 3, v), [30.5, True]),
    (
        "split_half_pvalues", "n_trials", lambda v: split_half_pvalues({1: 40, 2: 20}, v, _rng()),
        [2.5, -1, 0, True],
    ),
    ("run_chain", "snapshot_steps", lambda v: run_chain(_model(), snapshot_steps=(v,)), [2.5, True]),
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
