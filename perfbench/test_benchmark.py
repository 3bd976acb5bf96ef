"""Self-tests of the benchmark: oracles against hand values, checks against corrupted outputs.

Run from the root of a checkout with

    python3 -m pytest perfbench -q

Each output check is shown to pass on the program's real output and to go
red when that output is corrupted in one place.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from prefattach import (  # noqa: E402
    deterministic,
    geometric,
    moment_profile,
    pi_recursive,
    run_embedding,
    tail_fit,
)
from prefattach.verify import CheckResult, ReportDocument  # noqa: E402


# -- oracles against hand-computed values ------------------------------------


def test_gamma_closed_form_matches_hand_values():
    for j in range(1, 60):
        assert oracles.pi_gamma(1, 0.0, j) == pytest.approx(4 / (j * (j + 1) * (j + 2)), rel=1e-12)
    # x0 = 1, beta = 1: pi_1 = 3/5, pi_2 = (3/6)(2/5) = 1/5.
    assert oracles.pi_gamma(1, 1.0, 1) == pytest.approx(0.6, rel=1e-12)
    assert oracles.pi_gamma(1, 1.0, 2) == pytest.approx(0.2, rel=1e-12)
    # x0 = 2 puts mass on even degrees only; pi_2 = (2 x0 + beta) / (3 x0 + 2 beta).
    assert oracles.pi_gamma(2, 0.5, 3) == 0.0
    assert oracles.pi_gamma(2, 0.5, 2) == pytest.approx(4.5 / 7.0, rel=1e-12)


def test_reference_recursion_agrees_with_closed_form_and_sums_to_one():
    for x0, beta in ((1, 0.0), (2, 0.5), (3, 2.0)):
        ref = oracles.pi_reference({x0: 1.0}, beta, 120)
        gamma = [oracles.pi_gamma(x0, beta, j) for j in range(121)]
        assert ref == pytest.approx(gamma, rel=1e-10, abs=1e-16)
    geom = oracles.pi_reference(oracles.parse_law("geom:0.5"), 1.0, 4000)
    assert sum(geom) == pytest.approx(1.0, abs=2e-4)


def test_exponents_and_laws():
    assert oracles.growth_exponent(1.0, 0.0) == 0.5
    assert oracles.growth_exponent(2.0, 1.0) == pytest.approx(0.4)
    assert oracles.tail_exponent(2.0, 1.0) == 3.5
    assert oracles.law_mean(oracles.parse_law("geom:0.5")) == pytest.approx(2.0, rel=1e-12)
    assert oracles.parse_law("explicit:1,1,2") == {1: 0.25, 2: 0.25, 3: 0.5}


def test_chi_square_sf_and_ks_hand_values():
    assert oracles.chi_square_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-14)
    assert oracles.chi_square_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-12)
    assert oracles.chi_square_sf(0.0, 5) == 1.0
    assert oracles.ks_uniform([0.5]) == 0.5
    assert oracles.ks_uniform([0.25, 0.75]) == 0.25


def test_yule_mean_and_mean_check():
    assert oracles.yule_scaled_mean(3, 0.0, 4.0) == 3.0
    assert oracles.yule_scaled_mean(3, 1.0, 0.0) == 3.0
    rng = np.random.default_rng(0)
    sample = (1.0 + rng.standard_normal(400)).tolist()
    assert not oracles.mean_problem(sample, 1.0, "x")
    assert oracles.mean_problem(sample, 1.6, "x")  # 12 standard errors off


def test_degree_table_red_on_off_by_one():
    # Two det:1 steps, both joining vertex 1: degrees (3, 1, 1, 1).
    good = {3: 1, 1: 3}
    det1 = {1: 1.0}
    assert not oracles.degree_table_problems(good, det1, n=2, reps=1)
    assert oracles.degree_table_problems({3: 1, 1: 4}, det1, n=2, reps=1)  # a vertex too many
    assert oracles.degree_table_problems({4: 1, 1: 3}, det1, n=2, reps=1)  # degree off by one
    assert oracles.degree_table_problems({2: 1, 1: 3}, det1, n=2, reps=1)  # degree shifted down


def test_series_red_on_decrease_and_probe_above_max():
    steps, max_s, arg = [0, 1, 2], [1, 2, 3], [1, 1, 1]
    assert not oracles.series_problems(steps, {1: [1, 2, 3]}, max_s, arg)
    assert oracles.series_problems(steps, {1: [1, 3, 2]}, max_s, arg)
    assert oracles.series_problems(steps, {1: [1, 2, 3]}, [1, 3, 2], arg)
    assert oracles.series_problems(steps, {1: [1, 2, 4]}, max_s, arg)
    assert oracles.series_problems(steps, {1: [1, 2, 3]}, max_s, [1, 9, 1])


# -- workload checks against real and corrupted program output ----------------


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _chain_call(tmp_path, command="analyze", law="geom:0.5", beta=1.0):
    chain = workloads.Chain()
    out = str(tmp_path / "chain")
    argv = [command, "--law", law, "--beta", str(beta), "--n", "3000", "--reps", "1",
            "--seed", "5", "--probes", "1,2,40", "--out", out]
    rnd = workloads.Round()
    assert rnd.cli(argv) is not None

    def check():
        return chain._check(law, beta, 3000, 1, [1, 2, 40], out, command)

    return out, check


def test_chain_check_passes_then_red_on_count_off_by_one(tmp_path):
    out, check = _chain_call(tmp_path)
    assert check() == []

    def bump(rows):
        rows[2][1] = str(int(rows[2][1]) + 1)

    _rewrite_csv(os.path.join(out, "degree_distribution.csv"), bump)
    assert check()


def test_chain_check_red_on_swapped_max_rows(tmp_path):
    out, check = _chain_call(tmp_path, law="det:1", beta=0.0)
    assert check() == []

    def swap(rows):
        rows[-1], rows[-300] = rows[-300], rows[-1]

    _rewrite_csv(os.path.join(out, "max_degree.csv"), swap)
    assert check()


def test_chain_check_red_on_spectrum_shifted_by_one_degree(tmp_path):
    out, check = _chain_call(tmp_path, law="det:1", beta=0.0)

    def shift(rows):
        theory = [r[3] for r in rows[1:]]
        for r, value in zip(rows[2:], theory):
            r[3] = value

    _rewrite_csv(os.path.join(out, "degree_distribution.csv"), shift)
    assert check()


def test_theory_check_red_on_shifted_spectrum(tmp_path):
    spectrum = workloads.Spectrum()
    out = str(tmp_path / "theory")
    rnd = workloads.Round()
    argv = ["theory", "--law", "det:2", "--beta", "0.5", "--jmax", str(workloads.THEORY_JMAX), "--out", out]
    stdout = rnd.cli(argv)
    assert spectrum._check_theory("det:2", 0.5, out, stdout) == []
    # A wrong theta in the printed summary is caught.
    assert spectrum._check_theory("det:2", 0.5, out, stdout.replace("theta=", "theta=0"))

    def shift(rows):
        column = [r[1] for r in rows[1:]]
        for r, value in zip(rows[2:], column):
            r[1] = value

    _rewrite_csv(os.path.join(out, "pi.csv"), shift)
    assert spectrum._check_theory("det:2", 0.5, out, stdout)


def test_spectrum_checks_pass_across_the_seeded_beta_range():
    spectrum = workloads.Spectrum()
    for beta in np.linspace(0.25, 2.0, 8):
        for law, label in ((deterministic(1), "det:1"), (geometric(0.5), "geom:0.5")):
            spec = pi_recursive(law, beta, workloads.LONG_JMAX)
            assert spectrum._check_spectrum(spec, label, beta, workloads.LONG_JMAX) == []
            curves = moment_profile(spec, workloads.MOMENT_S + (2.0 + beta / law.mean,))
            assert spectrum._check_moments(spec, curves) == []
            slope = tail_fit(spec, 20, workloads.LONG_JMAX).slope
            assert abs(slope + oracles.tail_exponent(law.mean, beta)) <= 0.2


def test_spectrum_check_red_on_shift_and_lost_mass():
    spectrum = workloads.Spectrum()
    spec = pi_recursive(deterministic(1), 0.5, 300)
    assert spectrum._check_spectrum(spec, "det:1", 0.5, 300) == []
    shifted = type(spec)(spec.theta, np.roll(spec.pi, 1), spec.tail_exponent, spec.truncation_mass, spec.rate)
    assert spectrum._check_spectrum(shifted, "det:1", 0.5, 300)
    lost = type(spec)(spec.theta, spec.pi, spec.tail_exponent, spec.truncation_mass + 1e-6, spec.rate)
    assert spectrum._check_spectrum(lost, "det:1", 0.5, 300)


def test_embedding_check_red_on_swapped_times_and_wrong_ledger():
    clock = workloads.Clock()
    res = run_embedding(geometric(0.5), 1.0, 500, np.random.default_rng(3))
    assert clock._check_embedding(res, "geom:0.5", 1.0) == []
    taus = res.taus.copy()
    taus[[10, 11]] = taus[[11, 10]]
    assert clock._check_embedding(type(res)(res.sizes, res.start_times, taus, res.chosen, res.xs, res.s_values),
                                  "geom:0.5", 1.0)
    s_values = res.s_values.copy()
    s_values[200] += 1.0
    assert clock._check_embedding(type(res)(res.sizes, res.start_times, res.taus, res.chosen, res.xs, s_values),
                                  "geom:0.5", 1.0)
    sizes = res.sizes.copy()
    sizes[0] += 1
    assert clock._check_embedding(type(res)(sizes, res.start_times, res.taus, res.chosen, res.xs, res.s_values),
                                  "geom:0.5", 1.0)


def test_report_check_red_when_pass_contradicts_threshold():
    good = CheckResult("degree-lln", "claim", 0.01, 0.06, "<=", True)
    assert workloads.VerifyQuick._check_report(ReportDocument({}, [good]), "degree-lln") == []
    bad = CheckResult("degree-lln", "claim", 0.1, 0.06, "<=", True)
    assert workloads.VerifyQuick._check_report(ReportDocument({}, [bad]), "degree-lln")


def test_clock_round_is_correct_and_its_stochastic_checks_hold(tmp_path):
    clock = workloads.Clock()
    clock.prepare(11, str(tmp_path))
    rnd = workloads.Round()
    clock.run_round(rnd)
    assert rnd.failed == 0 and rnd.problems == []


# -- tracing -------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    for name, start, end, parent in (("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1)):
        span = tracing.Span(name, parent, 0)
        span.start, span.end = start, end
        tracer.spans.append(span)
    assert tracer.self_times() == [7.0, 2.0, 1.0]


def test_install_wraps_every_reference_and_uninstall_restores():
    import prefattach
    from prefattach.verify import VerifySession

    rep_mod = sys.modules["prefattach.replicate"]  # the package attribute is the function

    original, original_check = prefattach.run_chain, VerifySession.check_degree_lln
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert prefattach.run_chain is not original
        assert rep_mod.run_chain is prefattach.run_chain
        assert VerifySession.check_degree_lln is not original_check
        model = prefattach.ModelConfig(beta=0.0, edge_law=deterministic(1), n=50)
        prefattach.replicate(model, 2)
    finally:
        tracer.uninstall()
    assert prefattach.run_chain is original and rep_mod.run_chain is original
    assert VerifySession.check_degree_lln is original_check
    names = [s.name for s in tracer.spans]
    assert names == ["replicate.replicate", "graph.run_chain", "graph.run_chain"]
    metrics = tracer.metrics(1, 0.5)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["graph.us_per_step"] > 0 and metrics["replicate.us_per_replicate"] > 0
