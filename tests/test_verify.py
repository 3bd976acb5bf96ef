"""Verification-session mechanics (profiles, overrides, report shape).

The full-scale run of every numbered criterion lives in test_acceptance.py;
here we exercise the machinery itself at the cheap profiles.
"""

import dataclasses
import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from prefattach import graph, verify
from prefattach.branching import _PathBuffers
from prefattach.errors import RangeError
from prefattach.laws import EdgeCountDistribution, deterministic
from prefattach.streams import substream
from prefattach.verify import ALL_CHECKS, CATALOGUE, DEFAULT_MASTER_SEED, VerifySession

# The quick report at the default seed with each check's elapsed_s dropped.
# It pins every value of a refactor that must not move the random streams; a
# change that does move them regenerates it from report.to_json().
GOLDEN_QUICK = Path(__file__).parent / "data" / "verify_quick_20260815.json"

# Every threshold key with its default, as (full, quick); theory uses full.
REFERENCE_DEFAULTS = {
    "explicit-spectrum-crosscheck": (1e-12, 1e-12),
    "explicit-spectrum-crosscheck.runtime": (1.0, 1.0),
    "dual-route-pi": (1e-6, 1e-6),
    "dual-route-pi.runtime": (30.0, 30.0),
    "degree-lln": (0.01, 0.06),
    "degree-lln.r1": (0.01, 0.04),
    "degree-lln.runtime": (60.0, 60.0),
    "tail-exponent": (0.4, 0.7),
    "tail-exponent.band_beta0": (0.15, 0.15),
    "tail-exponent.band_beta1": (0.2, 0.2),
    "moment-dichotomy": (1.0, 1.0),
    "growth-exponents": (0.85, 0.7),
    "growth-exponents.trajectory_osc": (0.2, 0.2),
    "growth-exponents.max_osc": (0.25, 0.25),
    "growth-exponents.runtime": (300.0, 300.0),
    "index-freezing": (0.85, 0.7),
    "embedding-equivalence": (0.001, 0.001),
    "embedding-equivalence.calibration_ks": (0.1, 0.25),
    "event-time-asymptotics": (0.90, 0.8),
    "event-time-asymptotics.tau1_sigmas": (3.0, 3.0),
    "event-time-asymptotics.drift_osc": (0.1, 0.1),
    "event-time-asymptotics.sn": (0.05, 0.05),
    "event-time-asymptotics.runtime": (300.0, 300.0),
    "scaled-size-limit": (0.90, 0.8),
    "scaled-size-limit.osc": (0.05, 0.05),
}


def test_the_check_catalogue_has_ten_entries():
    assert len(ALL_CHECKS) == 10
    assert len(set(ALL_CHECKS)) == 10


@pytest.mark.parametrize(("profile", "column"), [("full", 0), ("theory", 0), ("quick", 1)])
def test_threshold_defaults_match_the_reference_table(profile, column):
    expected = {key: pair[column] for key, pair in REFERENCE_DEFAULTS.items()}
    assert VerifySession(profile=profile).defaults == expected


def test_every_catalogue_name_has_its_traced_method():
    # An outside tracer wraps these methods by name.
    names = {"check_" + c.replace("-", "_") for c in ALL_CHECKS}
    names |= {"lln_run", "ensemble", "run"}
    assert names <= set(vars(VerifySession))


def test_readme_check_table_lists_the_catalogue_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(
        r"^\| *(\d+) *\| *`([a-z-]+)` *\| *([^|]*?) *\|", readme, flags=re.MULTILINE
    )
    assert [int(number) for number, _, _ in rows] == list(range(1, len(ALL_CHECKS) + 1))
    assert tuple(name for _, name, _ in rows) == ALL_CHECKS
    for (_, name, cell), check in zip(rows, CATALOGUE):
        if check.cases:
            assert cell == "; ".join(f"{law.label()}, β={beta:g}" for law, beta in check.cases)
        else:  # a cross-route check sweeps a law x beta grid of its own
            assert "×" in cell, name


def test_unknown_profile_is_rejected():
    with pytest.raises(RangeError):
        VerifySession(profile="nope")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_master_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(RangeError) as err:
        VerifySession(profile="theory", master_seed=seed)
    assert err.value.field == "master_seed"


def test_unknown_check_name_is_rejected():
    with pytest.raises(RangeError):
        VerifySession(profile="theory").run(names=("not-a-check",))


@pytest.mark.parametrize(
    "thresholds",
    [
        {"not-a-check": 1.0},
        {"degree-lln.bogus": 1.0},
        {"degree-lln": "x"},
        {"explicit-spectrum-crosscheck": float("nan")},
        {"explicit-spectrum-crosscheck": "inf"},
        {"degree-lln.r1": float("-inf")},
        {"moment-dichotomy": -0.5},
        {"tail-exponent": 0},
        {"tail-exponent.band_beta0": 0.0},
        {"tail-exponent.band_beta1": "0"},
        {"dual-route-pi": True},
        {"degree-lln.r1": False},
        {"dual-route-pi": np.True_},
        # the quadrature's tolerance: 0 is refused here, before any check runs
        {"dual-route-pi": 0},
        {"dual-route-pi": "0.0"},
    ],
)
def test_bad_threshold_overrides_are_rejected(thresholds):
    with pytest.raises(RangeError) as err:
        VerifySession(profile="theory", thresholds=thresholds)
    assert err.value.field == f"thresholds.{next(iter(thresholds))}"


@pytest.mark.parametrize("parallelism", [0, -3, 2.7, True, "2"])
def test_parallelism_must_be_a_positive_integer(parallelism):
    with pytest.raises(RangeError) as err:
        VerifySession(profile="theory", parallelism=parallelism)
    assert err.value.field == "parallelism"


class TestTheoryProfile:
    def test_runs_only_the_deterministic_checks(self):
        report = VerifySession(profile="theory").run()
        names = [c.name for c in report.checks]
        assert names == [
            "explicit-spectrum-crosscheck",
            "dual-route-pi",
            "tail-exponent",
            "moment-dichotomy",
        ]
        assert report.passed
        assert all(c.detail["elapsed_s"] > 0 for c in report.checks)

    def test_report_serializes_to_plain_json(self):
        report = VerifySession(profile="theory").run()
        doc = report.to_json()
        text = json.dumps(doc)  # must not raise on numpy leftovers
        assert set(doc) == {"config", "checks", "pass"}
        assert doc["pass"] is True
        for check in doc["checks"]:
            assert set(check) == {
                "name",
                "claim",
                "value",
                "threshold",
                "comparison",
                "passed",
                "detail",
            }
            assert isinstance(check["passed"], bool)
            assert isinstance(check["value"], float)

    def test_threshold_override_can_fail_a_passing_check(self):
        session = VerifySession(
            profile="theory", thresholds={"explicit-spectrum-crosscheck": 0.0}
        )
        report = session.run(names=("explicit-spectrum-crosscheck",))
        assert not report.passed
        assert report.checks[0].threshold == 0.0

    @pytest.mark.parametrize("tol", [1e-13, 5e-324])
    def test_a_tolerance_the_quadrature_cannot_reach_fails_dual_route_pi(self, tol):
        session = VerifySession(profile="theory", thresholds={"dual-route-pi": tol})
        [check] = session.run(names=("dual-route-pi",)).checks
        assert not check.passed
        refusals = check.detail["quadrature_refusals"]
        assert sorted(refusals) == sorted(check.detail["per_combo_max_abs_gap"])
        # the cutoff keeps 1e-12 of the mass, so the quadrature refuses its domain
        assert all(r.startswith("y_max: domain [0, ") for r in refusals.values())
        assert all(f"(tolerance {tol:g})" in r for r in refusals.values())

    def test_the_default_tolerance_records_no_refusal(self):
        [check] = VerifySession(profile="theory").run(names=("dual-route-pi",)).checks
        assert check.passed and "quadrature_refusals" not in check.detail

    @pytest.mark.parametrize("name", ["explicit-spectrum-crosscheck", "dual-route-pi"])
    def test_dotted_threshold_overrides_reach_sub_parameters(self, name):
        session = VerifySession(profile="theory", thresholds={f"{name}.runtime": 1e-9})
        report = session.run(names=(name,))
        assert not report.passed  # no computation finishes in a nanosecond
        assert report.checks[0].detail["runtime_bound_s"] == 1e-9


class TestSessionMechanics:
    def test_default_master_seed_is_pinned(self):
        assert VerifySession().master_seed == DEFAULT_MASTER_SEED

    def test_single_check_selection(self):
        report = VerifySession(profile="quick").run(names=("moment-dichotomy",))
        assert [c.name for c in report.checks] == ["moment-dichotomy"]
        assert report.checks[0].passed
        assert report.checks[0].detail["elapsed_s"] > 0

    def test_quick_profile_passes_end_to_end(self):
        report = VerifySession(profile="quick", master_seed=DEFAULT_MASTER_SEED).run()
        assert [c.name for c in report.checks] == list(ALL_CHECKS)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == []
        doc = report.to_json()
        for check in doc["checks"]:
            del check["detail"]["elapsed_s"]
        assert_same_document(doc, json.loads(GOLDEN_QUICK.read_text()))


def assert_same_document(got, want, where="report"):
    """Keys, strings, bools and ints equal; floats equal to 1e-9 relative."""
    if isinstance(want, float):
        assert type(got) is float and math.isclose(got, want, rel_tol=1e-9), (where, got, want)
    elif isinstance(want, dict):
        assert type(got) is dict and sorted(got) == sorted(want), (where, sorted(got))
        for key, value in want.items():
            assert_same_document(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), (where, got)
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_document(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def serial_size_limit_detail(master, runs, osc_tol):
    """The per-beta counts of ``scaled-size-limit`` from one loop after the
    other, each on one _PathBuffers and substream(master, 10 + beta)."""
    detail = {}
    for beta in (0.0, 1.0):
        paths = _PathBuffers()
        rng = substream(master, 10 + int(beta))
        hits = positive = 0
        for _ in range(runs):
            n = paths.draw(10, beta, deterministic(1), 8.0, rng)
            osc, last = paths.plateau(n, m=1.0)
            positive += last > 0
            hits += osc < osc_tol
        detail[f"beta={beta:g}"] = {
            "plateau_pass_fraction": hits / runs,
            "positive_fraction": positive / runs,
        }
    return detail


class TestSizeLimitThreads:
    """``scaled-size-limit`` runs its beta = 1 loop on a worker thread."""

    def test_two_threads_give_the_serial_report(self, monkeypatch):
        session = VerifySession(profile="quick")
        osc_tol = session.defaults["scaled-size-limit.osc"]
        expected = serial_size_limit_detail(session.master_seed, session.zeta_runs, osc_tol)
        real = _PathBuffers.draw
        threads = {0.0: set(), 1.0: set()}

        def recording(self, initial, beta, law, horizon, rng):
            threads[beta].add(threading.get_ident())
            return real(self, initial, beta, law, horizon, rng)

        monkeypatch.setattr(_PathBuffers, "draw", recording)
        (check,) = session.run(("scaled-size-limit",)).checks
        assert len(threads[0.0]) == len(threads[1.0]) == 1
        assert threads[0.0] != threads[1.0]
        assert {k: check.detail[k] for k in expected} == expected
        assert check.passed

    @pytest.mark.parametrize("failing", [0.0, 1.0])
    def test_an_error_in_either_loop_surfaces(self, monkeypatch, failing):
        real = _PathBuffers.draw
        calls = {0.0: 0, 1.0: 0}

        def broken(self, initial, beta, law, horizon, rng):
            calls[beta] += 1
            if beta == failing:
                raise RangeError("path.times", "event times must be strictly increasing")
            return real(self, initial, beta, law, horizon, rng)

        monkeypatch.setattr(_PathBuffers, "draw", broken)
        session = VerifySession(profile="quick")
        before = threading.active_count()
        with pytest.raises(RangeError) as err:
            session.run(("scaled-size-limit",))
        assert type(err.value) is RangeError and err.value.field == "path.times"
        assert threading.active_count() == before
        assert calls[failing] == 1
        if failing == 0.0:  # the worker stops at its next path
            assert calls[1.0] < session.zeta_runs


class TestNegativeControls:
    """A check fed a deliberately wrong sampler goes red at the quick profile."""

    def test_size_limit_fails_on_paths_grown_at_half_the_rate(self, monkeypatch):
        real = _PathBuffers.draw

        def half_rate(self, initial, beta, law, horizon, rng):
            # a real path to horizon/2, stretched over the whole horizon
            n = real(self, initial, beta, law, horizon / 2, rng)
            self.times[: n + 1] *= 2
            return n

        monkeypatch.setattr(_PathBuffers, "draw", half_rate)
        (check,) = VerifySession(profile="quick").run(("scaled-size-limit",)).checks
        assert not check.passed
        assert check.value < check.threshold

    def test_event_times_fail_when_the_clocks_run_at_half_the_rate(self, monkeypatch):
        real = verify.run_embedding

        def slow_clocks(*args):
            res = real(*args)
            return dataclasses.replace(res, taus=2 * res.taus)

        monkeypatch.setattr(verify, "run_embedding", slow_clocks)
        (check,) = VerifySession(profile="quick").run(("event-time-asymptotics",)).checks
        assert not check.passed
        assert check.detail["wait_gap"] > check.detail["wait_tol"]
        assert check.value < check.threshold

    def test_event_times_fail_when_the_waits_after_the_first_run_slow(self, monkeypatch):
        # tau_1 keeps its law; every later wait is 3 % too long
        real = verify.run_embedding

        def slow_later_waits(*args):
            res = real(*args)
            taus = res.taus.copy()
            taus[1:] = taus[0] + 1.03 * (taus[1:] - taus[0])
            return dataclasses.replace(res, taus=taus)

        monkeypatch.setattr(verify, "run_embedding", slow_later_waits)
        (check,) = VerifySession(profile="quick").run(("event-time-asymptotics",)).checks
        assert not check.passed
        assert check.detail["wait_mean"] > 1.0 + check.detail["wait_tol"]

    def test_uniform_attachment_turns_the_degree_checks_red(self, monkeypatch):
        real = graph._draw_steps

        def uniform_steps(config, rng):
            # every step picks a uniform vertex, whatever the degrees
            x, _, _ = real(config, rng)
            n = config.n
            return x, np.ones(n, dtype=bool), rng.integers(0, np.arange(2, n + 2))

        monkeypatch.setattr(graph, "_draw_steps", uniform_steps)
        names = ("degree-lln", "tail-exponent", "growth-exponents", "embedding-equivalence")
        report = VerifySession(profile="quick").run(names)
        assert [c.name for c in report.checks if c.passed] == []

    def test_a_nan_in_the_last_route_pair_turns_the_cross_route_checks_red(self, monkeypatch):
        # a NaN gap must fail its check, not drop out of the running maximum
        explicit_pi, quadrature = verify._pi_explicit_vector, verify.pi_quadrature

        def nan_explicit(x0, beta, j_max):
            pi = explicit_pi(x0, beta, j_max)
            return pi * np.nan if x0 == 3 else pi

        def nan_quadrature(law, beta, j_max, tol):
            pi = quadrature(law, beta, j_max, tol=tol)
            return pi * np.nan if law.label() == "geom:0.5" and beta == 1.0 else pi

        monkeypatch.setattr(verify, "_pi_explicit_vector", nan_explicit)
        monkeypatch.setattr(verify, "pi_quadrature", nan_quadrature)
        names = ("explicit-spectrum-crosscheck", "dual-route-pi")
        assert [c.passed for c in VerifySession(profile="theory").run(names).checks] == [False] * 2

    def test_a_spectrum_at_the_wrong_offset_turns_the_theory_checks_red(self, monkeypatch):
        real = verify.pi_recursive

        def shifted(law, beta, j_max):
            return real(law, beta + 1.0, j_max)

        monkeypatch.setattr(verify, "pi_recursive", shifted)
        report = VerifySession(profile="theory").run()
        assert [c.name for c in report.checks if not c.passed] == [
            "explicit-spectrum-crosscheck",
            "dual-route-pi",
            "tail-exponent",
            "moment-dichotomy",
        ]


def test_the_wait_bound_is_recorded_at_its_own_sigmas():
    session = VerifySession(profile="quick", thresholds={"event-time-asymptotics.tau1_sigmas": 2})
    (check,) = session.run(("event-time-asymptotics",)).checks
    assert check.detail["wait_sigmas"] == 2.0
    assert check.detail["wait_tol"] == 2.0 / math.sqrt(check.detail["waits"])
    assert "wait_tol_3sigma" not in check.detail


def test_event_times_draw_no_one_event_embeddings(monkeypatch):
    # the drift runs only: the waits reuse them, and S_n is read off the X draws
    real = verify.run_embedding
    sizes = []

    def counting(law, beta, n, rng):
        sizes.append(n)
        return real(law, beta, n, rng)

    monkeypatch.setattr(verify, "run_embedding", counting)
    session = VerifySession(profile="quick")
    session.run(("event-time-asymptotics",))
    assert len(sizes) == session.drift_reps == 20
    assert 1 not in sizes


class TestCasesAreData:
    """Each empirical check runs exactly the (law, beta) cases of its row."""

    def test_rows_sharing_an_artifact_agree_on_their_first_case(self):
        first = {c.name: c.cases[0] for c in CATALOGUE if c.cases}
        assert first["tail-exponent"] == first["degree-lln"]  # both read lln_run
        assert first["index-freezing"] == first["growth-exponents"]  # both read ensemble

    @pytest.mark.parametrize("check", [c for c in CATALOGUE if c.cases], ids=lambda c: c.name)
    def test_a_check_samples_exactly_its_cases(self, monkeypatch, check):
        seen = set()
        drawn = set()  # laws whose X's the check draws itself, which know no beta
        depth = [0]  # recorded calls in progress

        def recording(real, case_of):
            def wrapper(*args, **kwargs):
                law, beta = case_of(*args)
                seen.add((law.label(), beta))
                depth[0] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapper

        def sampling(law, *args, **kwargs):
            if not depth[0]:
                drawn.add(law.label())
            return real_sample(law, *args, **kwargs)

        def of_model(model, *_):
            return model.edge_law, model.beta

        def of_law_beta(law, beta, *_):
            return law, beta

        for name, case_of in [
            ("run_chain", of_model),
            ("replicate", of_model),
            ("run_embedding", of_law_beta),
            ("pi_recursive", of_law_beta),
        ]:
            monkeypatch.setattr(verify, name, recording(getattr(verify, name), case_of))
        draw = recording(_PathBuffers.draw, lambda _, initial, beta, law, *__: (law, beta))
        monkeypatch.setattr(_PathBuffers, "draw", draw)
        real_sample = EdgeCountDistribution.sample
        monkeypatch.setattr(EdgeCountDistribution, "sample", sampling)
        # a fresh session, so the check builds the shared artifacts it reads
        VerifySession(profile="quick").run((check.name,))
        cases = {(law.label(), beta) for law, beta in check.cases}
        assert seen <= cases
        assert {label for label, _ in cases - seen} <= drawn
