"""Verification-session mechanics (profiles, overrides, report shape).

The full-scale run of every numbered criterion lives in test_acceptance.py;
here we exercise the machinery itself at the cheap profiles.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from prefattach import verify
from prefattach.branching import _PathBuffers
from prefattach.errors import RangeError
from prefattach.verify import ALL_CHECKS, DEFAULT_MASTER_SEED, VerifySession

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
    rows = re.findall(r"^\| *(\d+) *\| *`([a-z-]+)` *\|", readme, flags=re.MULTILINE)
    assert [int(number) for number, _ in rows] == list(range(1, len(ALL_CHECKS) + 1))
    assert tuple(name for _, name in rows) == ALL_CHECKS


def test_unknown_profile_is_rejected():
    with pytest.raises(RangeError):
        VerifySession(profile="nope")


def test_unknown_check_name_is_rejected():
    with pytest.raises(RangeError):
        VerifySession(profile="theory").run(names=("not-a-check",))


@pytest.mark.parametrize(
    "thresholds", [{"not-a-check": 1.0}, {"degree-lln.bogus": 1.0}, {"degree-lln": "x"}]
)
def test_bad_threshold_overrides_are_rejected(thresholds):
    with pytest.raises(RangeError) as err:
        VerifySession(profile="theory", thresholds=thresholds)
    assert err.value.field == f"thresholds.{next(iter(thresholds))}"


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
        assert check.detail["tau1_gap"] > check.detail["tau1_tol_3sigma"]
        assert check.value < check.threshold
