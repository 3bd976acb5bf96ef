"""Verification-session mechanics (profiles, overrides, report shape).

The full-scale run of every numbered criterion lives in test_acceptance.py;
here we exercise the machinery itself at the cheap profiles.
"""

import json

import pytest

from prefattach.errors import RangeError
from prefattach.verify import ALL_CHECKS, DEFAULT_MASTER_SEED, VerifySession


def test_the_check_catalogue_has_ten_entries():
    assert len(ALL_CHECKS) == 10
    assert len(set(ALL_CHECKS)) == 10


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

    def test_dotted_threshold_overrides_reach_sub_parameters(self):
        session = VerifySession(
            profile="theory",
            thresholds={"explicit-spectrum-crosscheck.runtime": 1e-9},
        )
        report = session.run(names=("explicit-spectrum-crosscheck",))
        assert not report.passed  # no computation finishes in a nanosecond


class TestSessionMechanics:
    def test_default_master_seed_is_pinned(self):
        assert VerifySession().master_seed == DEFAULT_MASTER_SEED

    def test_single_check_selection(self):
        report = VerifySession(profile="quick").run(names=("moment-dichotomy",))
        assert [c.name for c in report.checks] == ["moment-dichotomy"]
        assert report.checks[0].passed

    def test_quick_profile_passes_end_to_end(self):
        report = VerifySession(profile="quick", master_seed=DEFAULT_MASTER_SEED).run()
        assert [c.name for c in report.checks] == list(ALL_CHECKS)
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == []
