"""Acceptance suite: the ten numbered checks at full scale.

Each test runs one check of the full-profile verification session at the
pinned master seed and prints a single pass/fail line (bypassing capture,
so the lines appear in any pytest run).  The session is shared across the
module so expensive artifacts (the long chain, the run ensemble) are built
once and reused by the checks that need them.  Each check's report must also
equal its entry in the golden full report (elapsed_s dropped), which pins the
full profile's random streams the way the golden quick report pins quick's.

The same suite is reachable from the command line as
``prefattach verify --profile full --seed 20260815``.
"""

import json
from pathlib import Path

import pytest
from test_verify import assert_same_document

from prefattach.verify import ALL_CHECKS, DEFAULT_MASTER_SEED, VerifySession

CRITERIA = list(enumerate(ALL_CHECKS, start=1))

# The full report at the default seed with each check's elapsed_s dropped.
GOLDEN_FULL = Path(__file__).parent / "data" / "verify_full_20260815.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FULL.read_text())


@pytest.fixture(scope="module")
def session():
    return VerifySession(profile="full", master_seed=DEFAULT_MASTER_SEED)


@pytest.mark.parametrize(
    ("number", "name"), CRITERIA, ids=[f"{i:02d}-{n}" for i, n in CRITERIA]
)
def test_acceptance_criterion(session, golden, capsys, number, name):
    report = session.run(names=(name,))
    check = report.checks[0]
    doc = report.to_json()
    del doc["checks"][0]["detail"]["elapsed_s"]
    assert_same_document(doc["config"], golden["config"], "config")
    assert_same_document(doc["checks"][0], golden["checks"][number - 1], name)
    mark = "PASS" if check.passed else "FAIL"
    with capsys.disabled():
        print(
            f"\nacceptance {number:02d}/10 {name}: {mark} "
            f"(value={check.value:.6g} {check.comparison} {check.threshold:g}) "
            f"-- {check.claim}"
        )
    assert check.passed, (
        f"criterion {number} ({name}) failed: value={check.value!r} "
        f"{check.comparison} {check.threshold!r} does not hold; "
        f"detail={check.detail!r}"
    )
