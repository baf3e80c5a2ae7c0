"""Acceptance gate: the full numbered check suite at production sizes.

The suite runs once at the full size tier with the default seed; each
numbered check then gets its own test that prints the check's one-line
verdict and asserts its gate. Check 13 is a soft diagnostic: its reading is
printed but it never fails the gate.
"""

from __future__ import annotations

import hashlib

import pytest

from vrjp import verify
from vrjp.verify import CRITERIA, DEFAULT_SEED, run_suite

NAMES = {
    1: "exact-identities",
    2: "sampler-vs-closed-form",
    3: "inverse-gaussian-marginal",
    4: "distance-two-independence",
    5: "restriction-compatibility",
    6: "martingale-suite",
    7: "collapsed-vertex-coupling",
    8: "mixture-representation",
    9: "reinforced-walk-equivalence",
    10: "escape-probabilities",
    11: "cosh-moment-bound",
    12: "random-walk-calibration",
    13: "regime-diagnostics",
}


@pytest.fixture(scope="module")
def full_results():
    results = run_suite(tier="full", seed=DEFAULT_SEED)
    return {r.cid: r for r in results}


def test_every_numbered_check_is_present():
    assert sorted(CRITERIA) == list(range(1, 14))
    assert sorted(NAMES) == sorted(CRITERIA)


@pytest.mark.parametrize(
    "cid", sorted(NAMES), ids=[f"{k:02d}-{NAMES[k]}" for k in sorted(NAMES)]
)
def test_criterion(cid, full_results):
    result = full_results[cid]
    print(result.line())
    assert result.cid == cid
    if result.diagnostic:
        # soft check: the printed reading is the deliverable, not a gate
        assert result.gate_ok
    else:
        assert result.passed, result.line()


def test_gate(full_results):
    hard = [r for r in full_results.values() if not r.diagnostic]
    assert len(hard) == 12
    assert all(r.gate_ok for r in full_results.values())


# the names each criterion registers under, as its CheckResult carries them
TITLES = {
    1: "exact identities",
    2: "sampler vs closed form",
    3: "inverse-Gaussian marginal",
    4: "distance-two independence",
    5: "restriction compatibility",
    6: "martingale suite",
    7: "collapsed-vertex coupling law",
    8: "mixture representation",
    9: "reinforced-walk equivalence",
    10: "escape probabilities",
    11: "cosh moment bound",
    12: "random-walk calibration",
    13: "soft regime diagnostics",
}

# sha256 of the quick tier's lines at the default seed for criteria 2-13,
# joined by newlines. Criterion 1 is left out: its .2e residuals depend on
# the BLAS's rounding. Taken again, with FULL_LINES_SHA256, when the band
# draw became two-level, again when the scalar jump walk began to draw its
# waits and picks a chunk at a time, and again when the conductance ratio
# began to draw its environments a block at a time, only the weights it
# reads, with its d = 2 blocks batched: each time only criterion 13's line
# moved, the second time only its diffusion reading and the third only its
# ratio reading.
QUICK_LINES_SHA256 = "3a4f7501ca551f569dc08b24a5cb1b58e48b6d689a4789c1f170aa040285e11c"


@pytest.fixture(scope="module")
def quick_results():
    return run_suite(tier="quick", seed=DEFAULT_SEED)


def test_quick_lines_are_pinned(quick_results):
    lines = "\n".join(r.line() for r in quick_results if r.cid != 1)
    assert hashlib.sha256(lines.encode()).hexdigest() == QUICK_LINES_SHA256


# the same digest for the full tier's lines at the default seed, criteria
# 2-13
FULL_LINES_SHA256 = "de4111d9a7e22258f4d902f1676bb10a89d9b4a5251b5e0d3b1678aa105e8486"


def test_full_lines_are_pinned(full_results):
    lines = "\n".join(r.line() for cid, r in sorted(full_results.items()) if cid != 1)
    assert hashlib.sha256(lines.encode()).hexdigest() == FULL_LINES_SHA256


def test_registry(quick_results):
    # the module's criterion_<cid> is the registered object itself, which
    # a tracer that rebinds both by identity relies on
    assert sorted(TITLES) == sorted(CRITERIA)
    for cid, check in CRITERIA.items():
        assert getattr(verify, f"criterion_{cid}") is check
    for result in quick_results:
        assert result.name == TITLES[result.cid]
        assert result.diagnostic == (result.cid == 13)
        assert result.seconds > 0
    assert [r.cid for r in quick_results] == sorted(CRITERIA)
