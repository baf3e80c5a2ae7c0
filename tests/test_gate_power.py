"""Power of the gate's hard lines: a defect planted in the product, by
rebinding one of its functions, must make the criterion that names the
defective law FAIL.

The shape defect runs at the full size tier, at the seeds the full gate is
recorded at; the non-finite samples run at the quick tier, since any size
must fail on them.
"""

from __future__ import annotations

import numpy as np
import pytest

from vrjp import betafield, verify
from vrjp.verify import FULL, QUICK


def plant_gig_shape(monkeypatch, scale):
    """Every site's shifted potential drawn with its GIG shape b scaled."""
    gig_in_order = betafield._gig_in_order
    monkeypatch.setattr(
        betafield, "_gig_in_order", lambda b, rng: gig_in_order(scale * b, rng)
    )


@pytest.mark.parametrize("seed", [7, 8])
def test_c3_catches_a_two_percent_gig_shape(monkeypatch, seed):
    # the marginal 1/(2 beta) is no longer inverse Gaussian
    plant_gig_shape(monkeypatch, 1.02)
    result = verify.criterion_3(FULL, seed)
    assert not result.passed, result.line()


def test_c2_catches_a_two_percent_gig_shape(monkeypatch):
    # the Laplace transform leaves the closed form (worst |z| 15.4 on the
    # wired 3x3 box at seed 7)
    plant_gig_shape(monkeypatch, 1.02)
    result = verify.criterion_2(FULL, 7)
    assert not result.passed, result.line()


def test_c6_catches_a_two_percent_gig_shape(monkeypatch):
    # psi is no longer a martingale over the nested boxes (increment |z|
    # 22.1 at seed 7)
    plant_gig_shape(monkeypatch, 1.02)
    result = verify.criterion_6(FULL, 7)
    assert not result.passed, result.line()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_c3_fails_on_a_non_finite_sample(monkeypatch, bad):
    draws = verify._draws

    def planted(params, n, rng, stat):
        vals = draws(params, n, rng, stat)
        vals[n // 2] = bad
        return vals

    monkeypatch.setattr(verify, "_draws", planted)
    result = verify.criterion_3(QUICK, 7)
    assert not result.passed
    assert "KS stat nan, p = nan" in result.detail, result.line()


# a Green diagonal of nan or 0 makes 1/(2 G(delta, delta)) nan or inf
@pytest.mark.parametrize("g", [np.nan, 0.0], ids=["nan", "inf"])
def test_c7_fails_on_a_non_finite_sample(monkeypatch, g):
    green_solve = verify.green_solve

    def planted(p, beta, rhs):
        out = green_solve(p, beta, rhs)
        out[out.shape[0] // 2] = g
        return out

    monkeypatch.setattr(verify, "green_solve", planted)
    result = verify.criterion_7(QUICK, 7)
    assert not result.passed
    assert "KS p = nan" in result.detail, result.line()
