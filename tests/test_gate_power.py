"""Power of the gate's hard lines: a defect planted in the product, by
rebinding one of its functions, must make the criterion that names the
defective law FAIL.

The planted defects of a law (the GIG shape, the Green bundle, the walk's
step) run at the full size tier, at the seeds the full gate is recorded at;
the non-finite samples run at the quick tier, since any size must fail on
them.
"""

from __future__ import annotations

import dataclasses

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


@pytest.mark.parametrize("field", ["psi", "gamma"])
def test_c1_catches_a_green_bundle_off_by_one_part_in_a_million(monkeypatch, field):
    # one entry of psi, or the coupling gamma, scaled by 1 + 1e-6 in every
    # bundle: the wired operator no longer inverts the full kernel to
    # within the 1e-9 tolerance
    green_bundle = verify.green_bundle

    def planted(*args, **kwargs):
        bundle = green_bundle(*args, **kwargs)
        if field == "gamma":
            return dataclasses.replace(bundle, gamma=bundle.gamma * (1.0 + 1e-6))
        psi = bundle.psi.copy()
        psi[psi.size // 2] *= 1.0 + 1e-6
        return dataclasses.replace(bundle, psi=psi)

    monkeypatch.setattr(verify, "green_bundle", planted)
    result = verify.criterion_1(FULL, 7)
    assert not result.passed, result.line()


def plant_step(monkeypatch, weights):
    """C12's walks step to +e_0, -e_0, +e_1, -e_1 with the given weights
    and stay put with the rest of 1, in blocks of 1,000 walks."""

    def planted(dim, n_walks, length, rng):
        assert dim == 2
        cdf = np.cumsum(weights)
        ends = np.empty((n_walks, dim), dtype=np.int64)
        for lo in range(0, n_walks, 1000):
            picks = np.searchsorted(cdf, rng.random((min(1000, n_walks - lo), length)))
            for ax in range(dim):
                moves = (picks == 2 * ax).sum(axis=1) - (picks == 2 * ax + 1).sum(axis=1)
                ends[lo : lo + moves.size, ax] = moves
        return ends

    monkeypatch.setattr(verify, "srw_endpoints", planted)


def test_c12_passes_its_planted_walker_with_fair_steps(monkeypatch):
    # the control: the planted walker itself, with no defect, passes
    # (E|X_n|^2/n = 1.0148 at seed 7)
    plant_step(monkeypatch, [0.25, 0.25, 0.25, 0.25])
    result = verify.criterion_12(FULL, 7)
    assert result.passed, result.line()


@pytest.mark.parametrize(
    "weights",
    [[0.225, 0.225, 0.225, 0.225], [0.255, 0.245, 0.25, 0.25]],
    ids=["lazy", "biased"],
)
def test_c12_catches_a_defective_step(monkeypatch, weights):
    # lazy: each step stays put with probability 0.1, so E|X_n|^2/n is
    # 0.9; biased: a drift of 0.01 a step along e_0 adds about
    # 1e-4 n = 0.1 to it at n = 1,000. The bound is 0.02 either way
    plant_step(monkeypatch, weights)
    result = verify.criterion_12(FULL, 7)
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
