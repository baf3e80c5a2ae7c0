"""Potential-field closed forms, densities, and exact samplers."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import inspect
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import vrjp.betafield
from vrjp import (
    BandSample,
    DomainError,
    NuParams,
    RestrictionError,
    SizeError,
    WeightedGraph,
    WiredBand,
    build_lattice_box,
    gig_half_sample,
    green_solve_banded,
    laplace_closed_form,
    sample_banded,
    sample_batch,
    stream,
)
from vrjp.betafield import (
    _PANEL,
    BandDiagonals,
    _blocked_band_loop,
    h_beta,
)

from _oracles import (
    SE_RULE,
    ALPHA,
    NoDraws,
    band_diagonals,
    banded_coupling,
    density,
    density_mass_pair,
    gig_mean_quadrature,
    h_beta_banded,
    laplace_by_quadrature_single,
    log_density,
    pair_params,
    reference_marginal_params,
    reference_sample_banded,
    reference_sample_batch,
    sample_errw_env,
    schur_step,
    se,
    spd_certificate,
    two_level_order,
    zscore,
)


def two_path():
    return WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))


def relabelled(params: NuParams, order) -> NuParams:
    """params with its sites relabelled so that site k is vertex order[k]:
    sample_batch on it eliminates the vertices in `order`."""
    idx = np.asarray(order)
    return NuParams(p=params.p[np.ix_(idx, idx)], eta=params.eta[idx])


class TestNuParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            NuParams(p=np.array([[0.0, 1.0], [2.0, 0.0]]), eta=np.zeros(2))
        with pytest.raises(DomainError):
            NuParams(p=np.array([[0.0, -1.0], [-1.0, 0.0]]), eta=np.zeros(2))
        with pytest.raises(DomainError):
            NuParams(p=np.zeros((2, 2)), eta=np.zeros(3))
        with pytest.raises(DomainError):
            NuParams(p=np.zeros((2, 2)), eta=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_eta(self, bad):
        with pytest.raises(DomainError, match="eta entries must be finite"):
            NuParams(p=pair_params(1.0).p, eta=np.array([0.0, bad]))

    @pytest.mark.parametrize(
        "upper,lower,ok",
        [
            (1.0, 1.0 + 1e-13, True),
            (1.0, 1.0 + 1e-9, False),
            (1.0, np.nan, False),
            (np.nan, np.nan, False),
            (np.inf, np.inf, False),
            (-0.0, 0.0, True),
        ],
    )
    def test_symmetry_tolerance(self, upper, lower, ok):
        # rounding-level asymmetry passes, whether or not the exact test
        # catches it first; NaN and inf never do, and are refused before it
        p = np.array([[0.0, upper], [lower, 0.0]])
        if ok:
            assert NuParams(p=p, eta=np.zeros(2)).p[1, 0] == lower
        else:
            reason = "finite" if not np.isfinite(p).all() else "symmetric"
            with pytest.raises(DomainError, match=reason):
                NuParams(p=p, eta=np.zeros(2))

    @pytest.mark.parametrize(
        "p",
        [
            [[np.inf, 1.0], [1.0, 0.0]],
            [[0.0, np.inf], [np.inf, 0.0]],
            [[0.0, -np.inf], [-np.inf, 0.0]],
        ],
        ids=["diagonal", "off-diagonal", "negative"],
    )
    def test_refuses_infinite_coupling_before_drawing(self, p):
        # at an infinite entry sample_batch returned beta = inf, or failed
        # inside numpy's Wald draw with an untyped ValueError
        with pytest.raises(DomainError, match="coupling entries must be finite"):
            sample_batch(NuParams(p=p, eta=np.zeros(2)), 1, NoDraws())

    def test_from_graph(self):
        params = NuParams.from_graph(two_path(), eta=0.5)
        assert params.n == 3
        assert np.array_equal(params.eta, [0.5, 0.5, 0.5])
        assert params.p[0, 1] == 1.0 and params.p[0, 2] == 0.0

    def test_marginal_params_of_box_subset(self):
        g = build_lattice_box(2, 1)
        subset = [4]  # center
        params = WiredBand.from_graph(g, subset).params()
        assert params.p.shape == (1, 1) and params.p[0, 0] == 0.0
        assert params.eta[0] == 4.0
        # in subset order, with zero eta for the full vertex set, exactly as
        # the induced-subgraph route gives it
        g = build_lattice_box(2, 2, 0.7)
        w = stream(75, "marginal-w").gamma(1.0, 1.0, size=g.edge_count)
        g = WeightedGraph(
            n=g.n, edges=tuple((i, j, x) for (i, j, _), x in zip(g.edges, w))
        )
        for subset in ([12, 7, 13, 11, 17, 6], list(range(g.n))[::-1], [3]):
            params = WiredBand.from_graph(g, subset).params()
            want = reference_marginal_params(g, subset)
            np.testing.assert_array_equal(params.p, want.p)
            np.testing.assert_array_equal(params.eta, want.eta)

    @pytest.mark.parametrize("subset", [[-1, 0], [0, 0, 1], [0, 25], []])
    def test_marginal_params_refuses_bad_subset(self, subset):
        with pytest.raises(DomainError):
            WiredBand.from_graph(build_lattice_box(2, 2), subset).params()


class TestLaplaceClosedForm:
    def test_normalization_at_zero(self):
        for params in (
            NuParams.from_graph(two_path()),
            NuParams(p=np.array([[0.7]]), eta=np.array([2.0])),
            pair_params(1.3),
        ):
            assert laplace_closed_form(params, np.zeros(params.n)) == 1.0

    def test_single_vertex_with_boundary(self):
        params = NuParams(p=np.zeros((1, 1)), eta=np.array([1.0]))
        val = laplace_closed_form(params, np.array([3.0]))
        assert val == pytest.approx(np.exp(-1.0) / 2.0, rel=1e-12)
        assert val == pytest.approx(0.1839397, abs=5e-8)

    def test_pair_single_site_point(self):
        val = laplace_closed_form(pair_params(1.0), np.array([1.0, 0.0]))
        assert val == pytest.approx(np.exp(-(np.sqrt(2.0) - 1.0)) / np.sqrt(2.0), rel=1e-12)

    def test_pair_point_matches_quadrature(self):
        # independent 2-d quadrature of E[exp(-beta_0)] over the support
        from scipy import integrate

        params = pair_params(1.0)
        target = laplace_closed_form(params, np.array([1.0, 0.0]))

        def inner(b0):
            lo = 1.0 / (4.0 * b0)
            val, _ = integrate.quad(
                lambda b1: density(params, np.array([b0, b1])), lo, np.inf
            )
            return np.exp(-b0) * val

        got, _ = integrate.quad(inner, 0.0, np.inf, limit=200)
        assert got == pytest.approx(target, abs=1e-6)

    def test_rejects_negative_lambda(self):
        with pytest.raises(DomainError):
            laplace_closed_form(pair_params(1.0), np.array([-0.1, 0.0]))
        with pytest.raises(DomainError):
            laplace_closed_form(pair_params(1.0), np.array([1.0]))


class TestDensity:
    def test_single_vertex_value(self):
        params = NuParams(p=np.zeros((1, 1)), eta=np.zeros(1))
        val = density(params, np.array([0.5]))
        assert val == pytest.approx(np.sqrt(2.0 / np.pi) * np.exp(-0.5), rel=1e-12)
        assert val == pytest.approx(0.483941, abs=5e-7)

    def test_zero_off_support(self):
        params = pair_params(1.0)
        assert density(params, np.array([0.4, 0.4])) == 0.0
        assert log_density(params, np.array([0.4, 0.4])) == -np.inf

    def test_total_mass_by_quadrature(self):
        assert density_mass_pair(1.0) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonfinite_beta(self):
        with pytest.raises(DomainError):
            density(pair_params(1.0), np.array([np.inf, 1.0]))

    def test_spd_certificate_matches_support(self):
        p = pair_params(1.0).p
        assert spd_certificate(p, np.array([1.0, 1.0]))
        assert not spd_certificate(p, np.array([0.4, 0.4]))


class TestGigHalfSample:
    def test_zero_shape_is_chi_square_mean(self):
        rng = stream(11, "gig0")
        vals = np.fromiter(
            (gig_half_sample(0.0, rng) for _ in range(1_000_000)), dtype=float
        )
        assert zscore(vals, 1.0) <= SE_RULE

    def test_mean_matches_quadrature(self):
        target = gig_mean_quadrature(4.0)
        assert target == pytest.approx(3.0, rel=1e-9)  # 1 + sqrt(b)
        rng = stream(11, "gig4")
        vals = np.fromiter(
            (gig_half_sample(4.0, rng) for _ in range(200_000)), dtype=float
        )
        assert zscore(vals, target) <= SE_RULE

    def test_reciprocal_is_inverse_gaussian(self):
        rng = stream(11, "gig1")
        vals = np.fromiter(
            (gig_half_sample(1.0, rng) for _ in range(100_000)), dtype=float
        )
        stat, p = stats.kstest(1.0 / vals, lambda x: stats.invgauss.cdf(x, 1.0, scale=1.0))
        assert p > ALPHA

    def test_rejects_negative_shape(self):
        with pytest.raises(DomainError):
            gig_half_sample(-1.0, stream(0))

    def test_scalar_sqrt_keeps_the_bits_of_the_numpy_draw(self):
        # the draw as it was written with numpy's sqrt, from a twin stream,
        # on shapes from 1e-24 to 1e6, both sides of CHI2_BELOW
        shapes = 10.0 ** stream(12, "gig-shapes").uniform(-24.0, 6.0, size=100_000)
        assert (shapes < vrjp.betafield.CHI2_BELOW).sum() > 10_000
        rng_got, rng_want = stream(12, "gig-twin"), stream(12, "gig-twin")
        got = np.array([gig_half_sample(b, rng_got) for b in shapes])
        want = np.array(
            [
                float(rng_want.chisquare(1))
                if b < vrjp.betafield.CHI2_BELOW
                else float(1.0 / rng_want.wald(1.0 / np.sqrt(b), 1.0))
                for b in shapes
            ]
        )
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "shapes",
        [[0.0], [1e-17], [0.3], [25.0], [0.3, 0.0, 1e-20, 4.0, 2.0, 0.0]],
        ids=["zero", "below-chi2", "small", "large", "mixed-runs"],
    )
    def test_batch_draw_is_the_scalar_draws_in_order(self, shapes):
        # a batch of one takes the scalar draw itself, and a longer batch
        # draws its runs on either side of CHI2_BELOW in site order: the
        # same bits, and the same variates consumed
        rng_got, rng_want = stream(12, "gig-batch"), stream(12, "gig-batch")
        got = vrjp.betafield._gig_in_order(np.array(shapes), rng_got)
        want = [gig_half_sample(b, rng_want) for b in shapes]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rng_got.random(4), rng_want.random(4))

    @pytest.mark.parametrize("n_samples", [1, 20_000])
    def test_tiny_shape_draws_chi_square(self, n_samples):
        # a lone site of eta 1e-15 (b = 1e-30): numpy's Wald draw there is
        # 0 for some samples, which made x infinite or divided by zero
        params = NuParams(p=np.zeros((1, 1)), eta=np.array([1e-15]))
        x = 2.0 * sample_batch(params, n_samples, stream(11, "gig-tiny")).beta[:, 0]
        np.testing.assert_array_equal(
            x, stream(11, "gig-tiny").chisquare(1, size=n_samples)
        )
        if n_samples > 1:
            assert stats.kstest(x, stats.chi2(1).cdf).pvalue > ALPHA


class TestSchurStep:
    def test_pair_diagonal_update(self):
        out = schur_step(pair_params(1.0), site=0, x=2.0)
        assert out.p.shape == (1, 1)
        assert out.p[0, 0] == pytest.approx(0.5)
        assert out.eta[0] == 0.0

    def test_pair_eta_update(self):
        params = NuParams(p=pair_params(1.0).p, eta=np.array([3.0, 0.0]))
        out = schur_step(params, site=0, x=2.0)
        assert out.eta[0] == pytest.approx(1.5)

    def test_isolated_site_leaves_rest_unchanged(self):
        params = NuParams(p=np.zeros((2, 2)), eta=np.array([5.0, 2.0]))
        out = schur_step(params, site=0, x=1.7)
        assert np.array_equal(out.p, [[0.0]])
        assert np.array_equal(out.eta, [2.0])

    def test_errors(self):
        with pytest.raises(DomainError):
            schur_step(pair_params(1.0), site=0, x=0.0)
        with pytest.raises(DomainError):
            schur_step(pair_params(1.0), site=5, x=1.0)


class TestSequentialSampler:
    def test_requires_rng(self):
        with pytest.raises(DomainError):
            sample_batch(pair_params(1.0), 1, None)
        with pytest.raises(DomainError):
            sample_batch(pair_params(1.0), 10, None)

    def test_single_vertex_marginal_is_inverse_gaussian(self):
        params = NuParams(p=np.zeros((1, 1)), eta=np.array([1.0]))
        rng = stream(21, "seq-ig")
        seq = np.array(
            [sample_batch(params, 1, rng).beta[0, 0] for _ in range(5_000)]
        )
        batch = sample_batch(params, 100_000, stream(21, "batch-ig")).beta[:, 0]
        for vals in (seq, batch):
            stat, p = stats.kstest(
                1.0 / (2.0 * vals), lambda x: stats.invgauss.cdf(x, 1.0, scale=1.0)
            )
            assert p > ALPHA

    def test_pair_transform_matches_closed_form(self):
        params = pair_params(1.0)
        lam_rng = stream(21, "lam")
        beta = sample_batch(params, 100_000, stream(21, "pair")).beta
        for _ in range(5):
            lam = lam_rng.uniform(0.0, 1.5, size=2)
            target = laplace_closed_form(params, lam)
            vals = np.exp(-beta @ lam)
            assert zscore(vals, target) <= SE_RULE

    def test_diagonal_coupling_against_closed_form(self):
        # 4 sites, one diagonal entry, mixed eta: exercises every term
        p = np.array(
            [
                [0.6, 1.0, 0.0, 0.5],
                [1.0, 0.0, 2.0, 0.0],
                [0.0, 2.0, 0.0, 1.0],
                [0.5, 0.0, 1.0, 0.0],
            ]
        )
        params = NuParams(p=p, eta=np.array([0.3, 0.0, 1.0, 0.0]))
        beta = sample_batch(params, 100_000, stream(21, "diag")).beta
        lam_rng = stream(21, "diag-lam")
        for _ in range(4):
            lam = lam_rng.uniform(0.0, 1.0, size=4)
            assert zscore(np.exp(-beta @ lam), laplace_closed_form(params, lam)) <= SE_RULE

    def test_order_invariance(self):
        params = NuParams.from_graph(
            WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        )
        lam = np.array([0.5, 0.2, 0.8])
        order = [2, 0, 1]
        a = np.exp(-sample_batch(params, 100_000, stream(21, "ord-a")).beta @ lam)
        b = np.exp(
            -sample_batch(relabelled(params, order), 100_000, stream(21, "ord-b")).beta
            @ lam[order]
        )
        gap = abs(a.mean() - b.mean())
        assert gap <= SE_RULE * np.hypot(se(a), se(b))

    def test_positivity_certificate_always_set(self):
        params = WiredBand.from_graph(build_lattice_box(2, 1), [0, 1, 3, 4]).params()
        rng = stream(21, "cert")
        assert all(
            spd_certificate(params.p, sample_batch(params, 1, rng).beta[0])
            for _ in range(200)
        )

    def test_diagonal_shift_representation_equivalence(self):
        # coupling with diagonal d versus zero-diagonal coupling plus d/2 shift
        d = np.array([0.8, 0.4])
        base = pair_params(1.0)
        shifted = NuParams(p=base.p + np.diag(d), eta=np.array([0.5, 0.1]))
        plain = NuParams(p=base.p, eta=shifted.eta)
        lam_rng = stream(21, "shift-lam")
        beta_s = sample_batch(shifted, 100_000, stream(21, "shift-a")).beta
        beta_p = sample_batch(plain, 100_000, stream(21, "shift-b")).beta + d / 2.0
        for _ in range(4):
            lam = lam_rng.uniform(0.0, 1.2, size=2)
            closed = laplace_closed_form(shifted, lam)
            assert closed == pytest.approx(
                laplace_closed_form(plain, lam) * np.exp(-lam @ d / 2.0), rel=1e-12
            )
            x = np.exp(-beta_s @ lam)
            y = np.exp(-beta_p @ lam)
            gap = abs(x.mean() - y.mean())
            assert gap <= SE_RULE * np.hypot(se(x), se(y))
            assert zscore(x, closed) <= SE_RULE

    def test_per_site_marginal_on_path(self):
        params = NuParams.from_graph(two_path())
        beta = sample_batch(params, 100_000, stream(21, "site")).beta
        w_mid = 2.0  # middle vertex total incident weight
        stat, p = stats.kstest(
            1.0 / (2.0 * beta[:, 1]),
            lambda x: stats.invgauss.cdf(x, 1.0 / w_mid, scale=1.0),
        )
        assert p > ALPHA


def _wired_box(dim: int, radius: int) -> NuParams:
    g = build_lattice_box(dim, radius + 1)
    return WiredBand.from_graph(
        g, [v for v in range(g.n) if int(np.abs(g.coords[v]).max()) <= radius]
    ).params()


# sha256 of sample_batch(_wired_box(2, 2), S, stream(20, "beta-pin", S)).beta
# as little-endian float64, at S = 1 and at one gate chunk of 25,000
BETA_SHA256 = {
    1: "92a7dab9b117a06e994eb1469a1a9d0940dbca3407036b9c9eccdd8fa9e9ed0b",
    25_000: "e9fc9a11e729772373fb990f8cbacccc05d53c59e6a2b14b0b001f6c4ebaa175",
}

# sha256 of sample_batch(P, S, stream(29, "factor-pin", S))'s beta, rows and
# pivots, and of the generator's next rng.random(4), as little-endian
# float64, keyed by (dense, S): P is _wired_box(2, 2) at bandwidth 5, or
# relabelled with site 1 last at bandwidth n - 1
FACTOR_SHA256 = {
    (False, 1): {
        "beta": "c28abff53b1ec2b538ca1d089565d52c377e39f3f1911e85f6145c09a1cfe48e",
        "rows": "26a8030468a91982c4d583a84d11560569b5ec98070e61064c311963652cc7f0",
        "pivots": "8f7a01f27ff230d1cfc43aeb04cbf245f9aaffa455d5c26aca53bd6b1f847d9d",
        "next": "703331d187abf43e65323b8e7ef662d4898670d7267f8629188ce7af2147c7a8",
    },
    (False, 40): {
        "beta": "adc9ee3159c5cb9c022fd490cd2aef65cbce4bed8d108797e0918b477e45b6ae",
        "rows": "4483f8182693af2dece04ca63424f7504ccb81dd406e2dccb85152c2bd9602c2",
        "pivots": "6910b16f1bef8dfb93549d4ee1a77e03bb448920f15386d660651519d6afd606",
        "next": "5f77505a46ab76a3351edfc044a4b953b52ca74da60c23cc6018dba715ac8bba",
    },
    (True, 1): {
        "beta": "1d09651b3b4dfa7775d4e8f5e8f43c34d667067d88f03e5c56960e59a7dc6eed",
        "rows": "c9411412aa8ed79b10c8d3a45d48b3291ab270ddf5d378c3279b9aab7b85d487",
        "pivots": "1d0b6e443fa19989706fde9332a27a51ddf55170571766592c89e7eac41ee099",
        "next": "703331d187abf43e65323b8e7ef662d4898670d7267f8629188ce7af2147c7a8",
    },
    (True, 40): {
        "beta": "f5db06cb6ebc4ecd7a01e7fa189c4dac03733410c6aed2ade32e65bfc670337d",
        "rows": "ca60f9370cc844ec495f22d32683023fdee1f68135e81db8a9f8414d95420b3e",
        "pivots": "5abb5a062cccf3784525775452273c624bb047e782c7a2308dda4eeba6608e80",
        "next": "5f77505a46ab76a3351edfc044a4b953b52ca74da60c23cc6018dba715ac8bba",
    },
}


class TestEliminationKernel:
    @pytest.mark.parametrize("dim,radius", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("n_samples", [1, 500])
    def test_batch_matches_reference_loop(self, dim, radius, permuted, n_samples):
        params = _wired_box(dim, radius)
        assert params.n in (3, 9, 25)
        order = np.arange(params.n)
        if permuted:
            order = stream(51, "kernel-order", params.n).permutation(params.n)
        got = sample_batch(
            relabelled(params, order), n_samples, stream(51, "kernel")
        ).beta
        want = reference_sample_batch(
            params, n_samples, stream(51, "kernel"), order=order
        )
        np.testing.assert_array_equal(got, want[:, order])

    def test_sequential_is_batch_of_one(self):
        # one environment's draw (C1, C10, `vrjp simulate --process
        # quenched`) is the sequential loop's: the same bits, and the
        # generator left in the same state
        params = _wired_box(2, 2)
        order = stream(51, "seq-order").permutation(params.n)
        rng_got, rng_want = stream(51, "seq-one"), stream(51, "seq-one")
        got = sample_batch(relabelled(params, order), 1, rng_got).beta[0]
        want = reference_sample_batch(params, 1, rng_want, order=order)[0]
        np.testing.assert_array_equal(got, want[order])
        np.testing.assert_array_equal(rng_got.random(4), rng_want.random(4))

    def test_rejects_negative_sample_count(self):
        with pytest.raises(DomainError):
            sample_batch(pair_params(1.0), -3, stream(0))

    @pytest.mark.parametrize("n_samples", [1, 2, 7])
    def test_band_rows_match_reference_loop(self, n_samples):
        # m = 81 at bandwidth 9: the band rows are 10 of the 81 columns
        params = _wired_box(2, 4)
        assert params.n == 81
        got = sample_batch(params, n_samples, stream(52, "blocks")).beta
        want = reference_sample_batch(params, n_samples, stream(52, "blocks"))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "dim,radius,n_samples", [(2, 6, 1), (3, 2, 1), (2, 2, 2000)]
    )
    def test_wide_band_matches_reference_loop(self, dim, radius, n_samples):
        # bandwidths 13 and 25 of 169 and 125 sites: one sample's pivot row
        # is summed pairwise, over its zero-padded dense length; 2,000
        # samples sum it down the column
        params = _wired_box(dim, radius)
        rng_got, rng_want = stream(53, "wide"), stream(53, "wide")
        got = sample_batch(params, n_samples, rng_got).beta
        want = reference_sample_batch(params, n_samples, rng_want)
        np.testing.assert_array_equal(got, want)
        assert rng_got.random() == rng_want.random()

    def test_state_is_sized_by_bandwidth(self, monkeypatch):
        params = _wired_box(2, 2)
        n, s = params.n, 40
        asked = []
        monkeypatch.setattr(
            vrjp.betafield,
            "_refuse_beyond_memory",
            lambda need, what: asked.append(need),
        )
        sample_batch(params, s, stream(0))
        # (n, bw + 1, S) band rows, the (bw, S) update scratch, and three
        # (n, S) arrays: eta, which becomes the pivots, beta and H_kk
        assert asked == [(n * 6 + 5 + 3 * n) * s * 8]
        # site 1, a neighbor of site 0, relabelled last: bandwidth n - 1
        order = [0, *range(2, n), 1]
        sample_batch(relabelled(params, order), s, stream(0))
        assert asked[1] == (n * n + (n - 1) + 3 * n) * s * 8

    @pytest.mark.parametrize("dense", [False, True], ids=["band", "dense"])
    def test_refused_size_covers_what_the_draw_holds(self, dense, monkeypatch):
        # the byte count the refusal is asked about bounds the draw's traced
        # peak, the kept factor included, up to a few (S,) vectors
        params = _wired_box(2, 2)
        if dense:
            params = relabelled(params, [0, *range(2, params.n), 1])
        s = 2000
        asked = []
        monkeypatch.setattr(
            vrjp.betafield,
            "_refuse_beyond_memory",
            lambda need, what: asked.append(need),
        )
        tracemalloc.start()
        try:
            sample = sample_batch(params, s, stream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.rows.shape[2] == s
        assert peak <= asked[0] + 8 * s * 8

    @pytest.mark.parametrize("n_samples", [1, 40])
    @pytest.mark.parametrize("dense", [False, True], ids=["band", "dense"])
    def test_batch_keeps_the_ldlt_factor(self, dense, n_samples):
        # every sample's L D L^T, rebuilt from the kept rows and pivots, is
        # H_beta of the beta it drew: on the 5x5 wired box at bandwidth 5,
        # and on criterion 7's wired graph, where delta last makes P dense
        if dense:
            g = build_lattice_box(2, 2)
            inner = [v for v in range(g.n) if int(np.abs(g.coords[v]).max()) <= 1]
            params = NuParams.from_graph(WiredBand.from_graph(g, inner).graph())
        else:
            params = _wired_box(2, 2)
        n = params.n
        bw = n - 1 if dense else 5
        sample = sample_batch(params, n_samples, stream(62, "batch-ldlt", n_samples))
        assert sample.beta.shape == (n_samples, n) and sample.psd_certificate
        assert sample.rows.shape == (n, bw + 1, n_samples)
        assert sample.pivots.shape == (n, n_samples)
        for k in range(n_samples):
            h = h_beta(params.p, sample.beta[k])
            rebuilt = _ldlt_from_factor(sample.rows[..., k], sample.pivots[:, k])
            assert np.abs(rebuilt - h).max() <= 1e-13 * np.abs(h).max()

    @pytest.mark.parametrize("n_samples", sorted(BETA_SHA256))
    def test_beta_bits_are_pinned(self, n_samples):
        # the digests predate the kept factor: keeping it moved no bit of
        # beta, for one sample (summed pairwise) or a chunk (down the column)
        params = _wired_box(2, 2)
        rng = stream(20, "beta-pin", n_samples)
        beta = sample_batch(params, n_samples, rng).beta
        assert beta.shape == (n_samples, params.n)
        raw = np.ascontiguousarray(beta, dtype="<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == BETA_SHA256[n_samples]

    @pytest.mark.parametrize("n_samples", [1, 40])
    @pytest.mark.parametrize("dense", [False, True], ids=["band", "dense"])
    def test_kept_factor_bits_are_pinned(self, dense, n_samples):
        # beta, the kept rows and pivots, and the generator's next draws, on
        # the 5x5 wired box at bandwidth 5 and relabelled to bandwidth n - 1
        params = _wired_box(2, 2)
        if dense:
            params = relabelled(params, [0, *range(2, params.n), 1])
        rng = stream(29, "factor-pin", n_samples)
        sample = sample_batch(params, n_samples, rng)
        got = {
            "beta": sample.beta,
            "rows": sample.rows,
            "pivots": sample.pivots,
            "next": rng.random(4),
        }
        for name, a in got.items():
            raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
            want = FACTOR_SHA256[dense, n_samples][name]
            assert hashlib.sha256(raw).hexdigest() == want, name

    def test_refuses_state_beyond_physical_memory(self):
        # (25 * 6 + 25) * 10^12 * 8 bytes: refused before anything is allocated
        with pytest.raises(SizeError):
            sample_batch(_wired_box(2, 2), 10**12, stream(0))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_reference_loop_on_random_couplings(self, data):
        n = data.draw(st.integers(2, 30), label="n")
        weight = st.floats(0.0, 5.0)
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                max_size=2 * n,
            ),
            label="edges",
        )
        p = np.zeros((n, n))
        for i, j, w in edges:
            p[i, j] = p[j, i] = w
        diag = st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)
        p[np.diag_indices(n)] = data.draw(diag, label="diagonal")
        eta = np.array(data.draw(diag, label="eta"))
        order = data.draw(
            st.just(list(range(n))) | st.permutations(range(n)), label="order"
        )
        n_samples = data.draw(st.sampled_from([1, 2, 3, 17]), label="n_samples")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        params = NuParams(p=p, eta=eta)
        rng_got, rng_want = stream(seed, "prop"), stream(seed, "prop")
        got = sample_batch(relabelled(params, order), n_samples, rng_got).beta
        want = reference_sample_batch(params, n_samples, rng_want, order=order)
        np.testing.assert_array_equal(got, want[:, order])
        assert rng_got.random() == rng_want.random()


def _box_band(dim, radius, w):
    g = build_lattice_box(dim, radius, w)
    band, bw = banded_coupling(g)
    degrees = np.array([len(nb) for nb in g.neighbors], dtype=float)
    return band, bw, w * (2 * dim - degrees)


def _dense_from_band(band):
    """The symmetric matrix P with band[i, d] = P[i, i+d]."""
    n, width = band.shape
    p = np.zeros((n, n))
    for d in range(width):
        i = np.arange(n - d)
        p[i, i + d] = band[: n - d, d]
        p[i + d, i] = band[: n - d, d]
    return p


def _dense_from_diagonals(band):
    """The symmetric matrix P that a BandDiagonals holds."""
    n = band.shape[0]
    p = np.diag(band.columns[:, 0])
    for d, w in band.diagonals():
        i = np.arange(n - d)
        p[i, i + d] = w
        p[i + d, i] = w
    return p


def _ldlt_from_factor(rows, pivots):
    """L D L^T with D = diag(pivots) and L_k+d,k = -rows[k, d] / pivots[k]:
    a batch's layout, one sample of it."""
    n, width = rows.shape
    lower = np.eye(n)
    for d in range(1, width):
        k = np.arange(n - d)
        lower[k + d, k] = -rows[: n - d, d] / pivots[: n - d]
    return (lower * pivots) @ lower.T


def _ldlt_from_lower_band(rows):
    """T D^-1 T^T for T = L D in dtbtrs's lower band storage, the single
    draw's layout: T_kk = rows[k, 0], the pivot, and T_k+d,k = rows[k, d]."""
    n, width = rows.shape
    t = np.diag(rows[:, 0])
    for d in range(1, width):
        k = np.arange(n - d)
        t[k + d, k] = rows[: n - d, d]
    return (t / rows[:, 0]) @ t.T


def _reference_two_level(band, eta, rng):
    """The dense batch-of-one loop eliminating in the band sampler's order
    (R, B): the draws sample_banded must make, in the same order."""
    params = NuParams(_dense_from_band(band), eta)
    return reference_sample_batch(params, 1, rng, order=two_level_order(params.p))[0]


def _assert_same_draws(got, want, rng_got, rng_want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # the same variates were consumed: the generators draw alike from here
    np.testing.assert_array_equal(rng_got.random(4), rng_want.random(4))


# sha256 of sample_banded(band_diagonals(band), eta, stream(64, "banded-pin",
# dim, radius))'s beta, pivots and rows, and of the generator's next
# rng.random(4), as little-endian float64, with (band, _, eta) =
# _box_band(dim, radius, 0.7): B holds 144 sites at bandwidth 17 on the
# d = 2 box and 364 at bandwidth 81 on the d = 3 one
BANDED_SHA256 = {
    (2, 8): {
        "beta": "5323aba8fea627227bd92a770b22b6934d370ff58ab7ec4cdc70b9b54c75a153",
        "pivots": "f5dc1610d7c3cc7eb38243d54bca244915dd488beca0ebbf584000178aaf4c35",
        "rows": "451121d0679f868ca37713b123400f7c8cdd05b1300360f9606b8a8daf9fc29c",
        "next": "0a4e15b068d11354d1885048d13c213d0daad33ba807d6226f6144a0f732e701",
    },
    (3, 4): {
        "beta": "301b17337a12133047fc3f064a1876b060dfdc5ca547b95a950d6592c94c050a",
        "pivots": "70dc56fa4738f79dfc481d2b6b5c87c74efc3340dfc06eb3dc0ef78ed24a9e9e",
        "rows": "6e76478fccf9e6e30944e25e32bf06ed5779e18eab8c91e982753b4f51ba6849",
        "next": "ec68e4dadcb95d3c1a10a747128addaddc0c6d866409c3293881c03ef7fa1405",
    },
}


class TestBandedSampler:
    def test_band_storage_matches_weight_matrix(self):
        g = build_lattice_box(2, 1)
        band, bw = banded_coupling(g)
        assert bw == 3  # leading stride of the row-major 3x3 box
        w = g.weight_matrix()
        for i in range(g.n):
            for d in range(bw + 1):
                if i + d < g.n:
                    assert band[i, d] == w[i, i + d]

    @pytest.mark.parametrize(
        "dim,radius,bw",
        [
            (1, 0, 0),
            (1, 4, 1),
            (2, 2, 5),
            (2, 8, 17),
            (2, 12, 25),
            (3, 4, 81),
            (3, 5, 121),
        ],
    )
    def test_matches_reference_loop(self, dim, radius, bw):
        # from one site with no band to bw 121 (1331 sites, 42 panels with
        # a short last one); the panels sum the updates in another order
        # than the reference, so beta agrees up to rounding
        band, got_bw, eta = _box_band(dim, radius, 0.7)
        assert got_bw == bw
        rng_got, rng_want = stream(53, "banded", bw), stream(53, "banded", bw)
        sample = sample_banded(band_diagonals(band), eta, rng_got)
        want = _reference_two_level(band, eta, rng_want)
        _assert_same_draws(sample.beta, want, rng_got, rng_want)

    @pytest.mark.parametrize("dim,radius", [(1, 3), (1, 4), (2, 2), (2, 5), (3, 2)])
    def test_first_level_is_the_parity_class_of_site_0(self, dim, radius):
        # greedy in index order on a row-major box: every site with no
        # earlier neighbour in R, which is the class of site 0
        g = build_lattice_box(dim, radius, 0.7)
        band, _bw, eta = _box_band(dim, radius, 0.7)
        sample = sample_banded(
            band_diagonals(band), eta, stream(54, "first", dim, radius)
        )
        parity = g.coord_array().sum(axis=1) % 2
        np.testing.assert_array_equal(
            sample.first.sites, np.flatnonzero(parity == parity[0])
        )

    def test_first_level_is_independent_on_a_wired_box(self):
        g, subset = _green_box(2, 3, 1.0)
        band, eta = WiredBand.from_graph(g, subset).fill()
        r = sample_banded(band, eta, stream(54, "first-wired")).first.sites
        p = _dense_from_diagonals(band)
        assert r.size and not p[np.ix_(r, r)].any()
        # every other site has a neighbour in R, so it could not join
        others = np.setdiff1d(np.arange(len(subset)), r)
        assert p[np.ix_(others, r)].any(axis=1).all()

    def test_empty_and_uncoupled_bands(self):
        # no site draws nothing; with no coupling every site is in R, B is
        # empty, and H is 2 diag(beta)
        empty = sample_banded(band_diagonals(np.zeros((0, 1))), np.zeros(0), NoDraws())
        assert empty.beta.shape == (0,) and empty.rows.shape == (0, 1)
        uncoupled = band_diagonals(np.zeros((3, 2)))
        sample = sample_banded(uncoupled, np.ones(3), stream(56, "uncoupled"))
        np.testing.assert_array_equal(sample.first.sites, [0, 1, 2])
        assert sample.rows.shape == (0, 1) and sample.psd_certificate
        np.testing.assert_allclose(
            green_solve_banded(sample, np.ones(3)), 0.5 / sample.beta, rtol=1e-15
        )

    def test_chi_square_sites_of_r_keep_the_draw_order(self):
        # sites 3 and 4 have no coupling and eta 0, so their shape is below
        # CHI2_BELOW; they sit among R's sites 0, 2 and 5, between Wald
        # draws, and are drawn there, in site order
        band = np.zeros((8, 2))
        band[[0, 1, 5, 6], 1] = [0.6, 1.1, 0.8, 0.5]
        eta = np.array([0.3, 0.0, 0.7, 0.0, 0.0, 0.2, 0.0, 0.4])
        rng_got, rng_want = stream(55, "chi2-run"), stream(55, "chi2-run")
        sample = sample_banded(band_diagonals(band), eta, rng_got)
        np.testing.assert_array_equal(sample.first.sites, [0, 2, 3, 4, 5, 7])
        want = _reference_two_level(band, eta, rng_want)
        _assert_same_draws(sample.beta, want, rng_got, rng_want)

    def test_refuses_storage_beyond_physical_memory(self):
        # 10^7 sites at bandwidth 9999: zero-stride inputs, nothing allocated
        columns = np.broadcast_to(np.zeros(1), (10**7, 2))
        band = BandDiagonals(np.array([10**4 - 1]), columns)
        assert band.shape == (10**7, 10**4)
        eta = np.broadcast_to(np.zeros(1), (10**7,))
        with pytest.raises(SizeError):
            sample_banded(band, eta, stream(0))

    @pytest.mark.parametrize(
        "band,eta,rng",
        [
            ((), np.ones(3), None),
            (([], np.zeros(3)), np.ones(3), NoDraws()),
            (([], np.zeros((3, 0))), np.ones(3), NoDraws()),
            (([], np.zeros((3, 1, 1))), np.ones(3), NoDraws()),
            ((), np.ones(2), NoDraws()),
            ((), np.ones((3, 1)), NoDraws()),
            ((), 1.0, NoDraws()),
            (([1], [[0.0, 1.0], [0.0, np.nan], [0.0, 0.0]]), np.ones(3), NoDraws()),
            (([1], [[0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]), np.ones(3), NoDraws()),
            (([1], [[np.inf, 1.0], [0.0, 1.0], [0.0, 0.0]]), np.ones(3), NoDraws()),
            ((), np.array([1.0, np.nan, 1.0]), NoDraws()),
            ((), np.array([1.0, -1.0, 1.0]), NoDraws()),
            ((), np.array([1.0, np.inf, 1.0]), NoDraws()),
            (np.zeros((3, 2)), np.ones(3), NoDraws()),
            (([0], np.zeros((3, 2))), np.ones(3), NoDraws()),
            (([2, 1], np.zeros((3, 3))), np.ones(3), NoDraws()),
            (([3], np.zeros((3, 2))), np.ones(3), NoDraws()),
            (([1.0], np.zeros((3, 2))), np.ones(3), NoDraws()),
            (([[1]], np.zeros((3, 2))), np.ones(3), NoDraws()),
        ],
        ids=[
            "no-rng", "band-1d", "no-columns", "band-3d", "short-eta", "eta-2d",
            "scalar-eta", "nan-band", "negative-band", "inf-band", "nan-eta",
            "negative-eta", "inf-eta", "dense-band", "zero-offset",
            "offsets-out-of-order", "offset-past-the-end", "float-offset",
            "offsets-2d",
        ],
    )
    def test_refuses_bad_input_before_drawing(self, band, eta, rng):
        # band is a dense array, or the (offsets, columns) of a BandDiagonals,
        # () for three uncoupled sites; the structure is refused as the
        # BandDiagonals is made, the entries by the draw
        with pytest.raises(DomainError):
            if isinstance(band, tuple):
                band = BandDiagonals(*(band or ([], np.zeros((3, 1)))))
            sample_banded(band, eta, rng)

    def test_banded_law_matches_closed_form(self):
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        params = WiredBand.from_graph(g, subset).params()
        sub = build_lattice_box(1, 1)  # same interior adjacency, reindexed
        band, _bw = banded_coupling(sub)
        rng = stream(31, "banded")
        n = 20_000
        diagonals = band_diagonals(band)
        beta = np.array(
            [sample_banded(diagonals, params.eta, rng).beta for _ in range(n)]
        )
        lam_rng = stream(31, "banded-lam")
        for _ in range(4):
            lam = lam_rng.uniform(0.0, 1.0, size=3)
            assert zscore(np.exp(-beta @ lam), laplace_closed_form(params, lam)) <= SE_RULE

    def test_two_level_law_matches_closed_form(self):
        # the 3x3 interior of the 5x5 box, wired to the rest: R is its 5
        # even sites, B the 4 odd ones, one panel
        g = build_lattice_box(2, 2)
        subset = [6, 7, 8, 11, 12, 13, 16, 17, 18]
        params = WiredBand.from_graph(g, subset).params()
        band = band_diagonals(banded_coupling(build_lattice_box(2, 1))[0])
        rng = stream(38, "two-level")
        beta = np.array(
            [sample_banded(band, params.eta, rng).beta for _ in range(10_000)]
        )
        lam_rng = stream(38, "two-level-lam")
        for _ in range(4):
            lam = lam_rng.uniform(0.0, 1.0, size=9)
            assert zscore(np.exp(-beta @ lam), laplace_closed_form(params, lam)) <= SE_RULE


class TestBlockedBandKernel:
    @pytest.mark.parametrize(
        "dim,radius,bw,nb",
        [
            (2, 2, 5, 2),
            (2, 2, 5, 3),
            (2, 2, 5, 8),
            (2, 8, 17, 4),
            (2, 8, 17, 32),
            (3, 2, 25, 7),
            (3, 2, 25, 40),
        ],
    )
    def test_matches_reference_loop(self, dim, radius, bw, nb):
        # n is 25, 289 or 125: never a multiple of nb, so the last panel is
        # short; nb runs from below to above the bandwidth
        band, got_bw, eta = _box_band(dim, radius, 0.7)
        assert got_bw == bw and band.shape[0] % nb
        rng_got, rng_want = stream(59, "blocked", bw, nb), stream(59, "blocked", bw, nb)
        got, _ = _blocked_band_loop(band.copy(), eta.copy(), rng_got, nb)
        want = reference_sample_banded(band, eta, rng_want)
        _assert_same_draws(got, want, rng_got, rng_want)

    @pytest.mark.parametrize(
        "dim,radius,bw,nb",
        [
            (2, 2, 5, 2),
            (2, 2, 5, 3),
            (2, 2, 5, 8),
            (2, 8, 17, 4),
            (2, 8, 17, 32),
            (3, 2, 25, 7),
            (3, 2, 25, 40),
        ],
    )
    def test_is_the_ldlt_factorization(self, dim, radius, bw, nb):
        # the draw leaves L D in band, in dtbtrs's lower band layout with
        # the pivots it returns in column 0: T D^-1 T^T rebuilt from it is
        # H_beta of the beta it drew
        band, got_bw, eta = _box_band(dim, radius, 0.7)
        assert got_bw == bw and band.shape[0] % nb
        rows = band.copy()
        beta, pivots = _blocked_band_loop(rows, eta.copy(), stream(61, "ldlt", bw, nb), nb)
        np.testing.assert_array_equal(rows[:, 0], pivots)
        h = h_beta(_dense_from_band(band), beta)
        rebuilt = _ldlt_from_lower_band(rows)
        assert np.abs(rebuilt - h).max() <= 1e-13 * np.abs(h).max()

    def test_chi_square_sites_between_wald_sites_of_a_panel(self):
        # sites 4 and 5 have no coupling and eta 0, so they draw chi-square
        # between Wald draws inside the one panel: their shape, summed from
        # the window's column and boundary row, must be exactly 0
        band = np.zeros((10, 3))
        band[[0, 1, 2], 1] = [0.6, 1.1, 0.8]
        band[[0, 1], 2] = [0.3, 0.4]
        band[[6, 7, 8], 1] = [0.5, 0.9, 0.2]
        band[[6, 7], 2] = [0.7, 0.1]
        eta = np.array([0.3, 0.0, 0.2, 0.5, 0.0, 0.0, 0.4, 0.0, 0.1, 0.6])
        rng_got, rng_want = stream(60, "blocked-chi2"), stream(60, "blocked-chi2")
        got, pivots = _blocked_band_loop(band.copy(), eta.copy(), rng_got, 8)
        want = reference_sample_banded(band, eta, rng_want)
        _assert_same_draws(got, want, rng_got, rng_want)
        # the chi-square sites' x is their own draw, with no coupling added
        np.testing.assert_array_equal(pivots[[4, 5]], 2.0 * got[[4, 5]])

    def test_short_last_panel_after_a_full_one(self):
        # 49 sites at bandwidth 7 in panels of 32 and 17: the full panel's
        # trailing sites reach the window's boundary row, and the short one
        # runs its gemv and sum down to that row past the band's last
        # site. 343 sites at bandwidth 49, above the panel width, in ten
        # panels of 32 and one of 23: the tenth panel's trailing block
        # holds 23 rows, fewer than bw, so it is not one dense block of
        # the band. The cells past site n - 1 hold values no site couples
        # to (band storage leaves them unused), which the draw must ignore:
        # neither the panels nor the in-place trailing updates carry them
        # into a draw or a factor entry, and they end as the zeros the
        # panels write past site n - 1.
        for dim, radius, bw, n in [(2, 3, 7, 49), (3, 3, 49, 343)]:
            band, got_bw, eta = _box_band(dim, radius, 0.7)
            assert (got_bw, band.shape[0]) == (bw, n)
            past = np.zeros(band.shape, dtype=bool)
            for d in range(1, bw + 1):
                past[n - d :, d] = True
            rows = band.copy()
            rows[past] = np.broadcast_to(5.0 + np.arange(bw + 1), band.shape)[past]
            rng_got, rng_want = stream(62, "short-last"), stream(62, "short-last")
            got, pivots = _blocked_band_loop(rows, eta.copy(), rng_got, 32)
            want = reference_sample_banded(band, eta, rng_want)
            _assert_same_draws(got, want, rng_got, rng_want)
            assert (rows[past] == 0.0).all()
            np.testing.assert_array_equal(rows[:, 0], pivots)
            h = h_beta(_dense_from_band(band), got)
            rebuilt = _ldlt_from_lower_band(rows)
            assert np.abs(rebuilt - h).max() <= 1e-13 * np.abs(h).max()

    @pytest.mark.parametrize("dim,radius", list(BANDED_SHA256))
    def test_band_draw_bits_are_pinned(self, dim, radius):
        # sample_banded's beta, pivots and kept rows, and the generator's
        # next draws, on B's bandwidth 17, below the panel width, and 81,
        # above it, where the last panels' trailing blocks hold fewer than
        # bw rows
        band, _bw, eta = _box_band(dim, radius, 0.7)
        rng = stream(64, "banded-pin", dim, radius)
        sample = sample_banded(band_diagonals(band), eta, rng)
        got = {
            "beta": sample.beta,
            "pivots": sample.pivots,
            "rows": sample.rows,
            "next": rng.random(4),
        }
        for name, a in got.items():
            raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
            want = BANDED_SHA256[dim, radius][name]
            assert hashlib.sha256(raw).hexdigest() == want, name

    def test_sample_keeps_its_factor(self):
        # B's 312 sites at sample_banded's panel width, with a short last
        # panel: L D L^T rebuilt in the order (R, B) from R's pivots and
        # table and B's rows of L D, in dtbtrs's lower band layout, is
        # H_beta in that order
        band, bw, eta = _box_band(2, 12, 0.7)
        n = band.shape[0]
        sample = sample_banded(band_diagonals(band), eta, stream(61, "ldlt-sample"))
        first = sample.first
        nr = first.sites.size
        order = two_level_order(_dense_from_band(band))
        np.testing.assert_array_equal(first.sites, order[:nr])
        assert (n - nr) % _PANEL
        assert isinstance(sample, BandSample) and sample.psd_certificate
        assert sample.rows.shape == (n - nr, bw + 1) and sample.pivots.shape == (n,)
        # rows.T is dtbtrs's `ab` as it is, with B's pivots on its first row
        assert sample.rows.T.flags.f_contiguous
        np.testing.assert_array_equal(sample.rows[:, 0], sample.pivots[order[nr:]])
        position = np.empty(n, dtype=int)
        position[order] = np.arange(n)
        pivots = sample.pivots[order]
        # L = [[I, 0], [-P_BR X^-1, L_B]], from the real slots of B's table
        lower = np.eye(n)
        row, slot = np.nonzero(first.b_w)
        site = first.b_nbr[row, slot]
        lower[nr + row, position[site]] = -first.b_w[row, slot] / sample.pivots[site]
        for d in range(1, bw + 1):
            k = np.arange(nr, n - d)
            lower[k + d, k] = sample.rows[k - nr, d] / pivots[k]
        rebuilt = (lower * pivots) @ lower.T
        h = h_beta(_dense_from_band(band), sample.beta)[np.ix_(order, order)]
        assert np.abs(rebuilt - h).max() <= 1e-13 * np.abs(h).max()
        assert sample.psd_certificate == spd_certificate(_dense_from_band(band), sample.beta)

    def test_law_matches_closed_form(self):
        # the 3x3 interior of the 5x5 box, wired to the rest: panels of 4
        # sites split its bandwidth-3 band into 4, 4 and 1
        g = build_lattice_box(2, 2)
        subset = [6, 7, 8, 11, 12, 13, 16, 17, 18]
        params = WiredBand.from_graph(g, subset).params()
        band, bw = banded_coupling(build_lattice_box(2, 1))
        assert bw == 3
        rng = stream(37, "blocked")
        beta = np.array(
            [_blocked_band_loop(band.copy(), params.eta.copy(), rng, 4)[0] for _ in range(10_000)]
        )
        lam_rng = stream(37, "blocked-lam")
        for _ in range(4):
            lam = lam_rng.uniform(0.0, 1.0, size=9)
            assert zscore(np.exp(-beta @ lam), laplace_closed_form(params, lam)) <= SE_RULE

    def test_refuses_long_band_beyond_physical_memory(self):
        # a narrow band (bandwidth 10) over 10^11 sites: the factor alone
        # exceeds memory; zero-stride inputs, nothing allocated, no draw
        # made
        columns = np.broadcast_to(np.zeros(1), (10**11, 2))
        band = BandDiagonals(np.array([10]), columns)
        eta = np.broadcast_to(np.zeros(1), (10**11,))
        with pytest.raises(SizeError):
            sample_banded(band, eta, NoDraws())

    def test_refuses_window_beyond_physical_memory(self):
        # bw + 1 sites at bandwidth bw whose factor, about bw^2 cells, fits
        # in memory, but not with the copy that the last trailing block, of
        # fewer than bw rows, goes through and that copy's mask, about
        # 1.1 bw^2 cells more (the panel window is only about 32 bw):
        # zero-stride inputs, nothing allocated, no draw made
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        bw = int(np.sqrt(have / 8 / 1.6))
        assert (bw + 1) ** 2 * 8 < have
        columns = np.broadcast_to(np.zeros(1), (bw + 1, 2))
        band = BandDiagonals(np.array([bw]), columns)
        with pytest.raises(SizeError):
            sample_banded(band, np.zeros(bw + 1), NoDraws())


class TestHBetaBanded:
    @pytest.mark.parametrize("dim,radius", [(2, 3), (3, 2)])
    def test_matches_dense_operator(self, dim, radius):
        g = build_lattice_box(dim, radius, 0.7)
        band, bw = banded_coupling(g)
        beta = stream(67, "h-band", dim).uniform(0.5, 2.0, size=g.n)
        ab = h_beta_banded(band, beta)
        dense = np.zeros((g.n, g.n))
        for d in range(bw + 1):
            i = np.arange(g.n - d)
            dense[i, i + d] = ab[bw - d, d:]
            dense[i + d, i] = ab[bw - d, d:]
        np.testing.assert_array_equal(dense, h_beta(g.weight_matrix(), beta))


def _green_box(dim, radius, w):
    """The radius box retained inside the box one layer larger, as `vrjp
    green` wires it."""
    g = build_lattice_box(dim, radius + 1, w)
    subset = [v for v in range(g.n) if max(abs(c) for c in g.coords[v]) <= radius]
    return g, subset


class TestWiredBand:
    @pytest.mark.parametrize("dim,radius", [(2, 3), (3, 2)])
    def test_fill_gives_the_wired_marginal_exactly(self, dim, radius):
        g, subset = _green_box(dim, radius, 0.7)
        w = stream(71, "wired-w", dim).gamma(1.0, 1.0, size=g.edge_count)
        g_w = WeightedGraph(
            n=g.n, edges=tuple((i, j, x) for (i, j, _), x in zip(g.edges, w))
        )
        wired = WiredBand.from_graph(g, subset)
        assert wired.bw == (2 * radius + 1) ** (dim - 1)
        for weights, graph in ((None, g), (w, g_w)):
            band, eta = wired.fill(weights)
            params = reference_marginal_params(graph, subset)
            np.testing.assert_array_equal(eta, params.eta)
            # one column per offset that occurs: 1 and the other strides
            assert band.shape == (wired.n, wired.bw + 1)
            np.testing.assert_array_equal(
                band.offsets, (2 * radius + 1) ** np.arange(dim)
            )
            np.testing.assert_array_equal(_dense_from_diagonals(band), params.p)
            v = stream(71, "wired-v", dim).uniform(0.5, 2.0, size=wired.n)
            edge_w = wired.weights if weights is None else weights
            np.testing.assert_allclose(
                wired.couple(edge_w, v), params.p @ v, rtol=1e-13, atol=0.0
            )

    @pytest.mark.parametrize("dim,radius", [(2, 3), (3, 2)])
    def test_band_draw_matches_dense_draw(self, dim, radius):
        # `vrjp green`'s draw: the same variates as the dense batch-of-one
        # loop on the wired marginal eliminating in the order (R, B), with
        # only the rounding of the sums changed
        g, subset = _green_box(dim, radius, 1.0)
        band, eta = WiredBand.from_graph(g, subset).fill()
        rng_got, rng_want = stream(73, "wired", dim), stream(73, "wired", dim)
        sample = sample_banded(band, eta, rng_got)
        params = WiredBand.from_graph(g, subset).params()
        order = two_level_order(params.p)
        want = reference_sample_batch(params, 1, rng_want, order=order)[0]
        _assert_same_draws(sample.beta, want, rng_got, rng_want)

    @pytest.mark.parametrize("radius", range(4))
    @pytest.mark.parametrize("dim", range(1, 5))
    def test_box_equals_the_graph_route(self, dim, radius):
        # field for field, dtypes and edge order included
        for w in (0.2, 0.7, 10.0):
            g, subset = _green_box(dim, radius, w)
            want = WiredBand.from_graph(g, subset)
            got = WiredBand.box(dim, radius, w)
            for f in dataclasses.fields(WiredBand):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert type(a) is type(b), f.name
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name

    @pytest.mark.parametrize("radius", range(4))
    @pytest.mark.parametrize("dim", range(1, 5))
    def test_box_fill_is_the_box_and_its_degree_deficit(self, dim, radius):
        # a site sums its crossing weights one at a time: up to 3 of them
        # the sum is exactly w * (2 dim - degree); more of them (2 dim at
        # radius 0, 4 at a corner at d = 4) agree to their rounding
        for w in (0.2, 0.7, 10.0):
            g = build_lattice_box(dim, radius, w)
            band, eta = WiredBand.box(dim, radius, w).fill()
            want_band = band_diagonals(banded_coupling(g)[0])
            degrees = np.array([len(nb) for nb in g.neighbors], dtype=float)
            want_eta = w * (2 * dim - degrees)
            assert band.offsets.dtype == want_band.offsets.dtype
            np.testing.assert_array_equal(band.offsets, want_band.offsets)
            np.testing.assert_array_equal(band.columns, want_band.columns)
            if (2 * dim - degrees).max() <= 3:
                np.testing.assert_array_equal(eta, want_eta)
            else:
                np.testing.assert_allclose(
                    eta, want_eta, rtol=2 * dim * np.finfo(float).eps, atol=0.0
                )

    @pytest.mark.parametrize(
        "dim,radius,w",
        [(0, 1, 1.0), (5, 1, 1.0), (2, -1, 1.0), (2, 1, 0.0), (2, 1, -1.0),
         (2, 1, np.nan), (2, 1, np.inf)],
        ids=["dim-0", "dim-5", "negative-radius", "zero-w", "negative-w",
             "nan-w", "inf-w"],
    )
    def test_box_refuses_bad_geometry(self, dim, radius, w):
        with pytest.raises(DomainError):
            WiredBand.box(dim, radius, w)

    def test_box_refuses_beyond_the_vertex_limit(self):
        # radius 70 is wired inside the box of radius 71, whose 143^3
        # vertices are over MAX_VERTICES: refused as build_lattice_box
        # refuses that box
        with pytest.raises(SizeError):
            WiredBand.box(3, 70)
        with pytest.raises(SizeError):
            build_lattice_box(3, 71)

    def test_box_refuses_arrays_beyond_physical_memory(self, monkeypatch):
        sysconf = os.sysconf
        fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        with pytest.raises(SizeError, match="edge arrays of the 125-vertex box"):
            WiredBand.box(3, 1)

    @pytest.mark.parametrize("radius", range(4))
    @pytest.mark.parametrize("dim", range(1, 4))
    def test_neighbours_are_the_dense_marginal(self, dim, radius):
        # read densely, the tables' rows of V are params().p with eta in
        # delta's column, and delta's row is eta; each row lists its
        # neighbours in ascending order, delta last, then pads of weight 0
        # that point at the row itself
        g, subset = _green_box(dim, radius, 0.7)
        w = stream(72, "wired-tables", dim).gamma(1.0, 1.0, size=g.edge_count)
        g_w = WeightedGraph(
            n=g.n, edges=tuple((i, j, x) for (i, j, _), x in zip(g.edges, w))
        )
        for wired in (
            WiredBand.box(dim, radius, 0.7), WiredBand.from_graph(g_w, subset)
        ):
            params = wired.params()
            nbr, w = wired.neighbours()
            n = wired.n
            dense = np.zeros((n + 1, n + 1))
            np.add.at(dense, (np.arange(n + 1)[:, None], nbr), w)
            np.testing.assert_array_equal(dense[:n, :n], params.p)
            np.testing.assert_array_equal(dense[:n, n], params.eta)
            np.testing.assert_array_equal(dense[n, :n], params.eta)
            assert dense[n, n] == 0.0
            real = w > 0
            degrees = real.sum(axis=1)
            assert w.shape == nbr.shape == (n + 1, degrees.max())
            assert degrees[n] == np.count_nonzero(params.eta)
            assert degrees[:n].max() <= 2 * dim + 1
            assert (real[:, :-1] >= real[:, 1:]).all()
            assert ((np.diff(nbr, axis=1) > 0) | ~real[:, 1:]).all()
            assert (nbr[~real] == np.nonzero(~real)[0]).all()

    def test_fill_and_neighbours_refuse_beyond_physical_memory(self, monkeypatch):
        # the band's diagonals with eta and the inner edges' weights (121 x
        # 4 cells and 1 per inner edge) and the tables (122 x 40 slots, two
        # arrays) are refused before they are allocated
        wired = WiredBand.box(2, 5)
        sysconf = os.sysconf
        fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        with pytest.raises(SizeError, match="band storage of 121 sites"):
            wired.fill()
        with pytest.raises(SizeError, match="neighbour tables of 121 sites"):
            wired.neighbours()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_refuses_unusable_weights(self, bad):
        g, subset = _green_box(2, 1, 1.0)
        w = np.ones(g.edge_count)
        w[3] = bad
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, subset).fill(w)
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, subset).fill(np.ones(g.edge_count - 1))

    def test_refuses_empty_boundary(self):
        g = build_lattice_box(2, 1)
        with pytest.raises(RestrictionError):
            WiredBand.from_graph(g, range(g.n)).fill()

    @pytest.mark.parametrize("dim,radius", [(3, 6), (2, 40)])
    def test_fill_draw_and_solve_hold_the_factor_once(self, dim, radius):
        # B's factor is written once, where the solve reads it, and P is
        # held by its d diagonals: the traced peak of fill, the draw and
        # the psi solve stays within 2.5 times the factor's bytes (a dense
        # band of P and a per-solve copy of the factor took it past 4)
        wired = WiredBand.box(dim, radius)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            band, eta = wired.fill()
            sample = sample_banded(band, eta, stream(63, "held-once", dim))
            green_solve_banded(sample, eta)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sample.rows.nbytes

    @pytest.mark.parametrize(
        "dim,radius,want", [(3, 2, (25, {"sites": 125})), (2, 8, (17, {"sites": 289}))]
    )
    def test_benchmark_counter_reads_the_band(self, dim, radius, want):
        # the traced benchmark keys sample_banded's spans by band.shape:
        # (n, bw + 1) as the dense band storage would read
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        band, eta = WiredBand.box(dim, radius).fill()
        rng = stream(64, "counter", dim)
        bound = inspect.signature(sample_banded).bind(band, eta, rng)
        result = sample_banded(band, eta, rng)
        counter = spans.COUNTERS["betafield.sample_banded"]
        assert counter(bound.arguments, result) == want

    def test_refuses_bad_subset(self):
        g = build_lattice_box(2, 1)
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, [0, 0, 1])
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, [0, g.n])
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, [-1, 0])


class TestWiredBandBlock:
    """fill_rows, trimmed and couple on a block of environments, against
    fill and couple one environment at a time."""

    @pytest.mark.parametrize("dim,radius", [(1, 3), (2, 4), (3, 2)])
    def test_fill_rows_is_fill_per_sample_bit_for_bit(self, dim, radius):
        wired = WiredBand.box(dim, radius)
        w = stream(74, "fill-rows", dim).gamma(1.0, 1.0, size=(6, wired.weights.size))
        rows, eta = wired.fill_rows(w)
        assert rows.shape == (wired.n, wired.bw + 1, 6) and eta.shape == (wired.n, 6)
        for s in range(6):
            band, eta_s = wired.fill(w[s])
            np.testing.assert_array_equal(eta[:, s], eta_s)
            np.testing.assert_array_equal(
                _dense_from_band(rows[:, :, s]), _dense_from_diagonals(band)
            )

    def test_fill_rows_refuses_what_fill_refuses(self):
        wired = WiredBand.box(2, 1)
        w = np.ones((3, wired.weights.size))
        for bad in (np.nan, np.inf, 0.0, -1.0):
            v = w.copy()
            v[2, 5] = bad
            with pytest.raises(DomainError):
                wired.fill_rows(v)
        with pytest.raises(DomainError):
            wired.fill_rows(w[0])
        with pytest.raises(DomainError):
            wired.fill_rows(w[:, 1:])
        g = build_lattice_box(2, 1)
        whole = WiredBand.from_graph(g, range(g.n))
        with pytest.raises(RestrictionError):
            whole.fill_rows(np.ones((2, g.edge_count)))

    def test_fill_rows_refuses_a_block_beyond_physical_memory(self, monkeypatch):
        wired = WiredBand.box(2, 5)
        sysconf = os.sysconf
        fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        with pytest.raises(SizeError, match="band rows of 40 samples on 121 sites"):
            wired.fill_rows(np.ones((40, wired.weights.size)))

    # the edges with an end in the retained box, of the outer box's edges:
    # 180 of 220, 264 of 312 and 480 of 544 at radius 4, 5 and 7 (d = 2)
    @pytest.mark.parametrize(
        "dim,radius,kept,edges",
        [(2, 4, 180, 220), (2, 5, 264, 312), (2, 7, 480, 544), (3, 1, 108, 300)],
    )
    def test_trimmed_keeps_the_edges_fill_reads(self, dim, radius, kept, edges):
        wired = WiredBand.box(dim, radius, 0.7)
        small = wired.trimmed()
        assert (wired.weights.size, small.weights.size) == (edges, kept)
        assert small.weights.size == wired.inner_edges.size + wired.cross_edges.size
        for name in ("n", "bw", "inner_i", "inner_j", "cross_site", "offsets",
                     "inner_column"):
            np.testing.assert_array_equal(getattr(small, name), getattr(wired, name))
        used = np.sort(np.concatenate([wired.inner_edges, wired.cross_edges]))
        w = stream(75, "trimmed", dim).gamma(1.0, 1.0, size=wired.weights.size)
        band, eta = wired.fill(w)
        band_t, eta_t = small.fill(w[used])
        np.testing.assert_array_equal(eta_t, eta)
        np.testing.assert_array_equal(band_t.columns, band.columns)
        v = stream(75, "trimmed-v", dim).uniform(0.5, 2.0, size=wired.n)
        np.testing.assert_array_equal(small.couple(w[used], v), wired.couple(w, v))

    def test_couple_on_a_block_is_each_row_bit_for_bit(self):
        wired = WiredBand.box(2, 3)
        rng = stream(76, "couple-block")
        w = rng.gamma(1.0, 1.0, size=(5, wired.weights.size))
        v = rng.uniform(0.5, 2.0, size=(5, wired.n))
        got = wired.couple(w, v)
        assert got.shape == (5, wired.n)
        for s in range(5):
            np.testing.assert_array_equal(got[s], wired.couple(w[s], v[s]))


def _band_rows(ps, etas):
    """_schur_loop's band rows (n, bw + 1, S) and field (n, S) for one dense
    coupling ps[s] and boundary vector etas[s] per sample."""
    n = ps[0].shape[0]
    bw = max(int((j - i).max(initial=0)) for i, j in (np.nonzero(p) for p in ps))
    st = np.zeros((n, bw + 1, len(ps)))
    for s, p in enumerate(ps):
        for d in range(bw + 1):
            st[: n - d, d, s] = np.diagonal(p, d)
    return st, np.stack(etas, axis=1).astype(float)


def _triangle(w):
    return NuParams(p=w * (np.ones((3, 3)) - np.eye(3)), eta=np.array([1.0, 0.5, 0.25]))


class TestBatchWithOneCouplingPerSample:
    """One batch of N = 200,000 fields from stream(25, "mixed-batch"), the
    triangle with weights 1 on the even samples and weights 3 on the odd
    ones, eta (1, 0.5, 0.25) for both; each half's Laplace transform is
    read at 5 points from stream(25, "mixed-lam") under the 4-SE rule.
    Declared before the draw was run."""

    N = 200_000
    HALVES = (_triangle(1.0), _triangle(3.0))

    def draw(self, swapped):
        order = self.HALVES[::-1] if swapped else self.HALVES
        st, ew = _band_rows([q.p for q in order], [q.eta for q in order])
        alternate = np.arange(self.N) % 2
        st, ew = st[:, :, alternate], ew[:, alternate]
        return vrjp.betafield._sample_rows(st, ew, 0.0, stream(25, "mixed-batch"))

    def worst_z(self, sample):
        lam_rng = stream(25, "mixed-lam")
        worst = 0.0
        for _ in range(5):
            lam = lam_rng.uniform(0.0, 1.5, size=3)
            for half, params in enumerate(self.HALVES):
                vals = np.exp(-sample.beta[half::2] @ lam)
                worst = max(worst, zscore(vals, laplace_closed_form(params, lam)))
        return worst

    def test_each_half_follows_its_own_coupling(self):
        sample = self.draw(swapped=False)
        assert sample.psd_certificate
        assert self.worst_z(sample) <= SE_RULE

    def test_power_each_half_drawn_on_the_other_coupling_fails(self):
        # the same checks on a batch whose halves were eliminated with each
        # other's coupling must fail
        assert self.worst_z(self.draw(swapped=True)) > SE_RULE

    def test_is_the_dense_loop_with_one_coupling_per_sample(self):
        # draw for draw: the dense batch loop with one P per sample, whose
        # beta differs by the rounding of the summed updates only
        params = [_triangle(w) for w in (1.0, 3.0, 0.5, 2.0, 1.0)]
        st, ew = _band_rows([q.p for q in params], [q.eta for q in params])
        rng_got, rng_want = stream(26, "mixed"), stream(26, "mixed")
        got = vrjp.betafield._sample_rows(st, ew, 0.0, rng_got)
        want = reference_sample_batch(params, 5, rng_want)
        _assert_same_draws(got.beta, want, rng_got, rng_want)
        for s, q in enumerate(params):
            np.testing.assert_allclose(
                _ldlt_from_factor(got.rows[:, :, s], got.pivots[:, s]),
                h_beta(q.p, got.beta[s]),
                rtol=1e-12,
                atol=1e-12,
            )


class TestErrwEnvironment:
    def test_gamma_weights_and_certificate(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        rng = stream(41, "env")
        draws = np.empty(10_000)
        for k in range(draws.size):
            w, beta = sample_errw_env(g, 3.0, rng)
            draws[k] = w[0]
            if k < 50:
                assert spd_certificate(pair_params(w[0]).p, beta) and (beta > 0).all()
        assert zscore(draws, 3.0) <= SE_RULE

    def test_rejects_nonpositive_shape(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        for a in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                sample_errw_env(g, a, NoDraws())
