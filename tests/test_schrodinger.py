"""Operator assembly, restricted Green functions, u-field, and identities."""

from __future__ import annotations

import dataclasses
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from vrjp import (
    DomainError,
    FactorizationError,
    IdentityReport,
    NuParams,
    RestrictionError,
    SizeError,
    WeightedGraph,
    WiredBand,
    build_lattice_box,
    check_identities,
    escape_probability_formula,
    green_bundle,
    green_solve,
    green_solve_banded,
    sample_banded,
    sample_batch,
    stream,
)

from vrjp import verify
import vrjp.schrodinger
from vrjp.betafield import h_beta
from vrjp.schrodinger import _SOLVE_BLOCK, _kernel_row

from _oracles import (
    SE_RULE,
    EnumerationError,
    assemble_H,
    band_diagonals,
    banded_coupling,
    dense_identities,
    factored,
    full_kernel,
    q_density,
    reference_green_solve_banded,
    schur_step,
    se,
    solved_hat_g,
    spectrum_bottom,
    total_weights,
    truncated_green_pathsum,
    u_field,
    wired_w,
    zscore,
)


def pair():
    return WeightedGraph(n=2, edges=((0, 1, 1.0),))


def wired_beta_envs(g, subset, n, rng):
    """Field samples on the retained set, as one batch with its kept factor,
    plus independent couplings."""
    sample = sample_batch(WiredBand.from_graph(g, subset).params(), n, rng)
    gamma = rng.gamma(0.5, 1.0, size=n)
    return sample, gamma


class TestAssembleH:
    def test_single_vertex(self):
        h = assemble_H(WeightedGraph(n=1, edges=()), [0.7])
        assert np.array_equal(h, [[1.4]])

    def test_pair(self):
        h = assemble_H(pair(), [1.0, 1.0])
        assert np.array_equal(h, [[2.0, -1.0], [-1.0, 2.0]])

    def test_row_sums_vanish_at_half_degree(self):
        g = build_lattice_box(2, 1, w=1.5)
        beta = total_weights(g) / 2.0
        h = assemble_H(g, beta)
        assert np.abs(h @ np.ones(g.n)).max() < 1e-12

    def test_symmetry_and_sign_pattern(self):
        g = build_lattice_box(2, 1)
        h = assemble_H(g, np.full(g.n, 2.0))
        assert np.array_equal(h, h.T)
        off = h[~np.eye(g.n, dtype=bool)]
        assert (off <= 0).all()

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            assemble_H(pair(), [1.0])

    def test_refuses_dense_matrix_beyond_physical_memory(self):
        # 200,000^2 * 8 bytes = 320 GB: refused before anything is allocated
        g = WeightedGraph(n=200_000, edges=())
        beta = np.ones(g.n)
        if os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") > g.n**2 * 8:
            pytest.skip("the machine holds the whole matrix")
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                g.weight_matrix()
            with pytest.raises(SizeError):
                assemble_H(g, beta)
            # the marginal on two sites needs only their 2 x 2 block
            params = WiredBand.from_graph(g, [0, 1]).params()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert params.p.shape == (2, 2) and not params.p.any()
        assert not params.eta.any()


class TestGreenSolve:
    @staticmethod
    def coupling():
        # a nonzero diagonal, as a Schur complement carries: H = 2 beta - P
        # must keep P_kk rather than overwrite the diagonal with 2 beta
        a = stream(5, "gs-p").uniform(0.1, 1.0, (5, 5))
        return a + a.T

    @staticmethod
    def inverse_times(p, beta, rhs):
        h = np.stack([np.diag(2.0 * b) - p for b in np.atleast_2d(beta)])
        out = np.linalg.inv(h) @ rhs
        return out if beta.ndim == 2 else out[0]

    @pytest.mark.parametrize("batch", [(), (7,)], ids=["single", "batch"])
    @pytest.mark.parametrize("k", [None, 1, 3], ids=["vector", "k1", "k3"])
    def test_matches_inverse(self, batch, k):
        # 2 beta >= 12 exceeds every row sum of P, so H is positive definite
        p = self.coupling()
        beta = stream(5, "gs-beta").uniform(6.0, 7.0, (*batch, 5))
        shape = (5,) if k is None else (5, k)
        rhs = stream(5, "gs-rhs").normal(size=shape)
        got = green_solve(p, beta, rhs)
        assert got.shape == (*batch, *shape)
        assert np.allclose(got, self.inverse_times(p, beta, rhs), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("k", [None, 3], ids=["vector", "k3"])
    @pytest.mark.parametrize(
        "batch", [(2 * _SOLVE_BLOCK + 5,), (3, _SOLVE_BLOCK // 2 + 1)]
    )
    def test_blocks_give_per_environment_solves(self, batch, k):
        # several blocks of environments and a short last one, also across
        # leading axes: each environment's LU solve is its own, bit for bit
        p = self.coupling()
        beta = stream(5, "gs-blocks").uniform(6.0, 7.0, (*batch, 5))
        rhs = stream(5, "gs-rhs").normal(size=(5,) if k is None else (5, k))
        got = green_solve(p, beta, rhs)
        want = np.stack(
            [np.linalg.solve(h_beta(p, b), rhs) for b in beta.reshape(-1, 5)]
        ).reshape(got.shape)
        np.testing.assert_array_equal(got, want)

    def test_rejects_mismatched_rhs(self):
        p = self.coupling()
        with pytest.raises(DomainError):
            green_solve(p, np.full(5, 6.0), np.ones(4))
        with pytest.raises(DomainError):
            green_solve(p, np.full(5, 6.0), np.ones((5, 2, 2)))


def _drawn_box(dim, radius, w, seed):
    """A box's dense band storage, its degree-deficit boundary vector, and
    one band draw of the field on it."""
    g = build_lattice_box(dim, radius, w)
    band, _ = banded_coupling(g)
    degrees = np.array([len(nb) for nb in g.neighbors], dtype=float)
    eta = w * (2 * dim - degrees)
    return g, band, sample_banded(band_diagonals(band), eta, stream(seed, "gsb-beta"))


class TestGreenSolveBanded:
    @pytest.mark.parametrize("k", [None, 1, 2], ids=["vector", "k1", "k2"])
    def test_matches_dense_solve(self, k):
        g, band, sample = _drawn_box(2, 3, 2.1, 79)
        shape = (g.n,) if k is None else (g.n, k)
        rhs = stream(79, "gsb-rhs").normal(size=shape)
        got = green_solve_banded(sample, rhs)
        assert got.shape == shape
        want = green_solve(g.weight_matrix(), sample.beta, rhs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        want = reference_green_solve_banded(band, sample.beta, rhs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_leaves_rhs_alone(self):
        g, _, sample = _drawn_box(2, 3, 2.1, 79)
        rhs = np.asfortranarray(stream(79, "gsb-rhs").normal(size=(g.n, 2)))
        kept = rhs.copy()
        green_solve_banded(sample, rhs)
        np.testing.assert_array_equal(rhs, kept)

    @staticmethod
    def with_pivot(sample, pivot, certified):
        pivots = sample.pivots.copy()
        pivots[pivots.size // 2] = pivot
        return dataclasses.replace(sample, pivots=pivots, psd_certificate=certified)

    def test_non_positive_definite_raises_factorization_error(self):
        # a pivot below the certificate's threshold fails the certificate
        g, _, sample = _drawn_box(2, 2, 1.0, 83)
        with pytest.raises(FactorizationError, match="not positive definite"):
            green_solve_banded(self.with_pivot(sample, 1e-20, False), np.ones(g.n))

    def test_zero_pivot_raises_factorization_error(self):
        # an exactly zero pivot, even in a sample that claims a certificate,
        # makes the triangular solve report a singular factor
        g, _, sample = _drawn_box(2, 2, 1.0, 83)
        with pytest.raises(FactorizationError, match="singular"):
            green_solve_banded(self.with_pivot(sample, 0.0, True), np.ones(g.n))

    def test_rejects_mismatched_rhs(self):
        g, _, sample = _drawn_box(2, 2, 1.0, 83)
        with pytest.raises(DomainError):
            green_solve_banded(sample, np.ones(g.n - 1))
        with pytest.raises(DomainError):
            green_solve_banded(sample, np.ones((g.n, 2, 2)))

    @pytest.mark.parametrize("layout", ["two-level", "batch"])
    def test_refuses_a_right_hand_side_without_columns(self, monkeypatch, layout):
        # scipy's dtbtrs corrupts the heap on an empty block: an (m, 0)
        # right-hand side is refused before any LAPACK call, on both layouts
        def reached(*args, **kwargs):
            raise AssertionError("dtbtrs was reached")

        monkeypatch.setattr(vrjp.schrodinger, "dtbtrs", reached)
        g, _, sample = _drawn_box(2, 2, 1.0, 83)
        if layout == "batch":
            params = NuParams(p=g.weight_matrix(), eta=np.ones(g.n))
            sample = sample_batch(params, 1, stream(83, "gsb-empty"))
        with pytest.raises(DomainError, match="no entries"):
            green_solve_banded(sample, np.ones((g.n, 0)))


def _gate_marginal(name):
    """The marginals whose batches criteria 6 and 8 solve on the kept factor:
    the 3x3 core and the 5x5 box wired inside the 7x7 box (C6), and the
    4-site corner of the 3x3 box wired to the rest (C8)."""
    if name == "c8-4-site":
        return WiredBand.from_graph(build_lattice_box(2, 1), [0, 1, 3, 4]).params()
    g = build_lattice_box(2, 3)
    radius = 1 if name == "c6-3x3" else 2
    return WiredBand.from_graph(
        g, [v for v in range(g.n) if int(np.abs(g.coords[v]).max()) <= radius]
    ).params()


class TestGreenSolveBandedBatch:
    @pytest.mark.parametrize("k", [None, 2], ids=["vector", "k2"])
    @pytest.mark.parametrize("n_samples", [1, 300])
    @pytest.mark.parametrize("name", ["c6-3x3", "c6-5x5", "c8-4-site"])
    def test_matches_dense_solve(self, name, n_samples, k):
        # positive right-hand sides: H^-1 is entrywise positive, so every
        # entry of the solution is compared relative to itself
        params = _gate_marginal(name)
        m = params.n
        sample = sample_batch(params, n_samples, stream(84, "gsb-batch", name))
        shape = (m,) if k is None else (m, k)
        rhs = stream(84, "gsb-batch-rhs", name).uniform(0.1, 1.0, size=shape)
        kept = rhs.copy()
        got = green_solve_banded(sample, rhs)
        want = green_solve(params.p, sample.beta, rhs)
        assert got.shape == want.shape == (n_samples, *shape)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(rhs, kept)

    @staticmethod
    def degenerate_batch(pivot):
        """A batch of 4 on 3 uncoupled sites, eta = 0, whose draws are all
        chi-square 1 except the first site's in sample 2, which is pivot."""

        class Draws:
            def __init__(self):
                self.first = True

            def chisquare(self, df, size):
                x = np.ones(size)
                if self.first:
                    x[2], self.first = pivot, False
                return x

        params = NuParams(p=np.zeros((3, 3)), eta=np.zeros(3))
        return sample_batch(params, 4, Draws())

    def test_failed_certificate_raises_factorization_error(self):
        # a pivot of 1e-20 beside diagonal entries of 1 fails the batch's
        # certificate, which sample_batch reads from the pivots it drew
        sample = self.degenerate_batch(1e-20)
        assert not sample.psd_certificate
        assert self.degenerate_batch(1e-11).psd_certificate
        with pytest.raises(FactorizationError, match="not positive definite"):
            green_solve_banded(sample, np.ones(3))

    def test_zero_pivot_raises_factorization_error(self):
        sample = self.degenerate_batch(1.0)
        pivots = sample.pivots.copy()
        pivots[1, 3] = 0.0
        sample = dataclasses.replace(sample, pivots=pivots)
        assert sample.psd_certificate
        with pytest.raises(FactorizationError, match="singular"):
            green_solve_banded(sample, np.ones((3, 2)))


@pytest.mark.parametrize("shape", [(), (1,), (8,)], ids=["scalar", "one", "m+1"])
@pytest.mark.parametrize("banded", [False, True], ids=["dense", "band"])
def test_green_solves_refuse_a_beta_of_the_wrong_shape(banded, shape):
    # numpy would broadcast a scalar or length-1 beta over all m = 7 sites;
    # the band case checks the oracle, which forms H_beta from a given beta
    g = build_lattice_box(1, 3)
    beta = np.full(shape, 3.0)
    with pytest.raises(DomainError, match="beta must have shape"):
        if banded:
            reference_green_solve_banded(banded_coupling(g)[0], beta, np.ones(g.n))
        else:
            green_solve(g.weight_matrix(), beta, np.ones(g.n))


class TestGreenBundle:
    def test_single_retained_vertex_closed_form(self):
        g = pair()
        wired = WiredBand.from_graph(g, [0])
        params = wired.params()
        bundle = green_bundle(wired, factored(params, [0.8]), [0], gamma=0.3)
        assert solved_hat_g(bundle)[0, 0] == pytest.approx(1.0 / 1.6, rel=1e-12)
        assert bundle.psi[0] == pytest.approx(1.0 / 1.6, rel=1e-12)
        assert bundle.kernel_row(1)[1] == pytest.approx(1.0 / 0.6, rel=1e-12)
        assert bundle.beta_delta == pytest.approx(0.5 * bundle.psi[0] + 0.3, rel=1e-12)

    @pytest.mark.parametrize("sampler", ["sample_banded", "sample_batch"])
    def test_solves_on_the_kept_factor(self, sampler):
        # hat_g and psi, solved on the factor a draw kept, are the dense
        # inverse of an H_beta that h_beta forms anew, and its product with eta
        g = build_lattice_box(2, 3)
        subset = [v for v in range(g.n) if np.abs(g.coords[v]).max() <= 2]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        rng = stream(23, "bundle-factor", sampler)
        if sampler == "sample_banded":
            sample = sample_banded(*WiredBand.from_graph(g, subset).fill(), rng)
            beta = sample.beta
        else:
            sample = sample_batch(params, 1, rng)
            beta = sample.beta[0]
        bundle = green_bundle(wired, sample, subset, gamma=0.7, i0=subset[12])
        inverse = np.linalg.inv(h_beta(params.p, beta))
        np.testing.assert_allclose(solved_hat_g(bundle), inverse, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(bundle.psi, inverse @ params.eta, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            bundle.root_column, inverse[:, 12], rtol=1e-12, atol=0.0
        )

    def test_decomposition_identity_random_box(self):
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        rng = stream(51, "decomp")
        sample, gamma = wired_beta_envs(g, subset, 1, rng)
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        bundle = green_bundle(wired, sample, subset, gamma[0])
        m = bundle.m
        hat_g = solved_hat_g(bundle)
        recon = hat_g + np.outer(bundle.psi, bundle.psi) / (2.0 * gamma[0])
        kernel = np.array([bundle.kernel_row(k) for k in range(m)])
        rel = np.abs(kernel[:, :m] - recon) / np.abs(recon)
        assert rel.max() <= 1e-9

    def test_boundary_green_entry_is_half_inverse_gamma(self):
        g = pair()
        rng = stream(51, "gdd")
        n = 100_000
        gamma = rng.gamma(0.5, 1.0, size=n)
        sub = rng.integers(0, n, size=200)
        wired = WiredBand.from_graph(g, [0])
        params = wired.params()
        for k in sub[:5]:
            bundle = green_bundle(wired, factored(params, [1.0]), [0], gamma=gamma[k])
            assert bundle.kernel_row(1)[1] == pytest.approx(
                1.0 / (2.0 * gamma[k]), rel=1e-12
            )
        # the implied mean: 1/(2 G(delta,delta)) = gamma averages to 1/2
        assert zscore(gamma, 0.5) <= SE_RULE

    def test_psi_positive_and_extensions(self):
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        rng = stream(51, "ext")
        sample, gamma = wired_beta_envs(g, subset, 1, rng)
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        bundle = green_bundle(wired, sample, subset, gamma[0], i0=2)
        assert (bundle.psi > 0).all()
        assert bundle.psi_ext()[bundle.delta_index] == 1.0
        assert bundle.u[bundle.i0_index] == 0.0
        assert bundle.position(2) == 1 and bundle.position(None) == bundle.delta_index
        with pytest.raises(DomainError):
            bundle.position(0)

    @pytest.mark.parametrize("drawn", [True, False], ids=["drawn", "factored"])
    def test_kernel_rows_are_the_dense_kernel(self, drawn):
        # each row, delta's included, has the bits of the full kernel built
        # densely in one piece, on a drawn and on a chosen-beta bundle
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        if drawn:
            sample = sample_batch(params, 1, stream(52, "kernel-rows"))
        else:
            sample = factored(params, np.full(len(subset), 2.5))
        bundle = green_bundle(wired, sample, subset, gamma=0.4, i0=subset[7])
        dense = full_kernel(bundle)
        for k in range(bundle.m + 1):
            assert np.array_equal(bundle.kernel_row(k), dense[k])
        root = bundle.i0_index
        u = np.log(dense[root]) - np.log(dense[root, root])
        assert np.array_equal(bundle.u, u)

    @pytest.mark.parametrize("i0", [7, None], ids=["site", "delta"])
    def test_kernel_row_of_one_environment_is_the_dense_root_row(self, i0):
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        sample = sample_batch(params, 1, stream(52, "root-row"))
        bundle = green_bundle(wired, sample, subset, gamma=0.4, i0=i0)
        k = bundle.i0_index
        ghat = bundle.root_column if k < bundle.m else None
        row = _kernel_row(bundle.psi, ghat, k, bundle.gamma)
        assert np.array_equal(row, full_kernel(bundle)[k])

    def test_kernel_row_of_a_batch_is_each_dense_root_row(self):
        # the form criterion 8 reads: Green columns solved on a batch's
        # factor, one coupling per environment
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        sample, gamma = wired_beta_envs(g, subset, 5, stream(52, "root-rows"))
        m, k = len(subset), 7
        hat = green_solve_banded(sample, np.eye(m))
        psi = green_solve_banded(sample, WiredBand.from_graph(g, subset).params().eta)
        rows = _kernel_row(psi, hat[:, :, k], k, gamma)
        assert rows.shape == (5, m + 1)
        for s in range(5):
            env = SimpleNamespace(m=m, psi=psi[s], gamma=gamma[s])
            assert np.array_equal(rows[s], full_kernel(env, hat[s].T)[k])

    @pytest.mark.parametrize(
        "k",
        [-1, 10, 2.0, True, np.True_, "1", None],
        ids=["negative", "past", "float", "bool", "numpy-bool", "str", "none"],
    )
    def test_kernel_row_refuses_an_index_it_cannot_read(self, k):
        # on the 9-site box, -1 once mixed delta's psi part with site 8's
        # column, True gave a (10, 1, 10) array, and 10 and 2.0 raised
        # numpy's IndexError
        with pytest.raises(DomainError):
            nine_site_bundle().kernel_row(k)

    @pytest.mark.parametrize(
        "k", [-1, 9, 2.0, True, "1"], ids=["negative", "delta", "float", "bool", "str"]
    )
    def test_hat_g_column_refuses_an_index_it_cannot_read(self, k):
        with pytest.raises(DomainError):
            nine_site_bundle().hat_g_column(k)

    def test_numpy_integers_read_as_their_index(self):
        bundle = nine_site_bundle()
        for k in (0, 4, 9):
            assert np.array_equal(bundle.kernel_row(np.int64(k)), bundle.kernel_row(k))
        assert np.array_equal(bundle.hat_g_column(np.intp(3)), bundle.hat_g_column(3))

    def test_keeps_only_what_it_solved(self):
        # the wiring and the draw are shared, and no (m, m) or larger array
        # is stored, nor any NuParams: the arrays held are vectors on the
        # retained set
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        sample = sample_batch(params, 1, stream(52, "bundle-arrays"))
        bundle = green_bundle(wired, sample, subset, gamma=0.4)
        assert bundle.wired is wired and bundle.sample is sample
        assert not any(isinstance(x, NuParams) for x in vars(bundle).values())
        held = [x for x in vars(bundle).values() if isinstance(x, np.ndarray)]
        assert held and all(x.shape == (bundle.m,) for x in held)

    def test_holds_no_dense_array_beyond_its_inputs(self):
        # psi and the root's column are one solve of two right-hand sides
        # on the kept factor: no (m + 1)^2 array on the 441-site box. The
        # solve reads B's band factor in place and holds a few (m, 2)
        # arrays; the labels come as the tuple the bundle keeps
        wired = WiredBand.box(2, 10, 1.0)
        sample = sample_banded(*wired.fill(), stream(52, "bundle-peak"))
        m = wired.n
        subset = tuple(range(m))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            green_bundle(wired, sample, subset, gamma=0.4, i0=m // 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 8 * (m + 1) ** 2

    def test_errors(self):
        g = pair()
        one = WiredBand.from_graph(g, [0])
        p_one = one.params()
        for gamma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                green_bundle(one, factored(p_one, [1.0]), [0], gamma=gamma)
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, [0, 0])
        # two sites, both on the boundary, labelled by a repeated vertex
        apart = WeightedGraph(n=4, edges=((0, 2, 1.0), (1, 3, 1.0)))
        flat = WiredBand.from_graph(apart, [0, 1])
        with pytest.raises(DomainError, match="repeated"):
            green_bundle(flat, factored(flat.params(), [1.0, 1.0]), [0, 0], gamma=1.0)
        with pytest.raises(DomainError):
            green_bundle(one, factored(p_one, [1.0]), [0, 1], gamma=1.0)
        closed = WiredBand.from_graph(g, [0, 1])
        with pytest.raises(RestrictionError):
            green_bundle(
                closed, factored(closed.params(), [1.0, 1.0]), [0, 1], gamma=1.0
            )
        # a batch of two environments is not one environment
        path = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        wired = WiredBand.from_graph(path, [0, 1])
        params = wired.params()
        batch = sample_batch(params, 2, stream(3, "bundle-batch"))
        with pytest.raises(DomainError, match="one environment"):
            green_bundle(wired, batch, [0, 1], gamma=1.0)
        # H_beta is not positive definite at beta = 0.4: the certificate fails
        indefinite = factored(params, [0.4, 0.4])
        assert not indefinite.psd_certificate
        with pytest.raises(FactorizationError, match="not positive definite"):
            green_bundle(wired, indefinite, [0, 1], gamma=1.0)
        # a zero pivot under a certificate that holds
        drawn = sample_batch(params, 1, stream(3, "bundle-pivot"))
        pivots = drawn.pivots.copy()
        pivots[1] = 0.0
        with pytest.raises(FactorizationError, match="zero pivot"):
            green_bundle(
                wired, dataclasses.replace(drawn, pivots=pivots), [0, 1], gamma=1.0
            )

    def test_refuses_a_component_without_boundary(self):
        # vertices 0 and 1 have no edge to the complement, so psi vanishes
        # on them and u would be log 0
        g = WeightedGraph(n=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        subset = [0, 1, 2]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        rng = stream(4, "zero-row")
        sample = sample_batch(params, 1, rng)
        with np.errstate(all="raise"):
            with pytest.raises(RestrictionError, match="no edge to delta"):
                green_bundle(wired, sample, subset, float(rng.gamma(0.5)), i0=2)

    def test_refuses_a_root_outside_the_retained_set(self):
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        with pytest.raises(DomainError, match="not in the retained set"):
            green_bundle(wired, factored(params, np.ones(3)), subset, gamma=1.0, i0=0)


class TestTruncatedPathsum:
    def test_zero_length_diagonal(self):
        g = pair()
        assert truncated_green_pathsum(g, [0.8, 1.0], 0, 0, 0) == pytest.approx(1.0 / 1.6)

    def test_zero_length_off_diagonal(self):
        assert truncated_green_pathsum(pair(), [1.0, 1.0], 0, 1, 0) == 0.0

    def test_converges_to_inverse_entry(self):
        # walks alternate between the two vertices, so the truncated sums are
        # geometric series with ratio 1/4; K=8 lands within 1e-3 of the
        # inverse (the off-diagonal entry gains its last term at odd K)
        g = pair()
        target = np.linalg.inv(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        for k in range(0, 10):
            diag = truncated_green_pathsum(g, [1.0, 1.0], 0, 0, k)
            off = truncated_green_pathsum(g, [1.0, 1.0], 0, 1, k)
            assert diag == pytest.approx(
                (2.0 / 3.0) * (1.0 - 0.25 ** (k // 2 + 1)), rel=1e-12
            )
            assert off == pytest.approx(
                (1.0 / 3.0) * (1.0 - 0.25 ** ((k + 1) // 2)), rel=1e-12
            )
        assert abs(truncated_green_pathsum(g, [1.0, 1.0], 0, 0, 8) - target[0, 0]) < 1e-3
        assert abs(truncated_green_pathsum(g, [1.0, 1.0], 0, 1, 9) - target[0, 1]) < 1e-3

    def test_monotone_and_below_solver(self):
        g = WeightedGraph(
            n=4, edges=((0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 2.0))
        )
        beta = np.array([2.5, 1.6, 1.8, 3.0])
        solver = np.linalg.inv(assemble_H(g, beta))
        for i, j in ((0, 2), (1, 3), (0, 0)):
            prev = -1.0
            for k in range(0, 11):
                val = truncated_green_pathsum(g, beta, i, j, k)
                assert val >= prev
                prev = val
            assert prev <= solver[i, j] + 1e-12

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationError):
            truncated_green_pathsum(pair(), [1.0, 1.0], 0, 1, 13)


class TestQDensity:
    def test_zero_field_value(self):
        g = pair()
        val = q_density(g, np.zeros(2), 0)
        assert val == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_total_mass_by_quadrature(self):
        g = pair()
        # the integrand decays like exp(-cosh t); |t| > 15 is far below 1e-16
        mass, err = integrate.quad(
            lambda t: q_density(g, np.array([0.0, t]), 0), -15.0, 15.0, limit=200
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_root_constraint_enforced(self):
        with pytest.raises(DomainError):
            q_density(pair(), np.array([0.5, 0.0]), 0)
        with pytest.raises(DomainError):
            q_density(pair(), np.array([0.0, np.inf]), 0)

    def test_wired_rooted_field_has_unit_exponential_mean(self):
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        rng = stream(61, "eu")
        n = 10_000
        sample, gamma = wired_beta_envs(g, subset, n, rng)
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        eu = np.empty((n, 2))
        for k in range(n):
            env = factored(params, sample.beta[k])
            bundle = green_bundle(wired, env, subset, gamma[k], i0=2)
            vals = np.exp(bundle.u)
            eu[k] = vals[[0, 2]]  # non-root retained sites
        for col in eu.T:
            assert zscore(col, 1.0) <= SE_RULE


class TestSpectrumBottom:
    def test_single_vertex(self):
        op = assemble_H(WeightedGraph(n=1, edges=()), [0.7])
        assert spectrum_bottom(op) == pytest.approx(1.4, abs=1e-8)

    def test_pair_zero_mode(self):
        op = assemble_H(pair(), [0.5, 0.5])
        assert spectrum_bottom(op) == pytest.approx(0.0, abs=1e-8)

    def test_sampled_field_gives_positive_operator(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        from vrjp import NuParams

        params = NuParams.from_graph(g, eta=1.0)
        rng = stream(71, "spec")
        for _ in range(50):
            beta = sample_batch(params, 1, rng).beta[0]
            assert spectrum_bottom(assemble_H(g, beta)) > 0.0

    def test_sparse_branch_matches_shifted_laplacian(self):
        # 2 beta - W is the graph Laplacian shifted by 2c; the 33x33 box
        # (1089 vertices) once went through a sparse eigensolver and now
        # goes through the dense one, so the tolerance is the dense one
        g = build_lattice_box(2, 16)
        c = 0.35
        beta = total_weights(g) / 2.0 + c
        op = assemble_H(g, beta)
        assert op.shape == (1089, 1089)
        assert spectrum_bottom(op) == pytest.approx(2.0 * c, abs=1e-10)

    def test_dense_branch_same_construction(self):
        g = build_lattice_box(2, 2)
        c = 0.35
        beta = total_weights(g) / 2.0 + c
        assert spectrum_bottom(assemble_H(g, beta)) == pytest.approx(2.0 * c, abs=1e-10)


FIELDS = [f.name for f in dataclasses.fields(IdentityReport)]


class TestCheckIdentities:
    def test_residuals_small_over_environments(self):
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v != 12]
        rng = stream(81, "ids")
        sample, gamma = wired_beta_envs(g, subset, 25, rng)
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        for k, beta in enumerate(sample.beta):
            bundle = green_bundle(wired, factored(params, beta), subset, gamma[k])
            report, _ = check_identities(bundle, beta)
            assert report.max_residual() <= 1e-9

    def test_root_atom_negative_control(self):
        # removing the 1/(2 G(root,root)) atom must surface as a residual of
        # exactly that size in the beta reconstruction
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        rng = stream(81, "atom")
        sample, gamma = wired_beta_envs(g, subset, 1, rng)
        beta = sample.beta
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        bundle = green_bundle(wired, sample, subset, gamma[0], i0=2)
        report, _ = check_identities(bundle, beta[0], i0=2)
        assert report.max_residual() <= 1e-9

        root = bundle.i0_index
        grow = full_kernel(bundle)[root]
        atom = 1.0 / (2.0 * grow[root])
        w = wired_w(bundle.wired.params())
        recon_no_atom = 0.5 * (w[root] @ grow) / grow[root]
        assert abs(beta[0][root] - recon_no_atom) == pytest.approx(atom, rel=1e-9)

    def test_harmonicity_of_solved_field(self):
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 4, 20, 24)]
        rng = stream(81, "harm")
        sample, gamma = wired_beta_envs(g, subset, 1, rng)
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        bundle = green_bundle(wired, sample, subset, gamma[0])
        report, _ = check_identities(bundle, sample.beta[0])
        assert report.harmonic <= 1e-10

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_nan_field_is_the_max_residual(self, field):
        # Python's max keeps its first argument against a NaN
        fields = dict.fromkeys(FIELDS, 1e-16)
        fields[field] = np.nan
        assert np.isnan(IdentityReport(**fields).max_residual())

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_nan_field_fails_criterion_1(self, monkeypatch, field):
        # the NaN comes from the second environment, after a finite reading
        # of the same field
        calls = []

        def nan_on_second_call(*args, **kwargs):
            report, diag = check_identities(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                report = dataclasses.replace(report, **{field: np.nan})
            return report, diag

        monkeypatch.setattr(verify, "check_identities", nan_on_second_call)
        result = verify.CRITERIA[1](verify.QUICK, 7)
        assert not result.passed
        assert f"{field} nan" in result.detail

    @pytest.mark.parametrize(
        "bad",
        [
            lambda b: b[:-1],
            lambda b: np.append(b, 1.0),
            lambda b: np.stack([b, b]),
            lambda b: b[:, None],
            lambda b: b[0],
            lambda b: np.where(np.arange(b.size) == 4, np.nan, b),
            lambda b: np.where(np.arange(b.size) == 4, np.inf, b)[None],
        ],
        ids=["short", "long", "two-envs", "column", "scalar", "nan", "inf"],
    )
    def test_refuses_a_beta_it_cannot_read(self, bad):
        # a wrong length used to raise numpy's broadcast error, and a NaN
        # to give NaN residuals
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if np.abs(g.coords[v]).max() <= 1]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        sample = sample_batch(params, 1, stream(81, "beta-shape"))
        bundle = green_bundle(wired, sample, subset, gamma=0.4)
        with pytest.raises(DomainError, match="beta must"):
            check_identities(bundle, bad(sample.beta[0]))

    def test_a_batch_of_one_beta_reads_as_its_environment(self):
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if np.abs(g.coords[v]).max() <= 1]
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        sample = sample_batch(params, 1, stream(81, "beta-batch"))
        bundle = green_bundle(wired, sample, subset, gamma=0.4)
        one, diag_one = check_identities(bundle, sample.beta)
        row, diag_row = check_identities(bundle, sample.beta[0])
        assert one == row and np.array_equal(diag_one, diag_row)
        assert one.max_residual() <= 1e-12


def wired_path(m):
    """A path of m sites wired at both ends."""
    g = WeightedGraph(n=m + 2, edges=tuple((i, i + 1, 1.0) for i in range(m + 1)))
    return WiredBand.from_graph(g, range(1, m + 1))


def wired_bundle(wired, rng, layout):
    """One draw and coupling on a wired marginal, rooted in its middle: a
    band draw, whose factor has two levels, or a batch of one."""
    params = wired.params()
    if layout == "two-level":
        sample = sample_banded(*wired.fill(), rng)
    else:
        sample = sample_batch(params, 1, rng)
    gamma = float(rng.gamma(0.5, 1.0))
    bundle = green_bundle(wired, sample, range(wired.n), gamma, i0=wired.n // 2)
    return bundle, sample.beta.reshape(wired.n)


def nine_site_bundle():
    """wired_bundle's band draw on the d=2 box of radius 1."""
    return wired_bundle(WiredBand.box(2, 1, 1.0), stream(33, "index"), "two-level")[0]


# sizes just below, at and above multiples of the 128-column tiles, then
# three wired boxes, each with the factor layout its draw keeps by default
STREAMED_CASES = {
    "path-127": (lambda: wired_path(127), "batch"),
    "path-128": (lambda: wired_path(128), "batch"),
    "path-129": (lambda: wired_path(129), "batch"),
    "path-257": (lambda: wired_path(257), "batch"),
    "box-d2-r2": (lambda: WiredBand.box(2, 2, 1.0), "two-level"),
    "box-d3-r1": (lambda: WiredBand.box(3, 1, 1.0), "two-level"),
    "box-d2-r6": (lambda: WiredBand.box(2, 6, 1.0), "two-level"),
}


def streamed_bundle(case, rng, layout=None):
    wired, default = STREAMED_CASES[case]
    return wired_bundle(wired(), rng, layout or default)


class TestStreamedIdentities:
    # check_identities solves hat_g a tile of columns at a time on the kept
    # factor and forms the full kernel beside it; dense_identities forms W,
    # H, hat_g and the kernel whole

    @pytest.mark.parametrize("case", list(STREAMED_CASES))
    def test_every_field_is_small_on_both_sides(self, case):
        bundle, beta = streamed_bundle(case, stream(30, "streamed", case))
        report, _ = check_identities(bundle, beta)
        for report in (report, dense_identities(bundle, beta)):
            for name, value in dataclasses.asdict(report).items():
                assert value <= 1e-12, name

    @pytest.mark.parametrize(
        "case, corrupt, field",
        [
            *(
                (case, corrupt, field)
                for case in ("box-d2-r2", "box-d3-r1")
                for corrupt, field in (
                    ("pivot", "hg_block"),
                    ("psi", "full_inverse"),
                    ("gamma", "full_inverse"),
                )
            ),
            # two tiles. A gamma scaled by 1 + 1e-6 reads 1.4e-11 on both
            # sides here, where the atom 1/(2 gamma) sets the kernel's norm
            ("box-d2-r6", "pivot", "hg_block"),
            ("box-d2-r6", "psi", "full_inverse"),
        ],
    )
    def test_a_corruption_reads_as_on_dense_products(self, case, corrupt, field):
        bundle, beta = streamed_bundle(case, stream(31, "streamed", case))
        m = bundle.m
        if corrupt == "pivot":
            # one pivot of the kept factor, which every tile's solve reads;
            # no hat_g is stored to corrupt. A pivot of B is also column 0
            # of B's factor rows, where the triangular solves read it
            pivots = bundle.sample.pivots.copy()
            pivots[m // 3] *= 1.0 + 1e-6
            rows = bundle.sample.rows.copy()
            rows[:, 0] = np.delete(pivots, bundle.sample.first.sites)
            sample = dataclasses.replace(bundle.sample, pivots=pivots, rows=rows)
            bundle = dataclasses.replace(bundle, sample=sample)
        elif corrupt == "psi":
            psi = bundle.psi.copy()
            psi[m // 2] *= 1.0 + 1e-6
            bundle = dataclasses.replace(bundle, psi=psi)
        else:
            bundle = dataclasses.replace(bundle, gamma=bundle.gamma * (1.0 + 1e-6))
        streamed = getattr(check_identities(bundle, beta)[0], field)
        dense = getattr(dense_identities(bundle, beta), field)
        assert dense > 1e-9
        assert streamed == pytest.approx(dense, rel=0.01)

    @pytest.mark.parametrize("layout", ["two-level", "batch"])
    @pytest.mark.parametrize("case", list(STREAMED_CASES))
    def test_reads_match_the_dense_inverse(self, case, layout):
        # the check's diagonal, kernel rows (the stored root column and
        # columns solved on demand) and escape probabilities, against the
        # dense inverse the kept factor gives when all its columns are
        # solved at once. A fresh inverse of h_beta differs from it by up to
        # 2.8e-11 on the paths, whose H has condition up to 1.2e7, because
        # beta carries the draw's rounding; the identity check ties this
        # inverse to H at 1e-12
        bundle, beta = streamed_bundle(case, stream(33, "reads", case), layout)
        m, gamma, root = bundle.m, bundle.gamma, bundle.i0_index
        inverse = solved_hat_g(bundle)
        kernel = full_kernel(bundle, inverse)
        psi_e = bundle.psi_ext()
        diag = check_identities(bundle, beta)[1]
        np.testing.assert_allclose(diag, np.diag(inverse), rtol=1e-12, atol=0.0)
        for k in (0, m // 3, root, m - 1, m):
            np.testing.assert_allclose(
                bundle.kernel_row(k), kernel[k], rtol=1e-12, atol=0.0
            )
        w = wired_w(bundle.wired.params())
        for p0 in (root, m // 3):
            g00 = inverse[p0, p0]
            exit0 = 0.5 * (w[p0] @ kernel[p0]) / kernel[p0, p0]
            for i in (p0, 0, m - 1, m):
                if i == p0:
                    want = psi_e[p0] ** 2 / (4.0 * gamma * exit0 * g00 * kernel[p0, p0])
                else:
                    g0i = inverse[p0, i] if i < m else 0.0
                    gcheck = g00 * psi_e[i] - g0i * psi_e[p0]
                    want = psi_e[p0] * gcheck / (2.0 * gamma * g00 * kernel[p0, i])
                got = escape_probability_formula(bundle, p0, None if i == m else i)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_no_dense_array_beyond_the_inputs(self):
        # the tiles a step holds at once, the kernel's tile, H applied to it
        # and one gather scratch, are 3 x 128 x 442 x 8 B on this box: 0.87
        # of a dense array, against the 3 arrays of the dense products
        bundle, beta = wired_bundle(
            WiredBand.box(2, 10, 1.0), stream(32, "streamed-peak"), "two-level"
        )
        m = bundle.m
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check_identities(bundle, beta)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * 8 * (m + 1) ** 2


class TestNestedVolumes:
    def test_hat_green_monotone_in_volume(self):
        g = build_lattice_box(1, 4)  # vertices 0..8, center 4
        rng = stream(91, "mono")
        for _ in range(3):
            full, gamma = wired_beta_envs(g, list(range(1, 8)), 1, rng)
            prev = None
            for r in (1, 2, 3):
                subset = list(range(4 - r, 4 + r + 1))
                wired = WiredBand.from_graph(g, subset)
                params = wired.params()
                env = factored(params, full.beta[0][[v - 1 for v in subset]])
                bundle = green_bundle(wired, env, subset, gamma[0])
                core = slice(bundle.position(3), bundle.position(5) + 1)
                block = solved_hat_g(bundle)[core, core]
                if prev is not None:
                    assert (block >= prev - 1e-12).all()
                prev = block

    def test_martingale_functional_across_levels(self):
        # E exp(-<lam, psi> - lam' Ghat lam / 2) agrees between nested volumes
        # for lam supported on the smaller one
        g = build_lattice_box(1, 4)
        keep_big = [1, 2, 3, 4, 5, 6, 7]
        keep_small = [2, 3, 4, 5, 6]
        rng = stream(91, "mart")
        n = 20_000
        beta = wired_beta_envs(g, keep_big, n, rng)[0].beta
        lam_small = np.array([0.0, 0.4, 0.9, 0.2, 0.0])
        lam_big = np.array([0.0] + list(lam_small) + [0.0])

        def functional(keep, lam, beta_cols):
            w = g.weight_matrix()[np.ix_(keep, keep)]
            comp = [v for v in range(g.n) if v not in keep]
            eta = g.weight_matrix()[np.ix_(keep, comp)].sum(axis=1)
            m = len(keep)
            h = np.broadcast_to(-w, (n, m, m)).copy()
            idx = np.arange(m)
            h[:, idx, idx] += 2.0 * beta_cols
            hat = np.linalg.inv(h)
            psi = hat @ eta
            quad = np.einsum("i,nij,j->n", lam, hat, lam)
            return np.exp(-(psi @ lam) - 0.5 * quad)

        big = functional(keep_big, lam_big, beta)
        small = functional(keep_small, lam_small, beta[:, 1:6])
        gap = abs(big.mean() - small.mean())
        assert gap <= SE_RULE * np.hypot(se(big), se(small))

    def test_psi_is_a_martingale_over_nested_boxes(self):
        # E[psi_5x5(0) | beta on the 3x3 core] = psi_3x3(0), with both boxes
        # wired in the 7x7 box. Given the core, the ring's field follows the
        # same law with the core Schur-complemented out of (P, eta).
        g = build_lattice_box(2, 3)
        v2 = [v for v in range(g.n) if np.abs(g.coords[v]).max() <= 2]
        v1 = [v for v in range(g.n) if np.abs(g.coords[v]).max() <= 1]
        core = [v2.index(v) for v in v1]
        ring = [k for k in range(len(v2)) if k not in core]
        params1 = WiredBand.from_graph(g, v1).params()
        params2 = WiredBand.from_graph(g, v2).params()
        origin = len(v1) // 2
        rng = stream(11, "psi-martingale")
        n, chunk = 20_000, 5_000
        zs = []
        for b in sample_batch(params1, 4, rng).beta:
            cond = params2
            for k, site in enumerate(core):
                # the core's k earlier sites are gone, and they all sat below
                at = site - k
                cond = schur_step(cond, at, 2.0 * b[k] - cond.p[at, at])
            # P_RR + P_RU H_U^-1 P_UR and eta_R + P_RU H_U^-1 eta_U
            p_ru = params2.p[np.ix_(ring, core)]
            sol = np.linalg.solve(
                h_beta(params2.p[np.ix_(core, core)], b),
                np.column_stack([p_ru.T, params2.eta[core]]),
            )
            np.testing.assert_allclose(
                cond.p, params2.p[np.ix_(ring, ring)] + p_ru @ sol[:, :-1], rtol=1e-12
            )
            np.testing.assert_allclose(
                cond.eta, params2.eta[ring] + p_ru @ sol[:, -1], rtol=1e-12
            )
            beta2 = np.empty((chunk, len(v2)))
            beta2[:, core] = b
            psi0 = []
            for _ in range(n // chunk):
                beta2[:, ring] = sample_batch(cond, chunk, rng).beta
                psi = green_solve(params2.p, beta2, params2.eta)
                psi0.append(psi[:, core[origin]])
            target = green_solve(params1.p, b, params1.eta)[origin]
            zs.append(zscore(np.concatenate(psi0), target))
        assert max(zs) <= SE_RULE, zs

    def test_psi_covariance_matches_mean_hat_green(self):
        g = build_lattice_box(1, 2)
        keep = [1, 2, 3]
        rng = stream(91, "qv")
        n = 20_000
        beta = wired_beta_envs(g, keep, n, rng)[0].beta
        w = g.weight_matrix()[np.ix_(keep, keep)]
        eta = np.array([1.0, 0.0, 1.0])
        h = np.broadcast_to(-w, (n, 3, 3)).copy()
        idx = np.arange(3)
        h[:, idx, idx] += 2.0 * beta
        hat = np.linalg.inv(h)
        psi = hat @ eta
        for i, j in ((0, 0), (0, 1), (1, 2)):
            prod = (psi[:, i] - psi[:, i].mean()) * (psi[:, j] - psi[:, j].mean())
            gap = abs(prod.mean() - hat[:, i, j].mean())
            assert gap <= SE_RULE * np.hypot(se(prod), se(hat[:, i, j]))


class TestUFieldFullGraph:
    def test_root_zero_and_green_ratio(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 2.0)))
        beta = np.array([1.2, 2.0, 2.4])
        u = u_field(g, beta, 1)
        assert u[1] == 0.0
        green = np.linalg.inv(assemble_H(g, beta))
        assert np.allclose(u, np.log(green[1] / green[1, 1]), atol=1e-12)
