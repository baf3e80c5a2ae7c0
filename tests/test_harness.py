"""Replica execution, statistical tests, the diffusion estimator, and the
desk-scale experiments."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import vrjp
from vrjp import (
    CoverageError,
    DomainError,
    NuParams,
    PreconditionError,
    SizeError,
    TestError,
    Trajectory,
    WeightedGraph,
    build_lattice_box,
    conductance_ratio_experiment,
    cosh_moment_experiment,
    green_solve_banded,
    psi_decay_experiment,
    sample_banded,
    sample_batch,
    srw_endpoints,
    stream,
    vrjp_diffusion_experiment,
    word_chi2,
)
from vrjp.harness import (
    RATIO_BLOCK,
    SRW_BLOCK_PICKS,
    _kolmogorov_sf,
    _ratio_batched,
    _rooted_u_samples,
    ks_1samp,
)
from vrjp.verify import (
    FULL,
    QUICK,
    _half_gamma_cdf,
    _inverse_gaussian_cdf,
    criterion_12,
)

from _oracles import (
    ALPHA,
    SE_RULE,
    NoDraws,
    band_diagonals,
    banded_coupling,
    diffusion_estimate,
    ks_test,
    reference_conductance_ratio,
    ring_graph,
    rooted_pair_cdf,
    run_replicas,
    se,
    srw_paths,
)


class TestRunReplicas:
    def test_constant_task(self):
        report = run_replicas(lambda rng: 2.5, 50, seed=0)
        assert report.mean == 2.5 and report.stderr == 0.0 and report.n == 50

    def test_uniform_mean(self):
        report = run_replicas(lambda rng: float(rng.random()), 100_000, seed=1)
        assert abs(report.mean - 0.5) <= SE_RULE * report.stderr
        assert 0.2 < report.extra["q25"] < 0.3
        assert 0.7 < report.extra["q75"] < 0.8

    def test_failure_carries_replica_index(self):
        def bad(rng):
            raise ValueError("boom")

        with pytest.raises(RuntimeError, match="replica 0 failed"):
            run_replicas(bad, 3, seed=0)

    def test_needs_at_least_one_replica(self):
        with pytest.raises(DomainError):
            run_replicas(lambda rng: 0.0, 0, seed=0)


class TestKsTest:
    def test_calibration_over_seeds(self):
        passed = 0
        for s in range(100):
            samples = stream(s, "ks-cal").normal(0.0, 1.0, size=1500)
            _stat, p = ks_test(samples, stats.norm.cdf)
            passed += p > ALPHA
        assert passed >= 98

    def test_power_against_mean_shift(self):
        samples = stream(0, "ks-shift").normal(0.05, 1.0, size=100_000)
        _stat, p = ks_test(samples, stats.norm.cdf)
        assert p < ALPHA

    def test_degenerate_inputs(self):
        with pytest.raises(TestError):
            ks_test(np.zeros(999), stats.norm.cdf)
        bad = np.zeros(2000)
        bad[0] = np.inf
        with pytest.raises(TestError):
            ks_test(bad, stats.norm.cdf)


def _sf_branch(n, x):
    """The branch of _kolmogorov_sf that P(D_n > x) takes, for n > 140."""
    t, nxx = n * x, n * x * x
    if t <= 0.5:
        return "below-support"
    if t <= 1.0:
        return "ruben-gambino-low"
    if t >= n - 1:
        return "ruben-gambino-high"
    if x >= 0.5:
        return "smirnov-exact"
    if nxx >= 370.0:
        return "zero"
    if nxx >= 2.2:
        return "smirnov"
    if n <= 100000 and n * x**1.5 <= 1.4:
        return "durbin"
    return "pelz-good"


# sample sizes on both sides of every cutoff of the method choice: 140
# (the small-n rules), 100,000 (Durbin's matrix), and the gate's chunk and
# full sizes
KS_SIZES = (141, 20_000, 25_000, 100_000, 100_001, 400_000)


def _ks_grid(n, points=20):
    return np.geomspace(0.4 / n, 0.999, points)


class TestKs1samp:
    """ks_1samp against scipy.stats, which the package no longer imports."""

    def test_grid_crosses_every_branch(self):
        seen = {_sf_branch(n, float(x)) for n in KS_SIZES for x in _ks_grid(n)}
        assert seen == {
            "below-support",
            "ruben-gambino-low",
            "ruben-gambino-high",
            "smirnov-exact",
            "zero",
            "smirnov",
            "durbin",
            "pelz-good",
        }

    @pytest.mark.parametrize("n", KS_SIZES)
    def test_p_is_kstwo_sf_bit_for_bit(self, n):
        for x in _ks_grid(n):
            want = float(stats.kstwo.sf(x, n))
            assert _kolmogorov_sf(n, float(x)) == want, (n, x, _sf_branch(n, x))

    def test_p_matches_kstwo_sf_at_small_n(self):
        # below 141 samples scipy takes Pomeranz's recursion where this
        # takes Durbin's matrix; both are exact
        for n in range(1, 141):
            for x in _ks_grid(n):
                want = float(stats.kstwo.sf(x, n))
                assert abs(_kolmogorov_sf(n, float(x)) - want) <= 1e-13, (n, x)

    @pytest.mark.parametrize("shift", [0.0, 0.003, 0.02])
    @pytest.mark.parametrize("n", [500, 25_000, 100_000])
    def test_is_kstest_on_gamma_and_wald_samples(self, n, shift):
        rng = stream(n, "ks-oracle", str(shift))
        half_gamma = rng.gamma(0.5, size=n) + shift
        want = stats.kstest(half_gamma, lambda x: stats.gamma.cdf(x, 0.5))
        got = ks_1samp(half_gamma, _half_gamma_cdf)
        assert got == (float(want.statistic), float(want.pvalue))
        wald = rng.wald(1.0 / 3.0, 1.0, size=n) + shift
        want = stats.kstest(wald, lambda x: stats.invgauss.cdf(x, 1.0 / 3.0))
        got = ks_1samp(wald, lambda x: _inverse_gaussian_cdf(x, 1.0 / 3.0))
        assert got == (float(want.statistic), float(want.pvalue))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_reads_nan(self, bad):
        samples = stream(9, "ks-nan").gamma(0.5, size=120_000)
        samples[7] = bad
        stat, p = ks_1samp(samples, _half_gamma_cdf)
        assert np.isnan(stat) and np.isnan(p)

    def test_a_nan_statistic_reads_nan(self):
        assert np.isnan(_kolmogorov_sf(400_000, float("nan")))

    @pytest.mark.parametrize("mean", [1.0 / 3.0, 0.5, 2.0])
    def test_inverse_gaussian_cdf_is_scipys(self, mean):
        x = np.concatenate(
            [
                [-np.inf, -2.0, -0.0, 0.0, 5e-324, 1e-10, 1e300, np.inf, np.nan],
                stream(1, "ig-cdf").wald(mean, 1.0, size=50_000),
            ]
        )
        want = stats.invgauss.cdf(x, mean, scale=1.0)
        assert np.array_equal(_inverse_gaussian_cdf(x, mean), want, equal_nan=True)

    def test_half_gamma_cdf_is_scipys(self):
        x = np.concatenate(
            [
                [-np.inf, -2.0, -0.0, 0.0, 5e-324, 1e-10, 1e300, np.inf, np.nan],
                stream(1, "gamma-cdf").gamma(0.5, size=50_000),
            ]
        )
        want = stats.gamma.cdf(x, 0.5)
        assert np.array_equal(_half_gamma_cdf(x), want, equal_nan=True)


class TestWordChi2:
    def test_identical_streams(self):
        words = stream(0, "words").integers(0, 3, size=(5_000, 3))
        assert word_chi2(words, words.copy()) == 1.0

    def test_same_law_accepts(self):
        rng = stream(1, "same-law")
        a = rng.integers(0, 3, size=(20_000, 3))
        b = rng.integers(0, 3, size=(20_000, 3))
        assert word_chi2(a, b) > ALPHA

    def test_different_law_rejects(self):
        rng = stream(2, "diff-law")
        a = rng.integers(0, 2, size=(5_000, 2))
        b = (rng.random(size=(5_000, 2)) < 0.6).astype(int)
        assert word_chi2(a, b) < ALPHA

    def test_degenerate_inputs(self):
        rng = stream(3, "degen")
        flat = rng.integers(0, 2, size=2000)
        with pytest.raises(TestError):
            word_chi2(flat, flat)
        small = rng.integers(0, 2, size=(500, 2))
        with pytest.raises(TestError):
            word_chi2(small, small)
        ones = np.ones((2_000, 2), dtype=int)
        with pytest.raises(TestError):
            word_chi2(ones, ones)  # single occupied cell


class TestDiffusionEstimate:
    def test_simple_random_walk_calibration(self):
        paths = srw_paths(2, 10_000, 1_000, stream(4, "srw"))
        report = diffusion_estimate(paths)
        assert abs(report.mean - 1.0) <= 0.02
        assert report.extra["flag"] == "diffusive"
        assert report.extra["sigma2"][-1] * 2 == pytest.approx(report.mean)

    def test_straight_line_is_superdiffusive(self):
        t = np.arange(65)
        paths = np.zeros((10, 65, 2), dtype=int)
        paths[:, :, 0] = t
        report = diffusion_estimate(paths)
        assert report.extra["flag"] == "superdiffusive"

    def test_lazy_walk_is_degenerate(self):
        paths = np.zeros((10, 65, 2), dtype=int)
        report = diffusion_estimate(paths)
        assert report.mean == 0.0
        assert report.extra["flag"] == "degenerate"

    def test_all_walks_on_boundary(self):
        paths = np.ones((5, 10, 2), dtype=int)
        with pytest.raises(CoverageError):
            diffusion_estimate(paths, radius=1)

    def test_discard_rate_reported(self):
        paths = np.zeros((10, 33, 2), dtype=int)
        paths[:5, -1, 0] = 50  # these five touch the boundary
        report = diffusion_estimate(paths, radius=10)
        assert report.extra["discard_rate"] == 0.5
        assert report.extra["kept"] == 5

    def test_trajectory_input_uses_graph_coordinates(self):
        g = build_lattice_box(2, 2)
        center = (g.n - 1) // 2
        verts = [center, center + 1, center, center - 1, center]
        trajs = [Trajectory(vertices=verts) for _ in range(3)]
        report = diffusion_estimate(trajs, g=g, ladder=[4])
        assert report.mean == 0.0  # every walk ends where it started
        with pytest.raises(DomainError):
            diffusion_estimate(
                [Trajectory(vertices=[0, 1]), Trajectory(vertices=[0, 1, 0])], g=g
            )
        with pytest.raises(DomainError):
            diffusion_estimate(trajs, g=WeightedGraph(n=2, edges=((0, 1, 1.0),)))

    def test_ladder_validation(self):
        paths = np.zeros((4, 9, 2), dtype=int)
        with pytest.raises(DomainError):
            diffusion_estimate(paths, ladder=[0, 4])
        with pytest.raises(DomainError):
            diffusion_estimate(paths, ladder=[4, 99])


class TestSrwEndpoints:
    """The blocked endpoint kernel against the full-path oracle: the same
    endpoints, and the generator left in the same state."""

    @pytest.mark.parametrize(
        "dim,n_walks,length",
        [
            (2, 2_501, 1_000),  # a short last block
            (2, 3, SRW_BLOCK_PICKS + 7),  # one walk per block
            (2, 400, 1),
            (1, 600, 300),
            (3, 600, 300),
        ],
    )
    def test_equals_last_point_of_the_paths(self, dim, n_walks, length):
        rng_a, rng_b = stream(11, "srw-ends"), stream(11, "srw-ends")
        ends = srw_endpoints(dim, n_walks, length, rng_a)
        paths = srw_paths(dim, n_walks, length, rng_b)
        assert ends.dtype == np.int64 and ends.shape == (n_walks, dim)
        assert np.array_equal(ends, paths[:, -1])
        assert rng_a.random() == rng_b.random()

    def test_refuses_a_block_beyond_memory_before_drawing(self):
        with pytest.raises(SizeError):
            srw_endpoints(2, 1, 10**13, NoDraws())

    @pytest.mark.parametrize("args", [(0, 5, 5), (2, 0, 5), (2, 5, 0)])
    def test_refuses_empty_shapes(self, args):
        with pytest.raises(DomainError):
            srw_endpoints(*args, NoDraws())

    def test_criterion_12_mean_equals_the_diffusion_estimate(self):
        n, walks = QUICK.len_c12, QUICK.walks_c12
        ends = srw_endpoints(2, walks, n, stream(7, "c12"))
        mean = float(((ends.astype(float) ** 2).sum(axis=1) / float(n)).mean())
        report = diffusion_estimate(srw_paths(2, walks, n, stream(7, "c12")))
        assert mean == report.mean
        assert criterion_12(QUICK, 7).detail.startswith(
            f"E|X_n|^2/n = {report.mean:.4f} "
        )


class TestPsiDecayExperiment:
    def test_single_radius_plain_report(self):
        rows = psi_decay_experiment(2, 0.5, [2], n_samples=16, seed=5)
        assert len(rows) == 1
        row = rows[0]
        assert row["radius"] == 2.0 and row["n"] == 16.0
        assert 0.0 < row["q25"] <= row["median"] <= row["q75"]

    def test_radii_must_increase(self):
        with pytest.raises(DomainError):
            psi_decay_experiment(2, 0.5, [4, 2], n_samples=4, seed=0)

    def test_refuses_no_samples_before_drawing(self, monkeypatch):
        # no draw, no quantile: refused, not an IndexError from np.quantile
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        with pytest.raises(DomainError, match="at least 1"):
            psi_decay_experiment(2, 0.5, [2], n_samples=0, seed=0)

    @pytest.mark.parametrize("dim,w,radii", [(2, 0.2, [1, 3]), (3, 10.0, [1, 2])])
    def test_box_from_its_geometry_keeps_the_graph_routes_bits(
        self, monkeypatch, dim, w, radii
    ):
        # the graph route: each radius box built as a graph, its band, eta
        # the degree deficit, the centre site (n - 1) // 2
        want = []
        for r_i, radius in enumerate(radii):
            g = build_lattice_box(dim, radius, w)
            band = band_diagonals(banded_coupling(g)[0])
            eta = w * (2 * dim - np.array([len(nb) for nb in g.neighbors], float))
            rng = vrjp.stream(9, "psi-decay", r_i)
            want.append(
                [
                    green_solve_banded(sample_banded(band, eta, rng), eta)[(g.n - 1) // 2]
                    for _ in range(3)
                ]
            )

        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built on the band path")

        monkeypatch.setattr(vrjp.graphs.WeightedGraph, "__post_init__", no_graph)
        rows = psi_decay_experiment(dim, w, radii, n_samples=3, seed=9)
        for row, vals in zip(rows, want):
            q = np.quantile(vals, [0.25, 0.5, 0.75])
            assert [row["q25"], row["median"], row["q75"]] == q.tolist()

    def test_refuses_a_box_beyond_the_vertex_limit_before_drawing(self, monkeypatch):
        # the outer box of radius 71 has 143^3 > MAX_VERTICES vertices
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        with pytest.raises(SizeError):
            psi_decay_experiment(3, 1.0, [70], n_samples=1, seed=0)


class TestRootedFieldSamples:
    def test_root_column_is_zero_and_law_matches_density(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        u = _rooted_u_samples(g, 0, 100_000, stream(6, "rooted"))
        assert (u[:, 0] == 0.0).all()
        cdf = rooted_pair_cdf(1.0)
        _stat, p = ks_test(u[:, 1], cdf)
        assert p > ALPHA

    def test_exponential_mean_is_one(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)))
        u = _rooted_u_samples(g, 1, 50_000, stream(6, "mart"))
        vals = np.exp(u[:, [0, 2]])
        for col in vals.T:
            gap = abs(col.mean() - 1.0)
            assert gap <= SE_RULE * se(col)


class TestCoshMomentExperiment:
    def test_coincident_sites(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        report = cosh_moment_experiment(g, 0, 1, 1, eta=0.5, n_samples=100)
        assert report.mean == 1.0 and report.stderr == 0.0
        assert report.extra["bound"] == 1.0 and report.extra["k"] == 0.0

    def test_single_hop_bound(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        report = cosh_moment_experiment(g, 0, 0, 1, eta=0.5, n_samples=20_000, seed=3)
        assert report.extra["bound"] == pytest.approx(np.sqrt(2.0))
        assert report.mean <= report.extra["bound"] + SE_RULE * report.stderr

    def test_two_hop_bound(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        report = cosh_moment_experiment(g, 0, 0, 2, eta=0.5, n_samples=20_000, seed=3)
        assert report.extra["k"] == 2.0
        assert report.mean <= 2.0 + SE_RULE * report.stderr

    def test_weight_guard(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(PreconditionError):
            cosh_moment_experiment(g, 0, 0, 1, eta=0.6, n_samples=10)
        with pytest.raises(DomainError):
            cosh_moment_experiment(g, 0, 0, 1, eta=0.0, n_samples=10)

    @pytest.mark.parametrize("n", [0, 1])
    def test_refuses_fewer_than_two_samples_before_drawing(self, monkeypatch, n):
        # one sample has no standard error and none has no mean
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(DomainError, match="at least 2"):
            cosh_moment_experiment(g, 0, 0, 1, eta=0.5, n_samples=n)


class TestConductanceRatioExperiment:
    def test_zero_separation_is_unity(self):
        reports = conductance_ratio_experiment(1.0, [0], n_samples=25, seed=7)
        assert reports[0].mean == 1.0 and reports[0].stderr == 0.0

    def test_positive_and_finite(self):
        reports = conductance_ratio_experiment(1.0, [2], n_samples=25, seed=7)
        assert 0.0 < reports[0].mean < 2.0
        assert np.isfinite(reports[0].stderr)

    def test_separation_validation(self):
        with pytest.raises(DomainError):
            conductance_ratio_experiment(1.0, [3], n_samples=4, seed=0)
        with pytest.raises(DomainError):
            conductance_ratio_experiment(1.0, [-2], n_samples=4, seed=0)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_matches_dense_reference(self, seed):
        # the blocks draw the same variates in the same order as the dense
        # loops, by the route the rule gives each block; only the rounding
        # differs. 10 samples are a batched block at l = 2 (bw 9) and a band
        # block at l = 4 (bw 11)
        reports = conductance_ratio_experiment(1.0, (2, 4), n_samples=10, seed=seed)
        want = reference_conductance_ratio(1.0, (2, 4), 10, seed)
        np.testing.assert_allclose(
            [(r.mean, r.stderr) for r in reports], want, rtol=1e-12, atol=0.0
        )

    # (ells, samples, dim): 3 samples are band blocks at d = 2; 130 are a
    # batched block of RATIO_BLOCK and a band block of 2; d = 3 is band
    @pytest.mark.parametrize(
        "ells, n, dim",
        [((2,), 3, 2), ((2,), 130, 2), ((2,), 2, 3)],
        ids=["band", "two-blocks", "d3-band"],
    )
    @pytest.mark.parametrize("seed", [7, 8])
    def test_matches_dense_reference_on_every_route(self, seed, ells, n, dim):
        reports = conductance_ratio_experiment(1.0, ells, n, seed, dim=dim)
        want = reference_conductance_ratio(1.0, ells, n, seed, dim=dim)
        np.testing.assert_allclose(
            [(r.mean, r.stderr) for r in reports], want, rtol=1e-12, atol=0.0
        )

    def test_routes_are_on_both_sides_of_the_rule(self):
        # the configurations above: bw 9 and 11 at S = 10, 3, 128 and 2
        assert _ratio_batched(9, 10) and not _ratio_batched(11, 10)
        assert not _ratio_batched(9, 3)
        assert _ratio_batched(9, RATIO_BLOCK) and not _ratio_batched(9, 2)
        assert not _ratio_batched(81, 2)

    def test_never_runs_the_dense_sampler(self, monkeypatch):
        # psi decay never runs the batch elimination, and the ratio's batch
        # route eliminates each block on rows of width bw + 1 (10 at l = 2,
        # 12 at l = 4), never on the dense width n (81, 121)
        def dense(*args, **kwargs):
            raise AssertionError("batch elimination in psi decay")

        loop = vrjp.betafield._schur_loop
        monkeypatch.setattr(vrjp.betafield, "_schur_loop", dense)
        rows = psi_decay_experiment(2, 0.2, [2], n_samples=4, seed=7)
        assert np.isfinite(rows[0]["median"])

        shapes = []

        def counted(st, ew, rng):
            shapes.append(st.shape)
            return loop(st, ew, rng)

        monkeypatch.setattr(vrjp.betafield, "_schur_loop", counted)
        reports = conductance_ratio_experiment(1.0, [2, 4], n_samples=20, seed=7)
        assert all(np.isfinite(r.mean) for r in reports)
        assert shapes == [(81, 10, 20), (121, 12, 20)]

    @staticmethod
    def routes(monkeypatch, *args, **kwargs):
        """The routes the blocks of one ratio run take, in order: 'batch'
        with its block size, or 'band' once per environment."""
        taken = []
        harness = vrjp.harness
        rows, banded = harness._sample_rows, harness.sample_banded

        def batch(st, ew, p_diag, rng):
            taken.append(("batch", st.shape[2]))
            return rows(st, ew, p_diag, rng)

        def band(*a, **k):
            taken.append("band")
            return banded(*a, **k)

        monkeypatch.setattr(harness, "_sample_rows", batch)
        monkeypatch.setattr(harness, "sample_banded", band)
        conductance_ratio_experiment(*args, **kwargs)
        return taken

    @pytest.mark.parametrize(
        "ells, n",
        [((2, 4, 8), 40), (FULL.cr_ells, FULL.cr_n), (QUICK.cr_ells, QUICK.cr_n)],
        ids=["per-env", "c13-full", "c13-quick"],
    )
    def test_benchmark_and_gate_blocks_take_the_batch(self, monkeypatch, ells, n):
        taken = self.routes(monkeypatch, 1.0, ells, n, 7)
        assert taken == [("batch", n)] * len(ells)

    def test_small_blocks_and_every_d3_box_take_the_band_draw(self, monkeypatch):
        assert self.routes(monkeypatch, 1.0, [2], 3, 7) == ["band"] * 3
        assert self.routes(monkeypatch, 1.0, [0], 3, 7, dim=3) == ["band"] * 3
        # the narrowest d = 3 ratio box, l = 0, has bw 49; no block size
        # batches it or anything wider
        for bw in (49, 81, 121, 169):
            assert not any(_ratio_batched(bw, s) for s in range(1, RATIO_BLOCK + 1))

    def test_a_block_past_the_last_is_routed_on_its_own_size(self, monkeypatch):
        taken = self.routes(monkeypatch, 1.0, [2], RATIO_BLOCK + 2, 7)
        assert taken == [("batch", RATIO_BLOCK), "band", "band"]

    def test_gamma_block_is_the_scalar_draws(self):
        got = stream(7, "conductance-ratio-gamma", 0).gamma(0.5, 1.0, size=100)
        rng = stream(7, "conductance-ratio-gamma", 0)
        want = [rng.gamma(0.5, 1.0) for _ in range(100)]
        np.testing.assert_array_equal(got, want)

    def test_draws_no_weight_that_nothing_reads(self, monkeypatch):
        # one Gamma weight per edge with an end in the retained box: 180 of
        # the 220 edges of the 11 x 11 box at l = 2
        sizes = []
        harness = vrjp.harness
        real = harness.stream

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def gamma(self, shape, scale, size=None):
                sizes.append(size)
                return self.rng.gamma(shape, scale, size=size)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(harness, "stream", lambda *key: Counted(real(*key)))
        conductance_ratio_experiment(1.0, [2], n_samples=20, seed=7)
        assert sizes == [(20, 180), 20]

    def test_refuses_a_block_beyond_memory_before_drawing(self, monkeypatch):
        # 256 pages hold the l = 8 box's edge arrays (74 KB) but not a block
        # of 100 environments on its 225 sites (about 5.6 MB)
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        sysconf = os.sysconf
        fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        with pytest.raises(SizeError, match="conductance-ratio block on 225 sites"):
            conductance_ratio_experiment(1.0, [8], n_samples=100, seed=7)

    def test_refused_size_covers_what_a_block_holds(self, monkeypatch):
        # the count the refusal is asked about bounds a batched block's
        # traced peak, the box's edge arrays and the reports included
        n = 100
        asked = []
        refuse = vrjp.harness._refuse_beyond_memory

        def counted(need, what):
            if "conductance-ratio block" in what:
                asked.append(need)
            return refuse(need, what)

        monkeypatch.setattr(vrjp.harness, "_refuse_beyond_memory", counted)
        conductance_ratio_experiment(1.0, [8], n_samples=n, seed=7)
        tracemalloc.start()
        try:
            conductance_ratio_experiment(1.0, [8], n_samples=n, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(asked) == 2
        assert peak <= asked[1]

    @pytest.mark.parametrize("a", [np.nan, np.inf, 0.0])
    def test_refuses_unusable_shape_before_drawing(self, monkeypatch, a):
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        with pytest.raises(DomainError):
            conductance_ratio_experiment(a, [2], n_samples=3, seed=7)

    @pytest.mark.parametrize("n", [0, 1])
    def test_refuses_fewer_than_two_samples_before_drawing(self, monkeypatch, n):
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        with pytest.raises(DomainError, match="at least 2"):
            conductance_ratio_experiment(1.0, [2], n_samples=n, seed=7)


class TestStationarity:
    def test_field_is_exchangeable_on_a_ring(self):
        # 1-d torus: every site sees the same environment, so site marginals
        # coincide; compare first and second moments pairwise against site 0
        g = ring_graph(6, w=1.0)
        params = NuParams.from_graph(g, eta=1.0)
        beta = sample_batch(params, 20_000, stream(8, "ring")).beta
        for k in range(1, 6):
            d1 = beta[:, 0] - beta[:, k]
            d2 = beta[:, 0] ** 2 - beta[:, k] ** 2
            assert abs(d1.mean()) <= SE_RULE * se(d1)
            assert abs(d2.mean()) <= SE_RULE * se(d2)


class TestVrjpDiffusionExperiment:
    def test_report_structure_and_growth(self):
        out = vrjp_diffusion_experiment(2, 1.0, n_jumps=400, n_walks=40, seed=9)
        assert len(out["t_grid"]) == 4 and len(out["msd"]) == 4
        assert out["t_grid"] == sorted(out["t_grid"])
        assert all(np.isfinite(out["msd"]))
        assert out["isotropy"] >= 1.0
        assert out["n_walks"] == 40

    def test_refuses_no_walks_before_walking(self, monkeypatch):
        # a usage error, not the CoverageError of an empty median
        monkeypatch.setattr(vrjp.harness, "stream", lambda *key: NoDraws())
        with pytest.raises(DomainError, match="at least 1"):
            vrjp_diffusion_experiment(2, 1.0, n_jumps=400, n_walks=0, seed=9)
