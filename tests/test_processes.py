"""Reinforced walks and their D clock, environment-fixed chains,
conditioned chains, and escape probabilities."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from vrjp import (
    AbsorptionReport,
    DomainError,
    NumericError,
    QuenchedRates,
    SizeError,
    Trajectory,
    WeightedGraph,
    WiredBand,
    build_lattice_box,
    errw_words,
    escape_probability_formula,
    green_bundle,
    green_solve_banded,
    markov_words,
    mc_return_probability,
    quenched_mjp,
    sample_banded,
    sample_batch,
    simulate_errw,
    simulate_vrjp,
    simulate_vrjp_lattice,
    stream,
    vrjp_words,
)
from vrjp import processes
from vrjp.harness import word_chi2
from vrjp.schrodinger import _kernel_row

from _oracles import (
    ALPHA,
    SE_RULE,
    WALK_CHUNK,
    ConditioningError,
    LargestUniform,
    NoDraws,
    dense_kernel,
    dense_rates,
    dense_tables,
    edge_weight,
    factored,
    full_kernel,
    h_transform_rates,
    read_dense,
    reference_quenched_chain,
    reference_simulate_vrjp,
    reference_vrjp_lattice,
    se,
    solved_hat_g,
    time_change_maps,
    wired_w,
    zscore,
)


def single_vertex():
    return WeightedGraph(n=1, edges=())


def pair():
    return WeightedGraph(n=2, edges=((0, 1, 1.0),))


def triangle(w=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))):
    return WeightedGraph(n=3, edges=w)


def wheel(n, w=1.0):
    """A hub, vertex 0, joined to every vertex of an n-cycle 1..n, with hub
    weights 0.5 + 0.01 k."""
    spokes = [(0, k, 0.5 + 0.01 * k) for k in range(1, n + 1)]
    rim = [(k, k + 1, w) for k in range(1, n)] + [(1, n, w)]
    return WeightedGraph(n=n + 1, edges=tuple(spokes + rim))


def wired_env(g, subset, rng, i0=None):
    """One field draw plus coupling on the retained set of g."""
    wired = WiredBand.from_graph(g, subset)
    params = wired.params()
    sample = sample_batch(params, 1, rng)
    gamma = float(rng.gamma(0.5, 1.0))
    return green_bundle(wired, sample, subset, gamma, i0=i0)


def wired_box_env(dim, radius, w, rng, i0):
    """One band draw plus coupling on the wired box of `radius` in Z^dim,
    with the retained sites labelled by their row-major position."""
    wired = WiredBand.box(dim, radius, w)
    band, eta = wired.fill()
    sample = sample_banded(band, eta, rng)
    gamma = float(rng.gamma(0.5, 1.0))
    return green_bundle(wired, sample, range(wired.n), gamma, i0=i0)


class TestTrajectory:
    def test_time_validation(self):
        with pytest.raises(DomainError):
            Trajectory(vertices=[0, 1], times=[0.0, 0.0])
        with pytest.raises(DomainError):
            Trajectory(vertices=[0, 1], times=[0.0])

    @pytest.mark.parametrize(
        "times, transformed",
        [
            (None, [0.0, 3.0]),  # a D clock needs entry times
            ([0.0, 1.0], [0.0]),
            ([0.0, 1.0], [0.0, 0.0]),
            ([0.0, 1.0], [0.0, -3.0]),
        ],
        ids=["no-times", "short", "flat", "decreasing"],
    )
    def test_transformed_time_validation(self, times, transformed):
        with pytest.raises(DomainError):
            Trajectory(vertices=[0, 1], times=times, transformed_times=transformed)

    def test_transformed_times_are_kept_as_floats(self):
        traj = Trajectory(vertices=[0, 1], times=[0, 1], transformed_times=[0, 3])
        assert traj.transformed_times.dtype == float
        assert traj.transformed_times.tolist() == [0.0, 3.0]


class TestSimulateVrjp:
    def test_single_vertex_accumulates_only_local_time(self):
        # a walk that cannot jump draws nothing
        traj = simulate_vrjp(single_vertex(), 0, horizon=2.5, rng=NoDraws())
        assert traj.vertices.tolist() == [0]
        assert traj.local_times[0] == pytest.approx(3.5, rel=1e-12)

    def test_first_wait_is_unit_exponential(self):
        # wait ~ Exp(1) while both local times are fresh; the run stops at the
        # horizon, so compare against the conditional law given a jump
        h = 0.4
        rng = stream(1, "wait")
        waits = []
        for _ in range(100_000):
            traj = simulate_vrjp(pair(), 0, horizon=h, rng=rng)
            if len(traj.vertices) > 1:
                waits.append(traj.times[1])
        waits = np.array(waits)
        assert waits.size > 1_000

        def cond_cdf(x):
            return np.clip((1.0 - np.exp(-x)) / (1.0 - np.exp(-h)), 0.0, 1.0)

        stat, p = stats.kstest(waits, cond_cdf)
        assert p > ALPHA

    def test_first_jump_targets_follow_weights(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 2.0)))
        rng = stream(1, "star")
        hits = np.zeros(3)
        n = 30_000
        for _ in range(n):
            traj = simulate_vrjp(g, 0, horizon=1.0, rng=rng)
            if len(traj.vertices) > 1:
                hits[traj.vertices[1]] += 1
        total = hits.sum()
        for target, p in ((1, 1.0 / 3.0), (2, 2.0 / 3.0)):
            phat = hits[target] / total
            assert abs(phat - p) <= SE_RULE * np.sqrt(p * (1.0 - p) / total)

    def test_local_times_sum_to_horizon_plus_one_each(self):
        g = triangle()
        traj = simulate_vrjp(g, 0, horizon=3.0, rng=stream(1, "lt"))
        assert traj.local_times.sum() == pytest.approx(g.n + 3.0, rel=1e-12)
        assert (traj.local_times >= 1.0).all()

    def test_errors(self):
        with pytest.raises(DomainError):
            simulate_vrjp(pair(), 0, horizon=0.0, rng=stream(0))
        with pytest.raises(DomainError):
            simulate_vrjp(pair(), 5, horizon=1.0, rng=stream(0))

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_refuses_nonfinite_horizon(self, horizon):
        with pytest.raises(DomainError):
            simulate_vrjp(pair(), 0, horizon=horizon, rng=NoDraws())

    @pytest.mark.parametrize(
        "g, i0, horizon, seed",
        [
            # the box and horizon of `vrjp simulate --process vrjp` in the
            # benchmark: about 81,000 jumps, so the walk crosses 19 chunks
            # of variates and stops at the horizon inside the 20th
            (build_lattice_box(2, 10), 0, 3000.0, ("cli-simulate", "vrjp")),
            # degree 9 puts rates.sum() on numpy's pairwise path, so only
            # neighbor rows of the same order and length give the same bits
            (
                WeightedGraph(
                    n=10,
                    edges=tuple(
                        (i, j, 0.5 + 0.1 * (i + j))
                        for i in range(10)
                        for j in range(i + 1, 10)
                    ),
                ),
                3,
                50.0,
                ("k10",),
            ),
            # a hub of degree 200 takes numpy's pairwise sum into its
            # recursive blocks of 128 and more
            (wheel(200), 0, 400.0, ("wheel",)),
        ],
        ids=["box-d2-r10", "complete-10", "wheel-200"],
    )
    def test_matches_reference_loop(self, g, i0, horizon, seed):
        r_walk, r_ref = stream(1, *seed), stream(1, *seed)
        traj = simulate_vrjp(g, i0, horizon, r_walk)
        verts, times, local = reference_simulate_vrjp(g, i0, horizon, r_ref)
        assert traj.vertices.size > 1000
        assert np.array_equal(traj.vertices, verts)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.local_times, local)
        # the walk drew the same chunks, and dropped the rest of its last
        assert np.array_equal(r_walk.random(4), r_ref.random(4))

    def test_stops_inside_a_chunk_at_a_vertex_without_neighbors(self):
        # vertex 1 lists no neighbors: the walk 2 -> 0 -> 1 stops as it
        # enters 1, two jumps into its chunk of 10, and draws no further
        # chunk
        rows = [([1], [1.0]), ([], []), ([0], [1.0])]
        rng, ref = stream(5, "dead-end"), stream(5, "dead-end")
        verts, waits, entered = processes._walk(rows, [1.0] * 3, 2, rng, np.inf, 10)
        assert verts == [2, 0, 1]
        assert waits == ref.standard_exponential(10)[:2].tolist()
        assert entered == [1.0, 1.0]
        ref.random(10)
        assert np.array_equal(rng.random(4), ref.random(4))

    def test_a_uniform_past_the_last_running_sum_takes_the_last_neighbor(self):
        # nine rates of 0.1 sum to 0.9 pairwise but to 0.8999999999999999
        # left to right, so the largest uniform below 1, scaled by the
        # total, passes every running sum: the walk takes the last neighbor
        star = WeightedGraph(n=10, edges=tuple((0, k, 0.1) for k in range(1, 10)))
        traj = simulate_vrjp(star, 0, 100.0, LargestUniform(stream(4, "star")))
        assert traj.vertices.size > 2
        assert (traj.vertices[0::2] == 0).all()
        assert (traj.vertices[1::2] == 9).all()


class TestTimeChange:
    # the D column a continuous walk carries, against the time change as a
    # pair of maps rebuilt from its entry times (tests/_oracles.py)
    def test_pure_holding_is_quadratic(self):
        s = 1.3
        traj = simulate_vrjp(single_vertex(), 0, horizon=s, rng=stream(2, "hold"))
        assert traj.transformed_times.tolist() == [0.0]
        d_map, _ = time_change_maps(traj)
        assert d_map(s) == pytest.approx(s * s + 2.0 * s, rel=1e-12)
        # the first holding begins at local time 1: D(T_1) = T_1^2 + 2 T_1
        traj = simulate_vrjp(pair(), 0, horizon=50.0, rng=stream(2, "hold"))
        t1 = traj.times[1]
        assert traj.transformed_times[1] == pytest.approx(t1 * t1 + 2.0 * t1, rel=1e-12)

    def test_round_trip_identity(self):
        traj = simulate_vrjp(
            triangle(((0, 1, 1.0), (0, 2, 0.5), (1, 2, 2.0))),
            0,
            horizon=5.0,
            rng=stream(2, "rt"),
        )
        d_map, d_inv = time_change_maps(traj)
        t_end = float(d_map(traj.horizon))
        t = np.linspace(0.0, t_end, 701)
        assert np.abs(d_map(d_inv(t)) - t).max() <= 1e-12 * max(1.0, t_end)
        x = np.linspace(0.0, traj.horizon, 701)
        assert np.abs(d_inv(d_map(x)) - x).max() <= 1e-12 * traj.horizon

    def test_jump_chain_preserved_and_times_mapped(self):
        # one D entry per jump of the walk, each D of its entry time
        traj = simulate_vrjp(triangle(), 1, horizon=4.0, rng=stream(2, "skel"))
        assert traj.transformed_times.shape == traj.vertices.shape
        d_map, _ = time_change_maps(traj)
        assert np.allclose(traj.transformed_times, d_map(traj.times), atol=1e-12)
        assert (np.diff(traj.transformed_times) > 0).all()

    @pytest.mark.parametrize(
        "g, i0, horizon",
        [(build_lattice_box(2, 10), 0, 3000.0), (triangle(), 1, 200.0)],
        ids=["box-d2-r10", "triangle"],
    )
    def test_matches_reference_clock(self, g, i0, horizon):
        traj = simulate_vrjp(g, i0, horizon, stream(2, "clock"))
        verts, times, _, d_times = reference_simulate_vrjp(
            g, i0, horizon, stream(2, "clock"), clock=True
        )
        assert traj.vertices.size > 100
        assert np.array_equal(traj.vertices, verts)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.transformed_times, d_times)

    def test_window_errors(self):
        traj = simulate_vrjp(pair(), 0, horizon=1.0, rng=stream(2, "win"))
        d_map, d_inv = time_change_maps(traj)
        t_end = float(d_map(traj.horizon))
        with pytest.raises(DomainError):
            d_map(-0.1)
        with pytest.raises(DomainError):
            d_map(1.5)
        with pytest.raises(DomainError):
            d_inv(t_end + 1.0)
        with pytest.raises(DomainError):
            time_change_maps(Trajectory(vertices=[0, 1]))


class TestSimulateErrw:
    def test_first_step_uniform_under_constant_weights(self):
        g = WeightedGraph(
            n=4, edges=((0, 1, 3.0), (0, 2, 0.5), (0, 3, 1.0))
        )  # conductances are irrelevant to the reinforced chain
        rng = stream(3, "uni")
        first = errw_words(g, 1.0, 0, 1, 30_000, rng)[:, 0]
        for v in (1, 2, 3):
            phat = (first == v).mean()
            assert abs(phat - 1.0 / 3.0) <= SE_RULE * np.sqrt((1.0 / 3.0) * (2.0 / 3.0) / first.size)

    def test_triangle_return_after_one_step(self):
        rng = stream(3, "tri")
        words = errw_words(triangle(), 1.0, 0, 2, 30_000, rng)
        back = (words[:, 1] == 0).mean()
        p = 2.0 / 3.0
        assert abs(back - p) <= SE_RULE * np.sqrt(p * (1.0 - p) / words.shape[0])

    def test_edge_counts_conserved(self):
        g = triangle(((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        a = np.array([0.5, 1.5, 2.0])
        traj = simulate_errw(g, a, 0, 57, stream(3, "cnt"))
        assert len(traj.vertices) == 58
        # replay the crossings: every step crosses one edge of g
        counts = a.copy()
        for x, y in zip(traj.vertices[:-1], traj.vertices[1:]):
            assert edge_weight(g, int(x), int(y)) > 0
            counts[g.edges.index((min(x, y), max(x, y), 1.0))] += 1
        assert counts.sum() == pytest.approx(a.sum() + 57, rel=1e-12)

    def test_zero_steps_and_errors(self):
        traj = simulate_errw(pair(), 1.0, 1, 0, stream(0))
        assert traj.vertices.tolist() == [1]
        with pytest.raises(DomainError):
            simulate_errw(pair(), 0.0, 0, 5, stream(0))
        with pytest.raises(DomainError):
            simulate_errw(pair(), 1.0, 0, -1, stream(0))

    @pytest.mark.parametrize(
        "g, a, steps",
        [
            (build_lattice_box(2, 10), 1.0, 50_000),
            (build_lattice_box(4, 2), 1.0, 50_000),
            # the hub has degree 11, and the weights are not integers
            (WeightedGraph(n=12, edges=tuple((0, k, 1.0) for k in range(1, 12))),
             0.37, 50_000),
            # more steps than one chunk of uniforms, and not a multiple of it
            (build_lattice_box(2, 10), 1.0, processes._ERRW_CHUNK + 4_465),
        ],
        ids=["d2-r10", "d4-r2", "star-11", "past-one-chunk"],
    )
    def test_matches_batched_loop(self, g, a, steps):
        r_batch, r_single = stream(7, "errw-pin"), stream(7, "errw-pin")
        words = errw_words(g, a, 0, steps, 1, r_batch)[0]
        traj = simulate_errw(g, a, 0, steps, r_single)
        assert np.array_equal(traj.vertices, np.concatenate([[0], words]))
        assert np.array_equal(r_batch.random(4), r_single.random(4))
        # replay the crossings in walk order: each step crosses an edge of g
        edges = {(i, j) for i, j, _w in g.edges}
        steps_taken = zip(traj.vertices[:-1].tolist(), traj.vertices[1:].tolist())
        assert all((min(x, y), max(x, y)) in edges for x, y in steps_taken)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, [1.0, np.nan]])
    def test_refuses_nonfinite_or_nonpositive_weights(self, bad):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(DomainError):
            simulate_errw(g, bad, 0, 5, NoDraws())
        with pytest.raises(DomainError):
            errw_words(g, bad, 0, 5, 2, NoDraws())

    @pytest.mark.parametrize("i0", [-1, 3, 2])
    def test_refuses_bad_start(self, i0):
        # vertex 2 has no edge to walk along
        g = WeightedGraph(n=3, edges=((0, 1, 1.0),))
        with pytest.raises(DomainError):
            simulate_errw(g, 1.0, i0, 5, NoDraws())
        with pytest.raises(DomainError):
            errw_words(g, 1.0, i0, 5, 2, NoDraws())

    def test_walk_of_no_steps_may_start_at_an_isolated_vertex(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0),))
        assert simulate_errw(g, 1.0, 2, 0, NoDraws()).vertices.tolist() == [2]

    def test_refuses_walk_beyond_physical_memory(self):
        # the vertex array alone would be a quarter of memory, but the walk's
        # list and the CLI's columns take 64 B per step: refused before any
        # draw
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        with pytest.raises(SizeError):
            simulate_errw(pair(), 1.0, 0, have // 32, NoDraws())


class TestQuenchedRates:
    def test_exit_rates_reproduce_potential_off_root(self):
        g = build_lattice_box(1, 3)
        subset = [1, 2, 3, 4, 5]
        rng = stream(4, "exit")
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        sample = sample_batch(params, 1, rng)
        beta = sample.beta[0]
        bundle = green_bundle(wired, sample, subset, float(rng.gamma(0.5)), i0=3)
        rates = QuenchedRates.from_bundle(bundle)
        p0 = bundle.i0_index
        for k in range(bundle.m):
            if k != p0:
                assert abs(rates.exit[k] - beta[k]) <= 1e-9 * max(1.0, beta[k])
        assert abs(rates.exit[bundle.delta_index] - bundle.beta_delta) <= 1e-9 * bundle.beta_delta

    @pytest.mark.parametrize("i0", [7, None])
    def test_rates_are_the_dense_oracle(self, i0):
        # from the root's kernel row and the wired conductances: the bits of
        # the dense kernel's root row and W, each built in one piece
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        bundle = wired_env(g, subset, stream(4, "dense-rates"), i0=i0)
        grow = full_kernel(bundle)[bundle.i0_index]
        ratio = grow[None, :] / grow[:, None]
        rates = QuenchedRates.from_bundle(bundle)
        dense = read_dense(rates.nbr, rates.rates)
        assert np.array_equal(dense, 0.5 * wired_w(bundle.wired.params()) * ratio)

    def test_kernel_keeps_the_masked_division_bits(self):
        # each row divided by its exit rate, bit for bit as a masked row
        # division gives it, and an absorbing (zero) row stays zero
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        rates = QuenchedRates.from_bundle(wired_env(g, subset, stream(4, "kern"), i0=7))
        table = rates.rates.copy()
        table[-1] = 0.0
        absorbing = QuenchedRates(
            rates=table, nbr=rates.nbr, exit=table.sum(axis=1), i0=rates.i0
        )
        for r in (rates, absorbing):
            old = np.zeros_like(r.rates)
            pos = r.exit > 0
            old[pos] = r.rates[pos] / r.exit[pos, None]
            assert np.array_equal(r.kernel(), old)
        assert not absorbing.kernel()[-1].any()

    def test_chain_is_reversible_for_green_conductances(self):
        g = build_lattice_box(1, 2)
        rng = stream(4, "rev")
        bundle = wired_env(g, [1, 2, 3], rng, i0=2)
        rates = QuenchedRates.from_bundle(bundle)
        grow = full_kernel(bundle)[bundle.i0_index]
        m_meas = rates.exit * grow**2
        flux = m_meas[:, None] * dense_kernel(rates)
        assert np.allclose(flux, flux.T, rtol=1e-12, atol=1e-14)
        assert np.allclose(
            flux,
            0.5 * wired_w(bundle.wired.params()) * np.outer(grow, grow),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_positive_rates_on_edges(self):
        g = build_lattice_box(1, 2)
        bundle = wired_env(g, [1, 2, 3], stream(4, "pos"), i0=2)
        rates = QuenchedRates.from_bundle(bundle)
        on_edge = wired_w(bundle.wired.params()) > 0
        dense = read_dense(rates.nbr, rates.rates)
        assert (dense[on_edge] > 0).all() and not dense[~on_edge].any()
        assert (rates.exit > 0).all()

    def test_empirical_kernel_matches_rates(self):
        g = build_lattice_box(1, 2)
        rng = stream(4, "emp")
        bundle = wired_env(g, [1, 2], rng, i0=1)
        rates = QuenchedRates.from_bundle(bundle)
        traj = quenched_mjp(rates, start=0, steps=100_000, rng=rng)
        kern = dense_kernel(rates)
        states = traj.vertices
        for i in range(rates.size):
            mask = states[:-1] == i
            n_i = int(mask.sum())
            nxt = states[1:][mask]
            for j in range(rates.size):
                p = kern[i, j]
                phat = (nxt == j).mean()
                tol = SE_RULE * np.sqrt(max(p * (1.0 - p), 1e-12) / n_i)
                assert abs(phat - p) <= tol

    @pytest.mark.parametrize(
        "dim, radius", [(1, 3), (2, 1), (2, 2), (2, 4), (3, 2)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_choice_loop(self, dim, radius, seed):
        # the environment the CLI runs: the radius box, wired, rooted at 0
        g = build_lattice_box(dim, radius + 1)
        subset = [v for v in range(g.n) if max(map(abs, g.coords[v])) <= radius]
        i0 = (g.n - 1) // 2
        bundle = wired_env(g, subset, stream(seed, "choice-env"), i0=i0)
        rates = QuenchedRates.from_bundle(bundle)
        r_new, r_ref = stream(seed, "choice"), stream(seed, "choice")
        traj = quenched_mjp(rates, bundle.i0_index, 5_000, r_new)
        want = reference_quenched_chain(rates, bundle.i0_index, 5_000, r_ref)
        assert np.array_equal(traj.vertices, want)
        assert r_new.random() == r_ref.random()

    def test_refuses_chain_beyond_physical_memory(self):
        rates = dense_rates(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        with pytest.raises(SizeError):
            quenched_mjp(rates, 0, have // 16, NoDraws())

    def test_errors(self):
        rates = dense_rates(np.array([[0.0, 1.0], [0.0, 0.0]]), 0)
        with pytest.raises(DomainError):
            quenched_mjp(rates, 0, -1, stream(0))
        with pytest.raises(DomainError):
            quenched_mjp(rates, 0, 2, stream(0))  # walks into a dead state

    @pytest.mark.parametrize("start", [-1, 2])
    def test_refuses_a_start_outside_the_states(self, start):
        rates = dense_rates(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        with pytest.raises(DomainError, match="start state"):
            quenched_mjp(rates, start, 3, NoDraws())

    def test_a_batch_of_rows_gives_each_row_its_own_table(self):
        # 24 states: each row's exit rate is numpy's pairwise sum, batched
        # or not
        g = build_lattice_box(2, 2)
        subset = [v for v in range(g.n) if v not in (0, 24)]
        w = wired_w(WiredBand.from_graph(g, subset).params())
        rows = stream(4, "batch-rates").uniform(0.5, 2.0, size=(2, 3, w.shape[0]))
        batch = QuenchedRates.from_green(*dense_tables(w), rows, 7)
        assert batch.rates.shape == (2, 3) + w.shape and batch.size == w.shape[0]
        kernels = batch.kernel()
        for idx in np.ndindex(2, 3):
            one = QuenchedRates.from_green(*dense_tables(w), rows[idx], 7)
            assert np.array_equal(batch.rates[idx], one.rates)
            assert np.array_equal(batch.exit[idx], one.exit)
            assert np.array_equal(kernels[idx], one.kernel())

    def test_rate_table_is_the_only_table_formed(self):
        # the rates are formed in place in one array, the result, here the
        # dense (m + 1)^2 table whose every row lists every state, so the
        # peak is that table and a few (m + 1,) vectors: a product of
        # temporaries, even with numpy's in-place reuse of the first, holds
        # a second table while it forms
        bundle = wired_box_env(2, 10, 1.0, stream(4, "rates-peak"), i0=220)
        nbr, w = dense_tables(wired_w(bundle.wired.params()))
        row = bundle.kernel_row(bundle.i0_index)
        table = w.nbytes
        tracemalloc.start()
        try:
            rates = QuenchedRates.from_green(nbr, w, row, bundle.i0_index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rates.rates.nbytes == table
        assert peak <= 1.5 * table

    def test_bundle_table_is_the_only_table_formed(self):
        # from_bundle forms its rates on the bundle's neighbour tables, (m +
        # 1) rows of 80 slots on this box, one per rim site on delta's row:
        # beside its table it holds the two neighbour tables of the same
        # shape (3.25 tables in all), never a dense (m + 1)^2 array
        bundle = wired_box_env(2, 10, 1.0, stream(4, "rates-peak"), i0=220)
        dense = 8 * (bundle.m + 1) ** 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rates = QuenchedRates.from_bundle(bundle)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rates.rates.shape == rates.nbr.shape == (bundle.m + 1, 80)
        assert peak <= 3.5 * rates.rates.nbytes < dense

    def test_refuses_a_rate_table_beyond_physical_memory(self, monkeypatch):
        # the table, its kernel and running sums (3 x 576 cells on the 23
        # sites plus delta, listed densely) are refused before the table
        # is allocated
        bundle = wired_env(build_lattice_box(2, 2), range(1, 24), stream(4, "big"))
        tables = dense_tables(wired_w(bundle.wired.params()))
        row = bundle.kernel_row(bundle.i0_index)
        sysconf = os.sysconf
        fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
        with pytest.raises(SizeError, match="rate table of 576 slots"):
            QuenchedRates.from_green(*tables, row, bundle.i0_index)

    def test_refuses_a_green_row_with_zeros(self):
        # a root row that vanishes off the root's component: rates there
        # would be 0/0
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericError, match="Green row"):
            QuenchedRates.from_green(*dense_tables(w), np.array([1.0, 0.5, 0.0]), 0)


class TestEscapeProbability:
    def test_delta_target_is_certain(self):
        g = build_lattice_box(1, 2)
        bundle = wired_env(g, [1, 2, 3], stream(5, "delta"), i0=2)
        assert escape_probability_formula(bundle, 2, None) == pytest.approx(1.0, rel=1e-12)

    def test_root_must_be_retained(self):
        g = build_lattice_box(1, 2)
        bundle = wired_env(g, [1, 2, 3], stream(5, "root"), i0=2)
        with pytest.raises(DomainError):
            escape_probability_formula(bundle, None, 2)

    def test_hitting_split_sums_to_one(self):
        g = build_lattice_box(1, 3)
        subset = [1, 2, 3, 4, 5]
        rng = stream(5, "split")
        for _ in range(5):
            bundle = wired_env(g, subset, rng, i0=3)
            p0 = bundle.i0_index
            for i in subset:
                pi = bundle.position(i)
                if pi == p0:
                    continue
                esc = escape_probability_formula(bundle, 3, i)
                hat_g = solved_hat_g(bundle)
                grow = full_kernel(bundle, hat_g)[p0]
                h = hat_g[p0, pi] * grow[p0] / (hat_g[p0, p0] * grow[pi])
                assert abs(h + esc - 1.0) <= 1e-9

    @pytest.mark.parametrize("dim, radii", [(1, (1, 2, 5)), (2, (1, 2, 3)), (3, (1, 2))])
    def test_root_exit_rate_is_the_rate_tables(self, dim, radii):
        # escape from the root back to it reads the exit rate of the rate
        # table itself, bit for bit, not an expression of its own
        rng = stream(5, "root-exit", dim)
        for radius in radii:
            m = (2 * radius + 1) ** dim
            for _ in range(8):
                i0 = int(rng.integers(m))
                w = float(rng.choice([0.2, 1.0, 5.0]))
                bundle = wired_box_env(dim, radius, w, rng, i0)
                exit0 = QuenchedRates.from_bundle(bundle).exit[i0]
                psi0 = bundle.psi[i0]
                g00 = solved_hat_g(bundle)[i0, i0]
                grow = bundle.kernel_row(i0)
                want = float(psi0**2 / (4.0 * bundle.gamma * exit0 * g00 * grow[i0]))
                assert escape_probability_formula(bundle, i0, i0) == want

    def test_vanishing_boundary_coupling_kills_escape(self):
        g = WeightedGraph(
            n=5,
            edges=((0, 1, 1e-8), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1e-8)),
        )
        wired = WiredBand.from_graph(g, [1, 2, 3])
        params = wired.params()
        bundle = green_bundle(
            wired, factored(params, np.ones(3)), [1, 2, 3], gamma=0.5, i0=2
        )
        assert escape_probability_formula(bundle, 2, 2) < 1e-6
        assert escape_probability_formula(bundle, 2, 1) < 1e-6

    def test_formula_matches_chain_monte_carlo(self):
        g = build_lattice_box(1, 3)
        subset = [2, 3, 4, 5]
        rng = stream(5, "mc")
        for env, n in enumerate((100_000, 30_000, 30_000)):
            bundle = wired_env(g, subset, rng, i0=3)
            p0 = bundle.i0_index
            rates = QuenchedRates.from_bundle(bundle)
            delta = bundle.delta_index
            for start_vertex in (3, 5):
                target = escape_probability_formula(bundle, 3, start_vertex)
                report = mc_return_probability(
                    rates, bundle.position(start_vertex), {p0, delta}, n, rng
                )
                phat, se_hat = report.prob(delta)
                assert abs(phat - target) <= SE_RULE * max(se_hat, 1e-12)


class TestHTransform:
    def test_complementary_kernel_nonnegative(self):
        g = build_lattice_box(1, 3)
        rng = stream(6, "gcheck")
        for _ in range(5):
            bundle = wired_env(g, [1, 2, 3, 4, 5], rng, i0=2)
            p0 = bundle.i0_index
            hrow = np.append(solved_hat_g(bundle)[p0], 0.0)
            psi_e = bundle.psi_ext()
            gcheck = hrow[p0] * psi_e - hrow * psi_e[p0]
            assert (gcheck >= -1e-12).all()

    def test_conditioned_kernels_do_not_depend_on_coupling(self):
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        rng = stream(6, "gfree")
        wired = WiredBand.from_graph(g, subset)
        params = wired.params()
        sample = sample_batch(params, 1, rng)
        b_lo = green_bundle(wired, sample, subset, gamma=0.2, i0=2)
        b_hi = green_bundle(wired, sample, subset, gamma=1.7, i0=2)
        for mode in ("return", "no-return"):
            r_lo = h_transform_rates(b_lo, 2, mode)
            r_hi = h_transform_rates(b_hi, 2, mode)
            p0 = b_lo.i0_index
            off_root = np.arange(r_lo.size) != p0
            assert np.allclose(
                r_lo.rates[off_root], r_hi.rates[off_root], rtol=1e-12, atol=1e-14
            )
            assert np.allclose(r_lo.kernel(), r_hi.kernel(), rtol=1e-12, atol=1e-14)

    def test_return_mode_blocks_delta_and_no_return_blocks_root(self):
        g = build_lattice_box(1, 2)
        bundle = wired_env(g, [1, 2, 3], stream(6, "block"), i0=2)
        p0 = bundle.i0_index
        delta = bundle.delta_index
        ret = h_transform_rates(bundle, 2, "return")
        assert (ret.rates[:, delta] == 0).all()
        nor = h_transform_rates(bundle, 2, "no-return")
        assert (nor.rates[:, p0] == 0).all()
        assert (nor.rates[delta] == 0).all()

    def test_mixture_reconstructs_unconditioned_kernel(self):
        g = build_lattice_box(1, 3)
        subset = [1, 2, 3, 4, 5]
        rng = stream(6, "mix")
        bundle = wired_env(g, subset, rng, i0=3)
        p0 = bundle.i0_index
        kern = dense_kernel(QuenchedRates.from_bundle(bundle))
        k_ret = h_transform_rates(bundle, 3, "return").kernel()
        k_esc = h_transform_rates(bundle, 3, "no-return").kernel()
        for i in range(bundle.m):
            vertex = subset[i]
            esc = escape_probability_formula(bundle, 3, vertex)
            mix = (1.0 - esc) * k_ret[i] + esc * k_esc[i]
            assert np.abs(mix - kern[i]).max() <= 1e-9

    def test_rejection_sampling_recovers_conditioned_first_step(self):
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        rng = stream(6, "reject")
        bundle = wired_env(g, subset, rng, i0=2)
        p0 = bundle.i0_index
        delta = bundle.delta_index
        rates = QuenchedRates.from_bundle(bundle)
        k_ret = h_transform_rates(bundle, 2, "return").kernel()
        k_esc = h_transform_rates(bundle, 2, "no-return").kernel()

        n = 30_000
        walks = QuenchedRates(
            rates=np.broadcast_to(rates.rates, (n,) + rates.rates.shape),
            nbr=rates.nbr,
            exit=np.broadcast_to(rates.exit, (n,) + rates.exit.shape),
            i0=rates.i0,
        )
        words = markov_words(walks, p0, 200, rng)
        first = words[:, 0]
        hit_root = np.argmax(words == p0, axis=1)
        hit_root[~(words == p0).any(axis=1)] = words.shape[1]
        hit_delta = np.argmax(words == delta, axis=1)
        hit_delta[~(words == delta).any(axis=1)] = words.shape[1]
        decided = (hit_root < words.shape[1]) | (hit_delta < words.shape[1])
        assert decided.mean() > 0.999
        returned = decided & (hit_root < hit_delta)
        escaped = decided & (hit_delta < hit_root)
        for mask, kcond in ((returned, k_ret), (escaped, k_esc)):
            sub = first[mask]
            for j in range(rates.size):
                p = kcond[p0, j]
                phat = (sub == j).mean()
                tol = SE_RULE * np.sqrt(max(p * (1.0 - p), 1e-12) / sub.size)
                assert abs(phat - p) <= tol

    def test_unreachable_conditioning_raises(self):
        wired = WiredBand.from_graph(pair(), [0])
        params = wired.params()
        bundle = green_bundle(wired, factored(params, [0.9]), [0], gamma=0.4, i0=0)
        with pytest.raises(ConditioningError):
            h_transform_rates(bundle, 0, "return")

    def test_mode_and_root_validation(self):
        g = build_lattice_box(1, 2)
        bundle = wired_env(g, [1, 2, 3], stream(6, "mode"), i0=2)
        with pytest.raises(DomainError):
            h_transform_rates(bundle, 2, "sideways")
        with pytest.raises(DomainError):
            h_transform_rates(bundle, None, "return")


class TestMcReturnProbability:
    def test_symmetric_two_state_split(self):
        rates = dense_rates(np.array([[1.0, 1.0], [1.0, 1.0]]), 0)
        report = mc_return_probability(rates, 0, {0, 1}, 40_000, stream(7, "half"))
        for state in (0, 1):
            p, se_hat = report.prob(state)
            assert abs(p - 0.5) <= SE_RULE * se_hat

    def test_absorb_at_start_is_certain(self):
        rates = dense_rates(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        report = mc_return_probability(rates, 0, {0}, 5_000, stream(7, "sure"))
        assert report.prob(0)[0] == 1.0

    def test_gamblers_ruin_harmonic_solution(self):
        w = np.zeros((4, 4))
        for i in range(3):
            w[i, i + 1] = w[i + 1, i] = 1.0
        rates = dense_rates(0.5 * w, 1)
        report = mc_return_probability(rates, 1, {0, 3}, 20_000, stream(7, "ruin"))
        p, se_hat = report.prob(3)
        assert abs(p - 1.0 / 3.0) <= SE_RULE * se_hat

    def test_errors(self):
        rates = dense_rates(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        with pytest.raises(DomainError, match="nonempty"):
            mc_return_probability(rates, 0, set(), 10, stream(0))
        # a chain that steps into a state with no outgoing rate: the same
        # refusal as markov_words'
        dead = dense_rates(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), 0
        )
        with pytest.raises(DomainError, match="zero mass"):
            mc_return_probability(dead, 0, {0}, 10, stream(0))
        # a NaN in row 1 would otherwise send every chain to state 2
        table = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, np.nan], [0.0, 1.0, 0.0]])
        nan = dense_rates(table, 0, exit=np.ones(3))
        with pytest.raises(DomainError, match="not finite"):
            mc_return_probability(nan, 0, {0, 2}, 10, NoDraws())
        table[1, 2] = np.inf
        with pytest.raises(DomainError, match="not finite"):
            mc_return_probability(nan, 0, {0, 2}, 10, NoDraws())

    @pytest.mark.parametrize(
        "i0, absorb, n, match",
        [
            (0, {-1}, 10, "absorbing state -1"),
            (0, {0, 3}, 10, "absorbing state 3"),
            (-1, {2}, 10, "start state -1"),
            (3, {2}, 10, "start state 3"),
            (0, {2}, 0, "n must be"),
        ],
        ids=["absorb-negative", "absorb-past", "start-negative", "start-past", "no-chains"],
    )
    def test_refuses_inputs_outside_the_states(self, i0, absorb, n, match):
        # the path 0-1-2: unchecked, numpy's indexing reads -1 as state 2
        # (absorbing there while counting nothing under -1), state 3 raises
        # its IndexError, and n = 0 divides by zero in prob
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
        rates = dense_rates(w, 0)
        with pytest.raises(DomainError, match=match):
            mc_return_probability(rates, i0, absorb, n, NoDraws())

    @pytest.mark.parametrize("n", [10.0, True, "10"], ids=["float", "bool", "str"])
    def test_refuses_a_chain_count_that_is_not_whole(self, n):
        # np.full would raise its own TypeError on 10.0 and "10", and take
        # True as one chain
        rates = dense_rates(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        with pytest.raises(DomainError, match="n must be a whole number"):
            mc_return_probability(rates, 0, {0}, n, NoDraws())

    def test_prob_refuses_a_state_outside_the_absorbing_set(self):
        rates = dense_rates(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        report = mc_return_probability(rates, 0, {0}, 10, stream(7, "outside"))
        assert report.prob(0) == (1.0, 0.0)
        with pytest.raises(DomainError, match="absorbing set"):
            report.prob(1)

    @pytest.mark.parametrize(
        "n,counts",
        [
            (0, {0: 0}),
            (-3, {0: 0}),
            (2.5, {0: 1}),
            (5, {0: 9}),
            (5, {0: -1}),
            (5, {0: 1.5}),
            (5, {0: 3, 1: 3}),
            (True, {0: 1}),
            (5, {0: True}),
        ],
        ids=[
            "no-chains", "negative-n", "fractional-n", "count-past-n",
            "negative-count", "fractional-count", "counts-sum-past-n",
            "bool-n", "bool-count",
        ],
    )
    def test_report_refuses_counts_no_chains_could_give(self, n, counts):
        with pytest.raises(DomainError):
            AbsorptionReport(n=n, counts=counts)

    def test_report_accepts_every_split_of_its_chains(self):
        assert AbsorptionReport(n=5, counts={0: 5, 1: 0}).prob(0) == (1.0, 0.0)
        assert AbsorptionReport(n=4, counts={0: 1, 1: 2}).prob(1) == (0.5, 0.25)

    def test_chains_absorbed_at_the_last_sweep_are_counted(self, monkeypatch):
        # the cycle 0 -> 1 -> 2 -> 0 reaches 2 at the second step, which the
        # cap allows
        monkeypatch.setattr(processes, "MAX_SWEEPS", 2)
        table = np.roll(np.eye(3), 1, axis=1)
        rates = dense_rates(table, 0)
        report = mc_return_probability(rates, 0, {2}, 10, stream(7, "last"))
        assert report.prob(2) == (1.0, 0.0)

    def test_sweep_cap(self, monkeypatch):
        # on the path 0-1-2 a chain from 0 needs two steps to reach 2
        monkeypatch.setattr(processes, "MAX_SWEEPS", 1)
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
        rates = dense_rates(w, 0)
        with pytest.raises(NumericError, match="not absorbed"):
            mc_return_probability(rates, 0, {2}, 10, stream(7, "cap"))


class TestMixtureRepresentation:
    def test_direct_walk_words_match_environment_mixture(self):
        # jump-chain word law of the reinforced walk against chains in
        # independently sampled environments, on a wired 5-path
        g = build_lattice_box(1, 2)
        subset = [1, 2, 3]
        wired = WiredBand.from_graph(g, subset)
        base = wired.graph()
        params = wired.params()
        rng = stream(8, "mixwords")
        n = 50_000

        a_words = vrjp_words(base, 1, 3, n, rng)

        beta = sample_batch(params, n, rng).beta
        gamma = rng.gamma(0.5, 1.0, size=n)
        m = len(subset)
        w = base.weight_matrix()
        h = np.broadcast_to(-w[:m, :m], (n, m, m)).copy()
        idx = np.arange(m)
        h[:, idx, idx] += 2.0 * beta
        hat = np.linalg.inv(h)
        eta = np.array([w[k, m] for k in range(m)])
        psi = hat @ eta
        full = np.empty((n, m + 1, m + 1))
        full[:, :m, :m] = hat + psi[:, :, None] * psi[:, None, :] / (2.0 * gamma)[:, None, None]
        full[:, :m, m] = psi / (2.0 * gamma)[:, None]
        full[:, m, :m] = full[:, :m, m]
        full[:, m, m] = 1.0 / (2.0 * gamma)
        row = full[:, 1, :]
        rates = 0.5 * w[None, :, :] * (row[:, None, :] / row[:, :, None])
        b_words = markov_words(dense_rates(rates, 1), 1, 3, rng)

        assert word_chi2(a_words, b_words) > ALPHA

    @pytest.mark.parametrize("i0", [-1, 3, 2])
    def test_vrjp_words_refuses_bad_start(self, i0):
        # vertex 2 has no edge to walk along
        g = WeightedGraph(n=3, edges=((0, 1, 1.0),))
        with pytest.raises(DomainError):
            vrjp_words(g, i0, 4, 1, NoDraws())

    def test_markov_words_refuses_a_shared_kernel(self):
        # one environment per walk: the rates of one environment, (size,
        # width), are refused, not shared
        one = dense_rates(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        with pytest.raises(DomainError, match="one walk per environment"):
            markov_words(one, 0, 3, NoDraws())

    @pytest.mark.parametrize(
        "start, length, match",
        [(-1, 3, "start state -1"), (2, 3, "start state 2"), (0, -1, "length")],
        ids=["start-negative", "start-past", "negative-length"],
    )
    def test_markov_words_refuses_a_walk_outside_the_states(self, start, length, match):
        # unchecked, numpy's indexing reads a start of -1 as state 1 and
        # raises its IndexError at state 2, and a negative length its
        # ValueError
        rates = dense_rates(np.array([[[0.0, 1.0], [1.0, 0.0]]]), 0)
        with pytest.raises(DomainError, match=match):
            markov_words(rates, start, length, NoDraws())

    def test_markov_words_refuses_kernels_that_are_not_square(self):
        # a (2, 3) table of rates against the neighbour table of 2 states
        nbr, _ = dense_tables(np.ones((2, 2)))
        rates = QuenchedRates(
            rates=np.ones((1, 2, 3)), nbr=nbr, exit=np.full((1, 2), 3.0), i0=0
        )
        with pytest.raises(DomainError, match="n_walks, size, width"):
            markov_words(rates, 0, 3, NoDraws())

    def test_markov_words_refuses_a_kernel_that_is_not_finite(self):
        # a NaN row would otherwise send every walk to state 0
        table = np.array([[[0.0, 1.0], [np.nan, np.nan]]])
        rates = dense_rates(table, 0, exit=np.ones((1, 2)))
        with pytest.raises(DomainError, match="not finite"):
            markov_words(rates, 0, 3, NoDraws())
        table[0, 1] = [np.inf, 0.0]
        with pytest.raises(DomainError, match="not finite"):
            markov_words(rates, 0, 3, NoDraws())

    @pytest.mark.parametrize(
        "bad", ["zero", "nan", "inf", "negative", "one-row", "short"]
    )
    def test_vrjp_words_refuses_bad_edge_weights(self, bad):
        # refused before any draw: unchecked, zero or NaN weights walk every
        # walk along [1, 0, 1], and a negative weight or a wrong shape fails
        # inside numpy with its own ValueError
        g = triangle()
        w = np.ones((4, g.edge_count))
        if bad == "zero":
            w[:] = 0.0
        elif bad == "nan":
            w[:] = np.nan
        elif bad == "inf":
            w[2, 1] = np.inf
        elif bad == "negative":
            w[3, 0] = -1.0
        elif bad == "one-row":
            w = w[0]
        else:
            w = w[:3]
        with pytest.raises(DomainError, match="edge.weights"):
            vrjp_words(g, 0, 3, 4, NoDraws(), edge_weights=w)

    @pytest.mark.parametrize("walker", ["vrjp", "errw"])
    def test_batched_walkers_never_step_along_a_pad(self, walker):
        # vertex 0's eight weights sum to 1 + 2^-52 in numpy's pairwise
        # order but to 1 left to right, and vertex 9's nine edges give
        # vertex 0's row a ninth slot, a pad; the largest uniform below 1,
        # scaled by the pairwise total, passed every running sum, and a
        # clamp to the last slot took the pad, which points at vertex 0
        edges = [(0, 1, 1.0)] + [(0, k, 1e-16) for k in range(2, 9)]
        edges += [(9, k, 1.0) for k in range(10, 19)]
        g = WeightedGraph(n=19, edges=tuple(edges))
        rng = LargestUniform(stream(9, "pad", walker))
        if walker == "vrjp":
            words = vrjp_words(g, 0, 1, 4, rng)
        else:
            words = errw_words(g, np.array([w for *_, w in edges]), 0, 1, 4, rng)
        assert np.isin(words[:, 0], np.arange(1, 9)).all()

    def test_vrjp_words_of_no_steps_may_start_at_an_isolated_vertex(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0),))
        assert vrjp_words(g, 2, 0, 2, NoDraws()).shape == (2, 0)

    def test_reinforced_chain_equals_walk_in_gamma_environment(self):
        g = triangle()
        rng = stream(8, "gamma-env")
        n = 50_000
        a_words = errw_words(g, 1.0, 0, 3, n, rng)
        w_draw = rng.gamma(1.0, 1.0, size=(n, g.edge_count))
        b_words = vrjp_words(g, 0, 3, n, rng, edge_weights=w_draw)
        assert word_chi2(a_words, b_words) > ALPHA


class TestMixtureInContinuousTime:
    """The mixture representation with its holding times: read on its D
    clock, the reinforced walk is the annealed Markov jump process with rates
    W_ij G(i0, j) / (2 G(i0, i)), G the root's row of the full kernel. On
    C8's wired 4-site graph from site 3, the declared statistic is the
    two-sample KS test of D(T_3), the D time of the third jump."""

    N = 40_000
    START = 3
    SEED = 7

    @pytest.fixture(scope="class")
    def sides(self):
        # the graph, its wired marginal and the walks' D(T_3), shared by the
        # check and its power companion
        wired = WiredBand.from_graph(build_lattice_box(2, 1), [0, 1, 3, 4])
        return wired, self.walk_side(wired.graph(), self.SEED)

    def walk_side(self, graph, seed):
        # single 3-jump walks, each read on its own D clock
        rows = [([u for u, _ in nb], [w for _, w in nb]) for nb in graph.neighbors]
        rng = stream(seed, "d-clock-vrjp")
        out = np.empty(self.N)
        for k in range(self.N):
            _, waits, entered = processes._walk(
                rows, [1.0] * graph.n, self.START, rng, np.inf, 3
            )
            out[k] = processes._clocks(waits, entered)[1][-1]
        return out

    def quenched_side(self, wired, seed, exit_scale=1.0):
        # annealed chains on their rate tables, with Exp(exit) holding times
        # drawn from their own stream
        params = wired.params()
        rng = stream(seed, "d-clock-env")
        sample = sample_batch(params, self.N, rng)
        gamma = rng.gamma(0.5, 1.0, size=self.N)
        rhs = np.zeros((params.n, 2))
        rhs[self.START, 0] = 1.0
        rhs[:, 1] = params.eta
        cols = green_solve_banded(sample, rhs)
        rows = _kernel_row(cols[..., 1], cols[..., 0], self.START, gamma)
        rates = QuenchedRates.from_green(*wired.neighbours(), rows, self.START)
        words = markov_words(rates, self.START, 3, rng)
        held = np.column_stack([np.full(self.N, self.START), words[:, :2]])
        exit = exit_scale * rates.exit[np.arange(self.N)[:, None], held]
        waits = stream(seed, "d-clock-hold").standard_exponential((self.N, 3))
        return (waits / exit).sum(axis=1)

    def test_third_jump_has_the_same_d_time(self, sides):
        wired, walk = sides
        chain = self.quenched_side(wired, self.SEED)
        assert stats.ks_2samp(walk, chain).pvalue > ALPHA

    def test_rates_without_the_half_are_told_apart(self, sides):
        wired, walk = sides
        chain = self.quenched_side(wired, self.SEED, exit_scale=2.0)
        assert stats.ks_2samp(walk, chain).pvalue < 1e-6


class TestLatticeWalker:
    def test_shapes_steps_and_clocks(self):
        coords, s_times, d_times = simulate_vrjp_lattice(2, 1.0, 200, stream(9, "lat"))
        assert coords.shape == (201, 2)
        assert (coords[0] == 0).all()
        assert (np.abs(np.diff(coords, axis=0)).sum(axis=1) == 1).all()
        assert (np.diff(s_times) > 0).all()
        assert (np.diff(d_times) > 0).all()
        # transformed clock runs faster than twice the original (L >= 1)
        assert (np.diff(d_times) >= 2.0 * np.diff(s_times) - 1e-12).all()

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            simulate_vrjp_lattice(2, 0.0, 10, stream(0))

    @pytest.mark.parametrize(
        "dim, w, n_jumps",
        [(0, 1.0, 10), (-1, 1.0, 10), (2, np.nan, 10), (2, np.inf, 10), (2, 1.0, -1)],
    )
    def test_refuses_bad_input(self, dim, w, n_jumps):
        with pytest.raises(DomainError):
            simulate_vrjp_lattice(dim, w, n_jumps, NoDraws())

    def test_refuses_walk_beyond_physical_memory(self):
        # 10**15 jumps of some hundred bytes each: refused before any
        # record is kept or any draw is made
        with pytest.raises(SizeError):
            simulate_vrjp_lattice(1, 1.0, 10**15, NoDraws())

    def test_refuses_site_table_beyond_physical_memory(self):
        # at d = 8 the numpy arrays take about 192 B per jump, so a fifth
        # of memory, but the rows of the sites and the walk's records take
        # over 1 kB per jump: refused before any draw
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        with pytest.raises(SizeError):
            simulate_vrjp_lattice(8, 1.0, have // 1024, NoDraws())

    def test_zero_jumps_is_the_origin(self):
        coords, s_times, d_times = simulate_vrjp_lattice(3, 1.0, 0, NoDraws())
        assert coords.tolist() == [[0, 0, 0]]
        assert s_times.tolist() == [0.0] and d_times.tolist() == [0.0]

    @pytest.mark.parametrize(
        "dim, w, n_jumps",
        [
            (2, 1.0, WALK_CHUNK),
            # a full chunk, then one of 7 that the cap cuts short
            (3, 10.0, WALK_CHUNK + 7),
            (1, 0.3, 2 * WALK_CHUNK + 1),
        ],
        ids=["one-chunk", "chunk-plus-7", "two-chunks-plus-1"],
    )
    def test_matches_reference_loop_across_chunks(self, dim, w, n_jumps):
        r_walk, r_ref = stream(3, "vrjp-chunks", dim), stream(3, "vrjp-chunks", dim)
        got = simulate_vrjp_lattice(dim, w, n_jumps, r_walk)
        want = reference_vrjp_lattice(dim, w, n_jumps, r_ref)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert np.array_equal(r_walk.random(4), r_ref.random(4))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("w", [0.3, 1.0, 10.0])
    def test_matches_reference_loop(self, dim, w):
        for k in range(3):
            got = simulate_vrjp_lattice(dim, w, 400, stream(k, "vrjp-diff", dim))
            want = reference_vrjp_lattice(dim, w, 400, stream(k, "vrjp-diff", dim))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


class WaitAsPick:
    """A generator whose uniforms are its last standard exponentials, each
    mapped into (0, 1) by its own distribution function 1 - e^-x: every
    variate keeps its law, but a jump's pick is a function of its wait."""

    def __init__(self, rng):
        self._rng = rng
        self._exps = None

    def standard_exponential(self, size=None):
        self._exps = self._rng.standard_exponential(size)
        return self._exps

    def random(self, size=None):
        return -np.expm1(-self._exps)


class TestFirstJumpLaw:
    """The law of a jump, which no bit pin can stand in for. From the centre
    of a star with unequal conductances w and every local time 1: the first
    wait times the total rate sum(w) is Exp(1), the first neighbour is leaf j
    with probability w_j / sum(w), and the two are independent. Declared in
    advance: N walks of two jumps from stream(SEED, "first-jump"), a KS test
    of the scaled waits, the 4-SE rule on each leaf's share, and a
    chi-square test on the table of wait above or below its median by
    neighbour."""

    N = 40_000
    SEED = 11
    W = (0.5, 1.0, 2.0, 3.5)

    def first_jumps(self, rng):
        star = WeightedGraph(n=5, edges=tuple((0, j + 1, w) for j, w in enumerate(self.W)))
        rows = [([u for u, _ in nb], [w for _, w in nb]) for nb in star.neighbors]
        scaled = np.empty(self.N)
        leaf = np.empty(self.N, dtype=int)
        for k in range(self.N):
            verts, waits, _ = processes._walk(rows, [1.0] * star.n, 0, rng, np.inf, 2)
            scaled[k] = waits[0] * sum(self.W)
            leaf[k] = verts[1]
        return scaled, leaf

    def independence_p(self, scaled, leaf):
        above = scaled > np.median(scaled)
        table = np.array([np.bincount(leaf[side], minlength=5)[1:] for side in (above, ~above)])
        return stats.chi2_contingency(table).pvalue

    def test_wait_is_exponential_and_independent_of_the_pick(self):
        scaled, leaf = self.first_jumps(stream(self.SEED, "first-jump"))
        assert stats.kstest(scaled, "expon").pvalue > ALPHA
        for j, w in enumerate(self.W, start=1):
            p = w / sum(self.W)
            phat = (leaf == j).mean()
            assert abs(phat - p) <= SE_RULE * np.sqrt(p * (1.0 - p) / self.N)
        assert self.independence_p(scaled, leaf) > ALPHA

    def test_a_pick_read_from_the_wait_is_told_apart(self):
        # the planted defect keeps both marginal laws, so only the
        # independence test can see it
        scaled, leaf = self.first_jumps(WaitAsPick(stream(self.SEED, "first-jump")))
        assert self.independence_p(scaled, leaf) < 1e-6
