"""Independent oracles shared by the tests.

Everything here recomputes target quantities by a route disjoint from the
code under test: naive recursive path enumeration, adaptive quadrature of
closed-form densities, quadrature means, the wired marginal by way of an
induced subgraph, and banded Green solves by a fresh factorization of H_beta
(solveh_banded). Slow is fine; independent is the point.

It also holds the closed forms and reference routines that no criterion,
experiment or CLI command runs, with their own error classes: the field's
density and a dense Cholesky certificate of H_beta, a dense LDL^T of H_beta
for a chosen beta in the layout a draw keeps its factor in, a graph's own
weights in band storage, a Green bundle's hat_g (every column solved on
its kept factor), wired conductances and full kernel as dense arrays, dense
tables as the neighbour tables QuenchedRates reads and slots read back
densely, its identity residuals from dense products (the streamed check's
twin), the one-site Schur step (the exact conditional law given some
sites), the band
sampler's elimination order (R, B) built site by site, the annealed
reinforced-walk environment, a graph's edge weight lookup and per-vertex
weight totals, a lattice box built vertex by vertex, writing a graph in the CLI's JSON format, the
environment-fixed jump chain stepped by `rng.choice`, capped path
enumeration and truncated Green path sums, the u-field of a full graph and
its density, the dense bottom of the spectrum, the time change as a pair of
maps, the conditioned (h-transformed) chains, a replica runner, a
one-sample KS test, and the full coordinate paths of the simple random walk
with the lattice diffusion estimator that reads them (criterion 12 draws
only the endpoints, by vrjp.srw_endpoints).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy import integrate, stats

from vrjp import (
    BandSample,
    CoverageError,
    DomainError,
    EstimatorReport,
    FactorizationError,
    IdentityReport,
    NuParams,
    NumericError,
    QuenchedRates,
    TestError,
    Trajectory,
    VrjpError,
    WeightedGraph,
    WiredBand,
    build_lattice_box,
    gig_half_sample,
    green_bundle,
    green_solve_banded,
    sample_batch,
    stream,
)
from vrjp.betafield import CHI2_BELOW, PIVOT_RTOL, BandDiagonals, _pivots_ok, h_beta
from vrjp.schrodinger import _rate_rows

SE_RULE = 4.0
ALPHA = 0.01


def se(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(x.std(ddof=1) / np.sqrt(x.shape[0]))


def zscore(x: np.ndarray, target: float) -> float:
    x = np.asarray(x, dtype=float)
    return abs(float(x.mean()) - target) / se(x)


def edge_weight(g: WeightedGraph, i: int, j: int) -> float:
    """Conductance of edge {i, j} of g, or 0.0 if absent."""
    for k, w in g.neighbors[i]:
        if k == j:
            return w
    return 0.0


def total_weights(g: WeightedGraph) -> np.ndarray:
    """Per-vertex sum of g's incident conductances."""
    out = np.zeros(g.n)
    for i, j, w in g.edges:
        out[i] += w
        out[j] += w
    return out


def save_graph(g: WeightedGraph, path: str) -> None:
    """Write g as the JSON graph file that vrjp.load_graph and the CLI's
    --graph read: {"n": int, "edges": [[i, j, w], ...]}."""
    with open(path, "w") as f:
        json.dump({"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}, f)
        f.write("\n")


def brute_force_paths(g: WeightedGraph, start: int, stop_set=(), max_len: int = 0):
    """Depth-first re-enumeration of nearest-neighbor paths; returns a set of
    vertex tuples under the same cut-at-first-hit convention."""
    stop = set(int(v) for v in stop_set)
    out = set()

    def walk(path):
        v = path[-1]
        if stop and v in stop:
            out.add(path)
            return
        if not stop:
            out.add(path)
        if len(path) - 1 == max_len:
            return
        for u, _w in g.neighbors[v]:
            walk(path + (u,))

    walk((int(start),))
    return out


def pair_params(w: float) -> NuParams:
    return NuParams(p=np.array([[0.0, w], [w, 0.0]]), eta=np.zeros(2))


def density_mass_pair(w: float) -> float:
    """Total mass of the two-site density by nested adaptive quadrature over
    the positivity region {b0 > 0, b1 > w^2/(4 b0)}."""
    params = pair_params(w)

    def inner(b0):
        lo = w * w / (4.0 * b0)
        val, _ = integrate.quad(
            lambda b1: density(params, np.array([b0, b1])), lo, np.inf
        )
        return val

    mass, _ = integrate.quad(inner, 0.0, np.inf, limit=200)
    return float(mass)


def laplace_by_quadrature_single(eta: float, lam: float) -> float:
    """Transform of the one-site law with boundary weight eta at a single
    point, by quadrature of the density."""
    params = NuParams(p=np.zeros((1, 1)), eta=np.array([float(eta)]))
    val, _ = integrate.quad(
        lambda b: np.exp(-lam * b) * density(params, np.array([b])), 0.0, np.inf
    )
    return float(val)


def gig_mean_quadrature(b: float) -> float:
    """Mean of the density proportional to x^(-1/2) exp(-x/2 - b/(2x))."""
    kernel = lambda x, p: x**p * np.exp(-0.5 * x - 0.5 * b / x)
    norm, _ = integrate.quad(kernel, 0.0, np.inf, args=(-0.5,))
    first, _ = integrate.quad(kernel, 0.0, np.inf, args=(0.5,))
    return float(first / norm)


def rooted_pair_cdf(w: float, lo: float = -14.0, hi: float = 14.0, m: int = 40001):
    """Vectorized CDF of the non-root coordinate of the rooted mixing field
    on the two-vertex graph, from a dense trapezoid integration of its
    density."""
    g = WeightedGraph(n=2, edges=((0, 1, float(w)),))
    grid = np.linspace(lo, hi, m)
    dens = np.array([q_density(g, np.array([0.0, t]), 0) for t in grid])
    h = grid[1] - grid[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * h)])
    cum /= cum[-1]

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), grid, cum)

    return cdf


class NoDraws:
    """A generator stand-in that fails on any draw: a call that must refuse
    its input before it samples fails its test with this instead of running
    (or hanging) when the refusal is missing."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the input was refused")


class LargestUniform:
    """A generator whose uniforms are all the largest double below 1 and
    whose other draws come from `rng`: scaled by a total, such a uniform
    lands on the last running sum that rounding lets it reach."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return float(top) if size is None else np.full(size, top)


def ring_graph(n: int, w: float = 1.0) -> WeightedGraph:
    """Cycle on n >= 3 vertices: vertex-transitive, so per-site laws match."""
    edges = [(k, k + 1, w) for k in range(n - 1)] + [(0, n - 1, w)]
    return WeightedGraph(n=n, edges=tuple(edges))


def _reference_gig(b: np.ndarray, rng) -> np.ndarray:
    """GIG(1/2) pivots for a whole batch: chi-square draws for the shapes
    below CHI2_BELOW first, then one vectorized Wald draw for the rest."""
    out = np.empty(b.shape)
    pos = b >= CHI2_BELOW
    n_zero = int((~pos).sum())
    if n_zero:
        out[~pos] = rng.chisquare(1, size=n_zero)
    if pos.any():
        out[pos] = 1.0 / rng.wald(1.0 / np.sqrt(b[pos]), 1.0)
    return out


def reference_sample_batch(params: NuParams, n_samples: int, rng, order=None):
    """Per-site batched elimination with samples first and a dense Schur
    update: the loop the field sampler's kernel must match bit for bit,
    draw for draw. Sites are eliminated in `order` (index order by
    default), as index order on (P, eta) relabelled to it, so each step
    updates the trailing block of a dense copy."""
    n = params.n
    order = np.arange(n) if order is None else np.asarray(order, dtype=int)
    p = np.broadcast_to(params.p[np.ix_(order, order)], (n_samples, n, n)).copy()
    eta = np.broadcast_to(params.eta[order], (n_samples, n)).copy()
    beta = np.empty((n_samples, n))
    for k in range(n):
        # a gathered copy of the row, whose sum runs as it always has
        row = p[:, k, :][:, np.arange(k + 1, n)]
        x = _reference_gig((eta[:, k] + row.sum(axis=1)) ** 2, rng)
        col = p[:, k + 1 :, k]
        beta[:, order[k]] = 0.5 * (x + p[:, k, k])
        p[:, k + 1 :, k + 1 :] += col[:, :, None] * col[:, None, :] / x[:, None, None]
        eta[:, k + 1 :] += col * (eta[:, k] / x)[:, None]
    return beta


def two_level_order(p: np.ndarray) -> np.ndarray:
    """The order (R, B) in which the band sampler eliminates the sites of a
    coupling matrix p: R, built site by site in index order, takes each
    site with no earlier neighbour (p[k, j] != 0) in R; then B, the rest,
    in index order."""
    n = p.shape[0]
    in_r = np.zeros(n, dtype=bool)
    for k in range(n):
        in_r[k] = not (p[k, :k] != 0)[in_r[:k]].any()
    return np.concatenate([np.flatnonzero(in_r), np.flatnonzero(~in_r)])


def reference_sample_banded(band: np.ndarray, eta: np.ndarray, rng) -> np.ndarray:
    """Band-storage elimination in index order with a per-site outer product
    written through a skewed view: the loop the band sampler must match draw
    for draw, with beta equal up to the rounding of the summed updates."""
    n, width = band.shape
    bw = width - 1
    # extra rows so near-the-end updates need no branching
    p = np.zeros((n + bw, width))
    p[:n] = band
    eta_w = np.zeros(n + bw)
    eta_w[:n] = np.asarray(eta, dtype=float)
    beta = np.empty(n)
    for k in range(n):
        m = min(bw, n - 1 - k)
        col = p[k, 1 : m + 1]
        eta_hat = eta_w[k] + col.sum()
        x = gig_half_sample(eta_hat**2, rng)
        beta[k] = 0.5 * (x + p[k, 0])
        if m > 0:
            outer = np.outer(col, col) / x
            padded = np.zeros((m, 2 * m))
            padded[:, :m] = outer
            s0, s1 = padded.strides
            skew = np.lib.stride_tricks.as_strided(
                padded, shape=(m, m), strides=(s0 + s1, s1)
            )
            # skew[a, d] = outer[a, a+d]: the (k+1+a, k+1+a+d) update
            p[k + 1 : k + 1 + m, :m] += skew
            eta_w[k + 1 : k + 1 + m] += col * (eta_w[k] / x)
    return beta


def h_beta_banded(band: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """H_beta = 2 diag(beta) - P in solveh_banded's upper storage, for P held
    in the row band storage of banded_coupling (band[i, d] = P[i, i+d]).

    Returns ab of shape (bw + 1, n) with ab[bw + i - j, j] = H[i, j] for
    0 <= j - i <= bw: the band form of h_beta, with the same entries.
    """
    n, width = band.shape
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n,):
        raise DomainError(f"beta must have shape ({n},)")
    bw = width - 1
    ab = np.zeros((width, n))
    for d in range(1, width):
        ab[bw - d, d:] = -band[: n - d, d]
    ab[bw] = 2.0 * beta - band[:, 0]
    return ab


def reference_green_solve_banded(band: np.ndarray, beta, rhs) -> np.ndarray:
    """Ghat_beta rhs by a fresh banded Cholesky factorization of H_beta
    (solveh_banded), not by the factor the band draw kept."""
    return scipy.linalg.solveh_banded(h_beta_banded(band, beta), rhs, lower=False)


def factored(params: NuParams, beta) -> BandSample:
    """A BandSample for a given beta, as if the band draw had made it: a
    dense, unpivoted LDL^T of h_beta(params.p, beta) at bandwidth m - 1, in
    the single draw's layout with an empty first level (rows[k, 0] =
    pivots[k], rows[k, d] = H_k[k, k + d] of the k-th Schur complement) and
    with the samplers' certificate. It lets a test hand a chosen beta,
    positive definite or not, to a function that solves on a draw's kept
    factor."""
    beta = np.asarray(beta, dtype=float)
    h = h_beta(params.p, beta)
    m = h.shape[0]
    rows = np.zeros((m, m))
    pivots = np.empty(m)
    a = h.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            pivots[k] = a[k, k]
            rows[k, 1 : m - k] = a[k, k + 1 :]
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :]) / pivots[k]
    rows[:, 0] = pivots
    return BandSample(beta, _pivots_ok(pivots, np.diag(h)), rows=rows, pivots=pivots)


def banded_coupling(g: WeightedGraph):
    """Row-skewed band storage of g's weight matrix, from its edges: (band,
    bw) with band[i, d] = W[i, i + d] for d = 0..bw."""
    i, j = np.array([e[:2] for e in g.edges], dtype=np.intp).reshape(-1, 2).T
    bw = int((j - i).max(initial=0))
    band = np.zeros((g.n, bw + 1))
    band[i, j - i] = [e[2] for e in g.edges]
    return band, bw


def band_diagonals(band: np.ndarray) -> BandDiagonals:
    """Dense row band storage (band[i, d] = P[i, i + d], as banded_coupling
    gives it) as the diagonals sample_banded reads: column 0 and every
    column d >= 1 that holds a nonzero on P's cells (i < n - d)."""
    band = np.asarray(band, dtype=float)
    n, width = band.shape
    offsets = [d for d in range(1, min(width, n)) if band[: n - d, d].any()]
    return BandDiagonals(np.array(offsets, dtype=np.intp), band[:, [0, *offsets]])


def solved_hat_g(bundle) -> np.ndarray:
    """The bundle's hat_g as one dense array, every column solved on its
    draw's kept factor in one green_solve_banded call; row k holds column k
    (hat_g is symmetric), the column kernel_row(k) reads."""
    m = bundle.m
    return green_solve_banded(bundle.sample, np.eye(m)).reshape(m, m).T


def wired_w(params: NuParams) -> np.ndarray:
    """The wired conductances on the retained set plus delta, delta last:
    params.p with eta on the last row and column, built densely (pass
    bundle.wired.params() for a bundle's)."""
    m = params.n
    w = np.zeros((m + 1, m + 1))
    w[:m, :m] = params.p
    w[:m, m] = params.eta
    w[m, :m] = params.eta
    return w


def dense_tables(w: np.ndarray):
    """A dense conductance matrix (size, size) as the neighbour tables
    QuenchedRates and _rate_rows read: every row lists every state, with
    W's row as its weights."""
    w = np.asarray(w, dtype=float)
    n = w.shape[-1]
    return np.tile(np.arange(n), (n, 1)), w


def dense_rates(table, i0: int, exit=None) -> QuenchedRates:
    """A dense rate table (..., size, size) as QuenchedRates: every row lists
    every state, and exit holds the row sums unless given."""
    table = np.asarray(table, dtype=float)
    nbr, _ = dense_tables(table)
    if exit is None:
        exit = table.sum(axis=-1)
    return QuenchedRates(rates=table, nbr=nbr, exit=exit, i0=i0)


def read_dense(nbr: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Slot values read densely: entry (i, nbr[i, s]) holds slots[..., i, s],
    for one environment or a batch on leading axes. Pad slots hold 0 and
    are added, so a pad that points at a state adds nothing."""
    size = nbr.shape[0]
    out = np.zeros(slots.shape[:-1] + (size,))
    np.add.at(out, (..., np.arange(size)[:, None], nbr), slots)
    return out


def dense_kernel(rates: QuenchedRates) -> np.ndarray:
    """rates.kernel() read densely (read_dense)."""
    return read_dense(rates.nbr, rates.kernel())


def full_kernel(bundle, hat_g=None) -> np.ndarray:
    """The bundle's full kernel on the retained set plus delta as one dense
    array: hat_g (solved_hat_g's by default) + psi psi^T / (2 gamma) on the
    block, psi / (2 gamma) on the delta row and column and 1 / (2 gamma) at
    (delta, delta)."""
    m, psi, gamma = bundle.m, bundle.psi, bundle.gamma
    if hat_g is None:
        hat_g = solved_hat_g(bundle)
    g = np.empty((m + 1, m + 1))
    g[:m, :m] = hat_g + np.outer(psi, psi) / (2.0 * gamma)
    g[:m, m] = psi / (2.0 * gamma)
    g[m, :m] = psi / (2.0 * gamma)
    g[m, m] = 1.0 / (2.0 * gamma)
    return g


def dense_identities(bundle, beta, i0: Optional[int] = None) -> IdentityReport:
    """check_identities computed on dense arrays: the wired W, H and the full
    kernel formed whole and multiplied whole, every field with the streamed
    check's meaning, with hat_g from solved_hat_g."""
    m = bundle.m
    b = np.asarray(beta, dtype=float).reshape(m)
    hat_g = solved_hat_g(bundle)
    root = bundle.i0_index if i0 is None else bundle.position(i0)
    params = bundle.wired.params()
    w = wired_w(params)
    eta = params.eta
    beta_ext = bundle.beta_ext(b)
    psi_e = bundle.psi_ext()

    def rel(err, scale):
        return float(err / max(scale, 1e-300))

    def inv_resid(a, x):
        r = a @ x
        r.flat[:: r.shape[0] + 1] -= 1.0
        err = np.abs(r).max()
        return rel(err, max(max(a.max(), -a.min()) * max(x.max(), -x.min()), 1.0))

    resid = 2.0 * b * bundle.psi - w[:m, :m] @ bundle.psi - eta
    r_harm = rel(np.abs(resid).max(), max(np.abs(eta).max(), 1.0))

    grow = bundle.kernel_row(root)
    exit_rates = _rate_rows(*dense_tables(w), grow).sum(axis=1)
    off_root = np.arange(m + 1) != root
    r_tel = rel(np.abs(exit_rates - beta_ext)[off_root].max(), np.abs(beta_ext).max())
    recon = exit_rates
    recon[root] += 1.0 / (2.0 * grow[root])
    r_beta = rel(np.abs(recon - beta_ext).max(), np.abs(beta_ext).max())

    h = h_beta(w, beta_ext)
    r_hg = inv_resid(h[:m, :m], hat_g)
    kernel = np.outer(psi_e, psi_e)
    kernel /= 2.0 * bundle.gamma
    kernel[:m, :m] += hat_g
    r_full = inv_resid(h, kernel)

    d = np.sqrt(np.diag(hat_g))
    cs = hat_g - np.outer(d, d)
    r_cs = rel(max(cs.max(), 0.0), max(np.abs(hat_g).max(), 1.0))

    hrow = np.append(hat_g[root], 0.0) if root < m else np.zeros(m + 1)
    gcheck = hrow[root] * psi_e - hrow * psi_e[root]
    r_gc = rel(max(-gcheck.min(), 0.0), max(psi_e.max(), 1.0))

    return IdentityReport(
        hg_block=r_hg,
        full_inverse=r_full,
        harmonic=r_harm,
        beta_reconstruction=r_beta,
        cauchy_schwarz=r_cs,
        gcheck_min_violation=r_gc,
        telescoping=r_tel,
    )


# Jumps whose variates the reinforced jump walkers draw at a time.
WALK_CHUNK = 4096


def walk_variates(rng, cap=np.inf):
    """The (standard exponential, uniform) pair of each jump of a reinforced
    jump walk of at most `cap` jumps, in the walkers' draw order: chunks of
    min(WALK_CHUNK, jumps left) exponentials, then as many uniforms. A chunk
    is drawn only when its first pair is asked for, so a walk that stops
    draws no further chunk."""
    left = cap
    while left > 0:
        k = int(min(WALK_CHUNK, left))
        exps = rng.standard_exponential(k)
        picks = rng.random(k)
        for j in range(k):
            yield exps[j], picks[j]
        left -= k


def reference_simulate_vrjp(
    g: WeightedGraph, i0: int, horizon: float, rng, clock: bool = False
):
    """The finite-graph reinforced jump walk as its own event loop with a
    running clock: the loop the walker must match bit for bit, draw for draw.
    A jump reads its pair from `walk_variates`: its wait is the exponential
    over the total rate, and its next vertex the first whose running rate
    sum passes the uniform times the total. Returns (vertices, entry times,
    final local times).

    With clock=True it also keeps a running transformed clock, D(s) =
    sum_i (L_i(s)^2 - 1), read from its own waits as reference_vrjp_lattice
    reads it: a wait w begun at local time L adds 2 L w + w^2. It then
    returns (vertices, entry times, final local times, transformed entry
    times)."""
    local = np.ones(g.n)
    nbrs = [np.array([u for u, _ in g.neighbors[v]], dtype=int) for v in range(g.n)]
    wts = [np.array([w for _, w in g.neighbors[v]]) for v in range(g.n)]
    variates = walk_variates(rng)
    verts = [int(i0)]
    times = [0.0]
    v = int(i0)
    s = 0.0
    d = 0.0
    d_times = [0.0]
    while True:
        nb, wv = nbrs[v], wts[v]
        if nb.size == 0:
            local[v] += horizon - s
            break
        rates = wv * local[nb]
        total = rates.sum()
        e, pick = next(variates)
        wait = (1.0 / total) * e
        if s + wait >= horizon:
            local[v] += horizon - s
            break
        s += wait
        d += 2.0 * float(local[v]) * wait + wait * wait
        local[v] += wait
        u = pick * total
        v = int(nb[np.searchsorted(np.cumsum(rates), u, side="right")])
        verts.append(v)
        times.append(s)
        d_times.append(d)
    if not clock:
        return np.array(verts), np.array(times), local
    return np.array(verts), np.array(times), local, np.array(d_times)


def reference_vrjp_lattice(dim: int, w: float, n_jumps: int, rng):
    """The lattice reinforced walk with coordinate tuples, a dictionary of
    local times and a running transformed clock, reading its jumps' pairs
    from `walk_variates`: the loop the lattice walker must match bit for
    bit. Returns (positions, entry times, transformed entry times)."""
    local = {}
    pos = (0,) * dim
    coords = np.zeros((n_jumps + 1, dim), dtype=int)
    s_times = np.zeros(n_jumps + 1)
    d_times = np.zeros(n_jumps + 1)
    s = 0.0
    d = 0.0
    unit = np.eye(dim, dtype=int)
    for k, (e, pick) in enumerate(walk_variates(rng, n_jumps)):
        nbs = []
        rates = np.empty(2 * dim)
        t = 0
        for ax in range(dim):
            for sgn in (1, -1):
                q = tuple(np.array(pos) + sgn * unit[ax])
                nbs.append(q)
                rates[t] = w * local.get(q, 1.0)
                t += 1
        total = rates.sum()
        wait = (1.0 / total) * e
        lp = local.get(pos, 1.0)
        d += 2.0 * lp * wait + wait * wait
        local[pos] = lp + wait
        s += wait
        u = pick * total
        pos = nbs[int(np.searchsorted(np.cumsum(rates), u, side="right"))]
        coords[k + 1] = pos
        s_times[k + 1] = s
        d_times[k + 1] = d
    return coords, s_times, d_times


def reference_lattice_box(dim: int, radius: int, w: float = 1.0) -> WeightedGraph:
    """The box {x : |x|_inf <= radius} of Z^dim built vertex by vertex:
    row-major ids by divmod over the strides, and for each vertex in turn
    its edge to the next vertex along each axis with room, axis by axis.
    build_lattice_box must give it exactly."""
    side = 2 * radius + 1
    n = side**dim
    strides = [side ** (dim - 1 - k) for k in range(dim)]
    coords = []
    edges = []
    for flat in range(n):
        rem = flat
        offs = []
        for s in strides:
            q, rem = divmod(rem, s)
            offs.append(q)
        coords.append(tuple(q - radius for q in offs))
        for k, s in enumerate(strides):
            if offs[k] + 1 < side:
                edges.append((flat, flat + s, w))
    return WeightedGraph(n=n, edges=tuple(edges), coords=tuple(coords))


def boundary_weights(g: WeightedGraph, subset) -> np.ndarray:
    """For each vertex of `subset` (in the given order), total weight to the
    complement of `subset` in g, summed over its neighbours in edge order."""
    inside = set(int(v) for v in subset)
    out = np.zeros(len(subset))
    for k, v in enumerate(subset):
        for u, w in g.neighbors[int(v)]:
            if u not in inside:
                out[k] += w
    return out


def induced_subgraph(g: WeightedGraph, subset):
    """Subgraph on `subset` (order preserved). Returns (graph, old-to-new map)."""
    subset = [int(v) for v in subset]
    new_id = {v: k for k, v in enumerate(subset)}
    edges = [
        (new_id[i], new_id[j], w)
        for i, j, w in g.edges
        if i in new_id and j in new_id
    ]
    return WeightedGraph(n=len(subset), edges=tuple(edges)), new_id


def reference_marginal_params(g: WeightedGraph, subset) -> NuParams:
    """The wired marginal on `subset` by the graph route: the induced
    subgraph's dense weight matrix and a per-vertex loop over neighbours for
    the boundary vector. WiredBand's edge arrays must give it bit for bit."""
    block = induced_subgraph(g, subset)[0].weight_matrix()
    return NuParams(p=block, eta=boundary_weights(g, subset))


def reference_conductance_ratio(a, ells, n_samples, seed, dim=2, margin=3):
    """The conductance-ratio experiment one environment at a time on dense
    storage: a weighted graph per environment, its marginal parameters, the
    dense batch-of-one loop eliminating in the band sampler's order (R, B),
    a dense LDL^T of that beta and a full Green bundle. The band path must
    match it up to rounding. Returns (mean, stderr) per separation."""
    out = []
    for e_i, ell in enumerate(ells):
        radius = ell // 2 + margin
        box = build_lattice_box(dim, radius + 1, 1.0)
        inner = [v for v in range(box.n) if np.abs(box.coords[v]).max() <= radius]
        rest = (0,) * (dim - 1)
        i_zero = box.coords.index((-(ell // 2),) + rest)
        i_ell = box.coords.index((ell - ell // 2,) + rest)
        rng = stream(seed, "conductance-ratio", e_i)
        gamma_rng = stream(seed, "conductance-ratio-gamma", e_i)
        vals = np.empty(n_samples)
        for s in range(n_samples):
            w_draw = rng.gamma(a, 1.0, size=box.edge_count)
            g_s = WeightedGraph(
                n=box.n,
                edges=tuple(
                    (i, j, float(wd)) for (i, j, _), wd in zip(box.edges, w_draw)
                ),
                coords=box.coords,
            )
            params = reference_marginal_params(g_s, inner)
            order = two_level_order(params.p)
            beta = reference_sample_batch(params, 1, rng, order=order)[0]
            bundle = green_bundle(
                WiredBand.from_graph(g_s, inner),
                factored(params, beta),
                inner,
                float(gamma_rng.gamma(0.5, 1.0)),
                i0=None,
            )
            p0 = bundle.position(i_zero)
            pl = bundle.position(i_ell)
            grow = full_kernel(bundle)[p0]
            x = grow * (wired_w(params) @ grow)
            vals[s] = (x[pl] / x[p0]) ** 0.25
        out.append((float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))))
    return out


class EnumerationError(VrjpError, ValueError):
    """A path enumeration exceeds the configured length cap."""


class ConditioningError(VrjpError, ValueError):
    """A conditioned chain is requested from a state the conditioning excludes."""


def _certified_cholesky(h: np.ndarray):
    """The lower Cholesky factor of h, or None unless h factors with every
    squared pivot at least PIVOT_RTOL times its largest diagonal entry."""
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None
    scale = max(np.abs(np.diag(h)).max(initial=0.0), 1e-300)
    return chol if (np.diag(chol) ** 2 >= PIVOT_RTOL * scale).all() else None


def spd_certificate(p: np.ndarray, beta: np.ndarray) -> bool:
    """True when H_beta = 2 diag(beta) - p factors as SPD with a relative
    pivot threshold of 1e-12: a second, dense factorization of the operator
    a draw was meant to make positive definite."""
    return _certified_cholesky(h_beta(p, beta)) is not None


def log_density(params: NuParams, beta: np.ndarray) -> float:
    """Log of the Lebesgue density; -inf outside the positivity region.

    Accumulates in log space so large vertex sets do not underflow.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (params.n,):
        raise DomainError("beta length must match vertex count")
    if not np.isfinite(beta).all():
        raise DomainError("beta must be finite")
    n = params.n
    h = h_beta(params.p, beta)
    chol = _certified_cholesky(h)
    if chol is None:
        return -np.inf
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    quad = 0.5 * float(np.ones(n) @ h @ np.ones(n))
    if params.eta.any():
        y = scipy.linalg.cho_solve((chol, True), params.eta)
        quad += 0.5 * float(params.eta @ y)
    return (
        0.5 * n * np.log(2.0 / np.pi)
        - quad
        + float(params.eta.sum())
        - 0.5 * logdet
    )


def density(params: NuParams, beta: np.ndarray) -> float:
    """Lebesgue density of the law at beta; exactly 0.0 off the support."""
    ld = log_density(params, beta)
    return float(np.exp(ld)) if np.isfinite(ld) else 0.0


def schur_step(params: NuParams, site: int, x: float) -> NuParams:
    """Eliminate `site` given its shifted potential x = 2 beta_site - P_ss.

    The remaining sites keep their relative order; their coupling gains the
    rank-one update P_rest,s P_s,rest / x (this creates diagonal entries) and
    eta gains P_rest,s eta_s / x.
    """
    if not (0 <= site < params.n):
        raise DomainError(f"site {site} out of range")
    if x <= 0:
        raise DomainError(f"shifted potential must be positive, got {x}")
    keep = [k for k in range(params.n) if k != site]
    col = params.p[keep, site]
    p = params.p[np.ix_(keep, keep)] + np.outer(col, col) / x
    eta = params.eta[keep] + col * (params.eta[site] / x)
    return NuParams(p=p, eta=eta)


def sample_errw_env(g: WeightedGraph, a, rng):
    """Sample the annealed environment: independent Gamma(a_e) conductances,
    then the field given those conductances. Returns (edge weights, beta)
    with weights aligned to g.edges order."""
    a = np.broadcast_to(np.asarray(a, dtype=float), (g.edge_count,))
    if not (np.isfinite(a) & (a > 0)).all():
        raise DomainError("Gamma shapes must be positive and finite")
    w_draw = rng.gamma(shape=a, scale=1.0)
    p = np.zeros((g.n, g.n))
    for (i, j, _), w in zip(g.edges, w_draw):
        p[i, j] = w
        p[j, i] = w
    return w_draw, sample_batch(NuParams(p=p, eta=np.zeros(g.n)), 1, rng).beta[0]


PATH_CAP_DEFAULT = 12


def enumerate_paths(
    g: WeightedGraph,
    i: int,
    stop_set: Iterable[int] = (),
    max_len: int = 0,
    cap: int = PATH_CAP_DEFAULT,
):
    """All nearest-neighbor paths from i of length <= max_len, breadth first.

    With an empty stop set, every path is returned, including the trivial
    single-vertex path. With a nonempty stop set, only paths whose final
    vertex is their first visit to the stop set are returned (paths are cut
    at the first hit and never continued past it).
    """
    if max_len > cap:
        raise EnumerationError(f"max_len {max_len} exceeds cap {cap}")
    if not (0 <= i < g.n):
        raise DomainError(f"start vertex {i} out of range")
    stop = set(int(v) for v in stop_set)
    out = []
    start = (int(i),)
    if stop:
        if i in stop:
            return [start]
    else:
        out.append(start)
    frontier = [start]
    for _ in range(max_len):
        nxt = []
        for path in frontier:
            v = path[-1]
            for u, _w in g.neighbors[v]:
                new = path + (u,)
                if stop:
                    if u in stop:
                        out.append(new)
                    else:
                        nxt.append(new)
                else:
                    out.append(new)
                    nxt.append(new)
        frontier = nxt
    return out


def path_weight(g: WeightedGraph, path: Sequence[int]) -> float:
    """Product of edge conductances along the path (1.0 for a trivial path)."""
    out = 1.0
    for a, b in zip(path[:-1], path[1:]):
        w = edge_weight(g, int(a), int(b))
        if w == 0.0:
            raise DomainError(f"({a},{b}) is not an edge")
        out *= w
    return out


def path_beta_factor(
    beta: np.ndarray, path: Sequence[int], include_last: bool = True
) -> float:
    """Product of 2*beta over the path's vertices.

    include_last=False drops the final vertex, the convention used for
    boundary-hitting sums (equals 1.0 for a trivial path).
    """
    verts = path if include_last else path[:-1]
    out = 1.0
    for v in verts:
        out *= 2.0 * float(beta[int(v)])
    return out


def truncated_green_pathsum(
    g: WeightedGraph,
    beta,
    i: int,
    j: int,
    k_max: int,
    cap: int = PATH_CAP_DEFAULT,
) -> float:
    """Sum of W_path / prod(2 beta) over paths from i to j of length <= k_max.

    Monotone nondecreasing in k_max and bounded by the solver Green entry.
    """
    b = np.asarray(beta, dtype=float)
    total = 0.0
    for path in enumerate_paths(g, i, stop_set=(), max_len=k_max, cap=cap):
        if path[-1] == int(j):
            total += path_weight(g, path) / path_beta_factor(b, path, include_last=True)
    return total


def assemble_H(g: WeightedGraph, beta) -> np.ndarray:
    """The dense operator: 2 beta_i on the diagonal and -W_ij off it."""
    b = np.asarray(beta, dtype=float)
    if b.shape != (g.n,):
        raise DomainError("beta length must match vertex count")
    return h_beta(g.weight_matrix(), b)


def u_field(g: WeightedGraph, beta, i0: int) -> np.ndarray:
    """u(i0, .) = log G(i0, .) - log G(i0, i0) on a full finite graph, with
    G the inverse of the assembled operator."""
    try:
        factor = scipy.linalg.cho_factor(assemble_H(g, beta), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(f"operator is not positive definite: {exc}") from exc
    e = np.zeros(g.n)
    e[int(i0)] = 1.0
    col = scipy.linalg.cho_solve(factor, e)
    if (col <= 0).any():
        raise NumericError("Green row is not positive; operator too close to singular")
    return np.log(col) - np.log(col[int(i0)])


def q_density(g: WeightedGraph, u: np.ndarray, i0: int) -> float:
    """Density of the rooted u-field law on a full finite graph.

    u must vanish at the root. The determinant factor is the (i0, i0)
    diagonal minor of the matrix with -W_ij e^(u_i + u_j) off the diagonal
    and row sums negated on it (a weighted spanning-tree count, so it is
    nonnegative).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (g.n,):
        raise DomainError("u length must match vertex count")
    if not np.isfinite(u).all():
        raise DomainError("u must be finite")
    if abs(u[int(i0)]) > 1e-12:
        raise DomainError("u must vanish at the root")
    w = g.weight_matrix()
    e_u = np.exp(u)
    m = -w * np.outer(e_u, e_u)
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    keep = [v for v in range(g.n) if v != int(i0)]
    minor = m[np.ix_(keep, keep)]
    sign, logdet = np.linalg.slogdet(minor)
    if sign <= 0:
        return 0.0
    pair_term = 0.0
    for a, bb, ww in g.edges:
        pair_term += ww * (np.cosh(u[a] - u[bb]) - 1.0)
    n = g.n
    log_val = (
        -0.5 * (n - 1) * np.log(2.0 * np.pi)
        - u.sum()
        - pair_term
        + 0.5 * logdet
    )
    return float(np.exp(log_val))


def spectrum_bottom(h: np.ndarray) -> float:
    """Smallest eigenvalue of a dense symmetric operator."""
    mat = np.asarray(h, dtype=float)
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
        raise DomainError("operator must be symmetric")
    return float(np.linalg.eigvalsh(mat)[0])


def time_change_maps(traj: Trajectory):
    """Return (D, D_inverse) as vectorized callables for the trajectory's
    time window; D(horizon) is the transformed horizon. Per segment: its
    entry time, its duration, and the occupied vertex's local time as it
    began, rebuilt from the event list."""
    if traj.times is None or traj.horizon is None:
        raise DomainError("time change needs a continuous trajectory")
    s = traj.times
    durations = np.empty(len(s))
    durations[:-1] = np.diff(s)
    durations[-1] = traj.horizon - s[-1]
    local: Dict[int, float] = {}
    entered = []
    for vk, dk in zip(traj.vertices.tolist(), durations.tolist()):
        lv = local.get(vk, 1.0)
        entered.append(lv)
        local[vk] = lv + dk
    enter_local = np.array(entered)
    d_entry = np.concatenate(
        [[0.0], np.cumsum(2.0 * enter_local * durations + durations**2)]
    )
    s_end = float(traj.horizon)

    def d_map(x):
        x = np.asarray(x, dtype=float)
        if (x < 0).any() or (x > s_end + 1e-12).any():
            raise DomainError("argument outside simulated window")
        k = np.clip(np.searchsorted(s, x, side="right") - 1, 0, len(s) - 1)
        dx = x - s[k]
        return d_entry[k] + 2.0 * enter_local[k] * dx + dx**2

    t_end = float(d_entry[-1])

    def d_inv(t):
        t = np.asarray(t, dtype=float)
        if (t < 0).any() or (t > t_end + 1e-9).any():
            raise DomainError("argument outside transformed window")
        k = np.clip(np.searchsorted(d_entry, t, side="right") - 1, 0, len(s) - 1)
        dt = t - d_entry[k]
        x = np.sqrt(enter_local[k] ** 2 + dt) - enter_local[k]
        return s[k] + x

    return d_map, d_inv


def h_transform_rates(bundle, i0, mode: str) -> QuenchedRates:
    """Conditioned rate tables for the quenched chain rooted at i0.

    mode="return": conditioned to return to i0 before delta; rates use ratios
    of the killed kernel (hat_g row), so they carry no gamma dependence, and
    transitions into delta vanish. mode="no-return": conditioned to hit delta
    first; rates use the complementary kernel and transitions into i0 vanish.
    In both modes the chain is meant to run until the conditioning time
    (return, resp. hitting delta); rows the conditioning makes unreachable
    are zero.
    """
    p0 = bundle.position(i0)
    if p0 == bundle.delta_index:
        raise DomainError("the root must be a retained vertex")
    if mode not in ("return", "no-return"):
        raise DomainError(f"unknown mode {mode!r}")
    m = bundle.m
    w = wired_w(bundle.wired.params())
    # the root row of hat_g, zero on delta
    hrow = np.append(solved_hat_g(bundle)[p0], 0.0)
    psi_e = bundle.psi_ext()
    grow = full_kernel(bundle)[p0]
    exit0 = 0.5 * float((w[p0] * grow).sum()) / grow[p0]

    if mode == "return":
        h = hrow
    else:
        h = hrow[p0] * psi_e - hrow * psi_e[p0]
        h[p0] = 0.0
    rates = np.zeros((m + 1, m + 1))
    pos = h > 0
    pos[p0] = False
    rates[pos] = 0.5 * w[pos] * (h[None, :] / h[pos, None])
    rates[:, ~ (h > 0)] = 0.0
    # root row: first-step tilt by the conditioning probability of the target
    scores = w[p0] * h
    total = scores.sum()
    if total <= 0:
        raise ConditioningError("conditioning unreachable from the root")
    rates[p0] = exit0 * scores / total
    rates[bundle.delta_index] = 0.0
    return dense_rates(rates, p0)


def reference_quenched_chain(
    rates: QuenchedRates, start: int, steps: int, rng
) -> np.ndarray:
    """Visited states of the environment-fixed jump chain from `start`, one
    `rng.choice` over the normalized kernel row per step. choice draws one
    uniform per step, as vrjp.quenched_mjp does, but compares it with the
    row's CDF divided by its last entry rather than scaling the uniform, so
    the two agree except for a uniform within rounding of a running sum."""
    kern = dense_kernel(rates)
    verts = [int(start)]
    v = int(start)
    for _ in range(steps):
        row = kern[v]
        if row.sum() <= 0:
            raise DomainError(f"state {v} has no outgoing rate")
        v = int(rng.choice(rates.size, p=row))
        verts.append(v)
    return np.array(verts)


def run_replicas(task, n: int, seed: int, name: str = "replicas") -> EstimatorReport:
    """Run a pure sampling task across n replica streams.

    Each replica gets the stream keyed by its index, so the report is
    bit-identical for fixed (seed, n). Task failures carry the replica
    index.
    """
    if n < 1:
        raise DomainError("need at least one replica")

    def one(k: int) -> float:
        try:
            return float(task(stream(seed, "replica", k)))
        except Exception as exc:
            raise RuntimeError(f"replica {k} failed: {exc}") from exc

    values = np.fromiter(map(one, range(n)), dtype=float, count=n)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    qs = np.quantile(values, [0.25, 0.5, 0.75]) if n > 1 else [mean] * 3
    extra = {"q25": float(qs[0]), "median": float(qs[1]), "q75": float(qs[2])}
    return EstimatorReport(name=name, mean=mean, stderr=stderr, n=n, extra=extra)


def ks_test(samples: np.ndarray, cdf):
    """One-sample Kolmogorov-Smirnov test against a CDF callable."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1000:
        raise TestError("KS test needs at least 1000 samples")
    if not np.isfinite(samples).all():
        raise TestError("KS test got non-finite samples")
    res = stats.kstest(samples, cdf)
    return float(res.statistic), float(res.pvalue)


def srw_paths(
    dim: int, n_walks: int, length: int, rng: np.random.Generator
) -> np.ndarray:
    """Coordinate paths of the simple random walk started at the origin,
    shape (n_walks, length + 1, dim)."""
    moves = np.zeros((2 * dim, dim), dtype=np.int64)
    for ax in range(dim):
        moves[2 * ax, ax] = 1
        moves[2 * ax + 1, ax] = -1
    picks = rng.integers(0, 2 * dim, size=(n_walks, length))
    steps = moves[picks]
    paths = np.zeros((n_walks, length + 1, dim), dtype=np.int64)
    np.cumsum(steps, axis=1, out=paths[:, 1:])
    return paths


def _coordinate_paths(trajs, g: Optional[WeightedGraph]) -> np.ndarray:
    if isinstance(trajs, np.ndarray):
        if trajs.ndim != 3:
            raise DomainError("coordinate path array must be (walks, steps, dim)")
        return trajs
    if g is None or g.coords is None:
        raise DomainError("trajectory input needs a graph with coordinates")
    lens = {len(t.vertices) for t in trajs}
    if len(lens) != 1:
        raise DomainError("all trajectories must have equal length")
    verts = np.stack([t.vertices for t in trajs])
    return g.coord_array()[verts]


def diffusion_estimate(
    trajs,
    g: Optional[WeightedGraph] = None,
    radius: Optional[int] = None,
    ladder: Optional[Sequence[int]] = None,
    name: str = "diffusion",
) -> EstimatorReport:
    """Mean-squared-displacement estimator on lattice walks.

    trajs is either a list of discrete Trajectory objects on a box graph g
    (with coordinates) or a coordinate array (walks, steps + 1, dim). Walks
    that touch the box boundary (sup-norm radius) are discarded, and the
    discard rate is reported; with all walks discarded the estimate is
    impossible. The headline number is E|X_n|^2 / n at the largest ladder
    point (1 for the simple random walk at any n); extra carries the per-rung
    values, the normalized variance sigma2 = E|X_n|^2/(d n), and a
    slope-ratio growth diagnostic with a superdiffusive/subdiffusive flag.
    """
    paths = _coordinate_paths(trajs, g)
    n_walks, n_pts, dim = paths.shape
    length = n_pts - 1
    if length < 1:
        raise DomainError("walks must have at least one step")
    if radius is None and g is not None and g.coords is not None:
        radius = int(np.abs(g.coords).max())
    if radius is not None:
        inside = (np.abs(paths).max(axis=(1, 2)) < radius)
    else:
        inside = np.ones(n_walks, dtype=bool)
    discard_rate = 1.0 - inside.mean()
    if not inside.any():
        raise CoverageError("every walk touched the boundary")
    kept = paths[inside]
    if ladder is None:
        ladder = sorted({max(1, length // 8), length // 4, length // 2, length})
    ladder = [int(x) for x in ladder]
    if any(x < 1 or x > length for x in ladder):
        raise DomainError("ladder points must lie in [1, walk length]")
    disp = kept[:, ladder, :] - kept[:, :1, :]
    d2 = (disp.astype(float) ** 2).sum(axis=2)
    m = d2.mean(axis=0)
    n_arr = np.array(ladder, dtype=float)
    sigma2 = m / (dim * n_arr)
    final = d2[:, -1] / n_arr[-1]
    mean = float(final.mean())
    stderr = float(final.std(ddof=1) / np.sqrt(final.shape[0]))
    if len(ladder) >= 3 and m[-1] > 0:
        lo = (m[1] - m[0]) / (n_arr[1] - n_arr[0])
        hi = (m[-1] - m[-2]) / (n_arr[-1] - n_arr[-2])
        slope_ratio = float(hi / lo) if lo > 0 else float("inf")
    else:
        slope_ratio = 1.0
    if m[-1] == 0:
        flag = "degenerate"
    elif slope_ratio > 2.0:
        flag = "superdiffusive"
    elif slope_ratio < 0.5:
        flag = "subdiffusive"
    else:
        flag = "diffusive"
    extra = {
        "ladder": ladder,
        "msd": [float(x) for x in m],
        "sigma2": [float(x) for x in sigma2],
        "slope_ratio": slope_ratio,
        "discard_rate": float(discard_rate),
        "flag": flag,
        "kept": int(inside.sum()),
    }
    return EstimatorReport(name=name, mean=mean, stderr=stderr, n=int(inside.sum()), extra=extra)
