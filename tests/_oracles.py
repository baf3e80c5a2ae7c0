"""Independent oracles shared by the tests.

Everything here recomputes target quantities by a route disjoint from the
code under test: naive recursive path enumeration, adaptive quadrature of
closed-form densities, quadrature means, the wired marginal by way of an
induced subgraph, and banded Green solves by a fresh factorization of H_beta
(solveh_banded). Slow is fine; independent is the point.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy import integrate

from vrjp import (
    DomainError,
    NuParams,
    WeightedGraph,
    build_lattice_box,
    density,
    gig_half_sample,
    green_bundle,
    q_density,
    sample_sequential,
    stream,
)

SE_RULE = 4.0
ALPHA = 0.01


def se(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(x.std(ddof=1) / np.sqrt(x.shape[0]))


def zscore(x: np.ndarray, target: float) -> float:
    x = np.asarray(x, dtype=float)
    return abs(float(x.mean()) - target) / se(x)


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

    def random(self):
        return float(np.nextafter(1.0, 0.0))


def ring_graph(n: int, w: float = 1.0) -> WeightedGraph:
    """Cycle on n >= 3 vertices: vertex-transitive, so per-site laws match."""
    edges = [(k, k + 1, w) for k in range(n - 1)] + [(0, n - 1, w)]
    return WeightedGraph(n=n, edges=tuple(edges))


def _reference_gig(b: np.ndarray, rng) -> np.ndarray:
    """GIG(1/2) pivots for a whole batch: chi-square draws for the zero
    shapes first, then one vectorized Wald draw for the rest."""
    out = np.empty(b.shape)
    pos = b > 0
    n_zero = int((~pos).sum())
    if n_zero:
        out[~pos] = rng.chisquare(1, size=n_zero)
    if pos.any():
        out[pos] = 1.0 / rng.wald(1.0 / np.sqrt(b[pos]), 1.0)
    return out


def reference_sample_batch(params: NuParams, n_samples: int, rng, order=None):
    """Per-site batched elimination with samples first and a fancy-index
    Schur update: the loop the field sampler's kernel must match bit for
    bit, draw for draw."""
    n = params.n
    order = [int(k) for k in (range(n) if order is None else order)]
    p = np.broadcast_to(params.p, (n_samples, n, n)).copy()
    eta = np.broadcast_to(params.eta, (n_samples, n)).copy()
    beta = np.empty((n_samples, n))
    for pos, k in enumerate(order):
        rest = np.array(order[pos + 1 :], dtype=int)
        if rest.size:
            eta_hat = eta[:, k] + p[:, k, :][:, rest].sum(axis=1)
        else:
            eta_hat = eta[:, k]
        x = _reference_gig(eta_hat**2, rng)
        beta[:, k] = 0.5 * (x + p[:, k, k])
        if rest.size:
            col = p[:, rest, k]
            p[:, rest[:, None], rest[None, :]] += (
                col[:, :, None] * col[:, None, :] / x[:, None, None]
            )
            eta[:, rest] += col * (eta[:, k] / x)[:, None]
    return beta


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


def reference_simulate_vrjp(
    g: WeightedGraph, i0: int, horizon: float, rng, clock: bool = False
):
    """The finite-graph reinforced jump walk as its own event loop with a
    running clock: the loop the walker must match bit for bit, draw for draw.
    Returns (vertices, entry times, final local times).

    With clock=True it also keeps a running transformed clock, D(s) =
    sum_i (L_i(s)^2 - 1), read from the recorded entry times as the time
    change must read it: each segment lasts the difference of its entry
    times (the last one ends at the horizon) and adds 2 L ds + ds^2, L being
    the occupied vertex's local time built from those segments. It then
    returns (vertices, entry times, final local times, transformed entry
    times, transformed horizon)."""
    local = np.ones(g.n)
    nbrs = [np.array([u for u, _ in g.neighbors[v]], dtype=int) for v in range(g.n)]
    wts = [np.array([w for _, w in g.neighbors[v]]) for v in range(g.n)]
    verts = [int(i0)]
    times = [0.0]
    v = int(i0)
    s = 0.0
    seg_local = {}
    d = 0.0
    d_times = [0.0]

    def segment(v, ds):
        nonlocal d
        lv = seg_local.get(v, 1.0)
        d += 2.0 * lv * ds + ds * ds
        seg_local[v] = lv + ds

    while True:
        nb, wv = nbrs[v], wts[v]
        if nb.size == 0:
            local[v] += horizon - s
            break
        rates = wv * local[nb]
        total = rates.sum()
        wait = rng.exponential(1.0 / total)
        if s + wait >= horizon:
            local[v] += horizon - s
            break
        s_in = s
        s += wait
        local[v] += wait
        segment(v, s - s_in)
        u = rng.random() * total
        v = int(nb[np.searchsorted(np.cumsum(rates), u, side="right")])
        verts.append(v)
        times.append(s)
        d_times.append(d)
    if not clock:
        return np.array(verts), np.array(times), local
    segment(v, horizon - s)
    return np.array(verts), np.array(times), local, np.array(d_times), d


def reference_vrjp_lattice(dim: int, w: float, n_jumps: int, rng):
    """The lattice reinforced walk with coordinate tuples, a dictionary of
    local times and a running transformed clock: the loop the lattice walker
    must match bit for bit. Returns (positions, entry times, transformed
    entry times)."""
    local = {}
    pos = (0,) * dim
    coords = np.zeros((n_jumps + 1, dim), dtype=int)
    s_times = np.zeros(n_jumps + 1)
    d_times = np.zeros(n_jumps + 1)
    s = 0.0
    d = 0.0
    unit = np.eye(dim, dtype=int)
    for k in range(n_jumps):
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
        wait = rng.exponential(1.0 / total)
        lp = local.get(pos, 1.0)
        d += 2.0 * lp * wait + wait * wait
        local[pos] = lp + wait
        s += wait
        u = rng.random() * total
        pos = nbs[int(np.searchsorted(np.cumsum(rates), u, side="right"))]
        coords[k + 1] = pos
        s_times[k + 1] = s
        d_times[k + 1] = d
    return coords, s_times, d_times


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
    dense sequential sampler and a full Green bundle. The band path must
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
            beta = sample_sequential(params, None, rng).beta
            bundle = green_bundle(
                params, beta, inner, float(gamma_rng.gamma(0.5, 1.0)), i0=None
            )
            p0 = bundle.position(i_zero)
            pl = bundle.position(i_ell)
            grow = bundle.full_g[p0]
            x = grow * (bundle.w_wired @ grow)
            vals[s] = (x[pl] / x[p0]) ** 0.25
        out.append((float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))))
    return out
