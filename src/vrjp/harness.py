"""Monte Carlo plumbing: standard-error reports, the two-sample word
chi-square test, simple-random-walk endpoints drawn in blocks of walks, and
the desk-scale experiments. The mixing field rooted at a vertex is drawn by
the private `_rooted_u_samples`, for the cosh-moment experiment alone.

Determinism contract: every experiment draws from counter-based streams
keyed by (seed, experiment, index), so results are bit-identical for a fixed
seed. The one-sample KS test, the replica runner, the full-path random walk
and the lattice diffusion estimator are test oracles (tests/_oracles.py).

Each experiment refuses, with DomainError and before it draws, a sample
count it cannot report on: psi-decay and vrjp-diffusion need at least one
sample or walk, and cosh-moment and conductance-ratio, which report a
standard error, at least two. Experiment config files are read and checked
by the command line (vrjp.cli).

Closed-form-vs-Monte-Carlo comparisons elsewhere in the package use the
4-standard-error rule; significance for p-value tests is fixed at 0.01
(verify.ALPHA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.special import chdtrc

from .betafield import (
    NuParams,
    WiredBand,
    sample_banded,
    sample_batch,
)
from .errors import CoverageError, DomainError, PreconditionError, TestError
from .graphs import WeightedGraph, _refuse_beyond_memory
from .processes import simulate_vrjp_lattice
from .schrodinger import _kernel_row, green_solve_banded
from .streams import stream

__all__ = [
    "EstimatorReport",
    "word_chi2",
    "srw_endpoints",
    "psi_decay_experiment",
    "cosh_moment_experiment",
    "conductance_ratio_experiment",
    "vrjp_diffusion_experiment",
]

SE_RULE = 4.0


@dataclass(frozen=True)
class EstimatorReport:
    """Point estimate with its Monte Carlo standard error.

    stderr is the sample standard deviation over replicas divided by sqrt(n).
    extra carries quantiles and named diagnostics.
    """

    name: str
    mean: float
    stderr: float
    n: int
    extra: Dict[str, object] = field(default_factory=dict)


def word_chi2(words_a: np.ndarray, words_b: np.ndarray) -> float:
    """Two-sample chi-square over word histograms.

    Words are fixed-length symbol rows; cells are pooled (smallest combined
    counts first) until every expected count is at least 5. Returns the
    p-value for homogeneity of the two word distributions, the chi-square
    survival function `chdtrc`, which gives `scipy.stats.chi2.sf`'s bits.
    """
    wa = np.asarray(words_a, dtype=int)
    wb = np.asarray(words_b, dtype=int)
    if wa.ndim != 2 or wb.ndim != 2 or wa.shape[1] != wb.shape[1]:
        raise TestError("word arrays must be 2-d with equal word length")
    n1, n2 = wa.shape[0], wb.shape[0]
    if min(n1, n2) < 1000:
        raise TestError("chi-square needs at least 1000 words per side")
    base = int(max(wa.max(), wb.max())) + 1
    powers = base ** np.arange(wa.shape[1])
    size = base ** wa.shape[1]
    ca = np.bincount(wa @ powers, minlength=size).astype(float)
    cb = np.bincount(wb @ powers, minlength=size).astype(float)
    combined = ca + cb
    live = combined > 0
    ca, cb, combined = ca[live], cb[live], combined[live]
    # expected count in the smaller sample must reach 5
    need = 5.0 * (n1 + n2) / min(n1, n2)
    order = np.argsort(combined)[::-1]
    keep = combined[order] >= need
    kept = order[keep]
    pooled = order[~keep]
    obs1 = list(ca[kept])
    obs2 = list(cb[kept])
    if pooled.size:
        pa, pb = ca[pooled].sum(), cb[pooled].sum()
        if pa + pb >= need or not obs1:
            obs1.append(pa)
            obs2.append(pb)
        else:
            obs1[-1] += pa
            obs2[-1] += pb
    o = np.array([obs1, obs2])
    if o.shape[1] < 2:
        raise TestError("fewer than two cells after pooling")
    col = o.sum(axis=0)
    rowsum = o.sum(axis=1, keepdims=True)
    expected = rowsum * col[None, :] / (n1 + n2)
    stat = ((o - expected) ** 2 / expected).sum()
    df = o.shape[1] - 1
    return float(chdtrc(df, stat))


# picks drawn per block of walks: about 8 MB of int64 at a time
SRW_BLOCK_PICKS = 1 << 20


def srw_endpoints(
    dim: int, n_walks: int, length: int, rng: np.random.Generator
) -> np.ndarray:
    """Endpoints X_length of simple random walks started at the origin,
    shape (n_walks, dim), int64.

    Step picks (2 ax means +e_ax, 2 ax + 1 means -e_ax) are drawn as
    rng.integers(0, 2 dim, size=(c, length)) over blocks of c walks; the
    blocks consume the generator exactly as one (n_walks, length) draw does.
    Each block's endpoints come from one bincount of its picks, offset by
    2 dim per walk; no step or path array is formed.
    """
    dim, n_walks, length = int(dim), int(n_walks), int(length)
    if dim < 1 or n_walks < 1 or length < 1:
        raise DomainError("dim, n_walks and length must be positive")
    per_block = max(1, SRW_BLOCK_PICKS // length)
    _refuse_beyond_memory(
        8 * min(per_block, n_walks) * length, f"a block of walks of {length} steps"
    )
    ends = np.empty((n_walks, dim), dtype=np.int64)
    for lo in range(0, n_walks, per_block):
        c = min(per_block, n_walks - lo)
        picks = rng.integers(0, 2 * dim, size=(c, length), dtype=np.int64)
        picks += 2 * dim * np.arange(c, dtype=np.int64)[:, None]
        counts = np.bincount(picks.ravel(), minlength=2 * dim * c).reshape(c, dim, 2)
        ends[lo : lo + c] = counts[:, :, 0] - counts[:, :, 1]
    return ends


def psi_decay_experiment(
    dim: int,
    w: float,
    radii: Sequence[int],
    n_samples: int,
    seed: int,
) -> List[Dict[str, float]]:
    """Quantiles of the boundary-hitting sum at the box center per radius.

    For each radius, the box wired inside the box one layer larger
    (WiredBand.box, from the geometry, with no graph built) gives P by its
    d nonzero diagonals and eta, each site's crossing weights w summed; the
    potential is drawn from those (sample_banded) and psi = Ghat eta is
    solved with the draw's own LDL^T factor. The band path keeps d = 3,
    radius 8 tractable. The center is the middle row-major site,
    (n - 1) // 2. Rows carry median and quartiles; callers read the median
    trend (decay vs stabilization).
    """
    radii = [int(r) for r in radii]
    if radii != sorted(radii):
        raise DomainError("radii must be increasing")
    if n_samples < 1:
        raise DomainError("psi-decay needs at least 1 sample")
    rows: List[Dict[str, float]] = []
    for r_i, radius in enumerate(radii):
        band, eta = WiredBand.box(dim, radius, w).fill()
        center = (eta.size - 1) // 2
        rng = stream(seed, "psi-decay", r_i)
        vals = np.empty(n_samples)
        for s in range(n_samples):
            psi = green_solve_banded(sample_banded(band, eta, rng), eta)
            vals[s] = psi[center]
        q = np.quantile(vals, [0.25, 0.5, 0.75])
        rows.append(
            {
                "radius": float(radius),
                "q25": float(q[0]),
                "median": float(q[1]),
                "q75": float(q[2]),
                "n": float(n_samples),
            }
        )
    return rows


def _min_hops_with_capacity(
    g: WeightedGraph, src: int, dst: int, min_weight: float
) -> Optional[int]:
    """Breadth-first hop count from src to dst using only edges of weight at
    least min_weight."""
    if src == dst:
        return 0
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for u, wt in g.neighbors[v]:
                if wt >= min_weight and u not in dist:
                    dist[u] = dist[v] + 1
                    if u == dst:
                        return dist[u]
                    nxt.append(u)
        frontier = nxt
    return None


def _rooted_u_samples(
    g: WeightedGraph, i0: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Samples of the mixing field rooted at i0, shape (n_samples, n).

    The root plays the part of the boundary vertex: draw the potential on
    the other vertices with the root's conductance column as coupling
    vector, then u = log of the resulting boundary-hitting sums (u is 0 at
    the root itself), solved on the factor the draw kept.
    """
    keep = [v for v in range(g.n) if v != int(i0)]
    w = g.weight_matrix()
    params = NuParams(p=w[np.ix_(keep, keep)], eta=w[keep, int(i0)])
    psi = green_solve_banded(sample_batch(params, n_samples, rng), params.eta)
    u = np.zeros((n_samples, g.n))
    u[:, keep] = np.log(psi)
    return u


def cosh_moment_experiment(
    g: WeightedGraph,
    i0: int,
    i: int,
    j: int,
    eta: float,
    n_samples: int,
    seed: int = 0,
) -> EstimatorReport:
    """Empirical mean of cosh(u(i0,j) - u(i0,i))^eta against the closed
    bound 2^(K/2), K the hop count of a path from i to j whose edges all
    carry weight >= 2 eta; u is the mixing field rooted at i0.

    The power statistic is the integrable form of the estimate: the
    spanning-tree tilt argument bounds it edge by edge, while exponential
    cosh moments blow up once i and j are two or more hops apart.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    if n_samples < 2:
        raise DomainError("cosh-moment needs at least 2 samples for a standard error")
    k_hops = _min_hops_with_capacity(g, int(i), int(j), 2.0 * eta)
    if k_hops is None:
        raise PreconditionError(
            "no path between i and j with all edge weights >= 2*eta"
        )
    if k_hops == 0:
        return EstimatorReport(
            name="cosh-moment-K0",
            mean=1.0,
            stderr=0.0,
            n=n_samples,
            extra={"bound": 1.0, "k": 0.0},
        )
    rng = stream(seed, "cosh-moment")
    u = _rooted_u_samples(g, int(i0), n_samples, rng)
    vals = np.cosh(u[:, int(j)] - u[:, int(i)]) ** eta
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return EstimatorReport(
        name=f"cosh-moment-K{k_hops}",
        mean=mean,
        stderr=stderr,
        n=n_samples,
        extra={"bound": float(2.0 ** (k_hops / 2.0)), "k": float(k_hops)},
    )


# Layers of the conductance-ratio box beyond the sites 0 and ell.
RATIO_MARGIN = 3


def conductance_ratio_experiment(
    a: float,
    ells: Sequence[int],
    n_samples: int,
    seed: int,
    dim: int = 2,
) -> List[EstimatorReport]:
    """Quarter-moment of the conductance ratio x_ell / x_0 per separation.

    Environment: iid Gamma(a, 1) edge weights on a box holding both 0 and
    ell with RATIO_MARGIN extra layers, wired boundary, potential drawn from the
    matching law, x_i = sum_j W_ij G(i0, i) G(i0, j) with i0 the site of 0
    and G the kernel on the retained box plus delta, coupled through an
    independent Gamma(1/2) variable.

    Each separation's edge index arrays (WiredBand.box, from the box's
    geometry, one Gamma weight per edge of the outer box in
    build_lattice_box's edge order) are built once. Per environment, the
    weights are scattered onto the box's d diagonals (WiredBand.fill) and
    the boundary vector, the field is drawn by sample_banded, and psi and
    the Green row of i0 come from its LDL^T factor (green_solve_banded, two
    right-hand sides); no graph or dense matrix is formed.
    """
    if not (np.isfinite(a) and a > 0):
        raise DomainError("Gamma shape a must be positive and finite")
    if n_samples < 2:
        raise DomainError(
            "conductance-ratio needs at least 2 samples for a standard error"
        )
    out: List[EstimatorReport] = []
    for e_i, ell in enumerate(ells):
        ell = int(ell)
        if ell < 0 or ell % 2:
            raise DomainError("separations must be even and nonnegative")
        radius = ell // 2 + RATIO_MARGIN
        wired = WiredBand.box(dim, radius, 1.0)
        origin = [-(ell // 2)] + [0] * (dim - 1)
        target = [ell - ell // 2] + [0] * (dim - 1)
        # retained sites are numbered row-major over the inner box
        p0, pl = np.ravel_multi_index(
            np.transpose([origin, target]) + radius, (2 * radius + 1,) * dim
        ).tolist()
        rhs = np.zeros((wired.n, 2))
        rhs[p0, 1] = 1.0
        rng = stream(seed, "conductance-ratio", e_i)
        gamma_rng = stream(seed, "conductance-ratio-gamma", e_i)
        vals = np.empty(n_samples)
        for s in range(n_samples):
            w_draw = rng.gamma(a, 1.0, size=wired.weights.size)
            band, eta = wired.fill(w_draw)
            rhs[:, 0] = eta
            sample = sample_banded(band, eta, rng)
            gamma = float(gamma_rng.gamma(0.5, 1.0))
            if gamma <= 0:
                raise DomainError("gamma must be positive")
            psi, g0 = green_solve_banded(sample, rhs).T
            # the row of i0 in the kernel on the box plus delta (delta last)
            row = _kernel_row(psi, g0, p0, gamma)
            x = row[:-1] * (wired.couple(w_draw, row[:-1]) + eta * row[-1])
            vals[s] = (x[pl] / x[p0]) ** 0.25
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
        out.append(
            EstimatorReport(
                name=f"conductance-ratio-l{ell}",
                mean=mean,
                stderr=stderr,
                n=n_samples,
                extra={"ell": float(ell)},
            )
        )
    return out


def vrjp_diffusion_experiment(
    dim: int,
    w: float,
    n_jumps: int,
    n_walks: int,
    seed: int,
) -> Dict[str, object]:
    """Variance growth of the time-changed reinforced walk on the lattice.

    Walks run for a fixed jump budget; displacements are read off at fixed
    transformed times (quarters of the median final time) by stepping along
    each walk's jump record. Reports per-time mean squared displacement, a
    linear-growth slope ratio, and a coordinate isotropy ratio. Diagnostic
    quality only: desk-scale walks are far from the scaling regime.
    """
    if n_walks < 1:
        raise DomainError("vrjp-diffusion needs at least 1 walk")
    coords = []
    d_times = []
    for k in range(n_walks):
        c, _s, d = simulate_vrjp_lattice(dim, w, n_jumps, stream(seed, "vrjp-diff", k))
        coords.append(c)
        d_times.append(d)
    t_star = float(np.median([d[-1] for d in d_times]))
    t_grid = np.array([0.25, 0.5, 0.75, 1.0]) * t_star
    msd = np.zeros(len(t_grid))
    per_coord = np.zeros((len(t_grid), dim))
    counts = np.zeros(len(t_grid))
    for c, d in zip(coords, d_times):
        for ti, t in enumerate(t_grid):
            if d[-1] < t:
                continue
            k = int(np.searchsorted(d, t, side="right") - 1)
            x = c[k].astype(float)
            msd[ti] += (x**2).sum()
            per_coord[ti] += x**2
            counts[ti] += 1
    if (counts == 0).any():
        raise CoverageError("no walk reached a requested transformed time")
    msd /= counts
    per_coord /= counts[:, None]
    lo = (msd[1] - msd[0]) / (t_grid[1] - t_grid[0])
    hi = (msd[-1] - msd[-2]) / (t_grid[-1] - t_grid[-2])
    slope_ratio = float(hi / lo) if lo > 0 else float("inf")
    final = per_coord[-1]
    isotropy = float(final.max() / final.min()) if final.min() > 0 else float("inf")
    return {
        "t_grid": [float(t) for t in t_grid],
        "msd": [float(x) for x in msd],
        "slope_ratio": slope_ratio,
        "isotropy": isotropy,
        "n_walks": n_walks,
        "n_jumps": n_jumps,
    }
