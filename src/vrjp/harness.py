"""Monte Carlo plumbing: standard-error reports, the gate's two p-value
tests (the two-sample word chi-square test and the one-sample
Kolmogorov-Smirnov test, both on scipy.special, so that no import of the
package loads scipy.stats), simple-random-walk endpoints drawn in blocks of
walks, and the desk-scale experiments. The mixing field rooted at a vertex
is drawn by the private `_rooted_u_samples`, for the cosh-moment experiment
alone.

Determinism contract: every experiment draws from counter-based streams
keyed by (seed, experiment, index), so results are bit-identical for a fixed
seed. The replica runner, the full-path random walk, the lattice diffusion
estimator and scipy's own KS test are test oracles (tests/_oracles.py).

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import chdtrc, smirnov

from .betafield import (
    NuParams,
    WiredBand,
    _sample_rows,
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
    "ks_1samp",
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


def ks_1samp(samples: np.ndarray, cdf) -> Tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test: (D, p).

    D = max(D+, D-) on the sorted sample, as `scipy.stats.kstest` forms
    it, and p is the exact two-sided survival function of D_n at D
    (`_kolmogorov_sf`). An empty sample, or one holding a NaN or an
    infinite value, has no statistic: it gives (nan, nan), which no
    significance level passes.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0 or not np.isfinite(x).all():
        return float("nan"), float("nan")
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = float(d_plus if d_plus > d_minus else d_minus)
    return d, _kolmogorov_sf(n, d)


# The Kolmogorov survival function below is a port of scipy 1.17.1's
# scipy/stats/_ksstats.py (`_kolmogn(n, x, cdf=False)` and the Durbin and
# Pelz-Good routines it calls). It follows Simard and L'Ecuyer, J. Stat.
# Softw. 39(11) (2011), and keeps scipy's operations and long-double
# rescaling, so for n > 140 it gives `kstwo.sf`'s bits. For n <= 140 it
# takes the Durbin matrix (Marsaglia-Tsang-Wang, J. Stat. Softw. 8(18),
# 2003) where scipy takes Pomeranz's recursion; both are exact. The ported
# code is under scipy's BSD-3-Clause license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6
# B_2j / (2j (2j - 1)) for j = 8, ..., 1: Stirling's series for log n!
_STIRLING_COEFFS = [
    -2.955065359477124183e-2,
    6.4102564102564102564e-3,
    -1.9175269175269175269e-3,
    8.4175084175084175084e-4,
    -5.952380952380952381e-4,
    7.9365079365079365079e-4,
    -2.7777777777777777778e-3,
    8.3333333333333333333e-2,
]


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n: int):
    """log(n! / n^n) by Stirling's series, n log n taken out up front."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_dmtw(n: int, d):
    """P(D_n <= d) by Durbin's matrix, as Marsaglia, Tsang and Wang compute
    it: with d = (k - h)/n, the k-th diagonal entry of (n!/n^n) H^n for the
    (2k - 1)-square H, powered by squaring and rescaled by 2^128 as it goes.
    Called with 1/n < d < 1/2 only."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    # v is H's first column (and, reversed, its last row), w = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    # times n!/n^n; once rescaled, p is a long double, as in scipy
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip_prob(p)


def _kolmogn_pelz_good(n: int, x):
    """Pelz-Good's approximation of P(D_n <= x): the Li-Chien-Korolyuk
    expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5, z = x sqrt(n),
    with each K_i turned by Jacobi's theta identity into a sum that
    converges fast for small z. Called with 1/n < x < 1/2 only."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return _clip_prob(0.0)
    q = np.exp(qlog)
    # coefficients of the terms of K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner's scheme for sum c_i q^(i^2), over odd i
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array(
            [
                1.0,
                k1a + k1b * msquared,
                k2a + k2b * msquared + k2c * mfour,
                k3a + k3b * msquared + k3c * mfour + k3d * msix,
            ]
        )
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the other sums, over all k: pi^2 k^2 q^(k^2) in K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) in K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _kolmogorov_sf(n: int, x: float) -> float:
    """P(D_n > x) for the two-sided statistic of n samples, by Simard and
    L'Ecuyer's choice of method: Ruben and Gambino's closed forms at
    x <= 1/n and x >= 1 - 1/n, 2 smirnov(n, x) where the two one-sided tails
    cannot both be crossed (x >= 1/2) or their overlap is negligible, the
    Durbin matrix for small n x^1.5, and Pelz-Good otherwise."""
    if np.isnan(x):
        return float("nan")
    x = np.float64(x)
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/(2n) <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return float(_clip_prob(1.0 - prob))
    if t >= n - 1:  # Ruben-Gambino
        return float(_clip_prob(2 * (1.0 - x) ** n))
    if x >= 0.5:  # exact: the two tails cannot both be crossed
        return float(_clip_prob(2 * smirnov(n, x)))
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 4:
            return float(_clip_prob(1.0 - _kolmogn_dmtw(n, x)))
        return float(_clip_prob(2 * smirnov(n, x)))  # Miller's approximation
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return float(_clip_prob(2 * smirnov(n, x)))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_dmtw(n, x)
    else:
        cdfprob = _kolmogn_pelz_good(n, x)
    return float(_clip_prob(1.0 - cdfprob))


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

# Environments per block of the conductance ratio: a block's weights are
# one draw, and a batched block's rows, field and solve are held at once.
RATIO_BLOCK = 128


def _ratio_batched(bw: int, s: int) -> bool:
    """Whether a block of s environments on a box of bandwidth bw takes the
    batched elimination rather than one band draw per environment.

    Per site, the batch pays a fixed cost of small numpy steps, one per band
    diagonal, shared by the block, and elementwise work of order bw^2 per
    environment; the band draw pays its per-site overhead once per
    environment and runs its bw^2 work on BLAS. So on narrow bands the
    batch wins from about s = bw (bw + 4) / 16 environments on, and from
    bw of about 40 on it no longer wins at any block size (the crossover
    table in CHANGES.md, bw 7 to 121). Every d = 3 box (bw 49 and up)
    takes the band draw."""
    return bw <= 36 and 16 * s >= bw * (bw + 4)


def _ratio_block_bytes(wired: WiredBand, s: int) -> int:
    """Bytes a block of s environments holds, by its route: the weights,
    then either the batch's band rows with _schur_loop's scratch, its
    field (the pivots), beta, the certificate's H_kk, the right-hand sides
    and the (n, 2, S) solve with its scratch, or the band route's psi, G
    column and eta; and the kernel rows and x of the block."""
    n, bw = wired.n, wired.bw
    cells = wired.weights.size + 6 * (n + 1)
    if _ratio_batched(bw, s):
        cells += n * (bw + 1) + bw + 3 * n + 2 * n + 2 * (n + bw)
    else:
        cells += 3 * n
    return 8 * s * cells


def _ratio_block(
    wired: WiredBand, w: np.ndarray, p0: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, G(i0, .), eta), each (S, n), for a block of S environments of
    edge weights w (S, E), by the route _ratio_batched gives the block: one
    batched draw on the block's band rows and one batched solve with each
    sample's own right-hand sides [eta, e_i0], or, per environment, a band
    draw on its diagonals and a solve on its two-level factor."""
    s, n = w.shape[0], wired.n
    if _ratio_batched(wired.bw, s):
        rows, ew = wired.fill_rows(w)
        rhs = np.zeros((s, n, 2))
        rhs[:, :, 0] = ew.T
        rhs[:, p0, 1] = 1.0
        # the elimination overwrites the field with the pivots
        sample = _sample_rows(rows, ew, 0.0, rng)
        psi, g0 = np.moveaxis(green_solve_banded(sample, rhs), 2, 0)
        return psi, g0, rhs[:, :, 0]
    psi, g0, eta = np.empty((3, s, n))
    rhs = np.zeros((n, 2))
    rhs[p0, 1] = 1.0
    for k in range(s):
        band, eta[k] = wired.fill(w[k])
        rhs[:, 0] = eta[k]
        psi[k], g0[k] = green_solve_banded(sample_banded(band, eta[k], rng), rhs).T
    return psi, g0, eta


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
    geometry, trimmed to the edges the band or eta reads) are built once,
    and every separation is checked, and refused beyond memory, before
    anything is drawn. The environments are drawn RATIO_BLOCK at a time.
    A block draws its weights as one (S, E') Gamma array, E' the read
    edges in build_lattice_box's edge order, before any field draw, and
    its couplings as one Gamma(1/2) array from their own stream. Its fields
    then take one of two routes, chosen by _ratio_batched from the box's
    bandwidth and S alone:
    - batched (narrow bands, d = 2): the block's band rows and boundary
      field, one coupling per sample (WiredBand.fill_rows), are eliminated
      in one _schur_loop pass, sites in index order and the block's
      samples drawn together at each site, and psi and the Green row of
      i0 come from one batched solve of each sample's [eta, e_i0] on the
      factor it kept (green_solve_banded);
    - per environment (wide bands, d = 3, or small blocks): the weights
      are scattered onto the box's diagonals (WiredBand.fill), the field is
      drawn by sample_banded, and psi and the Green row come from its
      LDL^T factor (green_solve_banded, two right-hand sides).
    The route and RATIO_BLOCK are part of the draw order: the same seed
    gives other variates if either changes. No graph or dense matrix is
    formed; the block's kernel rows and x are formed together.
    """
    if not (np.isfinite(a) and a > 0):
        raise DomainError("Gamma shape a must be positive and finite")
    if n_samples < 2:
        raise DomainError(
            "conductance-ratio needs at least 2 samples for a standard error"
        )
    boxes = []
    for ell in ells:
        ell = int(ell)
        if ell < 0 or ell % 2:
            raise DomainError("separations must be even and nonnegative")
        radius = ell // 2 + RATIO_MARGIN
        wired = WiredBand.box(dim, radius, 1.0).trimmed()
        origin = [-(ell // 2)] + [0] * (dim - 1)
        target = [ell - ell // 2] + [0] * (dim - 1)
        # retained sites are numbered row-major over the inner box
        p0, pl = np.ravel_multi_index(
            np.transpose([origin, target]) + radius, (2 * radius + 1,) * dim
        ).tolist()
        # the first block is the largest
        _refuse_beyond_memory(
            _ratio_block_bytes(wired, min(n_samples, RATIO_BLOCK)),
            f"a conductance-ratio block on {wired.n} sites",
        )
        boxes.append((ell, wired, p0, pl))
    out: List[EstimatorReport] = []
    for e_i, (ell, wired, p0, pl) in enumerate(boxes):
        rng = stream(seed, "conductance-ratio", e_i)
        gamma_rng = stream(seed, "conductance-ratio-gamma", e_i)
        vals = np.empty(n_samples)
        for lo in range(0, n_samples, RATIO_BLOCK):
            s = min(RATIO_BLOCK, n_samples - lo)
            w = rng.gamma(a, 1.0, size=(s, wired.weights.size))
            gamma = gamma_rng.gamma(0.5, 1.0, size=s)
            if not (gamma > 0).all():
                raise DomainError("gamma must be positive")
            psi, g0, eta = _ratio_block(wired, w, p0, rng)
            # the row of i0 in the kernel on the box plus delta (delta last)
            row = _kernel_row(psi, g0, p0, gamma)
            v = row[:, :-1]
            x = v * (wired.couple(w, v) + eta * row[:, -1:])
            vals[lo : lo + s] = (x[:, pl] / x[:, p0]) ** 0.25
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
