"""The beta potential family: its closed-form Laplace transform and its
exact samplers.

A parameter set is a symmetric nonnegative coupling matrix P (off-diagonal
entries are edge conductances, a nonnegative diagonal is allowed) together
with a nonnegative boundary vector eta. The associated operator is
H_beta = 2 diag(beta) - P, positive definite on the support of the law;
h_beta forms it densely.

Sampling is exact and sequential: conditionally on the sites already drawn,
one site's shifted potential x = 2 beta - P_kk follows a generalized inverse
Gaussian law of index 1/2 with rate 1, and eliminating the site is a rank-one
Schur update of (P, eta). Two loops run this elimination, both on the band
rows of P, one for a batch of fields and one for a single wide draw:

- batched: sample_batch eliminates in index order and holds P as band rows
  with the sample axis last, at the bandwidth P has; _schur_loop draws a
  batch of fields at once, adding each site's update to the band rows
  behind it one band diagonal at a time. A row-major box keeps its leading
  stride as bandwidth, and a dense P is the band of width n. The rows it
  leaves and its pivots are every sample's LDL^T factor of H_beta, and the
  batch keeps them, sample axis last, in a BandSample with one positivity
  certificate for the batch: schrodinger.green_solve_banded solves the
  draw's own environments on it, and schrodinger.green_solve serves only
  environments that were not drawn as they are solved. A single
  environment is its batch of one, sample_batch(params, 1, rng).beta[0];
- single: sample_banded holds a row-major lattice box by rows of its band
  and eliminates it in two levels. After a site is eliminated its Schur
  update touches only its neighbours, so the sites of an independent set R
  (the greedy one in index order; on a box, the parity class of site 0)
  all draw from the original coupling, in one call, and the rest, B, takes
  their updates as one Schur complement in B's index order, whose band a
  box's bandwidth still holds. Since a pivot needs only its own row,
  _blocked_band_loop eliminates B's band in panels, left-looking within a
  panel, with the panel's boundary field as one more row of its window,
  so that one gemv updates a site's column and its field together and
  one sum gives its shape; the block behind a panel takes all of its
  updates as one BLAS-3 dsyrk, and its field as one product. Elimination
  with pivots x is the LDL^T factorization of H_beta in the order (R, B),
  D = diag(x), and the sample keeps it (BandSample, with R's coupling to
  B as gather tables), as the batch does, with a positivity certificate
  read from its pivots, for schrodinger.green_solve_banded. Each panel
  writes its rows of B's factor once, as they go back, in the lower band
  layout LAPACK's dtbtrs reads, so the solve reads them in place. The
  draw reads P only by its nonzero diagonals (BandDiagonals: P's own
  diagonal and one column per offset that occurs, d of them on a box in
  Z^d), so no (n, bw + 1) band of P is formed. Psi decay, the
  conductance ratio and the CLI's wired boxes draw this way, on boxes
  that WiredBand.box wires from their geometry, with no graph built.
  Wiring a retained set is done in one place, WiredBand's edge arrays:
  they give the wired marginal by its diagonals for any environment's
  edge weights (fill()), or dense (params()), W on it plus delta as
  neighbour tables (neighbours()), and the wired graph (graph()).
  The band sampler consumes the variates of sample_batch's loop on
  (P, eta) relabelled to the order (R, B), in the same order, and its beta
  differs from that draw by the rounding of the summed updates only.
  Another elimination order is a relabelling of the sites: permute
  (P, eta) before the draw.

The density, the one-site Schur step and the dense Cholesky certificate are
test oracles (tests/_oracles.py); no sampler path reads them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import dsyrk

from .errors import DomainError, RestrictionError
from .graphs import (
    WeightedGraph,
    _box_edges,
    _box_side,
    _refuse_beyond_memory,
    _retained_ids,
)

__all__ = [
    "NuParams",
    "BandDiagonals",
    "BandSample",
    "laplace_closed_form",
    "gig_half_sample",
    "sample_batch",
    "sample_banded",
    "WiredBand",
    "h_beta",
]

PIVOT_RTOL = 1e-12

# GIG(1/2) shapes b below this draw chi-square(1), the b = 0 law, which is
# within total variation about sqrt(b) of theirs. numpy's Wald draw of mean
# 1/sqrt(b) goes wrong below about b = 1e-26: its reciprocal no longer
# follows chi-square(1), and from about b = 1e-30 on it returns 0, an
# infinite x.
CHI2_BELOW = 1e-16

# Sites per panel of the blocked band elimination. On a 2-vCPU VM with one
# BLAS thread, 16 to 32 were alike at bw 289 and 8 and 64 slower.
_PANEL = 32


@dataclass(frozen=True)
class NuParams:
    """Parameters (coupling matrix, boundary vector) of the potential law."""

    p: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        eta = np.array(self.eta, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DomainError("coupling matrix must be square")
        if eta.shape != (p.shape[0],):
            raise DomainError("eta length must match matrix size")
        # before the symmetry test, which a NaN fails with a misleading message
        if not np.isfinite(p).all():
            raise DomainError("coupling entries must be finite, not NaN or inf")
        if not np.isfinite(eta).all():
            raise DomainError("eta entries must be finite")
        # exact symmetry, the common case, is cheap to confirm; allclose
        # costs most of the constructor on a large block
        if not (
            np.array_equal(p, p.T) or np.allclose(p, p.T, rtol=1e-12, atol=1e-14)
        ):
            raise DomainError("coupling matrix must be symmetric")
        if (p < 0).any():
            raise DomainError("coupling entries must be nonnegative")
        if (eta < 0).any():
            raise DomainError("eta entries must be nonnegative")
        p.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "eta", eta)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @classmethod
    def from_graph(cls, g: WeightedGraph, eta=None) -> "NuParams":
        if eta is None:
            eta = np.zeros(g.n)
        else:
            eta = np.broadcast_to(np.asarray(eta, dtype=float), (g.n,)).copy()
        return cls(p=g.weight_matrix(), eta=eta)


def _empty(*shape, dtype=float):
    return field(default_factory=lambda: np.empty(shape, dtype=dtype))


@dataclass(frozen=True)
class _FirstLevel:
    """The first level of a single band draw's factor: an independent set R
    of the coupling graph, eliminated before the rest B, and the coupling
    P_RB between them as two gather tables padded with zero weights.

    sites is R in index order. Row a of r_nbr holds the site indices of R's
    a-th site's neighbours (all in B) in index order, with weights r_w; row
    b of b_nbr and b_w holds B's b-th site's neighbours in R, B in index
    order. A padded slot points at a site of the other class and has weight
    0. The default is an empty R, so B is every site.
    """

    sites: np.ndarray = _empty(0, dtype=np.intp)
    r_nbr: np.ndarray = _empty(0, 0, dtype=np.intp)
    r_w: np.ndarray = _empty(0, 0)
    b_nbr: np.ndarray = _empty(0, 0, dtype=np.intp)
    b_w: np.ndarray = _empty(0, 0)


@dataclass(frozen=True)
class BandDiagonals:
    """A symmetric coupling P of n sites by its nonzero diagonals, the input
    of sample_banded. offsets (q,) are the distances j - i > 0 of the
    diagonals that occur, increasing and below n; columns (n, q + 1) holds
    P's own diagonal in column 0 and P[i, i + offsets[j - 1]] in column j
    for i < n - offsets[j - 1] (the cells past a diagonal's end are
    unused). A row-major box of Z^d has d offsets, 1 and the strides of
    its other axes. shape reads (n, bw + 1), bw the largest offset, as the
    dense band storage of P would, though no cell off these diagonals is
    held. The structure is checked here (DomainError); sample_banded
    checks the entries."""

    offsets: np.ndarray
    columns: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets)
        columns = np.asarray(self.columns, dtype=float)
        if offsets.ndim != 1 or (offsets.size and offsets.dtype.kind not in "iu"):
            raise DomainError("offsets must be a 1-D array of whole numbers")
        if columns.ndim != 2 or columns.shape[1] != offsets.size + 1:
            raise DomainError("columns must be 2-D, the diagonal and one per offset")
        n = columns.shape[0]
        if not ((np.diff(offsets) > 0).all() and (offsets[:1] > 0).all()):
            raise DomainError("offsets must be positive and increasing")
        if offsets.size and offsets[-1] >= n:
            raise DomainError(f"offsets must be below the site count {n}")
        object.__setattr__(self, "offsets", offsets.astype(np.intp, copy=False))
        object.__setattr__(self, "columns", columns)

    @property
    def shape(self) -> Tuple[int, int]:
        bw = int(self.offsets[-1]) if self.offsets.size else 0
        return self.columns.shape[0], bw + 1

    def diagonals(self) -> list:
        """(d, P[i, i + d] for i < n - d) for each offset d, in order."""
        n = self.columns.shape[0]
        return [
            (d, self.columns[: n - d, j])
            for j, d in enumerate(self.offsets.tolist(), start=1)
        ]


@dataclass(frozen=True)
class BandSample:
    """A band draw with the factor H_beta = L D L^T that drawing it computed,
    D = diag(pivots). psd_certificate holds when every pivot is at least
    PIVOT_RTOL times the largest diagonal entry of its own sample's H_beta.

    sample_banded's single draw holds beta as (n,) and pivots as (n,), one
    per site, and is a two-level factor: in the order (R, B) of `first`,
    L = [[I, 0], [-P_BR X^-1, L_B]] with X = diag(pivots[R]). rows, C-order
    (|B|, bw_B + 1) in B's index order, is L_B D_B in lower band storage:
    rows[k, 0] = pivots of B's k-th site and rows[k, d] = (L_B)_k+d,k
    rows[k, 0], so rows.T is the `ab` that LAPACK's dtbtrs reads for the
    lower triangle. An empty first level (the default) is the one-level
    factor of all n sites in index order. sample_batch's batch of S keeps
    the sample axis last in its one-level factor: beta is (S, n), pivots
    (n, S) and rows (n, bw + 1, S), with L_k+d,k = -rows[k, d] / pivots[k]
    for d = 1..bw, and the certificate covers every sample of the batch.
    """

    beta: np.ndarray
    psd_certificate: bool
    rows: np.ndarray
    pivots: np.ndarray
    first: _FirstLevel = field(default_factory=_FirstLevel)


def laplace_closed_form(params: NuParams, lam: np.ndarray) -> float:
    """Closed-form Laplace transform E[exp(-<lam, beta>)] of the law.

    Equals exp(-T - <eta, s - 1>) * prod(s)^(-1) with s = sqrt(1 + lam) and
    T = (s' P s - sum(P)) / 2; the half factor counts each unordered pair of
    distinct sites once and each diagonal entry with weight lam_i / 2, which
    is the convention consistent with the single-site density.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (params.n,):
        raise DomainError("lambda length must match vertex count")
    if (lam < 0).any():
        raise DomainError("lambda entries must be nonnegative")
    s = np.sqrt(1.0 + lam)
    t = 0.5 * (s @ params.p @ s - params.p.sum())
    return float(np.exp(-t - params.eta @ (s - 1.0)) * np.prod(1.0 / s))


def _pivots_ok(pivots: np.ndarray, h_diag: np.ndarray) -> bool:
    """Whether each sample's smallest pivot is at least PIVOT_RTOL times its
    own largest |H_kk|. The site axis is first, then a batch's sample axis;
    every reduction runs along the sites, so no temporary is that large."""
    top = np.maximum(h_diag.max(axis=0, initial=0.0), -h_diag.min(axis=0, initial=0.0))
    low = pivots.min(axis=0, initial=np.inf)
    return bool((low >= PIVOT_RTOL * np.maximum(top, 1e-300)).all())


def h_beta(p: np.ndarray, beta) -> np.ndarray:
    """The operator H_beta = 2 diag(beta) - p, one (m, m) matrix for each
    environment of a beta of shape (..., m).

    The only place that writes 2 beta onto an operator diagonal: it adds to
    the diagonal of p rather than overwriting it, so a coupling matrix with
    a nonzero diagonal (a Schur complement, say) keeps its P_kk.
    """
    p = np.asarray(p, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1:] != p.shape[:1]:
        raise DomainError(f"beta must have shape (..., {p.shape[0]})")
    h = np.broadcast_to(-p, beta.shape[:-1] + p.shape).copy()
    d = np.arange(p.shape[0])
    h[..., d, d] += 2.0 * beta
    return h


def gig_half_sample(b: float, rng: np.random.Generator) -> float:
    """Draw from the density proportional to x^(-1/2) exp(-x/2 - b/(2x)).

    This is the generalized inverse Gaussian law with index 1/2 and rate 1;
    its reciprocal is inverse Gaussian with mean 1/sqrt(b) and shape 1, and
    b = 0 degenerates to the chi-square law with one degree of freedom. A
    shape below CHI2_BELOW draws that chi-square law too.
    """
    if b < 0:
        raise DomainError("shape parameter b must be nonnegative")
    if b < CHI2_BELOW:
        return float(rng.chisquare(1))
    return 1.0 / rng.wald(1.0 / math.sqrt(b), 1.0)


def _gig_in_order(b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """gig_half_sample of each entry of b in turn, one call per run of
    entries on the same side of CHI2_BELOW. numpy's array chisquare and wald
    draw element after element, so these are the scalar draws' variates in
    their order. Generator.wald with an array mean pays a fixed cost
    (argument checks, broadcasting) of over ten scalar draws per call, so
    a single entry takes the scalar draw, which consumes the rng alike and
    gives the same bits."""
    if b.size == 1:
        return np.array([gig_half_sample(float(b[0]), rng)])
    out = np.empty(b.shape)
    small = b < CHI2_BELOW
    starts = np.flatnonzero(np.diff(small, prepend=~small[:1])).tolist()
    for lo, hi in zip(starts, starts[1:] + [b.size]):
        if small[lo]:
            out[lo:hi] = rng.chisquare(1, size=hi - lo)
        else:
            out[lo:hi] = 1.0 / rng.wald(1.0 / np.sqrt(b[lo:hi]), 1.0)
    return out


def _schur_loop(st: np.ndarray, ew: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Eliminate the n sites of st in index order; returns beta as (n, S).
    Leaves the factor's rows in st and its pivots x in ew.

    st is the (n, bw + 1, S) state, P's band rows with the sample axis last:
    st[i, d] = P[i, i + d]; ew is eta as (n, S). Step k reads its pivot row
    col = st[k, 1:m+1], m = min(bw, n - 1 - k), draws the shifted potential
    x, and updates one band diagonal d < m at a time: (col[a] * col[a + d])
    / x for a < m - d, formed in a (bw, S) scratch and added to the slice
    st[k + 1 : k + 1 + m - d, d]. Cells past the band are zeros that a
    full-square elimination keeps zero, so every cell gets that
    elimination's products in its order. Row k is final once site k is
    drawn, so st ends as the factor rows of H_beta = L D L^T, D = diag(x),
    as BandSample reads them; ew[k] is last read at step k, which then
    stores its pivot there.
    For S >= 2 numpy sums the pivot row down the column, one entry at a
    time, so the band entries give the dense sum; a single sample's row is
    summed pairwise, so it is zero-padded to its dense length n - 1 - k.
    """
    n, width, s = st.shape
    bw = width - 1
    scratch = np.empty((bw, s))
    padded = np.zeros((n, 1)) if s == 1 else None
    beta = np.empty((n, s))
    for k in range(n):
        m = min(bw, n - 1 - k)
        col = st[k, 1 : m + 1]
        if padded is None:
            eta_hat = ew[k] + col.sum(axis=0)
        else:
            padded[:m] = col
            eta_hat = ew[k] + padded[: n - 1 - k].sum(axis=0)
        x = _gig_in_order(eta_hat**2, rng)
        beta[k] = 0.5 * (x + st[k, 0])
        below = st[k + 1 : k + 1 + m]
        for d in range(m):
            t = scratch[: m - d]
            np.multiply(col[: m - d], col[d:], out=t)
            t /= x
            diagonal = below[: m - d, d]
            diagonal += t
        ew[k + 1 : k + 1 + m] += col * (ew[k] / x)
        ew[k] = x
    return beta


def _blocked_band_loop(
    band: np.ndarray, ew: np.ndarray, rng: np.random.Generator, nb: int = _PANEL
) -> Tuple[np.ndarray, np.ndarray]:
    """Eliminate the n sites of band storage in index order, nb sites per
    panel, with boundary field ew; returns (beta, pivots). band[i, d] =
    P[i, i + d] on entry, and band ends as the factor L D in dtbtrs's lower
    band layout (BandSample.rows): each panel writes its rows once, pivot
    x_k in column 0 and -P^(k)[k, k + d], L_k+d,k x_k, in column d. ew is
    scratch.

    A panel's window is the band rows it touches, [k0, k0 + nb + bw), copied
    into a dense Fortran-ordered scratch that holds row i of the window as
    its column i (so the lower triangle is P's upper), with one extra row,
    `size`, that holds the panel's own sites' boundary field. The panel is
    left-looking: one gemv folds the earlier sites' updates into column j,
    its boundary entry included, just before site j draws its x from one
    sum of the column below the diagonal, as _schur_loop does; beta is read
    off the window's diagonal once per panel. The panel's rows go back to
    band as factor rows, negated (exactly) with the pivots in front, and
    the rows past it take every update of the panel at once, as
    one dsyrk of its columns scaled by 1/sqrt(x), and their boundary field
    as one product with the panel's. Past the diagonal band the window
    stays zero, and cells above the window's diagonal hold only writes
    nothing reads.
    """
    n, width = band.shape
    bw = width - 1
    size = nb + bw
    ld = size + 1
    # bw spare cells let the sheared view of the window's last rows run on;
    # for a site past the panel that view reaches row `size`, so only the
    # panel's own columns keep their boundary field there
    buf = np.zeros(ld * size + bw)
    win = buf[: ld * size].reshape(ld, size, order="F")
    cell = buf.strides[0]
    beta = np.empty(n)
    pivots = np.empty(n)
    for k0 in range(0, n, nb):
        p = min(nb, n - k0)
        t = min(p + bw, n - k0)
        # rows[i, d] = win[i + d, i]: window row i as band row k0 + i
        rows = np.lib.stride_tricks.as_strided(
            buf, shape=(t, width), strides=((ld + 1) * cell, cell)
        )
        rows[...] = band[k0 : k0 + t]
        if t < size:
            # the gemv and the sum run down to row `size`: clear what the
            # band rows copied here did not reach
            win[t:size, :p] = 0.0
        dl = win[size, :p]
        dl[...] = ew[k0 : k0 + p]
        x = pivots[k0 : k0 + p]
        for j in range(p):
            col = win[j:, j]
            col += win[j:, :j] @ (win[j, :j] / x[:j])
            # the one draw _gig_in_order makes for a single sample
            x[j] = gig_half_sample(np.add.reduce(col[1:]) ** 2, rng)
        beta[k0 : k0 + p] = 0.5 * (x + rows[:p, 0])
        done = band[k0 : k0 + p]
        done[:, 0] = x
        np.negative(rows[:p, 1:], out=done[:, 1:])
        if t > p:
            root = np.sqrt(x)
            a = win[p:t, :p] / root
            win[p:t, p:t] = dsyrk(1.0, a, beta=1.0, c=win[p:t, p:t], lower=1)
            ew[k0 + p : k0 + t] += a @ (dl / root)
            band[k0 + p : k0 + t] = rows[p:t]
    return beta, pivots


def sample_batch(
    params: NuParams,
    n_samples: int,
    rng: np.random.Generator,
) -> BandSample:
    """Exact draws of the field by eliminating one site at a time, in index
    order, for n_samples independent fields at once: returns a BandSample
    whose beta is an (n_samples, n) array.

    At each step the site's coupling to the not-yet-eliminated sites gives
    the shape of its one-site conditional; the draw then feeds a Schur
    update. Relabelling the sites changes cost (fill-in), never the law.
    The state is _schur_loop's (n, bw + 1, S) band rows with the sample
    axis last, at the bandwidth bw read from P: a row-major box keeps its
    leading stride as bw, and a dense P holds the full square. Each step
    adds its update one band diagonal at a time through a (bw, S) scratch,
    so the loop holds no more than the state and that scratch. The loop
    leaves the LDL^T factor of every sample's H_beta in those rows and its
    pivots, and the sample keeps both, sample axis last, with a positivity
    certificate for the whole batch: schrodinger.green_solve_banded solves
    the batch's own environments on it. Callers that need only the field
    read .beta. One environment is the batch of one,
    sample_batch(params, 1, rng) (C1 and C10), whose sample
    schrodinger.green_bundle takes; acceptance-scale Monte Carlo draws 1e5+
    fields on a small graph. Large lattice boxes go through sample_banded,
    one field per call (psi decay, the conductance ratio, `vrjp green` and
    `vrjp simulate --process quenched`).
    """
    if rng is None:
        raise DomainError("an rng is required")
    p = params.p
    n = p.shape[0]
    n_samples = operator.index(n_samples)
    if n_samples < 0:
        raise DomainError(f"sample count must be nonnegative, got {n_samples}")
    i, j = np.nonzero(p)
    bw = int((j - i).max(initial=0))
    # the band rows, _schur_loop's (bw, S) update scratch and three (n, S)
    # arrays: eta, whose rows become the pivots, beta, and the
    # certificate's H_kk, which is made once the scratch is gone
    _refuse_beyond_memory(
        (n * (bw + 1) + bw + 3 * n) * n_samples * 8,
        f"the elimination state of {n_samples} samples on {n} sites"
        f" at bandwidth {bw}",
    )
    st = np.zeros((n, bw + 1, n_samples))
    for d in range(bw + 1):
        st[: n - d, d] = np.diagonal(p, d)[:, None]
    ew = np.broadcast_to(params.eta[:, None], (n, n_samples)).copy()
    beta = _schur_loop(st, ew, rng)
    h_diag = 2.0 * beta
    h_diag -= np.diagonal(p)[:, None]
    certified = _pivots_ok(ew, h_diag)
    # gone before beta's transposed copy is made, as the byte count assumes
    del h_diag
    return BandSample(np.ascontiguousarray(beta.T), certified, rows=st, pivots=ew)


def _edge_arrays(g: WeightedGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g.edges as three arrays (i, j, w), in edge order, with i < j."""
    flat = np.fromiter(
        itertools.chain.from_iterable(g.edges), float, count=3 * g.edge_count
    ).reshape(g.edge_count, 3)
    return flat[:, 0].astype(np.intp), flat[:, 1].astype(np.intp), flat[:, 2]


@dataclass(frozen=True)
class WiredBand:
    """Edge index arrays that wire g on a retained set, the one owner of the
    wiring: they form its coupling block and boundary vector from a weight
    per edge of g, W on it plus delta, and the wired graph itself.

    Built once per graph, with the offsets of the diagonals that occur and
    each inner edge's column among them; fill(w) then scatters any
    environment's edge weights, aligned to g.edges, onto those diagonals
    (BandDiagonals) in one assignment, without forming a graph, a dense
    matrix or a dense band; neighbours() gives g's own W as the neighbour
    tables every product reader of W reads, params() g's own marginal in dense
    storage, and graph() g's own wired graph. Sites are numbered in `subset`
    order, so a row-major box retained inside a larger row-major box keeps
    its leading stride as bandwidth. All hold single weights, and each eta entry
    sums a site's crossing weights in edge order. from_graph wires any
    graph on any retained set; box wires a lattice box one layer inside the
    next from their geometry alone, with no graph built.
    """

    n: int
    bw: int
    weights: np.ndarray
    inner_i: np.ndarray
    inner_j: np.ndarray
    inner_edges: np.ndarray
    cross_site: np.ndarray
    cross_edges: np.ndarray
    offsets: np.ndarray
    inner_column: np.ndarray

    @classmethod
    def from_graph(cls, g: WeightedGraph, subset: Sequence[int]) -> "WiredBand":
        subset = np.asarray(subset, dtype=np.intp)
        if subset.ndim != 1 or not subset.size:
            raise DomainError("subset must be a nonempty sequence of vertices")
        # edge ends are looked up in the sorted subset: no array of g.n
        order = np.argsort(subset)
        ranked = subset[order]
        if (ranked[1:] == ranked[:-1]).any():
            raise DomainError("subset has repeated vertices")
        if not (0 <= ranked[0] and ranked[-1] < g.n):
            raise DomainError("subset vertex out of range")
        i, j, w = _edge_arrays(g)
        k = np.minimum(np.searchsorted(ranked, (i, j)), ranked.size - 1)
        pi, pj = np.where(ranked[k] == (i, j), order[k], -1)
        return cls._from_ends(int(subset.size), w, pi, pj)

    @classmethod
    def box(cls, dim: int, radius: int, w: float = 1.0) -> "WiredBand":
        """The box of `radius` in Z^dim wired inside the box of radius + 1,
        every edge of weight w, from the row-major geometry: field for field
        from_graph(build_lattice_box(dim, radius + 1, w),
        graphs._retained_ids(dim, radius)), since both read the outer box's
        edges from graphs._box_edges, in one order. It refuses
        what build_lattice_box refuses of the outer box (DomainError,
        SizeError beyond MAX_VERTICES), and arrays beyond memory, before
        it allocates them."""
        if radius < 0:
            raise DomainError("radius must be nonnegative")
        side = _box_side(dim, radius + 1, w)
        n = side**dim
        # the (n, dim) offsets, the edge tables and the per-edge arrays:
        # tracemalloc read 9.1 to 14.3 times dim * n cells at d = 1 to 4
        _refuse_beyond_memory(
            16 * dim * n * 8, f"the edge arrays of the {n}-vertex box"
        )
        _, lo, hi = _box_edges(dim, side)
        # each vertex's place in the retained box, row-major, or -1 outside
        place = np.full(n, -1)
        place[_retained_ids(dim, radius)] = np.arange((side - 2) ** dim)
        return cls._from_ends(
            (side - 2) ** dim, np.full(lo.size, float(w)), place[lo], place[hi]
        )

    @classmethod
    def _from_ends(
        cls, n: int, w: np.ndarray, pi: np.ndarray, pj: np.ndarray
    ) -> "WiredBand":
        """The arrays of n retained sites from each edge's weight and its
        ends' sites (-1 for an end outside the retained set), with the
        offsets of the diagonals that occur and each inner edge's column
        among them, which fill scatters into."""
        inner = (pi >= 0) & (pj >= 0)
        cross = (pi >= 0) != (pj >= 0)
        lo = np.minimum(pi[inner], pj[inner])
        hi = np.maximum(pi[inner], pj[inner])
        offset = hi - lo
        occurs = np.zeros(int(offset.max(initial=0)) + 1, dtype=bool)
        occurs[offset] = True
        return cls(
            n=n,
            bw=occurs.size - 1,
            weights=w,
            inner_i=lo,
            inner_j=hi,
            inner_edges=np.flatnonzero(inner),
            cross_site=np.maximum(pi, pj)[cross],
            cross_edges=np.flatnonzero(cross),
            offsets=np.flatnonzero(occurs),
            inner_column=np.cumsum(occurs)[offset],
        )

    def _eta(self, w: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.cross_site, weights=w[self.cross_edges], minlength=self.n
        )

    def fill(
        self, w: Optional[np.ndarray] = None
    ) -> Tuple[BandDiagonals, np.ndarray]:
        """(band, eta) of the wired marginal for edge weights w, by default
        g's own: band holds P by its diagonals, one column for P's zero
        diagonal and one per offset of an inner edge (at most dim on a
        box), and band.shape reads (n, bw + 1). Weights must be positive
        and finite (DomainError), the retained set must keep a nonzero
        boundary vector (RestrictionError) and the columns with the inner
        edges' weights must fit in memory (SizeError, before they are
        allocated)."""
        w = self.weights if w is None else np.asarray(w, dtype=float)
        if w.shape != self.weights.shape:
            raise DomainError("need one weight per edge")
        if not (np.isfinite(w) & (w > 0)).all():
            raise DomainError("edge weights must be positive and finite")
        # the columns and eta, and the inner edges' weights; tracemalloc
        # read fill's peak at 0.79 to 1.02 of this on boxes of 401 to
        # 50,625 sites at d = 1 to 4, and up to 1.8 on boxes of about 100,
        # where fixed costs weigh most
        q = self.offsets.size
        what = f"band storage of {self.n} sites at bandwidth {self.bw}"
        _refuse_beyond_memory(8 * (self.n * (q + 2) + self.inner_edges.size), what)
        columns = np.zeros((self.n, q + 1))
        columns[self.inner_i, self.inner_column] = w[self.inner_edges]
        eta = self._eta(w)
        if not eta.any():
            raise RestrictionError("subset has empty boundary weight vector")
        return BandDiagonals(self.offsets, columns), eta

    def neighbours(self) -> Tuple[np.ndarray, np.ndarray]:
        """g's own W on the n sites plus delta (index n) as left-packed
        neighbour tables (nbr, w), (n + 1, width): row i lists i's neighbours
        in ascending order, delta last, then pads of weight 0 that point at
        i. width is the most any row has (delta's: one per rim site); tables
        beyond memory are refused (SizeError) before they are allocated."""
        i, j, w_e = self._wired_edges()
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        deg = np.bincount(rows, minlength=self.n + 1)
        shape = (self.n + 1, int(deg.max()))
        what = f"the neighbour tables of {self.n} sites"
        _refuse_beyond_memory(16 * shape[0] * shape[1], what)
        order = np.lexsort((cols, rows))
        # sorted by row, then column: an entry's slot is its rank in its row
        slot = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
        nbr = np.repeat(np.arange(shape[0])[:, None], shape[1], axis=1)
        w = np.zeros(shape)
        nbr[rows[order], slot] = cols[order]
        w[rows[order], slot] = np.concatenate([w_e, w_e])[order]
        return nbr, w

    def params(self) -> NuParams:
        """g's own wired marginal in dense storage. Unlike fill, it allows a
        zero boundary vector (a retained set that is all of g)."""
        _refuse_beyond_memory(8 * self.n**2, f"the {self.n}-site coupling block")
        p = np.zeros((self.n, self.n))
        w = self.weights[self.inner_edges]
        p[self.inner_i, self.inner_j] = w
        p[self.inner_j, self.inner_i] = w
        return NuParams(p=p, eta=self._eta(self.weights))

    def graph(self) -> WeightedGraph:
        """g's own wired graph on n + 1 vertices, delta last: the inner edges
        in g's edge order, then (k, delta, eta_k) for each k with eta_k > 0.
        Like fill, it refuses a zero boundary vector (RestrictionError)."""
        i, j, w = self._wired_edges()
        if not (j == self.n).any():
            raise RestrictionError("subset has empty boundary weight vector")
        edges = tuple(zip(i.tolist(), j.tolist(), w.tolist()))
        return WeightedGraph(n=self.n + 1, edges=edges)

    def _wired_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """g's own wired edges (i, j, w), i < j: the inner edges in g's edge
        order, then (k, delta, eta_k) for each k with eta_k > 0."""
        eta = self._eta(self.weights)
        rim = np.flatnonzero(eta)
        i = np.concatenate([self.inner_i, rim])
        j = np.concatenate([self.inner_j, np.full(rim.size, self.n)])
        return i, j, np.concatenate([self.weights[self.inner_edges], eta[rim]])

    def couple(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """P v for the retained block P of edge weights w, from the edge
        arrays."""
        wi = w[self.inner_edges]
        return np.bincount(
            self.inner_i, weights=wi * v[self.inner_j], minlength=self.n
        ) + np.bincount(self.inner_j, weights=wi * v[self.inner_i], minlength=self.n)


def _first_sites(band: BandDiagonals) -> np.ndarray:
    """The greedy independent set in index order of the coupling graph that
    the band's off-diagonal nonzeros give, as a mask: a site joins unless
    an earlier neighbour has.

    It is the one fixed point of R -> {sites with no earlier neighbour in
    R}, which the iteration reaches from any start within one step more
    than the longest chain of earlier neighbours the start has wrong. It
    starts from the even sites, the parity class of site 0 on a row-major
    box of odd side, where the first step confirms it.
    """
    n = band.shape[0]
    links = [(d, p > 0) for d, p in band.diagonals()]
    in_r = np.zeros(n, dtype=bool)
    in_r[::2] = True
    while True:
        blocked = np.zeros(n, dtype=bool)
        for d, link in links:
            blocked[d:] |= link & in_r[: n - d]
        if not (blocked == in_r).any():
            return in_r
        in_r = ~blocked


def _gather_table(
    w_all: np.ndarray, nbr_all: np.ndarray, rows: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(neighbour sites, weights) of the sites `rows` to the neighbours that
    `keep` marks, one column per signed offset that any of them uses, in
    offset order; a slot without such a neighbour points at the first site
    keep marks (any site if none), with weight 0."""
    nbr = nbr_all[rows]
    w = w_all[rows] * keep[np.clip(nbr, 0, keep.size - 1)]
    used = w.any(axis=0)
    nbr, w = nbr[:, used], w[:, used]
    nbr[w == 0] = keep.argmax() if keep.any() else 0
    return nbr, w


def _first_level(
    band: BandDiagonals, in_r: np.ndarray
) -> Tuple[_FirstLevel, Tuple[np.ndarray, np.ndarray]]:
    """R's and B's gather tables of P_RB, and B's own couplings to later
    sites of B as a table of the same kind, from the band's off-diagonal
    columns and R's mask."""
    n = band.shape[0]
    diagonals = band.offsets
    q = diagonals.size
    # w_all[k, j] couples site k to site k + offsets[j]
    offsets = np.concatenate([-diagonals[::-1], diagonals])
    w_all = np.zeros((n, 2 * q))
    for j, (d, p) in enumerate(band.diagonals()):
        w_all[d:, q - 1 - j] = w_all[: n - d, q + j] = p
    nbr_all = np.arange(n)[:, None] + offsets
    r, b = np.flatnonzero(in_r), np.flatnonzero(~in_r)
    level = _FirstLevel(
        r,
        *_gather_table(w_all, nbr_all, r, ~in_r),
        *_gather_table(w_all, nbr_all, b, in_r),
    )
    return level, _gather_table(w_all[:, q:], nbr_all[:, q:], b, ~in_r)


def _schur_complement(
    p_diag: np.ndarray,
    eta: np.ndarray,
    in_r: np.ndarray,
    level: _FirstLevel,
    own: Tuple[np.ndarray, np.ndarray],
    x_r: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """B's band rows of S = P_BB + P_BR diag(1/x_R) P_RB in B's index order,
    (|B|, bw_B + 1) with S[b, b + d] in column d, formed by one bincount
    from P's diagonal p_diag and the first level's tables, and B's field
    eta_B + P_BR (eta_R / x_R). The rows are the one (|B|, bw_B + 1) array
    of the draw: _blocked_band_loop turns them into B's factor in place."""
    b = np.flatnonzero(~in_r)
    rank = np.cumsum(~in_r) - 1
    own_nbr, own_w = own
    real = own_w > 0
    # S off its diagonal, at B positions lo <= hi: B's own couplings, then
    # the pairs (a <= c) of each R site's neighbours
    a, c = np.triu_indices(level.r_nbr.shape[1])
    pairs = (level.r_w[:, a] > 0) & (level.r_w[:, c] > 0)
    lo = np.concatenate([np.nonzero(real)[0], rank[level.r_nbr[:, a][pairs]]])
    hi = np.concatenate([rank[own_nbr[real]], rank[level.r_nbr[:, c][pairs]]])
    width = int((hi - lo).max(initial=0)) + 1
    update = level.r_w[:, a] * level.r_w[:, c] / x_r[:, None]
    rows = np.bincount(
        np.concatenate([np.arange(b.size) * width, lo * width + (hi - lo)]),
        weights=np.concatenate([p_diag[b], own_w[real], update[pairs]]),
        minlength=b.size * width,
    ).reshape(b.size, width)
    u = np.zeros(in_r.size)
    u[level.sites] = eta[level.sites] / x_r
    return rows, eta[b] + (level.b_w * u[level.b_nbr]).sum(axis=1)


def _factor_cells(rows: int, bw: int) -> int:
    """Cells of a band factor of `rows` sites at bandwidth bw, held once,
    and of _blocked_band_loop's window with its boundary row and spare
    cells, scaled panel and dsyrk's trailing block."""
    size = _PANEL + bw
    return rows * (bw + 1) + (size + 1) * size + bw + _PANEL * bw + bw * bw


def _draw_bytes(n: int, bw: int, q: int) -> int:
    """Bytes a band draw of n sites at bandwidth bw on q diagonals needs
    before R is known: the per-site arrays, the first level's tables and
    S's entries with R and B at n sites, and B's factor at n rows and bw,
    which bounds a box's (its B has half the sites at bw). No dense band
    of P and no copy of the factor is counted: tracemalloc read the draw's
    peak at 0.34 to 0.47 of this on boxes of 121 to 14,641 sites at d = 1
    to 3, and 0.65 on the 101-site box at d = 1."""
    return (4 * n + 16 * n * q + 6 * n * q * (2 * q + 1) + _factor_cells(n, bw)) * 8


def sample_banded(
    band: BandDiagonals, eta: np.ndarray, rng: np.random.Generator
) -> BandSample:
    """Exact field sample from P by its diagonals, in two levels. Same law
    as sample_batch, cost n * bw^2 instead of n^3.

    band is a BandDiagonals, as WiredBand.fill gives it (any other input
    is a DomainError), and eta has one entry per site; their entries must
    be nonnegative and finite (DomainError), and only the columns of the
    diagonals that occur are read. The first level is R, the greedy
    independent set in index order of P's off-diagonal nonzeros (on a
    row-major box of odd side, the parity class of site 0). No site of R
    couples to another, so each draws from the original coupling,
    x_R ~ GIG(1/2; (eta_R + sum_j P_Rj)^2), all in one call. The rest, B,
    then carries the Schur complement S = P_BB + P_BR diag(1/x_R) P_RB and
    the field eta_B + P_BR (eta_R / x_R), formed in B's index order by one
    bincount, and _blocked_band_loop eliminates it in place into B's factor
    in dtbtrs's layout; a box's S keeps the box's bandwidth. These are the
    variates, in their order, of sample_batch's loop on (P, eta) relabelled
    to the order (R, B), and only the rounding of the summed updates
    differs. The sample keeps the two-level factor (BandSample.first) and a
    certificate read from every site's pivot. A draw beyond memory is
    refused (SizeError) before anything of its size is allocated: by n and
    the bandwidth first, then by the factor at B's size once R is known.
    """
    if rng is None:
        raise DomainError("an rng is required")
    if not isinstance(band, BandDiagonals):
        raise DomainError("band must be a BandDiagonals, as WiredBand.fill gives")
    n, width = band.shape
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (n,):
        raise DomainError("eta length must match the band's site count")
    bw = width - 1
    what = f"band storage of {n} sites at bandwidth {bw}"
    q = band.offsets.size
    _refuse_beyond_memory(_draw_bytes(n, bw, q), what)
    # min and max carry a NaN through, and it fails the comparison
    cols = band.columns
    if not (cols.min(initial=0.0) >= 0 and cols.max(initial=0.0) < np.inf):
        raise DomainError("band entries must be nonnegative and finite")
    if not (eta.min(initial=0.0) >= 0 and eta.max(initial=0.0) < np.inf):
        raise DomainError("eta entries must be nonnegative and finite")
    in_r = _first_sites(band)
    r = np.flatnonzero(in_r)
    b = np.flatnonzero(~in_r)
    # with R known and before its tables are made: the tables with their
    # temporaries, S's entries from R's pairs of neighbours (at most
    # q (2q + 1) per site), and B's factor, held once, with the panel
    # arrays at B's bandwidth, which is below 2 bw (a box's is bw).
    # tracemalloc read the draw's peak at 0.36 to 0.78 of this on boxes of
    # 101 to 14,641 sites at d = 1 to 3
    reach = min(2 * bw, max(b.size - 1, 0))
    cells = 16 * n * q + 6 * r.size * q * (2 * q + 1) + _factor_cells(b.size, reach)
    _refuse_beyond_memory((4 * n + cells) * 8, what)

    p_diag = cols[:, 0]
    level, own = _first_level(band, in_r)
    x_r = _gig_in_order((eta[r] + level.r_w.sum(axis=1)) ** 2, rng)
    rows, eta_b = _schur_complement(p_diag, eta, in_r, level, own, x_r)
    beta_b, pivots_b = _blocked_band_loop(rows, eta_b, rng)
    beta = np.empty(n)
    beta[r] = 0.5 * (x_r + p_diag[r])
    beta[b] = beta_b
    pivots = np.empty(n)
    pivots[r] = x_r
    pivots[b] = pivots_b
    certified = _pivots_ok(pivots, 2.0 * beta - p_diag)
    return BandSample(beta, certified, rows=rows, pivots=pivots, first=level)
