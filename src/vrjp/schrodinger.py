"""The operator H_beta = 2 diag(beta) - W on a graph, its restricted Green
functions, the boundary field psi, the full kernel with its independent
Gamma(1/2) coupling, and the identities that tie them together.

H is formed in one place, betafield.h_beta, and every dense H below comes
from it; check_identities forms none, and applies H to a tile of columns at
a time through W's neighbour tables (_h_rows). Green functions come from one
of two solves:

- green_solve_banded applies Ghat_beta to a few right-hand sides with the
  LDL^T factor of H that the draw computed and kept, so H is never factored
  twice: for one environment of a lattice box drawn by sample_banded, a
  gather through the first level's table, two banded triangular solves on
  the rest (dtbtrs, on the factor rows the draw wrote in its layout, with
  no copy), and a gather back; for a batch drawn by sample_batch, one
  forward and one back substitution with the sample axis last. Batched
  Monte Carlo asks only for the columns it reads, never for the inverse;
- green_solve is its dense twin, for environments that were not drawn as
  they are solved (a marginal read off a larger draw, or a check that must
  not read the sampler's own pivots): one LU solve per environment and a
  block of environments per call.

green_bundle solves psi and the root's column of Ghat_beta with the first, in
one call, from its BandSample (a single draw or a batch of one) and the
wiring it was drawn on (betafield.WiredBand); the bundle keeps both, so any
other column is one more solve on the same factor, and no dense Ghat_beta
is stored. A kept factor's positivity certificate is read from the draw's
pivots: a failed certificate or a zero pivot raises FactorizationError.
Apart from the band storage and the neighbour tables, operators are dense
arrays; there is no sparse route. No dense wired W is formed:
WiredBand.neighbours gives it on V plus delta as left-packed neighbour
tables, delta last, and the rate table (QuenchedRates.from_bundle), the
escape formula and the identity check all read those. check_identities is
the one reader of all of Ghat_beta: it solves a tile of columns at a time
on the kept factor and returns the diagonal it read. The u-field of a full
graph, its density, truncated path sums, the dense bottom of the spectrum
and the identities on dense products are test oracles (tests/_oracles.py);
no product path reads them.
"""

from __future__ import annotations

import operator
from dataclasses import astuple, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .betafield import BandSample, WiredBand, h_beta
from .errors import DomainError, FactorizationError, RestrictionError

__all__ = [
    "GreenBundle",
    "green_solve",
    "green_solve_banded",
    "green_bundle",
    "check_identities",
    "IdentityReport",
]

# Environments per batched LU solve in green_solve. At m = 25 a block's H
# and its LU copy take 20 MB; 25,000 environments in one call take 250 MB.
_SOLVE_BLOCK = 2048

# Columns of hat_g per green_solve_banded call in check_identities: each
# tile solves a block of the identity, so no dense identity or hat_g is
# held, and the solve's temporaries are a few (m, 128) blocks.
_SOLVE_COLS = 128


def green_solve(p: np.ndarray, beta, rhs) -> np.ndarray:
    """Ghat_beta rhs, the inverse of H_beta = 2 diag(beta) - p applied to
    rhs, for every environment of a beta of shape (..., m).

    rhs has shape (m,) or (m, k); the result has shape (..., m) or
    (..., m, k). One LU solve per environment, with no positivity check:
    callers pass draws of the law, for which H is positive definite. It
    serves environments that were not drawn as they are solved: a batch
    that sample_batch drew on this p solves on its kept factor with
    green_solve_banded instead, which factors nothing. The
    environments are solved _SOLVE_BLOCK at a time, so only one block's H
    and its LU copy are held at once; each environment's solve is its own,
    so the blocks give the one-shot solve's bits.
    """
    p = np.asarray(p, dtype=float)
    beta = np.asarray(beta, dtype=float)
    m = p.shape[0]
    if beta.shape[-1:] != (m,):
        raise DomainError(f"beta must have shape (..., {m})")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != m:
        raise DomainError(f"right-hand side must have shape ({m},) or ({m}, k)")
    cols = rhs if rhs.ndim == 2 else rhs[:, None]
    envs = beta.reshape(-1, m)
    out = np.empty(envs.shape + cols.shape[1:])
    for e0 in range(0, envs.shape[0], _SOLVE_BLOCK):
        h = h_beta(p, envs[e0 : e0 + _SOLVE_BLOCK])
        out[e0 : e0 + _SOLVE_BLOCK] = np.linalg.solve(
            h, np.broadcast_to(cols, h.shape[:-1] + cols.shape[1:])
        )
    out = out.reshape(beta.shape + cols.shape[1:])
    return out if rhs.ndim == 2 else out[..., 0]


def green_solve_banded(sample: BandSample, rhs) -> np.ndarray:
    """Ghat_beta rhs for a band draw, with the factor it kept: the band twin
    of green_solve, for environments solved as they were drawn.

    rhs has shape (m,) or (m, k). A single draw (sample_banded) gives the
    shape of rhs, in three steps on its two-level factor: B's right-hand
    side rhs_B + P_BR (rhs_R / x_R), gathered from the first level's table;
    the two triangular dtbtrs solves on B's band factor (with T = L_B D_B,
    S^-1 = T^-T D_B T^-1, and rows.T is T in dtbtrs's lower band storage,
    read in place with no copy); and psi_R = (rhs_R + P_RB psi_B) / x_R,
    gathered again. An empty first level is the same code with nothing to
    gather. A batch of S (sample_batch) gives (S, m) or (S, m, k), as
    green_solve does for its beta: one forward and one back substitution
    over the m sites, each step one op on a (bw, k, S) block of every
    sample, in place on one (m, k, S) array that the result is a view of.
    A right-hand side with a zero dimension raises DomainError, and a
    failed certificate or a zero pivot, R's included, FactorizationError,
    before any LAPACK call and before anything is divided.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = sample.pivots.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != m:
        raise DomainError(f"right-hand side must have shape ({m},) or ({m}, k)")
    # LAPACK's dtbtrs corrupts the heap on an empty block
    if not rhs.size:
        raise DomainError(f"right-hand side of shape {rhs.shape} has no entries")
    if not sample.psd_certificate:
        raise FactorizationError("banded operator is not positive definite")
    if not sample.pivots.all():
        raise FactorizationError("banded operator is singular: a zero pivot")
    cols = rhs.reshape(m, -1)
    if sample.pivots.ndim == 2:
        y = np.moveaxis(_band_substitute(sample.rows, sample.pivots, cols), 2, 0)
        return y if rhs.ndim == 2 else y[..., 0]
    level = sample.first
    x = sample.pivots
    r = level.sites
    in_b = np.ones(m, dtype=bool)
    in_b[r] = False
    # B's factor as the draw wrote it: rows.T is dtbtrs's lower band `ab`,
    # Fortran-ordered, which LAPACK reads in place, pivots on its first row
    ab = sample.rows.T
    out = np.empty(cols.shape)
    # out holds rhs_R / x_R while B's right-hand side gathers it
    out[r] = cols[r] / x[r, None]
    rhs_b = cols[in_b]
    _gather_add(rhs_b, level.b_nbr, level.b_w, out)
    y, _ = dtbtrs(ab, rhs_b, uplo="L")
    del rhs_b
    y *= ab[0, :, None]
    y, _ = dtbtrs(ab, y, uplo="L", trans="T", overwrite_b=1)
    out[in_b] = y
    del y
    psi_r = cols[r]
    _gather_add(psi_r, level.r_nbr, level.r_w, out)
    psi_r /= x[r, None]
    out[r] = psi_r
    return out.reshape(rhs.shape)


def _gather_add(acc: np.ndarray, nbr: np.ndarray, w: np.ndarray, src: np.ndarray):
    """acc += sum_j w[:, j] * src[nbr[:, j]], one table column at a time,
    through one scratch the size of acc."""
    buf = np.empty(acc.shape)
    for j in range(nbr.shape[1]):
        np.take(src, nbr[:, j], axis=0, out=buf, mode="clip")
        buf *= w[:, j, None]
        acc += buf


def _band_substitute(rows: np.ndarray, pivots: np.ndarray, cols: np.ndarray):
    """H^-1 cols for every sample of a batch's factor, as an (m, k, S) array.

    Forward, L z = cols then w = z / x: once y[k] is z_k / x_k, the rows
    behind it take rows[k, d] y[k]. Back, L^T y = w: y[k] gains
    sum_d rows[k, d] y[k + d] / x_k.
    """
    m, width, s = rows.shape
    bw = width - 1
    y = np.empty((m, cols.shape[1], s))
    y[...] = cols[:, :, None]
    scratch = np.empty((bw,) + y.shape[1:])
    for k in range(m):
        d = min(bw, m - 1 - k)
        y[k] /= pivots[k]
        if d:
            t = np.multiply(rows[k, 1 : d + 1, None], y[k], out=scratch[:d])
            y[k + 1 : k + 1 + d] += t
    for k in range(m - 2, -1, -1):
        d = min(bw, m - 1 - k)
        if d:
            t = np.multiply(
                rows[k, 1 : d + 1, None], y[k + 1 : k + 1 + d], out=scratch[:d]
            )
            y[k] += t.sum(axis=0) / pivots[k]
    return y


@dataclass(frozen=True)
class GreenBundle:
    """What green_bundle solved for a retained set V plus boundary delta.

    Indices 0..m-1 follow `subset` order; index m is delta. wired is the
    wiring drawn on, whose neighbour tables are W on V plus delta, and
    sample the draw, whose kept factor solves hat_g, the inverse of the
    V-block of H (both shared, not copied). psi is hat_g's harmonic
    extension of the boundary value 1, root_column hat_g's column of the
    root (zero when the root is delta, where hat_g vanishes), gamma the
    independent Gamma(1/2) coupling and beta_delta the coupled boundary
    potential. Neither hat_g nor the full kernel hat_g + psi_ext psi_ext^T
    / (2 gamma) (hat_g zero on delta) is stored: hat_g_column solves one
    column, kernel_row forms one row of the kernel from it, and
    check_identities reads hat_g a tile at a time.
    """

    subset: tuple
    wired: WiredBand
    sample: BandSample
    psi: np.ndarray
    root_column: np.ndarray
    gamma: float
    beta_delta: float
    i0_index: int

    @property
    def m(self) -> int:
        return len(self.subset)

    @property
    def delta_index(self) -> int:
        return self.m

    def position(self, vertex: Optional[int]) -> int:
        """Extended index of a parent-graph vertex (None means delta)."""
        if vertex is None:
            return self.delta_index
        try:
            return self.subset.index(int(vertex))
        except ValueError:
            raise DomainError(f"vertex {vertex} is not in the retained set")

    def psi_ext(self) -> np.ndarray:
        """psi extended by 1 at delta."""
        return np.concatenate([self.psi, [1.0]])

    def hat_g_column(self, k) -> np.ndarray:
        """Column k of hat_g on V (k in range(m), else DomainError): the
        stored root column, or one solve on the draw's kept factor."""
        k = _whole(k, "column", self.m)
        if k == self.i0_index:
            return self.root_column
        e = np.zeros(self.m)
        e[k] = 1.0
        return green_solve_banded(self.sample, e).reshape(self.m)

    def kernel_row(self, k) -> np.ndarray:
        """Row k of the full kernel on V plus delta (k in range(m + 1), m
        delta's; DomainError otherwise)."""
        k = _whole(k, "row", self.m + 1)
        return _kernel_row(
            self.psi, self.hat_g_column(k) if k < self.m else None, k, self.gamma
        )

    @property
    def u(self) -> np.ndarray:
        """The log ratio of the root's kernel row, zero at the root."""
        row = self.kernel_row(self.i0_index)
        return np.log(row) - np.log(row[self.i0_index])

    def beta_ext(self, beta) -> np.ndarray:
        """Interior beta with the coupled boundary value appended."""
        return np.concatenate([np.asarray(beta, dtype=float), [self.beta_delta]])


def _whole(value, what: str, size: Optional[int] = None) -> int:
    """value as an int when it is a whole number (not a bool), in
    range(size) when a size is given; DomainError otherwise."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be a whole number, got {value!r}") from None
    if size is not None and not 0 <= value < size:
        raise DomainError(f"{what} {value} is outside range({size})")
    return value


def green_bundle(
    wired: WiredBand,
    sample: BandSample,
    subset: Sequence[int],
    gamma: float,
    i0: Optional[int] = None,
) -> GreenBundle:
    """Solve the restricted systems for the wired marginal of a retained set.

    wired wires the parent graph on `subset`, WiredBand.from_graph(g,
    subset) or a box's WiredBand.box: everything outside `subset` is
    collapsed to delta, and every component of `subset` must have an edge
    to delta (RestrictionError otherwise). sample is one environment drawn
    on its marginal, by sample_banded or as sample_batch's batch of one;
    psi and the root's column of hat_g are solved on the factor it kept, in
    one green_solve_banded call on the two right-hand sides [eta, e_root],
    which raises FactorizationError. subset labels its positions, which the
    sample's sites share. gamma is the independent Gamma(1/2, 1) coupling,
    finite and positive. i0 (a vertex of `subset`, or None for delta) is
    the root used for the u vector; wired and sample are kept, and no dense
    W is formed.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise DomainError("gamma must be positive and finite")
    subset = tuple(int(v) for v in subset)
    if len(set(subset)) != len(subset):
        raise DomainError("subset has repeated vertices")
    m = len(subset)
    if wired.n != m:
        raise DomainError("marginal size must match subset size")
    if sample.beta.shape not in ((m,), (1, m)):
        raise DomainError(f"sample must be one environment on {m} sites")
    if i0 is not None and int(i0) not in subset:
        raise DomainError(f"vertex {i0} is not in the retained set")
    eta = wired._eta(wired.weights)
    if not eta.any():
        raise RestrictionError("subset has empty boundary weight vector")
    root = m if i0 is None else subset.index(int(i0))
    rhs = np.zeros((m, 2))
    rhs[:, 0] = eta
    if root < m:
        rhs[root, 1] = 1.0
    cols = green_solve_banded(sample, rhs).reshape(m, 2)
    psi = np.ascontiguousarray(cols[:, 0])
    # H is an M-matrix and eta >= 0: psi is exactly 0 on a component that
    # eta does not reach, and positive elsewhere
    if not (psi > 0).all():
        raise RestrictionError("a component of subset has no edge to delta")

    return GreenBundle(
        subset=subset,
        wired=wired,
        sample=sample,
        psi=psi,
        root_column=np.ascontiguousarray(cols[:, 1]),
        gamma=float(gamma),
        beta_delta=0.5 * float(eta @ psi) + gamma,
        i0_index=root,
    )


def _kernel_row(psi, ghat_row, k: int, gamma) -> np.ndarray:
    """Row k of the full kernel on V plus delta (k = m is delta's), for one
    environment or a batch on leading axes: psi (..., m), gamma (...) and
    ghat_row, hat_g's row k (None for delta, where hat_g vanishes)."""
    psi_e = np.concatenate([psi, np.ones(np.shape(psi)[:-1] + (1,))], axis=-1)
    row = psi_e[..., k, None] * psi_e / (2.0 * np.asarray(gamma)[..., None])
    if ghat_row is not None:
        row[..., :-1] += ghat_row
    return row


def _rate_rows(nbr, w, row, at=slice(None)) -> np.ndarray:
    """Rates 1/2 W_ij G(i0,j) / G(i0,i) of the environment-fixed chain on
    the neighbour tables' slots, for one environment or a batch on leading
    axes: row is the root's kernel row (..., size) and (nbr, w) hold the
    tables' rows `at` (all of them by default); slot s of state i is the
    rate to nbr[i, s], 0 on a pad slot. Formed in place in one array of the
    result's size; the halving is exact, so each rate has the bits of
    (W_ij / 2) times the ratio."""
    r = np.take(row, nbr, axis=-1)
    r /= row[..., at, None]
    r *= w
    r *= 0.5
    return r


def _h_rows(x, h_diag, tables):
    """x H_ext for a tile x of rows on V plus delta, (k, m + 1): H_ext =
    2 diag(beta_ext) - W_ext, with h_diag its diagonal and W_ext the
    neighbour tables as check_identities slices them: V's rows through V's
    own width, slot-major, (width, m) each, then delta's row. V's columns
    gather one slot at a time into one (k, m) scratch beside the result;
    delta's column is one product over delta's row. Returns the product's
    columns on V, (k, m), and on delta, (k,)."""
    v_nbr, v_w, d_nbr, d_w = tables
    m = x.shape[1] - 1
    yv = x[:, :m] * h_diag[:m]
    y_delta = h_diag[m] * x[:, m] - x[:, d_nbr] @ d_w
    buf = np.empty(yv.shape)
    for idx, ws in zip(v_nbr, v_w):
        np.take(x, idx, axis=1, out=buf, mode="clip")
        buf *= ws
        yv -= buf
    return yv, y_delta


@dataclass(frozen=True)
class IdentityReport:
    """Max relative residuals of the per-environment exact identities."""

    hg_block: float
    full_inverse: float
    harmonic: float
    beta_reconstruction: float
    cauchy_schwarz: float
    gcheck_min_violation: float
    telescoping: float

    def max_residual(self) -> float:
        """The largest field; a NaN field is the result, not skipped."""
        return float(np.max(astuple(self)))


def check_identities(
    bundle: GreenBundle, beta, i0: Optional[int] = None
) -> Tuple[IdentityReport, np.ndarray]:
    """Recompute the bundle's defining identities: (report of residuals,
    the diagonal of hat_g read on the way).

    Checks: H times hat_g is the identity on the block; the wired operator
    with the coupled boundary potential inverts the full kernel; psi is
    harmonic with boundary value 1; beta is reconstructed from the u-field
    with the root atom 1/(2 G(i0,i0)); hat_g obeys the Cauchy-Schwarz bound
    for every pair; the complementary kernel Ghat(i0,i0) psi - Ghat(i0,.)
    psi(i0), on the root's column, is nonnegative; and the quenched exit
    rates, the slot sums of _rate_rows as QuenchedRates forms them,
    reproduce beta away from the root. beta is the bundle's environment,
    (m,) or a batch of one (1, m), and finite (DomainError otherwise).

    No dense (m + 1)^2 array is formed: W is read through the bundle's
    neighbour tables (WiredBand.neighbours), by the harmonic residual, by
    the exit rates and by _h_rows, which applies H. hat_g is solved on the
    kept factor _SOLVE_COLS columns at a time, read as the same rows of the
    symmetric matrix, and the full kernel is formed beside each tile. A
    tile's rows meet the Cauchy-Schwarz bound against the columns up to its
    end, whose diagonal is solved by then, so every pair is checked. Every
    residual and norm scale is a running maximum.
    """
    m = bundle.m
    b = np.asarray(beta, dtype=float)
    if b.shape not in ((m,), (1, m)):
        raise DomainError(f"beta must have shape ({m},) or (1, {m})")
    b = b.reshape(m)
    if not np.isfinite(b).all():
        raise DomainError("beta must be finite")
    root = bundle.i0_index if i0 is None else bundle.position(i0)
    nbr, w = bundle.wired.neighbours()
    beta_ext = bundle.beta_ext(b)
    psi_e = bundle.psi_ext()

    def rel(err, scale):
        return float(err / max(scale, 1e-300))

    def off_identity(y, c0):
        # max |y - I| over a tile whose row a is row c0 + a of the identity
        a = np.arange(min(y.shape[0], y.shape[1] - c0))
        y[a, c0 + a] -= 1.0
        return np.abs(y, out=y).max(initial=0.0)

    # beta reconstruction and telescoping from the quenched exit rates, the
    # slot sums of the rates on the root row of the kernel
    grow = bundle.kernel_row(root)
    exit_rates = _rate_rows(nbr, w, grow).sum(axis=1)
    # copies of V's used slots, slot-major, and delta's row, so that the
    # padded tables go before the tiles
    width = int(np.count_nonzero(w[:m].any(axis=0)))
    tables = v_nbr, v_w, d_nbr, d_w = [
        x.copy() for x in (nbr[:m, :width].T, w[:m, :width].T, nbr[m], w[m])
    ]
    del nbr, w
    off_root = np.arange(m + 1) != root
    r_tel = rel(np.abs(exit_rates - beta_ext)[off_root].max(), np.abs(beta_ext).max())
    recon = exit_rates
    recon[root] += 1.0 / (2.0 * grow[root])
    r_beta = rel(np.abs(recon - beta_ext).max(), np.abs(beta_ext).max())

    # H psi = eta on V: W's delta column carries eta against psi_ext's 1
    # (delta's row holds eta on the sites that cross)
    eta_max = d_w.max(initial=0.0)
    resid = 2.0 * b * bundle.psi - (v_w * psi_e[v_nbr]).sum(axis=0)
    r_harm = rel(np.abs(resid).max(), max(eta_max, 1.0))

    # H's diagonal, and the largest |H| on the block (W's slots inside V)
    # and on V plus delta
    h_diag = 2.0 * beta_ext
    w_block = np.where(v_nbr < m, v_w, 0.0).max(initial=0.0)
    h_max = max(np.abs(h_diag[:m]).max(initial=0.0), w_block)
    h_ext_max = max(h_max, eta_max, abs(h_diag[m]))

    # normwise relative residuals: the atom 1/(2 gamma) can make the kernel
    # huge, so |HX - I| alone would just measure conditioning
    diag = np.empty(m)
    g_max = k_max = cs_max = e_hg = e_full = 0.0
    for c0 in range(0, m, _SOLVE_COLS):
        c1 = min(c0 + _SOLVE_COLS, m)
        # columns c0:c1 of hat_g, read as its rows c0:c1, zero on delta
        tile = green_solve_banded(bundle.sample, np.eye(m, c1 - c0, -c0))
        g = np.zeros((c1 - c0, m + 1))
        g[:, :m] = tile.reshape(m, c1 - c0).T
        del tile
        a = np.arange(c1 - c0)
        diag[c0:c1] = g[a, c0 + a]
        g_max = max(g_max, g.max(initial=0.0), -g.min(initial=0.0))
        d = np.sqrt(diag[:c1])
        cs = np.outer(d[c0:], d)
        cs_max = max(cs_max, np.subtract(g[:, :c1], cs, out=cs).max(initial=0.0))
        del cs
        e_hg = max(e_hg, off_identity(_h_rows(g, h_diag, tables)[0], c0))
        # the last tile's kernel rows end with delta's, where hat_g is 0
        k = np.outer(psi_e[c0 : c1 + (c1 == m)], psi_e)
        k /= 2.0 * bundle.gamma
        k[: c1 - c0] += g
        del g
        k_max = max(k_max, k.max(), -k.min())
        yv, y_delta = _h_rows(k, h_diag, tables)
        del k
        y_delta[c1 - c0 :] -= 1.0
        e_full = max(e_full, off_identity(yv, c0), np.abs(y_delta).max())
        del yv
    r_hg = rel(e_hg, max(h_max * g_max, 1.0))
    r_full = rel(e_full, max(h_ext_max * k_max, 1.0))
    r_cs = rel(cs_max, max(g_max, 1.0))

    # the root's column of hat_g, zero on delta
    hrow = np.append(bundle.hat_g_column(root), 0.0) if root < m else np.zeros(m + 1)
    gcheck = hrow[root] * psi_e - hrow * psi_e[root]
    r_gc = rel(max(0.0, -gcheck.min()), max(psi_e.max(), 1.0))

    report = IdentityReport(
        hg_block=r_hg,
        full_inverse=r_full,
        harmonic=r_harm,
        beta_reconstruction=r_beta,
        cauchy_schwarz=r_cs,
        gcheck_min_violation=r_gc,
        telescoping=r_tel,
    )
    return report, diag
