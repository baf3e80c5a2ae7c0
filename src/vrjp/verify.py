"""Acceptance checks: thirteen numbered criteria covering the exact
identities, the sampler against its closed-form transform, marginal and
independence structure, restriction compatibility, the martingale suite, the
boundary-coupling law, the mixture and reinforced-walk equivalences, escape
probabilities, the cosh moment bound, walker calibration, and three soft
diagnostics.

Each criterion is a function of (sizes, seed) whose body returns its verdict
and detail line; the _criterion decorator registers it in CRITERIA, times
the whole body and builds its CheckResult. run_suite executes them all at a
size tier ("quick" for a minute-scale smoke run, "full" for the release
gate). Criterion 13 is diagnostic: it reports trends that are asymptotic
statements and never gates. Monte Carlo over many fields goes through
_draws, which draws CHUNK fields at a time and keeps only a per-chunk
statistic of them. Each chunk is a BandSample that keeps its LDL^T factor:
criteria 6 and 8 solve their Green columns on it (green_solve_banded), and
green_solve serves the environments that were not drawn as they are
solved.

Statistical conventions: closed-form-vs-Monte-Carlo comparisons use the
4-standard-error rule; p-value tests use significance 0.01; all draws come
from fixed keyed streams so a (tier, seed) pair is exactly reproducible.
The two KS tests (criteria 3 and 7) run harness.ks_1samp on CDFs formed
here from scipy.special, with scipy.stats' bits; a NaN or infinite value in
their sample reads p = nan and fails.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy.special import gammainc, log_ndtr

from .betafield import (
    BandSample,
    NuParams,
    WiredBand,
    laplace_closed_form,
    sample_batch,
)
from .graphs import WeightedGraph, _retained_ids, build_lattice_box
from .harness import (
    SE_RULE,
    conductance_ratio_experiment,
    cosh_moment_experiment,
    ks_1samp,
    psi_decay_experiment,
    srw_endpoints,
    vrjp_diffusion_experiment,
    word_chi2,
)
from .processes import (
    QuenchedRates,
    escape_probability_formula,
    errw_words,
    markov_words,
    mc_return_probability,
    vrjp_words,
)
from .schrodinger import (
    _kernel_row,
    check_identities,
    green_bundle,
    green_solve,
    green_solve_banded,
)
from .streams import stream

__all__ = ["CheckResult", "Sizes", "QUICK", "FULL", "run_suite", "CRITERIA"]

DEFAULT_SEED = 7
ALPHA = 0.01
CHUNK = 25_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numbered acceptance criterion."""

    cid: int
    name: str
    passed: bool
    detail: str
    diagnostic: bool = False
    seconds: float = 0.0

    def line(self) -> str:
        tag = "DIAG" if self.diagnostic else ("PASS" if self.passed else "FAIL")
        return f"criterion {self.cid:02d} {tag} {self.name}: {self.detail}"

    @property
    def gate_ok(self) -> bool:
        return self.passed or self.diagnostic


@dataclass(frozen=True)
class Sizes:
    """Sample-size knobs per criterion; two presets below."""

    envs_c1: int = 100
    n_c2: int = 200_000
    lam_c2: int = 8
    n_c3: int = 100_000
    n_c4: int = 200_000
    n_c5: int = 200_000
    lam_c5: int = 8
    n_c6: int = 100_000
    n_c6b: int = 100_000
    n_c7: int = 100_000
    n_c8: int = 200_000
    n_c9: int = 200_000
    n_c10: int = 100_000
    envs_c10: int = 3
    n_c11: int = 20_000
    walks_c12: int = 10_000
    len_c12: int = 1_000
    psi_radii_d2: Tuple[int, ...] = (2, 4, 6, 8)
    psi_radii_d3: Tuple[int, ...] = (2, 4, 8)
    psi_n: int = 32
    cr_ells: Tuple[int, ...] = (2, 4, 8)
    cr_n: int = 100
    vd_walks: int = 150
    vd_jumps: int = 2_000


FULL = Sizes()
QUICK = Sizes(
    envs_c1=20,
    n_c2=20_000,
    lam_c2=4,
    n_c3=20_000,
    n_c4=20_000,
    n_c5=20_000,
    lam_c5=4,
    n_c6=10_000,
    n_c6b=10_000,
    n_c7=20_000,
    n_c8=20_000,
    n_c9=20_000,
    n_c10=10_000,
    envs_c10=1,
    n_c11=5_000,
    walks_c12=10_000,
    len_c12=200,
    psi_radii_d2=(2, 4),
    psi_radii_d3=(2, 4),
    psi_n=6,
    cr_ells=(2, 4),
    cr_n=20,
    vd_walks=40,
    vd_jumps=400,
)


def _triangle() -> WeightedGraph:
    return WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


def _two_path() -> WeightedGraph:
    return WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))


def _draws(
    params: NuParams,
    n: int,
    rng: np.random.Generator,
    stat: Callable[[BandSample], np.ndarray],
) -> np.ndarray:
    """stat of n field draws, concatenated along its first axis. The fields
    are drawn CHUNK at a time, and stat runs on each chunk's BandSample
    (its .beta, and the factor that drew it) before the next one is drawn,
    so no n-row field is ever held and any draws stat makes from rng follow
    its own chunk's fields."""
    return np.concatenate(
        [stat(sample_batch(params, min(CHUNK, n - k), rng)) for k in range(0, n, CHUNK)]
    )


def _se(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / np.sqrt(x.shape[0]))


def _inverse_gaussian_cdf(x: np.ndarray, mean: float) -> np.ndarray:
    """CDF of the inverse Gaussian law of the given mean and shape 1, with
    `scipy.stats.invgauss.cdf(x, mean)`'s bits: its log-CDF
    a + log1p(exp(b - a)) from the two normal log-CDF terms, exponentiated;
    0 at x <= 0, 1 at +inf, nan at nan."""
    x = np.asarray(x, dtype=float)
    out = (x > 0.0).astype(float)
    out[np.isnan(x)] = np.nan
    inside = (x > 0.0) & (x < np.inf)
    v = x[inside]
    fac = 1 / np.sqrt(v)
    a = log_ndtr(fac * (v / mean - 1))
    b = 2 / mean + log_ndtr(-fac * (v / mean + 1))
    out[inside] = np.exp(a + np.log1p(np.exp(b - a)))
    return out


def _half_gamma_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of Gamma(1/2, 1), with `scipy.stats.gamma.cdf(x, 0.5)`'s bits:
    the regularized lower incomplete gamma function, 0 at x <= 0."""
    return gammainc(0.5, np.maximum(x, 0.0))


def _lambda_grid(
    n_sites: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Deterministic spread of transform points: one flat, one single-site,
    the rest random with growing magnitude."""
    grid = np.empty((count, n_sites))
    grid[0] = 0.4
    grid[1] = 0.0
    grid[1, 0] = 1.0
    for k in range(2, count):
        grid[k] = rng.uniform(0.0, 1.2, n_sites) * (0.3 + 0.7 * k / count)
    return grid


CRITERIA: Dict[int, Callable[[Sizes, int], CheckResult]] = {}


def _criterion(cid: int, name: str, diagnostic: bool = False):
    """Register a criterion body, which returns (passed, detail), as
    CRITERIA[cid]. The registered function is also the module's
    criterion_<cid>: it times the whole body and builds its CheckResult."""

    def register(
        body: Callable[[Sizes, int], Tuple[bool, str]]
    ) -> Callable[[Sizes, int], CheckResult]:
        @functools.wraps(body)
        def check(sizes: Sizes, seed: int) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = body(sizes, seed)
            return CheckResult(
                cid, name, passed, detail, diagnostic, time.perf_counter() - t0
            )

        CRITERIA[cid] = check
        return check

    return register


@_criterion(1, "exact identities")
def criterion_1(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Exact identities of the restricted Green bundle on random
    environments (machine precision): the sampler's kept LDL^T factor
    against an H_beta that h_beta forms anew."""
    wired = WiredBand.box(2, 1)
    subset = _retained_ids(2, 1)
    params = wired.params()
    rng = stream(seed, "c1")
    center = int(subset[len(subset) // 2])
    worst: Dict[str, float] = {}
    for _ in range(sizes.envs_c1):
        sample = sample_batch(params, 1, rng)
        gamma = float(rng.gamma(0.5, 1.0))
        bundle = green_bundle(wired, sample, subset, gamma, i0=center)
        rep, _ = check_identities(bundle, sample.beta[0], i0=center)
        for key, val in asdict(rep).items():
            # Python's max, except that a NaN wins and stays
            prev = worst.get(key, 0.0)
            worst[key] = val if val > prev or np.isnan(val) else prev
    ok = all(v <= 1e-9 for v in worst.values())
    listing = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    return (
        ok,
        f"residuals over {sizes.envs_c1} environments: {listing}"
        f" (tolerance 1e-09 each)",
    )


@_criterion(2, "sampler vs closed form")
def criterion_2(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Sequential sampler against the closed-form transform on three
    graphs."""
    cases: List[Tuple[str, NuParams]] = [
        ("two-path", NuParams.from_graph(_two_path())),
        ("triangle", NuParams.from_graph(_triangle())),
    ]
    cases.append(("wired-3x3", WiredBand.box(2, 1).params()))
    worst_z = 0.0
    worst_at = ""
    for name, params in cases:
        lam = _lambda_grid(params.n, sizes.lam_c2, stream(seed, "c2-grid", name))
        rng = stream(seed, "c2-sample", name)
        vals = _draws(params, sizes.n_c2, rng, lambda s: np.exp(-s.beta @ lam.T))
        for k in range(lam.shape[0]):
            target = laplace_closed_form(params, lam[k])
            z = abs(float(vals[:, k].mean()) - target) / _se(vals[:, k])
            if z > worst_z:
                worst_z, worst_at = z, f"{name} point {k}"
    ok = worst_z <= SE_RULE
    return (
        ok,
        f"worst |z| = {worst_z:.2f} at {worst_at} (rule {SE_RULE:.0f} SE,"
        f" N = {sizes.n_c2})",
    )


@_criterion(3, "inverse-Gaussian marginal")
def criterion_3(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Single-site marginal: reciprocal of twice the potential is Inverse
    Gaussian with mean one over the incident weight."""
    g = _triangle()
    params = NuParams.from_graph(g)
    rng = stream(seed, "c3")
    # site 2 is eliminated last, so the test exercises the whole update
    # chain; the triangle is uniform, so its weight is site 0's
    vals = _draws(params, sizes.n_c3, rng, lambda s: 1.0 / (2.0 * s.beta[:, 2]))
    w_i = float(g.weight_matrix()[0].sum())
    stat, p = ks_1samp(vals, lambda x: _inverse_gaussian_cdf(x, 1.0 / w_i))
    ok = p > ALPHA
    return (
        ok,
        f"KS stat {stat:.4f}, p = {p:.4f} (needs p > {ALPHA}, N = {sizes.n_c3})",
    )


@_criterion(4, "distance-two independence")
def criterion_4(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Independence of the potential at graph distance two or more: joint
    transform factorizes (closed form exactly, samples within 4 SE)."""
    params = WiredBand.box(2, 1).params()
    i, j = 0, params.n - 1  # opposite corners, distance 4
    lam1, lam2 = 1.0, 0.7
    e_i = np.zeros(params.n)
    e_i[i] = lam1
    e_j = np.zeros(params.n)
    e_j[j] = lam2
    closed_gap = abs(
        laplace_closed_form(params, e_i + e_j)
        - laplace_closed_form(params, e_i) * laplace_closed_form(params, e_j)
    )
    rng = stream(seed, "c4")
    lams = np.array([lam1, lam2])
    xs, ys = _draws(
        params, sizes.n_c4, rng, lambda s: np.exp(-lams * s.beta[:, [i, j]])
    ).T
    z_arr = (xs - xs.mean()) * (ys - ys.mean())
    cov = float(z_arr.mean())
    se = _se(z_arr)
    ok = closed_gap <= 1e-12 and abs(cov) <= SE_RULE * se
    return (
        ok,
        f"closed-form gap {closed_gap:.2e}, sample cov {cov:.2e}"
        f" ({abs(cov) / se:.2f} SE, N = {sizes.n_c4})",
    )


@_criterion(5, "restriction compatibility")
def criterion_5(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Restriction compatibility: sample on the 5x5 wired box, restrict to
    the 3x3 core, compare with the core's own closed form."""
    # the core's sites in the 5x5 box, which are its ids in the box it is
    # wired inside: the core wired inside the 5x5 box has the same P and
    # eta as wired inside the 7x7 box
    pos = _retained_ids(2, 1)
    params2 = WiredBand.box(2, 2).params()
    params1 = WiredBand.box(2, 1).params()
    lam = _lambda_grid(params1.n, sizes.lam_c5, stream(seed, "c5-grid"))
    rng = stream(seed, "c5")
    vals = _draws(
        params2, sizes.n_c5, rng, lambda s: np.exp(-s.beta[:, pos] @ lam.T)
    )
    worst_z = 0.0
    for k in range(lam.shape[0]):
        target = laplace_closed_form(params1, lam[k])
        worst_z = max(
            worst_z, abs(float(vals[:, k].mean()) - target) / _se(vals[:, k])
        )
    ok = worst_z <= SE_RULE
    return (
        ok,
        f"worst |z| = {worst_z:.2f} over {lam.shape[0]} transform points"
        f" (rule {SE_RULE:.0f} SE, N = {sizes.n_c5})",
    )


@_criterion(6, "martingale suite")
def criterion_6(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Martingale suite: unit mean of the boundary-hitting sum, the paired
    exponential functional across one box increment, and the
    covariance-vs-Green bracket."""
    # the core's places in the 5x5 box, as in criterion 5
    pos = _retained_ids(2, 1)
    params1 = WiredBand.box(2, 1).params()
    params2 = WiredBand.box(2, 2).params()
    eta1 = params1.eta
    eta2 = params2.eta
    m1 = params1.n
    center, corner = m1 // 2, 0

    # (a) unit mean and (c) bracket, on the 3x3 core
    rng = stream(seed, "c6-core")
    # columns psi = Ghat eta and Ghat e_corner, whose center entry is
    # Ghat(center, corner)
    e_corner = np.zeros(m1)
    e_corner[corner] = 1.0
    core_rhs = np.stack([eta1, e_corner], axis=1)

    def core(sample: BandSample) -> np.ndarray:
        cols = green_solve_banded(sample, core_rhs)
        psi = cols[..., 0]
        bracket = psi[:, center] * psi[:, corner] - cols[:, center, 1] - 1.0
        return np.stack([psi[:, center], psi[:, corner], bracket], axis=1)

    psi_c, psi_k, bracket = _draws(params1, sizes.n_c6, rng, core).T
    z_mean = max(
        abs(psi_c.mean() - 1.0) / _se(psi_c), abs(psi_k.mean() - 1.0) / _se(psi_k)
    )
    z_bracket = abs(bracket.mean()) / _se(bracket)

    # (b) paired exponential functional across the 3x3 -> 5x5 increment
    rng_b = stream(seed, "c6-increment")
    lam_small = stream(seed, "c6-lam").uniform(0.05, 0.4, m1)
    # lam_small scattered to the core's places in the 5x5 box, so that the
    # core block's quadratic form is z . Ghat z
    z = np.zeros(params2.n)
    z[pos] = lam_small
    rhs1 = np.stack([eta1, lam_small], axis=1)

    def increment(sample: BandSample) -> np.ndarray:
        # the 5x5 box on its draw's factor, a column at a time, so that
        # beside the kept factor only one (25, S) solution is held
        x = np.exp(
            -green_solve_banded(sample, eta2)[:, pos] @ lam_small
            - 0.5 * (green_solve_banded(sample, z) @ z)
        )
        # the core's own law at the same sites: that field was drawn on the
        # 5x5 box, not on the core block, so it has no factor to solve on
        cols1 = green_solve(params1.p, sample.beta[:, pos], rhs1)
        y = np.exp(-cols1[..., 0] @ lam_small - 0.5 * (cols1[..., 1] @ lam_small))
        return x - y

    diff = _draws(params2, sizes.n_c6b, rng_b, increment)
    z_pair = abs(diff.mean()) / _se(diff)

    worst = max(z_mean, z_bracket, z_pair)
    ok = worst <= SE_RULE
    return (
        ok,
        f"|z| mean = {z_mean:.2f}, increment = {z_pair:.2f},"
        f" bracket = {z_bracket:.2f} (rule {SE_RULE:.0f} SE)",
    )


@_criterion(7, "collapsed-vertex coupling law")
def criterion_7(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Boundary-coupling law: half the reciprocal of the collapsed-vertex
    Green diagonal is Gamma(1/2, 1), sampled on the full wired graph with no
    boundary vector (so the check is not circular)."""
    wired = WiredBand.box(2, 1)
    params = NuParams.from_graph(wired.graph())
    rng = stream(seed, "c7")
    d_idx = wired.n
    e_d = np.zeros(params.n)
    e_d[d_idx] = 1.0
    # Not on the draw's factor: delta is eliminated last, so
    # 1/(2 G(delta, delta)) is its pivot x_last / 2, and with eta = 0 that
    # pivot is the sampler's own chi-square(1) draw. Read from the factor,
    # the check would test the sampler against itself; a fresh LU solve of
    # H_beta tests the drawn field.
    vals = _draws(
        params,
        sizes.n_c7,
        rng,
        lambda s: 1.0 / (2.0 * green_solve(params.p, s.beta, e_d)[:, d_idx]),
    )
    z = abs(vals.mean() - 0.5) / _se(vals)
    stat, p = ks_1samp(vals, _half_gamma_cdf)
    ok = z <= SE_RULE and p > ALPHA
    return (
        ok,
        f"mean {vals.mean():.4f} ({z:.2f} SE from 0.5), KS p = {p:.4f}"
        f" (needs p > {ALPHA}, N = {sizes.n_c7})",
    )


@_criterion(8, "mixture representation")
def criterion_8(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Mixture representation: jump words of the reinforced walk match
    annealed words of the environment-fixed chain on a 4-vertex wired
    graph. Each environment's chain steps its QuenchedRates, built on the
    wired graph's neighbour tables from the root's kernel row, as the
    quenched chains of C10 and of the command line do."""
    # the retained set is a corner of the 3x3 box, not a centred box, so
    # it is wired from the graph
    g3 = build_lattice_box(2, 1, 1.0)
    subset = [0, 1, 3, 4]
    wired = WiredBand.from_graph(g3, subset)
    base = wired.graph()
    params = wired.params()
    start = 3  # the (0,0) vertex, adjacent to delta
    length = 3

    words_a = vrjp_words(base, start, length, sizes.n_c8, stream(seed, "c8-vrjp"))

    rng = stream(seed, "c8-quench")
    tables = wired.neighbours()
    rhs = np.stack([np.eye(params.n)[start], params.eta], axis=1)

    def quenched_words(sample: BandSample) -> np.ndarray:
        cols = green_solve_banded(sample, rhs)
        gamma = rng.gamma(0.5, 1.0, size=sample.beta.shape[0])
        rows = _kernel_row(cols[..., 1], cols[..., 0], start, gamma)
        rates = QuenchedRates.from_green(*tables, rows, start)
        return markov_words(rates, start, length, rng)

    words_b = _draws(params, sizes.n_c8, rng, quenched_words)
    p = word_chi2(words_a, words_b)
    ok = p > ALPHA
    return (
        ok,
        f"word chi-square p = {p:.4f} (needs p > {ALPHA},"
        f" N = {sizes.n_c8} per side)",
    )


@_criterion(9, "reinforced-walk equivalence")
def criterion_9(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Linearly reinforced walk equals the reinforced jump chain in an iid
    Gamma conductance environment (triangle, a = 1)."""
    g = _triangle()
    length = 3
    words_a = errw_words(g, 1.0, 0, length, sizes.n_c9, stream(seed, "c9-errw"))
    rng = stream(seed, "c9-vrjp")
    w_draws = rng.gamma(1.0, 1.0, size=(sizes.n_c9, g.edge_count))
    words_b = vrjp_words(g, 0, length, sizes.n_c9, rng, edge_weights=w_draws)
    p = word_chi2(words_a, words_b)
    ok = p > ALPHA
    return (
        ok,
        f"word chi-square p = {p:.4f} (needs p > {ALPHA}, N = {sizes.n_c9})",
    )


@_criterion(10, "escape probabilities")
def criterion_10(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Escape probabilities: closed formulas against absorbed-chain Monte
    Carlo in sampled environments."""
    wired = WiredBand.box(2, 1)
    subset = _retained_ids(2, 1)
    params = wired.params()
    center = int(subset[len(subset) // 2])
    corner = int(subset[0])
    worst_z = 0.0
    for env in range(sizes.envs_c10):
        rng = stream(seed, "c10-env", env)
        sample = sample_batch(params, 1, rng)
        gamma = float(rng.gamma(0.5, 1.0))
        bundle = green_bundle(wired, sample, subset, gamma, i0=center)
        rates = QuenchedRates.from_bundle(bundle)
        p0 = bundle.position(center)
        d_idx = bundle.delta_index
        for start_vertex in (center, corner):
            target = escape_probability_formula(bundle, center, start_vertex)
            s_idx = bundle.position(start_vertex)
            rep = mc_return_probability(
                rates,
                s_idx,
                absorb={p0, d_idx},
                n=sizes.n_c10,
                rng=stream(seed, "c10-mc", env, 1 if start_vertex == center else 2),
            )
            p_hat, se = rep.prob(d_idx)
            z = abs(p_hat - target) / max(se, 1e-12)
            worst_z = max(worst_z, z)
    ok = worst_z <= SE_RULE
    return (
        ok,
        f"worst |z| = {worst_z:.2f} over {sizes.envs_c10} environments x 2"
        f" starts (rule {SE_RULE:.0f} SE, N = {sizes.n_c10})",
    )


@_criterion(11, "cosh moment bound")
def criterion_11(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Exponential cosh moment stays below its closed bound (hop counts one
    and two)."""
    pair = WeightedGraph(n=2, edges=((0, 1, 1.0),))
    rep1 = cosh_moment_experiment(pair, 0, 0, 1, 0.5, sizes.n_c11, seed=seed)
    rep2 = cosh_moment_experiment(
        _two_path(), 0, 0, 2, 0.5, sizes.n_c11, seed=seed + 1
    )
    margins = []
    ok = True
    for rep in (rep1, rep2):
        bound = float(rep.extra["bound"])
        slack = (bound - rep.mean) / max(rep.stderr, 1e-12)
        margins.append(f"K={int(rep.extra['k'])}: mean {rep.mean:.4f}"
                       f" vs bound {bound:.4f} ({slack:+.1f} SE)")
        if rep.mean > bound + SE_RULE * rep.stderr:
            ok = False
    return ok, "; ".join(margins) + f" (N = {sizes.n_c11})"


@_criterion(12, "random-walk calibration")
def criterion_12(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Walker calibration: simple-random-walk mean squared displacement
    equals the step count. Only the endpoints X_n are drawn (srw_endpoints),
    and E|X_n|^2/n is their plain mean."""
    n = sizes.len_c12
    ends = srw_endpoints(2, sizes.walks_c12, n, stream(seed, "c12"))
    mean = float(((ends.astype(float) ** 2).sum(axis=1) / float(n)).mean())
    err = abs(mean - 1.0)
    ok = err <= 0.02
    return (
        ok,
        f"E|X_n|^2/n = {mean:.4f} (|error| = {err:.4f}, allowed 0.02,"
        f" {sizes.walks_c12} walks of {sizes.len_c12} steps)",
    )


@_criterion(13, "soft regime diagnostics", diagnostic=True)
def criterion_13(sizes: Sizes, seed: int) -> Tuple[bool, str]:
    """Soft diagnostics: center boundary-sum decay/stabilization by regime,
    conductance-ratio decay with separation, and rough linear growth with
    isotropy for the time-changed walk. Reported, never gated."""
    notes: List[str] = []

    rows_d2 = psi_decay_experiment(2, 0.2, sizes.psi_radii_d2, sizes.psi_n, seed)
    med2 = [r["median"] for r in rows_d2]
    dec = all(b < a for a, b in zip(med2, med2[1:]))
    notes.append(
        f"d=2 W=0.2 medians {['%.3g' % m for m in med2]}"
        f" {'decreasing' if dec else 'NOT decreasing'}"
    )

    rows_d3 = psi_decay_experiment(3, 10.0, sizes.psi_radii_d3, sizes.psi_n, seed)
    med3 = [r["median"] for r in rows_d3]
    stab = med3[-1] >= 0.5 * med3[0]
    notes.append(
        f"d=3 W=10 medians {['%.3g' % m for m in med3]}"
        f" {'stable' if stab else 'NOT stable'}"
    )

    ratios = conductance_ratio_experiment(1.0, sizes.cr_ells, sizes.cr_n, seed)
    means = [r.mean for r in ratios]
    r_dec = all(b < a for a, b in zip(means, means[1:]))
    notes.append(
        f"ratio quarter-moments {['%.3g' % m for m in means]}"
        f" {'decreasing' if r_dec else 'NOT decreasing'}"
    )

    vd = vrjp_diffusion_experiment(3, 10.0, sizes.vd_jumps, sizes.vd_walks, seed)
    lin = 0.5 <= vd["slope_ratio"] <= 2.0
    iso = vd["isotropy"] <= 1.5
    notes.append(
        f"growth slope ratio {vd['slope_ratio']:.2f}"
        f" ({'roughly linear' if lin else 'nonlinear'}),"
        f" isotropy {vd['isotropy']:.2f} ({'ok' if iso else 'skewed'})"
    )

    return True, "; ".join(notes)


def run_suite(
    tier: str = "quick",
    seed: int = DEFAULT_SEED,
    only: Optional[Iterable[int]] = None,
) -> List[CheckResult]:
    """Run the numbered checks at a size tier; `only` restricts to a subset
    of criterion ids."""
    if tier not in ("quick", "full"):
        raise ValueError(f"unknown tier {tier!r}")
    sizes = QUICK if tier == "quick" else FULL
    ids = sorted(set(int(i) for i in only)) if only is not None else sorted(CRITERIA)
    bad = [i for i in ids if i not in CRITERIA]
    if bad:
        raise ValueError(f"unknown criterion ids {bad}")
    return [CRITERIA[i](sizes, seed) for i in ids]
