"""Process simulators: the reinforced jump process in continuous time, the
linearly reinforced discrete walk, quenched Markov jump chains in a fixed
environment, and closed-form escape probabilities with their Monte Carlo
oracles. The conditioned (h-transformed) chains and the time change as a
pair of maps are test oracles (tests/_oracles.py).

A continuous walk's entry times on its own clock and on D = sum_i (L_i^2 -
1), in which it is a mixture of the environment-fixed Markov jump
processes, come from one record in `_clocks`: `_walk`'s holding times and
the occupied vertex's local time as each began.

Holding times are exact: while the walker sits at a vertex, the jump rates to
its neighbors are frozen (only the occupied vertex accumulates local time),
so waits are exponential with constant rate and there is no discretization
error anywhere.

Each reinforced walk has one loop per traffic shape. A single reinforced
jump walk, on a finite graph or on Z^d, runs the scalar event loop `_walk` on
Python floats, which draws its waits and picks a chunk at a time: a chunk's
standard exponentials, then its uniforms. Many walks run `vrjp_words`, one
numpy pass per step for all of them. On a 2-vCPU VM `vrjp_words` costs about
0.4 us per walk-step at 25,000 walks but about 30 us per step for one walk,
where `_walk` costs about 1.7 us per jump on the d=2 radius-10 box and about
4 us on Z^3 at W = 10, whose rows and local times are dicts. The same holds
for the linearly reinforced discrete walk: a single walk runs the scalar
loop `_errw_walk`, at about 0.6 us per step on the same box, and many walks run
`errw_words`, which costs 20-24 us per step for one walk. A finite chain in a
fixed environment keeps its rates on its edges, in the slots of a neighbour
table (`QuenchedRates`), and has one stepping rule, `_step`, on the running
sums of a state's slots (`_running_sums`): `markov_words` steps one
environment per walk (`quenched_mjp` is that loop with one walk), and
`mc_return_probability` steps chains in one environment and adds only the
bookkeeping of absorbed chains. The batched reinforced walkers step by
`_step` too, on the running sums of each walk's rates or counts gathered
by edge id, so neither takes a pad slot. The chain's rates,
1/2 W_ij G(i0,j) / G(i0,i), have one expression, `schrodinger._rate_rows`,
which `QuenchedRates`, `escape_probability_formula` and `check_identities`
all read.

Finite-volume semantics: on a wired graph, "never returns" is read as "hits
delta before returning", and absorbed-chain estimators always take one free
first step so that starting inside the absorbing set means first-return, not
instant absorption.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericError
from .graphs import WeightedGraph, _refuse_beyond_memory
from .schrodinger import GreenBundle, _kernel_row, _rate_rows, _whole

__all__ = [
    "Trajectory",
    "QuenchedRates",
    "simulate_vrjp",
    "simulate_errw",
    "quenched_mjp",
    "escape_probability_formula",
    "mc_return_probability",
    "AbsorptionReport",
    "vrjp_words",
    "errw_words",
    "markov_words",
    "simulate_vrjp_lattice",
]


@dataclass(frozen=True)
class Trajectory:
    """A walk: vertex sequence, optional entry times, optional local times.

    times[k] is when vertices[k] was entered; None means a discrete walk.
    transformed_times[k] is that entry on the D clock. local_times are the
    final values of 1 + occupation time per vertex for a continuous walk.
    Consecutive vertices are adjacent in the generating graph (guaranteed by
    the simulators).
    """

    vertices: np.ndarray
    times: Optional[np.ndarray] = None
    local_times: Optional[np.ndarray] = None
    horizon: Optional[float] = None
    transformed_times: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=int)
        object.__setattr__(self, "vertices", v)
        if self.transformed_times is not None and self.times is None:
            raise DomainError("transformed times need entry times")
        for name in ("times", "transformed_times"):
            if getattr(self, name) is None:
                continue
            t = np.asarray(getattr(self, name), dtype=float)
            if t.shape != v.shape:
                raise DomainError(f"{name} length must match vertices")
            if (np.diff(t) <= 0).any():
                raise DomainError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, t)
        if self.local_times is not None:
            object.__setattr__(
                self, "local_times", np.asarray(self.local_times, dtype=float)
            )


# Waits and picks drawn at a time by the scalar jump walk. A chunk holds the
# waits of its jumps, then their picks, so the chunk size sets which variate
# a jump reads and the walk's bits depend on it; 4096 keeps a chunk small and
# the draw calls few. The loop reads a chunk as Python floats _WALK_READ at a
# time, so a walk that stops after a few jumps converts few of them. A
# variate of the current chunk costs at most 40 B, as a double and as the
# Python float the loop reads.
_WALK_CHUNK = 1 << 12
_WALK_READ = 256
_DRAW_BYTES = 40


def _walk(rows, local, v, rng, horizon, cap):
    """Event loop of one reinforced jump walk from vertex v, on Python
    floats; the local times in `local` are updated in place. rows[x] is x's
    pair of lists (neighbor ids, conductances), and the rate to neighbor y is
    its conductance times local[y]. Stops before a jump at or past
    `horizon`, at a vertex without neighbors, or after `cap` jumps. Returns
    the visited vertices, the holding times, and the occupied vertex's local
    time as each began.

    Variates come a chunk at a time, and only while the occupied vertex has
    neighbors: k = min(_WALK_CHUNK, cap - jumps so far) standard
    exponentials, then k uniforms. The j-th jump of a chunk waits its scale
    1/total times the j-th exponential, as `rng.exponential` forms a wait,
    and scales the j-th uniform by total; what a stopped walk leaves of its
    chunk is dropped. Sums keep numpy's bits: fewer than 8 rates add left to
    right, more in `np.add.reduce`'s pairwise order. The next vertex is the
    first whose running rate sum exceeds the scaled uniform, or the last if
    rounding puts the uniform past them all."""
    verts = [v]
    waits = []
    entered = []
    s = 0.0
    while len(waits) < cap and rows[v][0]:
        k = min(_WALK_CHUNK, cap - len(waits))
        exps = rng.standard_exponential(k)
        picks = rng.random(k)
        for a in range(0, k, _WALK_READ):
            for e, pick in zip(
                exps[a : a + _WALK_READ].tolist(), picks[a : a + _WALK_READ].tolist()
            ):
                nb, wv = rows[v]
                if not nb:
                    return verts, waits, entered
                rates = [w * local[y] for y, w in zip(nb, wv)]
                if len(rates) < 8:
                    total = 0.0
                    for r in rates:
                        total += r
                else:
                    total = float(np.add.reduce(rates))
                wait = (1.0 / total) * e
                if s + wait >= horizon:
                    return verts, waits, entered
                s += wait
                lv = local[v]
                local[v] = lv + wait
                u = pick * total
                run = 0.0
                for v, r in zip(nb, rates):
                    run += r
                    if run > u:
                        break
                verts.append(v)
                waits.append(wait)
                entered.append(lv)
    return verts, waits, entered


def _clocks(waits, entered):
    """Entry times on the walk's own clock and on D, both from 0: a holding
    of length w begun at local time L adds w to the first, 2 L w + w^2 to
    the second."""
    w = np.array([0.0, *waits])  # a first holding of length 0: both start at 0
    return np.cumsum(w), np.cumsum(2.0 * np.array([1.0, *entered]) * w + w**2)


def simulate_vrjp(
    g: WeightedGraph, i0: int, horizon: float, rng: np.random.Generator
) -> Trajectory:
    """Event-driven continuous-time reinforced walk up to a time horizon.

    From vertex i the rate to neighbor j is W_ij times j's current local
    time; neighbors' local times are frozen while the walker holds, so each
    wait is a single exponential draw. Entry times come on both clocks.
    """
    if not 0.0 < horizon < np.inf:
        raise DomainError("horizon must be positive and finite")
    if not (0 <= i0 < g.n):
        raise DomainError("start vertex out of range")
    rows = [([u for u, _ in nb], [float(w) for _, w in nb]) for nb in g.neighbors]
    local = [1.0] * g.n
    verts, waits, entered = _walk(rows, local, int(i0), rng, horizon, np.inf)
    times, d_times = _clocks(waits, entered)
    local = np.array(local)
    local[verts[-1]] += horizon - times[-1]
    return Trajectory(
        vertices=np.array(verts),
        times=times,
        local_times=local,
        horizon=float(horizon),
        transformed_times=d_times,
    )


def _edge_tables(g: WeightedGraph):
    """Padded per-vertex neighbor and edge-id tables for batch walkers.

    Pad slots point at a phantom edge, id edge_count, which the walkers
    give weight zero, and at vertex 0; `_step` never picks them, since its
    scaled uniform never passes a row's last running sum.
    """
    edge_id = {}
    for e, (i, j, _w) in enumerate(g.edges):
        edge_id[(i, j)] = e
        edge_id[(j, i)] = e
    maxdeg = max(len(nb) for nb in g.neighbors)
    nbr = np.zeros((g.n, maxdeg), dtype=int)
    eids = np.full((g.n, maxdeg), g.edge_count, dtype=int)
    for v in range(g.n):
        for slot, (u, _w) in enumerate(g.neighbors[v]):
            nbr[v, slot] = u
            eids[v, slot] = edge_id[(v, u)]
    return nbr, eids


def vrjp_words(
    g: WeightedGraph,
    i0: int,
    length: int,
    n_walks: int,
    rng: np.random.Generator,
    edge_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """First `length` jump-chain steps of the continuous-time reinforced walk,
    vectorized across walks. edge_weights, if given, holds per-walk
    conductances with shape (n_walks, edge_count), each positive and finite
    (DomainError otherwise); holding times are still drawn because they feed
    the local times that reinforce later steps. A step gathers each walk's
    rates by edge id, draws its wait from their total, the last running
    sum, and its next slot by `_step` on the running sums.
    """
    _check_start(g, i0, length)
    if edge_weights is None:
        edge_weights = np.array([w for _, _, w in g.edges])
    else:
        edge_weights = np.asarray(edge_weights, dtype=float)
        if edge_weights.shape != (n_walks, g.edge_count):
            raise DomainError("edge_weights must have shape (n_walks, edge_count)")
        if not (np.isfinite(edge_weights) & (edge_weights > 0)).all():
            raise DomainError("edge weights must be positive and finite")
    nbr, eids = _edge_tables(g)
    # one column more, the phantom edge of weight 0; g's own weights are
    # one row that every walk reads
    ew = np.zeros(edge_weights.shape[:-1] + (g.edge_count + 1,))
    ew[..., :-1] = edge_weights
    ew = np.broadcast_to(ew, (n_walks, g.edge_count + 1))
    rows = np.arange(n_walks)
    local = np.ones((n_walks, g.n))
    v = np.full(n_walks, int(i0))
    words = np.empty((n_walks, length), dtype=int)
    for t in range(length):
        nb = nbr[v]
        cum = np.cumsum(ew[rows[:, None], eids[v]] * local[rows[:, None], nb], axis=1)
        local[rows, v] += rng.exponential(1.0 / cum[:, -1])
        v = nb[rows, _step(cum, rng)]
        words[:, t] = v
    return words


def errw_words(
    g: WeightedGraph,
    a,
    i0: int,
    length: int,
    n_walks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First `length` steps of the linearly reinforced discrete walk,
    vectorized across walks: step probabilities are proportional to initial
    weight plus crossings of each incident edge."""
    a = _errw_weights(g, a, i0, length)
    nbr, eids = _edge_tables(g)
    rows = np.arange(n_walks)
    counts = np.zeros((n_walks, g.edge_count + 1))
    counts[:, :-1] = a
    v = np.full(n_walks, int(i0))
    words = np.empty((n_walks, length), dtype=int)
    for t in range(length):
        ev = eids[v]
        choice = _step(np.cumsum(counts[rows[:, None], ev], axis=1), rng)
        counts[rows, ev[rows, choice]] += 1.0
        v = nbr[v, choice]
        words[:, t] = v
    return words


def markov_words(
    rates: "QuenchedRates",
    start: int,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample `length` steps of one environment-fixed chain per walk.

    rates holds one environment per walk: rates of shape (n_walks, size,
    width) on its neighbour table nbr, (size, width). start is a state in
    range(size), and every rate must be finite, checked once before the
    first step. Each step is `_step` on the current state's slots, and
    stepping into a state with no outgoing rate raises DomainError.
    """
    table = rates.rates
    if table.ndim != 3 or table.shape[1:] != rates.nbr.shape:
        raise DomainError("rates need one walk per environment (n_walks, size, width)")
    start = _whole(start, "start state", rates.size)
    if length < 0:
        raise DomainError("length must be nonnegative")
    cum = _running_sums(rates.kernel())
    walks = np.arange(table.shape[0])
    v = np.full(table.shape[0], start)
    words = np.empty((table.shape[0], length), dtype=int)
    for t in range(length):
        v = rates.nbr[v, _step(cum[walks, v], rng)]
        words[:, t] = v
    return words


def _running_sums(kernel: np.ndarray) -> np.ndarray:
    """Running sums along every row of a kernel; DomainError if an entry is
    not finite."""
    cum = np.cumsum(kernel, axis=-1)
    # a NaN or an infinite entry leaves its row's running sum non-finite
    if not np.isfinite(cum[..., -1]).all():
        raise DomainError("kernel with an entry that is not finite")
    return cum


def _step(cum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Next slot of each chain, from the running sums of its current row of
    kernel entries, rates or reinforced weights (one row per chain): one
    uniform per chain, scaled by the row's mass, picks the first slot whose
    running sum reaches it, never a pad behind the last rate, since the
    mass is that slot's running sum. A row with zero mass raises
    DomainError before anything is drawn."""
    norm = cum[:, -1]
    if (norm <= 0).any():
        raise DomainError("kernel row with zero mass visited")
    u = rng.random(norm.shape[0]) * norm
    return (cum < u[:, None]).sum(axis=1)


def _errw_weights(g: WeightedGraph, a, i0: int, steps: int) -> np.ndarray:
    """Initial edge weights of a reinforced discrete walk of `steps` steps on
    g from vertex i0, one per edge; each must be positive and finite, and a
    walk that steps must start at a vertex with an edge."""
    a = np.broadcast_to(np.asarray(a, dtype=float), (g.edge_count,))
    if not (np.isfinite(a) & (a > 0)).all():
        raise DomainError("initial edge weights must be positive and finite")
    _check_start(g, i0, steps)
    return a


def _check_start(g: WeightedGraph, i0: int, steps: int) -> None:
    """A walk of `steps` steps on g from vertex i0: steps must be
    nonnegative, i0 a vertex of g and, for a walk that steps, one with an
    edge (else the batched walkers would find a row with no slots)."""
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if not (0 <= i0 < g.n):
        raise DomainError("start vertex out of range")
    if steps and not g.neighbors[i0]:
        raise DomainError("the start vertex has no edges to walk along")


# Uniforms drawn at a time by the single discrete walk. The generator hands
# out the same doubles whatever the chunk size, so it bounds memory only.
_ERRW_CHUNK = 1 << 16
# Bytes a single discrete walk and the CLI rows written from it keep per
# step: the walk's vertex list, then the Trajectory's array and the CLI's
# step and entry-time columns, 8 B each, which the CSV writer reads a block
# at a time. Rounded up from tracemalloc peaks of the CLI run over 100,000
# to 400,000 steps: 24 B per step on the d=2 radius-10 and radius-40 boxes
# (the vertex list holds the neighbor tables' own int objects, so large
# vertex ids cost no more). A uniform of the current chunk costs _DRAW_BYTES.
_ERRW_STEP_BYTES = 64


def _errw_walk(nbrs, eids, counts, v, steps, rng):
    """Event loop of one linearly reinforced discrete walk of `steps` steps
    from vertex v; the edge counts in the list `counts` are updated in
    place. nbrs[x] and eids[x] list x's neighbor ids and edge ids slot by
    slot. A step draws one uniform, scales it by the total count around the
    occupied vertex, and takes the first slot whose running count sum reaches
    it, as `errw_words` does. Returns the visited vertices."""
    verts = [v]
    while len(verts) <= steps:
        for r in rng.random(min(steps + 1 - len(verts), _ERRW_CHUNK)).tolist():
            ev = eids[v]
            total = 0.0
            for e in ev:
                total += counts[e]
            u = r * total
            run = 0.0
            for slot, e in enumerate(ev):
                run += counts[e]
                if run >= u:
                    break
            counts[e] += 1.0
            v = nbrs[v][slot]
            verts.append(v)
    return verts


def simulate_errw(
    g: WeightedGraph,
    a,
    i0: int,
    steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Single discrete reinforced walk; counts start at a_e and each crossing
    adds one to its (undirected) edge. The walk, and the generator's state
    after it, equal those of `errw_words` with one walk."""
    a = _errw_weights(g, a, i0, steps)
    _refuse_beyond_memory(
        steps * _ERRW_STEP_BYTES + min(steps, _ERRW_CHUNK) * _DRAW_BYTES,
        f"a discrete walk of {steps} steps",
    )
    nbr, eids = _edge_tables(g)
    deg = [len(nb) for nb in g.neighbors]
    verts = _errw_walk(
        [nbr[x, :d].tolist() for x, d in enumerate(deg)],
        [eids[x, :d].tolist() for x, d in enumerate(deg)],
        a.tolist(),
        int(i0),
        steps,
        rng,
    )
    return Trajectory(vertices=np.array(verts))


@dataclass(frozen=True)
class QuenchedRates:
    """Jump rates of the environment-fixed Markov jump process, on the slots
    of the (size, width) neighbour table nbr of WiredBand.neighbours.

    rates[..., i, s] = W_ij G(i0, j) / (2 G(i0, i)) for j = nbr[i, s] (0 on
    a pad slot), formed by `schrodinger._rate_rows`, the one expression of
    this law that `escape_probability_formula` and `check_identities` also
    read; exit holds slot sums. Away from the root the exit rate reproduces
    the potential exactly, and on its D clock the walk from i0 is a mixture
    of these processes. Leading batch axes of rates and exit hold one
    environment each. A dense table is the one whose rows list every state.
    """

    rates: np.ndarray
    nbr: np.ndarray
    exit: np.ndarray
    i0: int

    @property
    def size(self) -> int:
        return self.nbr.shape[0]

    def kernel(self) -> np.ndarray:
        """Row-normalized step kernel; zero rows (absorbing states) stay zero."""
        e = self.exit[..., None]
        return np.divide(self.rates, e, out=np.zeros_like(self.rates), where=e > 0)

    @classmethod
    def from_green(cls, nbr, weights, row: np.ndarray, i0: int) -> "QuenchedRates":
        """Rates on neighbour tables (nbr, weights) and the root's full Green
        row, a batch of rows giving each row's table bit for bit; the table,
        its kernel and running sums are refused beyond memory (SizeError)."""
        # the rates divide by it: a zero would give 0/0 off its component
        if not (np.isfinite(row) & (row > 0)).all():
            raise NumericError("Green row of the root is not positive and finite")
        cells = int(np.prod(np.shape(row)[:-1])) * nbr.size
        _refuse_beyond_memory(3 * 8 * cells, f"a rate table of {cells} slots")
        rates = _rate_rows(nbr, weights, row)
        return cls(rates=rates, nbr=nbr, exit=rates.sum(axis=-1), i0=int(i0))

    @classmethod
    def from_bundle(cls, bundle: GreenBundle) -> "QuenchedRates":
        """Rates on the wired state space (retained set plus delta last),
        rooted at the bundle's own root: from_green on the bundle's
        WiredBand.neighbours, with the root's kernel row from its column."""
        i0 = bundle.i0_index
        return cls.from_green(*bundle.wired.neighbours(), bundle.kernel_row(i0), i0)


# Bytes a quenched chain and the CLI rows written from it keep per step: the
# chain's words, then the Trajectory's array and the CLI's step, label and
# entry-time columns, 8 B each, held together beside the environment until
# the CSV writer reads them a block at a time. Rounded up from the growth of
# tracemalloc peaks of the CLI run with the step count, 100,000 to 400,000,
# on d=2 boxes: 32 B per step at radius 10 (from 200,000 steps), 24 B at
# radius 4, where the peak falls in the writer, and none at radius 16, where
# forming the environment's then dense kernel (77 MB) set the peak. The
# labels are shared str objects, one per state.
_CHAIN_STEP_BYTES = 64


def quenched_mjp(
    rates: QuenchedRates,
    start: int,
    steps: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Jump chain of the environment-fixed process on the rate table's
    states, started at `start`, a state in range(rates.size). It is
    `markov_words` with one walk on the rates of one environment; stepping
    into a state with no outgoing rate raises DomainError."""
    _whole(start, "start state", rates.size)
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    _refuse_beyond_memory(
        steps * _CHAIN_STEP_BYTES, f"a quenched chain of {steps} steps"
    )
    one = replace(rates, rates=rates.rates[None], exit=rates.exit[None])
    words = markov_words(one, start, steps, rng)
    return Trajectory(vertices=np.concatenate([[int(start)], words[0]]))


def escape_probability_formula(
    bundle: GreenBundle, i0: Optional[int], i: Optional[int]
) -> float:
    """Probability that the quenched chain rooted at i0, started at i, hits
    delta before (re)visiting i0. i or i0 given as parent-graph vertex ids;
    i = None means delta (returns 1). Finite-volume reading of the escape
    event. It reads psi, hat_g's column of i0 (GreenBundle.hat_g_column),
    the kernel row of i0 formed from it and, for i = i0, the root's exit
    rate: `_rate_rows` on the row of i0 in the bundle's neighbour tables
    alone, the bits of `QuenchedRates.from_bundle(bundle).exit` at the
    root."""
    p0 = bundle.position(i0)
    if p0 == bundle.delta_index:
        raise DomainError("the root must be a retained vertex")
    pi = bundle.position(i)
    psi_e = bundle.psi_ext()
    col = bundle.hat_g_column(p0)
    grow = _kernel_row(bundle.psi, col, p0, bundle.gamma)
    g00 = col[p0]
    psi0 = psi_e[p0]
    if pi == p0:
        nbr, w = bundle.wired.neighbours()
        at = slice(p0, p0 + 1)
        exit0 = float(_rate_rows(nbr[at], w[at], grow, at).sum(axis=-1)[0])
        return float(psi0**2 / (4.0 * bundle.gamma * exit0 * g00 * grow[p0]))
    # hat_g vanishes on delta
    g0i = col[pi] if pi < bundle.m else 0.0
    gcheck = g00 * psi_e[pi] - g0i * psi0
    return float(psi0 * gcheck / (2.0 * bundle.gamma * g00 * grow[pi]))


@dataclass(frozen=True)
class AbsorptionReport:
    """Absorption frequencies with binomial standard errors, over n chains
    and keyed by the absorbing states. n must be a whole number of at least
    1, and the counts whole numbers in [0, n] that sum to at most n; each is
    checked, with DomainError, when the report is built."""

    n: int
    counts: Dict[int, int]

    def __post_init__(self):
        n = _whole(self.n, "chain count")
        if n < 1:
            raise DomainError(f"chain count must be at least 1, got {n}")
        total = 0
        for state, c in self.counts.items():
            c = _whole(c, f"count at state {state}")
            if not 0 <= c <= n:
                raise DomainError(f"count {c} at state {state} is outside [0, {n}]")
            total += c
        if total > n:
            raise DomainError(f"counts sum to {total}, past the {n} chains")

    def prob(self, state: int) -> Tuple[float, float]:
        """Share of chains absorbed at `state` and its standard error; a
        state outside the absorbing set raises DomainError."""
        state = int(state)
        if state not in self.counts:
            raise DomainError(f"state {state} is not in the absorbing set")
        p = self.counts[state] / self.n
        return p, float(np.sqrt(p * (1.0 - p) / self.n))


# Steps after which mc_return_probability gives up on unabsorbed chains.
MAX_SWEEPS = 1_000_000


def mc_return_probability(
    rates: QuenchedRates,
    i0: int,
    absorb: Iterable[int],
    n: int,
    rng: np.random.Generator,
) -> AbsorptionReport:
    """Fraction of n independent chains (started at i0) absorbed at each
    element of `absorb`, on the kernel of one environment's rates. Each
    sweep steps the chains still running by `_step`, as `markov_words`
    steps its walks, and drops those it absorbs. One free first step is
    always taken, so starting inside the absorbing set estimates
    first-return splits.

    rates must be one environment's, n a whole number of at least 1, i0 and
    every absorbing state must lie in range(rates.size) and the kernel must
    be finite; each is checked, with DomainError, before anything is drawn.
    Stepping into a state with no outgoing rate raises DomainError too, and
    a chain still running after MAX_SWEEPS steps raises NumericError."""
    size = rates.size
    absorb = {_whole(v, "absorbing state", size) for v in absorb}
    if not absorb:
        raise DomainError("absorb set must be nonempty")
    n = _whole(n, "n")
    if n < 1:
        raise DomainError("n must be at least 1")
    if rates.rates.shape != rates.nbr.shape:
        raise DomainError("rates must hold one environment: (size, width)")
    cur = np.full(n, _whole(i0, "start state", size))
    cum = _running_sums(rates.kernel())
    absorbing = np.zeros(size, dtype=bool)
    absorbing[list(absorb)] = True
    hits = np.zeros(size, dtype=int)
    for _ in range(MAX_SWEEPS):
        cur = rates.nbr[cur, _step(cum[cur], rng)]
        hit = absorbing[cur]
        hits += np.bincount(cur[hit], minlength=size)
        cur = cur[~hit]
        if not cur.size:
            break
    else:
        raise NumericError(f"{cur.size} chains not absorbed after {MAX_SWEEPS} sweeps")
    return AbsorptionReport(n=n, counts={v: int(hits[v]) for v in absorb})


# Python objects a lattice walk keeps, in bytes: a site's row tuple, list
# header and local time with their dict entries; a jump's three records. A
# site also holds 2 * dim neighbor keys, each a list slot and an int of 4 B
# per 30 bits. Rounded up from tracemalloc peaks, over walk lengths 3,000 to
# 81,000, of walks along the last axis, which enter a new site at every jump
# with keys of full size: with the output arrays, 372 B per jump at d=1,
# 545 B at d=3, 1.14 kB at d=8. The walk's chunk of waits and picks adds
# 2 _DRAW_BYTES per jump of a chunk, as the single discrete walk's
# uniforms do.
_SITE_BYTES = 160
_JUMP_BYTES = 80


class _LatticeRows(dict):
    """Neighbor rows of Z^dim with constant weight w, keyed by packed
    coordinates, made on first request: site x's neighbors are x + step for
    each step in `steps`, with one weight list shared by every row."""

    def __init__(self, steps, w: float):
        self._steps = steps
        self._weights = [float(w)] * len(steps)

    def __missing__(self, x):
        self[x] = row = ([x + d for d in self._steps], self._weights)
        return row


class _LocalTimes(dict):
    """Local times by site; an unoccupied site reads 1.0 and is not stored."""

    def __missing__(self, x):
        return 1.0


def simulate_vrjp_lattice(
    dim: int,
    w: float,
    n_jumps: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reinforced walk on the infinite constant-weight lattice, run for a
    fixed number of jumps from the origin.

    Site x is keyed by sum_a x_a span^a, span = 2 n_jumps + 1, which no two
    reachable sites share; its neighbors are x + span^a, x - span^a, axis by
    axis. Rows and local times are dicts on these keys, so only reached
    sites take memory and no box graph is built. Returns (positions, entry
    times, transformed entry times), the last two from `_clocks`, as
    `simulate_vrjp` forms them.
    """
    if dim < 1:
        raise DomainError("lattice dimension must be at least 1")
    if not 0.0 < w < np.inf:
        raise DomainError("edge weight must be positive and finite")
    if n_jumps < 0:
        raise DomainError("n_jumps must be nonnegative")
    span = 2 * n_jumps + 1
    key_bytes = 24 + 4 * -(-dim * span.bit_length() // 30)
    # a new site per jump at most, the walk's records, its chunk of draws,
    # then the output arrays
    need = (
        (n_jumps + 1) * (_SITE_BYTES + 2 * dim * (8 + key_bytes) + 8 * (2 * dim + 8))
        + n_jumps * _JUMP_BYTES
        + min(n_jumps, _WALK_CHUNK) * 2 * _DRAW_BYTES
    )
    _refuse_beyond_memory(need, f"a lattice walk of {n_jumps} jumps")
    steps = [s * span**a for a in range(dim) for s in (1, -1)]
    verts, waits, entered = _walk(
        _LatticeRows(steps, w), _LocalTimes(), 0, rng, np.inf, n_jumps
    )
    slot = {d: k for k, d in enumerate(steps)}
    moves = np.kron(np.eye(dim, dtype=int), [[1], [-1]])
    coords = np.zeros((n_jumps + 1, dim), dtype=int)
    coords[1:] = moves[[slot[b - a] for a, b in zip(verts, verts[1:])]]
    return (np.cumsum(coords, axis=0), *_clocks(waits, entered))
