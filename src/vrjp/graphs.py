"""Weighted graphs, lattice boxes, and reading the CLI's JSON graph format.

Vertices are dense integers 0..n-1. Lattice boxes index their sites in
row-major coordinate order so runs are reproducible byte for byte. A box's
geometry has one home here: _box_edges enumerates its offsets and edges,
which build_lattice_box turns into a graph and WiredBand.box wires without
one, and _retained_ids gives the ids that label a wired box's sites in the
box one layer larger, for WiredBand.box, the CLI and the gate alike. Wiring
a retained set, collapsing its complement to one extra vertex delta, is
betafield.WiredBand's alone: graph() gives the wired graph, delta last.
Path enumeration, the oracle of the Green-function path sums, lives in the
tests (tests/_oracles.py); no product path enumerates.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, SizeError

__all__ = [
    "WeightedGraph",
    "build_lattice_box",
    "load_graph",
]

# Largest lattice box build_lattice_box makes, in vertices.
MAX_VERTICES = 2_000_000


def _refuse_beyond_memory(need: int, what: str) -> None:
    """Raise SizeError, before anything is allocated, when `need` bytes
    exceed the machine's physical memory."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if need > have:
        raise SizeError(
            f"{what} needs {need / 2**30:.1f} GiB, more than the"
            f" {have / 2**30:.1f} GiB of memory"
        )


@dataclass(frozen=True)
class WeightedGraph:
    """Finite undirected graph with positive, finite edge conductances.

    edges hold one entry per unordered pair, stored with i < j. coords is
    populated by the lattice builder (one coordinate tuple per vertex) and is
    None for hand-built graphs.
    """

    n: int
    edges: tuple
    coords: Optional[tuple] = None
    # adjacency: per-vertex tuple of (neighbor, weight), derived in __post_init__
    neighbors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("graph needs at least one vertex")
        seen = set()
        canon = []
        for i, j, w in self.edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise DomainError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise DomainError(f"edge ({i},{j}) out of range for n={self.n}")
            # NaN fails every comparison, so test for the good case
            if not 0 < w < np.inf:
                raise DomainError(
                    f"edge ({i},{j}) weight must be positive and finite, got {w}"
                )
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DomainError(f"duplicate edge {key}")
            seen.add(key)
            canon.append((key[0], key[1], w))
        adj = [[] for _ in range(self.n)]
        for i, j, w in canon:
            adj[i].append((j, w))
            adj[j].append((i, w))
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "neighbors", tuple(tuple(a) for a in adj))
        if self.coords is not None:
            if len(self.coords) != self.n:
                raise DomainError("coords length must match vertex count")
            object.__setattr__(
                self, "coords", tuple(tuple(int(c) for c in x) for x in self.coords)
            )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def coord_array(self) -> np.ndarray:
        """Vertex coordinates as an (n, dim) integer array."""
        if self.coords is None:
            raise DomainError("graph has no coordinates")
        return np.asarray(self.coords, dtype=np.int64)

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric matrix of conductances (zero diagonal).

        Every dense operator on the graph starts here, so a graph whose n x n
        matrix would not fit in physical memory is refused with SizeError
        before anything is allocated.
        """
        _refuse_beyond_memory(
            self.n * self.n * 8, f"the weight matrix of {self.n} vertices"
        )
        w = np.zeros((self.n, self.n))
        for i, j, x in self.edges:
            w[i, j] = x
            w[j, i] = x
        return w


def _box_side(dim: int, radius: int, w: float) -> int:
    """The side of the box of `radius` in Z^dim with edge weight w, once
    they are checked: DomainError for a dim outside 1..4, a negative radius
    or a weight that is not positive and finite, SizeError for a box of
    more than MAX_VERTICES vertices."""
    if dim not in (1, 2, 3, 4):
        raise DomainError(f"dim must be in 1..4, got {dim}")
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    if not 0 < w < np.inf:
        raise DomainError("edge weight must be positive and finite")
    side = 2 * radius + 1
    if side**dim > MAX_VERTICES:
        raise SizeError(f"box has {side**dim} vertices, limit is {MAX_VERTICES}")
    return side


def _box_edges(dim: int, side: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, lo, hi) of the box of `side` sites per axis in Z^dim,
    indexed row-major (last axis fastest): offsets (n, dim) holds each
    vertex's coordinates counted from the box's corner, and the edges
    (lo, hi), lo < hi, run by lo, then by axis. The one enumeration of a
    box's edges, which build_lattice_box and WiredBand.box both read."""
    strides = side ** np.arange(dim - 1, -1, -1)
    offsets = np.arange(side**dim)[:, None] // strides % side
    lo, axis = np.nonzero(offsets < side - 1)
    return offsets, lo, lo + strides[axis]


def _retained_ids(dim: int, radius: int) -> np.ndarray:
    """The ids of the radius box's sites in the row-major box of radius + 1,
    in row-major order: the labels of a wired box's sites."""
    inner = np.indices((2 * radius + 1,) * dim).reshape(dim, -1) + 1
    return np.ravel_multi_index(inner, (2 * radius + 3,) * dim)


def build_lattice_box(dim: int, radius: int, w: float = 1.0) -> WeightedGraph:
    """Nearest-neighbor box {x : |x|_inf <= radius} with constant weight.

    Vertices are indexed row-major over coordinates (last axis fastest), which
    keeps vertex ids stable across runs and keeps the adjacency banded; the
    origin is the middle vertex, (n - 1) // 2. A box of more than
    MAX_VERTICES vertices is refused with SizeError before any is built.
    """
    side = _box_side(dim, radius, w)
    offsets, lo, hi = _box_edges(dim, side)
    return WeightedGraph(
        n=side**dim,
        edges=tuple(zip(lo.tolist(), hi.tolist(), itertools.repeat(w))),
        coords=tuple(map(tuple, (offsets - radius).tolist())),
    )


def load_graph(path: str) -> WeightedGraph:
    """Read a graph from JSON: {"n": int, "edges": [[i, j, w], ...]}."""
    with open(path) as f:
        data = json.load(f)
    try:
        n = int(data["n"])
        edges = tuple((int(i), int(j), float(w)) for i, j, w in data["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad graph file {path}: {exc}") from exc
    return WeightedGraph(n=n, edges=edges)

