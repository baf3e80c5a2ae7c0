"""Weighted graphs, lattice boxes, and reading the CLI's JSON graph format.

Vertices are dense integers 0..n-1. Lattice boxes index their sites in
row-major coordinate order so runs are reproducible byte for byte. Wiring a
retained set, collapsing its complement to one extra vertex delta, is
betafield.WiredBand's alone: graph() gives the wired graph, delta last.
Path enumeration, the oracle of the Green-function path sums, lives in the
tests (tests/_oracles.py); no product path enumerates.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

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


def build_lattice_box(dim: int, radius: int, w: float = 1.0) -> WeightedGraph:
    """Nearest-neighbor box {x : |x|_inf <= radius} with constant weight.

    Vertices are indexed row-major over coordinates (last axis fastest), which
    keeps vertex ids stable across runs and keeps the adjacency banded; the
    origin is the middle vertex, (n - 1) // 2. A box of more than
    MAX_VERTICES vertices is refused with SizeError before any is built.
    """
    side = _box_side(dim, radius, w)
    n = side**dim

    # Row-major: vertex id of offset (o_1..o_d), each o in 0..side-1, is
    # sum o_k * side^(d-k). Strides let us add edges without a coordinate map.
    strides = [side ** (dim - 1 - k) for k in range(dim)]
    coords = []
    for flat in range(n):
        rem = flat
        x = []
        for s in strides:
            q, rem = divmod(rem, s)
            x.append(q - radius)
        coords.append(tuple(x))
    edges = []
    for flat in range(n):
        rem = flat
        offs = []
        for s in strides:
            q, rem = divmod(rem, s)
            offs.append(q)
        for k, s in enumerate(strides):
            if offs[k] + 1 < side:
                edges.append((flat, flat + s, w))
    return WeightedGraph(n=n, edges=tuple(edges), coords=tuple(coords))


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

