"""Graph construction, wired restriction, and path enumeration."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrjp import (
    DomainError,
    RestrictionError,
    SizeError,
    WeightedGraph,
    WiredBand,
    build_lattice_box,
    load_graph,
)
from vrjp.graphs import _retained_ids

from _oracles import (
    EnumerationError,
    boundary_weights,
    brute_force_paths,
    edge_weight,
    enumerate_paths,
    induced_subgraph,
    path_beta_factor,
    path_weight,
    reference_lattice_box,
    save_graph,
    total_weights,
)


def triangle():
    return WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


class TestWeightedGraph:
    def test_canonicalizes_edge_order(self):
        g = WeightedGraph(n=3, edges=((2, 0, 1.5),))
        assert g.edges == ((0, 2, 1.5),)
        assert edge_weight(g, 0, 2) == 1.5
        assert edge_weight(g, 2, 0) == 1.5
        assert edge_weight(g, 0, 1) == 0.0

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            WeightedGraph(n=2, edges=((1, 1, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DomainError):
            WeightedGraph(n=2, edges=((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            WeightedGraph(n=2, edges=((0, 1, 0.0),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(DomainError, match="positive and finite"):
            WeightedGraph(n=3, edges=((0, 1, bad), (1, 2, 1.0)))
        with pytest.raises(DomainError, match="positive and finite"):
            build_lattice_box(2, 1, bad)

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(DomainError):
            WeightedGraph(n=2, edges=((0, 2, 1.0),))

    def test_weight_matrix_symmetric(self):
        g = triangle()
        w = g.weight_matrix()
        assert np.array_equal(w, w.T)
        assert w[0, 1] == 1.0 and w[0, 0] == 0.0

    def test_total_weights(self):
        g = WeightedGraph(n=3, edges=((0, 1, 2.0), (1, 2, 3.0)))
        assert np.array_equal(total_weights(g), [2.0, 5.0, 3.0])


class TestLatticeBox:
    def test_dim1_radius0_single_vertex(self):
        g = build_lattice_box(1, 0)
        assert g.n == 1
        assert g.edge_count == 0
        assert g.coords == ((0,),)

    def test_dim1_radius1_path(self):
        g = build_lattice_box(1, 1)
        assert g.n == 3
        assert g.edge_count == 2
        assert g.coords == ((-1,), (0,), (1,))

    def test_dim2_radius1_weights(self):
        g = build_lattice_box(2, 1, w=2.0)
        assert g.n == 9
        assert g.edge_count == 12
        assert all(w == 2.0 for _, _, w in g.edges)

    def test_row_major_coords_and_center(self):
        g = build_lattice_box(2, 1)
        assert g.coords[0] == (-1, -1)
        assert g.coords[(g.n - 1) // 2] == (0, 0)
        assert g.coords[g.n - 1] == (1, 1)

    def test_edges_connect_lattice_neighbors(self):
        g = build_lattice_box(3, 1)
        c = g.coord_array()
        for i, j, _w in g.edges:
            assert np.abs(c[i] - c[j]).sum() == 1

    def test_center_offset(self):
        # every box is centred at the origin, its middle vertex
        for dim in (1, 2, 3, 4):
            g = build_lattice_box(dim, 2)
            assert g.coords[(g.n - 1) // 2] == (0,) * dim

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_lattice_box(5, 1)
        with pytest.raises(DomainError):
            build_lattice_box(2, -1)
        with pytest.raises(DomainError):
            build_lattice_box(2, 1, w=0.0)

    def test_size_cap(self):
        # 41^4 = 2,825,761 vertices is over the cap: refused before any
        # vertex is built
        with pytest.raises(SizeError, match="2825761 vertices"):
            build_lattice_box(4, 20)

    def test_coord_array_requires_coords(self):
        with pytest.raises(DomainError):
            triangle().coord_array()

    @pytest.mark.parametrize("radius", range(4))
    @pytest.mark.parametrize("dim", range(1, 5))
    def test_is_the_box_built_vertex_by_vertex(self, dim, radius):
        for w in (1.0, 0.7):
            got = build_lattice_box(dim, radius, w)
            want = reference_lattice_box(dim, radius, w)
            assert got.n == want.n
            assert got.edges == want.edges
            assert got.coords == want.coords
            assert got.neighbors == want.neighbors

    @pytest.mark.parametrize("radius", range(4))
    @pytest.mark.parametrize("dim", range(1, 5))
    def test_retained_ids_are_the_radius_box_in_the_next(self, dim, radius):
        # the ids that label a wired box's sites: the radius box's vertices
        # of the box one layer larger, in row-major order
        got = _retained_ids(dim, radius)
        want = box_subset(build_lattice_box(dim, radius + 1), radius)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)


def box_subset(g, radius):
    return [v for v in range(g.n) if np.abs(g.coords[v]).max() <= radius]


class TestWireRestrict:
    """WiredBand.graph(): the retained set in subset order, delta last."""

    def test_path_middle_vertex(self):
        g = build_lattice_box(1, 1)
        wired = WiredBand.from_graph(g, [1])
        base = wired.graph()
        assert base.n == 2
        assert wired.n == 1
        assert base.edges == ((0, 1, 2.0),)
        assert np.array_equal(np.bincount(wired.cross_site), [2])

    def test_box_center_collapses_to_weight_four(self):
        g = build_lattice_box(2, 1)
        assert WiredBand.from_graph(g, [4]).graph().edges == ((0, 1, 4.0),)

    def test_boundary_weight_conservation(self):
        g = build_lattice_box(2, 2)
        subset = box_subset(g, 1)
        wired = WiredBand.from_graph(g, subset)
        base = wired.graph()
        to_delta = sum(w for i, j, w in base.edges if j == wired.n)
        crossing = sum(
            w
            for i, j, w in g.edges
            if (i in subset) != (j in subset)
        )
        assert to_delta == pytest.approx(crossing, rel=1e-15)
        assert np.allclose(
            boundary_weights(g, subset),
            [edge_weight(base, k, wired.n) for k in range(len(subset))],
        )

    def test_crossing_counts_count_parent_edges(self):
        g = build_lattice_box(2, 2)
        subset = box_subset(g, 1)
        wired = WiredBand.from_graph(g, subset)
        inside = set(subset)
        per_site = [sum(u not in inside for u, _ in g.neighbors[v]) for v in subset]
        assert np.array_equal(
            np.bincount(wired.cross_site, minlength=wired.n), per_site
        )

    @pytest.mark.parametrize(
        "dim,radius,w",
        [(1, 2, 1.0), (2, 2, 1.0), (2, 3, 0.7), (3, 2, 2.5)],
    )
    def test_matches_the_oracles(self, dim, radius, w):
        # delta weights against boundary_weights and the inner edges against
        # induced_subgraph, both bit for bit, on a shuffled retained set
        g = build_lattice_box(dim, radius, w)
        subset = box_subset(g, radius - 1)
        np.random.default_rng(dim * 10 + radius).shuffle(subset)
        m = len(subset)
        base = WiredBand.from_graph(g, subset).graph()
        inner = tuple(e for e in base.edges if e[1] < m)
        assert inner == induced_subgraph(g, subset)[0].edges
        to_delta = np.zeros(m)
        for i, j, x in base.edges:
            if j == m:
                to_delta[i] = x
        assert np.array_equal(to_delta, boundary_weights(g, subset))
        assert all(j == m for _, j, _ in base.edges[len(inner) :])

    def test_interior_property(self):
        # the retained set keeps subset order and delta is the last vertex
        g = build_lattice_box(1, 2)
        wired = WiredBand.from_graph(g, [1, 2, 3])
        base = wired.graph()
        assert wired.n == 3 and base.n == 4
        assert base.edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0))

    def test_nested_wiring_composes(self):
        g = build_lattice_box(2, 2)
        mid = box_subset(g, 1)
        center = (g.n - 1) // 2
        direct = WiredBand.from_graph(g, [center]).graph()
        outer = WiredBand.from_graph(g, mid).graph()
        nested = WiredBand.from_graph(outer, [mid.index(center)]).graph()
        assert nested.edges == direct.edges

    def test_nested_wiring_composes_on_larger_core(self):
        # C5's and C6's boxes: the 3x3 core wired inside the wired 5x5 box
        g = build_lattice_box(2, 3)
        v2 = box_subset(g, 2)
        v1 = box_subset(g, 1)
        direct = WiredBand.from_graph(g, v1)
        outer = WiredBand.from_graph(g, v2).graph()
        nested = WiredBand.from_graph(outer, [v2.index(v) for v in v1])
        assert nested.graph().edges == direct.graph().edges
        assert np.array_equal(nested.cross_site, direct.cross_site)

    def test_gate_boxes_are_the_graph_route(self):
        # criteria 1, 2, 4, 5, 6, 7 and 10 wire their boxes from the
        # geometry; each must be, bit for bit, the box the graph route
        # wires, and the 3x3 core wired inside the 7x7 box (criteria 5 and
        # 6) the core wired inside the 5x5 box
        g5, g7 = build_lattice_box(2, 2), build_lattice_box(2, 3)
        core = WiredBand.box(2, 1)
        cases = ((g5, 1, core), (g7, 2, WiredBand.box(2, 2)), (g7, 1, core))
        for g, radius, got in cases:
            want = WiredBand.from_graph(g, box_subset(g, radius)).params()
            np.testing.assert_array_equal(got.params().p, want.p)
            np.testing.assert_array_equal(got.params().eta, want.eta)
        want = WiredBand.from_graph(g5, box_subset(g5, 1))
        assert core.graph().edges == want.graph().edges
        # the core's ids in the 5x5 box are its places in the wired 5x5 box
        v2, v1 = box_subset(g7, 2), box_subset(g7, 1)
        np.testing.assert_array_equal(_retained_ids(2, 1), [v2.index(v) for v in v1])

    def test_restriction_errors(self):
        g = build_lattice_box(1, 1)
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, [])
        with pytest.raises(RestrictionError):
            WiredBand.from_graph(g, [0, 1, 2]).graph()  # no boundary left
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, [7])
        with pytest.raises(DomainError):
            WiredBand.from_graph(g, [0, 0])
        disconnected = WeightedGraph(n=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(RestrictionError):  # no edge to the complement
            WiredBand.from_graph(disconnected, [0, 1]).graph()


class TestInducedSubgraph:
    def test_keeps_inside_edges_only(self):
        g = build_lattice_box(1, 2)
        sub, new_id = induced_subgraph(g, [1, 2, 3])
        assert sub.n == 3
        assert sub.edges == ((0, 1, 1.0), (1, 2, 1.0))
        assert new_id == {1: 0, 2: 1, 3: 2}


class TestEnumeratePaths:
    def test_single_vertex_trivial_path(self):
        g = build_lattice_box(1, 0)
        assert enumerate_paths(g, 0, max_len=0) == [(0,)]

    def test_two_vertex_stop_set(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        assert enumerate_paths(g, 0, stop_set={1}, max_len=3) == [(0, 1)]

    def test_triangle_stop_set_two_routes(self):
        g = triangle()
        got = set(enumerate_paths(g, 0, stop_set={2}, max_len=2))
        assert got == {(0, 2), (0, 1, 2)}

    def test_start_inside_stop_set(self):
        g = triangle()
        assert enumerate_paths(g, 0, stop_set={0, 2}, max_len=5) == [(0,)]

    def test_cap_enforced(self):
        with pytest.raises(EnumerationError):
            enumerate_paths(triangle(), 0, max_len=13)

    def test_start_out_of_range(self):
        with pytest.raises(DomainError):
            enumerate_paths(triangle(), 5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
            label="edges",
        )
        edges = tuple(
            (i, j, 1.0 + 0.5 * ((i + j) % 3)) for (i, j), m in zip(pairs, mask) if m
        )
        g = WeightedGraph(n=n, edges=edges)
        start = data.draw(st.integers(0, n - 1), label="start")
        max_len = data.draw(st.integers(0, 8), label="max_len")
        stop = data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="stop")
        got = enumerate_paths(g, start, stop_set=stop, max_len=max_len)
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == brute_force_paths(g, start, stop, max_len)


class TestPathWeights:
    def test_product_of_conductances(self):
        g = WeightedGraph(n=3, edges=((0, 1, 2.0), (1, 2, 3.0)))
        assert path_weight(g, (0, 1, 2)) == 6.0
        assert path_weight(g, (0,)) == 1.0
        with pytest.raises(DomainError):
            path_weight(g, (0, 2))

    def test_beta_factor_conventions(self):
        beta = np.array([1.0, 2.0, 0.5])
        assert path_beta_factor(beta, (0, 1, 2)) == 2.0 * 4.0 * 1.0
        assert path_beta_factor(beta, (0, 1, 2), include_last=False) == 8.0
        assert path_beta_factor(beta, (0,), include_last=False) == 1.0


class TestJsonRoundTrip:
    def test_save_load(self, tmp_path):
        g = WeightedGraph(n=3, edges=((0, 1, 1.5), (1, 2, 2.5)))
        path = tmp_path / "g.json"
        save_graph(g, str(path))
        data = json.loads(path.read_text())
        assert data == {"n": 3, "edges": [[0, 1, 1.5], [1, 2, 2.5]]}
        g2 = load_graph(str(path))
        assert g2.n == g.n and g2.edges == g.edges

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2}')
        with pytest.raises(DomainError):
            load_graph(str(path))
