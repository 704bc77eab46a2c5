"""Unit tests for canonical edge/triangle keys."""

import itertools

import pytest

from repro.graph.edge import (
    apex,
    canonical_edge,
    canonical_triangle,
    other_edges,
    triangle_edges,
)


class TestCanonicalEdge:
    def test_orders_integers(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    def test_orders_strings(self):
        assert canonical_edge("b", "a") == ("a", "b")

    def test_mixed_types_deterministic(self):
        forward = canonical_edge(1, "a")
        backward = canonical_edge("a", 1)
        assert forward == backward

    def test_usable_as_dict_key(self):
        d = {canonical_edge(5, 3): "x"}
        assert d[canonical_edge(3, 5)] == "x"

    def test_negative_numbers(self):
        assert canonical_edge(3, -7) == (-7, 3)

    def test_tuple_vertices(self):
        assert canonical_edge((2, 0), (1, 9)) == ((1, 9), (2, 0))


class TestCanonicalTriangle:
    def test_sorts_vertices(self):
        assert canonical_triangle(3, 1, 2) == (1, 2, 3)

    def test_all_rotations_identical(self):
        expected = canonical_triangle("x", "y", "z")
        assert canonical_triangle("z", "x", "y") == expected
        assert canonical_triangle("y", "z", "x") == expected

    def test_mixed_types_deterministic(self):
        a = canonical_triangle(1, "b", 2.5)
        b = canonical_triangle("b", 2.5, 1)
        assert a == b

    @pytest.mark.parametrize(
        "vertices",
        [(127, 61, "6"), (1, "b", 2.5), (30.0, 4, "x"), (-3, "a", 10), (True, 7, "z")],
    )
    def test_mixed_types_pairs_are_canonical_edges(self, vertices):
        # Regression: the (type name, repr) fallback sorted 127 before 61,
        # so the triangle's pairs were not the dict keys canonical_edge
        # hands out and every consumer indexing with them raised KeyError.
        for perm in itertools.permutations(vertices):
            a, b, c = canonical_triangle(*perm)
            assert canonical_triangle(*perm) == canonical_triangle(*vertices)
            for u, v in ((a, b), (a, c), (b, c)):
                assert (u, v) == canonical_edge(u, v)
            assert triangle_edges((a, b, c)) == ((a, b), (a, c), (b, c))


class TestMixedLabelGraphs:
    """int and str labels in one graph through the label-keyed stacks."""

    GRAPH_EDGES = [(127, 61), (61, "6"), (127, "6")]
    EXPECTED = {(61, 127): 1, (61, "6"): 1, (127, "6"): 1}

    def test_reference_decomposition(self):
        from repro.engine import Engine
        from repro.graph import Graph

        graph = Graph(edges=self.GRAPH_EDGES)
        result = Engine().decompose(graph, backend="reference")
        assert result.kappa == self.EXPECTED

    def test_triangle_supports(self):
        from repro.graph import Graph
        from repro.graph.triangles import triangle_supports

        graph = Graph(edges=self.GRAPH_EDGES)
        assert triangle_supports(graph) == self.EXPECTED

    def test_dynamic_maintainer(self):
        from repro.core.dynamic import DynamicTriangleKCore
        from repro.graph import Graph

        graph = Graph(edges=self.GRAPH_EDGES)
        maintainer = DynamicTriangleKCore(graph)
        assert dict(maintainer.kappa) == self.EXPECTED
        maintainer.remove_edge(61, "6")
        assert dict(maintainer.kappa) == {(61, 127): 0, (127, "6"): 0}

    def test_stored_triangle_peel(self):
        from repro.core.peel_variants import triangle_kcore_stored_triangles
        from repro.graph import Graph

        graph = Graph(edges=self.GRAPH_EDGES)
        assert triangle_kcore_stored_triangles(graph).kappa == self.EXPECTED


class TestTriangleEdges:
    def test_three_canonical_edges(self):
        assert triangle_edges((1, 2, 3)) == ((1, 2), (1, 3), (2, 3))

    def test_other_edges_each_position(self):
        assert other_edges((1, 2, 3), (1, 2)) == ((1, 3), (2, 3))
        assert other_edges((1, 2, 3), (1, 3)) == ((1, 2), (2, 3))
        assert other_edges((1, 2, 3), (2, 3)) == ((1, 2), (1, 3))

    def test_other_edges_rejects_foreign_edge(self):
        with pytest.raises(ValueError):
            other_edges((1, 2, 3), (4, 5))


class TestApex:
    def test_returns_opposite_vertex(self):
        assert apex((1, 2, 3), (1, 3)) == 2
        assert apex((1, 2, 3), (1, 2)) == 3
        assert apex((1, 2, 3), (2, 3)) == 1

    def test_rejects_foreign_edge(self):
        with pytest.raises(ValueError):
            apex((1, 2, 3), (7, 8))
