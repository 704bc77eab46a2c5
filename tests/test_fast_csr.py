"""Unit tests for the CSR snapshot and the flat-array kernels."""

from __future__ import annotations

import pytest

import repro.fast.csr as csr_module
from repro.fast import CSRGraph, peel, supports_and_triangles, triangle_supports
from repro.graph import Graph, complete_graph, erdos_renyi
from repro.graph.triangles import triangle_supports as reference_supports


@pytest.fixture(params=["numpy", "pure"])
def numpy_mode(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(csr_module, "np", None)
    elif csr_module.np is None:  # pragma: no cover - numpy-less environment
        pytest.skip("numpy not installed")
    return request.param


class TestSnapshotStructure:
    def test_empty_graph(self, numpy_mode):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_vertices == 0
        assert csr.num_edges == 0
        assert list(csr.indptr) == [0]

    def test_relabeling_is_degree_ordered(self, numpy_mode):
        graph = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2)])
        csr = CSRGraph.from_graph(graph)
        degrees = [csr.degree(u) for u in range(csr.num_vertices)]
        assert degrees == sorted(degrees)

    def test_adjacency_blocks_sorted(self, numpy_mode):
        csr = CSRGraph.from_graph(erdos_renyi(30, 0.3, seed=3))
        for u in range(csr.num_vertices):
            block = list(csr.neighbors(u))
            assert block == sorted(block)
            assert u not in block

    def test_forward_start_splits_blocks(self, numpy_mode):
        csr = CSRGraph.from_graph(erdos_renyi(30, 0.3, seed=4))
        for u in range(csr.num_vertices):
            start, fstart, end = (
                csr.indptr[u],
                csr.forward_start[u],
                csr.indptr[u + 1],
            )
            assert start <= fstart <= end
            assert all(csr.indices[p] < u for p in range(start, fstart))
            assert all(csr.indices[p] > u for p in range(fstart, end))

    def test_edge_ids_are_dense_and_consistent(self, numpy_mode):
        graph = erdos_renyi(25, 0.3, seed=5)
        csr = CSRGraph.from_graph(graph)
        seen = set()
        for u in range(csr.num_vertices):
            for p in range(csr.indptr[u], csr.indptr[u + 1]):
                v = csr.indices[p]
                eid = csr.arc_eids[p]
                assert 0 <= eid < csr.num_edges
                assert eid == csr.edge_id(u, v) == csr.edge_id(v, u)
                seen.add(eid)
        assert seen == set(range(csr.num_edges))

    def test_edge_id_missing_edge_raises(self, numpy_mode):
        csr = CSRGraph.from_graph(Graph(edges=[(0, 1), (2, 3)]))
        lonely = csr.index[0]
        other = csr.index[2]
        with pytest.raises(ValueError):
            csr.edge_id(lonely, other)

    def test_edge_labels_round_trip(self, numpy_mode):
        graph = Graph(edges=[("b", "a"), ("b", "c"), ("a", "c"), ("c", "d")])
        csr = CSRGraph.from_graph(graph)
        assert set(csr.edge_labels()) == set(graph.edges())
        for eid, edge in enumerate(csr.edge_labels()):
            assert csr.edge_label(eid) == edge


class TestKernels:
    def test_supports_match_reference(self, numpy_mode):
        graph = erdos_renyi(35, 0.25, seed=6)
        csr = CSRGraph.from_graph(graph)
        supports = triangle_supports(csr)
        expected = reference_supports(graph, backend="reference")
        decoded = dict(zip(csr.edge_labels(), supports))
        assert decoded == expected

    def test_triangle_list_consistent_with_supports(self, numpy_mode):
        csr = CSRGraph.from_graph(erdos_renyi(25, 0.35, seed=7))
        supports, tri_edges = supports_and_triangles(csr)
        assert len(tri_edges) % 3 == 0
        assert sum(supports) == len(tri_edges)
        recounted = [0] * csr.num_edges
        for eid in tri_edges:
            recounted[eid] += 1
        assert recounted == supports

    def test_peel_on_clique(self, numpy_mode):
        csr = CSRGraph.from_graph(complete_graph(6))
        kappa, order = peel(csr)
        assert set(kappa) == {4}
        assert sorted(order) == list(range(csr.num_edges))

    def test_peel_rejects_mismatched_precomputed(self, numpy_mode):
        csr = CSRGraph.from_graph(complete_graph(4))
        supports, _ = supports_and_triangles(csr)
        with pytest.raises(ValueError, match="supports_and_triangles"):
            peel(csr, (supports, []))

    def test_peel_empty_graph(self, numpy_mode):
        assert peel(CSRGraph.from_graph(Graph())) == ([], [])


class TestArrayStore:
    def test_kernels_identical_over_memoryview_stores(self, numpy_mode):
        # The L1 seam the external backend's mmap'd columns go through:
        # memoryview stores are adopted as-is, not copied.
        csr = CSRGraph.from_graph(erdos_renyi(60, 0.15, seed=2))
        views = {
            field: memoryview(bytearray(bytes(getattr(csr, field)))).cast("q")
            for field in CSRGraph.ARRAY_FIELDS
        }
        twin = CSRGraph.from_arrays(csr.num_vertices, csr.num_edges, views)
        for field in CSRGraph.ARRAY_FIELDS:
            assert getattr(twin, field) is views[field]
        assert supports_and_triangles(twin) == supports_and_triangles(csr)
