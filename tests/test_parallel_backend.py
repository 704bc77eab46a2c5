"""Behaviour the removed process-parallel backend shared with what remains.

The ``parallel``/``parallel-vec`` backends and their worker pools are
gone, but two things they were tested for live on, and their tests keep
their names here:

* the arc-balanced vertex-range partition policy, now implemented only by
  :func:`repro.fast.external._partition_ranges` (the ``external``
  backend's partitioned enumeration), including the hypothesis tiling
  property and the per-range merge of the kernels' ``lo``/``hi`` scans;
* :class:`~repro.exceptions.BackendError` as a :class:`ReproError`,
  re-exported by :mod:`repro.fast`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.fast as fast_mod
from repro.exceptions import BackendError, ReproError
from repro.fast import CSRGraph, supports_and_triangles
from repro.fast.external import _partition_ranges
from repro.graph import Graph, erdos_renyi


def er(seed: int = 0, n: int = 60, p: float = 0.15) -> Graph:
    return erdos_renyi(n, p, seed=seed)


def shard_ranges(csr: CSRGraph, shards: int):
    return _partition_ranges(csr.indptr, csr.num_vertices, shards)


# ------------------------------------------------------------------ #
# partition ranges
# ------------------------------------------------------------------ #


class TestShardRanges:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 64])
    def test_partition_properties(self, seed, shards):
        csr = CSRGraph.from_graph(er(seed=seed, n=50, p=0.12))
        ranges = shard_ranges(csr, shards)
        assert 1 <= len(ranges) <= max(shards, 1)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == csr.num_vertices
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, non-overlapping
        assert all(lo < hi for lo, hi in ranges)

    def test_empty_graph_yields_no_ranges(self):
        assert shard_ranges(CSRGraph.from_graph(Graph()), 4) == []

    def test_arc_balance_beats_vertex_balance_on_hub_graphs(self):
        # Degree-ordered relabeling puts the hub last; arc-balanced cuts
        # must not leave the whole scan in the final partition.
        graph = Graph(edges=[(0, i) for i in range(1, 101)])
        csr = CSRGraph.from_graph(graph)
        ranges = shard_ranges(csr, 4)
        arcs = [csr.indptr[hi] - csr.indptr[lo] for lo, hi in ranges]
        total = csr.indptr[csr.num_vertices]
        assert len(ranges) > 1
        assert max(arcs) < total  # the hub partition does not own everything


class TestShardTilingProperty:
    """Hypothesis: the partition policy tiles [0, n) for any degree
    distribution, and per-range scans merge back to the full scan.

    The strategy builds adversarial shapes directly from degree sequences
    — empty vertices, one mega-hub, long paths, duplicate degrees — rather
    than from uniform random graphs, because the bisect-based cut
    placement only gets interesting when the arc prefix has plateaus (runs
    of isolated vertices) and cliffs (hubs).
    """

    @staticmethod
    def _graph_from_stubs(stubs):
        # Half-edge pairing: any degree-ish sequence becomes some
        # multigraph; collapse to the simple graph it induces.
        edges = []
        flat = [v for v, d in enumerate(stubs) for _ in range(d)]
        for u, v in zip(flat[::2], flat[1::2]):
            if u != v:
                edges.append((u, v))
        return Graph(vertices=range(len(stubs)), edges=edges)

    @given(
        stubs=st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=40
        ),
        shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_tiles_exactly(self, stubs, shards):
        csr = CSRGraph.from_graph(self._graph_from_stubs(stubs))
        ranges = shard_ranges(csr, shards)
        if csr.num_vertices == 0:
            assert ranges == []
            return
        # Contiguous, disjoint, covering.
        assert 1 <= len(ranges) <= shards
        assert ranges[0][0] == 0
        assert ranges[-1][1] == csr.num_vertices
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        assert all(lo < hi for lo, hi in ranges)

    @given(
        stubs=st.lists(
            st.integers(min_value=0, max_value=8), min_size=3, max_size=30
        ),
        shards=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_merged_supports_match_sequential(self, stubs, shards):
        # Element-wise summed supports plus triangle lists concatenated in
        # ascending range order reproduce the full-graph scan exactly.
        csr = CSRGraph.from_graph(self._graph_from_stubs(stubs))
        sequential = supports_and_triangles(csr)
        supports = [0] * csr.num_edges
        tri_edges = []
        for lo, hi in shard_ranges(csr, shards):
            part_supports, part_tris = supports_and_triangles(csr, lo=lo, hi=hi)
            supports = [a + b for a, b in zip(supports, part_supports)]
            tri_edges.extend(part_tris)
        assert (supports, tri_edges) == sequential


# ------------------------------------------------------------------ #
# failure contract
# ------------------------------------------------------------------ #


class TestFailureContract:
    def test_backend_error_is_repro_error(self):
        assert issubclass(BackendError, ReproError)
        assert fast_mod.BackendError is BackendError
