"""The array-backed result and the int-label CSR build.

Kernel backends return a :class:`TriangleKCoreResult` that keeps kappa and
the processing order as edge-id arrays and decodes them to labelled
edges on first access.  These tests pin that result to the eager one —
the labelled dict and list built directly from the public layer
functions, as the kernels returned them before — on every conformance
graph, with and without numpy; and they pin the int-label fast path of
``CSRGraph.from_graph`` to the ``index``-dict path bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core import TriangleKCoreResult, load_result, save_result
from repro.engine import Engine
from repro.fast import (
    CSRGraph,
    csr_decomposition,
    external_decomposition,
    peel,
    supports_and_triangles,
)
from repro.fast import csr as csr_mod
from repro.graph import Graph

from .test_backend_conformance import GRAPH_NAMES, fixed_graphs

HAS_NUMPY = csr_mod.np is not None

#: Every kernel composition, as ``name -> (executor, result factory)``.
KERNELS = {
    "csr": ("scalar", lambda g: csr_decomposition(g)),
    "csr-vec": ("vector", lambda g: csr_decomposition(g, executor="vector")),
    "external": ("vector", lambda g: external_decomposition(g, partitions=2)),
}


@pytest.fixture(params=["numpy", "pure"])
def numpy_mode(request, monkeypatch):
    if request.param == "numpy":
        if not HAS_NUMPY:
            pytest.skip("numpy not installed")
    else:
        monkeypatch.setattr(csr_mod, "np", None)
    return request.param


def eager_result(graph: Graph, executor: str) -> TriangleKCoreResult:
    """The labelled result built from the public list-returning layers."""
    csr = CSRGraph.from_graph(graph)
    kappa_by_eid, order_by_eid = peel(
        csr, supports_and_triangles(csr), executor=executor
    )
    edges = csr.edge_labels()
    return TriangleKCoreResult(
        kappa=dict(zip(edges, kappa_by_eid)),
        processing_order=[edges[e] for e in order_by_eid],
    )


def assert_plain_ints(result: TriangleKCoreResult) -> None:
    assert all(type(k) is int for k in result.kappa.values())
    histogram = result.histogram()
    assert all(type(k) is int and type(c) is int for k, c in histogram.items())
    assert type(result.max_kappa) is int


class TestLazyMatchesEager:
    @pytest.mark.parametrize("kernel", tuple(KERNELS))
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_every_accessor(self, numpy_mode, kernel, name, tmp_path):
        graph = fixed_graphs()[name]
        executor, make = KERNELS[kernel]
        eager = eager_result(graph, executor)

        lazy = make(graph)
        # Summaries first: they must read the arrays, not decode.
        assert lazy.max_kappa == eager.max_kappa
        assert lazy.histogram() == eager.histogram()
        assert lazy._kappa is None and lazy._processing_order is None

        assert lazy.kappa == eager.kappa
        assert lazy.processing_order == eager.processing_order
        assert lazy == eager and eager == lazy
        assert lazy.vertex_kappa() == eager.vertex_kappa()
        assert lazy.max_kappa == eager.max_kappa
        assert lazy.histogram() == eager.histogram()
        assert lazy.kappa is lazy.kappa  # decoded once
        assert_plain_ints(lazy)

        path = tmp_path / "result.json"
        save_result(lazy, path)
        loaded = load_result(path)
        assert loaded == lazy
        eager_path = tmp_path / "eager.json"
        save_result(eager, eager_path)
        assert path.read_bytes() == eager_path.read_bytes()

    def test_processing_order_decodes_first(self, numpy_mode):
        graph = fixed_graphs()["two_k4"]
        lazy = csr_decomposition(graph, executor="vector")
        order = lazy.processing_order
        assert order == eager_result(graph, "vector").processing_order
        assert set(order) == set(lazy.kappa)

    @pytest.mark.parametrize("kernel", tuple(KERNELS))
    def test_empty_graph(self, numpy_mode, kernel):
        result = KERNELS[kernel][1](Graph())
        assert result.max_kappa == 0
        assert result.histogram() == {}
        assert result.kappa == {}
        assert result.processing_order == []
        assert result == TriangleKCoreResult(kappa={})

    def test_engine_result_is_lazy(self, numpy_mode):
        graph = fixed_graphs()["er_medium"]
        result = Engine(max_cached_graphs=0).decompose(graph, backend="csr-vec")
        assert result._kappa is None
        assert result.kappa == eager_result(graph, "vector").kappa

    def test_repr_and_inequality(self, numpy_mode):
        lazy = csr_decomposition(fixed_graphs()["k5"])
        eager = eager_result(fixed_graphs()["k5"], "scalar")
        assert repr(lazy) == repr(eager)
        assert lazy != TriangleKCoreResult(kappa=dict(eager.kappa))
        assert lazy != eager.kappa

    def test_constructor_keywords_unchanged(self):
        result = TriangleKCoreResult(
            kappa={(0, 1): 0}, processing_order=[(0, 1)], membership=None
        )
        assert result.kappa == {(0, 1): 0}
        assert result.processing_order == [(0, 1)]
        assert TriangleKCoreResult({(0, 1): 0}).processing_order == []


# ------------------------------------------------------------------ #
# int-label from_graph build
# ------------------------------------------------------------------ #


def _arrays(csr: CSRGraph) -> dict:
    return {field: bytes(getattr(csr, field)) for field in CSRGraph.ARRAY_FIELDS}


def _dict_path(monkeypatch, graph: Graph) -> CSRGraph:
    """Build with the lookup table disabled: every label goes via index."""
    with monkeypatch.context() as patch:
        patch.setattr(csr_mod, "_LUT_SPAN_PER_VERTEX", -1)
        return CSRGraph.from_graph(graph)


def _graph(labels) -> Graph:
    """A few triangles plus pendant edges over ``labels``."""
    a, b, c, d, e = labels
    return Graph(
        edges=[(a, b), (b, c), (a, c), (c, d), (b, d), (d, e), (a, e)],
        vertices=labels,
    )


LABEL_SETS = {
    "negative": [-7, -3, 0, 5, -1],
    "trillion_scale": [10**12, 3, 10**12 + 5, -(10**12), 42],
    "bool": [True, False, 2, 3, 4],
    "mixed": [127, 61, "6", 2.5, "x"],
    "dense_ints": [4, 0, 3, 1, 2],
}


@pytest.mark.skipif(not HAS_NUMPY, reason="the int-label build needs numpy")
class TestIntLabelBuild:
    @pytest.mark.parametrize("name", tuple(LABEL_SETS))
    def test_bit_identical_to_dict_path(self, monkeypatch, name):
        graph = _graph(LABEL_SETS[name])
        fast = CSRGraph.from_graph(graph)
        slow = _dict_path(monkeypatch, graph)
        assert _arrays(fast) == _arrays(slow)
        assert fast.labels == slow.labels
        assert fast.edge_labels() == slow.edge_labels()

    @pytest.mark.parametrize("name", tuple(LABEL_SETS))
    def test_bit_identical_to_pure_build(self, monkeypatch, name):
        graph = _graph(LABEL_SETS[name])
        fast = CSRGraph.from_graph(graph)
        monkeypatch.setattr(csr_mod, "np", None)
        assert _arrays(fast) == _arrays(CSRGraph.from_graph(graph))

    @pytest.mark.parametrize(
        ("name", "uses_table"),
        [
            ("negative", True),
            ("dense_ints", True),
            ("trillion_scale", False),  # span far beyond the vertex count
            ("bool", False),
            ("mixed", False),
        ],
    )
    def test_which_path_runs(self, monkeypatch, name, uses_table):
        # The lookup table replaces the index dict only for plain ints
        # spanning few values per vertex; trap index lookups to tell.
        graph = _graph(LABEL_SETS[name])
        calls = []
        original = CSRGraph._neighbor_ids

        def spy(self, g):
            index = self.index

            class Counting(dict):
                def __getitem__(inner, key):
                    calls.append(key)
                    return dict.__getitem__(inner, key)

            self.index = Counting(index)
            try:
                return original(self, g)
            finally:
                self.index = index

        monkeypatch.setattr(CSRGraph, "_neighbor_ids", spy)
        CSRGraph.from_graph(graph)
        assert (not calls) is uses_table

    def test_random_int_graphs(self, monkeypatch):
        import random

        rng = random.Random(13)
        for trial in range(20):
            offset = rng.randint(-1000, 1000)
            n = rng.randint(2, 40)
            graph = Graph(vertices=[offset + 2 * i for i in range(n)])
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.sample(range(n), 2)
                graph.add_edge(offset + 2 * u, offset + 2 * v, exist_ok=True)
            assert _arrays(CSRGraph.from_graph(graph)) == _arrays(
                _dict_path(monkeypatch, graph)
            ), trial


def test_summaries_follow_the_decoded_dict(numpy_mode):
    # After the first decode the dict is the result's only state, so a
    # caller's edit shows in the summaries exactly as on an eager result.
    lazy = csr_decomposition(fixed_graphs()["k5"], executor="vector")
    eager = eager_result(fixed_graphs()["k5"], "vector")
    for result in (lazy, eager):
        edge = next(iter(result.kappa))
        result.kappa[edge] += 5
    assert lazy.max_kappa == eager.max_kappa == 8
    assert lazy.histogram() == eager.histogram()
