"""The ``backend="csr"`` contract: identical results to the reference.

Property-based (hypothesis) comparison of the CSR kernel backend against
the dict-based reference implementation and networkx's independent
``k_truss`` on random Erdős–Rényi and Barabási–Albert graphs, plus the
edge cases the relabeler and kernels must survive.  Every test runs twice:
with numpy available and with the pure-``array`` fallback forced.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.fast.csr as csr_module
from repro.baselines import networkx_kappa
from repro.core import triangle_kcore_decomposition
from repro.engine import Engine
from repro.fast import AUTO_EXTERNAL_MIN_EDGES, AUTO_MIN_EDGES, resolve_backend
from repro.graph import Graph, barabasi_albert, complete_graph, erdos_renyi
from repro.graph.triangles import count_triangles, triangle_supports


@pytest.fixture(params=["numpy", "pure"])
def numpy_mode(request, monkeypatch):
    """Run the test body with and without the numpy accelerator."""
    if request.param == "pure":
        monkeypatch.setattr(csr_module, "np", None)
    elif csr_module.np is None:  # pragma: no cover - numpy-less environment
        pytest.skip("numpy not installed")
    return request.param


def assert_backends_agree(graph: Graph) -> None:
    reference = triangle_kcore_decomposition(graph, backend="reference")
    fast = triangle_kcore_decomposition(graph, backend="csr")
    assert fast.kappa == reference.kappa
    assert set(fast.processing_order) == set(reference.kappa)
    values = [fast.kappa[edge] for edge in fast.processing_order]
    assert values == sorted(values)


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_erdos_renyi_matches_reference(self, n, p, seed):
        assert_backends_agree(erdos_renyi(n, p, seed=seed))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=40),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_barabasi_albert_matches_reference(self, n, m, seed):
        m = min(m, n - 1)
        assert_backends_agree(barabasi_albert(n, m, seed=seed))

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=25),
        p=st.floats(min_value=0.1, max_value=0.6),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_matches_networkx_truss(self, n, p, seed):
        graph = erdos_renyi(n, p, seed=seed)
        fast = triangle_kcore_decomposition(graph, backend="csr")
        assert fast.kappa == networkx_kappa(graph)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=30),
        p=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_supports_and_counts_match_reference(self, n, p, seed):
        graph = erdos_renyi(n, p, seed=seed)
        assert triangle_supports(graph, backend="csr") == triangle_supports(
            graph, backend="reference"
        )
        assert count_triangles(graph, backend="csr") == count_triangles(
            graph, backend="reference"
        )


class TestEdgeCases:
    def test_empty_graph(self, numpy_mode):
        result = triangle_kcore_decomposition(Graph(), backend="csr")
        assert result.kappa == {}
        assert result.processing_order == []
        assert count_triangles(Graph(), backend="csr") == 0

    def test_isolated_vertices_only(self, numpy_mode):
        graph = Graph(vertices=[1, 2, 3])
        result = triangle_kcore_decomposition(graph, backend="csr")
        assert result.kappa == {}

    def test_triangle_free_graph(self, numpy_mode):
        star = Graph(edges=[(0, i) for i in range(1, 9)])
        result = triangle_kcore_decomposition(star, backend="csr")
        assert set(result.kappa.values()) == {0}
        assert count_triangles(star, backend="csr") == 0
        assert set(triangle_supports(star, backend="csr").values()) == {0}

    def test_single_clique(self, numpy_mode):
        for n in range(3, 9):
            result = triangle_kcore_decomposition(complete_graph(n), backend="csr")
            assert set(result.kappa.values()) == {n - 2}

    def test_two_disjoint_cliques(self, numpy_mode):
        graph = complete_graph(6)
        for u, v in complete_graph(4, offset=100).edges():
            graph.add_edge(u, v)
        assert_backends_agree(graph)

    def test_non_integer_labels_round_trip(self, numpy_mode):
        graph = Graph(
            edges=[
                ("alpha", "beta"),
                ("beta", "gamma"),
                ("gamma", "alpha"),
                (("t", 1), "alpha"),
                (("t", 1), "beta"),
            ]
        )
        assert_backends_agree(graph)
        fast = triangle_kcore_decomposition(graph, backend="csr")
        # Keys must be the canonical edges of the input graph, unchanged by
        # the integer relabeling round trip.
        assert set(fast.kappa) == set(graph.edges())

    def test_string_labelled_fig2(self, fig2_graph, numpy_mode):
        fast = triangle_kcore_decomposition(fig2_graph, backend="csr")
        assert fast.kappa_of("A", "B") == 1
        assert fast.kappa_of("B", "C") == 2


class TestNumpyParity:
    """The pure-array fallback must be bit-identical to the numpy path."""

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_results_and_order(self, monkeypatch, seed):
        if csr_module.np is None:  # pragma: no cover
            pytest.skip("numpy not installed")
        graph = erdos_renyi(30, 0.25, seed=seed)
        with_numpy = triangle_kcore_decomposition(graph, backend="csr")
        monkeypatch.setattr(csr_module, "np", None)
        without_numpy = triangle_kcore_decomposition(graph, backend="csr")
        assert with_numpy.kappa == without_numpy.kappa
        assert with_numpy.processing_order == without_numpy.processing_order

    def test_identical_csr_arrays(self, monkeypatch):
        if csr_module.np is None:  # pragma: no cover
            pytest.skip("numpy not installed")
        graph = barabasi_albert(40, 3, seed=9)
        built_numpy = csr_module.CSRGraph.from_graph(graph)
        monkeypatch.setattr(csr_module, "np", None)
        built_pure = csr_module.CSRGraph.from_graph(graph)
        assert built_numpy.labels == built_pure.labels
        assert built_numpy.indptr == built_pure.indptr
        assert built_numpy.indices == built_pure.indices
        assert built_numpy.arc_eids == built_pure.arc_eids
        assert built_numpy.forward_start == built_pure.forward_start
        assert built_numpy.edge_endpoints == built_pure.edge_endpoints


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            triangle_kcore_decomposition(Graph(), backend="gpu")

    def test_membership_forces_reference_on_auto(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        assert resolve_backend("auto", graph, needs_reference=True) == "reference"

    def test_membership_with_explicit_csr_rejected(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        with pytest.raises(ValueError, match="membership"):
            triangle_kcore_decomposition(
                graph, backend="csr", store_membership=True
            )

    def test_auto_picks_by_size(self):
        small = Graph(edges=[(0, 1)])
        assert resolve_backend("auto", small) == "reference"
        big = barabasi_albert(AUTO_MIN_EDGES // 2 + 10, 2, seed=0)
        assert big.num_edges >= AUTO_MIN_EDGES
        expected = "csr" if csr_module.np is None else "csr-vec"
        assert resolve_backend("auto", big) == expected

    def test_explicit_backends_respected(self):
        graph = Graph(edges=[(0, 1)])
        assert resolve_backend("reference", graph) == "reference"
        assert resolve_backend("csr", graph) == "csr"


class TestAutoPolicy:
    """``auto`` tiers: reference, then csr-vec (csr without numpy), then
    external — always in process below the out-of-core escalation."""

    @pytest.mark.parametrize(
        "edges",
        [AUTO_MIN_EDGES, 1 << 12, 1 << 15, 1 << 20, AUTO_EXTERNAL_MIN_EDGES - 1],
    )
    def test_in_ram_tier(self, edges, numpy_mode):
        graph = SimpleNamespace(num_edges=edges)
        expected = "csr" if numpy_mode == "pure" else "csr-vec"
        assert resolve_backend("auto", graph) == expected
        assert Engine().resolve(None, graph) == expected

    def test_tier_boundaries(self):
        below = SimpleNamespace(num_edges=AUTO_MIN_EDGES - 1)
        assert resolve_backend("auto", below) == "reference"
        top = SimpleNamespace(num_edges=AUTO_EXTERNAL_MIN_EDGES)
        assert resolve_backend("auto", top) == "external"

    @pytest.mark.parametrize("backend", ["csr", "csr-vec", "external"])
    def test_membership_error_contract(self, backend):
        with pytest.raises(ValueError, match="membership"):
            resolve_backend(backend, complete_graph(4), needs_reference=True)

    @pytest.mark.parametrize("backend", ["parallel", "parallel-vec"])
    def test_removed_parallel_backends_rejected(self, backend):
        graph = complete_graph(4)
        with pytest.raises(ValueError, match="unknown backend.*'csr-vec'"):
            triangle_kcore_decomposition(graph, backend=backend)
        with pytest.raises(ValueError, match="unknown backend.*'csr-vec'"):
            Engine().decompose(graph, backend=backend)


class TestCLIFlag:
    @pytest.mark.parametrize("backend", ["auto", "reference", "csr"])
    def test_decompose_backend_flag(self, backend, capsys):
        from repro.cli import main

        assert main(["decompose", "synthetic", "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert f"({backend} backend)" in out
        assert "kappa histogram" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "synthetic", "--backend", "parallel"],
            ["decompose", "synthetic", "--workers", "2"],
            ["fuzz", "--backend", "parallel"],
            ["fuzz", "--workers", "2"],
        ],
    )
    def test_removed_parallel_options_exit_2(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
