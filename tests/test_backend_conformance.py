"""Cross-backend conformance: every backend, same answers.

The matrix axes:

* **backends** — every name in :data:`repro.engine.BACKENDS`: ``auto``,
  the rows of the one backend table :data:`repro.fast.BACKEND_OPS`
  (``reference``, ``csr``, ``csr-vec``, ``external``) and the
  engine-only ``dynamic`` (a new table row joins the matrix
  automatically);
* **graphs** — the paper's Figure 2/3 examples, cliques, degenerate
  shapes, seeded random graphs, a graph mixing int, str and float
  labels, the final state of every committed fuzz corpus bundle, and
  hypothesis-generated graphs.

Asserted per cell: the kappa map, triangle supports and triangle count
equal the reference backend's exactly, through :class:`Engine` and through
the free functions; processing order is bit-identical within the vector
executor family (``csr-vec`` == ``external`` at every partition count);
membership bookkeeping is refused by every backend that cannot provide
it, with one message (error contract), and the ``auto`` policy degrades
instead of erroring.  Each check runs on a fresh cache-disabled engine so
no backend can serve another's artifact.
"""

from __future__ import annotations

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import triangle_kcore_decomposition
from repro.engine import BACKENDS, Engine
from repro.fast import BACKEND_OPS, ENGINE_ONLY_BACKENDS, csr_decomposition
from repro.fast.external import external_decomposition
from repro.graph import Graph, complete_graph, erdos_renyi
from repro.graph.triangles import count_triangles, triangle_supports
from repro.testing import ReproBundle

ALL_BACKENDS = tuple(name for name in BACKENDS if name != "auto")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_PATHS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def fixed_graphs() -> dict:
    """Named graph zoo shared by every matrix cell."""
    two_k4 = complete_graph(4)
    for u in (10, 11, 12):
        two_k4.add_edge(3, u)
    for i, u in enumerate((10, 11, 12)):
        for v in (10, 11, 12)[i + 1 :]:
            two_k4.add_edge(u, v)
    return {
        "fig2": Graph(
            edges=[
                ("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"),
                ("B", "E"), ("C", "D"), ("C", "E"), ("D", "E"),
            ]
        ),
        "fig3": Graph(
            edges=[
                ("A", "B"), ("B", "C"), ("A", "E"), ("A", "F"),
                ("E", "F"), ("C", "D"), ("C", "E"), ("D", "E"),
            ]
        ),
        "k5": complete_graph(5),
        "k7": complete_graph(7),
        "two_k4": two_k4,
        "empty": Graph(),
        "single_edge": Graph(edges=[(0, 1)]),
        "star": Graph(edges=[(0, i) for i in range(1, 12)]),
        "path": Graph(edges=[(i, i + 1) for i in range(10)]),
        "er_small": erdos_renyi(25, 0.25, seed=0),
        "er_medium": erdos_renyi(60, 0.12, seed=1),
        # int, str and float labels in one graph: ints order natively
        # (61 < 127) while every int/str pair falls back to the
        # (type name, repr) order, under which "127" sorts before "61".
        "mixed_labels": Graph(
            edges=[
                (127, 61), (61, "6"), (127, "6"), (127, "x"), (61, "x"),
                ("6", "x"), (2.5, 61), (2.5, 127), (2.5, "6"),
            ]
        ),
    }


GRAPH_NAMES = tuple(fixed_graphs())


def fresh_engine(**kwargs) -> Engine:
    kwargs.setdefault("max_cached_graphs", 0)
    return Engine(**kwargs)


# ------------------------------------------------------------------ #
# kappa conformance
# ------------------------------------------------------------------ #


class TestKappaConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_fixed_graphs(self, backend, name):
        # One table-driven cell: decompose, supports and count, through the
        # engine and (for every name but the engine-only ones) through the
        # free functions.
        graph = fixed_graphs()[name]
        expected = (
            triangle_kcore_decomposition(graph, backend="reference").kappa,
            triangle_supports(graph, backend="reference"),
            count_triangles(graph, backend="reference"),
        )
        engine = fresh_engine()
        answers = {
            "engine": (
                engine.decompose(graph, backend=backend).kappa,
                engine.triangle_supports(graph, backend=backend),
                engine.count_triangles(graph, backend=backend),
            )
        }
        if backend not in ENGINE_ONLY_BACKENDS:
            answers["free functions"] = (
                triangle_kcore_decomposition(graph, backend=backend).kappa,
                triangle_supports(graph, backend=backend),
                count_triangles(graph, backend=backend),
            )
        for entry, got in answers.items():
            assert got == expected, (
                f"backend {backend!r} disagrees with reference on {name!r} "
                f"through the {entry}"
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("path", CORPUS_PATHS, ids=os.path.basename)
    def test_corpus_final_states(self, backend, path):
        graph = ReproBundle.load(path).script.final_graph()
        expected = triangle_kcore_decomposition(graph, backend="reference")
        result = fresh_engine().decompose(graph, backend=backend)
        assert result.kappa == expected.kappa


# ------------------------------------------------------------------ #
# executor families: order identity
# ------------------------------------------------------------------ #


class TestExecutorFamilies:
    """The -vec composition is its own family with its own order contract.

    Kappa must equal the reference everywhere (covered by the matrix
    above); processing order must be *bit-identical within a family* —
    partitioned enumeration composed with the same executor cannot change
    the order — while the two families may legitimately order ties
    differently.
    """

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_external_bit_identical_to_csr_vec(self, name):
        # The out-of-core backend belongs to the vector family: its
        # level-synchronous reconciliation peel must reproduce csr-vec's
        # canonical order bit-for-bit at every partition count, seams or
        # no seams.
        graph = fixed_graphs()[name]
        expected = csr_decomposition(graph, executor="vector")
        for partitions in (1, 2, 3, 7):
            result = external_decomposition(graph, partitions=partitions)
            assert result.kappa == expected.kappa
            assert result.processing_order == expected.processing_order

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_vector_order_is_valid_and_kappa_sorted(self, name):
        graph = fixed_graphs()[name]
        result = csr_decomposition(graph, executor="vector")
        assert set(result.processing_order) == set(result.kappa)
        kappas = [result.kappa[e] for e in result.processing_order]
        assert kappas == sorted(kappas)  # non-decreasing, like Algorithm 1


# ------------------------------------------------------------------ #
# triangle-count conformance
# ------------------------------------------------------------------ #


class TestTriangleCountConformance:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_counting_backends_agree(self, name):
        graph = fixed_graphs()[name]
        reference = count_triangles(graph, backend="reference")
        assert count_triangles(graph, backend="csr") == reference
        engine = fresh_engine()
        assert engine.count_triangles(graph) == reference


# ------------------------------------------------------------------ #
# error contracts
# ------------------------------------------------------------------ #


class TestErrorContracts:
    @pytest.mark.parametrize(
        "backend", [b for b in ALL_BACKENDS if b != "reference"]
    )
    def test_membership_refused_by_non_reference(self, backend):
        graph = complete_graph(4)
        message = (
            f"backend={backend!r} does not support membership bookkeeping; "
            "use backend='reference' (or 'auto')"
        )
        with pytest.raises(ValueError) as refused:
            fresh_engine().decompose(graph, backend=backend, store_membership=True)
        assert str(refused.value) == message
        if backend not in ENGINE_ONLY_BACKENDS:
            with pytest.raises(ValueError) as refused:
                triangle_kcore_decomposition(
                    graph, backend=backend, store_membership=True
                )
            assert str(refused.value) == message

    def test_membership_served_by_reference_and_auto(self):
        graph = complete_graph(4)
        engine = fresh_engine()
        direct = engine.decompose(
            graph, backend="reference", store_membership=True
        )
        assert direct.membership is not None
        degraded = engine.decompose(graph, backend="auto", store_membership=True)
        assert degraded.membership is not None
        assert degraded.kappa == direct.kappa

    def test_unknown_backend_lists_registry(self):
        engine = fresh_engine()
        with pytest.raises(ValueError, match="unknown backend 'warp'"):
            engine.decompose(complete_graph(4), backend="warp")
        # The low-level resolver names engine-only backends helpfully
        # instead of calling them unknown.
        from repro.fast import resolve_backend

        with pytest.raises(ValueError, match="repro.engine.Engine"):
            resolve_backend("dynamic", complete_graph(4))
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("warp", complete_graph(4))

    def test_backends_listing_matches_registry(self):
        assert fresh_engine().backends() == BACKENDS
        # The engine's names are the table's rows plus the engine-only ones.
        assert BACKENDS == ("auto",) + tuple(BACKEND_OPS) + ENGINE_ONLY_BACKENDS


# ------------------------------------------------------------------ #
# hypothesis sweep
# ------------------------------------------------------------------ #


@st.composite
def graphs(draw, max_vertices: int = 14) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    return Graph(edges=edges, vertices=range(n))


@settings(max_examples=50, deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=6))
def test_every_backend_agrees_on_random_graphs(graph, partitions):
    expected = triangle_kcore_decomposition(graph, backend="reference")
    csr = csr_decomposition(graph)
    assert csr.kappa == expected.kappa
    vec = csr_decomposition(graph, executor="vector")
    assert vec.kappa == expected.kappa
    ext = external_decomposition(graph, partitions=partitions)
    assert ext.kappa == expected.kappa
    assert ext.processing_order == vec.processing_order
    dyn = Engine(max_cached_graphs=0).decompose(graph, backend="dynamic")
    assert dyn.kappa == expected.kappa
