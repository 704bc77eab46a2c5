"""Triangle enumeration and counting.

Two enumeration strategies are provided:

* :func:`triangles_of_edge` — local enumeration around a single edge (the
  primitive used by Algorithm 1 step 3 and by the dynamic update algorithms).
* :func:`enumerate_triangles` — the *forward* / oriented-edge-iterator
  algorithm that lists every triangle of the graph exactly once in
  :math:`O(\\sum_v d(v)^{3/2})` time, which is what makes Algorithm 1
  "linear in the number of triangles" overall.

All triangles are returned in canonical vertex-sorted form (see
:mod:`repro.graph.edge`), so a triangle enumerated from different edges is
represented identically — the paper's "we only store one instance of each
triangle" (§IV-A step 3).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from .edge import Edge, Triangle, Vertex, canonical_triangle
from .undirected import Graph


def triangles_of_edge(graph: Graph, u: Vertex, v: Vertex) -> Iterator[Triangle]:
    """Yield every triangle containing the edge ``{u, v}`` (canonical form).

    The apexes are exactly the common neighbors of the endpoints.

    >>> g = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4)])
    >>> sorted(triangles_of_edge(g, 1, 2))
    [(1, 2, 3)]
    """
    for w in graph.common_neighbors(u, v):
        yield canonical_triangle(u, v, w)


def enumerate_triangles(graph: Graph) -> Iterator[Triangle]:
    """Yield every triangle of ``graph`` exactly once, in canonical form.

    Uses the forward algorithm: vertices are ranked by (degree, tiebreak) and
    each triangle is reported only from its lowest-ranked vertex, so no
    triangle is produced more than once and hub vertices do not blow up the
    cost.

    >>> from .undirected import complete_graph
    >>> sum(1 for _ in enumerate_triangles(complete_graph(5)))
    10
    """
    rank: Dict[Vertex, int] = {
        vertex: index
        for index, vertex in enumerate(
            sorted(graph.vertices(), key=lambda v: (graph.degree(v), repr(v)))
        )
    }
    # Oriented adjacency: keep only neighbors of higher rank.
    forward: Dict[Vertex, set] = {
        vertex: {w for w in graph.neighbors(vertex) if rank[w] > rank[vertex]}
        for vertex in graph.vertices()
    }
    for u in graph.vertices():
        fu = forward[u]
        for v in fu:
            fv = forward[v]
            smaller, larger = (fu, fv) if len(fu) <= len(fv) else (fv, fu)
            for w in smaller:
                if w in larger:
                    yield canonical_triangle(u, v, w)


def count_triangles(graph: Graph, *, backend: str = "auto") -> int:
    """Return the total number of triangles in ``graph``.

    ``backend`` names a row of :data:`repro.fast.BACKEND_OPS`:
    ``"reference"`` iterates :func:`enumerate_triangles`; ``"csr"``,
    ``"csr-vec"`` and ``"external"`` all run the in-RAM CSR kernel of
    :mod:`repro.fast` (counting never peels or spills); ``"auto"``
    (default) picks by graph size.

    >>> from .undirected import complete_graph
    >>> count_triangles(complete_graph(6))
    20
    """
    from ..fast import BACKEND_OPS, resolve_backend

    return BACKEND_OPS[resolve_backend(backend, graph)].count(graph)


def triangle_supports(graph: Graph, *, backend: str = "auto") -> Dict[Edge, int]:
    """Return ``{edge: number of triangles containing it}`` for every edge.

    This is the initial upper bound :math:`\\tilde\\kappa(e)` of Algorithm 1
    (steps 1-5): before any peeling, every triangle on ``e`` may belong to
    ``e``'s maximum Triangle K-Core.

    Computed in a single pass over the triangle enumeration, so the cost is
    O(|E| + |Tri|) rather than one common-neighbor intersection per edge.
    ``backend`` works as in :func:`count_triangles`; every backend returns
    the same mapping, held in RAM.
    """
    from ..fast import BACKEND_OPS, resolve_backend

    return BACKEND_OPS[resolve_backend(backend, graph)].supports(graph)


def reference_count_triangles(graph: Graph) -> int:
    """:func:`count_triangles` of the ``"reference"`` backend."""
    return sum(1 for _ in enumerate_triangles(graph))


def reference_triangle_supports(graph: Graph) -> Dict[Edge, int]:
    """:func:`triangle_supports` of the ``"reference"`` backend."""
    supports: Dict[Edge, int] = {edge: 0 for edge in graph.edges()}
    for a, b, c in enumerate_triangles(graph):
        supports[(a, b)] += 1
        supports[(a, c)] += 1
        supports[(b, c)] += 1
    return supports


def edge_triangle_index(graph: Graph) -> Dict[Edge, list[Triangle]]:
    """Return ``{edge: [triangles containing it]}`` for every edge.

    This materializes the triangle store that Algorithm 1 builds in step 3.
    For graphs too large to store all triangles the paper recomputes them on
    demand (§IV-A last paragraph); callers wanting that behaviour should use
    :func:`triangles_of_edge` instead.
    """
    index: Dict[Edge, list[Triangle]] = {edge: [] for edge in graph.edges()}
    for triangle in enumerate_triangles(graph):
        a, b, c = triangle
        index[(a, b)].append(triangle)
        index[(a, c)].append(triangle)
        index[(b, c)].append(triangle)
    return index


def new_triangles_for_edge(graph: Graph, u: Vertex, v: Vertex) -> list[Triangle]:
    """Triangles that appear if the (absent) edge ``{u, v}`` is inserted.

    ``graph`` must not already contain the edge.  Used by the dynamic
    maintenance algorithms: inserting an edge creates exactly one triangle per
    common neighbor of its endpoints.
    """
    if graph.has_edge(u, v):
        raise ValueError(f"edge ({u!r}, {v!r}) already present; no 'new' triangles")
    return [canonical_triangle(u, v, w) for w in graph.common_neighbors(u, v)]


def global_clustering_coefficient(graph: Graph) -> float:
    """Transitivity: ``3 * triangles / open wedges`` (0.0 for wedge-free graphs).

    Handy for characterizing the synthetic datasets against their real-world
    counterparts from the paper's Table I.
    """
    wedge_count = sum(
        graph.degree(v) * (graph.degree(v) - 1) // 2 for v in graph.vertices()
    )
    if wedge_count == 0:
        return 0.0
    return 3.0 * count_triangles(graph) / wedge_count


def local_clustering(graph: Graph, vertex: Vertex) -> float:
    """Local clustering coefficient of ``vertex`` (0.0 for degree < 2)."""
    neighbors = list(graph.neighbors(vertex))
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    neighbor_set = set(neighbors)
    for i, u in enumerate(neighbors):
        links += sum(1 for w in graph.neighbors(u) if w in neighbor_set)
    # Every link counted twice (once from each endpoint).
    return links / (k * (k - 1))


def triangle_degree(graph: Graph, vertex: Vertex) -> int:
    """Number of triangles that contain ``vertex``."""
    neighbors = list(graph.neighbors(vertex))
    neighbor_set = set(neighbors)
    links = 0
    for u in neighbors:
        links += sum(1 for w in graph.neighbors(u) if w in neighbor_set)
    return links // 2


Wedge = Tuple[Vertex, Vertex, Vertex]


def enumerate_open_wedges(graph: Graph) -> Iterator[Wedge]:
    """Yield open wedges ``(u, center, w)`` where ``{u, w}`` is *not* an edge.

    Useful for edge-insertion workloads that deliberately close triangles
    (the "densifying" update streams used in the Table III benchmark).
    Each unordered wedge is yielded once, with ``u`` before ``w`` in
    canonical order.
    """
    for center in graph.vertices():
        neighbors = sorted(graph.neighbors(center), key=repr)
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1 :]:
                if not graph.has_edge(u, w):
                    yield (u, center, w)
