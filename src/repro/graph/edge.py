"""Canonical edge and triangle keys for undirected graphs.

Every module in this library identifies an undirected edge by a *canonical*
2-tuple and a triangle by a canonical 3-tuple, so that ``(u, v)`` and
``(v, u)`` (and every vertex rotation of a triangle) map to the same
dictionary key.  Vertices may be any hashable object; when two vertices are
not mutually orderable (for example an ``int`` and a ``str``) we fall back to
a deterministic total order on ``(type name, repr)``.
"""

from __future__ import annotations

from typing import Hashable, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]
Triangle = Tuple[Vertex, Vertex, Vertex]


def _order_key(vertex: Vertex) -> tuple[str, str]:
    """Deterministic fallback sort key for vertices of mixed types."""
    return (type(vertex).__name__, repr(vertex))


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical representation of the undirected edge ``{u, v}``.

    The canonical form orders the endpoints so that ``canonical_edge(u, v)``
    and ``canonical_edge(v, u)`` are identical, making the result usable as a
    dictionary key.

    >>> canonical_edge(2, 1)
    (1, 2)
    >>> canonical_edge("b", "a")
    ('a', 'b')
    """
    try:
        if u <= v:  # type: ignore[operator]
            return (u, v)
        return (v, u)
    except TypeError:
        if _order_key(u) <= _order_key(v):
            return (u, v)
        return (v, u)


def _precedes(u: Vertex, v: Vertex) -> bool:
    """True when ``canonical_edge(u, v)`` keeps ``u`` first."""
    try:
        return bool(u <= v)  # type: ignore[operator]
    except TypeError:
        return _order_key(u) <= _order_key(v)


def canonical_triangle(u: Vertex, v: Vertex, w: Vertex) -> Triangle:
    """Return the canonical representation of the triangle ``{u, v, w}``.

    The vertices are ordered by the same pairwise rule as
    :func:`canonical_edge`, so ``(a, b)``, ``(a, c)`` and ``(b, c)`` of the
    result are canonical edges even when the labels mix types — native
    comparison between two ints, the ``(type name, repr)`` fallback only
    between labels that cannot be compared.

    >>> canonical_triangle(3, 1, 2)
    (1, 2, 3)
    >>> canonical_triangle(127, "6", 61)
    (61, 127, '6')
    """
    try:
        a, b, c = sorted((u, v, w))  # type: ignore[type-var]
    except TypeError:
        # Start from the total (type name, repr) order so the result does
        # not depend on argument order, then sort by the pairwise rule.
        a, b, c = sorted((u, v, w), key=_order_key)
        if not _precedes(a, b):
            a, b = b, a
        if not _precedes(b, c):
            b, c = c, b
            if not _precedes(a, b):
                a, b = b, a
    return (a, b, c)


def triangle_edges(triangle: Triangle) -> tuple[Edge, Edge, Edge]:
    """Return the three canonical edges of a canonical triangle.

    >>> triangle_edges((1, 2, 3))
    ((1, 2), (1, 3), (2, 3))
    """
    a, b, c = triangle
    return (canonical_edge(a, b), canonical_edge(a, c), canonical_edge(b, c))


def other_edges(triangle: Triangle, edge: Edge) -> tuple[Edge, Edge]:
    """Return the two edges of ``triangle`` other than ``edge``.

    ``edge`` must be one of the triangle's canonical edges.

    >>> other_edges((1, 2, 3), (1, 2))
    ((1, 3), (2, 3))
    """
    e1, e2, e3 = triangle_edges(triangle)
    if edge == e1:
        return (e2, e3)
    if edge == e2:
        return (e1, e3)
    if edge == e3:
        return (e1, e2)
    raise ValueError(f"edge {edge!r} is not part of triangle {triangle!r}")


def apex(triangle: Triangle, edge: Edge) -> Vertex:
    """Return the vertex of ``triangle`` that is not an endpoint of ``edge``.

    >>> apex((1, 2, 3), (1, 3))
    2
    """
    u, v = edge
    remaining = [vertex for vertex in triangle if vertex != u and vertex != v]
    if len(remaining) != 1:
        raise ValueError(f"edge {edge!r} is not part of triangle {triangle!r}")
    return remaining[0]
