"""``repro.fast`` — the layered flat-array (CSR) kernel substrate.

The reference implementations in :mod:`repro.core` and
:mod:`repro.graph.triangles` run on hash-keyed dicts of canonical edge
tuples: ideal for dynamic updates and as a cross-validation oracle, but an
order of magnitude slower than necessary for one-shot static work.  This
package provides the fast paths behind ``backend="csr"``, ``"csr-vec"``,
``"parallel"`` and ``"parallel-vec"``, organized as four explicit layers
(DESIGN.md "Kernel layering" has the full composition table):

* **L1 — substrate**: :class:`~repro.fast.csr.CSRGraph`, an immutable
  integer-relabeled CSR snapshot whose five kernel arrays form a
  pluggable store — stdlib ``array``, or zero-copy ``memoryview`` slices
  over a ``multiprocessing.shared_memory`` segment
  (:class:`~repro.fast.shm.SharedCSR`);
* **L2 — enumeration**: :mod:`~repro.fast.kernels` — forward-algorithm
  triangle counting/supports over any substrate, shardable by vertex
  range (:mod:`~repro.fast.parallel` fans shards over a process pool,
  shipping only the shared-memory attach descriptor to each worker);
* **L3 — peel executor**: :mod:`~repro.fast.peelers` — Algorithm 1
  behind the :class:`~repro.fast.peelers.PeelExecutor` seam: the scalar
  bucket-queue walk or the vectorized level-synchronous executor;
* **L4 — dispatch**: this module — wrapping kernel output in the
  array-backed public result (see "Results" below) and the ``backend``
  policy composing substrate × enumeration × executor for every entry
  point.

Backends
--------

``"reference"``
    The original pure-dict implementations.  Always available; required
    for ``store_membership=True``.
``"csr"``
    Snapshot + kernels + **scalar** peel.  Produces identical kappa maps
    (property-tested against both the reference and networkx), but its
    processing order may break ties differently — any
    non-decreasing-kappa order is valid.
``"csr-vec"``
    ``"csr"`` with the **vector** (level-synchronous, batched-decrement)
    peel executor.  Identical kappa; canonical processing order
    (ascending level, sub-round, edge id).  The single-core win on large
    graphs when numpy is present (``make bench-peel``); without numpy a
    bit-identical pure path keeps it available everywhere.
``"parallel"``
    ``"csr"`` with the triangle enumeration fanned out over a
    ``multiprocessing`` pool, the CSR handed to workers zero-copy via
    shared memory (:mod:`repro.fast.parallel`).  Bit-identical to
    ``"csr"`` — same kappa map *and* processing order — for any worker
    count.
``"parallel-vec"``
    Sharded enumeration + vector peel: the full composition.
    Bit-identical to ``"csr-vec"`` for any worker count.
``"external"``
    Out-of-core: the CSR columns live in mmap'd spill files under a
    spill directory, triangles are enumerated partition by partition to
    disk, and a reconciliation peel iterates boundary demotions across
    partitions to a fixed point (:mod:`repro.fast.external`).  Resident
    memory stays O(n + m) words plus one byte per triangle regardless of
    graph size.  Bit-identical to ``"csr"`` (kappa) *and* ``"csr-vec"``
    (canonical processing order) for any partition count.
``"auto"``
    By measured tiering, always in process: ``"external"`` when a
    ``memory_budget`` is configured and the estimated CSR payload exceeds
    it (or the graph has at least :data:`AUTO_EXTERNAL_MIN_EDGES` edges);
    else ``"csr-vec"`` at or above :data:`AUTO_VECTOR_MIN_EDGES` edges when
    numpy is present; else ``"csr"`` at or above :data:`AUTO_MIN_EDGES`
    (snapshot construction overhead dominates below that); else
    ``"reference"`` — and always ``"reference"`` whenever membership
    bookkeeping is requested.  ``"auto"`` never picks the process-parallel
    backends: their pool spawn costs more than the sharded enumeration
    saves (only named explicitly do they run), so ``workers`` does not
    steer it.

Results
-------

Every kernel backend returns a
:class:`~repro.core.triangle_kcore.TriangleKCoreResult` backed by
edge-id-indexed kappa and processing-order arrays
(:class:`~repro.fast.csr.EdgeIdArrays`): ``max_kappa`` and
``histogram()`` read the arrays, and the labelled ``kappa`` dict and
``processing_order`` list are decoded once, on first access.  On the
numpy path enumeration, peel and result hand int64 ndarrays to each other
(:func:`~repro.fast.kernels.enumerate_arrays`,
:func:`~repro.fast.peelers.peel_arrays`, :func:`peel_to_result`); the
public :func:`supports_and_triangles`, :func:`peel` and
:meth:`CSRGraph.edge_labels` keep returning lists.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..graph.edge import Edge
from ..graph.undirected import Graph
from .csr import CSRGraph, EdgeIdArrays, IntSeq, int_sum
from .external import (
    ExternalCSR,
    SpillError,
    cleanup_stale,
    decompose_spill,
    external_decomposition,
    inject_boundary_drop_bug,
    spill_edges,
)
from .kernels import (
    enumerate_arrays,
    peel,
    supports_and_triangles,
    triangle_count,
    triangle_supports,
)
from .parallel import (
    BackendError,
    effective_workers,
    inject_shard_merge_bug,
    parallel_count_triangles,
    parallel_decomposition,
    parallel_supports_and_triangles,
    shard_ranges,
)
from .peelers import PEEL_EXECUTORS, peel_arrays, run_peel

__all__ = [
    "AUTO_EXTERNAL_MIN_EDGES",
    "AUTO_MIN_EDGES",
    "AUTO_VECTOR_MIN_EDGES",
    "BACKENDS",
    "BackendError",
    "CSRGraph",
    "ExternalCSR",
    "PEEL_EXECUTORS",
    "SpillError",
    "backend_executor",
    "cleanup_stale",
    "csr_count_triangles",
    "csr_decomposition",
    "csr_triangle_supports",
    "decompose_spill",
    "effective_workers",
    "estimated_payload_nbytes",
    "external_decomposition",
    "inject_boundary_drop_bug",
    "inject_shard_merge_bug",
    "parallel_count_triangles",
    "parallel_decomposition",
    "parallel_supports_and_triangles",
    "parallel_triangle_supports",
    "peel",
    "resolve_backend",
    "run_peel",
    "shard_ranges",
    "spill_edges",
    "supports_and_triangles",
    "triangle_count",
    "triangle_supports",
]

#: Backends this package can resolve (the engine registry adds more, e.g.
#: ``"dynamic"`` — see :func:`_known_backends`).
BACKENDS = (
    "auto",
    "reference",
    "csr",
    "csr-vec",
    "parallel",
    "parallel-vec",
    "external",
)

#: "auto" switches to the CSR kernels at this edge count; below it the
#: snapshot build costs more than the dict overhead it saves (measured in
#: benchmarks/bench_backend_kernels.py — the crossover sits near 10^3 edges).
AUTO_MIN_EDGES = 1024

#: "auto" escalates the peel from "scalar" to "vector" at this edge count
#: when numpy is importable (measured in benchmarks/bench_peel.py: the
#: level-synchronous executor loses below ~2·10^4 edges — too few edges
#: per frontier to amortize the array passes — and wins 2-3x above it).
AUTO_VECTOR_MIN_EDGES = 32768

#: "auto" escalates to the out-of-core backend at this edge count even
#: without an explicit memory budget — the point where the in-RAM
#: triangle list (24 bytes/triangle plus the O(3T) incidence the peel
#: executors build) starts to dominate typical container budgets.  With a
#: budget configured the payload-vs-budget comparison takes precedence.
AUTO_EXTERNAL_MIN_EDGES = 1 << 21


def backend_executor(backend: str) -> str:
    """The peel-executor name a resolved kernel backend composes (L3)."""
    return "vector" if backend.endswith("-vec") else "scalar"


def _known_backends() -> Tuple[str, ...]:
    """Every backend name the system knows, for error messages.

    Derived from the engine registry when importable (so engine-level
    backends such as ``"dynamic"`` — and anything added via
    ``Engine.register_backend`` defaults — are listed automatically),
    falling back to this package's own tuple during partial imports.
    """
    try:
        from ..engine.engine import _BUILTIN_BACKENDS

        return ("auto",) + tuple(_BUILTIN_BACKENDS)
    except ImportError:  # pragma: no cover - only during bootstrap
        return BACKENDS


def resolve_backend(
    backend: str,
    graph: Graph,
    *,
    needs_reference: bool = False,
    memory_budget: Optional[int] = None,
) -> str:
    """Resolve ``backend`` to a concrete kernel composition.

    Returns one of ``"reference"``, ``"csr"``, ``"csr-vec"``,
    ``"parallel"``, ``"parallel-vec"`` or ``"external"`` — the two
    parallel compositions only when named explicitly.
    ``needs_reference`` marks calls the kernels cannot serve (currently:
    membership bookkeeping); ``"auto"`` then degrades silently while an
    explicit kernel backend raises, so callers never get an answer
    computed differently from what they asked for.  ``memory_budget``
    (bytes) feeds the ``"auto"`` out-of-core escalation — when the
    estimated CSR payload would exceed the budget, ``"auto"`` spills.
    """
    if backend not in BACKENDS:
        known = _known_backends()
        if backend in known:
            raise ValueError(
                f"backend {backend!r} is only available through "
                f"repro.engine.Engine (known backends: {known})"
            )
        raise ValueError(f"unknown backend {backend!r}; expected one of {known}")
    if backend == "reference":
        return "reference"
    if needs_reference:
        if backend != "auto":
            raise ValueError(
                f"backend={backend!r} does not support membership "
                "bookkeeping; use backend='reference' (or 'auto')"
            )
        return "reference"
    if backend != "auto":
        return backend
    from . import csr as _csr_mod

    if graph.num_edges >= AUTO_EXTERNAL_MIN_EDGES or (
        memory_budget is not None
        and estimated_payload_nbytes(graph) > memory_budget
    ):
        return "external"
    if _csr_mod.np is not None and graph.num_edges >= AUTO_VECTOR_MIN_EDGES:
        return "csr-vec"
    return "csr" if graph.num_edges >= AUTO_MIN_EDGES else "reference"


def estimated_payload_nbytes(graph: Graph) -> int:
    """Estimated in-RAM CSR payload for ``graph``, without building it.

    The five kernel columns cost ``8 * (n + 1) + 8 * 2m + 8 * 2m + 8 * n
    + 16m`` bytes = ``48m + 16n + 8`` — the quantity ``"auto"`` compares
    against a configured memory budget to decide when to spill.
    """
    return 48 * graph.num_edges + 16 * graph.num_vertices + 8


def csr_count_triangles(graph: Graph) -> int:
    """Total triangle count via the CSR kernel."""
    return triangle_count(CSRGraph.from_graph(graph))


def csr_triangle_supports(graph: Graph) -> Dict[Edge, int]:
    """``{canonical edge: triangle support}`` via the CSR kernel."""
    csr = CSRGraph.from_graph(graph)
    return dict(zip(csr.edge_labels(), triangle_supports(csr)))


def parallel_triangle_supports(
    graph: Graph, *, workers: Optional[int] = None
) -> Dict[Edge, int]:
    """``{canonical edge: triangle support}`` via the sharded enumeration."""
    csr = CSRGraph.from_graph(graph)
    supports, _ = parallel_supports_and_triangles(csr, workers=workers)
    return dict(zip(csr.edge_labels(), supports))


def peel_to_result(
    csr: CSRGraph,
    precomputed: Tuple[IntSeq, IntSeq],
    counters: Optional[Dict[str, int]] = None,
    *,
    executor: str = "scalar",
    peel_stats: Optional[Dict[str, object]] = None,
) -> "TriangleKCoreResult":  # noqa: F821
    """Peel ``precomputed`` into an array-backed public result.

    Shared tail of every in-RAM kernel backend: given the ``(supports,
    tri_edges)`` pair — however it was computed, lists or int64 ndarrays —
    run the selected Algorithm 1 peel executor and wrap the edge-id
    ``(kappa, order)`` arrays with the snapshot's labels and
    ``edge_endpoints``; the labelled dict and list are decoded on first
    access.  ``counters`` mirrors the instrumentation hook of
    :func:`repro.core.triangle_kcore.triangle_kcore_decomposition`;
    ``peel_stats`` receives the executor telemetry
    (:data:`~repro.fast.peelers.PeelStats`).
    """
    # Imported lazily: repro.core.triangle_kcore dispatches into this module.
    from ..core.triangle_kcore import TriangleKCoreResult

    supports, tri_edges = precomputed
    kappa_by_eid, order_by_eid = peel_arrays(
        csr.num_edges, supports, tri_edges, executor=executor, stats=peel_stats
    )
    if counters is not None:
        support_sum = int_sum(supports)
        counters["triangles_enumerated"] = support_sum // 3
        counters["support_sum"] = support_sum
        counters["edges_peeled"] = csr.num_edges
        counters["bucket_decrements"] = support_sum - int_sum(kappa_by_eid)
    return TriangleKCoreResult.from_edge_arrays(
        EdgeIdArrays(csr.labels, csr.edge_endpoints, kappa_by_eid, order_by_eid)
    )


def csr_decomposition(
    graph: Graph,
    *,
    counters: Optional[Dict[str, int]] = None,
    executor: str = "scalar",
    peel_stats: Optional[Dict[str, object]] = None,
) -> "TriangleKCoreResult":  # noqa: F821
    """Algorithm 1 via the CSR kernels, as an array-backed public result.

    ``executor`` selects the peel executor (L3): ``"scalar"`` is
    ``backend="csr"``, ``"vector"`` is ``backend="csr-vec"``.
    ``counters`` mirrors the instrumentation hook of
    :func:`repro.core.triangle_kcore.triangle_kcore_decomposition`: the
    same keys, derived from arrays the kernels build anyway;
    ``peel_stats`` receives the executor telemetry.
    """
    csr = CSRGraph.from_graph(graph)
    return peel_to_result(
        csr,
        enumerate_arrays(csr),
        counters,
        executor=executor,
        peel_stats=peel_stats,
    )
