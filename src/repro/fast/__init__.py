"""``repro.fast`` — the layered flat-array (CSR) kernel substrate.

The reference implementations in :mod:`repro.core` and
:mod:`repro.graph.triangles` run on hash-keyed dicts of canonical edge
tuples: ideal for dynamic updates and as a cross-validation oracle, but an
order of magnitude slower than necessary for one-shot static work.  This
package provides the fast paths behind ``backend="csr"``, ``"csr-vec"``
and ``"external"``, organized as four explicit layers (DESIGN.md "Kernel
layering" has the full composition table):

* **L1 — substrate**: :class:`~repro.fast.csr.CSRGraph`, an immutable
  integer-relabeled CSR snapshot whose five kernel arrays form a
  pluggable store — stdlib ``array``, numpy ndarrays, or zero-copy
  ``memoryview`` columns (the ``external`` backend's mmap'd spill files);
* **L2 — enumeration**: :mod:`~repro.fast.kernels` — forward-algorithm
  triangle counting/supports over any substrate, restrictable to a
  vertex range (the ``external`` backend enumerates partition by
  partition);
* **L3 — peel executor**: :mod:`~repro.fast.peelers` — Algorithm 1
  behind the :class:`~repro.fast.peelers.PeelExecutor` seam: the scalar
  bucket-queue walk or the vectorized level-synchronous executor;
* **L4 — dispatch**: this module — wrapping kernel output in the
  array-backed public result (see "Results" below), and
  :data:`BACKEND_OPS`, the one table that maps a backend name to its
  decompose, supports and count operations for every entry point, with
  the ``"auto"`` policy (:func:`resolve_backend`) that picks a row.

Backends
--------

``"reference"``
    The original pure-dict implementations.  Always available; required
    for ``store_membership=True``.  (:class:`repro.engine.Engine` also
    serves ``"dynamic"``, :data:`ENGINE_ONLY_BACKENDS`, which is not a
    row here.)
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
``"external"``
    Out-of-core: the CSR columns live in mmap'd spill files under a
    spill directory, triangles are enumerated partition by partition to
    disk, and a reconciliation peel iterates boundary demotions across
    partitions to a fixed point (:mod:`repro.fast.external`).  Resident
    memory stays O(n + m) words plus one byte per triangle regardless of
    graph size.  Bit-identical to ``"csr"`` (kappa) *and* ``"csr-vec"``
    (canonical processing order) for any partition count.  Only the
    decomposition is out of core: triangle supports and counts run the
    in-RAM CSR kernel, as for ``"csr"`` (the supports dict is in RAM
    either way).
``"auto"``
    By measured tiering, always in process: ``"external"`` when a
    ``memory_budget`` is configured and the estimated CSR payload exceeds
    it (or the graph has at least :data:`AUTO_EXTERNAL_MIN_EDGES` edges);
    else, at or above :data:`AUTO_MIN_EDGES` edges (snapshot construction
    overhead dominates below that), ``"csr-vec"`` when numpy is present
    and ``"csr"`` without it; else ``"reference"`` — and always
    ``"reference"`` whenever membership bookkeeping is requested.

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

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, ContextManager, Dict, Optional, Tuple

from ..exceptions import BackendError
from ..graph.edge import Edge
from ..graph.triangles import reference_count_triangles, reference_triangle_supports
from ..graph.undirected import Graph
from .csr import CSRGraph, EdgeIdArrays, IntSeq, int_sum
from .external import (
    ExternalCSR,
    ExternalInfo,
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
from .peelers import PEEL_EXECUTORS, peel_arrays, run_peel

# perfbench/workload_static.py imports this name on every traced run; it is
# the only reason the alias exists.
parallel_supports_and_triangles = supports_and_triangles

__all__ = [
    "AUTO_EXTERNAL_MIN_EDGES",
    "AUTO_MIN_EDGES",
    "BACKENDS",
    "BACKEND_OPS",
    "BackendError",
    "BackendOps",
    "CSRGraph",
    "ENGINE_ONLY_BACKENDS",
    "ExternalCSR",
    "PEEL_EXECUTORS",
    "SpillError",
    "backend_executor",
    "check_membership",
    "cleanup_stale",
    "csr_count_triangles",
    "csr_decomposition",
    "csr_triangle_supports",
    "decompose_spill",
    "estimated_payload_nbytes",
    "external_decomposition",
    "inject_boundary_drop_bug",
    "peel",
    "resolve_backend",
    "run_peel",
    "spill_edges",
    "supports_and_triangles",
    "triangle_count",
    "triangle_supports",
]

#: Backends that only :class:`repro.engine.Engine` serves: ``"dynamic"``
#: answers from a warm maintainer the engine keeps between calls.
ENGINE_ONLY_BACKENDS = ("dynamic",)

#: "auto" switches to the CSR kernels at this edge count; below it the
#: snapshot build costs more than the dict overhead it saves (measured in
#: benchmarks/bench_backend_kernels.py — the crossover sits near 10^3 edges).
AUTO_MIN_EDGES = 1024

#: "auto" escalates to the out-of-core backend at this edge count even
#: without an explicit memory budget — the point where the in-RAM
#: triangle list (24 bytes/triangle plus the O(3T) incidence the peel
#: executors build) starts to dominate typical container budgets.  With a
#: budget configured the payload-vs-budget comparison takes precedence.
AUTO_EXTERNAL_MIN_EDGES = 1 << 21


def backend_executor(backend: str) -> str:
    """The peel-executor name a resolved kernel backend composes (L3)."""
    return "vector" if backend.endswith("-vec") else "scalar"


def check_membership(backend: str, needs_reference: bool) -> None:
    """Refuse membership bookkeeping on a backend that cannot track it.

    Only ``"reference"`` keeps AddToCore/DelFromCore state; ``"auto"``
    degrades to it instead of refusing.  Every entry point's refusal is
    this one.
    """
    if needs_reference and backend not in ("auto", "reference"):
        raise ValueError(
            f"backend={backend!r} does not support membership "
            "bookkeeping; use backend='reference' (or 'auto')"
        )


def resolve_backend(
    backend: str,
    graph: Graph,
    *,
    needs_reference: bool = False,
    memory_budget: Optional[int] = None,
) -> str:
    """Resolve ``backend`` to a row of :data:`BACKEND_OPS`.

    Returns one of ``"reference"``, ``"csr"``, ``"csr-vec"`` or
    ``"external"``.
    ``needs_reference`` marks calls the kernels cannot serve (currently:
    membership bookkeeping); ``"auto"`` then degrades silently while an
    explicit kernel backend raises, so callers never get an answer
    computed differently from what they asked for.  ``memory_budget``
    (bytes) feeds the ``"auto"`` out-of-core escalation — when the
    estimated CSR payload would exceed the budget, ``"auto"`` spills.
    """
    if backend not in BACKENDS:
        known = BACKENDS + ENGINE_ONLY_BACKENDS
        if backend in known:
            raise ValueError(
                f"backend {backend!r} is only available through "
                f"repro.engine.Engine (known backends: {known})"
            )
        raise ValueError(f"unknown backend {backend!r}; expected one of {known}")
    check_membership(backend, needs_reference)
    if backend != "auto":
        return backend
    if needs_reference:
        return "reference"
    from . import csr as _csr_mod

    if graph.num_edges >= AUTO_EXTERNAL_MIN_EDGES or (
        memory_budget is not None
        and estimated_payload_nbytes(graph) > memory_budget
    ):
        return "external"
    if graph.num_edges < AUTO_MIN_EDGES:
        return "reference"
    return "csr" if _csr_mod.np is None else "csr-vec"


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


def _untimed(layer: str) -> ContextManager[None]:
    return nullcontext()


def csr_decomposition(
    graph: Graph,
    *,
    counters: Optional[Dict[str, int]] = None,
    executor: str = "scalar",
    peel_stats: Optional[Dict[str, object]] = None,
    stage: Callable[[str], ContextManager[None]] = _untimed,
) -> "TriangleKCoreResult":  # noqa: F821
    """Algorithm 1 via the CSR kernels, as an array-backed public result.

    ``executor`` selects the peel executor (L3): ``"scalar"`` is
    ``backend="csr"``, ``"vector"`` is ``backend="csr-vec"``.
    ``counters`` mirrors the instrumentation hook of
    :func:`repro.core.triangle_kcore.triangle_kcore_decomposition`: the
    same keys, derived from arrays the kernels build anyway;
    ``peel_stats`` receives the executor telemetry.  ``stage(layer)`` is
    entered around each layer — ``"build"``, ``"enumerate"``, ``"peel"``
    — so a caller can time them (the engine's ``decompose.<backend>.*``
    sub-stages).  Decoding to labelled edges is not a layer here: the
    result decodes on first access to ``.kappa``/``.processing_order``.
    """
    with stage("build"):
        csr = CSRGraph.from_graph(graph)
    with stage("enumerate"):
        precomputed = enumerate_arrays(csr)
    with stage("peel"):
        return peel_to_result(
            csr, precomputed, counters, executor=executor, peel_stats=peel_stats
        )


# ---------------------------------------------------------------------- #
# the backend table
# ---------------------------------------------------------------------- #
#
# Every row's ``decompose`` takes the graph plus the keywords the engine
# passes to all rows — ``store_membership``, ``counters``, ``peel_stats``,
# ``info``, ``stage``, ``spill_dir``, ``memory_budget`` — and uses the ones
# that apply to it (``**_`` takes the rest).  The free functions pass only
# ``store_membership`` and ``counters``.


def _decompose_reference(
    graph: Graph,
    *,
    store_membership: bool = False,
    counters: Optional[Dict[str, int]] = None,
    **_: object,
) -> "TriangleKCoreResult":  # noqa: F821
    from ..core.triangle_kcore import reference_decomposition

    return reference_decomposition(
        graph, store_membership=store_membership, counters=counters
    )


def _decompose_csr(
    graph: Graph,
    *,
    executor: str,
    counters: Optional[Dict[str, int]] = None,
    peel_stats: Optional[Dict[str, object]] = None,
    stage: Callable[[str], ContextManager[None]] = _untimed,
    **_: object,
) -> "TriangleKCoreResult":  # noqa: F821
    return csr_decomposition(
        graph,
        counters=counters,
        executor=executor,
        peel_stats=peel_stats,
        stage=stage,
    )


def _decompose_external(
    graph: Graph,
    *,
    counters: Optional[Dict[str, int]] = None,
    peel_stats: Optional[Dict[str, object]] = None,
    info: Optional[ExternalInfo] = None,
    spill_dir: Optional[str] = None,
    memory_budget: Optional[int] = None,
    **_: object,
) -> "TriangleKCoreResult":  # noqa: F821
    return external_decomposition(
        graph,
        spill_dir=spill_dir,
        memory_budget=memory_budget,
        counters=counters,
        peel_stats=peel_stats,
        info=info,
    )


@dataclass(frozen=True)
class BackendOps:
    """One row of :data:`BACKEND_OPS`: the code a backend name runs."""

    decompose: Callable[..., "TriangleKCoreResult"]  # noqa: F821
    supports: Callable[[Graph], Dict[Edge, int]]
    count: Callable[[Graph], int]


#: The one map from a backend name to code.  Every entry point —
#: :func:`~repro.core.triangle_kcore.triangle_kcore_decomposition`,
#: :func:`~repro.graph.triangles.triangle_supports`,
#: :func:`~repro.graph.triangles.count_triangles` and
#: :class:`repro.engine.Engine` — looks its resolved name up here.
#: ``"external"`` counts triangles and supports with the in-RAM CSR kernel:
#: the supports dict is in RAM either way, and only the decomposition runs
#: out of core.
BACKEND_OPS: Dict[str, BackendOps] = {
    "reference": BackendOps(
        _decompose_reference, reference_triangle_supports, reference_count_triangles
    ),
    "csr": BackendOps(
        partial(_decompose_csr, executor="scalar"),
        csr_triangle_supports,
        csr_count_triangles,
    ),
    "csr-vec": BackendOps(
        partial(_decompose_csr, executor="vector"),
        csr_triangle_supports,
        csr_count_triangles,
    ),
    "external": BackendOps(
        _decompose_external, csr_triangle_supports, csr_count_triangles
    ),
}

#: Names :func:`resolve_backend` accepts: ``"auto"`` plus the table rows.
BACKENDS = ("auto",) + tuple(BACKEND_OPS)
