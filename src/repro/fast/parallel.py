"""Process-parallel triangle enumeration: the ``parallel`` backends.

Table II shows Algorithm 1's cost is dominated by triangle enumeration /
support counting, and that stage shards cleanly: every triangle is
discovered exactly once, from its lowest-ranked vertex, so partitioning
the CSR vertex range ``[0, n)`` into contiguous shards partitions the
triangle set.  This module fans that stage out over a process pool:

1. the parent freezes the graph into a :class:`~repro.fast.csr.CSRGraph`
   and **publishes** the flat arrays once into a
   ``multiprocessing.shared_memory`` segment
   (:class:`~repro.fast.shm.SharedCSR`); each worker receives only the
   tiny attach descriptor through the pool initializer and maps the
   segment zero-copy (``info["bytes_shipped"]`` records the pickled
   descriptor size — O(1) in the graph).  Hosts without shared memory
   fall back transparently to the legacy pickled-payload transport;
2. each worker runs :func:`~repro.fast.kernels.supports_and_triangles`
   over its vertex range ``[lo, hi)`` and returns a full-length support
   array plus its shard's triangle list (packed as raw int64 bytes —
   cheap to pickle, cheap to merge);
3. the parent validates that the shard ranges tile ``[0, n)`` exactly
   (raising :class:`BackendError` on overlap or gap instead of silently
   double-counting), sums the support arrays element-wise and
   concatenates the triangle lists in shard order — bit-identical to the
   sequential enumeration, because shard outputs preserve the global
   discovery order — then runs the selected peel executor
   (:mod:`repro.fast.peelers`): the scalar walk for ``parallel``, the
   level-synchronous vectorized one for ``parallel-vec``.

Because the merged ``(supports, tri_edges)`` equals the single-process
kernel output exactly, ``parallel`` produces the same kappa map *and*
processing order as ``csr`` (and ``parallel-vec`` the same as
``csr-vec``) for any worker count, and all of them the same kappa map as
``reference`` (the conformance suite asserts all of it).

Shards are balanced by arc count, not vertex count: the CSR relabels
vertices in ascending degree order, so equal vertex ranges would put all
hubs in the last shard.

Shared-memory lifetime: the parent owns the segment and removes it in a
``finally`` block around the pool — a crashed (even SIGKILL'd) worker
cannot leak a segment because workers only ever *attach* (see
:mod:`repro.fast.shm` for the full rules).

Failure contract: a worker that dies (OOM kill, segfault, ``os._exit``)
surfaces as :class:`~repro.exceptions.BackendError` in the parent — never
a hang — because :class:`concurrent.futures.ProcessPoolExecutor` detects
broken pools.  ``workers=1`` (and any graph that yields a single shard)
short-circuits to the in-process CSR path: no pool, no segment.
"""

from __future__ import annotations

import os
import pickle
import time
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import BackendError
from ..graph.undirected import Graph
from . import csr as _csr_mod
from .csr import CSRGraph
from .kernels import supports_and_triangles

__all__ = [
    "BackendError",
    "ParallelInfo",
    "TRANSPORTS",
    "effective_workers",
    "parallel_count_triangles",
    "parallel_decomposition",
    "parallel_supports_and_triangles",
    "shard_ranges",
]

#: Structured record of one parallel run, for engine instrumentation:
#: ``{"workers": int, "shards": int, "shard_seconds": [float, ...],
#: "transport": str, "bytes_shipped": int}``.
ParallelInfo = Dict[str, object]

#: CSR handoff mechanisms: ``"auto"`` publishes via shared memory and
#: falls back to pickling when the host cannot map segments; the explicit
#: names force one path (tests use them; ``"shm"`` raises BackendError
#: when unavailable rather than degrade silently).
TRANSPORTS = ("auto", "shm", "pickle")

#: Environment knob tests use to make every pool worker die on startup,
#: proving the crash path raises BackendError instead of hanging (and, for
#: the shm transport, that the parent still removes the segment).
_CRASH_ENV = "_REPRO_PARALLEL_CRASH_TEST"

#: When True (via :func:`inject_shard_merge_bug`), the merge step drops the
#: last triangle of the final shard — the deliberate off-by-one the
#: mutation smoke-check must catch and shrink.
_SHARD_MERGE_BUG = False


def effective_workers(workers: Optional[int]) -> int:
    """Resolve a ``workers`` request to a concrete count (``>= 1``).

    ``None`` means "one per CPU" (``os.cpu_count()``); explicit values are
    validated but not capped — oversubscription is the caller's choice.
    """
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def shard_ranges(csr: CSRGraph, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, n)`` into at most ``shards`` contiguous vertex ranges.

    Cut points are chosen on the arc-count prefix (``indptr``) so every
    shard scans roughly the same number of adjacency entries regardless of
    the degree distribution.  Degenerate cuts are deduplicated, so sparse
    or tiny graphs may yield fewer ranges than requested (possibly a
    single one); an empty graph yields no ranges.  The returned ranges
    always tile ``[0, n)`` exactly — contiguous, disjoint, covering — a
    property the merge guard re-checks and the hypothesis suite hammers
    with adversarial degree distributions.
    """
    n = csr.num_vertices
    if n == 0 or shards <= 1:
        return [(0, n)] if n else []
    total_arcs = csr.indptr[n]
    if total_arcs == 0:
        return [(0, n)]
    shards = min(shards, n)
    cuts = [0]
    for i in range(1, shards):
        target = (total_arcs * i) // shards
        cut = bisect_left(csr.indptr, target)
        if cut > cuts[-1] and cut < n:
            cuts.append(cut)
    cuts.append(n)
    return list(zip(cuts[:-1], cuts[1:]))


def _validate_shard_tiling(n: int, shards: Sequence[Tuple[int, int]]) -> None:
    """Raise BackendError unless ``shards`` tile ``[0, n)`` exactly.

    Overlapping ranges would double-count triangles straddling the overlap
    (silently wrong supports); gaps would drop them.  Either way the merge
    must refuse rather than produce a plausible-looking wrong kappa map.
    """
    expected = 0
    for lo, hi in shards:
        if lo != expected or hi <= lo:
            raise BackendError(
                f"parallel backend: shard ranges {list(shards)} do not tile "
                f"[0, {n}) — overlap or gap at vertex {expected}; refusing "
                f"to merge (supports would be silently mis-counted)"
            )
        expected = hi
    if expected != n:
        raise BackendError(
            f"parallel backend: shard ranges {list(shards)} do not cover "
            f"[0, {n}) — missing tail from vertex {expected}; refusing to "
            f"merge (supports would be silently mis-counted)"
        )


# ---------------------------------------------------------------------- #
# worker-side machinery
# ---------------------------------------------------------------------- #

#: Worker-process CSR snapshot, installed once by :func:`_init_worker`.
_WORKER_CSR: Optional[CSRGraph] = None
#: The worker's attached SharedCSR (kept referenced so the views stay
#: valid for the pool's lifetime; unmapped implicitly at process exit).
_WORKER_SHARED = None


def _csr_payload(csr: CSRGraph) -> tuple:
    """Pickle-friendly flat-array snapshot (labels omitted: kernels never
    touch original labels, and they can be arbitrary unpicklable objects)."""
    return (
        csr.num_vertices,
        csr.num_edges,
        bytes(memoryview(csr.indptr)),
        bytes(memoryview(csr.indices)),
        bytes(memoryview(csr.arc_eids)),
        bytes(memoryview(csr.forward_start)),
        bytes(memoryview(csr.edge_endpoints)),
    )


def _csr_from_payload(payload: tuple) -> CSRGraph:
    num_vertices, num_edges, *blobs = payload
    return CSRGraph.from_arrays(
        num_vertices,
        num_edges,
        dict(zip(CSRGraph.ARRAY_FIELDS, blobs)),
    )


def _init_worker(transport: str, data: object) -> None:
    """Pool initializer: receive the CSR once, keep it in a module global.

    ``transport="shm"`` attaches to the parent's shared segment by name
    (zero-copy); ``"pickle"`` rehydrates the legacy array payload.
    """
    if os.environ.get(_CRASH_ENV):
        os._exit(13)
    global _WORKER_CSR, _WORKER_SHARED
    if transport == "shm":
        from .shm import SharedCSR

        _WORKER_SHARED = SharedCSR.attach(data)  # type: ignore[arg-type]
        _WORKER_CSR = _WORKER_SHARED.csr()
    else:
        _WORKER_CSR = _csr_from_payload(data)  # type: ignore[arg-type]


def _pack_shard(
    supports: List[int], tri_edges: List[int], seconds: float
) -> Tuple[bytes, bytes, float]:
    """Pack one shard's output as raw int64 bytes (cheap IPC, cheap merge)."""
    return (
        array("q", supports).tobytes(),
        array("q", tri_edges).tobytes(),
        seconds,
    )


def _supports_shard(bounds: Tuple[int, int]) -> Tuple[bytes, bytes, float]:
    """One worker task: supports + triangles for the vertex range."""
    lo, hi = bounds
    start = time.perf_counter()
    supports, tri_edges = supports_and_triangles(_WORKER_CSR, lo=lo, hi=hi)
    return _pack_shard(supports, tri_edges, time.perf_counter() - start)


# ---------------------------------------------------------------------- #
# parent-side merge
# ---------------------------------------------------------------------- #


def _merge_shards(
    csr: CSRGraph,
    shards: Sequence[Tuple[int, int]],
    shard_outputs: Sequence[Tuple[bytes, bytes, float]],
) -> Tuple[Tuple[List[int], List[int]], List[float]]:
    """Sum per-shard supports, concatenate triangle lists in shard order.

    Validates first that ``shards`` tile the vertex range exactly —
    overlapping or gapped shard output raises :class:`BackendError`
    instead of silently double-counting supports.
    """
    _validate_shard_tiling(csr.num_vertices, shards)
    np = _csr_mod.np
    m = csr.num_edges
    if np is not None:
        total = np.zeros(m, dtype=np.int64)
        for supports_blob, _, _ in shard_outputs:
            total += np.frombuffer(supports_blob, dtype=np.int64)
        supports = total.tolist()
    else:
        supports = [0] * m
        for supports_blob, _, _ in shard_outputs:
            for e, count in enumerate(array("q", supports_blob)):
                if count:
                    supports[e] += count
    tri_blob = b"".join(blob for _, blob, _ in shard_outputs)
    tri_edges: List[int] = array("q", tri_blob).tolist()
    if _SHARD_MERGE_BUG and tri_edges:
        # Deliberate fault injection (see inject_shard_merge_bug): lose the
        # final shard's last triangle, keeping supports/tri_edges mutually
        # consistent so the error shows up as a wrong kappa, not a crash.
        for e in tri_edges[-3:]:
            supports[e] -= 1
        del tri_edges[-3:]
    seconds = [elapsed for _, _, elapsed in shard_outputs]
    return (supports, tri_edges), seconds


def parallel_supports_and_triangles(
    csr: CSRGraph,
    *,
    workers: Optional[int] = None,
    inprocess: bool = False,
    info: Optional[ParallelInfo] = None,
    transport: str = "auto",
) -> Tuple[List[int], List[int]]:
    """Sharded ``(supports, tri_edges)``, identical to the sequential call.

    ``inprocess=True`` computes the shards serially in this process but
    still routes them through the same split/merge code — the cheap way
    for tests (and the fuzz oracle) to exercise the shard arithmetic
    without paying a pool spawn per call.  ``info`` (when given) receives
    the worker count, shard count, per-shard wall times, the transport
    used, and the bytes shipped per worker.  ``transport`` selects the
    CSR handoff (:data:`TRANSPORTS`).
    """
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    count = effective_workers(workers)
    shards = shard_ranges(csr, count)
    if info is not None:
        info["workers"] = count
        info["shards"] = len(shards)
        info["shard_seconds"] = []
        info["transport"] = "inprocess"
        info["bytes_shipped"] = 0
    if len(shards) <= 1 and not _SHARD_MERGE_BUG:
        return supports_and_triangles(csr)
    if inprocess or (len(shards) <= 1 and _SHARD_MERGE_BUG):
        outputs = [_shard_inprocess(csr, bounds) for bounds in shards]
    else:
        outputs = _run_pool(csr, shards, count, transport, info)
    precomputed, seconds = _merge_shards(csr, shards, outputs)
    if info is not None:
        info["shard_seconds"] = [round(s, 6) for s in seconds]
    return precomputed


def _shard_inprocess(
    csr: CSRGraph, bounds: Tuple[int, int]
) -> Tuple[bytes, bytes, float]:
    lo, hi = bounds
    start = time.perf_counter()
    supports, tri_edges = supports_and_triangles(csr, lo=lo, hi=hi)
    return _pack_shard(supports, tri_edges, time.perf_counter() - start)


def _prepare_transport(
    csr: CSRGraph, transport: str
) -> Tuple[str, object, object]:
    """Resolve the CSR handoff: ``(mode, init_data, owned_segment_or_None)``.

    ``"auto"`` tries shared memory first and falls back to the pickled
    payload; explicit modes force their path (``"shm"`` raises
    BackendError when the host cannot map segments).
    """
    if transport in ("auto", "shm"):
        try:
            from .shm import SharedCSR

            shared = SharedCSR.publish(csr)
            return "shm", shared.descriptor, shared
        except (OSError, ImportError) as error:
            if transport == "shm":
                raise BackendError(
                    f"parallel backend: shared-memory transport requested "
                    f"but unavailable ({error}); use transport='auto' to "
                    f"fall back to pickling"
                ) from error
    return "pickle", _csr_payload(csr), None


def _run_pool(
    csr: CSRGraph,
    shards: List[Tuple[int, int]],
    workers: int,
    transport: str,
    info: Optional[ParallelInfo] = None,
) -> List[Tuple[bytes, bytes, float]]:
    """Fan the shards out over a fresh process pool; fail loud, never hang.

    The parent owns the shared segment (when the shm transport is active)
    and removes it in the ``finally`` — on success, on a broken pool, and
    on a crashed worker alike, so ``/dev/shm`` never accumulates segments.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool_size = min(workers, len(shards))
    mode, init_data, shared = _prepare_transport(csr, transport)
    if info is not None:
        info["transport"] = mode
        # What actually crosses the process boundary per worker: the tiny
        # attach descriptor under shm, the whole array payload under pickle.
        info["bytes_shipped"] = len(pickle.dumps(init_data))
    try:
        with ProcessPoolExecutor(
            max_workers=pool_size,
            initializer=_init_worker,
            initargs=(mode, init_data),
        ) as pool:
            return list(pool.map(_supports_shard, shards))
    except BrokenProcessPool as error:
        raise BackendError(
            f"parallel backend: a worker process died while enumerating "
            f"triangles ({pool_size} workers, {len(shards)} shards); the "
            f"graph is untouched — retry with backend='csr' or workers=1"
        ) from error
    except (OSError, ValueError) as error:
        raise BackendError(
            f"parallel backend: could not run the {pool_size}-worker "
            f"process pool ({error}); retry with backend='csr' or workers=1"
        ) from error
    finally:
        if shared is not None:
            shared.close()
            shared.unlink()


# ---------------------------------------------------------------------- #
# public backend entry points
# ---------------------------------------------------------------------- #


def parallel_count_triangles(
    graph: Graph, *, workers: Optional[int] = None, inprocess: bool = False
) -> int:
    """Total triangle count via the sharded enumeration."""
    csr = CSRGraph.from_graph(graph)
    supports, _ = parallel_supports_and_triangles(
        csr, workers=workers, inprocess=inprocess
    )
    return sum(supports) // 3


def parallel_decomposition(
    graph: Graph,
    *,
    workers: Optional[int] = None,
    inprocess: bool = False,
    counters: Optional[Dict[str, int]] = None,
    info: Optional[ParallelInfo] = None,
    executor: str = "scalar",
    peel_stats: Optional[Dict[str, object]] = None,
    transport: str = "auto",
) -> "TriangleKCoreResult":  # noqa: F821
    """Algorithm 1 with process-parallel triangle enumeration.

    Enumeration/support counting fans out over ``workers`` processes (see
    module docstring); the peel runs in the parent through the selected
    :mod:`~repro.fast.peelers` executor — ``"scalar"`` (default, the
    ``parallel`` backend: bit-identical to ``backend="csr"``, same kappa
    map and processing order, for every worker count) or ``"vector"``
    (the ``parallel-vec`` backend: bit-identical to ``csr-vec``).

    ``workers=None`` uses one worker per CPU; ``workers=1`` (or any graph
    too small to split) short-circuits to the in-process CSR kernels.
    ``counters`` mirrors the instrumentation hook of the other backends;
    ``info`` additionally receives ``workers``/``shards``/
    ``shard_seconds``/``transport``/``bytes_shipped``; ``peel_stats``
    receives the peel executor's telemetry.
    """
    from . import peel_to_result

    count = effective_workers(workers)
    if count <= 1 and not _SHARD_MERGE_BUG:
        if info is not None:
            info["workers"] = 1
            info["shards"] = 1
            info["shard_seconds"] = []
            info["transport"] = "inprocess"
            info["bytes_shipped"] = 0
        from . import csr_decomposition

        return csr_decomposition(
            graph, counters=counters, executor=executor, peel_stats=peel_stats
        )
    csr = CSRGraph.from_graph(graph)
    precomputed = parallel_supports_and_triangles(
        csr, workers=count, inprocess=inprocess, info=info, transport=transport
    )
    return peel_to_result(
        csr, precomputed, counters, executor=executor, peel_stats=peel_stats
    )


# ---------------------------------------------------------------------- #
# fault injection (mutation smoke-check)
# ---------------------------------------------------------------------- #


class inject_shard_merge_bug:
    """Context manager: make the shard merge lose its last triangle.

    While active, :func:`parallel_supports_and_triangles` silently drops
    the final triangle from the merged list (supports adjusted to stay
    consistent, so the peel's sanity check passes) — exactly the class of
    off-by-one a buggy shard-sum would produce.  The mutation smoke-check
    proves the differential harness detects and shrinks it; see
    ``tests/test_parallel_backend.py`` and docs/testing.md.
    """

    def __enter__(self) -> "inject_shard_merge_bug":
        global _SHARD_MERGE_BUG
        _SHARD_MERGE_BUG = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _SHARD_MERGE_BUG
        _SHARD_MERGE_BUG = False
