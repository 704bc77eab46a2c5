"""Static decomposition workloads: ``decompose_sparse`` and ``decompose_dense``.

One operation is what ``triangle-kcore decompose`` does: a cold
``Engine().decompose(graph, use_cache=False)`` at the default backend,
then ``max_kappa`` and ``histogram()``.

The traced run re-composes the same operation from the public layer
functions, in the composition ``resolve_backend("auto", graph)`` picks,
and times each call:

========================  ==========================================
span                      call
========================  ==========================================
``fast.build``            ``CSRGraph.from_graph``
``fast.enumerate``        ``supports_and_triangles`` or
                          ``parallel_supports_and_triangles``
``fast.peel``             ``peel(..., executor=backend_executor(name))``
``fast.decode``           ``edge_labels()`` plus the id -> label maps
``core.histogram``        ``TriangleKCoreResult.max_kappa`` and
                          ``histogram()``
========================  ==========================================

``engine.overhead_ms`` is the untraced median minus the sum of the layer
medians: engine dispatch and the engine's own bookkeeping.  Its untraced
operations run interleaved with the traced ones, one after each, so host
drift between the two loops does not land in it.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, List, Tuple

from harness import Deadline, Tracer, client_metrics, kappa_mismatches, median, peak_rss_mb

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def sparse_graph(seed: int):
    """The livejournal stand-in (98,304 edges, ~0.09 triangles per edge).

    The structure is the dataset's own; ``seed`` relabels the vertices and
    shuffles insertion order, so every seed decomposes the same shape.
    """
    from repro.datasets import load
    from repro.graph.undirected import Graph

    base = load("livejournal").graph
    rng = random.Random(f"perfbench:sparse:{seed}")
    vertices = sorted(base.vertices())
    labels = list(range(len(vertices)))
    rng.shuffle(labels)
    mapping = dict(zip(vertices, labels))
    edges = [(mapping[u], mapping[v]) for u, v in base.edges()]
    rng.shuffle(edges)
    order = list(mapping.values())
    rng.shuffle(order)
    graph = Graph(vertices=order)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def dense_graph(seed: int):
    """Seeded Holme-Kim graph: ~64k edges, ~1 triangle per edge, max kappa 7."""
    from repro.graph.generators import powerlaw_cluster

    return powerlaw_cluster(8000, 8, 0.9, seed=seed)


GRAPHS: Dict[str, Callable[[int], object]] = {
    "decompose_sparse": sparse_graph,
    "decompose_dense": dense_graph,
}


def _decompose(graph):
    """One measured operation: ``(result, histogram, seconds)``."""
    from repro.engine import Engine

    # Each operation starts from the same collected heap, as a fresh CLI
    # process would; the collection itself is not timed.
    gc.collect()
    start = time.perf_counter()
    result = Engine().decompose(graph, use_cache=False)
    result.max_kappa
    histogram = result.histogram()
    return result, histogram, time.perf_counter() - start


def _untraced_loop(graph, seconds: float):
    """Closed loop of cold decompositions; returns samples and results."""
    samples: List[float] = []
    histograms: List[dict] = []
    failures: List[str] = []
    last = None
    deadline = Deadline(seconds)
    while not deadline.passed():
        last = None
        try:
            last, histogram, elapsed = _decompose(graph)
        except Exception as error:  # counted, and the loop keeps going
            failures.append(f"decompose raised {error!r}")
            continue
        samples.append(elapsed)
        histograms.append(histogram)
    return samples, histograms, failures, last


def _layer_functions(backend: str):
    """``(enumerate, executor)`` for a resolved kernel composition."""
    from repro.fast import backend_executor, parallel_supports_and_triangles, supports_and_triangles

    if backend in ("parallel", "parallel-vec"):
        enumerate_fn = parallel_supports_and_triangles
    elif backend in ("csr", "csr-vec"):
        enumerate_fn = supports_and_triangles
    else:
        raise ValueError(f"auto resolved to {backend!r}, which has no CSR layers to trace")
    return enumerate_fn, backend_executor(backend)


def _traced_loop(graph, backend: str, seconds: float, tracer: Tracer):
    """The same operation through the layer functions, one span per call.

    Each traced operation is paired with an untraced one right after it,
    so the two are compared under the same host conditions; the untraced
    times are returned as ``paired``.
    """
    from repro.core.triangle_kcore import TriangleKCoreResult
    from repro.fast import CSRGraph, peel

    enumerate_fn, executor = _layer_functions(backend)
    counts: Dict[str, int] = {}
    failures: List[str] = []
    paired: List[float] = []
    last = None
    deadline = Deadline(seconds)
    while not deadline.passed():
        last = None
        gc.collect()
        peel_stats: Dict[str, object] = {}
        try:
            with tracer.span("op"):
                with tracer.span("fast.build"):
                    csr = CSRGraph.from_graph(graph)
                with tracer.span("fast.enumerate"):
                    precomputed = enumerate_fn(csr)
                with tracer.span("fast.peel"):
                    kappa_by_eid, order_by_eid = peel(
                        csr, precomputed, executor=executor, stats=peel_stats
                    )
                with tracer.span("fast.decode"):
                    edges = csr.edge_labels()
                    kappa = dict(zip(edges, kappa_by_eid))
                    order = list(map(edges.__getitem__, order_by_eid))
                with tracer.span("core.histogram"):
                    last = TriangleKCoreResult(kappa=kappa, processing_order=order)
                    last.max_kappa
                    last.histogram()
            paired.append(_decompose(graph)[2])
        except Exception as error:
            failures.append(f"traced decompose raised {error!r}")
            continue
        counts = {
            "fast.edges": csr.num_edges,
            "fast.triangles": len(precomputed[1]) // 3,
            "fast.payload_bytes": csr.payload_nbytes(),
            "fast.peel_levels": int(peel_stats.get("levels", 0)),
            "fast.peel_batched_decrements": int(peel_stats.get("batched_decrements", 0)),
            "fast.peel_bound_skips": int(peel_stats.get("bound_skips", 0)),
        }
    return counts, paired, failures, last


def _reference_kappa(graph) -> Dict[tuple, int]:
    from repro.engine import Engine

    return Engine().decompose(graph, backend="reference", use_cache=False).kappa


def _check(reference, last, histograms) -> Tuple[List[str], int]:
    """Check every histogram and the last result's kappa against reference.

    Returns ``(problems, operations found wrong)``.
    """
    if last is None:
        return ["no decomposition completed"], 1
    expected: Dict[int, int] = {}
    for value in reference.values():
        expected[value] = expected.get(value, 0) + 1
    wrong = sum(1 for histogram in histograms if histogram != expected)
    problems = kappa_mismatches(last.kappa, reference)
    if wrong:
        problems.append(f"{wrong} of {len(histograms)} histograms differ from reference")
    elif problems:
        wrong = 1
    return problems, wrong


def run(workload: str, seed: int, seconds: float, trace: bool, tracer: Tracer) -> dict:
    """One run of a static workload; returns the workload's report."""
    from repro.engine import Engine

    make = GRAPHS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        graph = make(seed)
        setups.append(time.perf_counter() - start)
    backend = Engine().resolve(None, graph)
    info = {"backend": backend, "edges": graph.num_edges, "vertices": graph.num_vertices}

    samples, histograms, failures, last = _untraced_loop(graph, seconds)
    op_ms = [1000 * s for s in samples]
    metrics = {"op_ms_p50": median(op_ms), "setup_s": median(setups), "peak_rss_mb": peak_rss_mb()}
    attempted = len(samples) + len(failures)
    if trace:
        # Busy time: the untimed collections between operations are ours.
        metrics.update(client_metrics(op_ms, sum(samples)))
        counts, paired, traced_failures, traced_last = _traced_loop(graph, backend, seconds / 2, tracer)
        failures += traced_failures
        attempted += len(tracer.durations("op")) + len(paired) + len(traced_failures)
        layers = ["fast.build", "fast.enumerate", "fast.peel", "fast.decode", "core.histogram"]
        layer_ms = {name: 1000 * median(tracer.durations(name)) for name in layers}
        paired_ms = 1000 * median(paired)
        metrics.update({f"{name}_ms": value for name, value in layer_ms.items()})
        metrics["engine.overhead_ms"] = paired_ms - sum(layer_ms.values())
        metrics["trace.gap_ms"] = 1000 * median(tracer.durations("op")) - paired_ms
        metrics.update(counts)

    reference = _reference_kappa(graph)
    problems, wrong = _check(reference, last, histograms)
    if trace:
        traced_problems, traced_wrong = _check(reference, traced_last, [])
        problems += [f"traced: {p}" for p in traced_problems]
        wrong += traced_wrong
    info["samples"] = len(samples)
    info["traced_samples"] = len(tracer.durations("op"))
    return {
        "attempted": attempted,
        "failed": len(failures) + wrong,
        "problems": failures + problems,
        "metrics": metrics,
        "info": info,
    }
