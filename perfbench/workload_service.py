"""``service_mixed``: reads beside writes through the query service on dblp.

An in-process ``BackgroundServer`` serves the dblp stand-in.  The load is
a closed loop from at most two client threads (never more than the CPU
count), each holding one keep-alive connection:

* the reader sends ``GET /kappa`` on real dblp edges, sampled uniformly
  from the seed;
* the writer sends one-op ``POST /edits`` batches that add edges closing
  wedges of real dblp structure (so kappa repairs touch real edges) and
  remove them again first-in first-out, keeping at most ``LIVE_EDGES``
  of its own edges in the graph.

One operation is one request of either kind.  The traced run adds the
server's own latency reservoirs (``GET /stats``) and times
``ServiceState.kappa`` / ``apply_edits`` on a standalone state replaying
the writer's acknowledged batches.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

from harness import Deadline, Tracer, client_metrics, kappa_mismatches, median, peak_rss_mb, percentile

SETUP_REPEATS = 5
#: Length of the seeded read sequence (the reader cycles through it).
READ_SEQUENCE = 1 << 16
#: Distinct wedge-closing non-edges the writer cycles through.
CANDIDATES = 512
#: Writer edges alive at once; must stay below CANDIDATES.
LIVE_EDGES = 64
#: Cap on the batches and reads the standalone-state replay times.
REPLAY_BATCHES = 2000
REPLAY_READS = 2000
#: Edges read back through the service after the load, for the check.
CHECK_READS = 500
#: Client threads: a reader and a writer, but never more than the CPUs.
CLIENT_THREADS = min(2, os.cpu_count() or 1)


def make_plan(graph, seed: int) -> Tuple[List[tuple], List[tuple]]:
    """``(reads, candidates)`` drawn from ``graph`` by ``seed``.

    ``reads`` are edges of ``graph``; ``candidates`` are distinct
    non-edges ``(u, v)`` with a common neighbour, so adding one closes at
    least one triangle.
    """
    from repro.graph.edge import canonical_edge

    rng = random.Random(f"perfbench:service:{seed}")
    edges = sorted(graph.edges())
    reads = [edges[rng.randrange(len(edges))] for _ in range(READ_SEQUENCE)]
    hubs = sorted(v for v in graph.vertices() if graph.degree(v) >= 2)
    candidates: List[tuple] = []
    seen = set()
    for _ in range(100 * CANDIDATES):
        if len(candidates) == CANDIDATES:
            return reads, candidates
        u, v = rng.sample(sorted(graph.neighbors(rng.choice(hubs))), 2)
        edge = canonical_edge(u, v)
        if edge not in seen and not graph.has_edge(u, v):
            seen.add(edge)
            candidates.append(edge)
    raise ValueError(f"graph has too few open wedges for {CANDIDATES} candidates")


def writer_ops(candidates: List[tuple], live: int) -> Iterator[tuple]:
    """Endless valid op stream: add candidates in turn, dropping the oldest.

    Once ``live`` edges are alive, each add is preceded by the removal of
    the edge added ``live`` adds earlier, so the writer's edges alive
    never exceed ``live`` and a candidate is re-added only after its
    removal.
    """
    if live >= len(candidates):
        raise ValueError("need more candidates than live edges")
    k = 0
    while True:
        if k >= live:
            yield ("remove",) + candidates[(k - live) % len(candidates)]
        yield ("add",) + candidates[k % len(candidates)]
        k += 1


class Reader:
    name = "read"

    def __init__(self, reads: List[tuple]) -> None:
        self.reads = reads
        self.sent = 0
        self.latencies: List[float] = []
        self.failures: List[str] = []

    def step(self, client, tracer: Optional[Tracer]) -> None:
        from repro.service import ServiceClientError

        u, v = self.reads[self.sent % len(self.reads)]
        self.sent += 1
        start = time.perf_counter()
        try:
            with tracer.span("service.read") if tracer else nullcontext():
                answer = client.kappa(u, v)
        except ServiceClientError as error:
            self.failures.append(f"read {u!r}-{v!r}: {error}")
            return
        self.latencies.append(time.perf_counter() - start)
        if {answer.u, answer.v} != {u, v} or not answer.kappa >= 0:
            self.failures.append(f"read {u!r}-{v!r} answered {answer}")


class Writer:
    name = "write"

    def __init__(self, candidates: List[tuple]) -> None:
        self.ops = writer_ops(candidates, LIVE_EDGES)
        self.sent = 0
        #: Ops the server acknowledged as applied, in order.
        self.acked: List[tuple] = []
        self.rejected = 0
        self.latencies: List[float] = []
        self.failures: List[str] = []

    def step(self, client, tracer: Optional[Tracer]) -> None:
        from repro.service import ServiceClientError

        op = next(self.ops)
        self.sent += 1
        start = time.perf_counter()
        try:
            with tracer.span("service.write") if tracer else nullcontext():
                outcome = client.edits([list(op)])
        except ServiceClientError as error:
            self.failures.append(f"write {op!r}: {error}")
            return
        self.latencies.append(time.perf_counter() - start)
        self.rejected += sum(outcome.rejected.values())
        if outcome.applied != 1 or outcome.rejected:
            self.failures.append(f"write {op!r}: applied {outcome.applied}, rejected {outcome.rejected}")
        else:
            self.acked.append(op)


def _drive(port: int, roles, deadline: Deadline, stop: threading.Event, tracer, errors: list) -> None:
    """One client thread: cycle through ``roles`` until the deadline."""
    from repro.service import ServiceClient

    try:
        with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
            while not deadline.passed() and not stop.is_set():
                for role in roles:
                    role.step(client, tracer)
    except Exception as error:  # reported by the main thread as a failure
        errors.append(f"client thread failed: {error!r}")


def _phase(port: int, roles, seconds: float, tracer: Optional[Tracer]) -> dict:
    """One closed-loop phase; returns per-role latencies and the wall time."""
    for role in roles:
        role.latencies = []
    stop = threading.Event()
    errors: List[str] = []
    deadline = Deadline(seconds)
    threads = [
        threading.Thread(
            target=_drive,
            args=(port, roles[i::CLIENT_THREADS], deadline, stop, tracer, errors),
            name=f"perfbench-client-{i}",
        )
        for i in range(CLIENT_THREADS)
    ]
    start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        # Interrupted (or a start failed): stop the clients before leaving.
        stop.set()
        for thread in threads:
            if thread.ident is not None:
                thread.join(timeout=60)
    return {
        "seconds": time.perf_counter() - start,
        "latencies": {role.name: list(role.latencies) for role in roles},
        "errors": errors,
    }


def _replay(graph, writer: Writer, reads: List[tuple], tracer: Tracer) -> int:
    """Time ``ServiceState`` calls on a standalone state; kappa changes."""
    from repro.service import ServiceState
    from repro.testing.editscript import EditOp, EditScript

    state = ServiceState(graph)
    changed = 0
    for op in writer.acked[:REPLAY_BATCHES]:
        script = EditScript([EditOp.from_json_obj(list(op))])
        with tracer.span("state.apply_edits"):
            outcome = state.apply_edits(script)
        changed += outcome["delta"]["promoted"] + outcome["delta"]["demoted"]
    for u, v in reads[:REPLAY_READS]:
        with tracer.span("state.kappa"):
            state.kappa(u, v)
    return changed


def _check(graph, writer: Writer, state, served: Dict[tuple, int]) -> List[str]:
    """Final structure = dblp + the writer's live edges; kappa = reference.

    ``served`` holds kappa values read through the service after the load
    stopped; they are checked too, so a wrong read path fails the run.
    """
    from repro.core.triangle_kcore import triangle_kcore_decomposition
    from repro.graph.edge import canonical_edge

    expected = set(graph.edges())
    for kind, u, v in writer.acked:
        edge = canonical_edge(u, v)
        if kind == "add":
            expected.add(edge)
        else:
            expected.discard(edge)
    problems = []
    if set(state.graph.edges()) != expected:
        problems.append("served graph differs from dblp plus the acknowledged edits")
    reference = triangle_kcore_decomposition(state.graph, backend="reference").kappa
    problems += kappa_mismatches(dict(state.maintainer.kappa), reference)
    problems += [f"GET /kappa: {p}" for p in kappa_mismatches(served, {e: reference[e] for e in served})]
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool, tracer: Tracer) -> dict:
    """One run of ``service_mixed``; returns the workload's report."""
    from repro.datasets import load
    from repro.service import BackgroundServer, ServiceClient

    setups = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            graph = load("dblp").graph
            # No rate limit, no load shedding: the run measures capacity.
            server = BackgroundServer(graph, request_timeout=None, idle_timeout=300.0)
            server.start()
            setups.append(time.perf_counter() - start)

        reads, candidates = make_plan(graph, seed)
        reader, writer = Reader(reads), Writer(candidates)
        roles = [reader, writer]
        untraced = _phase(server.port, roles, seconds, None)
        traced = _phase(server.port, roles, seconds / 2, tracer) if trace else None
        rss = peak_rss_mb()
        with ServiceClient("127.0.0.1", server.port) as client:
            if trace:
                stats = client.stats()["service"]
            served = {(u, v): client.kappa(u, v).kappa for u, v in reads[:CHECK_READS]}
    finally:
        if server is not None:
            server.stop()

    failures = reader.failures + writer.failures + untraced["errors"]
    if traced is not None:
        failures += traced["errors"]
    problems = _check(graph, writer, server.state, served)

    read_ms = [1000 * s for s in untraced["latencies"]["read"]]
    write_ms = [1000 * s for s in untraced["latencies"]["write"]]
    metrics = {"op_ms_p50": median(read_ms + write_ms), "setup_s": median(setups), "peak_rss_mb": rss}
    if trace:
        metrics.update(client_metrics(read_ms + write_ms, untraced["seconds"]))
        changed = _replay(graph, writer, reads, tracer)
        requests = stats["requests"]
        traced_reads = tracer.durations("service.read")
        traced_writes = tracer.durations("service.write")
        metrics.update({
            "service.read_ms_p50": median(read_ms),
            "service.read_ms_p99": percentile(read_ms, 0.99),
            "service.write_ms_p50": median(write_ms),
            "service.write_ms_p99": percentile(write_ms, 0.99),
            "service.kappa_server_ms_p50": requests["kappa"]["p50_ms"],
            "service.edits_server_ms_p50": requests["edits"]["p50_ms"],
            "service.transport_ms_p50": 1000 * median(traced_reads) - requests["kappa"]["p50_ms"],
            "service.edits_transport_ms_p50": 1000 * median(traced_writes) - requests["edits"]["p50_ms"],
            "service.queue_peak": stats["queue"]["peak"],
            "service.applied_ops": stats["edits"]["applied_ops"],
            "service.rejected": writer.rejected,
            "state.kappa_us_p50": 1e6 * median(tracer.durations("state.kappa")),
            "state.apply_edits_ms_p50": 1000 * median(tracer.durations("state.apply_edits")),
            "state.kappa_changed": changed,
            "trace.gap_ms": 1000 * median(traced_reads + traced_writes) - metrics["op_ms_p50"],
        })
    return {
        "attempted": reader.sent + writer.sent,
        "failed": len(failures) + (1 if problems else 0),
        "problems": failures + problems,
        "metrics": metrics,
        "info": {
            "client_threads": CLIENT_THREADS,
            "reads": len(read_ms),
            "writes": len(write_ms),
            "edges": graph.num_edges,
        },
    }
