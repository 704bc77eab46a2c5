"""Measurement plumbing shared by the perfbench workloads.

Nothing here imports :mod:`repro`: percentiles, the span tracer, the
host fingerprint, peak-RSS and process-hygiene probes, and the kappa
comparison used by every correctness check.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import platform
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


#: A tail percentile is reported only when at least this many samples lie
#: beyond it, so one stray sample cannot set it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q < 1``) of ``values``.

    Uses the same rank rule as the service's latency reservoirs
    (``sorted[int(q * n)]``) and raises :class:`InsufficientSamples`
    unless at least :data:`MIN_BEYOND` samples lie beyond the returned one
    on its tail side (above it for ``q >= 0.5``, below it otherwise).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    beyond = len(ordered) - 1 - index if q >= 0.5 else index
    if not ordered or beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(ordered)} samples has {max(beyond, 0)} "
            f"beyond it; need {MIN_BEYOND}"
        )
    return ordered[index]


def median(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("median of no samples")
    return statistics.median(values)


def client_metrics(op_ms: Sequence[float], seconds: float) -> Dict[str, float]:
    """Tail latency (ms) and throughput of one run's closed loop."""
    return {
        "client.op_ms_p75": percentile(op_ms, 0.75),
        "client.ops_per_s": len(op_ms) / seconds,
    }


class Tracer:
    """In-memory spans: ``(id, parent, name, start, end)`` in seconds.

    Spans nest per thread; the innermost open span on the calling thread
    is the parent of the next one.  Nothing is written until
    :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every closed span called ``name``."""
        return [end - start for _, _, span_name, start, end in self.spans if span_name == name]

    def dump(self) -> List[Dict[str, object]]:
        return [
            {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
            for span_id, parent, name, start, end in self.spans
        ]


def git_sha(root: Path) -> str:
    """HEAD commit of the checkout at ``root``, or ``"unknown"``.

    Reads ``.git`` directly so no ``git`` process is started.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    """Host facts that change what ``backend="auto"`` resolves to."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
    }


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MiB (``VmHWM``)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _os_children() -> List[int]:
    """Pids whose parent is this process, from ``/proc`` (Linux only)."""
    me = os.getpid()
    children = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return children
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def reap_and_report() -> List[str]:
    """Stop every helper process and report what should not have been alive.

    Child processes still registered with :mod:`multiprocessing` and
    non-daemon threads other than the caller's are leaks: they are
    reported, then the processes are terminated and joined.  The
    shared-memory resource tracker is started on demand and is expected,
    so it is stopped without being reported.  Any child process left
    after that is reported too.
    """
    problems = []
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon and thread.is_alive():
            problems.append(f"non-daemon thread {thread.name!r} still alive")
    for child in multiprocessing.active_children():
        problems.append(f"child process {child.pid} ({child.name}) still alive")
        child.terminate()
        child.join(timeout=10)
    try:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    except (ImportError, OSError, ChildProcessError):
        pass
    for pid in _os_children():
        problems.append(f"child process {pid} still alive")
    return problems


def kappa_mismatches(
    got: Dict[tuple, int], expected: Dict[tuple, int], *, limit: int = 5
) -> List[str]:
    """Describe how ``got`` differs from ``expected`` (empty when equal).

    Compares the histogram and every edge's kappa; at most ``limit``
    per-edge differences are listed.
    """
    if got == expected:
        return []
    problems = []
    got_hist = dict(sorted(_histogram(got).items()))
    expected_hist = dict(sorted(_histogram(expected).items()))
    if got_hist != expected_hist:
        problems.append(f"histogram {got_hist} != reference {expected_hist}")
    for edge in itertools.islice(
        (e for e in set(got) | set(expected) if got.get(e) != expected.get(e)), limit
    ):
        problems.append(f"edge {edge}: kappa {got.get(edge)} != reference {expected.get(edge)}")
    return problems


def _histogram(kappa: Dict[tuple, int]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for value in kappa.values():
        counts[value] = counts.get(value, 0) + 1
    return counts


#: Set when the run is interrupted; every measuring loop ends on it.
STOP = threading.Event()


class Deadline:
    """A monotonic deadline ``seconds`` from construction, or :data:`STOP`."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def passed(self) -> bool:
        return STOP.is_set() or time.perf_counter() >= self.end
