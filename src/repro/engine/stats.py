"""Engine instrumentation: per-stage wall time, work counters, cache stats.

One :class:`EngineStats` instance rides along with each
:class:`~repro.engine.engine.Engine`.  All layers that route through the
engine — decompositions, the dynamic snapshot strategy, cache lookups —
report into it, so a single ``engine.stats_dict()`` (or the CLI's
``--stats`` flag) tells the whole story of a run: where the time went,
how much algorithmic work was done, and how often the artifact cache
saved a recompute.

The structured schema (``as_dict``)::

    {
      "schema": "repro.engine.stats/7",
      "counters":      {"decompositions": ..., "cache_hits": ...,
                        "triangles_enumerated": ..., "edges_peeled": ...,
                        "bucket_decrements": ..., "dynamic_updates": ...},
      "backend_calls": {"reference": ..., "csr": ..., "csr-vec": ...,
                        "external": ..., "dynamic": ...},
      "stage_seconds": {"decompose.reference": ..., "dynamic.diff": ...},
      "peel":          {"executor": ..., "runs": ..., "levels": ...,
                        "batched_decrements": ..., "bound_skips": ...},
      "external":      {"decompositions": ..., "partitions": ...,
                        "passes": ..., "bytes_mapped": ...,
                        "bound_prune_hits": ...},
      "batch":         {"applies": ..., "region_edges": ...,
                        "settle_iterations": ..., "bound_prune_hits": ...},
      "workspace":     {"commands": ..., "graphs": ..., "views": ...,
                        "views_created": ..., "view_refreshes": ...,
                        "view_invalidations": ..., "materializations": ...},
    }

Schema history: ``/1`` lacked the ``"parallel"`` section, ``/2`` lacked
the ``"batch"`` section, ``/3`` lacked the ``"peel"`` section and the
``"transport"``/``"bytes_shipped"`` keys of ``"parallel"``, ``/4``
lacked the ``"external"`` section, ``/5`` lacked the ``"workspace"``
section; every key of each of those schemas is present unchanged in
the next.  ``/7`` equals ``/6`` minus the ``"parallel"`` section, removed
together with the process-parallel backends it described; every other
``/6`` key is unchanged (the compatibility test pins this).

Stage names nest with dots.  ``decompose.csr`` and ``decompose.csr-vec``
contain one sub-stage per kernel layer — ``.build`` (Graph → CSR),
``.enumerate`` (triangle listing) and ``.peel`` (Algorithm 1) — whose
sum never exceeds the parent.  Decoding the result to labelled edges is
not a stage: kernel results decode lazily, on the first
``.kappa``/``.processing_order`` access, outside the engine.

Counter values are exact, not sampled: the static counters are derived
from state Algorithm 1 computes anyway (see the ``counters`` hook on
:func:`repro.core.triangle_kcore.triangle_kcore_decomposition`), and the
dynamic counters aggregate the maintainer's own
:class:`~repro.core.dynamic.UpdateStats`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping

#: Version tag for the structured stats payload; bump on schema changes.
STATS_SCHEMA = "repro.engine.stats/7"


class EngineStats:
    """Mutable instrumentation accumulator for one engine."""

    __slots__ = ("counters", "backend_calls", "stage_seconds", "peel",
                 "external", "batch", "workspace")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.backend_calls: Dict[str, int] = {}
        self.stage_seconds: Dict[str, float] = {}
        #: Aggregate view of every kernel-backend peel: executor name of
        #: the most recent run, cumulative run count, and cumulative
        #: levels / batched decrements / bound skips (see PeelStats in
        #: repro.fast.peelers).
        self.peel: Dict[str, object] = {}
        #: Aggregate view of every "external"-backend decomposition:
        #: partition count of the most recent run plus cumulative
        #: partition-scan passes, bytes mapped, and admission-bound prune
        #: hits (see ExternalInfo in repro.fast.external).
        self.external: Dict[str, int] = {}
        #: Aggregate view of every batch-strategy dynamic update: apply
        #: count plus cumulative affected-region size, settle worklist
        #: iterations and bound-prune hits (see UpdateStats in
        #: repro.core.dynamic).
        self.batch: Dict[str, int] = {}
        #: Aggregate view of the interactive workspace riding on this
        #: engine: cumulative command / view-lifecycle counters plus
        #: current graph and view gauges (see repro.workspace).
        self.workspace: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def record_backend(self, name: str) -> None:
        """Count one dispatch into backend ``name``."""
        self.backend_calls[name] = self.backend_calls.get(name, 0) + 1

    def add_seconds(self, stage: str, seconds: float) -> None:
        """Accumulate wall time under ``stage``."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one stage (accumulates across calls)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, time.perf_counter() - start)

    def merge_counters(self, counters: Dict[str, int]) -> None:
        """Fold a decomposition's ``counters`` hook output into the totals."""
        for name, value in counters.items():
            self.bump(name, value)

    def record_peel(self, peel_stats: Dict[str, object]) -> None:
        """Fold one peel executor run (PeelStats) into the ``peel`` section.

        ``executor`` reflects the most recent run; ``runs``/``levels``/
        ``batched_decrements``/``bound_skips`` accumulate.
        """
        if not peel_stats:
            return
        self.peel["executor"] = str(peel_stats.get("executor", "scalar"))
        self.peel["runs"] = int(self.peel.get("runs", 0)) + 1
        for key in ("levels", "batched_decrements", "bound_skips"):
            self.peel[key] = int(self.peel.get(key, 0)) + int(
                peel_stats.get(key, 0)
            )

    def record_external(self, info: Mapping[str, int]) -> None:
        """Record one ``"external"``-backend decomposition.

        ``info`` is the run's ``ExternalInfo`` (see
        :mod:`repro.fast.external`).  ``partitions`` reflects the most
        recent run (it overwrites); ``decompositions``/``passes``/
        ``bytes_mapped``/``bound_prune_hits`` accumulate.
        """
        external = self.external
        external["decompositions"] = external.get("decompositions", 0) + 1
        external["partitions"] = int(info["partitions"])
        for key in ("passes", "bytes_mapped", "bound_prune_hits"):
            external[key] = external.get(key, 0) + int(info[key])

    def record_batch(
        self,
        region_edges: int,
        settle_iterations: int,
        bound_prune_hits: int,
    ) -> None:
        """Record one ``strategy="batch"`` dynamic update (all cumulative)."""
        self.batch["applies"] = self.batch.get("applies", 0) + 1
        self.batch["region_edges"] = (
            self.batch.get("region_edges", 0) + int(region_edges)
        )
        self.batch["settle_iterations"] = (
            self.batch.get("settle_iterations", 0) + int(settle_iterations)
        )
        self.batch["bound_prune_hits"] = (
            self.batch.get("bound_prune_hits", 0) + int(bound_prune_hits)
        )

    def record_workspace(
        self,
        *,
        graphs: int,
        views: int,
        commands: int = 0,
        views_created: int = 0,
        view_refreshes: int = 0,
        view_invalidations: int = 0,
        materializations: int = 0,
    ) -> None:
        """Record workspace activity.

        ``graphs``/``views`` are gauges (they overwrite with the current
        population); everything else accumulates.
        """
        self.workspace["graphs"] = int(graphs)
        self.workspace["views"] = int(views)
        for key, amount in (
            ("commands", commands),
            ("views_created", views_created),
            ("view_refreshes", view_refreshes),
            ("view_invalidations", view_invalidations),
            ("materializations", materializations),
        ):
            self.workspace[key] = self.workspace.get(key, 0) + int(amount)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    @property
    def cache_hits(self) -> int:
        return self.counters.get("cache_hits", 0)

    @property
    def cache_misses(self) -> int:
        return self.counters.get("cache_misses", 0)

    def as_dict(self) -> Dict[str, object]:
        """The structured instrumentation payload (JSON-serializable)."""
        return {
            "schema": STATS_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "backend_calls": dict(sorted(self.backend_calls.items())),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
            "peel": dict(self.peel),
            "external": dict(sorted(self.external.items())),
            "batch": dict(sorted(self.batch.items())),
            "workspace": dict(sorted(self.workspace.items())),
        }

    def reset(self) -> None:
        """Zero every counter and timer."""
        self.counters.clear()
        self.backend_calls.clear()
        self.stage_seconds.clear()
        self.peel.clear()
        self.external.clear()
        self.batch.clear()
        self.workspace.clear()

    def __repr__(self) -> str:
        return (
            f"EngineStats(decompositions="
            f"{self.counters.get('decompositions', 0)}, "
            f"hits={self.cache_hits}, misses={self.cache_misses})"
        )
