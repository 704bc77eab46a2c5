"""The unified decomposition engine: one dispatched, cached, instrumented path.

Every consumer of :math:`\\kappa(e)` — template detection, Dual View
Plots, timelines, robustness sweeps, community/local/hierarchy queries,
baselines, the CLI — routes through an :class:`Engine` instead of calling
:func:`~repro.core.triangle_kcore.triangle_kcore_decomposition` directly.
The engine owns three concerns those layers previously re-implemented (or
simply lacked):

**Backend dispatch.**  ``"reference"``, ``"csr"``, ``"csr-vec"`` and
``"external"`` (out-of-core spill — see :mod:`repro.fast.external`) are
the rows of the one backend table, :data:`repro.fast.BACKEND_OPS`, which
also holds the ``"auto"`` policy (see DESIGN.md "Kernel layering").  The
engine adds only the ``"dynamic"`` strategy: the first decomposition
warms a :class:`~repro.core.dynamic.DynamicTriangleKCore`, and every
subsequent call answers by diffing the requested graph against the
maintainer's state and applying the delta incrementally (Algorithm 2) —
the shape snapshot streams and what-if analyses want.

**Artifact cache.**  Decomposition results, triangle supports, triangle
lists and counts are memoized per graph *structural state*, keyed by
``(id(graph), graph.version)`` — the monotonically-increasing mutation
counter on :class:`~repro.graph.undirected.Graph`.  A mutation bumps the
version, so a stale artifact can never be served; an unmutated graph's
repeat decomposition is a dictionary lookup.  Object identity is guarded
with a weak reference, so a recycled ``id()`` after garbage collection
cannot alias a dead graph's artifacts.

**Instrumentation.**  Per-stage wall time, triangle/peel/bucket-op
counters and cache hit/miss statistics accumulate in
:class:`~repro.engine.stats.EngineStats`; ``stats_dict()`` returns the
structured payload the CLI's ``--stats`` flag emits.

A module-level default engine (:func:`get_default_engine`) serves callers
that do not thread an explicit engine handle; every consumer API accepts
``engine=`` to override it.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..exceptions import ReproError
from ..graph.edge import Edge, Triangle, Vertex
from ..graph.undirected import Graph
from ..core.dynamic import DynamicTriangleKCore, KappaDelta
from ..core.triangle_kcore import TriangleKCoreResult
from .stats import EngineStats

class _GraphEntry:
    """Cached artifacts for one structural state of one live graph."""

    __slots__ = ("ref", "version", "artifacts")

    def __init__(self, graph: Graph) -> None:
        self.ref = weakref.ref(graph)
        self.version = graph.version
        self.artifacts: Dict[tuple, object] = {}


#: Backend names the engine accepts (order: CLI display): ``"auto"``, the
#: rows of :data:`repro.fast.BACKEND_OPS`, and the engine-only
#: ``"dynamic"``.  Spelled out rather than derived so that importing the
#: engine does not import :mod:`repro.fast` (and numpy) before a kernel
#: runs; tests/test_backend_conformance.py pins it to the table.
BACKENDS = ("auto", "reference", "csr", "csr-vec", "external", "dynamic")


class Engine:
    """Backend dispatch + version-keyed artifact cache + instrumentation.

    Parameters
    ----------
    default_backend:
        Backend used when a call does not name one: any name in
        :data:`BACKENDS`.
    max_cached_graphs:
        How many distinct graphs keep artifacts simultaneously (LRU
        eviction).  ``0`` disables the cache entirely — every call
        recomputes, which the differential-testing oracles use to stay
        independent of each other.
    dynamic_strategy:
        Update strategy the ``"dynamic"`` backend hands to
        :meth:`~repro.core.dynamic.DynamicTriangleKCore.apply`:
        ``"incremental"``, ``"batch"`` (one affected-region pass for the
        whole edit batch), ``"recompute"``, or ``"auto"`` (default —
        incremental below the measured churn crossover, one recompute
        above it).
    spill_dir:
        Spill directory for the ``"external"`` backend.  ``None``
        (default) uses a private temporary directory per decomposition,
        removed afterwards; naming one keeps the spilled columns around
        between calls (and across processes).
    memory_budget:
        Resident-memory budget in bytes for the ``"external"`` backend's
        partition sizing, and the input to ``"auto"``'s out-of-core
        escalation: when the estimated CSR payload of a graph exceeds the
        budget, ``"auto"`` resolves to ``"external"``.  ``None``
        (default) disables budget-based escalation.

    Examples
    --------
    >>> from repro.graph.undirected import complete_graph
    >>> engine = Engine()
    >>> g = complete_graph(5)
    >>> engine.decompose(g).max_kappa
    3
    >>> engine.decompose(g) is engine.decompose(g)   # cached: same object
    True
    >>> _ = g.add_edge(0, 99), g.add_edge(1, 99)     # mutation invalidates
    >>> engine.decompose(g).kappa_of(0, 99)
    1
    """

    def __init__(
        self,
        *,
        default_backend: str = "auto",
        max_cached_graphs: int = 8,
        dynamic_strategy: str = "auto",
        spill_dir: Optional[str] = None,
        memory_budget: Optional[int] = None,
    ) -> None:
        if max_cached_graphs < 0:
            raise ValueError(
                f"max_cached_graphs must be >= 0, got {max_cached_graphs}"
            )
        if dynamic_strategy not in DynamicTriangleKCore.STRATEGIES:
            raise ValueError(
                "dynamic_strategy must be incremental/recompute/auto/batch, "
                f"got {dynamic_strategy!r}"
            )
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte, got {memory_budget}"
            )
        self._stats_sections: Dict[str, Callable[[], Dict[str, object]]] = {}
        self._cache: "OrderedDict[int, _GraphEntry]" = OrderedDict()
        self._max_cached_graphs = max_cached_graphs
        self.dynamic_strategy = dynamic_strategy
        self.spill_dir = spill_dir
        self.memory_budget = memory_budget
        self.stats = EngineStats()
        #: Warm maintainer behind the "dynamic" backend (one per engine).
        self._dynamic: Optional[DynamicTriangleKCore] = None
        #: (graph weakref, version, maintainer) behind :meth:`perturbed`.
        self._perturb_base: Optional[
            Tuple["weakref.ref[Graph]", int, DynamicTriangleKCore]
        ] = None
        self.default_backend = default_backend  # validated by the property

    # ------------------------------------------------------------------ #
    # backend dispatch
    # ------------------------------------------------------------------ #

    @property
    def default_backend(self) -> str:
        return self._default_backend

    @default_backend.setter
    def default_backend(self, name: str) -> None:
        if name not in BACKENDS:
            raise ValueError(
                f"unknown backend {name!r}; expected one of {BACKENDS}"
            )
        self._default_backend = name

    def backends(self) -> Tuple[str, ...]:
        """Every dispatchable name (:data:`BACKENDS`)."""
        return BACKENDS

    def resolve(
        self, backend: Optional[str], graph: Graph, *, store_membership: bool = False
    ) -> str:
        """Resolve a requested backend name to a concrete backend.

        ``None`` means the engine default; ``"auto"`` picks an
        in-process backend (or ``"external"`` over the memory budget) by
        the :mod:`repro.fast` size policy, and degrades to reference when
        membership bookkeeping is requested.
        """
        from ..fast import ENGINE_ONLY_BACKENDS, check_membership, resolve_backend

        name = self.default_backend if backend is None else backend
        if name in ENGINE_ONLY_BACKENDS:
            check_membership(name, store_membership)
            return name
        return resolve_backend(
            name,
            graph,
            needs_reference=store_membership,
            memory_budget=self.memory_budget,
        )

    def _resolve_static(self, backend: Optional[str], graph: Graph) -> str:
        """:meth:`resolve` for a static artifact (supports, counts, a seed).

        ``"dynamic"`` keeps no static artifacts of its own, so it serves
        them from the ``"reference"`` row.
        """
        from ..fast import BACKEND_OPS

        name = self.resolve(backend, graph)
        return name if name in BACKEND_OPS else "reference"

    # ------------------------------------------------------------------ #
    # artifact cache
    # ------------------------------------------------------------------ #

    def _entry(self, graph: Graph) -> Optional[_GraphEntry]:
        """Live, version-current cache entry for ``graph`` (else None)."""
        entry = self._cache.get(id(graph))
        if entry is None:
            return None
        if entry.ref() is not graph or entry.version != graph.version:
            # Mutated since caching, or a recycled id() from a dead graph:
            # either way every stored artifact is void.
            del self._cache[id(graph)]
            return None
        return entry

    def _cache_get(self, graph: Graph, key: tuple) -> Optional[object]:
        if self._max_cached_graphs == 0:
            return None
        entry = self._entry(graph)
        if entry is None:
            return None
        artifact = entry.artifacts.get(key)
        if artifact is not None:
            self._cache.move_to_end(id(graph))
        return artifact

    def _cache_put(self, graph: Graph, key: tuple, artifact: object) -> None:
        if self._max_cached_graphs == 0:
            return
        entry = self._entry(graph)
        if entry is None:
            entry = _GraphEntry(graph)
            self._cache[id(graph)] = entry
        entry.artifacts[key] = artifact
        self._cache.move_to_end(id(graph))
        while len(self._cache) > self._max_cached_graphs:
            self._cache.popitem(last=False)

    def invalidate(self, graph: Optional[Graph] = None) -> None:
        """Drop cached artifacts for ``graph`` (or everything when None).

        Never *required* for correctness — version keying already fences
        mutations — but useful to release memory deterministically.
        """
        if graph is None:
            self._cache.clear()
        else:
            self._cache.pop(id(graph), None)

    def cached_artifact_count(self) -> int:
        """Total artifacts currently held (all graphs); for tests/metrics."""
        return sum(len(entry.artifacts) for entry in self._cache.values())

    # ------------------------------------------------------------------ #
    # decomposition API
    # ------------------------------------------------------------------ #

    def decompose(
        self,
        graph: Graph,
        *,
        backend: Optional[str] = None,
        store_membership: bool = False,
        use_cache: bool = True,
    ) -> TriangleKCoreResult:
        """Algorithm 1 on ``graph`` via the resolved backend, memoized.

        The returned object is shared with the cache — treat it as
        immutable (every public consumer already does).
        """
        name = self.resolve(backend, graph, store_membership=store_membership)
        key = ("decompose", name, store_membership)
        if use_cache:
            cached = self._cache_get(graph, key)
            if cached is not None:
                self.stats.bump("cache_hits")
                return cached  # type: ignore[return-value]
            self.stats.bump("cache_misses")
        self.stats.bump("decompositions")
        self.stats.record_backend(name)
        if name == "dynamic":
            result = self._dynamic_decompose(graph)
        else:
            result = self._static_decompose(name, graph, store_membership)
        if use_cache:
            self._cache_put(graph, key, result)
        return result

    def _static_decompose(
        self, name: str, graph: Graph, store_membership: bool
    ) -> TriangleKCoreResult:
        """Run the :data:`~repro.fast.BACKEND_OPS` row ``name``, instrumented."""
        from ..fast import BACKEND_OPS

        counters: Dict[str, int] = {}
        peel_stats: Dict[str, object] = {}
        info: Dict[str, int] = {}
        stage = self.stats.stage
        with stage(f"decompose.{name}"):
            result = BACKEND_OPS[name].decompose(
                graph,
                store_membership=store_membership,
                counters=counters,
                peel_stats=peel_stats,
                info=info,
                stage=lambda layer: stage(f"decompose.{name}.{layer}"),
                spill_dir=self.spill_dir,
                memory_budget=self.memory_budget,
            )
        self.stats.merge_counters(counters)
        if info:
            self.stats.record_external(info)
        self.stats.record_peel(peel_stats)
        return result

    def triangle_supports(
        self, graph: Graph, *, backend: Optional[str] = None, use_cache: bool = True
    ) -> Dict[Edge, int]:
        """Cached ``{edge: triangle support}`` (the pre-peel bounds)."""
        from ..fast import BACKEND_OPS

        name = self._resolve_static(backend, graph)
        key = ("supports", name)
        if use_cache:
            cached = self._cache_get(graph, key)
            if cached is not None:
                self.stats.bump("cache_hits")
                return cached  # type: ignore[return-value]
            self.stats.bump("cache_misses")
        with self.stats.stage(f"supports.{name}"):
            supports = BACKEND_OPS[name].supports(graph)
        if use_cache:
            self._cache_put(graph, key, supports)
        return supports

    def triangles(
        self, graph: Graph, *, use_cache: bool = True
    ) -> Tuple[Triangle, ...]:
        """Cached tuple of canonical triangles of ``graph``."""
        from ..graph.triangles import enumerate_triangles

        key = ("triangles",)
        if use_cache:
            cached = self._cache_get(graph, key)
            if cached is not None:
                self.stats.bump("cache_hits")
                return cached  # type: ignore[return-value]
            self.stats.bump("cache_misses")
        with self.stats.stage("triangles.enumerate"):
            triangles = tuple(enumerate_triangles(graph))
        if use_cache:
            self._cache_put(graph, key, triangles)
        return triangles

    def count_triangles(
        self, graph: Graph, *, backend: Optional[str] = None, use_cache: bool = True
    ) -> int:
        """Cached total triangle count."""
        from ..fast import BACKEND_OPS

        name = self._resolve_static(backend, graph)
        key = ("triangle_count",)
        if use_cache:
            cached = self._cache_get(graph, key)
            if cached is not None:
                self.stats.bump("cache_hits")
                return cached  # type: ignore[return-value]
            self.stats.bump("cache_misses")
        with self.stats.stage(f"count.{name}"):
            count = BACKEND_OPS[name].count(graph)
        if use_cache:
            self._cache_put(graph, key, count)
        return count

    # ------------------------------------------------------------------ #
    # dynamic strategy
    # ------------------------------------------------------------------ #

    def _dynamic_decompose(self, graph: Graph) -> TriangleKCoreResult:
        """Serve a decomposition by diff-applying against a warm maintainer."""
        from ..graph.io import graph_diff

        maintainer = self._dynamic
        if maintainer is None:
            with self.stats.stage("dynamic.warm"):
                maintainer = DynamicTriangleKCore(graph, copy=True)
            self._dynamic = maintainer
            self.stats.bump("dynamic_cold_starts")
        else:
            with self.stats.stage("dynamic.diff"):
                added, removed = graph_diff(maintainer.graph, graph)
            if added or removed:
                with self.stats.stage("dynamic.apply"):
                    update = maintainer.apply(
                        added=added,
                        removed=removed,
                        strategy=self.dynamic_strategy,
                    )
                self.stats.bump("dynamic_updates")
                self.stats.bump("dynamic_edges_applied", len(added) + len(removed))
                self.stats.bump(
                    "dynamic_candidates_examined", update.candidates_examined
                )
                self.stats.bump("dynamic_edges_changed", update.edges_changed)
                self.stats.bump("dynamic_levels_touched", update.levels_touched)
                if update.strategy == "batch":
                    self.stats.record_batch(
                        update.region_edges,
                        update.settle_iterations,
                        update.bound_prune_hits,
                    )
        with self.stats.stage("dynamic.snapshot"):
            return maintainer.result()

    def reset_dynamic(self) -> None:
        """Forget the warm dynamic maintainer (next call cold-starts)."""
        self._dynamic = None

    def maintainer(
        self,
        graph: Graph,
        *,
        copy: bool = True,
        store_triangles: bool = False,
        seed_backend: Optional[str] = None,
    ) -> DynamicTriangleKCore:
        """Build an instrumented-by-construction dynamic maintainer.

        The warm-up decomposition is timed under ``maintainer.warm`` and
        counted; the maintainer itself is returned un-wrapped (its own
        per-update :class:`~repro.core.dynamic.UpdateStats` stay the
        fine-grained instrument).

        ``seed_backend`` warms the maintainer from a decomposition served
        through :meth:`decompose` with that backend (so a fast kernel
        backend — or the artifact cache — pays for the initial kappa map
        instead of the maintainer's private reference run).  This is the
        shared-state hook long-lived consumers such as
        :mod:`repro.service` use: one decomposition, reused for both the
        engine cache and the authoritative dynamic state.
        """
        seed_result = None
        if seed_backend is not None:
            seed_result = self.decompose(
                graph, backend=self._resolve_static(seed_backend, graph)
            )
        with self.stats.stage("maintainer.warm"):
            maintainer = DynamicTriangleKCore(
                graph,
                copy=copy,
                store_triangles=store_triangles,
                seed_result=seed_result,
            )
        self.stats.bump("maintainers_built")
        return maintainer

    def _perturb_maintainer(self, graph: Graph) -> DynamicTriangleKCore:
        """Warm maintainer mirroring ``graph``'s current structural state.

        Reused across perturbations of the same unmutated graph — the
        robustness-sweep access pattern — and rebuilt (via the version
        fence) the moment the base graph changes.
        """
        base = self._perturb_base
        if base is not None:
            ref, version, maintainer = base
            if ref() is graph and version == graph.version:
                return maintainer
        with self.stats.stage("perturb.warm"):
            maintainer = DynamicTriangleKCore(graph, copy=True)
        self._perturb_base = (weakref.ref(graph), graph.version, maintainer)
        self.stats.bump("perturb_cold_starts")
        return maintainer

    @contextmanager
    def perturbed(
        self,
        graph: Graph,
        *,
        added: Tuple[Tuple[Vertex, Vertex], ...] = (),
        removed: Tuple[Tuple[Vertex, Vertex], ...] = (),
    ) -> Iterator[DynamicTriangleKCore]:
        """What-if context: apply a diff, measure, revert — no recompute.

        Applies ``added``/``removed`` incrementally to the warm
        perturbation maintainer, yields it (read ``.kappa`` / ``.graph``
        for the perturbed state; treat both as read-only), and reverts the
        diff on exit — even when the body raises.
        """
        maintainer = self._perturb_maintainer(graph)
        added = tuple(added)
        removed = tuple(removed)
        with self.stats.stage("perturb.apply"):
            maintainer.apply(
                added=added, removed=removed, strategy=self.dynamic_strategy
            )
        self.stats.bump("perturbations")
        try:
            yield maintainer
        finally:
            with self.stats.stage("perturb.revert"):
                maintainer.apply(
                    added=removed, removed=added, strategy=self.dynamic_strategy
                )

    def diff_decompose(
        self,
        graph: Graph,
        *,
        added: Tuple[Tuple[Vertex, Vertex], ...] = (),
        removed: Tuple[Tuple[Vertex, Vertex], ...] = (),
    ) -> KappaDelta:
        """One-shot what-if delta: what would this diff do to kappa?

        Convenience over :meth:`perturbed` for callers that only want the
        :class:`~repro.core.dynamic.KappaDelta`, not the perturbed state.
        The base graph is left untouched (the diff is reverted).
        """
        maintainer = self._perturb_maintainer(graph)
        added = tuple(added)
        removed = tuple(removed)
        with self.stats.stage("perturb.apply"):
            delta = maintainer.diff_apply(
                added=added, removed=removed, strategy=self.dynamic_strategy
            )
        self.stats.bump("perturbations")
        with self.stats.stage("perturb.revert"):
            maintainer.apply(
                added=removed, removed=added, strategy=self.dynamic_strategy
            )
        return delta

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    def register_stats_section(
        self,
        name: str,
        provider: Callable[[], Dict[str, object]],
        *,
        replace: bool = False,
    ) -> None:
        """Attach an extra named section to :meth:`stats_dict`.

        ``provider()`` is called on every ``stats_dict()`` and its return
        value is embedded under ``payload[name]``.  Sections are additive
        on top of the ``repro.engine.stats/7`` schema; a long-lived
        consumer — the service layer — uses this to publish its own
        telemetry through the one ``--stats`` pipe.
        Reserved schema keys cannot be shadowed.
        """
        reserved = {
            "schema",
            "counters",
            "backend_calls",
            "stage_seconds",
            "batch",
            "peel",
            "external",
            "workspace",
            "default_backend",
            "cached_graphs",
            "cached_artifacts",
        }
        if name in reserved:
            raise ValueError(f"section name {name!r} shadows a schema key")
        if name in self._stats_sections and not replace:
            raise ValueError(
                f"stats section {name!r} already registered (pass replace=True)"
            )
        self._stats_sections[name] = provider

    def stats_dict(self) -> Dict[str, object]:
        """Structured instrumentation payload (see ``--stats`` on the CLI)."""
        payload = self.stats.as_dict()
        payload["default_backend"] = self.default_backend
        payload["cached_graphs"] = len(self._cache)
        payload["cached_artifacts"] = self.cached_artifact_count()
        for name, provider in self._stats_sections.items():
            payload[name] = provider()
        return payload

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"Engine(default_backend={self.default_backend!r}, "
            f"cached_graphs={len(self._cache)}, "
            f"backends={list(self.backends())})"
        )


# ---------------------------------------------------------------------- #
# module-level default engine
# ---------------------------------------------------------------------- #

_default_engine: Optional[Engine] = None


def get_default_engine() -> Engine:
    """The process-wide default engine (created lazily)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def set_default_engine(engine: Optional[Engine]) -> None:
    """Replace the process-wide default engine (None resets to lazy-new)."""
    global _default_engine
    if engine is not None and not isinstance(engine, Engine):
        raise ReproError(f"expected an Engine, got {type(engine).__name__}")
    _default_engine = engine


def resolve_engine(engine: Optional[Engine]) -> Engine:
    """``engine`` if given, else the default — the consumer-layer helper."""
    return engine if engine is not None else get_default_engine()


def decompose(
    graph: Graph,
    *,
    backend: Optional[str] = None,
    store_membership: bool = False,
    engine: Optional[Engine] = None,
    use_cache: bool = True,
) -> TriangleKCoreResult:
    """Module-level convenience: decompose via ``engine`` or the default."""
    return resolve_engine(engine).decompose(
        graph,
        backend=backend,
        store_membership=store_membership,
        use_cache=use_cache,
    )
