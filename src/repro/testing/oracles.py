"""The oracle matrix: independent ways to compute kappa, plus fault injection.

The system under test is :class:`~repro.core.dynamic.DynamicTriangleKCore`
(driven continuously, op by op).  At checkpoints the runner cross-checks its
kappa map against every *checkpoint oracle* registered here:

``recompute``
    :class:`~repro.baselines.recompute.RecomputeBaseline` fed the net edge
    diff since the previous checkpoint — the paper's Table III baseline,
    maintaining its *own* graph so it also witnesses structural drift.
``csr``
    The flat-array kernel backend (:mod:`repro.fast`) run on the shadow
    graph — an independent implementation of Algorithm 1.
``networkx``
    networkx's ``k_truss`` (written independently of this library),
    compared through the kappa = truss - 2 correspondence.  Skipped
    automatically when networkx is not importable.
``csr-vec``
    The CSR kernels with the **vector** (level-synchronous) peel
    executor — the same enumeration as ``csr`` but an entirely different
    Algorithm 1 walk, so it catches executor-specific bugs (batched
    decrement accounting, bound clamping).  Opt-in.
``external``
    The out-of-core backend (:mod:`repro.fast.external`) on an
    ``external_partitions``-way spill of the shadow graph, so partition
    seams and the reconciliation peel sit under the fuzzer.  Opt-in.
``per_op``
    A second :class:`DynamicTriangleKCore` fed the net edge diff *one op
    at a time* with incremental repairs.  Opt-in, aimed at the batch
    maintainer mode: when the SUT applies whole edit batches with
    ``strategy="batch"``, this oracle pits the single affected-region
    pass against the per-op Algorithm 2 cascades at every checkpoint
    (the recompute oracle completes the batch/per-op/recompute
    differential cell).

Fault injection lives here too: :class:`OffByOneMaintainer` wraps the real
maintainer and misreports kappa by +1 on a chosen level.  The mutation
smoke-check in ``tests/test_differential_fuzz.py`` proves the harness
detects and shrinks that bug — i.e. that a green fuzz run means something.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..baselines.recompute import RecomputeBaseline
from ..core.dynamic import DynamicTriangleKCore
from ..engine import Engine
from ..graph.edge import Edge, Vertex
from ..graph.undirected import Graph

#: Checkpoint oracle names, in the order they are evaluated.
ORACLE_NAMES = (
    "recompute",
    "csr",
    "csr-vec",
    "networkx",
    "external",
    "per_op",
)

#: Default oracle selection ("networkx" degrades to a no-op if unavailable;
#: the others are opt-in — see the module docstring).
DEFAULT_ORACLES = ("recompute", "csr", "networkx")


def networkx_available() -> bool:
    """True when the optional networkx oracle can run."""
    try:
        import networkx  # noqa: F401
    except ImportError:
        return False
    return True


class CheckpointOracles:
    """Evaluates the selected checkpoint oracles against a shadow graph.

    The ``recompute`` oracle is stateful (it maintains its own graph and
    applies net diffs); ``csr`` and ``networkx`` are pure functions of the
    shadow graph.  :meth:`evaluate` returns ``{oracle_name: kappa_map}`` for
    every oracle that ran.
    """

    def __init__(
        self,
        oracles: Tuple[str, ...] = DEFAULT_ORACLES,
        *,
        external_partitions: int = 2,
    ) -> None:
        for name in oracles:
            if name not in ORACLE_NAMES:
                raise ValueError(
                    f"unknown oracle {name!r}; expected subset of {ORACLE_NAMES}"
                )
        self._names = tuple(oracles)
        self._baseline: Optional[RecomputeBaseline] = None
        self._baseline_edges: set = set()
        self._per_op: Optional[DynamicTriangleKCore] = None
        self._nx_usable = "networkx" in self._names and networkx_available()
        self._external_partitions = external_partitions
        # Private, cache-disabled engine: each oracle must recompute from
        # scratch every checkpoint — serving one oracle's cached artifact
        # to another would collapse their independence.
        self._engine = Engine(max_cached_graphs=0)

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def active_names(self) -> List[str]:
        """Oracles that will actually produce answers on this host."""
        active = []
        for name in self._names:
            if name == "networkx" and not self._nx_usable:
                continue
            active.append(name)
        return active

    def evaluate(self, shadow: Graph) -> Dict[str, Dict[Edge, int]]:
        answers: Dict[str, Dict[Edge, int]] = {}
        for name in self._names:
            if name == "recompute":
                answers[name] = self._recompute_kappa(shadow)
            elif name == "csr":
                answers[name] = self._engine.decompose(
                    shadow, backend="csr", use_cache=False
                ).kappa
            elif name == "csr-vec":
                answers[name] = self._engine.decompose(
                    shadow, backend="csr-vec", use_cache=False
                ).kappa
            elif name == "networkx" and self._nx_usable:
                from ..baselines.nx_truss import networkx_kappa

                answers[name] = networkx_kappa(shadow)
            elif name == "external":
                from ..fast.external import external_decomposition

                answers[name] = external_decomposition(
                    shadow, partitions=self._external_partitions
                ).kappa
            elif name == "per_op":
                answers[name] = self._per_op_kappa(shadow)
        return answers

    def _recompute_kappa(self, shadow: Graph) -> Dict[Edge, int]:
        """Feed the RecomputeBaseline the net edge diff since last call."""
        current = set(shadow.edges())
        if self._baseline is None:
            self._baseline = RecomputeBaseline(Graph(), engine=self._engine)
        added = current - self._baseline_edges
        removed = self._baseline_edges - current
        run = self._baseline.apply(added=sorted(added, key=repr),
                                   removed=sorted(removed, key=repr))
        self._baseline_edges = current
        return run.result.kappa

    def _per_op_kappa(self, shadow: Graph) -> Dict[Edge, int]:
        """Catch the stateful per-op maintainer up to the shadow graph.

        Kappa is a pure function of the graph, so feeding the *net* diff
        one op at a time is equivalent to replaying the original op
        sequence — and exercises the per-op Algorithm 2 cascades the
        batch strategy must stay bit-identical to.
        """
        if self._per_op is None:
            self._per_op = DynamicTriangleKCore(Graph(), copy=False)
        maintainer = self._per_op
        previous = set(maintainer.graph.edges())
        current = set(shadow.edges())
        for u, v in sorted(previous - current, key=repr):
            maintainer.remove_edge(u, v)
        for u, v in sorted(current - previous, key=repr):
            maintainer.add_edge(u, v)
        return dict(maintainer.kappa)


# ---------------------------------------------------------------------- #
# system-under-test factories
# ---------------------------------------------------------------------- #

#: A factory building the maintainer the runner drives, from an initial graph.
SutFactory = Callable[[Graph], DynamicTriangleKCore]


def default_sut(graph: Graph) -> DynamicTriangleKCore:
    """The real maintainer, owning its graph (no copy: graph is private)."""
    return DynamicTriangleKCore(graph, copy=False)


def stored_sut(graph: Graph) -> DynamicTriangleKCore:
    """The maintainer with the triangle-store index enabled."""
    return DynamicTriangleKCore(graph, copy=False, store_triangles=True)


class OffByOneMaintainer(DynamicTriangleKCore):
    """A deliberately buggy maintainer: kappa off by one on one level.

    Every edge whose true kappa equals ``level`` is reported as
    ``level + 1``.  Used by the mutation smoke-check to prove the harness
    detects (and the shrinker minimizes) a real, subtle discrepancy — the
    exact class of bug Rule 0 violations produce.
    """

    def __init__(self, graph: Graph, *, level: int = 1, **kwargs) -> None:
        self.perturb_level = level
        super().__init__(graph, **kwargs)

    @property
    def kappa(self) -> Dict[Edge, int]:
        true_kappa = super().kappa
        level = self.perturb_level
        return {
            edge: value + 1 if value == level else value
            for edge, value in true_kappa.items()
        }

    def kappa_of(self, u: Vertex, v: Vertex) -> int:
        from ..graph.edge import canonical_edge

        return self.kappa[canonical_edge(u, v)]


def perturbed_sut_factory(level: int) -> SutFactory:
    """Factory for :class:`OffByOneMaintainer` at a given level."""

    def factory(graph: Graph) -> DynamicTriangleKCore:
        return OffByOneMaintainer(graph, level=level, copy=False)

    return factory


class BatchBoundaryBugMaintainer(DynamicTriangleKCore):
    """A deliberately buggy batch maintainer: drops one affected-region edge.

    Overrides the :meth:`_trim_batch_region` seam to silently discard one
    boundary edge (the repr-max non-inserted member) from the affected
    region before the localized settle — the canonical batch-maintenance
    bug class: an under-approximated region leaves a stale kappa behind
    exactly when that edge needed a promote/demote cascade.  Inserted
    edges are never dropped (they have no kappa yet, so dropping one
    would crash rather than silently corrupt).

    The batch mutation smoke-check proves the fuzzer's batch mode catches
    and shrinks this.
    """

    def _trim_batch_region(self, region, inserted):
        droppable = sorted(region - inserted, key=repr)
        if droppable:
            region = set(region)
            region.discard(droppable[-1])
        return region


def batch_boundary_bug_sut(graph: Graph) -> DynamicTriangleKCore:
    """Factory for :class:`BatchBoundaryBugMaintainer`."""
    return BatchBoundaryBugMaintainer(graph, copy=False)
