"""The :class:`Workspace`: named graphs + named views over one warm engine.

A workspace is the in-memory state behind the ``triangle-kcore shell``
REPL: a dictionary of named graphs, a dictionary of named
:class:`~repro.workspace.views.View` recipes over them, one shared
:class:`~repro.engine.Engine` every analysis routes through (so repeated
analyses on an unchanged graph or view hit the version-keyed artifact
cache), an optional live :class:`~repro.service.client.ServiceClient`
(the shell's front-end to the service tier), and per-graph warm
:class:`~repro.core.dynamic.DynamicTriangleKCore` maintainers that edits
are applied through.

Every mutation reports into the engine's ``workspace`` stats section
(``repro.engine.stats/7``), so one ``--stats`` payload tells the whole
story of a session.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import DynamicTriangleKCore, TriangleKCoreResult
from ..engine import Engine
from ..exceptions import WorkspaceError
from ..graph.edge import Vertex
from ..graph.undirected import Graph
from ..testing.editscript import EditOp
from .views import VIEW_KINDS, View

#: Graph/view names must be shell-token friendly.
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


class Workspace:
    """A session holding named graphs and named views over one engine."""

    def __init__(
        self,
        *,
        engine: Optional[Engine] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        #: Per-analysis backend override (``None`` = engine default).
        self.backend = backend
        self.graphs: Dict[str, Graph] = {}
        self.views: Dict[str, View] = {}
        self._maintainers: Dict[str, DynamicTriangleKCore] = {}
        self.client: Optional[object] = None
        self._record()  # initialize the gauges so the section always exists

    # ------------------------------------------------------------------ #
    # stats plumbing
    # ------------------------------------------------------------------ #

    def _record(self, **deltas: int) -> None:
        self.engine.stats.record_workspace(
            graphs=len(self.graphs), views=len(self.views), **deltas
        )

    def note_command(self) -> None:
        """Count one executed shell command (called by the dispatcher)."""
        self._record(commands=1)

    # ------------------------------------------------------------------ #
    # graphs
    # ------------------------------------------------------------------ #

    def _check_new_name(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise WorkspaceError(
                f"invalid name {name!r}: names match [A-Za-z_][A-Za-z0-9_.-]*"
            )
        if name in self.graphs:
            raise WorkspaceError(f"name {name!r} is already a graph")
        if name in self.views:
            raise WorkspaceError(f"name {name!r} is already a view")

    def add_graph(self, name: str, graph: Graph) -> Graph:
        """Register ``graph`` under ``name`` (names are workspace-unique)."""
        self._check_new_name(name)
        self.graphs[name] = graph
        self._record()
        return graph

    def load(self, name: str, spec: str) -> Graph:
        """Load a graph from a dataset name, edge-list path, or ``.csv``.

        ``.csv`` paths go through the adjacency-matrix importer
        (:func:`repro.graph.io.read_adjacency_csv`); anything else is a
        built-in dataset name or an edge-list file.
        """
        from ..datasets import load as load_dataset
        from ..datasets import names as dataset_names
        from ..graph.io import read_adjacency_csv, read_edge_list

        self._check_new_name(name)
        if spec in dataset_names():
            graph = load_dataset(spec).graph
        elif str(spec).endswith(".csv"):
            graph = read_adjacency_csv(spec)
        else:
            graph = read_edge_list(spec)
        return self.add_graph(name, graph)

    def graph_of(self, name: str) -> Graph:
        try:
            return self.graphs[name]
        except KeyError:
            raise WorkspaceError(f"no graph named {name!r}") from None

    def drop(self, name: str) -> Tuple[str, int]:
        """Drop a graph (cascading to its views) or a single view.

        Returns ``(kind, n_dependent_views_dropped)``.
        """
        if name in self.graphs:
            dependents = [
                v.name for v in self.views.values() if v.graph_name == name
            ]
            invalidated = sum(
                1 for d in dependents if not self.views[d].stale
            )
            for dependent in dependents:
                del self.views[dependent]
            del self.graphs[name]
            self._maintainers.pop(name, None)
            self._record(view_invalidations=invalidated)
            return ("graph", len(dependents))
        if name in self.views:
            del self.views[name]
            self._record()
            return ("view", 0)
        raise WorkspaceError(f"no graph or view named {name!r}")

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def create_view(
        self,
        name: str,
        kind: str,
        graph_name: str,
        params: Dict[str, object],
    ) -> View:
        """Create a view and derive its membership immediately."""
        self._check_new_name(name)
        if kind not in VIEW_KINDS:
            raise WorkspaceError(
                f"unknown view kind {kind!r} (expected one of "
                f"{', '.join(VIEW_KINDS)})"
            )
        graph = self.graph_of(graph_name)
        view = View(name=name, kind=kind, graph_name=graph_name,
                    params=dict(params))
        if kind == "template":
            # The "old" side of the template detection is the backing
            # graph frozen at view-creation time.
            view.baseline = graph.copy()
        self._derive(view)
        self.views[name] = view
        self._record(views_created=1)
        return view

    def view_of(self, name: str) -> View:
        try:
            return self.views[name]
        except KeyError:
            raise WorkspaceError(f"no view named {name!r}") from None

    def _derive(self, view: View) -> None:
        """(Re-)evaluate the view's recipe against the current graph."""
        graph = self.graph_of(view.graph_name)
        members: Set[Vertex]
        if view.kind == "community":
            from ..core import CommunityIndex

            vertex = view.params["vertex"]
            if not graph.has_vertex(vertex):
                raise WorkspaceError(
                    f"view {view.name!r}: vertex {vertex!r} is not in "
                    f"graph {view.graph_name!r}"
                )
            index = CommunityIndex(
                graph, backend=self.backend, engine=self.engine
            )
            k = view.params.get("k")
            if k is None:
                _, members = index.densest_community_of_vertex(vertex)
            else:
                members = set()
                for community in index.community_of_vertex(vertex, int(k)):
                    members |= community
        elif view.kind == "slice":
            from ..core import vertex_set_of_edges

            result = self.engine.decompose(graph, backend=self.backend)
            members = vertex_set_of_edges(
                set(result.edges_with_kappa_at_least(int(view.params["k"])))
            )
        elif view.kind == "template":
            from ..templates import BUILTIN_TEMPLATES, detect_on_snapshots

            pattern = str(view.params["pattern"])
            if pattern not in BUILTIN_TEMPLATES:
                raise WorkspaceError(
                    f"unknown template pattern {pattern!r} (expected one "
                    f"of {', '.join(sorted(BUILTIN_TEMPLATES))})"
                )
            detection = detect_on_snapshots(
                view.baseline,
                graph,
                BUILTIN_TEMPLATES[pattern],
                backend=self.backend,
                engine=self.engine,
            )
            members = set()
            for _, clique in detection.densest_cliques():
                members |= set(clique)
            members &= set(graph.vertices())
        elif view.kind == "vertices":
            requested = view.params["vertices"]
            members = {v for v in requested if graph.has_vertex(v)}
        else:  # pragma: no cover - guarded by create_view
            raise WorkspaceError(f"unknown view kind {view.kind!r}")
        was_stale_rederive = view.derived_at >= 0
        view.vertices = tuple(sorted(members, key=repr))
        view.derived_at = graph.version
        view.stale = False
        if was_stale_rederive:
            self._record(view_refreshes=1)

    def refresh_view(self, name: str) -> View:
        """Force re-derivation of a view against the current graph."""
        view = self.view_of(name)
        view.invalidate()
        self._derive(view)
        return view

    def view_subgraph(self, name: str) -> Graph:
        """The view's induced subgraph, derived/materialized as needed.

        The subgraph object is cached per backing-graph version, so
        repeated analyses on an unchanged view analyze the *same* graph
        object and hit the engine's version-keyed artifact cache.
        """
        view = self.view_of(name)
        graph = self.graph_of(view.graph_name)
        if view.stale:
            self._derive(view)
        cached = view.cached_subgraph(graph.version)
        if cached is not None:
            return cached
        subgraph = graph.subgraph(view.vertices)
        view.cache_subgraph(subgraph, graph.version)
        self._record(materializations=1)
        return subgraph

    # ------------------------------------------------------------------ #
    # analysis targets
    # ------------------------------------------------------------------ #

    def resolve(self, target: str) -> Graph:
        """A graph or the materialized subgraph of a view, by name."""
        if target in self.graphs:
            return self.graphs[target]
        if target in self.views:
            return self.view_subgraph(target)
        raise WorkspaceError(f"no graph or view named {target!r}")

    def decompose(self, target: str) -> TriangleKCoreResult:
        """Run the triangle k-core decomposition scoped to ``target``."""
        return self.engine.decompose(self.resolve(target),
                                     backend=self.backend)

    # ------------------------------------------------------------------ #
    # edits (through the warm dynamic maintainer)
    # ------------------------------------------------------------------ #

    def _maintainer(self, name: str) -> DynamicTriangleKCore:
        graph = self.graph_of(name)
        maintainer = self._maintainers.get(name)
        if maintainer is None or maintainer.graph is not graph:
            maintainer = self.engine.maintainer(graph, copy=False)
            self._maintainers[name] = maintainer
        return maintainer

    def edit(self, name: str, ops: Sequence[EditOp]) -> Tuple[int, int, int]:
        """Apply an edit script to graph ``name`` via its maintainer.

        Total semantics (like the fuzz harness): inapplicable ops —
        duplicate adds, removals of absent edges/vertices, self loops —
        are skipped, not errors.  Dependent views are invalidated.
        Returns ``(applied, skipped, max_kappa_after)``.
        """
        graph = self.graph_of(name)
        maintainer = self._maintainer(name)
        applied = skipped = 0
        for op in ops:
            if op.kind == "add":
                if op.u == op.v or graph.has_edge(op.u, op.v):
                    skipped += 1
                    continue
                maintainer.add_edge(op.u, op.v)
            elif op.kind == "remove":
                if not graph.has_edge(op.u, op.v):
                    skipped += 1
                    continue
                maintainer.remove_edge(op.u, op.v)
            elif op.kind == "add_vertex":
                if graph.has_vertex(op.u):
                    skipped += 1
                    continue
                maintainer.add_vertex(op.u)
            elif op.kind == "remove_vertex":
                if not graph.has_vertex(op.u):
                    skipped += 1
                    continue
                maintainer.remove_vertex(op.u)
            else:
                raise WorkspaceError(f"unknown edit op kind {op.kind!r}")
            applied += 1
        invalidated = 0
        if applied:
            for view in self.views.values():
                if view.graph_name == name and not view.stale:
                    view.invalidate()
                    invalidated += 1
        self._record(view_invalidations=invalidated)
        return applied, skipped, maintainer.max_kappa

    # ------------------------------------------------------------------ #
    # service front-end
    # ------------------------------------------------------------------ #

    def connect(self, host: str, port: int):
        """Attach a live :class:`ServiceClient` and health-check it."""
        from ..service.client import ServiceClient

        client = ServiceClient(host, int(port))
        info = client.healthz()
        self.client = client
        return info

    def disconnect(self) -> bool:
        """Detach the service client; returns whether one was attached."""
        was_connected = self.client is not None
        self.client = None
        return was_connected

    def require_client(self):
        if self.client is None:
            raise WorkspaceError(
                "not connected to a service (use: connect <host> <port>)"
            )
        return self.client

    # ------------------------------------------------------------------ #
    # listings
    # ------------------------------------------------------------------ #

    def describe_graphs(self) -> List[str]:
        if not self.graphs:
            return ["no graphs"]
        return [
            f"{name}: |V|={g.num_vertices} |E|={g.num_edges}"
            for name, g in sorted(self.graphs.items())
        ]

    def describe_views(self) -> List[str]:
        if not self.views:
            return ["no views"]
        return [view.describe() for _, view in sorted(self.views.items())]
