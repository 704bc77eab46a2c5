"""Tests for the unified decomposition engine (repro.engine).

Covers the three engine concerns — backend registry/dispatch, the
version-keyed artifact cache, and instrumentation — plus the graph
mutation counter they hang off, the dynamic snapshot strategy, the
perturb-and-revert context, and the module-level default engine.
"""

import json

import pytest

from repro.core import triangle_kcore_decomposition
from repro.engine import (
    BACKENDS,
    Engine,
    decompose,
    get_default_engine,
    resolve_engine,
    set_default_engine,
)
from repro.engine.stats import STATS_SCHEMA, EngineStats
from repro.exceptions import ReproError
from repro.graph import Graph
from repro.graph.generators import erdos_renyi
from repro.graph.undirected import complete_graph


@pytest.fixture
def kite():
    """Two triangles sharing edge (1, 2) plus a pendant edge."""
    return Graph(edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])


# ---------------------------------------------------------------------- #
# Graph.version
# ---------------------------------------------------------------------- #


class TestGraphVersion:
    def test_starts_at_zero(self):
        assert Graph().version == 0

    def test_every_mutation_bumps(self):
        g = Graph()
        v = g.version
        g.add_vertex(0)
        assert g.version > v
        v = g.version
        g.add_edge(0, 1)
        assert g.version > v
        v = g.version
        g.remove_edge(0, 1)
        assert g.version > v
        v = g.version
        g.remove_vertex(0)
        assert g.version > v
        v = g.version
        g.clear()
        assert g.version > v

    def test_noop_mutators_do_not_bump(self):
        g = Graph(edges=[(0, 1)])
        v = g.version
        g.add_vertex(0)  # already present
        g.add_edge(0, 1, exist_ok=True)  # already present
        assert g.version == v

    def test_reads_do_not_bump(self, kite):
        v = kite.version
        kite.has_edge(0, 1)
        list(kite.edges())
        list(kite.neighbors(1))
        kite.subgraph([0, 1, 2])
        assert kite.version == v

    def test_copy_is_independent(self, kite):
        clone = kite.copy()
        before = kite.version
        clone.add_edge(90, 91)
        assert kite.version == before


# ---------------------------------------------------------------------- #
# dispatch
# ---------------------------------------------------------------------- #


class TestDispatch:
    def test_builtin_backends_listed(self):
        engine = Engine()
        assert set(BACKENDS) <= set(engine.backends())

    @pytest.mark.parametrize("backend", ["reference", "csr", "dynamic"])
    def test_backends_agree_with_reference(self, kite, backend):
        expected = triangle_kcore_decomposition(kite).kappa
        assert Engine().decompose(kite, backend=backend).kappa == expected

    def test_auto_resolves_to_concrete_backend(self, kite):
        engine = Engine()
        assert engine.resolve("auto", kite) in ("reference", "csr")
        assert engine.resolve(None, kite) in ("reference", "csr")

    def test_auto_with_membership_degrades_to_reference(self, kite):
        assert Engine().resolve("auto", kite, store_membership=True) == "reference"

    def test_unknown_backend_rejected(self, kite):
        engine = Engine()
        with pytest.raises(ValueError, match="unknown backend"):
            engine.decompose(kite, backend="gpu")
        with pytest.raises(ValueError, match="unknown backend"):
            engine.default_backend = "gpu"

    @pytest.mark.parametrize("backend", ["csr", "dynamic"])
    def test_membership_rejected_off_reference(self, kite, backend):
        with pytest.raises(ValueError, match="membership"):
            Engine().decompose(kite, backend=backend, store_membership=True)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Engine(max_cached_graphs=-1)
        with pytest.raises(ValueError):
            Engine(dynamic_strategy="sometimes")
        with pytest.raises(ValueError):
            Engine(default_backend="gpu")
        with pytest.raises(TypeError):
            Engine(workers=2)  # the process-parallel backends are gone


# ---------------------------------------------------------------------- #
# artifact cache
# ---------------------------------------------------------------------- #


class TestCache:
    def test_repeat_decompose_is_same_object(self, kite):
        engine = Engine()
        first = engine.decompose(kite)
        assert engine.decompose(kite) is first
        assert engine.stats.cache_hits == 1

    def test_mutation_invalidates(self, kite):
        engine = Engine()
        stale = engine.decompose(kite)
        kite.add_edge(0, 3)  # closes two new triangles
        fresh = engine.decompose(kite)
        assert fresh is not stale
        assert fresh.kappa == triangle_kcore_decomposition(kite).kappa

    def test_backend_name_is_part_of_the_key(self, kite):
        engine = Engine()
        ref = engine.decompose(kite, backend="reference")
        csr = engine.decompose(kite, backend="csr")
        assert ref is not csr
        assert engine.decompose(kite, backend="reference") is ref
        assert engine.decompose(kite, backend="csr") is csr

    def test_use_cache_false_bypasses_both_ways(self, kite):
        engine = Engine()
        cached = engine.decompose(kite)
        uncached = engine.decompose(kite, use_cache=False)
        assert uncached is not cached
        assert engine.decompose(kite) is cached  # did not overwrite

    def test_zero_capacity_disables_caching(self, kite):
        engine = Engine(max_cached_graphs=0)
        assert engine.decompose(kite) is not engine.decompose(kite)
        assert engine.cached_artifact_count() == 0

    def test_lru_eviction_bounds_graph_count(self):
        engine = Engine(max_cached_graphs=2)
        graphs = [complete_graph(4) for _ in range(3)]
        for g in graphs:
            engine.decompose(g)
        # Oldest graph evicted: recomputing it misses.
        first = engine.decompose(graphs[0])
        assert engine.stats.cache_misses == 4

    def test_invalidate_specific_and_all(self, kite):
        engine = Engine()
        r = engine.decompose(kite)
        engine.invalidate(kite)
        assert engine.decompose(kite) is not r
        engine.triangles(kite)
        engine.invalidate()
        assert engine.cached_artifact_count() == 0

    def test_secondary_artifacts_cached(self, kite):
        engine = Engine()
        assert engine.triangles(kite) is engine.triangles(kite)
        assert engine.triangle_supports(kite) is engine.triangle_supports(kite)
        assert engine.count_triangles(kite) == 2
        supports = engine.triangle_supports(kite)
        assert supports[(0, 1)] == 1 and supports[(1, 2)] == 2

    def test_dead_graph_entries_are_not_served_by_id_reuse(self):
        # Force the id()-reuse hazard deterministically: drop the entry's
        # weak referent, then hand the engine a *different* graph whose
        # cache slot collides (we simulate by patching the entry's ref).
        engine = Engine()
        g = complete_graph(4)
        engine.decompose(g)
        entry = engine._cache[id(g)]
        other = complete_graph(5)
        entry.ref = lambda: None  # referent died
        engine._cache[id(other)] = engine._cache.pop(id(g))
        fresh = engine.decompose(other)
        assert fresh.kappa == triangle_kcore_decomposition(other).kappa


# ---------------------------------------------------------------------- #
# dynamic strategy
# ---------------------------------------------------------------------- #


class TestDynamicBackend:
    def test_snapshot_sequence_matches_reference(self):
        engine = Engine()
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        snapshots = []
        for extra in [(2, 3), (1, 3), (0, 3), (3, 4)]:
            g.add_edge(*extra)
            snapshots.append(g.copy())
        for snap in snapshots:
            got = engine.decompose(snap, backend="dynamic", use_cache=False)
            want = triangle_kcore_decomposition(snap).kappa
            assert got.kappa == want
        counters = engine.stats.counters
        assert counters["dynamic_cold_starts"] == 1
        assert counters["dynamic_updates"] == len(snapshots) - 1

    def test_handles_deletions_between_snapshots(self):
        engine = Engine()
        g = complete_graph(6)
        assert engine.decompose(g, backend="dynamic").max_kappa == 4
        g2 = g.copy()
        g2.remove_edge(0, 1)
        got = engine.decompose(g2, backend="dynamic")
        assert got.kappa == triangle_kcore_decomposition(g2).kappa

    def test_reset_dynamic_cold_starts_again(self, kite):
        engine = Engine()
        engine.decompose(kite, backend="dynamic", use_cache=False)
        engine.reset_dynamic()
        engine.decompose(kite, backend="dynamic", use_cache=False)
        assert engine.stats.counters["dynamic_cold_starts"] == 2

    def test_maintainer_counts_and_isolates(self, kite):
        engine = Engine()
        m = engine.maintainer(kite)
        m.add_edge(0, 4)
        assert not kite.has_edge(0, 4)  # copy=True isolates the base graph
        assert engine.stats.counters["maintainers_built"] == 1


class TestPerturbed:
    def test_perturbed_applies_and_reverts(self):
        engine = Engine()
        g = complete_graph(5)
        baseline = triangle_kcore_decomposition(g).kappa
        with engine.perturbed(g, removed=((0, 1),)) as m:
            assert not m.graph.has_edge(0, 1)
            inside = dict(m.kappa)
        g_removed = g.copy()
        g_removed.remove_edge(0, 1)
        assert inside == triangle_kcore_decomposition(g_removed).kappa
        # Reverted: a second perturbation sees the pristine state again.
        with engine.perturbed(g, added=((0, 9), (1, 9))) as m:
            assert m.graph.has_edge(0, 1)
        assert not g.has_edge(0, 9)  # base graph itself never touched
        with engine.perturbed(g) as m:
            assert dict(m.kappa) == baseline

    def test_perturbed_reverts_on_exception(self):
        engine = Engine()
        g = complete_graph(4)
        with pytest.raises(RuntimeError):
            with engine.perturbed(g, removed=((0, 1),)):
                raise RuntimeError("boom")
        with engine.perturbed(g) as m:
            assert dict(m.kappa) == triangle_kcore_decomposition(g).kappa

    def test_warm_maintainer_reused_until_base_mutates(self):
        engine = Engine()
        g = complete_graph(5)
        with engine.perturbed(g, removed=((0, 1),)):
            pass
        with engine.perturbed(g, removed=((2, 3),)):
            pass
        assert engine.stats.counters["perturb_cold_starts"] == 1
        g.add_edge(0, 99)
        with engine.perturbed(g, removed=((0, 1),)) as m:
            assert m.graph.has_edge(0, 99)
        assert engine.stats.counters["perturb_cold_starts"] == 2

    def test_diff_decompose_returns_delta_and_reverts(self):
        engine = Engine()
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        delta = engine.diff_decompose(g, added=((0, 3), (1, 3)))
        assert not delta.is_empty
        assert (0, 3) in delta.created and (1, 3) in delta.created
        # Base state restored: an empty diff reports no change.
        assert engine.diff_decompose(g).is_empty


# ---------------------------------------------------------------------- #
# instrumentation
# ---------------------------------------------------------------------- #


class TestStats:
    def test_payload_shape_and_json(self, kite):
        engine = Engine()
        engine.decompose(kite, backend="reference")
        engine.decompose(kite, backend="reference")
        payload = engine.stats_dict()
        assert payload["schema"] == STATS_SCHEMA
        assert payload["backend_calls"] == {"reference": 1}
        assert payload["counters"]["cache_hits"] == 1
        assert payload["counters"]["decompositions"] == 1
        assert "decompose.reference" in payload["stage_seconds"]
        assert payload["cached_graphs"] == 1
        json.dumps(payload)  # must be serializable as-is

    def test_peel_counters_surface(self, kite):
        for backend in ("reference", "csr"):
            engine = Engine()
            engine.decompose(kite, backend=backend)
            counters = engine.stats.counters
            assert counters["triangles_enumerated"] == 2
            assert counters["edges_peeled"] == kite.num_edges
            assert counters["support_sum"] == 6
            # support_sum - sum(kappa): kappa is 1 on the 5 triangle edges.
            assert counters["bucket_decrements"] == 1

    @pytest.mark.parametrize("backend", ["csr", "csr-vec"])
    def test_csr_family_sub_stages(self, backend):
        engine = Engine(max_cached_graphs=0)
        graph = erdos_renyi(80, 0.15, seed=3)
        for _ in range(3):
            engine.decompose(graph, backend=backend)
        stages = engine.stats_dict()["stage_seconds"]
        parent = stages[f"decompose.{backend}"]
        parts = [
            stages[f"decompose.{backend}.{layer}"]
            for layer in ("build", "enumerate", "peel")
        ]
        assert all(part > 0 for part in parts)
        assert sum(parts) <= parent + 1e-9
        # Decoding to labelled edges is paid on first access, not here.
        assert not any(name.endswith(".decode") for name in stages)

    def test_reset(self, kite):
        engine = Engine()
        engine.decompose(kite)
        engine.reset_stats()
        assert engine.stats.counters == {}
        assert engine.stats.backend_calls == {}

    def test_engine_stats_standalone(self):
        stats = EngineStats()
        stats.bump("x")
        stats.bump("x", 2)
        with stats.stage("s"):
            pass
        payload = stats.as_dict()
        assert payload["counters"] == {"x": 3}
        assert "s" in payload["stage_seconds"]


# ---------------------------------------------------------------------- #
# module-level default
# ---------------------------------------------------------------------- #


class TestDefaultEngine:
    def teardown_method(self):
        set_default_engine(None)

    def test_default_is_lazy_singleton(self):
        set_default_engine(None)
        assert get_default_engine() is get_default_engine()

    def test_set_and_resolve(self):
        mine = Engine()
        set_default_engine(mine)
        assert get_default_engine() is mine
        assert resolve_engine(None) is mine
        other = Engine()
        assert resolve_engine(other) is other

    def test_set_rejects_non_engine(self):
        with pytest.raises(ReproError):
            set_default_engine(object())

    def test_module_level_decompose(self, kite):
        mine = Engine()
        result = decompose(kite, engine=mine)
        assert result.kappa == triangle_kcore_decomposition(kite).kappa
        assert mine.stats.counters["decompositions"] == 1

    def test_consumers_share_the_default_cache(self, kite):
        from repro.core import CommunityIndex

        mine = Engine()
        set_default_engine(mine)
        first = mine.decompose(kite)
        index = CommunityIndex(kite)  # no engine threaded: uses default
        assert index.result is first
        assert mine.stats.cache_hits == 1
