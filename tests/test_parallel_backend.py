"""Unit tests for the process-parallel backend (repro.fast.parallel).

Covers the pool edge cases the conformance matrix cannot see from the
outside: the workers=1 short-circuit (no pool may be constructed), empty
and unsplittable graphs, worker crashes surfacing as BackendError instead
of hangs, shard-range arithmetic (including the hypothesis tiling
property and the overlap guard), deterministic stats counters, the
stats/5 schema, and the Engine.map_decompose batch API.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine import Engine, EngineStats, STATS_SCHEMA
from repro.exceptions import BackendError, ReproError
from repro.fast import (
    AUTO_EXTERNAL_MIN_EDGES,
    AUTO_MIN_EDGES,
    AUTO_VECTOR_MIN_EDGES,
    CSRGraph,
    csr_decomposition,
    effective_workers,
    inject_shard_merge_bug,
    parallel_decomposition,
    resolve_backend,
    shard_ranges,
)
from repro.fast import parallel as parallel_mod
from repro.fast import csr as csr_mod
from repro.graph import Graph, complete_graph, erdos_renyi

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

HAS_NUMPY = csr_mod.np is not None


def er(seed: int = 0, n: int = 60, p: float = 0.15) -> Graph:
    return erdos_renyi(n, p, seed=seed)


# ------------------------------------------------------------------ #
# bit-identity with the csr backend
# ------------------------------------------------------------------ #


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [2, 3, 5, 16])
    def test_inprocess_matches_csr_exactly(self, workers):
        graph = er(seed=workers)
        expected = csr_decomposition(graph)
        result = parallel_decomposition(graph, workers=workers, inprocess=True)
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order

    def test_real_pool_matches_csr_exactly(self):
        graph = er(seed=1)
        expected = csr_decomposition(graph)
        result = parallel_decomposition(graph, workers=2)
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order

    def test_counters_identical_to_csr(self):
        graph = er(seed=2)
        csr_counters: dict = {}
        par_counters: dict = {}
        csr_decomposition(graph, counters=csr_counters)
        parallel_decomposition(
            graph, workers=3, inprocess=True, counters=par_counters
        )
        assert par_counters == csr_counters

    def test_counters_deterministic_across_runs(self):
        graph = er(seed=3)
        runs = []
        for _ in range(2):
            counters: dict = {}
            info: dict = {}
            parallel_decomposition(
                graph, workers=4, inprocess=True, counters=counters, info=info
            )
            runs.append((counters, info["workers"], info["shards"]))
        assert runs[0] == runs[1]


# ------------------------------------------------------------------ #
# workers=1 short-circuit and degenerate graphs
# ------------------------------------------------------------------ #


class TestShortCircuitAndDegenerates:
    def test_workers_1_never_builds_a_pool(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("workers=1 must not reach the pool path")

        monkeypatch.setattr(parallel_mod, "_run_pool", explode)
        graph = er(seed=4)
        result = parallel_decomposition(graph, workers=1)
        assert result.kappa == csr_decomposition(graph).kappa

    def test_workers_1_info_reports_single_shard(self):
        info: dict = {}
        parallel_decomposition(er(seed=5), workers=1, info=info)
        assert info == {
            "workers": 1,
            "shards": 1,
            "shard_seconds": [],
            "transport": "inprocess",
            "bytes_shipped": 0,
        }

    def test_single_shard_graph_skips_pool(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("single-shard graphs must stay in process")

        monkeypatch.setattr(parallel_mod, "_run_pool", explode)
        # Vertices but zero arcs: shard_ranges collapses to a single range.
        graph = Graph(vertices=range(5))
        result = parallel_decomposition(graph, workers=8)
        assert result.kappa == {}
        # A small graph *with* edges is still allowed to pool (two shards
        # exist as soon as two vertices have arcs) — just check the tiny
        # pool run agrees with csr.
        monkeypatch.undo()
        graph = Graph(edges=[(0, 1)])
        assert parallel_decomposition(graph, workers=8).kappa == {(0, 1): 0}

    def test_empty_graph(self):
        result = parallel_decomposition(Graph(), workers=4)
        assert result.kappa == {}
        assert result.processing_order == []

    def test_vertices_without_edges(self):
        graph = Graph(vertices=range(10))
        result = parallel_decomposition(graph, workers=4)
        assert result.kappa == {}

    def test_triangle_free_graph(self):
        # Star: plenty of edges, zero triangles, hub in the last shard.
        graph = Graph(edges=[(0, i) for i in range(1, 40)])
        result = parallel_decomposition(graph, workers=4, inprocess=True)
        assert set(result.kappa.values()) == {0}

    def test_effective_workers_validation(self):
        assert effective_workers(1) == 1
        assert effective_workers(7) == 7
        assert effective_workers(None) >= 1
        with pytest.raises(ValueError, match="workers must be >= 1"):
            effective_workers(0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            parallel_decomposition(Graph(), workers=-2)


# ------------------------------------------------------------------ #
# shard ranges
# ------------------------------------------------------------------ #


class TestShardRanges:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 64])
    def test_partition_properties(self, seed, shards):
        csr = CSRGraph.from_graph(er(seed=seed, n=50, p=0.12))
        ranges = shard_ranges(csr, shards)
        assert 1 <= len(ranges) <= max(shards, 1)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == csr.num_vertices
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, non-overlapping
        assert all(lo < hi for lo, hi in ranges)

    def test_empty_graph_yields_no_ranges(self):
        assert shard_ranges(CSRGraph.from_graph(Graph()), 4) == []

    def test_arc_balance_beats_vertex_balance_on_hub_graphs(self):
        # Degree-ordered relabeling puts the hub last; arc-balanced cuts
        # must not leave the whole workload in the final shard.
        graph = Graph(edges=[(0, i) for i in range(1, 101)])
        csr = CSRGraph.from_graph(graph)
        ranges = shard_ranges(csr, 4)
        arcs = [csr.indptr[hi] - csr.indptr[lo] for lo, hi in ranges]
        total = csr.indptr[csr.num_vertices]
        assert max(arcs) < total  # the hub shard does not own everything


if HAVE_HYPOTHESIS:

    class TestShardTilingProperty:
        """Hypothesis: shard_ranges tiles [0, n) for any degree distribution.

        The strategy builds adversarial shapes directly from degree
        sequences — empty vertices, one mega-hub, long paths, duplicate
        degrees — rather than from uniform random graphs, because the
        bisect-based cut placement only gets interesting when the arc
        prefix has plateaus (runs of isolated vertices) and cliffs (hubs).
        """

        @staticmethod
        def _graph_from_stubs(stubs):
            # Half-edge pairing: any even-sum degree-ish sequence becomes
            # some multigraph; collapse to the simple graph it induces.
            edges = []
            flat = [v for v, d in enumerate(stubs) for _ in range(d)]
            for u, v in zip(flat[::2], flat[1::2]):
                if u != v:
                    edges.append((u, v))
            vertices = range(len(stubs))
            return Graph(vertices=vertices, edges=edges)

        @given(
            stubs=st.lists(
                st.integers(min_value=0, max_value=12), min_size=1, max_size=40
            ),
            shards=st.integers(min_value=1, max_value=64),
        )
        @settings(max_examples=150, deadline=None)
        def test_tiles_exactly(self, stubs, shards):
            csr = CSRGraph.from_graph(self._graph_from_stubs(stubs))
            ranges = shard_ranges(csr, shards)
            if csr.num_vertices == 0:
                assert ranges == []
                return
            # Contiguous, disjoint, covering — the exact property the
            # merge guard re-validates at run time.
            assert ranges[0][0] == 0
            assert ranges[-1][1] == csr.num_vertices
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert all(lo < hi for lo, hi in ranges)
            parallel_mod._validate_shard_tiling(csr.num_vertices, ranges)

        @given(
            stubs=st.lists(
                st.integers(min_value=0, max_value=8), min_size=3, max_size=30
            ),
            shards=st.integers(min_value=2, max_value=16),
        )
        @settings(max_examples=100, deadline=None)
        def test_merged_supports_match_sequential(self, stubs, shards):
            graph = self._graph_from_stubs(stubs)
            csr = CSRGraph.from_graph(graph)
            from repro.fast import supports_and_triangles

            sequential = supports_and_triangles(csr)
            sharded = parallel_mod.parallel_supports_and_triangles(
                csr, workers=shards, inprocess=True
            )
            assert sharded == sequential


class TestMergeGuard:
    """Overlapping or gapped shard output must refuse to merge."""

    def _outputs(self, csr, shards):
        return [parallel_mod._shard_inprocess(csr, bounds) for bounds in shards]

    def test_overlapping_shards_raise(self):
        csr = CSRGraph.from_graph(er(seed=12, n=20))
        n = csr.num_vertices
        bad = [(0, n // 2 + 1), (n // 2, n)]  # one-vertex overlap
        with pytest.raises(BackendError, match="do not tile"):
            parallel_mod._merge_shards(csr, bad, self._outputs(csr, bad))

    def test_gapped_shards_raise(self):
        csr = CSRGraph.from_graph(er(seed=13, n=20))
        n = csr.num_vertices
        bad = [(0, n // 2 - 1), (n // 2, n)]  # one-vertex gap
        with pytest.raises(BackendError, match="do not tile"):
            parallel_mod._merge_shards(csr, bad, self._outputs(csr, bad))

    def test_missing_tail_raises(self):
        csr = CSRGraph.from_graph(er(seed=14, n=20))
        n = csr.num_vertices
        bad = [(0, n - 1)]
        with pytest.raises(BackendError, match="do not cover"):
            parallel_mod._merge_shards(csr, bad, self._outputs(csr, bad))

    def test_valid_tiling_passes(self):
        csr = CSRGraph.from_graph(er(seed=15, n=20))
        shards = shard_ranges(csr, 3)
        merged, _ = parallel_mod._merge_shards(
            csr, shards, self._outputs(csr, shards)
        )
        from repro.fast import supports_and_triangles

        assert merged == supports_and_triangles(csr)


# ------------------------------------------------------------------ #
# failure contract
# ------------------------------------------------------------------ #


class TestFailureContract:
    def test_worker_crash_raises_backend_error(self, monkeypatch):
        monkeypatch.setenv(parallel_mod._CRASH_ENV, "1")
        graph = er(seed=6)
        with pytest.raises(BackendError, match="worker process died"):
            parallel_decomposition(graph, workers=2)
        # The failure is mechanical, not algorithmic: the same graph still
        # decomposes fine in process.
        monkeypatch.delenv(parallel_mod._CRASH_ENV)
        assert parallel_decomposition(graph, workers=1).kappa == (
            csr_decomposition(graph).kappa
        )

    def test_backend_error_is_repro_error(self):
        assert issubclass(BackendError, ReproError)

    def test_crash_message_names_the_retry_path(self, monkeypatch):
        monkeypatch.setenv(parallel_mod._CRASH_ENV, "1")
        with pytest.raises(BackendError, match="workers=1"):
            parallel_decomposition(er(seed=7), workers=2)

    def test_engine_surfaces_backend_error(self, monkeypatch):
        monkeypatch.setenv(parallel_mod._CRASH_ENV, "1")
        engine = Engine(workers=2, max_cached_graphs=0)
        with pytest.raises(BackendError):
            engine.decompose(er(seed=8), backend="parallel")


# ------------------------------------------------------------------ #
# fault injection (the smoke-check's tooling, tested directly)
# ------------------------------------------------------------------ #


class TestInjectShardMergeBug:
    def test_bug_changes_kappa_on_a_triangle(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        clean = parallel_decomposition(graph, workers=2, inprocess=True)
        assert set(clean.kappa.values()) == {1}
        with inject_shard_merge_bug():
            buggy = parallel_decomposition(graph, workers=2, inprocess=True)
        assert set(buggy.kappa.values()) == {0}

    def test_bug_applies_even_at_workers_1(self):
        # The short-circuit must not mask the injected fault, or the
        # mutation smoke-check would silently pass on 1-CPU hosts.
        graph = complete_graph(4)
        with inject_shard_merge_bug():
            buggy = parallel_decomposition(graph, workers=1)
        assert buggy.kappa != csr_decomposition(graph).kappa

    def test_bug_scope_is_the_context_only(self):
        graph = complete_graph(4)
        with inject_shard_merge_bug():
            pass
        after = parallel_decomposition(graph, workers=2, inprocess=True)
        assert after.kappa == csr_decomposition(graph).kappa


# ------------------------------------------------------------------ #
# auto-selection policy
# ------------------------------------------------------------------ #


class TestAutoPolicy:
    # "auto" stays in process: the parallel family's pool spawn costs more
    # than its sharded enumeration saves, so only an explicit backend name
    # reaches it, and the worker count never steers the choice.
    IN_PROCESS = ("reference", "csr", "csr-vec")
    EDGE_COUNTS = (
        0,
        AUTO_MIN_EDGES,
        AUTO_VECTOR_MIN_EDGES,
        1 << 16,
        1 << 20,
        AUTO_EXTERNAL_MIN_EDGES - 1,
    )
    WORKERS = (None, 1, 2, 4, 64)

    def test_auto_never_resolves_to_parallel_family(self):
        for edges in self.EDGE_COUNTS:
            graph = SimpleNamespace(num_edges=edges)
            assert resolve_backend("auto", graph) in self.IN_PROCESS
            for workers in self.WORKERS:
                resolved = Engine(workers=workers).resolve(None, graph)
                assert resolved in self.IN_PROCESS, (edges, workers)

    def test_auto_stays_in_process_below_threshold(self):
        mid = SimpleNamespace(num_edges=AUTO_VECTOR_MIN_EDGES - 1)
        assert resolve_backend("auto", mid) == "csr"

    def test_auto_stays_in_process_at_one_worker(self):
        big = SimpleNamespace(num_edges=1 << 20)
        expected = "csr-vec" if HAS_NUMPY else "csr"
        assert Engine(workers=1).resolve(None, big) == expected

    def test_auto_scalar_composition_without_numpy(self, monkeypatch):
        monkeypatch.setattr(csr_mod, "np", None)
        big = SimpleNamespace(num_edges=1 << 20)
        assert resolve_backend("auto", big) == "csr"
        assert Engine(workers=4).resolve(None, big) == "csr"

    def test_engine_resolve_ignores_engine_workers(self):
        big = SimpleNamespace(num_edges=1 << 20)
        answers = {Engine(workers=w).resolve(None, big) for w in self.WORKERS}
        assert answers == {"csr-vec" if HAS_NUMPY else "csr"}

    @pytest.mark.parametrize(
        ("backend", "executor"),
        [("parallel", "scalar"), ("parallel-vec", "vector")],
    )
    def test_explicit_parallel_bit_identical_to_csr(self, backend, executor):
        graph = er(seed=11)
        assert resolve_backend(backend, graph) == backend
        expected = csr_decomposition(graph, executor=executor)
        engine = Engine(workers=2, max_cached_graphs=0)
        result = engine.decompose(graph, backend=backend)
        assert engine.stats_dict()["backend_calls"] == {backend: 1}
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order

    def test_membership_error_contract(self):
        graph = complete_graph(4)
        with pytest.raises(ValueError, match="membership"):
            resolve_backend("parallel", graph, needs_reference=True)


# ------------------------------------------------------------------ #
# engine stats: schema /4
# ------------------------------------------------------------------ #


class TestStatsSchema:
    def test_schema_bumped(self):
        assert STATS_SCHEMA == "repro.engine.stats/6"

    def test_v1_keys_still_present(self):
        # /2 is a strict superset of /1: old readers must keep working.
        payload = EngineStats().as_dict()
        assert {"schema", "counters", "backend_calls", "stage_seconds"} <= (
            set(payload)
        )
        assert "parallel" in payload

    def test_record_parallel_accumulates_and_resets(self):
        stats = EngineStats()
        stats.record_parallel(2, [0.1, 0.2])
        stats.record_parallel(4, [0.3])
        payload = stats.as_dict()["parallel"]
        assert payload["decompositions"] == 2
        assert payload["workers"] == 4  # most recent run
        assert payload["shards"] == 3  # cumulative
        assert payload["shard_seconds"] == [0.3]
        stats.reset()
        assert stats.as_dict()["parallel"] == {}

    def test_engine_records_parallel_section(self):
        engine = Engine(workers=3, max_cached_graphs=0)
        engine.decompose(er(seed=9), backend="parallel")
        payload = engine.stats_dict()
        assert payload["schema"] == "repro.engine.stats/6"
        assert payload["backend_calls"]["parallel"] == 1
        section = payload["parallel"]
        assert section["workers"] == 3
        assert section["decompositions"] == 1
        assert len(section["shard_seconds"]) == section["shards"]
        assert section["transport"] in ("shm", "pickle")
        assert section["bytes_shipped"] > 0

    def test_parallel_section_counters_deterministic(self):
        # Everything except wall times must be identical across runs.
        def snapshot():
            engine = Engine(workers=3, max_cached_graphs=0)
            engine.decompose(er(seed=10), backend="parallel")
            payload = engine.stats_dict()
            section = dict(payload["parallel"])
            section.pop("shard_seconds")
            return payload["counters"], section

        assert snapshot() == snapshot()


# ------------------------------------------------------------------ #
# Engine.map_decompose
# ------------------------------------------------------------------ #


class TestMapDecompose:
    def test_results_in_input_order(self):
        engine = Engine()
        g1, g2 = complete_graph(4), complete_graph(5)
        r1, r2 = engine.map_decompose([g1, g2], backend="csr")
        assert r1.max_kappa == 2
        assert r2.max_kappa == 3

    def test_duplicates_served_from_cache(self):
        engine = Engine()
        graph = er(seed=11)
        results = engine.map_decompose([graph, graph, graph])
        assert results[0] is results[1] is results[2]
        assert engine.stats.cache_hits == 2
        assert engine.stats.counters["batch_calls"] == 1
        assert engine.stats.counters["batch_graphs"] == 3

    def test_parallel_batch_matches_reference(self):
        engine = Engine(max_cached_graphs=0)
        graphs = [er(seed=s, n=40) for s in range(3)]
        results = engine.map_decompose(graphs, backend="parallel", workers=2)
        for graph, result in zip(graphs, results):
            assert result.kappa == csr_decomposition(graph).kappa
        assert engine.stats_dict()["parallel"]["workers"] == 2

    def test_workers_override_is_restored(self):
        engine = Engine(workers=5)
        engine.map_decompose([complete_graph(4)], backend="csr", workers=2)
        assert engine.workers == 5
        # ...even when a backend raises mid-batch.
        with pytest.raises(ValueError):
            engine.map_decompose(
                [complete_graph(4)],
                backend="csr",
                store_membership=True,
                workers=3,
            )
        assert engine.workers == 5

    def test_invalid_workers_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            engine.map_decompose([Graph()], workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            Engine(workers=0)

    def test_mutation_between_batches_invalidates(self):
        engine = Engine()
        graph = complete_graph(4)
        (first,) = engine.map_decompose([graph])
        graph.add_edge(0, 99)
        graph.add_edge(1, 99)
        (second,) = engine.map_decompose([graph])
        assert second is not first
        assert second.kappa_of(0, 99) == 1
