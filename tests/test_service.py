"""End-to-end tests of the query service: conformance, edits, backpressure.

Most tests drive a real :class:`BackgroundServer` over loopback with the
typed :class:`ServiceClient` — the same path production traffic takes.
The conformance classes assert the acceptance criteria of the service:

* read endpoints are **bit-identical** to offline ``Engine`` calls on the
  same graph at the same version;
* after ``POST /edits``, ``GET /kappa`` matches a from-scratch recompute
  oracle (PR 2 workload profiles replayed over HTTP);
* overload produces bounded-queue rejections (429/503), never hangs;
* every response carries a monotonically non-decreasing ``version``.
"""

import json
import threading

import pytest

from repro.core import triangle_kcore_decomposition
from repro.engine import Engine
from repro.graph import Graph, complete_graph
from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceClientError,
    ServiceOverloadError,
    ServiceState,
)
from repro.testing import generate
from repro.testing.editscript import EditScript, apply_op


def make_fixture_graph() -> Graph:
    """K5 + pendant triangle + isolated vertex: all kappa levels 0..3."""
    g = complete_graph(5)
    g.add_edge(0, 10)
    g.add_edge(1, 10)
    g.add_edge(10, 11)
    g.add_vertex(99)
    return g


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(make_fixture_graph()) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


class TestReadConformance:
    """Service answers == offline engine answers on the same graph."""

    def test_kappa_matches_offline_for_every_edge(self, client):
        graph = make_fixture_graph()
        result = triangle_kcore_decomposition(graph)
        for (u, v), expected in result.kappa.items():
            answer = client.kappa(u, v)
            assert answer.kappa == expected, (u, v)
            assert answer.version == 0

    def test_community_matches_offline_index(self, client):
        from repro.core import CommunityIndex

        graph = make_fixture_graph()
        index = CommunityIndex(graph)
        for vertex in graph.vertices():
            level, members = index.densest_community_of_vertex(vertex)
            answer = client.community(vertex)
            assert answer.level == level
            assert set(answer.members) == set(members)
            assert not answer.degraded

    def test_community_at_level_k(self, client):
        answer = client.community(0, k=3)
        assert answer.level == 3
        assert set(answer.members) == {0, 1, 2, 3, 4}

    def test_hierarchy_matches_offline(self, client):
        from repro.core import CommunityHierarchy

        graph = make_fixture_graph()
        offline = CommunityHierarchy(graph)
        answer = client.hierarchy()
        assert answer.max_level == triangle_kcore_decomposition(graph).max_kappa
        assert len(answer.roots) == len(offline.roots)
        by_size = sorted(root["size"] for root in answer.roots)
        assert by_size == sorted(root.size for root in offline.roots)

    def test_templates_match_offline_detection(self, client):
        from repro.templates import BUILTIN_TEMPLATES, detect_on_snapshots

        graph = make_fixture_graph()
        detection = detect_on_snapshots(
            graph, graph, BUILTIN_TEMPLATES["stable"]
        )
        answer = client.templates("stable")
        assert answer.characteristic_triangles == len(
            detection.characteristic_triangles
        )
        assert answer.special_edges == len(detection.special_edges)

    def test_healthz_shape(self, client):
        health = client.healthz()
        assert health.status == "ok"
        assert health.vertices == make_fixture_graph().num_vertices
        assert health.edges == make_fixture_graph().num_edges
        assert health.max_kappa == 3
        assert not health.draining

    def test_stats_has_engine_and_service_sections(self, client):
        stats = client.stats()
        assert stats["schema"] == "repro.engine.stats/7"
        service = stats["service"]
        assert service["schema"] == "repro.service/1"
        assert service["graph"]["edges"] == make_fixture_graph().num_edges
        assert "kappa" in service["requests"]
        summary = service["requests"]["kappa"]
        assert summary["count"] >= 1
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(summary)


class TestErrors:
    def test_kappa_missing_edge_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.kappa(0, 99)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_community_missing_vertex_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.community("nobody-here")
        assert excinfo.value.status == 404

    def test_community_bad_k_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.community(0, k=0)
        assert excinfo.value.status == 400

    def test_unknown_template_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.templates("does_not_exist")
        assert excinfo.value.status == 404

    def test_kappa_missing_params_400(self, client):
        status, _ = 0, None
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/kappa?u=1")
        assert excinfo.value.status == 400

    def test_malformed_edit_script_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("POST", "/edits", body={"not-ops": True})
        assert excinfo.value.status == 400

    def test_unknown_path_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404


class TestEdits:
    """Each test gets a private server (edits mutate state)."""

    def run_script_and_check_oracle(
        self, script: EditScript, *, strategy=None, start=None
    ):
        start_graph = start if start is not None else make_fixture_graph()
        with BackgroundServer(start_graph.copy()) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                outcome = client.edits(script, strategy=strategy)
                # Oracle: replay the same script structurally and
                # decompose from scratch.
                oracle_graph = start_graph.copy()
                for op in script:
                    apply_op(oracle_graph, op)
                oracle = triangle_kcore_decomposition(oracle_graph)
                assert outcome.max_kappa == oracle.max_kappa
                for (u, v), expected in oracle.kappa.items():
                    assert client.kappa(u, v).kappa == expected, (u, v)
                # And the server serves exactly the oracle's edge set.
                served_edges = client.healthz().edges
                assert served_edges == oracle_graph.num_edges
                return outcome

    def test_add_edges_updates_kappa(self):
        outcome = self.run_script_and_check_oracle(
            EditScript.from_json_obj(
                {"ops": [["add", 11, 0], ["add", 11, 1]]}
            )
        )
        assert outcome.applied == 2
        assert outcome.rejected == {}

    def test_invalid_ops_rejected_not_fatal(self):
        outcome = self.run_script_and_check_oracle(
            EditScript.from_json_obj(
                {
                    "ops": [
                        ["add", 7, 7],  # self loop
                        ["add", 0, 1],  # duplicate
                        ["remove", 0, 55],  # missing edge
                        ["remove_vertex", 1234],  # missing vertex
                        ["add", 50, 51],  # fine
                    ]
                }
            )
        )
        assert outcome.applied == 1
        assert outcome.rejected == {
            "self_loop": 1,
            "duplicate": 1,
            "missing_edge": 1,
            "missing_vertex": 1,
        }

    def test_remove_vertex_cascades(self):
        outcome = self.run_script_and_check_oracle(
            EditScript.from_json_obj({"ops": [["remove_vertex", 0]]})
        )
        assert outcome.deleted > 0

    @pytest.mark.parametrize("strategy", ["incremental", "batch", "recompute"])
    def test_strategies_agree(self, strategy):
        script = generate("uniform", seed=5, n_ops=40)
        self.run_script_and_check_oracle(script, strategy=strategy)

    def test_batch_strategy_counts_rejections(self):
        """Batch coalescing must classify adversarial ops like per-op."""
        outcome = self.run_script_and_check_oracle(
            generate("adversarial", seed=2, n_ops=30), strategy="batch"
        )
        assert sum(outcome.rejected.values()) > 0
        assert outcome.applied + sum(outcome.rejected.values()) == 30

    def test_batch_edits_feed_engine_batch_stats(self):
        """A batch /edits must show up in the /stats ``batch`` section."""
        with BackgroundServer(make_fixture_graph()) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                before = client.stats().get("batch", {})
                client.edits(
                    generate("triangle_bursts", seed=9, n_ops=25),
                    strategy="batch",
                )
                after = client.stats()["batch"]
                assert after["applies"] == before.get("applies", 0) + 1
                assert after["settle_iterations"] >= before.get(
                    "settle_iterations", 0
                )

    @pytest.mark.parametrize(
        "profile", ["uniform", "churn", "triangle_bursts", "grow_shrink", "adversarial"]
    )
    def test_workload_profiles_over_http(self, profile):
        """PR 2 workload profiles replayed through POST /edits."""
        script = generate(profile, seed=11, n_ops=60)
        self.run_script_and_check_oracle(script)

    def test_version_monotonic_across_batches_and_strategies(self):
        with BackgroundServer(make_fixture_graph()) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                seen = [client.healthz().version]
                for strategy in ("incremental", "batch", "recompute", None):
                    outcome = client.edits(
                        generate("churn", seed=3, n_ops=25),
                        strategy=strategy,
                    )
                    seen.append(outcome.version)
                    seen.append(client.healthz().version)
                assert seen == sorted(seen)
                assert len(set(seen[1:])) > 1  # versions actually advanced

    def test_read_your_writes(self):
        with BackgroundServer(make_fixture_graph()) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                outcome = client.edits([("add", 11, 0), ("add", 11, 1)])
                answer = client.kappa(11, 0)
                assert answer.kappa >= 1  # triangle (0, 1, 11) exists now
                assert answer.version >= outcome.version

    def test_bad_strategy_400(self):
        with BackgroundServer(make_fixture_graph()) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceClientError) as excinfo:
                    client.edits([("add", 1, 50)], strategy="telepathy")
                assert excinfo.value.status == 400


class TestBackpressure:
    def test_queue_overflow_rejects_with_503(self):
        # One slow handler at a time + tiny queue => pile-up => 503s.
        with BackgroundServer(
            make_fixture_graph(), max_queue=2, handler_delay=0.2
        ) as server:
            overloaded = []
            answered = []

            def worker():
                with ServiceClient("127.0.0.1", server.port) as c:
                    try:
                        answered.append(c.healthz())
                    except ServiceOverloadError as error:
                        overloaded.append(error)

            threads = [threading.Thread(target=worker) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert overloaded, "expected at least one 503 overloaded"
            assert all(e.status == 503 for e in overloaded)
            assert all(e.code == "overloaded" for e in overloaded)
            assert answered, "some requests should still succeed"
            stats = ServiceClient("127.0.0.1", server.port).stats()
            assert stats["service"]["rejected"]["overloaded"] == len(
                overloaded
            )
            assert stats["service"]["queue"]["max"] == 2

    def test_rate_limit_rejects_with_429_and_retry_after(self):
        with BackgroundServer(
            make_fixture_graph(), rate_limit=1.0, rate_burst=2.0
        ) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.kappa(0, 1)
                client.kappa(0, 1)
                with pytest.raises(ServiceOverloadError) as excinfo:
                    client.kappa(0, 1)
                assert excinfo.value.status == 429
                assert excinfo.value.code == "rate_limited"
                assert excinfo.value.retry_after is not None
                assert excinfo.value.retry_after >= 0
                # /healthz is exempt so monitoring keeps working.
                assert client.healthz().status == "ok"

    def test_queue_age_shedding(self):
        with BackgroundServer(
            make_fixture_graph(),
            handler_delay=0.3,
            request_timeout=0.01,
            max_queue=64,
        ) as server:
            outcomes = []

            def worker():
                with ServiceClient("127.0.0.1", server.port) as c:
                    try:
                        c.kappa(0, 1)
                        outcomes.append("ok")
                    except ServiceOverloadError as error:
                        outcomes.append(error.code)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert "timed_out" in outcomes

    def test_degraded_reads_marked_and_counted(self):
        # degrade_after=0 means every dispatched read may serve stale.
        with BackgroundServer(
            make_fixture_graph(), degrade_after=0
        ) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.community(0)  # materialize the cache at version 0
                client.edits([("add", 11, 0), ("add", 11, 1)])
                answer = client.community(0)
                assert answer.degraded
                assert answer.answered_at_version == 0
                assert answer.version > 0
                stats = client.stats()
                assert stats["service"]["degraded_reads"] >= 1
                # Kappa reads never degrade: the new triangles are visible.
                assert client.kappa(11, 0).kappa >= 1

    def test_exact_reads_when_not_degraded(self):
        with BackgroundServer(make_fixture_graph()) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.community(0)
                client.edits([("add", 11, 0), ("add", 11, 1)])
                answer = client.community(10)
                assert not answer.degraded
                assert answer.answered_at_version == answer.version
                assert 11 in answer.members


class TestServiceState:
    """Direct (no-HTTP) checks of state-layer invariants."""

    def test_shared_engine_cache_is_warm_after_startup(self):
        engine = Engine(default_backend="reference")
        graph = make_fixture_graph()
        ServiceState(graph, backend="reference", engine=engine)
        stats = engine.stats_dict()
        assert stats["counters"]["decompositions"] == 1  # seeded once

    def test_state_usable_without_server(self):
        state = ServiceState(make_fixture_graph())
        payload = state.kappa("0", "1")
        assert payload["kappa"] == 3
        outcome = state.apply_edits(
            EditScript.from_json_obj({"ops": [["add", 11, 0]]})
        )
        assert outcome["applied"] == 1
        assert state.version > 0

    def test_templates_against_startup_baseline(self):
        state = ServiceState(make_fixture_graph())
        state.apply_edits(
            EditScript.from_json_obj(
                {"ops": [["add", 20, 21], ["add", 21, 22], ["add", 20, 22]]}
            )
        )
        payload = state.templates("new_form")
        assert payload["characteristic_triangles"] == 0  # new vertices, not
        # original ones: not a New Form clique (needs 3 original vertices)
        payload = state.templates("stable")
        assert payload["characteristic_triangles"] > 0

    def test_rejects_bad_edit_strategy_config(self):
        with pytest.raises(ValueError):
            ServiceState(make_fixture_graph(), edit_strategy="nope")


class TestDrain:
    def test_background_server_drains_and_stops(self):
        server = BackgroundServer(make_fixture_graph())
        server.start()
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.healthz().status == "ok"
        server.stop()
        # After drain the socket is closed: new connections fail.
        with pytest.raises(ServiceClientError):
            ServiceClient(
                "127.0.0.1", server.port, timeout=2, retries=0
            ).healthz()

    def test_stop_is_idempotent(self):
        server = BackgroundServer(make_fixture_graph())
        server.start()
        server.stop()
        server.stop()
