"""The out-of-core ``external`` backend: bit-identity, faults, RSS caps.

Four concerns:

* **Bit-identity** — ``external`` must produce the exact ``csr`` kappa map
  *and* the exact ``csr-vec`` canonical processing order on every graph,
  for any partition count (including the single-partition degenerate
  case), through both the in-RAM :meth:`ExternalCSR.build` entry and the
  bounded-memory :func:`spill_edges` stream builder, with and without
  numpy, plus a hypothesis property over adversarial degree
  distributions.
* **Reconciliation fixed point** — unit-level checks that boundary
  demotions iterate across partition seams until no new frontier edges
  appear, and that the ``floor``-mode h-index admission prunes partitions
  without disturbing any kappa at or above the floor.
* **Fault matrix** — truncated column file, corrupted bytes (checksum
  mismatch), manifest format-version mismatch, missing manifest, and a
  spill directory deleted mid-run each raise the typed
  :class:`~repro.exceptions.SpillError` (a :class:`BackendError`) naming
  the offending path; a SIGKILL'd run leaves no stale scratch files past
  the next open.
* **RSS budget** — a subprocess decomposes a stream whose in-RAM CSR
  build demonstrably exceeds the cap while the external path stays
  under it (numpy hosts with the stdlib ``resource`` module only; skipped
  with a recorded reason elsewhere).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import maxrss_bytes
import repro.fast as fast_mod
from repro.core import triangle_kcore_decomposition
from repro.exceptions import BackendError, SpillError
from repro.fast import csr_decomposition
from repro.fast import csr as csr_mod
from repro.fast.external import (
    DEFAULT_PARTITIONS,
    MANIFEST_NAME,
    SPILL_FORMAT,
    ExternalCSR,
    cleanup_stale,
    decompose_spill,
    external_decomposition,
    inject_boundary_drop_bug,
    kappa_upper_bounds,
    spill_edges,
)
from repro.fast.csr import CSRGraph
from repro.graph import Graph, complete_graph, erdos_renyi

PARTITION_COUNTS = (1, 2, 3, 7)


def graph_zoo() -> dict:
    two_k4 = complete_graph(4)
    for u in (10, 11, 12):
        two_k4.add_edge(3, u)
    for i, u in enumerate((10, 11, 12)):
        for v in (10, 11, 12)[i + 1:]:
            two_k4.add_edge(u, v)
    return {
        "fig2": Graph(
            edges=[
                ("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"),
                ("B", "E"), ("C", "D"), ("C", "E"), ("D", "E"),
            ]
        ),
        "fig3": Graph(
            edges=[
                ("A", "B"), ("B", "C"), ("A", "E"), ("A", "F"),
                ("E", "F"), ("C", "D"), ("C", "E"), ("D", "E"),
            ]
        ),
        "k5": complete_graph(5),
        "two_k4": two_k4,
        "empty": Graph(),
        "single_edge": Graph(edges=[(0, 1)]),
        "star": Graph(edges=[(0, i) for i in range(1, 12)]),
        "er_medium": erdos_renyi(60, 0.12, seed=1),
    }


GRAPH_NAMES = tuple(graph_zoo())


def int_graph(num_vertices: int, edges) -> Graph:
    """Graph with vertices inserted 0..n-1 (id order == insertion order).

    :func:`spill_edges` relabels by stable ``(degree, id)``;
    :meth:`CSRGraph.from_graph` by stable ``(degree, insertion order)``.
    Inserting every vertex in id order first makes the two conventions
    coincide, so stream-built spills can be compared bit-for-bit against
    the in-RAM build.
    """
    g = Graph()
    for v in range(num_vertices):
        g.add_vertex(v)
    for u, v in edges:
        g.add_edge(u, v)
    return g


# ------------------------------------------------------------------ #
# bit-identity vs csr / csr-vec
# ------------------------------------------------------------------ #


class TestBitIdentity:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_kappa_and_canonical_order(self, name):
        graph = graph_zoo()[name]
        want_kappa = csr_decomposition(graph).kappa
        want_order = csr_decomposition(
            graph, executor="vector"
        ).processing_order
        for parts in PARTITION_COUNTS:
            got = external_decomposition(graph, partitions=parts)
            assert got.kappa == want_kappa, (name, parts)
            assert got.processing_order == want_order, (name, parts)

    def test_single_partition_degenerate(self):
        # One partition = no seams: the reconciliation loop must still
        # reproduce the canonical answers (and its partition table must
        # tile the whole vertex range).
        graph = graph_zoo()["er_medium"]
        want = csr_decomposition(graph, executor="vector")
        got = external_decomposition(graph, partitions=1)
        assert got.kappa == want.kappa
        assert got.processing_order == want.processing_order

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_pure_python_path(self, name, monkeypatch):
        graph = graph_zoo()[name]
        want_kappa = csr_decomposition(graph).kappa
        want_order = csr_decomposition(
            graph, executor="vector"
        ).processing_order
        monkeypatch.setattr(csr_mod, "np", None)
        got = external_decomposition(graph, partitions=3)
        assert got.kappa == want_kappa
        assert got.processing_order == want_order

    def test_spill_edges_stream_matches_in_ram_build(self, tmp_path):
        edges = sorted(erdos_renyi(40, 0.15, seed=7).edges())
        graph = int_graph(40, edges)
        want = csr_decomposition(graph, executor="vector")
        # Stream with duplicates and self-loops thrown in: the builder
        # must dedup and drop them.
        noisy = list(edges) + [(3, 3), (0, 0)] + edges[:5] \
            + [(v, u) for u, v in edges[5:9]]
        ext = spill_edges(iter(noisy), 40, str(tmp_path / "s"), partitions=3)
        try:
            got = decompose_spill(ext)
        finally:
            ext.close()
        assert got.kappa == want.kappa
        assert got.processing_order == want.processing_order

    def test_spill_edges_pure_python(self, tmp_path, monkeypatch):
        edges = sorted(erdos_renyi(18, 0.3, seed=3).edges())
        graph = int_graph(18, edges)
        want = csr_decomposition(graph, executor="vector")
        monkeypatch.setattr(csr_mod, "np", None)
        ext = spill_edges(iter(edges), 18, str(tmp_path / "s"), partitions=3)
        try:
            got = decompose_spill(ext)
        finally:
            ext.close()
        assert got.kappa == want.kappa
        assert got.processing_order == want.processing_order

    def test_reopened_spill_is_equivalent(self, tmp_path):
        # build -> close -> open(verify=True) -> decompose: the on-disk
        # round trip (including checksum verification) changes nothing.
        graph = graph_zoo()["two_k4"]
        want = csr_decomposition(graph, executor="vector")
        spill = str(tmp_path / "spill")
        ExternalCSR.build(graph, spill, partitions=3).close()
        ext = ExternalCSR.open(spill, verify=True)
        try:
            got = decompose_spill(ext)
        finally:
            ext.close()
        assert got.kappa == want.kappa
        assert got.processing_order == want.processing_order

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_adversarial_degrees(self, data):
        # Heavy-tailed degree mixes: a few hubs joined to everything plus
        # a sparse periphery — the worst case for arc-balanced partition
        # cuts (hubs make ranges indivisible, periphery makes them empty).
        n = data.draw(st.integers(min_value=2, max_value=24), label="n")
        hubs = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=3, unique=True,
            ),
            label="hubs",
        )
        edge_set = set()
        for h in hubs:
            for v in range(n):
                if v != h:
                    edge_set.add((min(h, v), max(h, v)))
        extra = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=30,
            ),
            label="extra",
        )
        for u, v in extra:
            if u != v:
                edge_set.add((min(u, v), max(u, v)))
        graph = int_graph(n, sorted(edge_set))
        parts = data.draw(
            st.integers(min_value=1, max_value=6), label="partitions"
        )
        want_kappa = csr_decomposition(graph).kappa
        want_order = csr_decomposition(
            graph, executor="vector"
        ).processing_order
        got = external_decomposition(graph, partitions=parts)
        assert got.kappa == want_kappa
        assert got.processing_order == want_order


# ------------------------------------------------------------------ #
# reconciliation fixed point + floor admission
# ------------------------------------------------------------------ #


class TestReconciliation:
    def test_boundary_demotions_cross_seams(self):
        # A K5 forced into 5 single-ish partitions: every triangle's
        # demotions land on edges owned by other partitions, so a peel
        # that failed to iterate the seams to a fixed point could not
        # reach kappa == 3 everywhere.
        graph = complete_graph(5)
        info = {}
        got = external_decomposition(graph, partitions=5, info=info)
        assert set(got.kappa.values()) == {3}
        assert info["partitions"] >= 2
        # Sub-rounds scan every live partition: with >1 partition holding
        # triangles, passes must exceed the level count.
        assert info["passes"] > 1

    def test_dropped_demotion_breaks_identity(self):
        # The converse of the conformance bar: the injected seam bug (a
        # demotion discovered in a later partition never propagated) must
        # surface as a kappa divergence — proving the reconciliation loop
        # is load-bearing, not incidental.
        graph = erdos_renyi(24, 0.3, seed=5)
        want = csr_decomposition(graph).kappa
        with inject_boundary_drop_bug():
            got = external_decomposition(graph, partitions=3)
        assert got.kappa != want
        # and the flag restores: the very next run is clean again
        clean = external_decomposition(graph, partitions=3)
        assert clean.kappa == want

    def test_fixed_point_consumes_every_triangle(self):
        # After the peel reaches its fixed point no unconsumed triangle
        # may remain: support_sum accounts for every spilled triangle.
        graph = graph_zoo()["er_medium"]
        counters = {}
        external_decomposition(graph, partitions=4, counters=counters)
        ref_counters = {}
        csr_decomposition(graph, counters=ref_counters)
        assert counters == ref_counters

    def test_kappa_upper_bound_is_sound(self):
        for name in ("fig2", "k5", "two_k4", "er_medium"):
            graph = graph_zoo()[name]
            snap = CSRGraph.from_graph(graph)
            h = kappa_upper_bounds(snap)
            result = csr_decomposition(graph)
            labels = snap.edge_labels()
            endpoints = list(snap.edge_endpoints)
            for eid, edge in enumerate(labels):
                u, v = endpoints[2 * eid], endpoints[2 * eid + 1]
                assert result.kappa[edge] <= min(h[u], h[v]) - 1 + 1, (
                    name, edge
                )  # kappa <= min(h)-1; +1 slack is never needed:
                assert result.kappa[edge] <= max(min(h[u], h[v]) - 1, 0)

    def test_floor_admission_preserves_kappa_at_or_above_floor(self):
        # two_k4 has kappa 1 on the bridge star and 2 inside the cliques;
        # floor=2 may prune star-only partitions but every kappa >= 2
        # must come out exact.
        graph = graph_zoo()["two_k4"]
        want = csr_decomposition(graph).kappa
        for floor in (1, 2):
            info = {}
            got = external_decomposition(
                graph, partitions=6, floor=floor, info=info
            )
            assert {
                e: k for e, k in got.kappa.items() if k >= floor
            } == {e: k for e, k in want.items() if k >= floor}, floor
        # a floor above the max kappa prunes everything
        info = {}
        got = external_decomposition(
            graph, partitions=6, floor=50, info=info
        )
        assert info["bound_prune_hits"] == info["partitions"]
        assert all(k < 50 for k in got.kappa.values())

    def test_floor_zero_never_prunes(self):
        info = {}
        external_decomposition(graph_zoo()["two_k4"], partitions=6, info=info)
        assert info["bound_prune_hits"] == 0
        assert info["admitted"] == info["partitions"]


# ------------------------------------------------------------------ #
# spill-format fault matrix (pattern: tests/test_persistence.py)
# ------------------------------------------------------------------ #


class TestSpillFaults:
    def build(self, tmp_path, name="spill"):
        spill = str(tmp_path / name)
        ExternalCSR.build(
            graph_zoo()["er_medium"], spill, partitions=3
        ).close()
        return spill

    def test_spill_error_is_a_backend_error(self):
        assert issubclass(SpillError, BackendError)

    def test_missing_manifest(self, tmp_path):
        spill = self.build(tmp_path)
        manifest = os.path.join(spill, MANIFEST_NAME)
        os.remove(manifest)
        with pytest.raises(SpillError, match="manifest missing") as excinfo:
            ExternalCSR.open(spill)
        assert excinfo.value.path == manifest
        assert manifest in str(excinfo.value)

    def test_corrupt_manifest_json(self, tmp_path):
        spill = self.build(tmp_path)
        manifest = os.path.join(spill, MANIFEST_NAME)
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(SpillError, match="invalid manifest JSON"):
            ExternalCSR.open(spill)

    def test_format_version_mismatch(self, tmp_path):
        spill = self.build(tmp_path)
        manifest = os.path.join(spill, MANIFEST_NAME)
        with open(manifest, encoding="utf-8") as fh:
            data = json.load(fh)
        data["format"] = "repro.spill-csr/999"
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with pytest.raises(SpillError, match="unsupported spill format") \
                as excinfo:
            ExternalCSR.open(spill)
        assert SPILL_FORMAT in str(excinfo.value)
        assert excinfo.value.path == manifest

    def test_truncated_column_file(self, tmp_path):
        spill = self.build(tmp_path)
        column = os.path.join(spill, "indices.bin")
        size = os.path.getsize(column)
        with open(column, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(SpillError, match="truncated column") as excinfo:
            ExternalCSR.open(spill)
        assert excinfo.value.path == column
        assert str(size) in str(excinfo.value)

    def test_missing_column_file(self, tmp_path):
        spill = self.build(tmp_path)
        column = os.path.join(spill, "indptr.bin")
        os.remove(column)
        with pytest.raises(SpillError, match="column missing") as excinfo:
            ExternalCSR.open(spill)
        assert excinfo.value.path == column

    def test_bad_checksum_caught_at_open(self, tmp_path):
        spill = self.build(tmp_path)
        column = os.path.join(spill, "arc_eids.bin")
        with open(column, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\xff" * 8)
        with pytest.raises(SpillError, match="checksum mismatch") as excinfo:
            ExternalCSR.open(spill, verify=True)
        assert excinfo.value.path == column

    def test_partition_checksum_recheck_at_admission(self, tmp_path):
        # Corruption appearing *after* open (verify=False fast path) must
        # still surface at admission time, before any wrong triangle work.
        spill = self.build(tmp_path)
        ext = ExternalCSR.open(spill, verify=False)
        try:
            column = os.path.join(spill, "indices.bin")
            with open(column, "r+b") as fh:
                fh.write(b"\x7f" * 8)
            with pytest.raises(SpillError, match="partition 0") as excinfo:
                decompose_spill(ext)
            assert excinfo.value.path == column
        finally:
            ext.close()

    def test_spill_dir_deleted_mid_run(self, tmp_path):
        import shutil

        spill = self.build(tmp_path)
        ext = ExternalCSR.open(spill, verify=False)
        try:
            shutil.rmtree(spill)
            # Linux keeps the existing maps alive after the unlink, so
            # the fault surfaces at the next filesystem touch — the
            # partition checksum re-read (or, with verification already
            # spent, the scratch-directory creation).  Either way it is
            # the typed error naming a path inside the vanished dir.
            with pytest.raises(SpillError) as excinfo:
                decompose_spill(ext)
            assert excinfo.value.path.startswith(spill)
        finally:
            ext.close()

    def test_crc_helper_matches_zlib(self, tmp_path):
        payload = bytes(range(256)) * 41
        path = tmp_path / "blob.bin"
        path.write_bytes(payload)
        from repro.fast.external import _crc_of_file

        assert _crc_of_file(str(path)) == zlib.crc32(payload)
        assert _crc_of_file(str(path), 8, 16) == zlib.crc32(payload[8:24])


# ------------------------------------------------------------------ #
# crash cleanup (pattern: tests/test_shared_csr.py)
# ------------------------------------------------------------------ #


class TestCrashCleanup:
    def test_sigkilled_run_leaves_no_stale_scratch(self, tmp_path):
        # A child dies via os._exit(13) right after writing its first
        # triangle spill file; its scratch dir survives the crash, and the
        # next open must reap it (dead pid).
        spill = str(tmp_path / "spill")
        script = (
            "import os, sys\n"
            "os.environ['_REPRO_EXTERNAL_CRASH_TEST'] = '1'\n"
            "from repro.graph import erdos_renyi\n"
            "from repro.fast.external import external_decomposition\n"
            "external_decomposition(erdos_renyi(30, 0.2, seed=2), "
            f"spill_dir={spill!r}, partitions=3)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120
        )
        assert proc.returncode == 13
        stale = [
            d for d in os.listdir(spill) if d.startswith("scratch-")
        ]
        assert stale, "crash should have left a scratch directory behind"
        removed = cleanup_stale(spill)
        assert len(removed) == len(stale)
        assert not any(
            d.startswith("scratch-") for d in os.listdir(spill)
        )
        # and the spill itself is still usable afterwards
        ext = ExternalCSR.open(spill, verify=True)
        try:
            got = decompose_spill(ext)
        finally:
            ext.close()
        want = csr_decomposition(erdos_renyi(30, 0.2, seed=2))
        assert got.kappa == want.kappa

    def test_open_reaps_stale_scratch_automatically(self, tmp_path):
        spill = str(tmp_path / "spill")
        ExternalCSR.build(complete_graph(5), spill, partitions=2).close()
        fake = os.path.join(spill, "scratch-999999999-deadbeef")
        os.makedirs(fake)
        ext = ExternalCSR.open(spill, verify=False)
        ext.close()
        assert not os.path.exists(fake)

    def test_live_pid_scratch_left_alone(self, tmp_path):
        spill = str(tmp_path / "spill")
        ExternalCSR.build(complete_graph(5), spill, partitions=2).close()
        mine = os.path.join(spill, f"scratch-{os.getpid()}-cafe")
        os.makedirs(mine)
        try:
            assert cleanup_stale(spill) == []
            assert os.path.exists(mine)
        finally:
            os.rmdir(mine)

    def test_successful_run_leaves_no_scratch(self, tmp_path):
        spill = str(tmp_path / "spill")
        external_decomposition(
            complete_graph(6), spill_dir=spill, partitions=3
        )
        assert not any(
            d.startswith("scratch-") for d in os.listdir(spill)
        )


# ------------------------------------------------------------------ #
# RSS budget (numpy + resource hosts; recorded skip reasons elsewhere)
# ------------------------------------------------------------------ #

RSS_CHILD = r"""
import json, os, sys
BUILD = sys.argv[1]
SEED, N, TARGET_EDGES = 31, 32768, 250000

def edge_stream():
    # xorshift-ish LCG stream: deterministic, O(1) memory.
    state = SEED
    for _ in range(TARGET_EDGES):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        u = (state >> 20) % N
        v = (state >> 44) % N
        yield u, v

import resource
def rss():
    # ru_maxrss survives execve on Linux, so a child forked from a large
    # pytest parent inherits the parent's high-water mark and measures a
    # delta of 0.  VmHWM belongs to the process's own mm (reset on exec)
    # and uses the same kB units as Linux ru_maxrss; fall back to
    # ru_maxrss where /proc is unavailable.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

import numpy  # noqa: F401 - baseline includes numpy pages
baseline = rss()
if BUILD == "external":
    import tempfile
    from repro.fast.external import spill_edges, decompose_spill
    d = tempfile.mkdtemp(prefix="repro-rss-")
    ext = spill_edges(edge_stream(), N, d, memory_budget=64 << 20)
    try:
        kappa, order = decompose_spill(
            ext, memory_budget=64 << 20, decode=False
        )
        m = len(kappa)
    finally:
        ext.close()
        import shutil
        shutil.rmtree(d, ignore_errors=True)
else:
    from repro.graph import Graph
    from repro.fast import csr_decomposition
    g = Graph()
    for v in range(N):
        g.add_vertex(v)
    seen = set()
    for u, v in edge_stream():
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            g.add_edge(u, v)
    del seen
    result = csr_decomposition(g)
    m = len(result.kappa)
print(json.dumps({"baseline": baseline, "peak": rss(), "edges": m}))
"""


class TestRSSBudget:
    CAP_BYTES = 64 << 20

    def run_child(self, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, mode],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_external_stays_under_cap_that_in_ram_exceeds(self):
        try:
            import resource  # noqa: F401
        except ImportError:
            pytest.skip(
                "recorded skip: stdlib 'resource' unavailable on this host, "
                "RSS high-water cannot be measured"
            )
        if csr_mod.np is None:
            pytest.skip(
                "recorded skip: numpy unavailable — the pure kernels are too "
                "slow at the graph size the cap requires; the strict RSS "
                "gate is numpy-only by design"
            )
        ram = self.run_child("in-ram")
        ext = self.run_child("external")
        assert ext["edges"] == ram["edges"]  # same graph both sides
        ram_delta = maxrss_bytes(ram["peak"]) - maxrss_bytes(ram["baseline"])
        ext_delta = maxrss_bytes(ext["peak"]) - maxrss_bytes(ext["baseline"])
        # The in-RAM build must genuinely bust the cap on this graph —
        # otherwise the external assertion below would be vacuous.
        assert ram_delta > self.CAP_BYTES, (
            f"in-RAM delta {ram_delta} unexpectedly under the "
            f"{self.CAP_BYTES} cap; grow TARGET_EDGES"
        )
        assert ext_delta <= self.CAP_BYTES, (
            f"external peak delta {ext_delta} exceeds the "
            f"{self.CAP_BYTES} byte cap (in-RAM needed {ram_delta})"
        )

    def test_maxrss_helper_units(self):
        # Linux ru_maxrss is KiB; the helper must scale it to bytes.
        if sys.platform == "darwin":
            assert maxrss_bytes(4096) == 4096
        else:
            assert maxrss_bytes(4096) == 4096 * 1024


# ------------------------------------------------------------------ #
# engine / stats / CLI surface
# ------------------------------------------------------------------ #


class TestEngineSurface:
    def test_registered_in_engine(self):
        from repro.engine import Engine
        from repro.engine.engine import BACKENDS

        assert "external" in BACKENDS
        eng = Engine(max_cached_graphs=0)
        graph = complete_graph(6)
        want = csr_decomposition(graph)
        got = eng.decompose(graph, backend="external")
        assert got.kappa == want.kappa
        payload = eng.stats_dict()
        ext = payload["external"]
        assert ext["decompositions"] == 1
        assert ext["partitions"] == DEFAULT_PARTITIONS
        assert ext["passes"] > 0
        assert ext["bytes_mapped"] > 0
        assert ext["bound_prune_hits"] == 0

    def test_core_api_dispatches_to_external(self, monkeypatch):
        calls = []
        real = fast_mod.external_decomposition

        def spy(graph, **kwargs):
            calls.append(graph)
            return real(graph, **kwargs)

        monkeypatch.setattr(fast_mod, "external_decomposition", spy)
        graph = graph_zoo()["er_medium"]
        want = csr_decomposition(graph, executor="vector")
        got = triangle_kcore_decomposition(graph, backend="external")
        assert calls == [graph]
        assert got.kappa == want.kappa
        assert got.processing_order == want.processing_order
        # auto's out-of-core escalation lands in the same path.
        monkeypatch.setattr(fast_mod, "AUTO_EXTERNAL_MIN_EDGES", 1)
        triangle_kcore_decomposition(graph)
        assert calls == [graph, graph]

    def test_counts_and_supports_run_the_csr_kernel(self, monkeypatch):
        # external's supports and count are in-RAM CSR kernel answers; they
        # never fall back to the dict reference enumeration.
        import repro.graph.triangles as triangles_mod
        from repro.engine import Engine

        graph = graph_zoo()["er_medium"]
        want = (
            triangles_mod.count_triangles(graph, backend="reference"),
            triangles_mod.triangle_supports(graph, backend="reference"),
        )
        calls = []
        real = triangles_mod.enumerate_triangles

        def spy(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(triangles_mod, "enumerate_triangles", spy)

        def answers(backend):
            engine = Engine(max_cached_graphs=0)
            return [
                (
                    engine.count_triangles(graph, backend=backend),
                    engine.triangle_supports(graph, backend=backend),
                ),
                (
                    triangles_mod.count_triangles(graph, backend=backend),
                    triangles_mod.triangle_supports(graph, backend=backend),
                ),
            ]

        got = answers("external")
        # auto's out-of-core escalation lands in the same row.
        monkeypatch.setattr(fast_mod, "AUTO_EXTERNAL_MIN_EDGES", 1)
        assert fast_mod.resolve_backend("auto", graph) == "external"
        got += answers("auto")
        assert calls == []
        assert got == [want] * 4

    def test_membership_refused(self):
        from repro.engine import Engine

        with pytest.raises(ValueError, match="membership"):
            Engine(max_cached_graphs=0).decompose(
                complete_graph(4), backend="external", store_membership=True
            )

    def test_auto_escalates_on_memory_budget(self):
        from repro.engine import Engine

        graph = erdos_renyi(40, 0.2, seed=0)
        assert Engine(
            max_cached_graphs=0, memory_budget=128
        ).resolve("auto", graph) == "external"
        assert Engine(max_cached_graphs=0).resolve(
            "auto", graph
        ) != "external"

    def test_memory_budget_validated(self):
        from repro.engine import Engine

        with pytest.raises(ValueError, match="memory_budget"):
            Engine(memory_budget=0)

    def test_cli_size_parser(self):
        from repro.cli import _parse_size

        assert _parse_size("256M") == 256 << 20
        assert _parse_size("1G") == 1 << 30
        assert _parse_size("64k") == 64 << 10
        assert _parse_size("12345") == 12345
        with pytest.raises(Exception, match="invalid size"):
            _parse_size("lots")

    def test_cli_decompose_with_external_backend(self, tmp_path, capsys):
        from repro.cli import main

        edge_file = tmp_path / "g.txt"
        edge_file.write_text(
            "".join(f"{u} {v}\n" for u, v in complete_graph(6).edges())
        )
        rc = main([
            "decompose", str(edge_file),
            "--backend", "external",
            "--spill-dir", str(tmp_path / "spill"),
            "--memory-budget", "16M",
            "--stats",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["external"]["decompositions"] == 1
        assert payload["backend_calls"]["external"] == 1

    def test_oracle_registration(self):
        from repro.testing.oracles import (
            ORACLE_NAMES, CheckpointOracles, DEFAULT_ORACLES,
        )

        assert "external" in ORACLE_NAMES
        oracles = CheckpointOracles(
            DEFAULT_ORACLES + ("external",), external_partitions=3
        )
        graph = complete_graph(5)
        answers = oracles.evaluate(graph)
        assert answers["external"] == answers["csr"]
