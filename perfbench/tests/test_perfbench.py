"""Tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import harness
import run
import workload_service
import workload_static

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------- #
# percentile helper
# ---------------------------------------------------------------------- #


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))  # unsorted input
    assert harness.percentile(values, 0.5) == 51
    assert harness.percentile(values, 0.75) == 76
    assert harness.percentile(values, 0.25) == 26
    assert harness.percentile(range(1010), 0.99) == 999


def test_percentile_needs_ten_samples_beyond_the_upper_tail():
    # p75 of n samples sits at index int(0.75 n); 41 samples leave 10 above.
    assert harness.percentile(range(41), 0.75) == 30
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(range(40), 0.75)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(range(999), 0.99)


def test_percentile_needs_ten_samples_beyond_the_lower_tail():
    assert harness.percentile(range(40), 0.25) == 10
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(range(39), 0.25)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile([], 0.5)
    with pytest.raises(harness.InsufficientSamples):
        harness.median([])
    with pytest.raises(ValueError):
        harness.percentile(range(100), 1.0)


def test_tracer_nests_spans_and_reports_durations():
    tracer = harness.Tracer()
    with tracer.span("op") as root:
        with tracer.span("layer"):
            pass
    spans = {s["name"]: s for s in tracer.dump()}
    assert spans["layer"]["parent"] == root
    assert spans["op"]["parent"] == 0
    assert spans["op"]["start"] <= spans["layer"]["start"] <= spans["layer"]["end"] <= spans["op"]["end"]
    assert len(tracer.durations("layer")) == 1


def test_fingerprint_names_the_host_and_commit():
    fp = harness.fingerprint(ROOT)
    assert set(fp) >= {"cpu_count", "python", "numpy", "git_sha"}
    assert harness.git_sha(ROOT / "no-such-dir") == "unknown"


# ---------------------------------------------------------------------- #
# correctness checks reject wrong answers
# ---------------------------------------------------------------------- #


def test_kappa_mismatches_reports_histogram_and_edge():
    expected = {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert harness.kappa_mismatches(dict(expected), expected) == []
    wrong = dict(expected)
    wrong[(1, 2)] = 2
    problems = harness.kappa_mismatches(wrong, expected)
    assert any("histogram" in p for p in problems)
    assert any("(1, 2)" in p for p in problems)


def test_static_check_rejects_an_injected_wrong_kappa():
    from repro.engine import Engine
    from repro.graph.generators import powerlaw_cluster

    graph = powerlaw_cluster(300, 4, 0.9, seed=5)
    result = Engine().decompose(graph, use_cache=False)
    reference = workload_static._reference_kappa(graph)
    good = result.histogram()
    assert workload_static._check(reference, result, [good, good]) == ([], 0)

    edge = next(iter(result.kappa))
    result.kappa[edge] += 1
    problems, wrong = workload_static._check(reference, result, [good, result.histogram()])
    assert wrong == 1
    assert any(str(edge) in p for p in problems)
    assert any("histograms differ" in p for p in problems)


def test_service_check_rejects_an_injected_wrong_kappa():
    from repro.core.triangle_kcore import triangle_kcore_decomposition
    from repro.graph.generators import powerlaw_cluster

    graph = powerlaw_cluster(300, 4, 0.9, seed=6)
    kappa = dict(triangle_kcore_decomposition(graph, backend="reference").kappa)
    writer = SimpleNamespace(acked=[])
    served = SimpleNamespace(graph=graph, maintainer=SimpleNamespace(kappa=kappa))
    reads = {edge: kappa[edge] for edge in list(kappa)[:20]}
    assert workload_service._check(graph, writer, served, reads) == []

    edge = next(iter(reads))
    reads[edge] += 1
    assert any("GET /kappa" in p for p in workload_service._check(graph, writer, served, reads))
    kappa[edge] += 1
    assert any(str(edge) in p for p in workload_service._check(graph, writer, served, {}))


def test_service_check_rejects_a_lost_write():
    from repro.core.triangle_kcore import triangle_kcore_decomposition
    from repro.graph.generators import powerlaw_cluster

    graph = powerlaw_cluster(300, 4, 0.9, seed=6)
    kappa = dict(triangle_kcore_decomposition(graph, backend="reference").kappa)
    writer = SimpleNamespace(acked=[("add", 0, 10_000)])
    served = SimpleNamespace(graph=graph, maintainer=SimpleNamespace(kappa=kappa))
    assert any("acknowledged" in p for p in workload_service._check(graph, writer, served, {}))


def test_writer_ops_stay_valid_and_bounded():
    from repro.datasets import load

    graph = load("dblp").graph
    _, candidates = workload_service.make_plan(graph, 7)
    assert len(set(candidates)) == len(candidates) == workload_service.CANDIDATES
    assert not any(graph.has_edge(u, v) for u, v in candidates)
    live = set()
    ops = workload_service.writer_ops(candidates, workload_service.LIVE_EDGES)
    for _ in range(4 * workload_service.CANDIDATES):
        kind, u, v = next(ops)
        if kind == "add":
            assert (u, v) not in live
            live.add((u, v))
        else:
            live.remove((u, v))
        assert len(live) <= workload_service.LIVE_EDGES


def test_plans_are_a_function_of_the_seed():
    from repro.datasets import load

    graph = load("dblp").graph
    assert workload_service.make_plan(graph, 3) == workload_service.make_plan(graph, 3)
    assert workload_service.make_plan(graph, 3) != workload_service.make_plan(graph, 4)
    a, b = workload_static.sparse_graph(3), workload_static.sparse_graph(3)
    assert list(a.edges()) == list(b.edges())
    assert a.num_edges == workload_static.sparse_graph(4).num_edges == 98304


# ---------------------------------------------------------------------- #
# process hygiene
# ---------------------------------------------------------------------- #


def test_reap_reports_and_stops_a_leaked_child_and_thread():
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    child.start()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="leaky")
    thread.start()
    try:
        problems = harness.reap_and_report()
    finally:
        release.set()
        thread.join(timeout=10)
    assert any("leaky" in p for p in problems)
    assert any(str(child.pid) in p for p in problems)
    assert not child.is_alive()
    assert harness.reap_and_report() == []


def test_stop_flag_ends_every_deadline():
    # The signal handler sets the flag, so an interruption whose raise the
    # interpreter swallowed still ends the measuring loops.
    deadline = harness.Deadline(60)
    assert not deadline.passed()
    harness.STOP.set()
    try:
        assert deadline.passed()
    finally:
        harness.STOP.clear()


# ---------------------------------------------------------------------- #
# short end-to-end runs
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", ["decompose_sparse", "decompose_dense", "service_mixed"])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_is_correct_and_leaves_nothing_behind(workload, trace, monkeypatch, capsys):
    # Short runs cannot support the ten-beyond tails; the rule itself is
    # covered by the percentile tests above.
    monkeypatch.setattr(harness, "MIN_BEYOND", 1)
    status = run.main(
        ["--workload", workload, "--seed", "2", "--seconds", "2", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_ratio"] == 0
    spec = run.load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert multiprocessing.active_children() == []
    assert harness._os_children() == []
    assert [t for t in threading.enumerate() if not t.daemon] == [threading.main_thread()]


def _processes_mentioning(marker: str):
    """Pids (other than this one) whose command line contains ``marker``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != os.getpid():
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            if marker.encode() in cmdline:
                pids.append(int(entry))
    return pids


@pytest.mark.parametrize("workload", ["decompose_sparse", "service_mixed"])
def test_sigterm_stops_the_run_without_a_result_or_leftovers(workload):
    # The seed marks the run's processes: forked pool workers share the
    # parent's command line.
    seed = "987123"
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed, "--seconds", "60"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        time.sleep(8)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, err
    assert "perfbench: interrupted by" in err
    assert '"correct"' not in out
    assert _processes_mentioning(f"--seed\0{seed}") == []


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose_dense", "--seed", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
