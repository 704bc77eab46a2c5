"""Command-line interface: ``triangle-kcore`` / ``python -m repro``.

Subcommands
-----------

* ``decompose`` — run Algorithm 1 on an edge-list file or named dataset and
  print the kappa histogram (optionally dump per-edge values).
* ``plot`` — render the density plot of a graph to ASCII or SVG.
* ``dualview`` — Algorithm 3's two linked plots for a snapshot pair.
* ``update`` — benchmark incremental maintenance vs recompute on a graph
  with a random churn fraction (a one-dataset Table III row).
* ``templates`` — detect New Form / Bridge / New Join cliques between two
  snapshots.
* ``datasets`` — list the built-in dataset stand-ins.
* ``fuzz`` — differential oracle fuzzing of the dynamic maintainer
  (see docs/testing.md): generate seeded workloads, cross-check every
  oracle, shrink and dump any divergence as a replayable JSON bundle.
* ``serve`` — run the long-lived HTTP/JSON query service
  (see docs/SERVICE.md): load a graph once, answer kappa / community /
  hierarchy / template queries and ingest live edit batches, with
  bounded-queue backpressure and a clean SIGTERM drain.

Every decomposition-running subcommand routes through a private
:class:`repro.engine.Engine` and accepts ``--backend`` (any engine
backend, including ``dynamic``) plus ``--stats``, which prints the
engine's structured instrumentation payload as one JSON object on the
last line of output (machine-readable; everything else goes to the lines
above it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .graph.io import read_edge_list
from .graph.undirected import Graph
from .testing.workloads import PROFILES as _WORKLOAD_PROFILES


def _load_graph(spec: str) -> Graph:
    """Interpret ``spec`` as a dataset name, else as an edge-list path."""
    from .datasets import load, names

    if spec in names():
        return load(spec).graph
    return read_edge_list(spec)


def _parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix (``"256M"``)."""
    raw = text.strip()
    multiplier = 1
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if raw and raw[-1].upper() in suffixes:
        multiplier = suffixes[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = int(raw) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}; expected an integer with an optional "
            "K/M/G suffix (e.g. 256M)"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"size must be >= 1 byte, got {text!r}"
        )
    return value


def _make_engine(args: argparse.Namespace):
    """Fresh engine per invocation so ``--stats`` covers exactly this run."""
    from .engine import Engine

    return Engine(
        default_backend=getattr(args, "backend", None) or "auto",
        spill_dir=getattr(args, "spill_dir", None),
        memory_budget=getattr(args, "memory_budget", None),
    )


def _emit_stats(args: argparse.Namespace, engine) -> None:
    """Print the instrumentation payload as the last output line."""
    if getattr(args, "stats", False):
        print(json.dumps(engine.stats_dict(), sort_keys=True))


def _add_engine_arguments(p: argparse.ArgumentParser) -> None:
    from .engine import BACKENDS

    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="decomposition implementation: dict-based reference, "
        "flat-array CSR kernels (csr, csr-vec with the vectorized peel), "
        "out-of-core spill (external), incremental dynamic maintenance, "
        "or auto (size-based, default)",
    )
    p.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="spill directory for the external backend (default: a "
        "private temporary directory removed after the run)",
    )
    p.add_argument(
        "--memory-budget",
        type=_parse_size,
        default=None,
        metavar="BYTES",
        help="resident-memory budget for the external backend's partition "
        "sizing, and the auto policy's spill threshold; accepts K/M/G "
        "suffixes (e.g. 256M)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print engine instrumentation (stage timings, counters, "
        "cache hits) as one JSON object on the last line",
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    backend = args.backend or "auto"
    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    start = time.perf_counter()
    try:
        result = engine.decompose(
            graph, backend=backend, store_membership=args.membership
        )
    except ValueError as error:
        if not args.membership:
            raise
        print(
            f"error: {error}; --membership needs --backend auto or reference",
            file=sys.stderr,
        )
        return 2
    elapsed = time.perf_counter() - start
    print(f"graph: |V|={graph.num_vertices} |E|={graph.num_edges}")
    print(
        f"decomposition ({backend} backend): {elapsed:.3f}s, "
        f"max kappa = {result.max_kappa}"
    )
    print("kappa histogram (kappa: edges):")
    for value, count in result.histogram().items():
        print(f"  {value:4d}: {count}")
    if args.membership and result.membership is not None:
        in_core = sum(
            result.membership.count(edge) for edge in result.membership.edges()
        )
        print(
            f"membership: {in_core} (triangle, edge) maximum-core records "
            f"across {len(result.kappa)} edges"
        )
    if args.output:
        if str(args.output).endswith(".json"):
            from .core import save_result

            save_result(result, args.output)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                for (u, v), k in sorted(result.kappa.items(), key=repr):
                    handle.write(f"{u} {v} {k}\n")
        print(f"per-edge kappa written to {args.output}")
    _emit_stats(args, engine)
    return 0


def _cmd_communities(args: argparse.Namespace) -> int:
    from .core import CommunityIndex

    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    index = CommunityIndex(graph, backend=args.backend, engine=engine)
    if args.vertex is not None:
        vertex: object = args.vertex
        if not graph.has_vertex(vertex):
            try:
                vertex = int(args.vertex)
            except ValueError:
                pass
        level, members = index.densest_community_of_vertex(vertex)
        print(
            f"densest community of {vertex!r}: level {level} "
            f"(~{level + 2}-clique), {len(members)} vertices"
        )
        print("  " + ", ".join(sorted(map(str, members))[:20]))
        _emit_stats(args, engine)
        return 0
    level = args.level if args.level is not None else index.max_level
    communities = index.communities_at(level)
    print(f"level {level}: {len(communities)} triangle-connected communities")
    for rank, edges in enumerate(communities[: args.top], start=1):
        from .core import vertex_set_of_edges

        vertices = sorted(map(str, vertex_set_of_edges(edges)))
        print(f"  #{rank}: {len(vertices)} vertices: {', '.join(vertices[:12])}")
    _emit_stats(args, engine)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from .viz import (
        density_plot,
        density_plot_svg,
        explorer_html,
        render,
        save_explorer,
        save_svg,
    )

    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    result = engine.decompose(graph, backend=args.backend)
    plot = density_plot(graph, result, title=args.graph)
    if args.interactive:
        save_explorer(
            explorer_html(plot, title=f"Explorer: {args.graph}"),
            args.interactive,
        )
        print(f"interactive explorer written to {args.interactive}")
    elif args.svg:
        save_svg(density_plot_svg(plot), args.svg)
        print(f"SVG written to {args.svg}")
    else:
        print(render(plot, height=args.height, width=args.width))
    _emit_stats(args, engine)
    return 0


def _cmd_dualview(args: argparse.Namespace) -> int:
    from .viz import density_plot_svg, render, save_svg
    from .viz.dual_view import dual_view_from_snapshots

    engine = _make_engine(args)
    old_graph = _load_graph(args.old)
    new_graph = _load_graph(args.new)
    views = dual_view_from_snapshots(
        old_graph, new_graph, backend=args.backend, engine=engine
    )
    print(
        f"dual view: +{len(views.added_edges)} / -{len(views.removed_edges)} "
        f"edges between snapshots"
    )
    if args.svg:
        before_path = f"{args.svg}_before.svg"
        after_path = f"{args.svg}_after.svg"
        save_svg(density_plot_svg(views.before), before_path)
        save_svg(density_plot_svg(views.after), after_path)
        print(f"SVGs written to {before_path} and {after_path}")
    else:
        print(render(views.before, height=args.height, width=args.width))
        print(render(views.after, height=args.height, width=args.width))
    _emit_stats(args, engine)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .baselines.recompute import RecomputeBaseline
    from .graph.generators import random_edge_sample, random_non_edges

    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    removed = random_edge_sample(graph, args.fraction / 2, seed=args.seed)
    added = random_non_edges(
        graph, len(removed), seed=args.seed, triangle_closing=True
    )
    print(
        f"graph: |V|={graph.num_vertices} |E|={graph.num_edges}; "
        f"churn: +{len(added)} / -{len(removed)} edges"
    )

    maintainer = engine.maintainer(graph)
    start = time.perf_counter()
    maintainer.apply(added=added, removed=removed)
    update_seconds = time.perf_counter() - start

    baseline = RecomputeBaseline(graph, engine=engine)
    run = baseline.apply(added=added, removed=removed)

    assert maintainer.kappa == baseline.kappa, "dynamic != recompute"
    print(f"incremental update: {update_seconds:.4f}s")
    print(f"recompute (peel):   {run.seconds:.4f}s")
    if update_seconds > 0:
        print(f"speedup: {run.seconds / update_seconds:.1f}x")
    _emit_stats(args, engine)
    return 0


def _cmd_templates(args: argparse.Namespace) -> int:
    from .templates import BUILTIN_TEMPLATES, detect_on_snapshots

    engine = _make_engine(args)
    old_graph = _load_graph(args.old)
    new_graph = _load_graph(args.new)
    spec = BUILTIN_TEMPLATES[args.pattern]
    detection = detect_on_snapshots(
        old_graph, new_graph, spec, backend=args.backend, engine=engine
    )
    print(
        f"{spec.name}: {len(detection.characteristic_triangles)} "
        f"characteristic triangles, {len(detection.special_edges)} special "
        f"edges"
    )
    for index, (kappa, vertices) in enumerate(detection.densest_cliques()):
        if index >= args.top:
            break
        print(
            f"  #{index + 1}: ~{kappa + 2}-vertex pattern clique: "
            f"{sorted(vertices, key=repr)}"
        )
    _emit_stats(args, engine)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .viz import decomposition_report

    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    result = engine.decompose(graph, backend=args.backend)
    report = decomposition_report(graph, result, title=f"Analysis of {args.graph}")
    report.save(args.output)
    print(f"HTML report written to {args.output}")
    _emit_stats(args, engine)
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from .analysis import track_communities
    from .graph import SnapshotStream

    engine = _make_engine(args)
    if args.dataset:
        from .datasets import load

        dataset = load(args.dataset)
        if not dataset.snapshots:
            print(f"dataset {args.dataset!r} has no snapshots")
            return 1
        stream = SnapshotStream(dataset.snapshots)
        labels = dataset.snapshot_labels or [
            str(i) for i in range(len(stream))
        ]
    else:
        snapshots = [_load_graph(path) for path in args.snapshots]
        stream = SnapshotStream(snapshots)
        labels = [str(i) for i in range(len(stream))]

    timeline = track_communities(
        stream,
        min_kappa=args.min_kappa,
        backend=args.backend,
        engine=engine,
    )
    print(f"summary: {timeline.summary()}")
    for transition in timeline.transitions:
        if transition.kind == "continue" and not args.verbose:
            continue
        before = [c.size for c in transition.before]
        after = [c.size for c in transition.after]
        print(
            f"  {labels[transition.snapshot]}: {transition.kind} "
            f"{before} -> {after}"
        )
    _emit_stats(args, engine)
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from .core import CommunityHierarchy

    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    hierarchy = CommunityHierarchy(graph, backend=args.backend, engine=engine)
    print(hierarchy.ascii_tree(max_children=args.max_children))
    _emit_stats(args, engine)
    return 0


def _cmd_maxcore(args: argparse.Namespace) -> int:
    from .core import max_triangle_kcore

    graph = _load_graph(args.graph)
    start = time.perf_counter()
    k, sub = max_triangle_kcore(graph)
    elapsed = time.perf_counter() - start
    print(
        f"densest Triangle K-Core: kappa {k} (~{k + 2}-clique), "
        f"{sub.num_vertices} vertices, {sub.num_edges} edges  "
        f"({elapsed:.3f}s, top-down)"
    )
    for vertex in sorted(map(str, sub.vertices()))[:30]:
        print(f"  {vertex}")
    if sub.num_vertices > 30:
        print(f"  ... {sub.num_vertices - 30} more")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from .core import kappa_bounds

    engine = _make_engine(args)
    graph = _load_graph(args.graph)

    def resolve(token: str) -> object:
        if graph.has_vertex(token):
            return token
        try:
            number = int(token)
        except ValueError:
            return token
        return number if graph.has_vertex(number) else token

    u, v = resolve(args.u), resolve(args.v)
    lower, upper = kappa_bounds(
        graph,
        u,
        v,
        radius=args.radius,
        sweeps=args.radius,
        backend=args.backend,
        engine=engine,
    )
    certainty = "exact" if lower == upper else "bounds"
    print(
        f"kappa({u!r}, {v!r}) in [{lower}, {upper}] ({certainty}; "
        f"radius {args.radius} neighborhood only)"
    )
    print(
        f"edge participates in a ~{lower + 2}"
        + (f"-to-{upper + 2}" if lower != upper else "")
        + "-vertex clique-like structure"
    )
    _emit_stats(args, engine)
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .analysis import robustness_report

    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    fractions = tuple(args.fractions)
    report = robustness_report(
        graph,
        fractions=fractions,
        trials_per_fraction=args.trials,
        mode=args.mode,
        seed=args.seed,
        method=args.method,
        backend=args.backend,
        engine=engine,
    )
    print(
        f"baseline densest core: kappa {report.baseline_max_kappa}, "
        f"{len(report.baseline_core)} vertices"
    )
    for fraction in fractions:
        print(
            f"  {fraction:>6.1%} edge loss: core kappa retained "
            f"{report.mean_core_kappa_after(fraction):.1f}"
            f"/{report.baseline_max_kappa}, champion overlap "
            f"{report.mean_core_overlap(fraction):.2f}"
        )
    print(f"breakdown (<50% density retained) at ~{report.breakdown_fraction():.0%}")
    _emit_stats(args, engine)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import (
        PROFILES,
        ReproBundle,
        batch_boundary_bug_sut,
        fuzz,
        perturbed_sut_factory,
        replay,
    )

    if args.replay:
        bundle = ReproBundle.load(args.replay)
        print(
            f"replaying bundle: {len(bundle.script)} ops, "
            f"profile={bundle.profile or '?'}, seed={bundle.seed}"
        )
        if bundle.apply_mode != "per_op":
            print(
                f"batch mode: chunks of {bundle.batch_ops} ops via "
                f"diff_apply(strategy={bundle.batch_strategy!r})"
            )
        factory = (
            perturbed_sut_factory(args.perturb_level)
            if args.perturb_level is not None
            else (batch_boundary_bug_sut if args.batch_bug else None)
        )
        report = replay(bundle, **({"sut_factory": factory} if factory else {}))
        if report.ok:
            print(
                f"replay clean: {report.steps} ops, "
                f"{report.checkpoints} checkpoints, oracles={report.oracles}"
            )
            return 0
        d = report.divergence
        print(f"replay DIVERGED at op {d.step} [{d.kind}]: {d.message}")
        for u, v, want, got in d.diff[:10]:
            print(f"  edge ({u!r}, {v!r}): expected kappa {want}, got {got}")
        return 1

    profiles = sorted(PROFILES) if args.profile == "all" else [args.profile]
    extra_kwargs = {}
    if args.strategy != "per_op":
        extra_kwargs["apply_mode"] = "batch"
        extra_kwargs["batch_ops"] = args.batch_ops
        extra_kwargs["batch_strategy"] = args.strategy
        print(
            f"batch mode: chunks of {args.batch_ops} ops applied via "
            f"diff_apply(strategy={args.strategy!r})"
        )
    if args.perturb_level is not None and args.batch_bug:
        print("--perturb-level and --batch-bug are mutually exclusive")
        return 2
    if args.perturb_level is not None:
        extra_kwargs["sut_factory"] = perturbed_sut_factory(
            args.perturb_level
        )
        print(
            f"self-test: injecting off-by-one kappa bug at level "
            f"{args.perturb_level}"
        )
    if args.batch_bug:
        extra_kwargs["sut_factory"] = batch_boundary_bug_sut
        print(
            "self-test: injecting batch boundary-drop bug "
            "(_trim_batch_region skips one affected-region edge)"
        )
    if args.backend is not None:
        from .testing import DEFAULT_ORACLES

        extra_kwargs["oracles"] = DEFAULT_ORACLES + (args.backend,)
        print(f"extra oracle: {args.backend} backend per checkpoint")
    if getattr(args, "external_bug", False):
        if args.backend != "external":
            print("--external-bug needs --backend external")
            return 2
        print(
            "self-test: injecting boundary-reconciliation bug (dropped "
            "demotion at a partition seam) into the external oracle"
        )
    start = time.perf_counter()
    if getattr(args, "external_bug", False):
        from .fast.external import inject_boundary_drop_bug

        with inject_boundary_drop_bug():
            result = fuzz(
                seed=args.seed,
                ops=args.ops,
                profiles=profiles,
                checkpoint_every=args.checkpoint_every,
                shrink=args.shrink,
                **extra_kwargs,
            )
    else:
        result = fuzz(
            seed=args.seed,
            ops=args.ops,
            profiles=profiles,
            checkpoint_every=args.checkpoint_every,
            shrink=args.shrink,
            **extra_kwargs,
        )
    elapsed = time.perf_counter() - start
    for outcome in result.outcomes:
        status = "clean" if outcome.ok else "DIVERGED"
        print(
            f"  {outcome.profile:16s} seed={outcome.seed} "
            f"ops={outcome.report.steps} "
            f"checkpoints={outcome.report.checkpoints} {status}"
        )
    failure = result.first_failure
    if failure is None:
        oracle_names = (
            result.outcomes[0].report.oracles if result.outcomes else []
        )
        print(
            f"no divergence: {result.total_steps()} ops across "
            f"{len(result.outcomes)} profile(s), oracles={oracle_names} "
            f"({elapsed:.1f}s)"
        )
        return 0
    d = failure.bundle.divergence
    print(
        f"divergence in profile {failure.profile!r} "
        f"[{d.kind}{f'/{d.oracle}' if d.oracle else ''}]: {d.message}"
    )
    if failure.shrink is not None:
        print(
            f"shrunk {failure.shrink.original_ops} -> "
            f"{failure.shrink.shrunk_ops} ops "
            f"({failure.shrink.evaluations} replays)"
        )
    if args.out:
        failure.bundle.save(args.out)
        print(f"repro bundle written to {args.out}")
    else:
        print("re-run with --out bundle.json to save a replayable bundle")
    return 1


def _parse_addr(raw: str) -> tuple:
    """``host:port`` -> ``(host, port)``, with a helpful error."""
    host, separator, port = raw.rpartition(":")
    if not separator or not host:
        raise ValueError(f"expected HOST:PORT, got {raw!r}")
    return host, int(port)


def _announce_line(payload: dict) -> None:
    """One structured stdout line wrappers parse for bound port(s)."""
    from .replication.launcher import ANNOUNCE_PREFIX

    print(ANNOUNCE_PREFIX + json.dumps(payload, sort_keys=True), flush=True)


def _serve_common_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        rate_limit=args.rate_limit,
        request_timeout=args.request_timeout,
        degrade_after=args.degrade_after,
        fence_timeout=args.fence_timeout,
    )


def _serve_replica(args: argparse.Namespace) -> int:
    from .replication import ReplicaServer, ReplicaState
    from .service import run_server

    if not args.writer_feed:
        print(
            "error: --role replica requires --writer-feed HOST:PORT",
            file=sys.stderr,
        )
        return 2
    writer_host, writer_port = _parse_addr(args.writer_feed)
    engine = _make_engine(args)
    state = ReplicaState(backend=args.backend, engine=engine)

    def announce(server: ReplicaServer) -> None:
        print(
            f"replica of {writer_host}:{writer_port} "
            f"on http://{args.host}:{server.port}",
            flush=True,
        )
        _announce_line({"role": "replica", "port": server.port})

    server = ReplicaServer(
        state,
        writer_host=writer_host,
        writer_port=writer_port,
        **_serve_common_kwargs(args),
    )
    run_server(server, announce=announce)
    print("drained cleanly", flush=True)
    _emit_stats(args, engine)
    return 0


def _serve_router(args: argparse.Namespace) -> int:
    from .replication import RouterServer, run_router

    if not args.writer:
        print(
            "error: --role router requires --writer HOST:PORT", file=sys.stderr
        )
        return 2
    writer_addr = _parse_addr(args.writer)
    replica_addrs = [_parse_addr(raw) for raw in (args.replica or [])]

    def announce(router: RouterServer) -> None:
        print(
            f"routing to writer {writer_addr[0]}:{writer_addr[1]} and "
            f"{len(replica_addrs)} replica(s) "
            f"on http://{args.host}:{router.port}",
            flush=True,
        )
        _announce_line({"role": "router", "port": router.port})

    router = RouterServer(
        writer_addr=writer_addr,
        replica_addrs=replica_addrs,
        host=args.host,
        port=args.port,
    )
    run_router(router, announce=announce)
    print("drained cleanly", flush=True)
    return 0


def _serve_cluster(args: argparse.Namespace) -> int:
    """One-shot launcher: writer + N replicas + router in this process."""
    import signal as signal_module
    import threading

    from .replication import LocalCluster

    graph = _load_graph(args.graph)
    cluster = LocalCluster(
        graph,
        replicas=args.replicas,
        backend=args.backend,
        edit_strategy=args.edit_strategy,
        router_port=args.port,
        fence_timeout=args.fence_timeout,
    )
    cluster.start()
    try:
        print(
            f"cluster: writer http://127.0.0.1:{cluster.writer_port} "
            f"(feed {cluster.writer_repl_port}), "
            f"{args.replicas} replica(s) "
            f"{[f'127.0.0.1:{p}' for p in cluster.replica_ports]}, "
            f"router http://127.0.0.1:{cluster.router_port}",
            flush=True,
        )
        _announce_line(
            {
                "role": "cluster",
                "port": cluster.router_port,
                "router_port": cluster.router_port,
                "writer_port": cluster.writer_port,
                "repl_port": cluster.writer_repl_port,
                "replica_ports": cluster.replica_ports,
            }
        )
        stop = threading.Event()
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            signal_module.signal(signum, lambda *_args: stop.set())
        stop.wait()
    finally:
        cluster.stop()
    print("drained cleanly", flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceServer, ServiceState, run_server

    if args.replicas is not None:
        if args.role != "standalone":
            print(
                "error: --replicas launches a whole cluster; it conflicts "
                "with --role",
                file=sys.stderr,
            )
            return 2
        if not args.graph:
            print("error: --replicas requires a graph", file=sys.stderr)
            return 2
        return _serve_cluster(args)
    if args.role == "replica":
        return _serve_replica(args)
    if args.role == "router":
        return _serve_router(args)
    if not args.graph:
        print(
            f"error: --role {args.role} requires a graph argument",
            file=sys.stderr,
        )
        return 2

    engine = _make_engine(args)
    graph = _load_graph(args.graph)
    server_kwargs = _serve_common_kwargs(args)
    if args.role == "writer":
        from .replication import WriterServer, WriterState

        state = WriterState(
            graph,
            backend=args.backend,
            engine=engine,
            edit_strategy=args.edit_strategy,
            log_capacity=args.log_capacity,
        )
        server = WriterServer(
            state,
            repl_host=args.host,
            repl_port=args.repl_port,
            **server_kwargs,
        )
    else:
        state = ServiceState(
            graph,
            backend=args.backend,
            engine=engine,
            edit_strategy=args.edit_strategy,
        )
        server = ServiceServer(state, **server_kwargs)

    def announce(running: ServiceServer) -> None:
        # The port is printed (flush=True) so wrappers binding port 0 can
        # parse where the kernel actually put us.
        print(
            f"serving {args.graph} (|V|={state.graph.num_vertices} "
            f"|E|={state.graph.num_edges}, backend {state.backend}) "
            f"on http://{args.host}:{running.port}",
            flush=True,
        )
        payload = {"role": args.role, "port": running.port}
        if args.role == "writer":
            payload["repl_port"] = running.repl_port  # type: ignore[attr-defined]
        _announce_line(payload)

    run_server(server, announce=announce)
    print("drained cleanly", flush=True)
    _emit_stats(args, engine)
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    """Interactive multi-graph workspace shell (see docs/WORKSPACE.md)."""
    from .workspace import Workspace
    from .workspace.shell import run_shell

    engine = _make_engine(args)
    workspace = Workspace(engine=engine, backend=args.backend)
    exit_code = run_shell(
        workspace,
        script=args.script,
        replay=args.replay,
        save=args.save,
        connect=args.connect,
    )
    _emit_stats(args, engine)
    return exit_code


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .datasets import load, names

    for name in names():
        dataset = load(name)
        print(
            f"{name:15s} |V|={dataset.num_vertices:7d} "
            f"|E|={dataset.num_edges:8d}  (paper: {dataset.paper_vertices} / "
            f"{dataset.paper_edges})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="triangle-kcore",
        description="Triangle K-Core motifs: extraction, maintenance, plots",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run Algorithm 1")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument("-o", "--output", help="write per-edge kappa here")
    p.add_argument(
        "--membership",
        action="store_true",
        help="track AddToCore/DelFromCore membership (reference backend "
        "only; auto degrades, csr/dynamic error)",
    )
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("plot", help="density plot (ASCII or SVG)")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument("--svg", help="write SVG here instead of ASCII")
    p.add_argument(
        "--interactive", help="write a self-contained HTML explorer here"
    )
    p.add_argument("--height", type=int, default=12)
    p.add_argument("--width", type=int, default=100)
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser(
        "dualview", help="Dual View Plots for a snapshot pair (Algorithm 3)"
    )
    p.add_argument("old", help="old snapshot (dataset name or path)")
    p.add_argument("new", help="new snapshot (dataset name or path)")
    p.add_argument(
        "--svg",
        help="write <PREFIX>_before.svg / <PREFIX>_after.svg instead of ASCII",
        metavar="PREFIX",
    )
    p.add_argument("--height", type=int, default=12)
    p.add_argument("--width", type=int, default=100)
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_dualview)

    p = sub.add_parser("update", help="incremental vs recompute timing")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument(
        "--fraction", type=float, default=0.01, help="churn fraction (paper: 1%%)"
    )
    p.add_argument("--seed", type=int, default=0)
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("templates", help="template pattern cliques")
    p.add_argument("old", help="old snapshot (dataset name or path)")
    p.add_argument("new", help="new snapshot (dataset name or path)")
    p.add_argument(
        "--pattern",
        choices=("new_form", "bridge", "new_join", "stable", "densifying"),
        default="new_form",
    )
    p.add_argument("--top", type=int, default=3)
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_templates)

    p = sub.add_parser("communities", help="triangle-connected communities")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument("--level", type=int, help="level k (default: max)")
    p.add_argument("--vertex", help="query one vertex's densest community")
    p.add_argument("--top", type=int, default=5)
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_communities)

    p = sub.add_parser("report", help="write a standalone HTML report")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument("-o", "--output", default="report.html")
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("events", help="community evolution over snapshots")
    p.add_argument("snapshots", nargs="*", help="edge-list paths, in order")
    p.add_argument("--dataset", help="use a built-in snapshot dataset instead")
    p.add_argument("--min-kappa", type=int, default=2, dest="min_kappa")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_events)

    p = sub.add_parser("hierarchy", help="nested community dendrogram")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument("--max-children", type=int, default=8, dest="max_children")
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("maxcore", help="densest Triangle K-Core, top-down")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.set_defaults(func=_cmd_maxcore)

    p = sub.add_parser("probe", help="certified kappa bounds for one edge")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--radius", type=int, default=2)
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("robustness", help="noise sensitivity of the densest core")
    p.add_argument("graph", help="dataset name or edge-list path")
    p.add_argument(
        "--fractions", type=float, nargs="+", default=[0.02, 0.05, 0.1, 0.2]
    )
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--mode", choices=("delete", "rewire"), default="delete")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method",
        choices=("dynamic", "recompute"),
        default="dynamic",
        help="per-trial measurement: incremental perturb-and-revert via "
        "the engine's maintainer (default) or literal copy + recompute",
    )
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser(
        "fuzz",
        help="differential oracle fuzzing of dynamic kappa maintenance",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ops", type=int, default=500, help="ops per workload profile"
    )
    p.add_argument(
        "--profile",
        choices=("all", *sorted(_WORKLOAD_PROFILES)),
        default="all",
        help="workload profile to run (default: all)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=100,
        dest="checkpoint_every",
        help="full oracle-matrix comparison cadence in ops",
    )
    p.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug a divergence to a locally minimal script",
    )
    p.add_argument(
        "--out", help="write a replayable JSON repro bundle here on divergence"
    )
    p.add_argument(
        "--replay",
        metavar="BUNDLE",
        help="replay a repro bundle instead of generating workloads",
    )
    p.add_argument(
        "--strategy",
        choices=("per_op", "batch", "incremental", "recompute", "auto"),
        default="per_op",
        help="how the maintainer is driven: per_op (default) feeds one op "
        "at a time with per-op invariants; any other value coalesces "
        "chunks of --batch-ops ops and applies them through "
        "diff_apply with that strategy",
    )
    p.add_argument(
        "--batch-ops",
        type=int,
        default=50,
        dest="batch_ops",
        metavar="N",
        help="chunk size for non-per_op strategies (default: 50)",
    )
    p.add_argument(
        "--perturb-level",
        type=int,
        dest="perturb_level",
        help="self-test: inject an off-by-one kappa bug at this level and "
        "verify the harness catches it",
    )
    p.add_argument(
        "--batch-bug",
        action="store_true",
        dest="batch_bug",
        help="self-test: inject a batch affected-region boundary-drop bug "
        "and verify the harness catches it (use with --strategy batch)",
    )
    from .engine import BACKENDS
    from .testing import DEFAULT_ORACLES, ORACLE_NAMES

    p.add_argument(
        "--backend",
        choices=[
            name for name in ORACLE_NAMES
            if name in BACKENDS and name not in DEFAULT_ORACLES
        ],
        default=None,
        help="cross-check this backend as an extra checkpoint oracle "
        "(csr-vec: vectorized peel; external: out-of-core partitioned "
        "spill)",
    )
    p.add_argument(
        "--external-bug",
        action="store_true",
        dest="external_bug",
        help="self-test: inject a boundary-reconciliation bug (one dropped "
        "demotion at a partition seam) into the external oracle and verify "
        "the harness catches it (use with --backend external)",
    )
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "serve", help="run the long-lived HTTP/JSON query service"
    )
    p.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="dataset name or edge-list path (required for standalone/"
        "writer; replicas fetch state from the writer, routers hold none)",
    )
    p.add_argument(
        "--role",
        choices=("standalone", "writer", "replica", "router"),
        default="standalone",
        help="replication seat (see docs/SERVICE.md): standalone serves "
        "alone (default); writer additionally streams its commit log on "
        "--repl-port; replica folds a writer's log and serves reads "
        "only; router spreads reads over --replica backends and "
        "forwards writes to --writer",
    )
    p.add_argument(
        "--repl-port",
        type=int,
        default=0,
        dest="repl_port",
        metavar="PORT",
        help="writer only: replication feed port (0 picks a free one; "
        "printed on the ANNOUNCE line)",
    )
    p.add_argument(
        "--log-capacity",
        type=int,
        default=4096,
        dest="log_capacity",
        metavar="N",
        help="writer only: commit records retained for replica catch-up "
        "before forcing a snapshot resync (default: 4096)",
    )
    p.add_argument(
        "--writer-feed",
        dest="writer_feed",
        metavar="HOST:PORT",
        help="replica only: the writer's replication feed address",
    )
    p.add_argument(
        "--writer",
        metavar="HOST:PORT",
        help="router only: the writer's HTTP address (edits, /stats)",
    )
    p.add_argument(
        "--replica",
        action="append",
        metavar="HOST:PORT",
        help="router only: one replica HTTP address (repeatable)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="one-shot cluster launcher: start a writer, N replicas and "
        "a router in this process and serve until SIGTERM",
    )
    p.add_argument(
        "--fence-timeout",
        type=float,
        default=5.0,
        dest="fence_timeout",
        metavar="SECONDS",
        help="max wait for a min_version read fence before answering 503 "
        "stale_replica (default: 5)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (0 picks a free one; the bound port is printed)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=128,
        dest="max_queue",
        metavar="N",
        help="pending-request cap; beyond it requests get 503 immediately",
    )
    p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        dest="rate_limit",
        metavar="RPS",
        help="per-client token-bucket limit in requests/second "
        "(429 + Retry-After when exceeded; default: unlimited)",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=10.0,
        dest="request_timeout",
        metavar="SECONDS",
        help="shed requests that waited this long in queue (503 timed_out)",
    )
    p.add_argument(
        "--degrade-after",
        type=int,
        default=None,
        dest="degrade_after",
        metavar="DEPTH",
        help="queue depth at which derived reads (community/hierarchy/"
        "templates) may serve the last cached answer, marked degraded "
        "(default: never degrade)",
    )
    p.add_argument(
        "--edit-strategy",
        choices=("auto", "incremental", "batch", "recompute"),
        default="auto",
        dest="edit_strategy",
        help="default kappa-repair strategy for POST /edits batches "
        "(per-request 'strategy' field overrides; default: auto)",
    )
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "shell",
        help="interactive multi-graph workspace (REPL, scripts, replay)",
    )
    p.add_argument(
        "--script",
        metavar="FILE",
        help="read command lines from FILE instead of stdin",
    )
    p.add_argument(
        "--replay",
        metavar="SESSION",
        help="re-execute a saved session log and assert every command's "
        "output is byte-identical to the recording (exit 1 on mismatch)",
    )
    p.add_argument(
        "--save",
        metavar="PATH",
        help="write the session log (repro.workspace-session/1) to PATH "
        "on exit",
    )
    p.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="override the target of in-session 'connect' commands "
        "(lets --replay target a fresh server on a different port)",
    )
    _add_engine_arguments(p)
    p.set_defaults(func=_cmd_shell)

    p = sub.add_parser("datasets", help="list built-in datasets")
    p.set_defaults(func=_cmd_datasets)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    Library errors and bad paths exit with code 2 and a one-line message
    instead of a traceback; programming errors still propagate.
    """
    from .exceptions import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: no such file: {error.filename}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
