"""The repository benchmark: one run of one workload, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decompose_sparse --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` names the workloads and metrics.  ``--trace 0``
reports every end-to-end metric, ``--trace 1`` every per-layer metric.
A traced run measures the untraced loop for ``--seconds`` as usual, then
the traced loop for half as long (static workloads pair each traced
operation with an untraced one); ``trace.gap_ms`` is the traced median
minus the untraced one.  The last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record: host fingerprint, workload, seed, resolved backend,
sample counts and ``error_ratio`` (failed over attempted operations; a
wrong kappa counts as a failure).  Traced runs also write their spans to
``perfbench/traces/<workload>-seed<seed>.json``.

The end-to-end latency is the median operation time.  Its tail
(``client.op_ms_p75``) and the closed loop's throughput
(``client.ops_per_s``) are reported with the per-layer metrics because
their run-to-run spread on a shared 2-CPU host is too wide to gate on.

Which end-to-end metric each layer metric should move, and where:

==============================  =====================  =================
layer metric                    moves                  on
==============================  =====================  =================
``fast.build_ms``               ``op_ms_p50``          decompose_sparse
``fast.decode_ms``              ``op_ms_p50``          decompose_sparse
``core.histogram_ms``           ``op_ms_p50``          decompose_sparse
``engine.overhead_ms``          ``op_ms_p50``          decompose_sparse
``fast.enumerate_ms``           ``op_ms_p50``          decompose_dense
``fast.peel_ms``                ``op_ms_p50``          decompose_dense
``service.transport_ms_p50``    ``op_ms_p50``          service_mixed
``state.kappa_us_p50``          ``op_ms_p50`` (reads)  service_mixed
``state.apply_edits_ms_p50``    ``op_ms_p50`` (writes) service_mixed
``service.queue_peak``          ``client.op_ms_p75``   service_mixed
==============================  =====================  =================

Every workload reports every per-layer metric; a layer the workload's
loops never call reports 0.

Exit status: 0 with a result line, 1 when a run fails outright or leaves
a child process or non-daemon thread behind, 2 when the program source is
missing, 130 when interrupted (no result line in those cases).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Interrupted(BaseException):
    """SIGINT or SIGTERM arrived; unwinds through every ``finally``."""


def _interrupt(signum, frame):
    # A raise that lands inside a finalizer (say, during gc.collect()) is
    # printed and dropped by the interpreter; the flag still ends every
    # loop, and main() turns it into the same interruption.
    harness.STOP.set()
    raise Interrupted(signal.Signals(signum).name)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def workload_module(name: str):
    if name.startswith("decompose_"):
        import workload_static

        return workload_static
    import workload_service

    return workload_service


def build_metrics(spec: dict, produced: dict, trace: bool) -> dict:
    """The declared metrics of one kind, in spec order, with units.

    End-to-end metrics must all be produced.  A per-layer metric a
    workload does not produce belongs to a layer its loop never calls,
    and reads 0.  A produced name declared nowhere is an error.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    stray = sorted(set(produced) - known)
    if stray:
        raise ValueError(f"undeclared metrics {stray}")
    missing = [m["name"] for m in declared if m["name"] not in produced]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not produced: {missing}")
    return {
        m["name"]: {"value": produced.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    harness.STOP.clear()
    previous = {sig: signal.signal(sig, _interrupt) for sig in (signal.SIGINT, signal.SIGTERM)}
    tracer = harness.Tracer()
    try:
        report = workload_module(args.workload).run(
            args.workload, args.seed, args.seconds, bool(args.trace), tracer
        )
        if harness.STOP.is_set():
            raise Interrupted("signal")
        metrics = build_metrics(spec, report["metrics"], bool(args.trace))
    except Interrupted as signame:
        print(f"perfbench: interrupted by {signame}", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        leftovers = harness.reap_and_report()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if leftovers:
        for problem in leftovers:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1

    for problem in report["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    record = {
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": harness.fingerprint(ROOT),
            "error_ratio": report["failed"] / max(report["attempted"], 1),
            **report["info"],
        }
    }
    if args.trace:
        out = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({**record, "spans": tracer.dump()}))
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
