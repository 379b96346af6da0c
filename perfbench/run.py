"""Benchmark entry point: one workload, one seed, end to end or by layer.

    python3 perfbench/run.py --workload pg-thrash --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` runs the workload once plain and once traced
and reports the per-layer metrics (see perfbench/README.md).  Human-
readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when the run completed; a failed output check still exits 0 and
reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

#: BENCHMARK.json names, units and the order they are printed in.
END_TO_END = {
    "setup_s": "s",
    "pagerank_job_s": "s",
    "sssp_job_s": "s",
    "cc_job_s": "s",
    "edges_per_s": "triplets/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "requests_per_s": "ops/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.partition_s": "s",
    "graph.replication_factor": "ratio",
    "graph.mutation_apply_s": "s",
    "engines.superstep_s": "s",
    "engines.superstep_self_s": "s",
    "engines.supersteps": "count",
    "engines.triplets": "count",
    "engines.phase_gen_s": "s",
    "engines.phase_merge_s": "s",
    "engines.phase_apply_s": "s",
    "engines.phase_sync_s": "s",
    "engines.phase_cache_s": "s",
    "sim.total_ms": "ms",
    "sim.iterations": "count",
    "core.middleware_init_s": "s",
    "core.agent.edge_pass_self_s": "s",
    "core.daemon.compute_block_s": "s",
    "core.sync_cache.insert_many_s": "s",
    "core.sync_cache.lookup_many_s": "s",
    "core.cache_hit_ratio": "ratio",
    "core.cache_misses": "count",
    "core.uploads": "count",
    "core.local_iterations": "count",
    "core.template.combine_many_s": "s",
    "ipc.scheduler_run_s": "s",
    "ipc.sched_events": "count",
    "ipc.sched_batches": "count",
    "serve.submit_s": "s",
    "serve.step_s": "s",
    "serve.mutate_s": "s",
    "serve.build_engine_s": "s",
    "serve.journal_append_s": "s",
    "serve.journal_sidecar_s": "s",
    "serve.result_cache_hit_ratio": "ratio",
    "serve.warm_starts": "count",
    "serve.partition_builds": "count",
    "serve.partition_deltas": "count",
    "serve.partition_hits": "count",
    "serve.mutations": "count",
    "serve.hit_p50_ms": "ms",
    "serve.recompute_p50_ms": "ms",
    "serve.mutate_p50_ms": "ms",
    "wire.submit_rtt_ms": "ms",
    "wire.watch_ms": "ms",
    "wire.result_values_ms": "ms",
    "wire.overhead_ms": "ms",
    "wire.frames_in": "count",
    "wire.frames_out": "count",
    "other_s": "s",
    "trace.overhead_frac": "ratio",
}

WORKLOADS = ("pg-thrash", "gx-resident", "serve-mix")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns the record the last line reports."""
    common.use_checkout_sources()
    checks = common.Checks()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.workload == "serve-mix":
        import servemix
        if args.trace:
            out = servemix.run_traced(args.seed, checks,
                                      common.out_path(f"trace-{tag}.json"))
        else:
            out = servemix.run_untraced(args.seed, args.seconds, checks)
    else:
        import batch
        shape = batch.SHAPES[args.workload]
        if args.trace:
            out = batch.run_traced(shape, args.seed, checks,
                                   common.out_path(f"trace-{tag}.json"))
        else:
            out = batch.run_untraced(shape, args.seed, args.seconds, checks)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(out["metrics"]))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {name: {"value": float(out["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": common.environment(),
              "samples": out["samples"],
              "failed_frac": checks.failed / max(checks.attempted, 1),
              "failures": checks.messages[:20], "metrics": metrics}
    with open(common.out_path(f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": checks.attempted, "failed": checks.failed,
            "metrics": metrics, "record": record}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = result.pop("record")
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {result['attempted']} ops checked, "
          f"{result['failed']} failed (failed_frac "
          f"{record['failed_frac']:.4f}), samples {record['samples']}")
    for msg in record["failures"]:
        print(f"  FAILED {msg}")
    print("env " + json.dumps(record["env"]))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:16.6f} {m['unit']}")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
