"""The serve-mix server process: a journaled GraphServiceServer on loopback.

Started by :mod:`servemix` with the workload's seed and shape; generates
the same R-MAT graph the client does, loads it, binds an ephemeral port
and prints ``{"port": N}`` on stdout once ready.  It serves until a
``drain`` frame arrives, then writes a summary (its peak RSS, the counts
of every engine run, and with ``--trace 1`` its spans) to ``--summary``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import common


def exit_with_parent() -> None:
    """Die with the benchmark process: a killed client must not leave
    the server running."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(3)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--journal", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    exit_with_parent()
    common.use_checkout_sources()
    from repro.api import ClusterSpec
    from repro.engines.base import RunResult
    from repro.graph.generators import rmat
    from repro.serve import GraphService
    from repro.serve.wire import GraphServiceServer

    import spans
    tracer = installed = None
    if args.trace:
        tracer = spans.Tracer()
        installed = spans.install(tracer)
    try:
        graph = rmat(args.vertices, args.edges, seed=args.seed,
                     name=f"serve-mix-{args.seed}")
        service = GraphService(ClusterSpec(nodes=2, gpus_per_node=1),
                               journal=args.journal)
        service.load_graph("g", graph)
        server = GraphServiceServer(service, "127.0.0.1", 0)
        print(json.dumps({"port": server.address[1]}), flush=True)
        server.serve_forever()
    finally:
        if installed is not None:
            installed.remove()
    runs = {str(job.job_id): common.run_counts(job.result)
            for job in service.jobs()
            if isinstance(job.result, RunResult) and not job.from_cache}
    summary = {"peak_rss_mb": common.peak_rss_mb(), "runs": runs,
               "spans": [s.to_doc() for s in tracer.spans] if tracer else []}
    tmp = args.summary + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    os.replace(tmp, args.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
