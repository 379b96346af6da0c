"""Record the simulated-clock digest the benchmark checks runs against.

    python3 perfbench/record_digests.py --seeds 0-12

For every workload and seed this runs the deterministic part of a run —
pg-thrash's first rounds (one graph each), gx-resident's first round,
serve-mix's first epochs — and writes each recompute's
``[simulated ms, iterations]`` to ``perfbench/digests.json``.  The
simulated clock is part of the program's contract: re-record only when
a change moves it on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def batch_digest(name: str, seed: int):
    import batch
    shape = batch.SHAPES[name]
    rounds = batch.MIN_ROUNDS if shape.fresh_graphs else 1
    out = {alg: [] for alg in batch.ALGORITHMS}
    for r in range(rounds):
        graph = batch.make_graph(shape, batch.graph_seed(seed, r))
        for alg in batch.ALGORITHMS:
            res = batch.run_job(shape, graph, alg, r).result
            out[alg].append([res.total_ms, res.iterations])
    return out


def serve_digest(seed: int):
    import servemix
    graph = servemix.make_graph(seed)
    checks = common.Checks()
    ops, _stats, summary = servemix._one_pass(seed, graph, checks)
    if checks.failed:
        raise RuntimeError(f"serve-mix seed {seed}: {checks.messages}")
    return servemix.sim_digest(ops, summary["runs"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-12", help="LO-HI, inclusive")
    p.add_argument("--workloads", default="pg-thrash,gx-resident,serve-mix")
    args = p.parse_args(argv)
    common.use_checkout_sources()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "digests.json")
    names = args.workloads.split(",")
    # a workload's digests are rewritten wholesale, and a run made while
    # recording must not be checked against the entries it replaces
    digests = {k: v for k, v in common.load_digests().items()
               if k not in names}

    def save():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")

    save()
    for name in names:
        digests[name] = {}
        for seed in parse_seeds(args.seeds):
            digests[name][str(seed)] = (
                serve_digest(seed) if name == "serve-mix"
                else batch_digest(name, seed))
            save()
            print(f"{name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
