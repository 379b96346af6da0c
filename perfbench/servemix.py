"""serve-mix: one closed-loop client against a journaled server process.

The client holds one ``GraphClient`` connection (heartbeat off) to a
``GraphServiceServer`` that :mod:`server` runs in its own process — a
server thread would share the client's interpreter lock.  The seeded op
sequence comes in epochs of seven ops: one mutation that lowers the
weights of 1% of the edges (so monotone algorithms may warm-start),
then two submits of each of the three queries in a seeded order.  The
first submit of a query on a graph version is a *recompute*, the second
a *hit*.  Every submit is awaited with ``watch`` and fetched with
``result_values``.  The mix is the same in every epoch, so the
percentiles fall at the same place in the latency distribution for
every seed.

Outputs are checked after each epoch, inside the run's time but outside
every op's: recomputed values against the algorithm's ``reference()`` on
the same graph version (replayed locally from the batches), hits against
the recompute they repeat, mutation acks against the expected version
numbers; and at the end, the simulated ms and iterations of the first
:data:`MIN_EPOCHS` epochs' recomputes against the recorded digest.
"""

from __future__ import annotations

import os
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import spans
from common import (Checks, digest_for, median, out_path, percentile,
                    result_counts)

VERTICES = 10_000
EDGES = 60_000
#: Share of the edges each mutation reweights, and the factor range.
REWEIGHT_SHARE = 0.01
REWEIGHT_FACTOR = (0.5, 0.9)
QUERIES = ("pagerank", "cc", "sssp-bf")
#: Each query is submitted this many times per epoch.
SUBMITS_PER_QUERY = 2
OPS_PER_EPOCH = 1 + SUBMITS_PER_QUERY * len(QUERIES)
#: The op sequence is never shorter than this many epochs (105 ops),
#: so that p90 has more than ten samples beyond it.
MIN_EPOCHS = 15
SETUP_REPEATS = 5
#: Query parameters.  PageRank runs to its tolerance so that a warm
#: start and a cold start answer the same fixpoint.
PARAMS = {"pagerank": {"damping": 0.5, "tolerance": 1e-9},
          "cc": {},
          "sssp-bf": {"sources": [0, 1, 2, 3]}}
CAPS = {"pagerank": 200, "cc": 100, "sssp-bf": 100}
#: A converged PageRank may stop one tolerance step away from another.
PAGERANK_ATOL = 1e-7
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    index: int
    kind: str                      # "mutate" | "hit" | "recompute"
    query: Optional[str]
    version: int                   # graph version the op targets
    batch: Any = None
    start: float = 0.0
    end: float = 0.0
    parts: Dict[str, float] = field(default_factory=dict)
    job_id: Optional[int] = None
    values: Optional[np.ndarray] = None
    problems: List[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def make_graph(seed: int):
    from repro.graph.generators import rmat
    return rmat(VERTICES, EDGES, seed=seed, name=f"serve-mix-{seed}")


class OpPlan:
    """The seeded op sequence, one epoch at a time."""

    def __init__(self, graph, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 1])
        n = graph.num_vertices
        keys = graph.src * n + graph.dst
        uniq, inverse = np.unique(keys, return_inverse=True)
        self.pair_src = uniq // n
        self.pair_dst = uniq % n
        # the lowest weight among parallel edges: a new weight below it
        # lowers every copy of the pair
        self.pair_w = np.full(uniq.size, np.inf)
        np.minimum.at(self.pair_w, inverse, graph.weights)
        self.per_batch = max(1, int(REWEIGHT_SHARE * graph.num_edges))
        self.version = 1
        self.next_index = 0

    def _op(self, kind, query, batch=None) -> Op:
        op = Op(self.next_index, kind, query, self.version, batch)
        self.next_index += 1
        return op

    def epoch(self) -> List[Op]:
        from repro.graph.mutations import MutationBatch
        rng = self.rng
        idx = rng.choice(self.pair_w.size, self.per_batch, replace=False)
        new_w = self.pair_w[idx] * rng.uniform(*REWEIGHT_FACTOR, idx.size)
        self.pair_w[idx] = new_w
        batch = MutationBatch(update_src=self.pair_src[idx],
                              update_dst=self.pair_dst[idx],
                              update_weights=new_w)
        ops = [self._op("mutate", None, batch)]
        self.version += 1
        order = list(QUERIES) * SUBMITS_PER_QUERY
        rng.shuffle(order)
        # every epoch starts on a new graph version: a query's first
        # submit in the epoch recomputes, its repeats hit the cache
        for i, query in enumerate(order):
            ops.append(self._op("hit" if query in order[:i]
                                else "recompute", query))
        return ops


def job_spec(query: str):
    from repro.serve import JobSpec
    return JobSpec(graph="g", algorithm=query, params=PARAMS[query],
                   max_iterations=CAPS[query])


# -- the server process ----------------------------------------------------------------


class ServerProcess:
    """One launched server and the client connected to it."""

    def __init__(self, seed: int, trace: bool, tag: str) -> None:
        from repro.serve.client import GraphClient
        self.dir = out_path(f"serve-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.summary_path = os.path.join(self.dir, "summary.json")
        cmd = [sys.executable, os.path.join(HERE, "server.py"),
               "--seed", str(seed), "--vertices", str(VERTICES),
               "--edges", str(EDGES), "--trace", str(int(trace)),
               "--journal", os.path.join(self.dir, "journal.jsonl"),
               "--summary", self.summary_path]
        self.client = None
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        try:
            port = self._read_port()
            self.client = GraphClient(
                "127.0.0.1", port, client_name="perfbench",
                heartbeat=False, timeout_s=REQUEST_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        #: launch, through the graph load, to the first hello answered
        self.setup_s = time.perf_counter() - t0

    def _read_port(self) -> int:
        import json
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(READY_TIMEOUT_S):
                raise RuntimeError("server did not report its port")
            line = self.proc.stdout.readline()
        finally:
            sel.close()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait()} before "
                f"reporting its port")
        return int(json.loads(line)["port"])

    def stop(self) -> Dict[str, Any]:
        """Drain the server, wait for it, and return its summary."""
        import json
        try:
            self.client.drain(mode="finish")
        finally:
            self.client.close()
            try:
                code = self.proc.wait(timeout=READY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        with open(self.summary_path, encoding="utf-8") as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


# -- the op loop -----------------------------------------------------------------------


def _timed(op: Op, part: str, tracer, fn):
    t0 = time.perf_counter()
    if tracer is None:
        out = fn()
    else:
        with tracer.span(f"wire.{part}"):
            out = fn()
    op.parts[part] = time.perf_counter() - t0
    return out


def run_op(client, op: Op, tracer=None) -> None:
    op.start = time.perf_counter()
    if op.kind == "mutate":
        ack = _timed(op, "mutate", tracer,
                     lambda: client.mutate("g", op.batch.to_doc()))
        if (ack.get("from_version"), ack.get("version")) != \
                (op.version, op.version + 1):
            op.problems.append(f"mutation ack {ack} for version "
                               f"{op.version}")
    else:
        sub = _timed(op, "submit", tracer,
                     lambda: client.submit(job_spec(op.query)))
        op.job_id = sub["job_id"]

        def await_terminal():
            state = None
            for event in client.watch(op.job_id,
                                      timeout_s=REQUEST_TIMEOUT_S):
                state = event.get("state")
            return state
        state = _timed(op, "watch", tracer, await_terminal)
        if state != "done":
            op.problems.append(f"job {op.job_id} ended {state}")
        else:
            op.values = _timed(op, "result_values", tracer,
                               lambda: client.result_values(op.job_id))
    op.end = time.perf_counter()


class OutputCheck:
    """Checks each epoch's outputs as soon as the epoch ends (so the
    run's time covers them), and the digest once the server's engine
    runs are known."""

    def __init__(self, graph, seed: int, corrupt=None) -> None:
        self.graph = graph              # the latest graph version
        self.seed = seed
        self.corrupt = corrupt
        self.answers: Dict[Tuple[str, int], np.ndarray] = {}
        # PageRank and CC ignore edge weights and a reweight keeps the
        # edge set, so one reference serves every graph version
        self._static: Dict[str, np.ndarray] = {}

    def _reference(self, query: str) -> np.ndarray:
        if query == "sssp-bf":
            return reference(query, self.graph)
        if query not in self._static:
            self._static[query] = reference(query, self.graph)
        return self._static[query]

    def epoch(self, ops: List[Op]) -> None:
        for op in ops:
            if op.kind == "mutate":
                self.graph = op.batch.apply(self.graph)[0]
            elif op.values is None:
                continue
            elif op.kind == "hit":
                first = self.answers.get((op.query, op.version))
                if first is None or not np.array_equal(first, op.values):
                    op.problems.append("hit differs from its recompute")
            else:
                self.answers[(op.query, op.version)] = op.values
                values = op.values if self.corrupt is None \
                    else self.corrupt(op, op.values)
                ref = self._reference(op.query)
                if op.query == "pagerank":
                    ok = np.allclose(values, ref, rtol=0,
                                     atol=PAGERANK_ATOL)
                else:
                    ok = values.shape == ref.shape and np.allclose(
                        values, ref, rtol=1e-9, atol=1e-12, equal_nan=True)
                if not ok:
                    op.problems.append("values differ from reference()")
            op.values = None
        for key in [k for k in self.answers if k[1] < ops[-1].version]:
            del self.answers[key]

    def count(self, ops: List[Op], runs: Dict[str, Dict[str, float]],
              checks: Checks) -> None:
        """Check the digest, then count one checked op per op."""
        digest = digest_for("serve-mix", self.seed) or []
        prefix = MIN_EPOCHS * OPS_PER_EPOCH
        recomputes = [op for op in ops if op.kind == "recompute"]
        for want, op in zip(digest, recomputes):
            if op.index >= prefix or op.job_id is None:
                continue
            run = runs.get(str(op.job_id))
            sim = None if run is None else [run["total_ms"],
                                            run["iterations"]]
            if sim != want:
                op.problems.append(
                    f"simulated [ms, iterations] {sim} != digest {want}")
        for op in ops:
            checks.op(not op.problems,
                      f"serve-mix seed {self.seed} op {op.index} "
                      f"({op.kind} {op.query or ''}): "
                      + "; ".join(op.problems))


def run_ops(client, plan: OpPlan, seconds: Optional[float],
            check: OutputCheck, tracer=None) -> List[Op]:
    """Whole epochs until ``seconds`` pass, at least :data:`MIN_EPOCHS`
    (exactly that many when ``seconds`` is None)."""
    from repro.errors import ServeError, WireError
    ops: List[Op] = []
    t0 = time.perf_counter()
    epochs = 0
    while epochs < MIN_EPOCHS or (
            seconds is not None and time.perf_counter() - t0 < seconds):
        epoch = plan.epoch()
        for i, op in enumerate(epoch):
            ops.append(op)
            if tracer is not None:
                tracer.job = f"op{op.index}"
            try:
                if tracer is None:
                    run_op(client, op)
                else:
                    with tracer.span("op", kind=op.kind):
                        run_op(client, op, tracer)
            except (WireError, OSError) as exc:
                # the server is gone or wedged: later ops would only
                # burn their timeouts, so the sequence ends here
                op.end = time.perf_counter()
                op.problems.append(f"{type(exc).__name__}: {exc}")
                check.epoch(epoch[:i + 1])
                return ops
            except ServeError as exc:
                # refused on an open connection: this op failed
                op.end = time.perf_counter()
                op.problems.append(f"{type(exc).__name__}: {exc}")
        check.epoch(epoch)
        epochs += 1
    if tracer is not None:
        tracer.job = None
    return ops


# -- verification ----------------------------------------------------------------------


def reference(query: str, graph) -> np.ndarray:
    from repro.serve import JobSpec
    alg = JobSpec(graph="g", algorithm=query,
                  params=PARAMS[query]).build_algorithm()
    if query == "pagerank":
        return alg.reference(graph, iterations=CAPS[query])
    return alg.reference(graph)


def sim_digest(ops: List[Op], runs: Dict[str, Dict[str, float]]) -> list:
    """[total_ms, iterations] of every recompute in the first
    :data:`MIN_EPOCHS` epochs, in op order."""
    prefix = MIN_EPOCHS * OPS_PER_EPOCH
    return [[runs[str(op.job_id)]["total_ms"],
             runs[str(op.job_id)]["iterations"]]
            for op in ops if op.kind == "recompute" and op.index < prefix]


# -- metrics ---------------------------------------------------------------------------


def _latency_metrics(ops: List[Op],
                     runs: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    rec = [op for op in ops if op.kind == "recompute"]
    by_query = {q: median([op.seconds for op in rec if op.query == q])
                for q in QUERIES}
    work = sum(runs[str(op.job_id)]["triplets"] for op in rec
               if str(op.job_id) in runs)
    lat = [op.seconds for op in ops]
    return {
        "pagerank_job_s": by_query["pagerank"],
        "sssp_job_s": by_query["sssp-bf"],
        "cc_job_s": by_query["cc"],
        "edges_per_s": work / sum(op.seconds for op in rec),
        "request_p50_ms": 1e3 * percentile(lat, 50),
        "request_p90_ms": 1e3 * percentile(lat, 90),
        # the client's output checks between epochs are not op time
        "requests_per_s": len(ops) / sum(lat),
    }


def _kind_p50_ms(ops: List[Op], kind: str) -> float:
    return 1e3 * median([op.seconds for op in ops if op.kind == kind])


def run_untraced(seed: int, seconds: float, checks: Checks,
                 corrupt=None) -> Dict[str, Any]:
    graph = make_graph(seed)
    setups = []
    for i in range(SETUP_REPEATS - 1):
        server = ServerProcess(seed, False, f"setup{i}")
        setups.append(server.setup_s)
        server.stop()
    server = ServerProcess(seed, False, "run")
    setups.append(server.setup_s)
    check = OutputCheck(graph, seed, corrupt)
    try:
        ops = run_ops(server.client, OpPlan(graph, seed), seconds, check)
    except BaseException:
        server.kill()
        raise
    summary = server.stop()
    runs = summary["runs"]
    check.count(ops, runs, checks)
    metrics = _latency_metrics(ops, runs)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = summary["peak_rss_mb"]
    return {"metrics": metrics, "samples": len(ops)}


def _one_pass(seed: int, graph, checks: Checks, tracer=None):
    """:data:`MIN_EPOCHS` epochs against a fresh server, traced when a
    tracer is given; returns (ops, stats frame, server summary)."""
    server = ServerProcess(seed, tracer is not None,
                           "plain" if tracer is None else "traced")
    check = OutputCheck(graph, seed)
    try:
        ops = run_ops(server.client, OpPlan(graph, seed), None, check,
                      tracer)
        stats = server.client.stats()
    except BaseException:
        server.kill()
        raise
    summary = server.stop()
    check.count(ops, summary["runs"], checks)
    return ops, stats, summary


def _server_busy(server_spans: List[spans.Span], lo: float,
                 hi: float) -> float:
    """Server time inside [lo, hi], counted on top-level spans."""
    return sum(max(0.0, min(s.end, hi) - max(s.start, lo))
               for s in server_spans if s.parent is None)


def run_traced(seed: int, checks: Checks,
               trace_path: str) -> Dict[str, Any]:
    """The same :data:`MIN_EPOCHS` epochs against an untraced and then a
    traced server.  Client-observed latencies come from the untraced
    pass; span-derived figures from the traced one."""
    from repro.graph.partition import greedy_vertex_cut
    graph = make_graph(seed)
    plain, _stats, _summary = _one_pass(seed, graph, checks)
    tracer = spans.Tracer()
    traced, stats, summary = _one_pass(seed, graph, checks, tracer)
    server_spans = [spans.Span.from_doc(d) for d in summary["spans"]]
    selfs = spans.self_times(server_spans)
    metrics = spans.layer_self_times(server_spans, selfs)
    metrics.update(result_counts(list(summary["runs"].values())))
    steps = [s.duration for s in server_spans
             if s.name == spans.SUPERSTEP and not s.attrs.get("tail")]
    svc, wire = stats["metrics"], stats["wire"]
    cache = svc["cache"]
    lookups = cache["hits"] + cache["misses"]

    def part_ms(part):
        return 1e3 * median([op.parts[part] for op in plain
                             if part in op.parts])
    metrics.update({
        "graph.replication_factor":
            greedy_vertex_cut(graph, 2).replication_factor(),
        "engines.superstep_s": median(steps),
        "serve.result_cache_hit_ratio": cache["hits"] / lookups
        if lookups else 0.0,
        "serve.warm_starts": svc["warm_starts"],
        "serve.partition_builds": svc["store"]["partition_builds"],
        "serve.partition_deltas": svc["store"]["partition_deltas"],
        "serve.partition_hits": svc["store"]["partition_hits"],
        "serve.mutations": svc["mutations"],
        "serve.hit_p50_ms": _kind_p50_ms(plain, "hit"),
        "serve.recompute_p50_ms": _kind_p50_ms(plain, "recompute"),
        "serve.mutate_p50_ms": _kind_p50_ms(plain, "mutate"),
        "wire.submit_rtt_ms": part_ms("submit"),
        "wire.watch_ms": part_ms("watch"),
        "wire.result_values_ms": part_ms("result_values"),
        "wire.overhead_ms": 1e3 * median(
            [op.seconds - _server_busy(server_spans, op.start, op.end)
             for op in traced]),
        "wire.frames_in": wire["frames_in"],
        "wire.frames_out": wire["frames_out"],
        "trace.overhead_frac": sum(op.seconds for op in traced)
        / sum(op.seconds for op in plain) - 1.0,
    })
    spans.chrome_trace([("client", tracer.spans),
                        ("server", server_spans)], trace_path)
    return {"metrics": metrics, "samples": len(plain)}
