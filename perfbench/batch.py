"""Batch workloads: whole jobs as ``repro-gxplug run`` runs them.

One job is a partition build, the cluster and ``GXPlug`` build, and the
supersteps through to values; its time excludes output verification.
Jobs run in rounds of (PageRank, SSSP-BF, CC), at least
:data:`MIN_ROUNDS` of them and more while the run's time lasts.

On pg-thrash every round gets a fresh graph: whether sync skipping
saves the last superstep of an SSSP run depends on the graph, which
moves that job by ~18% from graph to graph, so a run averages over
several graphs.  gx-resident's job times hardly depend on the graph,
and its ``reference()`` check costs ~5 s per graph, so its rounds share
one graph.  Per-job times are means over the run's rounds.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import spans
from common import (Checks, digest_for, median, peak_rss_mb, percentile,
                    result_counts, run_counts, triplets)

#: Every batch run measures at least this many rounds.
MIN_ROUNDS = 2
#: Times the first graph is generated to measure ``setup_s``.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class BatchShape:
    name: str
    engine: str            # "powergraph" | "graphx"
    vertices: int
    edges: int
    pagerank_iterations: int
    #: vertex-cache capacity as a share of |V| (None: the default, fits)
    cache_fraction: Optional[float]
    #: a new graph for every round (else every round reuses the first)
    fresh_graphs: bool


SHAPES = {
    # the `repro-gxplug bench` default shape: the capacity-bounded
    # vertex cache thrashes and greedy vertex cut runs once per job
    "pg-thrash": BatchShape("pg-thrash", "powergraph", 20_000, 120_000,
                            5, 0.1, True),
    # hash partition and a cache that fits: the work sits in the
    # superstep loop
    "gx-resident": BatchShape("gx-resident", "graphx", 100_000, 800_000,
                              20, None, False),
}

#: Iteration caps of SSSP-BF and CC (both converge well inside them).
MONOTONE_CAP = 10
SSSP_SOURCES = (0, 1, 2, 3)
ALGORITHMS = ("pagerank", "sssp-bf", "cc")


@dataclass
class JobRecord:
    algorithm: str
    round: int
    seconds: float
    result: Any                       # repro RunResult
    step_seconds: List[float] = field(default_factory=list)
    span: Optional[int] = None        # root span id in traced rounds
    replication_factor: float = 0.0


def graph_seed(seed: int, round_no: int):
    """Round 0 uses the run's seed as is, so seed 7 is the hot-path
    bench's graph."""
    return seed if round_no == 0 else [seed, round_no]


def make_graph(shape: BatchShape, seed):
    from repro.graph.generators import rmat
    return rmat(shape.vertices, shape.edges, seed=seed, name=shape.name)


def make_algorithm(name: str):
    from repro.api import ConnectedComponents, MultiSourceSSSP, PageRank
    if name == "pagerank":
        return PageRank()
    if name == "sssp-bf":
        return MultiSourceSSSP(sources=SSSP_SOURCES)
    return ConnectedComponents()


def _cap(shape: BatchShape, algorithm: str) -> int:
    return shape.pagerank_iterations if algorithm == "pagerank" \
        else MONOTONE_CAP


class _nullspan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def run_job(shape: BatchShape, graph, algorithm: str, round_no: int,
            tracer: Optional[spans.Tracer] = None) -> JobRecord:
    """One timed job.  With a tracer, the job and the benchmark's own
    calls (partition, middleware build) become spans."""
    from repro.api import (ClusterSpec, GraphXEngine, GXPlug,
                           MiddlewareConfig, PowerGraphEngine)
    # repro.graph re-exports a function named ``partition``, which
    # shadows the submodule as an attribute
    part = importlib.import_module("repro.graph.partition")

    def span(name):
        return tracer.span(name) if tracer is not None else _nullspan()

    nodes = 2
    alg = make_algorithm(algorithm)
    steps: List[float] = []
    root = None
    t0 = time.perf_counter()
    with span("job") as root_span:
        if shape.engine == "powergraph":
            with span("graph.partition"):
                pgraph = part.greedy_vertex_cut(graph, nodes)
            engine_cls, runtime = PowerGraphEngine, "native"
        else:
            with span("graph.partition"):
                pgraph = part.hash_partition(graph, nodes)
            engine_cls, runtime = GraphXEngine, "jvm"
        cluster = ClusterSpec(nodes=nodes, gpus_per_node=1,
                              runtime=runtime).build()
        config = MiddlewareConfig() if shape.cache_fraction is None else \
            MiddlewareConfig(cache_capacity=max(
                1, int(shape.cache_fraction * shape.vertices)))
        with span("core.middleware.init"):
            middleware = GXPlug(cluster, config)
        engine = engine_cls(pgraph, cluster, middleware)
        stepper = engine.run_stepwise(alg, _cap(shape, algorithm))
        while True:
            s0 = time.perf_counter()
            try:
                next(stepper)
            except StopIteration as stop:
                result = stop.value
                break
            steps.append(time.perf_counter() - s0)
        if root_span is not None:
            root = root_span.sid
    seconds = time.perf_counter() - t0
    return JobRecord(algorithm, round_no, seconds, result, steps, root,
                     pgraph.replication_factor())


class Verifier:
    """Checks jobs as they finish: values against ``reference()`` (one
    per graph), simulated ms and iterations against the recorded digest
    — or, for a seed without one, against the first job of the same
    algorithm on the same graph."""

    def __init__(self, shape: BatchShape, seed: int, checks: Checks,
                 corrupt: Optional[Callable] = None) -> None:
        self.shape = shape
        self.seed = seed
        self.checks = checks
        self.corrupt = corrupt
        self.digest = digest_for(shape.name, seed) or {}
        self._refs: Dict[Any, np.ndarray] = {}
        self._first: Dict[Any, List[float]] = {}

    def _reference(self, graph, graph_round: int, algorithm: str):
        key = (graph_round, algorithm)
        if key not in self._refs:
            alg = make_algorithm(algorithm)
            self._refs[key] = (
                alg.reference(graph, iterations=self.shape.pagerank_iterations)
                if algorithm == "pagerank" else alg.reference(graph))
        return self._refs[key]

    def problems(self, job: JobRecord, graph, graph_round: int) -> List[str]:
        values = job.result.values
        if self.corrupt is not None:
            values = self.corrupt(job, values)
        ref = self._reference(graph, graph_round, job.algorithm)
        out = []
        if values.shape != ref.shape or not np.allclose(
                values, ref, rtol=1e-9, atol=1e-12, equal_nan=True):
            out.append("values differ from reference()")
        if job.algorithm != "pagerank" and not job.result.converged:
            out.append("did not converge")
        sim = [job.result.total_ms, job.result.iterations]
        recorded = self.digest.get(job.algorithm, [])
        if graph_round < len(recorded):
            want = recorded[graph_round]
        else:
            want = self._first.setdefault((graph_round, job.algorithm), sim)
        if sim != want:
            out.append(f"simulated [ms, iterations] {sim} != {want}")
        return out

    def count(self, job: JobRecord, problems: List[str]) -> None:
        self.checks.op(not problems,
                       f"{self.shape.name} seed {self.seed} {job.algorithm}"
                       f" round {job.round}: " + "; ".join(problems))


def _jobs_metrics(jobs: List[JobRecord]) -> Dict[str, float]:
    times = [j.seconds for j in jobs]
    by_alg = {a: float(np.mean([j.seconds for j in jobs
                                if j.algorithm == a]))
              for a in ALGORITHMS}
    work = sum(triplets(j.result) for j in jobs)
    return {
        "pagerank_job_s": by_alg["pagerank"],
        "sssp_job_s": by_alg["sssp-bf"],
        "cc_job_s": by_alg["cc"],
        "edges_per_s": work / sum(times),
        "request_p50_ms": 1e3 * percentile(times, 50),
        "request_p90_ms": 1e3 * percentile(times, 90),
        "requests_per_s": len(jobs) / sum(times),
    }


def _timed_graph(shape: BatchShape, seed):
    t0 = time.perf_counter()
    graph = make_graph(shape, seed)
    return graph, time.perf_counter() - t0


def run_untraced(shape: BatchShape, seed: int, seconds: float,
                 checks: Checks, corrupt=None) -> Dict[str, Any]:
    verifier = Verifier(shape, seed, checks, corrupt)
    setups = [_timed_graph(shape, graph_seed(seed, 0))[1]
              for _ in range(SETUP_REPEATS - 1)]
    graph, gen_s = _timed_graph(shape, graph_seed(seed, 0))
    setups.append(gen_s)
    jobs: List[JobRecord] = []
    t0 = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        if rounds and shape.fresh_graphs:
            graph, gen_s = _timed_graph(shape, graph_seed(seed, rounds))
            setups.append(gen_s)
        graph_round = rounds if shape.fresh_graphs else 0
        for name in ALGORITHMS:
            job = run_job(shape, graph, name, rounds)
            verifier.count(job, verifier.problems(job, graph, graph_round))
            job.result.values = None        # keep memory flat
            jobs.append(job)
        rounds += 1
    metrics = _jobs_metrics(jobs)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "samples": len(jobs)}


#: per-layer metrics of the serving path, which batch jobs never cross
SERVE_ONLY = (
    "serve.result_cache_hit_ratio", "serve.warm_starts",
    "serve.partition_builds", "serve.partition_deltas",
    "serve.partition_hits", "serve.mutations", "serve.hit_p50_ms",
    "serve.recompute_p50_ms", "serve.mutate_p50_ms", "wire.submit_rtt_ms",
    "wire.watch_ms", "wire.result_values_ms", "wire.overhead_ms",
    "wire.frames_in", "wire.frames_out")


def run_traced(shape: BatchShape, seed: int, checks: Checks,
               trace_path: str) -> Dict[str, Any]:
    """One untraced round, then one traced round on the same graph.

    Per-layer times are the traced round's self times; the two rounds'
    job times give ``trace.overhead_frac``.
    """
    verifier = Verifier(shape, seed, checks)
    graph = make_graph(shape, graph_seed(seed, 0))
    plain = []
    for name in ALGORITHMS:
        job = run_job(shape, graph, name, 0)
        verifier.count(job, verifier.problems(job, graph, 0))
        plain.append(job)
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        traced = []
        for name in ALGORITHMS:
            tracer.job = name
            traced.append(run_job(shape, graph, name, 1, tracer))
        tracer.job = None
    finally:
        installed.remove()
    selfs = spans.self_times(tracer.spans)
    for job in traced:
        probs = verifier.problems(job, graph, 0)
        # the layer self times plus "other" (the job span's own self
        # time) must add up to the job's traced wall time
        tree = spans.descendants(tracer.spans, job.span)
        total = sum(selfs[s.sid] for s in tree)
        wall = tree[0].duration
        if abs(total - wall) > 1e-6 * max(1.0, wall):
            probs.append(f"layer self times sum to {total} s, "
                         f"the job took {wall} s")
        verifier.count(job, probs)
    metrics = dict.fromkeys(SERVE_ONLY, 0.0)
    metrics.update(spans.layer_self_times(tracer.spans, selfs))
    metrics.update(result_counts([run_counts(j.result) for j in traced]))
    metrics["graph.replication_factor"] = median(
        [j.replication_factor for j in traced])
    # timed from outside, around each resumption of run_stepwise
    metrics["engines.superstep_s"] = median(
        [t for j in plain for t in j.step_seconds])
    metrics["trace.overhead_frac"] = (
        sum(j.seconds for j in traced) / sum(j.seconds for j in plain) - 1.0)
    spans.chrome_trace([("benchmark", tracer.spans)], trace_path)
    return {"metrics": metrics, "samples": len(traced)}
