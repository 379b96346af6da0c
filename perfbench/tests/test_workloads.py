"""Output checks, untraced runs and traced runs on small inputs."""

import json
import os

import numpy as np
import pytest

import batch
import common
import servemix
import spans

TINY = batch.BatchShape("tiny", "powergraph", 600, 4_000, 3, 0.1, True)
TINY_GX = batch.BatchShape("tiny-gx", "graphx", 600, 4_000, 3, None, False)
JOBS = batch.MIN_ROUNDS * len(batch.ALGORITHMS)


@pytest.fixture
def no_install(monkeypatch):
    def refuse(tracer):
        raise AssertionError("an untraced run installed span wrappers")
    monkeypatch.setattr(spans, "install", refuse)


def test_untraced_batch_run_installs_no_wrappers(no_install):
    checks = common.Checks()
    out = batch.run_untraced(TINY, 3, 0.01, checks)
    assert spans.wrapped_entry_points() == []
    assert (checks.attempted, checks.failed) == (JOBS, 0)
    assert set(out["metrics"]) == set(
        ["setup_s", "pagerank_job_s", "sssp_job_s", "cc_job_s",
         "edges_per_s", "request_p50_ms", "request_p90_ms",
         "requests_per_s", "peak_rss_mb"])
    assert all(v > 0 for v in out["metrics"].values())


def test_one_corrupted_batch_value_is_a_failed_job():
    def corrupt(job, values):
        if (job.algorithm, job.round) != ("cc", 1):
            return values
        values = values.copy()
        values[5] += 1
        return values

    checks = common.Checks()
    batch.run_untraced(TINY, 3, 0.01, checks, corrupt=corrupt)
    assert (checks.attempted, checks.failed) == (JOBS, 1)
    assert "values differ from reference()" in checks.messages[0]


def test_batch_digest_mismatch_is_a_failed_job(monkeypatch):
    # a digest recorded for round 0 only: round 0's three jobs fail it,
    # later rounds (other graphs) have nothing recorded to fail
    monkeypatch.setattr(batch, "digest_for", lambda name, seed: {
        "pagerank": [[0.0, 3]], "sssp-bf": [[0.0, 0]], "cc": [[0.0, 0]]})
    checks = common.Checks()
    batch.run_untraced(TINY, 3, 0.01, checks)
    assert (checks.attempted, checks.failed) == (JOBS, 3)


@pytest.mark.parametrize("shape", [TINY, TINY_GX], ids=lambda s: s.name)
def test_traced_batch_run_reports_every_layer(shape, tmp_path):
    import run
    checks = common.Checks()
    path = tmp_path / "trace.json"
    out = batch.run_traced(shape, 3, checks, str(path))
    assert spans.wrapped_entry_points() == []
    # 3 untraced + 3 traced jobs; the traced ones also passed the
    # "layer self times + other == job wall" check
    assert (checks.attempted, checks.failed) == (6, 0), checks.messages
    assert set(run.PER_LAYER) <= set(out["metrics"])
    m = out["metrics"]
    assert m["graph.partition_s"] > 0 and m["engines.supersteps"] > 0
    assert m["core.agent.edge_pass_self_s"] > 0
    assert m["serve.step_s"] == 0.0
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"job", "engines.superstep",
                                           "core.agent.edge_pass"}


def test_corrupted_served_value_counts_in_failed_frac(monkeypatch, tmp_path):
    monkeypatch.setattr(servemix, "VERTICES", 400)
    monkeypatch.setattr(servemix, "EDGES", 2_400)
    monkeypatch.setattr(servemix, "MIN_EPOCHS", 2)
    monkeypatch.setattr(servemix, "SETUP_REPEATS", 1)
    monkeypatch.setattr(common, "OUT_DIR", str(tmp_path))
    # the recorded digest is for the full-size graph
    monkeypatch.setattr(servemix, "digest_for", lambda name, seed: None)

    seen = []

    def corrupt(op, values):
        seen.append(op.index)
        if len(seen) > 1:
            return values
        values = values.copy()
        values.flat[0] += 1
        return values

    checks = common.Checks()
    out = servemix.run_untraced(5, 0.01, checks, corrupt=corrupt)
    assert checks.attempted == 2 * servemix.OPS_PER_EPOCH
    assert checks.failed == 1, checks.messages
    assert out["metrics"]["request_p90_ms"] > 0
    # the server journaled, and being untraced it recorded no span
    run_dir = tmp_path / "serve-run"
    assert (run_dir / "journal.jsonl").stat().st_size > 0
    assert json.loads((run_dir / "summary.json").read_text())["spans"] == []


def test_digest_of_seed_7_matches_the_committed_hotpath_entry():
    with open(os.path.join(common.ROOT, "BENCH_hotpath.json")) as fh:
        entry = json.load(fh)["entries"]["default"]["results"]
    digest = common.digest_for("pg-thrash", 7)
    for name in ("pagerank", "sssp-bf"):
        assert digest[name][0] == [entry[name]["simulated_ms"],
                                   entry[name]["iterations"]]


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 50, 90, 100):
        assert common.percentile(xs, q) == pytest.approx(
            np.percentile(xs, q))
