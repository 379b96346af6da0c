"""Self time, span nesting, Chrome trace export and wrapper lifetime."""

import json

import pytest

import spans


def span(sid, name, start, end, parent=None):
    return spans.Span(sid, name, start, end, parent)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(0, "job", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, 0),
        span(2, "b", 3.0, 6.0, 0),        # overlaps a: union is 1..6
        span(3, "c", 2.0, 3.0, 1),
        span(4, "d", 8.0, 12.0, 0),       # runs past its parent: clipped
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)


def test_nested_self_times_sum_to_the_root():
    tracer = spans.Tracer(clock=iter(range(100)).__next__)
    with tracer.span("job"):
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        with tracer.span("x"):
            pass
    selfs = spans.self_times(tracer.spans)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert sum(selfs.values()) == tracer.spans[0].duration
    assert [selfs[s.sid] for s in tracer.spans] == [3, 2, 1, 1]
    assert [s.sid for s in spans.descendants(tracer.spans, 1)] == [1, 2]


def test_chrome_trace_is_trace_event_json(tmp_path):
    tracer = spans.Tracer()
    tracer.job = "op1"
    with tracer.span("outer", kind="hit"):
        with tracer.span("inner"):
            pass
    path = tmp_path / "trace.json"
    spans.chrome_trace([("client", tracer.spans)], str(path))
    doc = json.loads(path.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert events[0]["args"] == {"kind": "hit", "sid": 0, "parent": None,
                                 "job": "op1"}
    assert events[1]["ts"] >= events[0]["ts"]
    assert events[1]["dur"] <= events[0]["dur"]


def test_install_wraps_every_target_and_remove_restores_them():
    assert spans.wrapped_entry_points() == []
    installed = spans.install(spans.Tracer())
    try:
        assert len(spans.wrapped_entry_points()) == len(spans.TARGETS) + 1
    finally:
        installed.remove()
    assert spans.wrapped_entry_points() == []
