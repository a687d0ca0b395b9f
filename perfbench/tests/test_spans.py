"""Self time is a span's duration minus its children's."""
import spans


def test_self_times_subtract_children_per_run():
    recorded = [
        (1, "cli.main", 0.5, 1.5, 0, "r1"),
        (0, "task.x", 0.0, 2.0, None, "r1"),
        (0, "task.x", 0.0, 1.0, None, "r2"),  # same id, other run: no child
    ]
    busy, calls = spans.self_times(recorded)
    assert busy == {"cli.main": 1.0, "task.x": 2.0}
    assert calls == {"cli.main": 1, "task.x": 2}


def test_disabled_tracer_records_nothing():
    tr = spans.Tracer("off", enabled=False)
    assert tr.call("m.f", lambda x: x + 1, 1) == 2
    tr.count("m.n")
    assert tr.spans == [] and not tr.counts


def test_enabled_tracer_links_parents():
    tr = spans.Tracer("on", enabled=True)
    with tr.span("task.t"):
        tr.call("m.f", lambda: None)
    (child, parent) = tr.spans
    assert child[1] == "m.f" and child[4] == parent[0] and parent[4] is None
