"""Self-time arithmetic, span nesting and per-layer metric derivation."""

import threading

import pytest

from perfbench.tracer import (
    Span,
    Tracer,
    bracket,
    covered_time,
    layer_metrics,
    select,
    self_times,
)


def _span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, "run")


def test_self_time_subtracts_child_cover_once():
    spans = [
        _span(0, "parent", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),  # overlaps a: [1, 6] counts once
        _span(3, "c", 8.0, 12.0, 0),  # runs past the parent: clipped
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)


def test_grandchildren_count_against_their_parent_only():
    spans = [
        _span(0, "outer", 0.0, 10.0),
        _span(1, "middle", 2.0, 8.0, 0),
        _span(2, "inner", 3.0, 5.0, 1),
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 4.0, 2: 2.0})


def test_covered_time_of_disjoint_and_empty_children():
    span = _span(0, "p", 0.0, 10.0)
    assert covered_time(span, []) == 0.0
    children = [_span(1, "x", 1.0, 2.0, 0), _span(2, "y", 5.0, 7.5, 0)]
    assert covered_time(span, children) == pytest.approx(3.5)


def test_helper_thread_spans_nest_under_the_main_thread():
    tracer = Tracer("run")
    with tracer.span("outer") as outer:
        worker = threading.Thread(target=lambda: tracer.span("inner").__enter__())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    inner = [row for row in tracer.spans if row[1] == "inner"]
    assert inner[0][4] == outer[0]


def test_directly_nested_call_of_the_same_name_is_one_span():
    tracer = Tracer("run")

    def leaf():
        return 1

    def outer():
        return traced_leaf() + 1

    traced_leaf = tracer.wrap(leaf, "layer")
    traced_outer = tracer.wrap(outer, "layer")
    assert traced_outer() == 2
    assert [row[1] for row in tracer.spans] == ["layer"]


def test_layer_metrics_self_time_counts_and_coverage():
    tracer = Tracer("run")
    with tracer.span("experiments.fig_x"):
        with tracer.span("engine.run_cells"):
            with tracer.span("cells.key"):
                pass
            with tracer.span("core.solve.synts"):
                pass
    tracer.count("engine.cells_requested", 4)
    tracer.count("engine.cells_unique", 2)
    ready = tracer.spans[0][2]
    done = tracer.spans[0][3]
    trace = {**tracer.export(), "ready": ready, "done": done}
    trace = bracket(trace, ready - 0.5, done + 0.5)
    metrics = layer_metrics(trace, wall_s=done - ready + 1.0, untraced_wall_s=0.25)

    run_cells = next(r for r in trace["spans"] if r[1] == "engine.run_cells")
    children = sum(
        r[3] - r[2] for r in trace["spans"] if r[4] == run_cells[0]
    )
    assert metrics["engine.run_cells_s"] == pytest.approx(
        run_cells[3] - run_cells[2] - children
    )
    assert metrics["cells.key_calls"] == 1
    assert metrics["core.solve_calls.synts"] == 1
    assert metrics["engine.dedup_ratio"] == pytest.approx(0.5)
    assert metrics["trace.top_level_coverage"] == pytest.approx(1.0)
    assert metrics["trace.overhead_s"] == pytest.approx(done - ready + 0.75)


def test_select_zero_fills_families_and_rejects_unknown_names():
    chosen = select({"cli.import_s": 0.5}, ["cli.import_s", "core.solve_s.online"])
    assert chosen == {"cli.import_s": 0.5, "core.solve_s.online": 0.0}
    with pytest.raises(KeyError):
        select({}, ["cli.imprt_s"])
