"""Span bookkeeping: nesting and self-time arithmetic."""

import json

import pytest

from perfbench import spans
from perfbench.spans import Span, Tracer


def test_covered_merges_overlaps_and_clips_to_parent():
    # [1,3] and [2,5] overlap -> [1,5]; [8,12] is clipped to [8,10]
    assert spans.covered((0, 10), [(1, 3), (2, 5), (8, 12)]) == 6
    assert spans.covered((0, 10), []) == 0
    assert spans.covered((0, 10), [(11, 12), (-3, -1)]) == 0


def test_self_time_is_duration_minus_children_union():
    rows = [
        Span(1, "campaign", 0.0, 10.0, None, "r"),
        # two tasks on two workers at once: their union counts once
        Span(2, "task", 1.0, 4.0, 1, "r"),
        Span(3, "task", 2.0, 6.0, 1, "r"),
        # a grandchild is the task's business, not the campaign's
        Span(4, "loop", 2.5, 3.5, 2, "r"),
    ]
    selfs = spans.self_times(rows)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_nests_and_records_run_id(tmp_path):
    tracer = Tracer("run-7", first_id=100)
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    extra = tracer.add("task", 0.0, 1.0, parent=outer)
    by_id = {s.span_id: s for s in tracer.spans}
    assert (outer, inner, extra) == (100, 101, 102)
    assert by_id[inner].parent == outer and by_id[outer].parent is None
    assert {s.run_id for s in tracer.spans} == {"run-7"}
    assert spans.from_dicts(tracer.to_dicts()) == tracer.spans

    path = tmp_path / "ledger.jsonl"
    spans.write_ledger(str(path), tracer.spans, {"workload": "w"})
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 3 and all(r["workload"] == "w" for r in rows)
    outer_row = next(r for r in rows if r["name"] == "outer")
    inner_row = next(r for r in rows if r["name"] == "inner")
    assert outer_row["self_s"] == pytest.approx(
        outer_row["duration_s"] - inner_row["duration_s"])
