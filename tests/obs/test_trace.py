"""Tracer unit contracts: nesting, adoption, IO round-trips, signatures."""

import pytest

from repro.exceptions import TraceError
from repro.obs import (
    NULL_TRACER,
    Span,
    Tracer,
    assemble_trace,
    format_span_tree,
    read_trace,
    summarize_spans,
    write_trace,
)
from repro.obs.trace import _children_map


def tree_signature(spans):
    """The structure of a trace — names and parentage, nothing else.

    A nested tuple ``(name, (child signatures...))`` per root, children in
    appearance order.  Durations, ids, and attributes are excluded, so two
    traces compare equal exactly when their span trees (names, parentage,
    counts) match: the serial-vs-parallel identity these tests assert.
    """
    children = _children_map(spans)

    def signature(span):
        return (
            span.name,
            tuple(signature(child) for child in children.get(span.span_id, [])),
        )

    return tuple(signature(root) for root in children.get(None, []))


def _sample_trace():
    tracer = Tracer()
    with tracer.span("cell", seed="7") as cell:
        with tracer.span("tx-plan") as plan:
            plan.set("symbols", 10)
        with tracer.span("record"):
            for i in range(3):
                with tracer.span("capture", frame=i):
                    pass
        cell.set("done", True)
    return tracer.spans()


class TestTracer:
    def test_parents_precede_children(self):
        spans = _sample_trace()
        seen = set()
        for span in spans:
            assert span.parent_id is None or span.parent_id in seen
            seen.add(span.span_id)

    def test_nesting_and_ids(self):
        spans = _sample_trace()
        assert [s.name for s in spans] == [
            "cell", "tx-plan", "record", "capture", "capture", "capture",
        ]
        assert [s.span_id for s in spans] == [1, 2, 3, 4, 5, 6]
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, s)
        assert by_name["cell"].parent_id is None
        assert by_name["tx-plan"].parent_id == 1
        assert by_name["capture"].parent_id == by_name["record"].span_id

    def test_attributes_via_kwargs_and_set(self):
        spans = _sample_trace()
        cell = spans[0]
        assert cell.attributes == {"seed": "7", "done": True}
        assert spans[1].attributes == {"symbols": 10}

    def test_durations_nonnegative_and_nested(self):
        spans = _sample_trace()
        for span in spans:
            assert span.duration_s >= 0.0
        cell = spans[0]
        children = [s for s in spans if s.parent_id == cell.span_id]
        assert sum(c.duration_s for c in children) <= cell.duration_s + 1e-6

    def test_sibling_roots_allowed(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        roots = [s for s in tracer.spans() if s.parent_id is None]
        assert [r.name for r in roots] == ["a", "b"]


class TestNullTracer:
    def test_records_nothing(self):
        with NULL_TRACER.span("cell", seed=1) as span:
            span.set("k", "v")
            with NULL_TRACER.span("inner"):
                pass
        assert NULL_TRACER.spans() == ()
        assert NULL_TRACER.enabled is False

    def test_null_span_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestAdopt:
    def test_renumbers_and_reparents(self):
        batch = _sample_trace()
        tracer = Tracer()
        with tracer.span("sweep") as root:
            pass
        adopted = tracer.adopt(batch, parent=root)
        assert len(adopted) == len(batch)
        assert adopted[0].parent_id == root.span_id
        ids = [s.span_id for s in tracer.spans()]
        assert len(set(ids)) == len(ids)
        assert tree_signature(batch) == tree_signature(adopted)

    def test_adopt_without_parent_keeps_roots(self):
        tracer = Tracer()
        adopted = tracer.adopt(_sample_trace())
        assert adopted[0].parent_id is None

    def test_dangling_parent_raises(self):
        orphan = Span(name="x", span_id=5, parent_id=99, start_s=0.0)
        with pytest.raises(TraceError, match="outside its own batch"):
            Tracer().adopt([orphan])


class TestAssemble:
    def test_cells_in_order_under_one_root(self):
        a, b = _sample_trace(), _sample_trace()
        spans = assemble_trace([a, b], root_attributes={"workers": 2})
        root = spans[0]
        assert root.name == "sweep"
        assert root.parent_id is None
        assert root.attributes == {"workers": 2, "cells": 2}
        cells = [s for s in spans if s.parent_id == root.span_id]
        assert [c.name for c in cells] == ["cell", "cell"]
        assert root.duration_s == pytest.approx(
            sum(c.duration_s for c in cells)
        )

    def test_none_and_empty_entries_skipped(self):
        spans = assemble_trace([None, _sample_trace(), ()])
        assert spans[0].attributes["cells"] == 1

    def test_signature_independent_of_input_partitioning(self):
        a, b = _sample_trace(), _sample_trace()
        assert tree_signature(assemble_trace([a, b])) == tree_signature(
            assemble_trace([b, a])
        )


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        spans = assemble_trace([_sample_trace()])
        path = tmp_path / "t.jsonl"
        write_trace(path, spans)
        loaded = read_trace(path)
        assert [(s.name, s.span_id, s.parent_id) for s in loaded] == [
            (s.name, s.span_id, s.parent_id) for s in spans
        ]
        assert tree_signature(loaded) == tree_signature(spans)
        assert loaded[1].attributes["seed"] == "7"

    def test_nonprimitive_attributes_serialize_as_str(self, tmp_path):
        span = Span(name="x", span_id=1, parent_id=None, start_s=0.0)
        span.set("obj", object())
        path = tmp_path / "t.jsonl"
        write_trace(path, [span])
        assert isinstance(read_trace(path)[0].attributes["obj"], str)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(tmp_path / "ghost.jsonl")

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError, match="not valid JSON"):
            read_trace(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": 99}\n')
        with pytest.raises(TraceError, match="trace schema"):
            read_trace(path)

    def test_malformed_record_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": 1, "span": 1}\n')
        with pytest.raises(TraceError, match="malformed span record"):
            read_trace(path)


class TestAnalysis:
    def test_tree_signature_ignores_attributes_and_durations(self):
        a, b = list(_sample_trace()), list(_sample_trace())
        b[0].set("extra", "attr")
        b[0].duration_s = 123.0
        assert tree_signature(a) == tree_signature(b)

    def test_tree_signature_sees_structure_changes(self):
        tracer = Tracer()
        with tracer.span("cell"):
            with tracer.span("tx-plan"):
                pass
        assert tree_signature(tracer.spans()) != tree_signature(_sample_trace())

    def test_summarize_counts_every_name(self):
        lines = summarize_spans(_sample_trace())
        joined = "\n".join(lines)
        assert "6 span(s), 1 root(s)" in joined
        assert "capture" in joined

    def test_format_tree_indents_and_caps(self):
        spans = _sample_trace()
        lines = format_span_tree(spans)
        assert lines[0].startswith("cell")
        assert lines[1].startswith("  tx-plan")
        capped = format_span_tree(spans, max_spans=2)
        assert len(capped) == 3
        assert "capped" in capped[-1]
