"""Nested spans: the tracer, the no-op default, and trace assembly/IO.

A :class:`Tracer` records a tree of :class:`Span` records via a
context-manager API; the pipeline is handed one by explicit injection
(``LinkSimulator(tracer=...)``) and never reaches for a global.  The
default is :data:`NULL_TRACER`, whose ``span`` returns a shared no-op —
the disabled hot path costs one method call and stays within measurement
noise (asserted by ``tests/obs/test_overhead.py``).

Worker processes cannot share a tracer, so each observed cell records
into its own local :class:`Tracer` and ships the finished span tuple back
on the result (``LinkResult.trace``); :func:`assemble_trace` then adopts
every cell's spans under one synthetic root *in spec order*, renumbering
ids, so serial, parallel, degraded, and resumed sweeps of the same specs
produce identical span trees.

Traces serialize as JSON Lines, one span per line, parents before
children (:func:`write_trace` / :func:`read_trace`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import TraceError
from repro.obs.schema import SPAN_SWEEP, TRACE_SCHEMA_VERSION


@dataclass
class Span:
    """One traced operation: name, tree position, wall clock, attributes."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    duration_s: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)

    def set(self, key: str, value: object) -> None:
        """Attach one attribute (JSON-friendly values; others are str()ed)."""
        self.attributes[key] = value


class _NullSpan:
    """The do-nothing span every :class:`NullTracer` call returns."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        """Discard the attribute."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The shared no-op span; safe because it holds no state.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every ``span`` is the shared no-op.

    Stateless and picklable, so specs executed in worker processes can
    default to it without shipping anything.
    """

    enabled = False

    def span(self, name: str, **attributes) -> _NullSpan:
        """Return the shared no-op context manager."""
        return NULL_SPAN

    def spans(self) -> Tuple[Span, ...]:
        """A null tracer never recorded anything."""
        return ()


#: The module-wide default injected wherever no tracer is supplied.
NULL_TRACER = NullTracer()


class Tracer:
    """Records a tree of spans through a context-manager API.

    Spans are appended at *entry*, so parents always precede children in
    :meth:`spans` — the ordering invariant trace IO and assembly rely on.
    Not thread-safe by design: one tracer per cell, per process.
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._clock = time.perf_counter
        self._origin = self._clock()

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a child span of the innermost open span (or a new root)."""
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            start_s=self._clock() - self._origin,
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.duration_s = (
                self._clock() - self._origin - record.start_s
            )
            self._stack.pop()

    def spans(self) -> Tuple[Span, ...]:
        """Everything recorded so far, parents before children."""
        return tuple(self._spans)

    def adopt(
        self, spans: Sequence[Span], parent: Optional[Span] = None
    ) -> List[Span]:
        """Graft a foreign span batch (e.g. from a worker) into this tracer.

        Ids are renumbered into this tracer's sequence and the batch's
        roots are re-parented under ``parent`` (or left as roots), so
        traces recorded in other processes merge without collisions.
        Returns the adopted copies, in the batch's order.
        """
        mapping: Dict[int, int] = {}
        adopted: List[Span] = []
        for span in spans:
            new_id = self._next_id
            self._next_id += 1
            mapping[span.span_id] = new_id
            if span.parent_id is None:
                new_parent = parent.span_id if parent is not None else None
            else:
                try:
                    new_parent = mapping[span.parent_id]
                except KeyError:
                    raise TraceError(
                        f"span {span.span_id} ({span.name!r}) references "
                        f"parent {span.parent_id} outside its own batch"
                    ) from None
            copy = Span(
                name=span.name,
                span_id=new_id,
                parent_id=new_parent,
                start_s=span.start_s,
                duration_s=span.duration_s,
                attributes=dict(span.attributes),
            )
            self._spans.append(copy)
            adopted.append(copy)
        return adopted


def assemble_trace(
    cell_traces: Iterable[Optional[Sequence[Span]]],
    root_name: str = SPAN_SWEEP,
    root_attributes: Optional[Dict[str, object]] = None,
) -> List[Span]:
    """One coherent trace from per-cell span batches, in the given order.

    ``cell_traces`` is iterated in *spec order* (the caller passes
    ``RuntimeResult.results`` order, never completion order), so the
    assembled tree is identical for serial and parallel executions of the
    same specs.  ``None`` entries (failed or unobserved cells) contribute
    nothing.  The synthetic root's duration is the sum of the adopted
    roots' durations — cells may have run concurrently, so their wall
    clocks add, they do not nest.
    """
    tracer = Tracer()
    root = Span(
        name=root_name,
        span_id=1,
        parent_id=None,
        start_s=0.0,
        attributes=dict(root_attributes or {}),
    )
    tracer._spans.append(root)
    tracer._next_id = 2
    cells = 0
    total = 0.0
    for trace in cell_traces:
        if not trace:
            continue
        cells += 1
        adopted = tracer.adopt(list(trace), parent=root)
        total += sum(s.duration_s for s in adopted if s.parent_id == root.span_id)
    root.duration_s = total
    root.set("cells", cells)
    return list(tracer.spans())


# -- serialization ---------------------------------------------------------


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_trace(path, spans: Sequence[Span]) -> None:
    """Write spans as JSON Lines (one span per line, parents first)."""
    lines = []
    for span in spans:
        lines.append(
            json.dumps(
                {
                    "schema": TRACE_SCHEMA_VERSION,
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start_s": round(span.start_s, 6),
                    "duration_s": round(span.duration_s, 6),
                    "attrs": {
                        k: _jsonable(v) for k, v in span.attributes.items()
                    },
                },
                sort_keys=True,
            )
        )
    try:
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    except OSError as exc:
        raise TraceError(f"cannot write trace {path}: {exc}") from exc


def read_trace(path) -> List[Span]:
    """Parse a JSONL trace file back into spans (strictly validated)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    spans: List[Span] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise TraceError(
                f"{path}:{number}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise TraceError(f"{path}:{number}: span record must be an object")
        if record.get("schema") != TRACE_SCHEMA_VERSION:
            raise TraceError(
                f"{path}:{number}: trace schema {record.get('schema')!r}, "
                f"expected {TRACE_SCHEMA_VERSION}"
            )
        try:
            spans.append(
                Span(
                    name=record["name"],
                    span_id=int(record["span"]),
                    parent_id=(
                        None if record["parent"] is None else int(record["parent"])
                    ),
                    start_s=float(record["start_s"]),
                    duration_s=float(record["duration_s"]),
                    attributes=dict(record.get("attrs") or {}),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(
                f"{path}:{number}: malformed span record: {exc}"
            ) from exc
    return spans


# -- analysis --------------------------------------------------------------


def _children_map(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    children: Dict[Optional[int], List[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)
    return children


def summarize_spans(spans: Sequence[Span]) -> List[str]:
    """Per-name rollup lines: count, total seconds, share of the root(s)."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    order: List[str] = []
    for span in spans:
        if span.name not in totals:
            order.append(span.name)
            totals[span.name] = 0.0
            counts[span.name] = 0
        totals[span.name] += span.duration_s
        counts[span.name] += 1
    roots = [span for span in spans if span.parent_id is None]
    base = sum(span.duration_s for span in roots) or 1.0
    lines = [
        f"{len(spans)} span(s), {len(roots)} root(s), "
        f"{base if roots else 0.0:.3f} s total",
        f"{'span':>10} | {'count':>6} | {'seconds':>8} | {'share':>6}",
        "-" * 40,
    ]
    for name in order:
        lines.append(
            f"{name:>10} | {counts[name]:>6} | {totals[name]:8.3f} "
            f"| {totals[name] / base:5.1%}"
        )
    return lines


def format_span_tree(spans: Sequence[Span], max_spans: int = 200) -> List[str]:
    """Indented tree lines (depth-first, appearance order), capped."""
    children = _children_map(spans)
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        if len(lines) >= max_spans:
            return
        attrs = ""
        if span.attributes:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(span.attributes.items())
            )
            attrs = f"  [{rendered}]"
        lines.append(
            f"{'  ' * depth}{span.name} ({span.duration_s:.3f}s){attrs}"
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    if len(lines) >= max_spans:
        lines.append(f"... ({len(spans)} spans total; tree capped)")
    return lines
