"""Dynamic instruction traces.

The trace is MOARD's central data structure: the application trace generator
(our VM) records one :class:`~repro.tracing.events.TraceEvent` per executed
IR instruction, carrying operand values, producer links, and the resolution
of every memory access back to a named data object.  The trace analysis tool
(:mod:`repro.core`) consumes these events to count error-masking
opportunities per data object.

Public API
----------
:class:`~repro.tracing.events.TraceEvent`,
:class:`~repro.tracing.events.OperandKind`,
:class:`~repro.tracing.trace.Trace`,
:func:`~repro.tracing.serialize.trace_to_jsonl`,
:func:`~repro.tracing.serialize.trace_from_jsonl`.
"""

from repro.tracing.events import OperandKind, TraceEvent
from repro.tracing.trace import Trace, TraceSummary
from repro.tracing.cursor import TraceCursor, TraceLike
from repro.tracing.columnar import ColumnarTrace, TraceColumns
from repro.tracing.cache import TraceCache, trace_digest
from repro.tracing.sinks import ColumnarTraceSink, CountingSink, TraceSink
from repro.tracing.serialize import (
    trace_to_jsonl,
    trace_from_jsonl,
    save_trace,
    load_trace,
)

__all__ = [
    "OperandKind",
    "TraceEvent",
    "Trace",
    "TraceSummary",
    "TraceCursor",
    "TraceLike",
    "TraceSink",
    "ColumnarTrace",
    "TraceColumns",
    "ColumnarTraceSink",
    "CountingSink",
    "TraceCache",
    "trace_digest",
    "trace_to_jsonl",
    "trace_from_jsonl",
    "save_trace",
    "load_trace",
]
