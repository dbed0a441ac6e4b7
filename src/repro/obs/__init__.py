"""repro.obs -- the unified telemetry plane (DESIGN.md §3.13).

Hierarchical spans, the one counter type (:class:`Counters`) with a
metrics registry, and three exporters.  Spans are gated by
``REPRO_OBS`` (default off: no-op spans, zero allocation); counters
always count.  This package imports nothing from the rest of ``repro``
-- instrumented modules import it, never the other way round -- so it
can sit underneath every layer without cycles.
"""

from .export import (
    SPAN_SCHEMA,
    as_record,
    chrome_trace,
    prometheus_text,
    read_jsonl,
    validate_chrome_trace,
    validate_record,
    write_chrome_trace,
    write_jsonl,
)
from .registry import Counters, MetricsRegistry, registry
from .report import format_report, report_file, summarize
from .spans import (
    ENV_VAR,
    NOOP_SPAN,
    Collector,
    Span,
    collector,
    enabled,
    event,
    set_enabled,
    span,
)

__all__ = [
    "SPAN_SCHEMA",
    "ENV_VAR",
    "NOOP_SPAN",
    "Collector",
    "Counters",
    "MetricsRegistry",
    "Span",
    "as_record",
    "chrome_trace",
    "collector",
    "enabled",
    "event",
    "format_report",
    "prometheus_text",
    "read_jsonl",
    "registry",
    "report_file",
    "set_enabled",
    "span",
    "summarize",
    "validate_chrome_trace",
    "validate_record",
    "write_chrome_trace",
    "write_jsonl",
]
