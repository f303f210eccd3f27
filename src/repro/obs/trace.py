"""Span tracing: where does one query's time actually go?

The engine's :class:`~repro.core.engine.SearchReport` says *how much* time
the filter and refine phases took; a trace says *which* query, over *which*
attributes, touching *how many* tuples — and nests the phases inside the
query the way they executed.  Spans carry attributes (tid counts, bytes,
attribute ids), feed duration histograms into the metrics registry, and
can be written as JSON lines for offline analysis (``repro query --trace``).

Two ways to produce a span:

* :meth:`Tracer.span` — a context manager timing a live region
  (``with tracer.span("query", engine="iVA"):``); spans opened inside it
  become children.
* :meth:`Tracer.record` — a synthetic span for a *pre-measured* duration.
  The engine's filter and refine phases interleave (refinement happens
  "from time to time during the filtering process"), so their per-phase
  totals are accumulated by the engine and recorded as two child spans
  whose durations reconcile exactly with the report.

A :class:`SlowQueryLog` watches completed root ``query`` spans and emits a
JSON line through the ``repro.obs.slow_query`` logger for every query whose
modeled time crosses the threshold — the production "why was this one
slow" hook.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import IO, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "Tracer",
    "JsonlSpanSink",
    "SlowQueryLog",
    "get_tracer",
    "set_tracer",
]

#: Dedicated namespace so operators can route the slow-query stream to its
#: own handler/file without touching the rest of the library's logging.
SLOW_QUERY_LOGGER = "repro.obs.slow_query"

logger = logging.getLogger(__name__)


@dataclass
class Span:
    """One timed region: name, attributes, duration and children."""

    name: str
    attrs: dict = field(default_factory=dict)
    duration_ms: float = 0.0
    children: List["Span"] = field(default_factory=list)
    #: perf_counter at entry; None for synthetic (pre-measured) spans.
    _started: Optional[float] = None

    def child(self, name: str) -> Optional["Span"]:
        """First direct child with this name, or None."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def total_ms(self, name: str) -> float:
        """Summed duration of all direct children with this name."""
        return sum(s.duration_ms for s in self.children if s.name == name)

    def to_dict(self) -> dict:
        """JSON-able nested representation."""
        out = {"name": self.name, "duration_ms": self.duration_ms}
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class JsonlSpanSink:
    """Writes each completed root span as one JSON line."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = destination
            self._owns = False
        self._lock = threading.Lock()
        self.spans_written = 0

    def write(self, span: Span) -> None:
        """Append one root span."""
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self.spans_written += 1

    def close(self) -> None:
        """Flush and (if we opened the file) close it."""
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SlowQueryLog:
    """Threshold filter emitting JSON lines for slow root query spans.

    The comparison value is the span's ``modeled_ms`` attribute when
    present (the paper's modeled I/O + CPU time — the number every figure
    reports) and the measured wall duration otherwise.
    """

    def __init__(self, threshold_ms: float, span_name: str = "query") -> None:
        if threshold_ms < 0:
            raise ValueError("slow-query threshold must be non-negative")
        self.threshold_ms = threshold_ms
        self.span_name = span_name
        self._logger = logging.getLogger(SLOW_QUERY_LOGGER)
        self.emitted = 0

    def consider(self, span: Span) -> bool:
        """Log the span if it qualifies; True when a line was emitted."""
        if span.name != self.span_name:
            return False
        value = float(span.attrs.get("modeled_ms", span.duration_ms))
        if value < self.threshold_ms:
            return False
        payload = dict(span.to_dict(), slow_query_ms=value)
        self._logger.warning("%s", json.dumps(payload, sort_keys=True))
        self.emitted += 1
        return True


class Tracer:
    """Context-manager spans with a per-thread stack.

    Completed *root* spans are fanned out to the JSONL sink (if any), the
    slow-query log (if any), and a ``repro_span_duration_ms`` histogram in
    the registry, labelled by span name.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[JsonlSpanSink] = None,
        slow_query_log: Optional[SlowQueryLog] = None,
    ) -> None:
        self._registry = registry
        self.sink = sink
        self.slow_query_log = slow_query_log
        self._local = threading.local()

    @property
    def registry(self) -> MetricsRegistry:
        """The registry observations land in (default: process-global)."""
        return self._registry if self._registry is not None else get_registry()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs) -> "_SpanGuard":
        """Open a timed span; use as a context manager."""
        return _SpanGuard(self, Span(name=name, attrs=dict(attrs)))

    def attach(self, parent: Optional[Span]) -> "_AttachGuard":
        """Adopt *parent* — a span owned by another thread — as this
        thread's current span for the duration of the guard.

        Worker threads start with an empty thread-local stack, so any span
        they open becomes an orphan *root* (fanned out to the sink on its
        own) instead of nesting under the query that spawned the work.
        Wrapping the worker body in ``with tracer.attach(query_span):``
        makes spans opened inside it children of *parent*, so the trace
        shows the true query tree.

        The parent is only *borrowed*: closing the guard pops it from this
        thread's stack without finishing it — the owning thread still
        closes it normally.  Appending children to a foreign span is safe
        under the GIL (``list.append`` is atomic), provided the owner
        keeps the parent open until the workers are done (join them inside
        the parent span).

        ``attach(None)`` is a no-op guard, so call sites need no branch
        for the "no parent" case.
        """
        return _AttachGuard(self, parent)

    def record(self, name: str, duration_ms: float, **attrs) -> Span:
        """Attach a synthetic span with a pre-measured duration.

        Becomes a child of the currently open span, or a root span (fanned
        out to sink/registry) when none is open.
        """
        span = Span(name=name, attrs=dict(attrs), duration_ms=float(duration_ms))
        parent = self.current()
        if parent is not None:
            parent.children.append(span)
        else:
            self._finish_root(span)
        return span

    # ---------------------------------------------------------------- guts

    def _enter(self, span: Span) -> Span:
        span._started = time.perf_counter()
        self._stack().append(span)
        return span

    def _exit(self, span: Span) -> None:
        stack = self._stack()
        # Identity, not equality: Span is a dataclass, and two spans with
        # the same name/attrs would compare equal.
        if not any(s is span for s in stack):
            raise RuntimeError(f"span {span.name!r} closed out of order")
        # Unwind anything still open above *span* — e.g. a generator that
        # opened a span and was abandoned mid-iteration, or an inner guard
        # skipped by an exception path.  Closing them here (tagged
        # ``abandoned``) keeps the stack clean for the next query instead
        # of poisoning every later span with a stale parent.
        while stack[-1] is not span:
            orphan = stack.pop()
            if orphan._started is not None:
                orphan.duration_ms = (time.perf_counter() - orphan._started) * 1000.0
            orphan.attrs.setdefault("abandoned", True)
            span.children.append(orphan)
        stack.pop()
        if span._started is not None:
            span.duration_ms = (time.perf_counter() - span._started) * 1000.0
        if stack:
            stack[-1].children.append(span)
        else:
            self._finish_root(span)

    def _finish_root(self, span: Span) -> None:
        self.registry.histogram(
            "repro_span_duration_ms",
            labels={"span": span.name},
            help="Wall-clock duration of completed root spans.",
        ).observe(span.duration_ms)
        if self.sink is not None:
            self.sink.write(span)
        if self.slow_query_log is not None:
            self.slow_query_log.consider(span)


class _SpanGuard:
    """Context manager wrapping one span's open/close."""

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self._tracer._enter(self.span)

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self.span)
        return False


class _AttachGuard:
    """Borrows a foreign parent span onto this thread's stack.

    See :meth:`Tracer.attach`.  On exit the parent is popped *without*
    being finished (its owner does that); any span left open above it is
    unwound into the parent as ``abandoned`` so the borrow can never leak
    state into the worker thread's next task.
    """

    def __init__(self, tracer: Tracer, parent: Optional[Span]) -> None:
        self._tracer = tracer
        self._parent = parent

    def __enter__(self) -> Optional[Span]:
        if self._parent is not None:
            self._tracer._stack().append(self._parent)
        return self._parent

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._parent is None:
            return False
        stack = self._tracer._stack()
        while stack and stack[-1] is not self._parent:
            orphan = stack.pop()
            if orphan._started is not None:
                orphan.duration_ms = (time.perf_counter() - orphan._started) * 1000.0
            orphan.attrs.setdefault("abandoned", True)
            self._parent.children.append(orphan)
        if stack:
            stack.pop()  # the borrowed parent; its owner finishes it
        return False


_default_tracer = Tracer()
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global default tracer (no sink, default registry)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _default_tracer
    with _default_lock:
        previous = _default_tracer
        _default_tracer = tracer
    return previous
