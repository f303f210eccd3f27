"""A live observability endpoint on the standard library's HTTP server.

``repro obs serve`` turns the process-global registry and tracer into a
scrapeable daemon — the operability seed for the roadmap's always-on query
service:

* ``/metrics`` — Prometheus text exposition (version 0.0.4);
* ``/metrics.json`` — the registry's JSON snapshot;
* ``/healthz`` — liveness (uptime, spans buffered, requests served);
* ``/traces/recent`` — the newest root spans from an in-memory ring
  buffer (``?limit=N``, newest first).

Everything is stdlib: :class:`http.server.ThreadingHTTPServer` with a
small routing handler.  The server is embeddable (``ObsServer(port=0)``
binds an ephemeral port; tests and in-process workloads use that) and the
metrics source is pluggable — pass ``registry_provider`` to serve e.g. a
snapshot sidecar re-read per request instead of the live registry.

The span ring buffer (:class:`SpanRingBuffer`) implements the JSONL sink
protocol (``write``/``close``), so it can be a tracer's sink directly or
tee alongside a file sink via :class:`TeeSink`.
"""

from __future__ import annotations

import collections
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.export import render_json, render_prometheus
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span

__all__ = [
    "SpanRingBuffer",
    "TeeSink",
    "ObsServer",
    "PROMETHEUS_CONTENT_TYPE",
    "JSON_CONTENT_TYPE",
]

#: Content type of the text exposition format we render.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Content type of every JSON response.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


class SpanRingBuffer:
    """The last *capacity* completed root spans, as JSON-able dicts.

    Implements the span-sink protocol (:meth:`write`/:meth:`close`), so a
    :class:`~repro.obs.trace.Tracer` can fan root spans straight into it.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._spans: "collections.deque" = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.spans_written = 0

    def write(self, span: Span) -> None:
        """Append one completed root span (sink protocol)."""
        entry = span.to_dict()
        with self._lock:
            self._spans.append(entry)
            self.spans_written += 1

    def close(self) -> None:
        """Sink protocol no-op (nothing to flush)."""

    def recent(self, limit: Optional[int] = None) -> List[dict]:
        """Newest-first buffered spans, at most *limit* of them."""
        with self._lock:
            items = list(self._spans)
        items.reverse()
        if limit is not None and limit >= 0:
            items = items[:limit]
        return items

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class TeeSink:
    """Fans the sink protocol out to several sinks (file + ring, say)."""

    def __init__(self, *sinks) -> None:
        self.sinks = [sink for sink in sinks if sink is not None]
        self.spans_written = 0

    def write(self, span: Span) -> None:
        for sink in self.sinks:
            sink.write(span)
        self.spans_written += 1

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class ObsServer:
    """The /metrics + /traces daemon around a registry and a span ring.

    *registry_provider* overrides where ``/metrics`` reads from — called
    per request, it can re-load a metrics sidecar so the endpoint follows
    a CLI workload writing snapshots from another process.  Requests are
    counted into the live process registry either way
    (``repro_obs_http_requests_total``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional[MetricsRegistry] = None,
        registry_provider: Optional[Callable[[], MetricsRegistry]] = None,
        ring: Optional[SpanRingBuffer] = None,
    ) -> None:
        self.ring = ring if ring is not None else SpanRingBuffer()
        self._registry = registry
        self._provider = registry_provider
        self._started = time.time()
        self.requests_served = 0
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def setup(self) -> None:
                super().setup()
                # Hold the response until the server closes the connection,
                # after the handler has returned.  Otherwise the client has
                # its answer, and sends its next request, while this thread
                # still unwinds, so the request's server-side time overruns
                # what the client saw.  The server speaks HTTP/1.0, one
                # request per connection, so the close sends everything.
                if hasattr(socket, "TCP_CORK"):
                    self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 1)

            # Quiet by default; the CLI prints its own access summary.
            def log_message(self, fmt, *args):  # noqa: D102 - stdlib hook
                pass

            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                server._route(self)

            def do_POST(self) -> None:  # noqa: N802 - stdlib naming
                server._route_post(self)

        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ---------------------------------------------------------------- state

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def metrics_registry(self) -> MetricsRegistry:
        """The registry a ``/metrics`` request renders right now."""
        if self._provider is not None:
            return self._provider()
        if self._registry is not None:
            return self._registry
        return get_registry()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ObsServer":
        """Serve on a daemon thread; returns self (for chaining)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-obs-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        self.httpd.serve_forever()

    def close(self) -> None:
        """Stop serving and release the socket."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObsServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -------------------------------------------------------------- routing

    def _count_request(self, path: str) -> None:
        """Bump the per-path request counter (shared by GET and POST)."""
        self.requests_served += 1
        get_registry().counter(
            "repro_obs_http_requests_total",
            labels={"path": path},
            help="Requests served by the observability endpoint.",
        ).inc()

    def _health(self) -> Tuple[int, dict]:
        """The ``/healthz`` status code and payload.

        Subclasses (the serving daemon) extend the payload — and may
        return 503 while draining — without re-implementing the route.
        """
        return 200, {
            "status": "ok",
            "uptime_s": round(time.time() - self._started, 3),
            "spans_buffered": len(self.ring),
            "requests_served": self.requests_served,
        }

    def _route_extra(self, handler: BaseHTTPRequestHandler, path: str, parsed) -> bool:
        """Subclass hook for extra GET routes; True means it responded."""
        return False

    def _route_post(self, handler: BaseHTTPRequestHandler) -> None:
        """POST routing; the base server is read-only (405 on known paths)."""
        parsed = urlparse(handler.path)
        path = parsed.path.rstrip("/") or "/"
        self._count_request(path)
        try:
            if path in ("/metrics", "/metrics.json", "/healthz", "/traces/recent"):
                self._send(
                    handler,
                    405,
                    '{"error": "method not allowed; use GET"}',
                    JSON_CONTENT_TYPE,
                )
            else:
                self._send(
                    handler, 404, '{"error": "unknown path"}', JSON_CONTENT_TYPE
                )
        except BrokenPipeError:  # client went away mid-response
            pass

    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(handler.path)
        path = parsed.path.rstrip("/") or "/"
        self._count_request(path)
        try:
            if path == "/metrics":
                body = render_prometheus(self.metrics_registry())
                self._send(handler, 200, body, PROMETHEUS_CONTENT_TYPE)
            elif path == "/metrics.json":
                body = render_json(self.metrics_registry())
                self._send(handler, 200, body, JSON_CONTENT_TYPE)
            elif path == "/healthz":
                code, payload = self._health()
                self._send(
                    handler,
                    code,
                    json.dumps(payload, sort_keys=True),
                    JSON_CONTENT_TYPE,
                )
            elif path == "/traces/recent":
                query = parse_qs(parsed.query)
                limit = None
                if "limit" in query:
                    try:
                        limit = max(0, int(query["limit"][0]))
                    except ValueError:
                        self._send(
                            handler,
                            400,
                            '{"error": "limit must be an integer"}',
                            JSON_CONTENT_TYPE,
                        )
                        return
                payload = {"spans": self.ring.recent(limit)}
                self._send(
                    handler,
                    200,
                    json.dumps(payload, sort_keys=True),
                    JSON_CONTENT_TYPE,
                )
            elif self._route_extra(handler, path, parsed):
                pass
            else:
                self._send(
                    handler,
                    404,
                    '{"error": "unknown path", "paths": '
                    '["/metrics", "/metrics.json", "/healthz", "/traces/recent"]}',
                    JSON_CONTENT_TYPE,
                )
        except BrokenPipeError:  # client went away mid-response
            pass

    @staticmethod
    def _send(
        handler: BaseHTTPRequestHandler,
        code: int,
        body: str,
        content_type: str,
        headers: Optional[dict] = None,
    ) -> None:
        data = body.encode("utf-8")
        handler.send_response(code)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            handler.send_header(name, str(value))
        handler.end_headers()
        handler.wfile.write(data)
