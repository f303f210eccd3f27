"""The hot-query result cache: a thread-safe LRU over finished answers.

Serving workloads repeat themselves — dashboards refresh the same top-k,
clients retry, load balancers health-check with a canned query.  The
daemon exploits that at two layers:

* **kernel artifacts** — each generation owns a shared
  :class:`~repro.core.kernel.KernelCache`, so the per-term lower-bound
  tables compiled for the v3 kernel are reused across requests (the
  engine layer already meters hits/misses on the cache object);
* **full results** — this module: an LRU keyed on everything that could
  change the answer, holding the final JSON-able payload.

A key includes the generation id *and* that generation's committed
visible version, so any index mutation naturally orphans old entries;
:meth:`ResultCache.invalidate` additionally drops everything eagerly so
memory isn't held by unreachable keys.  Degraded or deadline-cut results
are never cached — a transient partial answer must not be replayed as if
it were authoritative.

**Doorkeeper admission** (TinyLFU-style, opt-in): with
``probation_s > 0`` a key must be *seen twice* within the probation
window before it is cached at all.  One-shot queries — scans, ad-hoc
exploration — then never displace genuinely hot entries; the first
sighting only stamps a timestamp in a small bounded sketch.  The
default ``probation_s=0.0`` disables the doorkeeper entirely (every put
is admitted immediately), preserving the historical contract that the
second identical query is served from cache.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["ResultCache", "result_key"]


def result_key(
    gen_id: int,
    visible_version: int,
    terms: Any,
    k: int,
    metric: str,
) -> Tuple:
    """The canonical cache key for one query against one snapshot.

    *terms* is JSON-serialised with sorted keys so semantically equal
    requests hash equally regardless of attribute order on the wire.
    """
    canonical = json.dumps(terms, sort_keys=True, separators=(",", ":"))
    return (gen_id, visible_version, canonical, k, metric)


class ResultCache:
    """A bounded, thread-safe LRU mapping query keys to response payloads."""

    def __init__(
        self,
        capacity: int = 128,
        *,
        probation_s: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if probation_s < 0:
            raise ValueError("probation_s must be >= 0")
        self.capacity = capacity
        self.probation_s = float(probation_s)
        self._registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Doorkeeper sketch: key -> first-sighting timestamp.  Bounded
        #: independently of the cache; keys embed the snapshot version so
        #: it is never cleared on invalidate (stale keys age out by LRU).
        self._seen: "OrderedDict[Hashable, float]" = OrderedDict()
        self._seen_capacity = max(64, 4 * capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.doorkeeper_skips = 0

    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached payload for *key*, refreshing recency; None on miss."""
        registry = self._metrics()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                registry.counter(
                    "repro_serve_cache_hits_total",
                    labels={"layer": "result"},
                    help="Serving cache hits, by cache layer.",
                ).inc()
                self._publish_hit_rate_locked(registry)
                return self._entries[key]
            self.misses += 1
            registry.counter(
                "repro_serve_cache_misses_total",
                labels={"layer": "result"},
                help="Serving cache misses, by cache layer.",
            ).inc()
            self._publish_hit_rate_locked(registry)
            return None

    def _publish_hit_rate_locked(self, registry: MetricsRegistry) -> None:
        total = self.hits + self.misses
        registry.gauge(
            "repro_serve_result_cache_hit_rate",
            help="Result-cache hit fraction over the daemon's lifetime.",
        ).set(self.hits / total if total else 0.0)

    def put(self, key: Hashable, payload: Any) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry when full.

        With a probation window configured, a key unseen within the
        window is *not* inserted — only stamped in the doorkeeper — and
        the skip is counted.  A second sighting inside the window (or a
        key already resident) is admitted normally.
        """
        if self.capacity == 0:
            return
        registry = self._metrics()
        with self._lock:
            if (
                self.probation_s > 0.0
                and key not in self._entries
                and not self._doorkeeper_admit_locked(key)
            ):
                self.doorkeeper_skips += 1
                registry.counter(
                    "repro_serve_cache_doorkeeper_skips_total",
                    help="Cache inserts skipped by the doorkeeper "
                    "(first sighting within the probation window).",
                ).inc()
                return
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = payload
            else:
                self._entries[key] = payload
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    registry.counter(
                        "repro_serve_cache_evictions_total",
                        help="Result-cache entries evicted by LRU pressure.",
                    ).inc()
            registry.gauge(
                "repro_serve_cache_entries",
                help="Result-cache entries currently resident.",
            ).set(len(self._entries))

    def _doorkeeper_admit_locked(self, key: Hashable) -> bool:
        """Second-sighting test: True once *key* recurs within the window."""
        now = self._clock()
        first = self._seen.get(key)
        if first is not None and now - first <= self.probation_s:
            del self._seen[key]
            return True
        self._seen[key] = now
        self._seen.move_to_end(key)
        while len(self._seen) > self._seen_capacity:
            self._seen.popitem(last=False)
        return False

    def invalidate(self) -> int:
        """Drop every entry (called on any index mutation); returns count."""
        registry = self._metrics()
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += 1
            registry.counter(
                "repro_serve_cache_invalidations_total",
                help="Explicit result-cache invalidations (index mutations).",
            ).inc()
            registry.gauge(
                "repro_serve_cache_entries",
                help="Result-cache entries currently resident.",
            ).set(0)
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
