"""Load generators: a seeded Zipf sampler, a closed loop and an open loop.

Both loops call ``send(request)`` and record one :class:`Outcome` per
request.  They do not judge answers: the caller checks each outcome
against the oracle after the timed window.  A ``send`` that raises a
transport error (timeout, reset, server gone) is recorded as status 0
with no body, so it counts as a failed attempt instead of vanishing.

* :func:`closed_loop` sends the next request only after the previous one
  completed (and an optional untimed step between them); latency is
  measured from the send.
* :func:`open_loop` sends request *i* at ``start + i / rate`` whatever the
  daemon is doing, over at most ``workers`` connections.  Latency is
  measured from the *due* time, so a stall that delays later sends is
  charged to those requests too (no coordinated omission), and the
  generator's own lateness (send time minus due time) is recorded.
"""

from __future__ import annotations

import bisect
import http.client
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence


class ZipfSampler:
    """Ranks ``0..n-1`` drawn with probability proportional to ``1/(r+1)^s``."""

    def __init__(self, n: int, s: float = 1.0, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("a Zipf sampler needs at least one rank")
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(1, n + 1):
            total += 1.0 / rank ** s
            self._cumulative.append(total)
        self._total = total
        self._rng = random.Random(seed)

    def sample(self) -> int:
        """One rank (0 = most popular)."""
        point = self._rng.random() * self._total
        return min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)


@dataclass
class Outcome:
    """One request as the client saw it; times are ``perf_counter`` seconds."""

    request: Any
    due: float
    sent: float
    done: float
    status: int
    body: Optional[dict]

    @property
    def latency_ms(self) -> float:
        """Completion minus due time (equals the send time in a closed loop)."""
        return (self.done - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        """How late the generator sent the request."""
        return (self.sent - self.due) * 1000.0


Send = Callable[[Any], "tuple[int, Optional[dict]]"]

#: What a ``send`` over HTTP raises when the request never got an answer.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def _send(send: Send, request: Any) -> "tuple[int, Optional[dict]]":
    try:
        return send(request)
    except TRANSPORT_ERRORS:
        return 0, None


def closed_loop(
    send: Send,
    requests: Iterator[Any],
    duration_s: float,
    clock: Callable[[], float] = time.perf_counter,
    between: Optional[Callable[[], None]] = None,
) -> List[Outcome]:
    """Send requests back to back for *duration_s* (or until exhausted).

    *between*, if given, runs after each request completes and before the
    next one is sent, outside every timed interval.
    """
    outcomes: List[Outcome] = []
    deadline = clock() + duration_s
    for request in requests:
        if clock() >= deadline:
            break
        sent = clock()
        status, body = _send(send, request)
        outcomes.append(Outcome(request, sent, sent, clock(), status, body))
        if between is not None:
            between()
    return outcomes


def open_loop(
    send: Send,
    requests: Sequence[Any],
    rate: float,
    duration_s: float,
    workers: int = 2,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Outcome]:
    """Send ``requests[i]`` at ``start + i / rate`` over *workers* connections.

    Requests due after ``start + duration_s`` are not sent.  Outcomes come
    back in due order.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    count = min(len(requests), int(duration_s * rate))
    start = clock() + 0.01
    outcomes: List[Optional[Outcome]] = [None] * count
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= count:
                    return
                cursor[0] += 1
            due = start + i / rate
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            status, body = _send(send, requests[i])
            outcomes[i] = Outcome(requests[i], due, sent, clock(), status, body)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    missing = outcomes.count(None)
    if missing:
        raise RuntimeError(f"{missing} of {count} open-loop requests were never recorded")
    return outcomes
