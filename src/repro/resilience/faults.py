"""Deterministic fault injection for any storage backend.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultRule`\\ s; a :class:`FaultInjectingBackend` consults the plan
on every operation.  Whether a fault fires at a given *site* — the
``(rule, operation, file, offset, length)`` tuple — is a pure hash of
the plan seed and the site, never a draw from shared RNG state, so a
chaos run is bit-reproducible no matter how concurrent threads
interleave, and a plan dumped to JSON replays exactly.

Fault kinds:

``read_error``
    The read raises.  *Transient* errors raise
    :class:`~repro.errors.TransientIOError` and clear after ``attempts``
    hits of the same site (a retry sees clean data); *persistent* errors
    raise :class:`~repro.errors.StorageError` every time.
``bit_flip``
    One deterministic bit of the returned data is inverted.  Transient
    flips clear after ``attempts`` hits; persistent flips model media
    corruption.
``torn_write``
    A ``write``/``append`` silently persists only a prefix of the
    payload — the classic power-cut tear the checksum layer exists to
    catch.
``latency``
    The read is charged an extra ``latency_ms`` of modeled I/O time
    through the inner backend's accounting path, so the active stats and
    every open meter of the reading thread see the spike.

Beyond per-operation faults, a plan can carry :class:`KillPoint`\\ s —
named code sites at which the *whole process* "dies" on the Nth hit
(:meth:`FaultPlan.maybe_kill` raises
:class:`~repro.errors.SimulatedCrash`).  The crash-recovery harness
(``repro bench crash-sweep``) uses these to kill the serving write path
mid-append, mid-fsync, or mid-compaction-swap and then prove recovery
from the surviving durable bytes.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import SimulatedCrash, StorageError, TransientIOError
from repro.obs.metrics import get_registry
from repro.resilience._delegate import DelegatingBackend

FAULT_KINDS = ("read_error", "bit_flip", "torn_write", "latency")


def _site_hash(*parts) -> int:
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class FaultRule:
    """One class of injected fault, targeted by file and offset window."""

    kind: str
    rate: float
    #: Substring patterns; a file matches when any pattern occurs in its
    #: name.  Empty means every file.
    files: Tuple[str, ...] = ()
    #: Transient faults clear after ``attempts`` hits per site.
    transient: bool = True
    attempts: int = 1
    #: Half-open byte window the accessed range must intersect.
    offset_lo: int = 0
    offset_hi: Optional[int] = None
    latency_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise StorageError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise StorageError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.attempts < 1:
            raise StorageError(f"attempts must be >= 1, got {self.attempts}")

    def matches(self, name: str, offset: int, length: int) -> bool:
        if self.files and not any(pattern in name for pattern in self.files):
            return False
        if self.offset_hi is not None and offset >= self.offset_hi:
            return False
        return offset + max(length, 1) > self.offset_lo

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "files": list(self.files),
            "transient": self.transient,
            "attempts": self.attempts,
            "offset_lo": self.offset_lo,
            "offset_hi": self.offset_hi,
            "latency_ms": self.latency_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            kind=data["kind"],
            rate=data["rate"],
            files=tuple(data.get("files", ())),
            transient=data.get("transient", True),
            attempts=data.get("attempts", 1),
            offset_lo=data.get("offset_lo", 0),
            offset_hi=data.get("offset_hi"),
            latency_ms=data.get("latency_ms", 5.0),
        )


@dataclass(frozen=True)
class KillPoint:
    """Die at the named code *site* on its ``hit``-th traversal.

    ``site`` is a dotted label baked into the code path (e.g.
    ``journal.append``, ``commit.post_journal``, ``compact.swap``).
    ``torn_bytes`` only matters at sites that persist a payload before
    dying: it caps how many bytes of the in-flight frame reach "disk"
    before the crash, modeling a torn write (``None`` means the site's
    default tear).
    """

    site: str
    hit: int = 1
    torn_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise StorageError("kill point site must be non-empty")
        if self.hit < 1:
            raise StorageError(f"kill point hit must be >= 1, got {self.hit}")

    def to_dict(self) -> dict:
        return {"site": self.site, "hit": self.hit, "torn_bytes": self.torn_bytes}

    @classmethod
    def from_dict(cls, data: dict) -> "KillPoint":
        return cls(
            site=data["site"],
            hit=data.get("hit", 1),
            torn_bytes=data.get("torn_bytes"),
        )


@dataclass
class FaultPlan:
    """A seeded, armable set of fault rules — the whole chaos scenario."""

    seed: int
    rules: Tuple[FaultRule, ...] = ()
    armed: bool = False
    kill_points: Tuple[KillPoint, ...] = ()

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        self.kill_points = tuple(self.kill_points)
        self._kill_hits: Dict[str, int] = {}
        self._kill_lock = threading.Lock()

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def with_rules(self, *rules: FaultRule) -> "FaultPlan":
        return replace(self, rules=tuple(rules))

    def with_kill_points(self, *points: KillPoint) -> "FaultPlan":
        return replace(self, kill_points=tuple(points))

    # --------------------------------------------------- kill points

    def reached(self, site: str) -> Optional[KillPoint]:
        """Record one traversal of *site*; the kill point due now, if any.

        Hit counting happens even when no kill point targets the site,
        so a plan re-armed mid-run still counts deterministically.
        Disarmed plans neither count nor kill.
        """
        if not self.armed:
            return None
        with self._kill_lock:
            hits = self._kill_hits.get(site, 0) + 1
            self._kill_hits[site] = hits
        for point in self.kill_points:
            if point.site == site and point.hit == hits:
                return point
        return None

    def maybe_kill(self, site: str) -> None:
        """Raise :class:`SimulatedCrash` when a kill point is due at *site*."""
        point = self.reached(site)
        if point is not None:
            raise SimulatedCrash(
                f"simulated crash at kill point {site!r} (hit {point.hit})"
            )

    # -------------------------------------------------------- replay

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules],
                "kill_points": [point.to_dict() for point in self.kill_points],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            seed=data["seed"],
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", ())),
            kill_points=tuple(
                KillPoint.from_dict(p) for p in data.get("kill_points", ())
            ),
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class FaultInjectingBackend(DelegatingBackend):
    """Inject the plan's faults into an inner backend's operations."""

    def __init__(self, inner, plan: FaultPlan, *, registry=None) -> None:
        super().__init__(inner)
        self.plan = plan
        self._hits: Dict[Tuple, int] = {}
        self._lock = threading.Lock()
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._registry = registry or get_registry()

    def reset(self) -> None:
        """Forget per-site transient-attempt history and counts."""
        with self._lock:
            self._hits.clear()
            self.injected = {kind: 0 for kind in FAULT_KINDS}

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    def _count(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] += 1
        self._registry.counter(
            "repro_faults_injected_total",
            labels={"kind": kind},
            help="Faults the chaos plan injected into storage operations.",
        ).inc()

    def _fires(self, index: int, rule: FaultRule, site: Tuple) -> bool:
        """Pure per-site decision + transient attempt bookkeeping."""
        if rule.rate <= 0.0:
            return False
        draw = _site_hash(self.plan.seed, index, "fire", *site) & 0xFFFFFFFF
        if draw / 2**32 >= rule.rate:
            return False
        if not rule.transient:
            return True
        key = (index, *site)
        with self._lock:
            hits = self._hits.get(key, 0)
            self._hits[key] = hits + 1
        return hits < rule.attempts

    def _matching(self, kind: str, name: str, offset: int, length: int):
        for index, rule in enumerate(self.plan.rules):
            if rule.kind != kind:
                continue
            if rule.matches(name, offset, length) and self._fires(
                index, rule, (kind, name, offset, length)
            ):
                yield index, rule

    # ------------------------------------------------------------- I/O

    def read(self, name: str, offset: int, length: int) -> bytes:
        if not self.plan.armed:
            return self.inner.read(name, offset, length)
        for _, rule in self._matching("latency", name, offset, length):
            self._count("latency")
            self.inner.charge_latency(rule.latency_ms)
        for _, rule in self._matching("read_error", name, offset, length):
            self._count("read_error")
            detail = f"injected read fault on {name!r} at offset {offset}"
            if rule.transient:
                raise TransientIOError(detail)
            raise StorageError(detail)
        data = self.inner.read(name, offset, length)
        flips = list(self._matching("bit_flip", name, offset, length))
        if flips and length > 0:
            corrupted = bytearray(data)
            for index, _ in flips:
                self._count("bit_flip")
                bit = _site_hash(
                    self.plan.seed, index, "bit", name, offset, length
                ) % (len(corrupted) * 8)
                corrupted[bit // 8] ^= 1 << (bit % 8)
            data = bytes(corrupted)
        return data

    def write(self, name: str, offset: int, payload: bytes) -> None:
        if self.plan.armed and payload:
            for index, _ in self._matching("torn_write", name, offset, len(payload)):
                self._count("torn_write")
                cut = _site_hash(
                    self.plan.seed, index, "cut", "write", name, offset, len(payload)
                ) % len(payload)
                self.inner.write(name, offset, payload[:cut])
                return
        self.inner.write(name, offset, payload)

    def append(self, name: str, payload: bytes) -> int:
        if self.plan.armed and payload:
            offset = self.inner.size(name) if self.inner.exists(name) else 0
            for index, _ in self._matching("torn_write", name, offset, len(payload)):
                self._count("torn_write")
                cut = _site_hash(
                    self.plan.seed, index, "cut", "append", name, offset, len(payload)
                ) % len(payload)
                return self.inner.append(name, payload[:cut])
        return self.inner.append(name, payload)
