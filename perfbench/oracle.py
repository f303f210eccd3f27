"""Inputs and reference answers: datasets, query universes, the scalar oracle.

Every answer the daemon returns is checked against the paper's scalar
Algorithm 1 (``IVAEngine(kernel="scalar")``) run in this process on the
same snapshot file the daemon serves.

* The dataset is ``BENCH_DATASET`` (seed 42) at the workload's scale; the
  generated base table is cached per scale under the benchmark's cache
  directory, because generation is not part of any metric.
* A workload's queries come from a fixed **universe** sampled from the
  dataset (arity 1-5 in rotation, single-tuple sampling as in
  ``WorkloadGenerator``).  The workload seed picks the order and the Zipf
  draws.  Because the universe does not depend on the seed, its scalar
  reference answers are computed once per snapshot (keyed by the snapshot
  file's SHA-256) and cached, outside every timed window.
* :class:`Mirror` replays the churn workload's acknowledged writes on an
  in-process copy of the snapshot so answers after writes can be checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import BENCH_DATASET, BENCH_DISK
from repro.core.engine import IVAEngine
from repro.core.iva_file import IVAConfig, IVAFile
from repro.data.generator import DatasetGenerator
from repro.data.workload import WorkloadGenerator
from repro.maintenance import MaintainedSystem
from repro.metrics.distance import DistanceFunction
from repro.storage import SparseWideTable, simulated_backend
from repro.storage.snapshot import load_disk, save_disk

#: Seed of the query-universe sampler (independent of the workload seed).
UNIVERSE_SEED = 7
#: Arity of the i-th universe query is ``i % MAX_ARITY + 1``.
MAX_ARITY = 5
#: Decimal places the daemon rounds distances to in its JSON payload.
DISTANCE_DECIMALS = 6

Answer = List[Tuple[int, float]]


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def base_snapshot(cache_dir: Path, num_tuples: int) -> Tuple[Path, int]:
    """The cached, un-indexed base table at *num_tuples*; returns (path, table bytes)."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"base-{num_tuples}.ivadb"
    meta = cache_dir / f"base-{num_tuples}.json"
    if path.exists() and meta.exists():
        return path, json.loads(meta.read_text())["table_bytes"]
    disk = simulated_backend(BENCH_DISK)
    table = SparseWideTable(disk)
    DatasetGenerator(dataclasses.replace(BENCH_DATASET, num_tuples=num_tuples)).populate(table)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    save_disk(disk, tmp)
    os.replace(tmp, path)
    _atomic_write(meta, json.dumps({"table_bytes": table.file_bytes}).encode())
    return path, table.file_bytes


def open_snapshot(path: Path, name: str = "iva"):
    """``(table, index)`` attached to a snapshot file the CLI built."""
    table = SparseWideTable.attach(load_disk(path))
    return table, IVAFile.attach(table, IVAConfig(name=name))


def scalar_engine(table, index, metric: str = "L2", ndf_penalty: float = 20.0) -> IVAEngine:
    """The paper's Algorithm 1 with the scalar filter: the identity oracle."""
    return IVAEngine(
        table,
        index,
        DistanceFunction(metric=metric, ndf_penalty=ndf_penalty),
        kernel="scalar",
    )


def answer_of(report) -> Answer:
    return [(r.tid, round(r.distance, DISTANCE_DECIMALS)) for r in report.results]


def sample_universe(table, count: int, seed: int = UNIVERSE_SEED) -> List[Dict[str, object]]:
    """*count* distinct ``{attribute: value}`` queries with arity 1..MAX_ARITY in rotation."""
    sampler = WorkloadGenerator(table, seed=seed)
    seen = set()
    universe: List[Dict[str, object]] = []
    while len(universe) < count:
        query = sampler.sample_query(len(universe) % MAX_ARITY + 1)
        terms = {t.attr.name: t.value for t in query.terms}
        key = json.dumps(terms, sort_keys=True)
        if key not in seen:
            seen.add(key)
            universe.append(terms)
    return universe


@dataclasses.dataclass
class Universe:
    """Queries, their scalar reference answers, and the scalar search seconds.

    ``costs`` only orders queries into cost strata (see ``run.py``); it is
    never a reported metric.
    """

    queries: List[Dict[str, object]]
    answers: List[Answer]
    costs: List[float]


def load_universe(cache_dir: Path, snapshot: Path, count: int, k: int) -> Universe:
    """The universe and its scalar answers for *snapshot*, cached by content hash."""
    key = f"{file_sha256(snapshot)}-u{UNIVERSE_SEED}-n{count}-k{k}"
    path = cache_dir / f"universe-{key}.json"
    if path.exists():
        data = json.loads(path.read_text())
        answers = [[tuple(pair) for pair in a] for a in data["answers"]]
        return Universe(data["queries"], answers, data["costs"])
    table, index = open_snapshot(snapshot)
    queries = sample_universe(table, count)
    engine = scalar_engine(table, index)
    answers, costs = [], []
    for terms in queries:
        started = time.perf_counter()
        answers.append(answer_of(engine.search(terms, k=k)))
        costs.append(time.perf_counter() - started)
    universe = Universe(queries, answers, costs)
    _atomic_write(path, json.dumps(dataclasses.asdict(universe)).encode())
    return universe


def payload_answer(payload: Mapping) -> Answer:
    return [(int(r["tid"]), float(r["distance"])) for r in payload.get("results", [])]


def check_answer(expected: Sequence[Tuple[int, float]], payload: Optional[Mapping]) -> Optional[str]:
    """None when *payload* is a complete answer equal to *expected*, else why not."""
    if payload is None:
        return "no JSON body"
    if payload.get("degraded"):
        return "degraded answer"
    got = payload_answer(payload)
    want = [(int(tid), float(dist)) for tid, dist in expected]
    if got != want:
        return f"answer {got[:3]}... differs from the scalar oracle {want[:3]}..."
    return None


class Mirror:
    """An in-process copy of the served snapshot that replays acknowledged writes."""

    def __init__(self, snapshot: Path) -> None:
        self.table, self.index = open_snapshot(snapshot)
        self.system = MaintainedSystem(self.table, [self.index])
        self.engine = scalar_engine(self.table, self.index)

    def insert(self, values: Mapping[str, object]) -> int:
        return self.system.insert(values)

    def update(self, tid: int, values: Mapping[str, object]) -> int:
        return self.system.update(tid, values)

    def answer(self, terms: Mapping[str, object], k: int) -> Answer:
        return answer_of(self.engine.search(dict(terms), k=k))


def record_values(table, tid: int) -> Dict[str, object]:
    """``{attribute name: value}`` of one stored tuple, JSON-ready."""
    record = table.read(tid)
    values: Dict[str, object] = {}
    for attr_id, value in record:
        name = table.catalog.by_id(attr_id).name
        values[name] = list(value) if isinstance(value, tuple) else value
    return values
