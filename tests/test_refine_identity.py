"""Refine-phase identity: the fast paths change no answer and no access.

Refine computes each candidate's exact distance with the compiled
bit-parallel edit distance over a projected row decode.  Every engine path
that refines must return the same ``(tid, distance)`` lists — compared as
floats, not rounded — and the same ``table_accesses`` as a reference run in
which every text distance comes from the DP ``edit_distance`` and every
table read decodes the full row.  The reference run counts its DP calls,
so it cannot stop reaching refine unnoticed.
"""

import random

import pytest

from repro.core.engine import IVAEngine
from repro.metrics import distance as distance_module
from repro.core.iva_file import IVAFile
from repro.maintenance import MaintainedSystem
from repro.metrics.distance import DistanceFunction
from repro.metrics.edit_distance import edit_distance
from repro.query import Query
from repro.storage import SparseWideTable, simulated_backend

K = 8
METRICS = ("L1", "L2", "Linf")
WORDS = [
    "canon", "cannon", "nikon", "sony", "digital camera", "camera",
    "ünïcode", "日本語", "smile\U0001F600", "powershot sx", "eos", "lumix",
]


def _mutate(rng: random.Random, word: str) -> str:
    chars = list(word)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or not chars:
            chars.insert(i, rng.choice("aeioxz"))
        elif op == 1 and i < len(chars):
            del chars[i]
        elif i < len(chars):
            chars[i] = rng.choice("aeioxz")
    return "".join(chars) or word


@pytest.fixture(scope="module")
def world():
    """A table with multi-string text values and tombstones, plus queries."""
    rng = random.Random(16)
    table = SparseWideTable(simulated_backend())
    text_attrs = [f"Text{i}" for i in range(5)]
    numeric_attrs = [f"Num{i}" for i in range(5)]
    for _ in range(360):
        values = {}
        for name in rng.sample(text_attrs + numeric_attrs, rng.randint(2, 7)):
            if name.startswith("Text"):
                values[name] = [
                    _mutate(rng, rng.choice(WORDS)) for _ in range(rng.randint(1, 3))
                ]
            else:
                values[name] = round(rng.uniform(0, 500), 2)
        table.insert(values)
    index = IVAFile.build(table)
    system = MaintainedSystem(table, [index])
    for tid in rng.sample(table.live_tids(), 40):
        system.delete(tid)
    queries = []
    for arity in (1, 2, 3, 4):
        for _ in range(4):
            terms = {}
            for name in rng.sample(text_attrs + numeric_attrs, arity):
                if name.startswith("Text"):
                    terms[name] = _mutate(rng, rng.choice(WORDS))
                else:
                    terms[name] = round(rng.uniform(0, 500), 2)
            queries.append(Query.from_dict(table.catalog, terms))
    return table, index, queries


class _DpPattern:
    """A stand-in for :class:`EditPattern` that scores with the DP and counts."""

    calls = 0

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern

    def distance(self, text: str) -> int:
        _DpPattern.calls += 1
        return edit_distance(self.pattern, text)


def _runs(table, index, queries, metric):
    """{engine path: (per-query answers, per-query table accesses)}."""
    dist = DistanceFunction(metric)

    def collect(reports):
        return (
            [[(r.tid, r.distance) for r in rep.results] for rep in reports],
            [rep.table_accesses for rep in reports],
        )

    sequential = IVAEngine(table, index, dist, kernel="v3")
    batch = IVAEngine(table, index, dist)
    runs = {
        "sequential": collect([sequential.search(q, k=K) for q in queries]),
        "batch": collect(batch.search_batch(queries, k=K)),
    }
    return runs


@pytest.mark.parametrize("metric", METRICS)
def test_refine_matches_dp_and_full_rows(world, metric, monkeypatch):
    table, index, queries = world
    fast = _runs(table, index, queries, metric)

    full_read = SparseWideTable.read
    monkeypatch.setattr(distance_module, "compile_pattern", _DpPattern)
    _DpPattern.calls = 0
    monkeypatch.setattr(
        SparseWideTable, "read", lambda self, tid, attr_ids=None: full_read(self, tid)
    )
    reference = _runs(table, index, queries, metric)
    assert _DpPattern.calls > 0, "the DP reference never reached refine"

    for path, (answers, accesses) in fast.items():
        ref_answers, ref_accesses = reference[path]
        assert answers == ref_answers, path
        assert accesses == ref_accesses, path
    assert any(any(answers) for answers, _ in fast.values())
