"""Pin the simulated-disk read pattern of sequential v3 reads.

The raw text scanners read whole columnar blocks through a scanner-local
byte run and parse ahead through whatever it has buffered; the buffered
reader under them must still fetch the same chunks, followed by the
refine step's table reads in the same order.  Anything else moves pages,
seeks and the modeled filter time — the paper's cost figures — without
changing a single answer.

The expected figures below were recorded on this fixed table.  Its lists
are large enough that several buffered-reader chunks and byte-run refills
land mid-scan (Dense ≈ 190 KB, Multi ≈ 63 KB, Sparse ≈ 37 KB), the raw
codec stores them as Types III, III and I (Multi's Type II and Type III
sizes tie in the paper's formula; their block headers break the tie
towards Type III), and the page cache is smaller than the data, so warm
runs still read.  v3 refines after the scan, best-first, so its table
reads follow the filter's reads instead of interleaving with them; they
come in bound order, not page order, so fewer rows can still cost more
seeks than a page-sorted sweep.  Text bounds are whole numbers, so many
rows tie and are read in tid order.  Each phase's figure sums its own
charges from zero, so a cold and a warm run that charge the same pages
report the same figure to the last bit.
"""

from __future__ import annotations

import pytest

from repro import IVAConfig, IVAEngine, IVAFile, SimulatedDisk, SparseWideTable
from repro.query import Query, QueryTerm
from repro.storage.disk import DiskParameters

WORDS = [
    "amber", "basalt", "cobalt", "dune", "ember", "fjord", "garnet",
    "harbor", "indigo", "jasper", "kelp", "lagoon", "marble",
]

QUERIES = [
    (("Dense", "amber cobalt amber cobalt lot 7"),),
    (("Sparse", "dune ember series 12"), ("Price", 410.0)),
    (("Multi", "garnet mk3"),),
    (("Dense", "fjord harbor batch 4"), ("Price", 410.0)),
    (("Dense", "lagoon marble lot 8"), ("Label", "basalt-3 tag kelp")),
    (
        ("Dense", "kelp lagoon lot 3"),
        ("Sparse", "indigo jasper series 5"),
        ("Multi", "marble rev 9"),
    ),
]

#: Per query, cold then warm:
#: (filter_io_ms, refine_io_ms, pages_read, seeks, table_accesses).
#: The 4,000-tuple table is one v3 block, so a Dense query with a second
#: Type III or IV list reads Dense through before the other list instead
#: of alternating between them: one filter seek (8 ms) fewer than with
#: smaller blocks.
EXPECTED = {
    "raw": [
        (19.906249999999773, 144.7526041666668, 487, 7, 573),
        (27.90624999999966, 144.7526041666668, 487, 8, 573),
        (33.62760416666667, 68.140625, 35, 7, 10),
        (0.0, 0.0, 0, 0, 10),
        (25.88802083333336, 0.0, 29, 3, 0),
        (0.0, 0.0, 0, 0, 0),
        (36.03645833333343, 295.30729166666663, 103, 38, 42),
        (36.03645833333343, 295.30729166666663, 103, 38, 42),
        (36.3619791666668, 483.8854166666666, 509, 25, 448),
        (36.3619791666668, 483.8854166666666, 509, 25, 448),
        (45.59895833333342, 57.276041666666636, 161, 7, 73),
        (45.59895833333342, 57.276041666666636, 161, 7, 73),
    ],
    "compressed": [
        (27.971354166666288, 144.7526041666668, 488, 8, 573),
        (35.9713541666662, 144.7526041666668, 488, 9, 573),
        (33.56250000000003, 68.140625, 34, 7, 10),
        (0.0, 0.0, 0, 0, 10),
        (25.88802083333336, 0.0, 29, 3, 0),
        (0.0, 0.0, 0, 0, 0),
        (44.1015625, 295.30729166666663, 104, 39, 42),
        (44.1015625, 295.30729166666663, 104, 39, 42),
        (44.4270833333332, 483.8854166666666, 510, 26, 448),
        (44.4270833333332, 483.8854166666666, 510, 26, 448),
        (53.59895833333331, 57.276041666666636, 161, 8, 73),
        (53.59895833333331, 57.276041666666636, 161, 8, 73),
    ],
}


def _build():
    disk = SimulatedDisk(DiskParameters(cache_bytes=48 * 4096))
    table = SparseWideTable(disk)
    for i in range(4000):
        w = WORDS[i % 13]
        v = WORDS[(i * 7) % 11]
        cells = {
            "Dense": (f"{w} {v} " * 8 + f"lot {i % 89}", f"{v} {w} batch {i % 31} " * 5),
            "Price": float((i * 37) % 1000),
            "Label": f"{v}-{i % 7} tag {w}" if i % 9 else (f"{w} {v}", f"{v} {i % 5}"),
        }
        if i % 6 == 0:
            cells["Sparse"] = f"{v} {w} series {i % 53} " * 12
        if i % 5 == 1:
            cells["Multi"] = tuple(
                f"{WORDS[(i + j) % 13]} rev {i % 23} " * 9 for j in range(3)
            )
        table.insert(cells)
    return disk, table


@pytest.mark.parametrize("codec", sorted(EXPECTED))
def test_sequential_v3_read_pattern_is_pinned(codec):
    disk, table = _build()
    index = IVAFile.build(table, IVAConfig(name=f"pin_{codec}", codec=codec))
    if codec == "raw":
        layouts = {a.name: index.entry(a.attr_id).list_type.name for a in table.catalog}
        assert layouts == {
            "Dense": "TYPE_III",
            "Label": "TYPE_III",
            "Multi": "TYPE_III",
            "Sparse": "TYPE_I",
            "Price": "TYPE_IV",
        }
    engine = IVAEngine(table, index)
    observed = []
    for terms in QUERIES:
        query = Query(
            terms=tuple(
                QueryTerm(attr=table.catalog.require(name), value=value)
                for name, value in terms
            )
        )
        for cold in (True, False):
            if cold:
                disk.drop_cache()
            before = disk.stats.snapshot()
            report = engine.search(query, k=10)
            delta = disk.stats - before
            observed.append(
                (
                    report.filter_io_ms,
                    report.refine_io_ms,
                    delta.pages_read,
                    delta.seeks,
                    report.table_accesses,
                )
            )
    assert observed == EXPECTED[codec]
