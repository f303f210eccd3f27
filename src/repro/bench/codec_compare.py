"""The ``codec-compare`` sweep: vector-list bytes and filter I/O per codec.

Builds one iVA-file per registered :mod:`repro.codec` family over the
standard bench environment and races the same query set against each.
Three things are checked/reported:

* **compression ratio** — total vector-list bytes per codec, and the
  reduction the delta/gap coding buys over the fixed-width ``raw`` wire
  format (the acceptance floor for ``compressed`` is a 20% cut on the
  default workload);
* **filter-phase I/O** — smaller lists mean fewer modeled bytes pulled
  during Algorithm 1's filter scan, so the mean filter I/O per query
  should drop with the list bytes;
* **answer identity** — every codec must return *bit-identical*
  ``(tid, distance)`` lists for every query (the codecs change
  addressing, never the signatures, so any divergence is a bug, not a
  tolerance).

Exposed as ``repro bench codec-compare`` and as
:func:`codec_compare_sweep` for the suite/tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import DEFAULTS, Environment, QuerySetStats, run_query_set
from repro.bench.reporting import emit_table
from repro.codec import CODEC_NAMES


@dataclass(frozen=True)
class CodecRun:
    """One codec's measurements over the shared query set."""

    codec: str
    vector_list_bytes: int
    index_bytes: int
    sequential: QuerySetStats
    #: True when every query's (tid, distance) list matched the raw
    #: baseline exactly.
    answers_identical: bool


def _answers(stats: QuerySetStats) -> List[List[Tuple[int, float]]]:
    return [[(r.tid, r.distance) for r in report.results] for report in stats.reports]


def codec_compare_sweep(
    env: Environment,
    codecs: Optional[Sequence[str]] = None,
    values_per_query: int = DEFAULTS.values_per_query,
    k: int = DEFAULTS.k,
) -> Dict[str, CodecRun]:
    """Race the query set across codec families; verify identical answers."""

    def compute() -> Dict[str, CodecRun]:
        names = tuple(codecs) if codecs is not None else CODEC_NAMES
        query_set = env.query_set(values_per_query)
        out: Dict[str, CodecRun] = {}
        baseline: Optional[List[List[Tuple[int, float]]]] = None
        for codec in names:
            index = env.iva_variant(DEFAULTS.alpha, DEFAULTS.n, codec=codec)
            sequential = run_query_set(
                env.iva_engine(index=index),
                query_set,
                k=k,
                label=f"iVA {codec}",
            )
            seq_answers = _answers(sequential)
            if baseline is None:
                baseline = seq_answers
            identical = seq_answers == baseline
            out[codec] = CodecRun(
                codec=codec,
                vector_list_bytes=sum(e.list_size for e in index.entries()),
                index_bytes=index.total_bytes(),
                sequential=sequential,
                answers_identical=identical,
            )
        return out

    key = f"codec_compare_{tuple(codecs or CODEC_NAMES)}_{values_per_query}_{k}"
    return env.cached(key, compute)


def codec_rows(sweep: Dict[str, CodecRun]) -> list:
    """Table rows: one per codec, raw first as the baseline."""
    ordered = sorted(sweep.values(), key=lambda run: run.codec != "raw")
    baseline = ordered[0]
    rows = []
    for run in ordered:
        reduction = (
            1.0 - run.vector_list_bytes / baseline.vector_list_bytes
            if baseline.vector_list_bytes
            else 0.0
        )
        io_delta = (
            1.0 - run.sequential.mean_filter_io_ms / baseline.sequential.mean_filter_io_ms
            if baseline.sequential.mean_filter_io_ms
            else 0.0
        )
        rows.append(
            [
                run.codec,
                run.vector_list_bytes,
                f"{reduction:.1%}",
                run.index_bytes,
                round(run.sequential.mean_filter_io_ms, 2),
                f"{io_delta:.1%}",
                "yes" if run.answers_identical else "NO",
            ]
        )
    return rows


CODEC_HEADERS = [
    "codec",
    "vector-list bytes",
    "bytes saved",
    "index bytes",
    "filter I/O (ms)",
    "I/O saved",
    "answers identical",
]


def emit_codec_compare(sweep: Dict[str, CodecRun]) -> str:
    """Print + persist the codec comparison table."""
    return emit_table(
        "codec_compare",
        "Codec comparison — vector-list bytes and filter I/O per wire format",
        CODEC_HEADERS,
        codec_rows(sweep),
    )
