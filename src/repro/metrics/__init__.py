"""Similarity metrics for structured queries over the SWT.

Implements the paper's distance model (Sec. III-A): per-attribute
differences ``d[A](T, Q)`` (edit distance for text, absolute difference for
numerics, a predefined constant for ndf), combined by a *monotone* metric
``f`` over importance-weighted differences.  Any metric obeying
Property 3.1 yields exact top-k answers with the iVA-file's filter-and-refine
plan; we ship the paper's L1, L2 (Euclidean) and L∞ metrics and the EQU/ITF
weighting schemes of Sec. V-B.3.
"""

from repro.metrics.edit_distance import (
    EditPattern,
    compile_pattern,
    edit_distance,
    edit_distance_within,
)
from repro.metrics.distance import (
    DistanceFunction,
    L1Metric,
    L2Metric,
    LInfMetric,
    Metric,
    metric_by_name,
    numeric_difference,
    text_difference,
)
from repro.metrics.weights import WeightScheme, equal_weights, itf_weights

__all__ = [
    "EditPattern",
    "compile_pattern",
    "edit_distance",
    "edit_distance_within",
    "DistanceFunction",
    "Metric",
    "L1Metric",
    "L2Metric",
    "LInfMetric",
    "metric_by_name",
    "numeric_difference",
    "text_difference",
    "WeightScheme",
    "equal_weights",
    "itf_weights",
]
