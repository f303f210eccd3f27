"""Per-attribute differences and monotone similarity metrics.

The paper's model (Sec. III-A): for a query ``Q`` with defined attributes
``A_1..A_q`` and a tuple ``T``,

``D(T, Q) = f(λ_1·d_1, ..., λ_q·d_q)``

where ``d_i = d[A_i](T, Q)`` is the per-attribute difference (smallest edit
distance to any data string for text, ``|v(Q,A) − v(T,A)|`` for numerics, a
predefined constant for ndf) and ``f`` is any metric satisfying the
monotonous property (Property 3.1).  Monotonicity is what lets the engine
turn per-attribute lower bounds into a whole-distance lower bound.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.errors import QueryError
from repro.metrics.edit_distance import compile_pattern
from repro.metrics.weights import WeightScheme, equal_weights
from repro.model.record import Record
from repro.model.values import NDF, CellValue, is_ndf, is_numeric_value, is_text_value
from repro.query import Query

#: Default ndf penalty, matching the paper's worked example (Sec. IV-A:
#: "the difference between a query string and ndf is constant 20").
DEFAULT_NDF_PENALTY = 20.0


def text_difference(query_string: str, value: CellValue, ndf_penalty: float) -> float:
    """``d[A](T, Q)`` for a text attribute: min edit distance over strings.

    The query string is compiled once (and cached) into an
    :class:`~repro.metrics.edit_distance.EditPattern`, so each data string
    costs one bit-parallel pass instead of a quadratic DP.
    """
    if is_ndf(value):
        return ndf_penalty
    if not is_text_value(value):
        raise QueryError(f"expected a text value, got {value!r}")
    return float(min(map(compile_pattern(query_string).distance, value)))


def numeric_difference(query_value: float, value: CellValue, ndf_penalty: float) -> float:
    """``d[A](T, Q)`` for a numeric attribute: absolute difference."""
    if is_ndf(value):
        return ndf_penalty
    if not is_numeric_value(value):
        raise QueryError(f"expected a numeric value, got {value!r}")
    return abs(query_value - value)


class Metric(ABC):
    """A monotone combination function ``f`` over weighted differences."""

    name: str = "metric"

    @abstractmethod
    def combine(self, weighted_diffs: Sequence[float]) -> float:
        """Combine non-negative weighted per-attribute differences."""


class L1Metric(Metric):
    """Manhattan: sum of weighted differences."""

    name = "L1"

    def combine(self, weighted_diffs: Sequence[float]) -> float:
        """Combine non-negative weighted differences (monotone)."""
        return float(sum(weighted_diffs))


class L2Metric(Metric):
    """Euclidean (the paper's default, Table I)."""

    name = "L2"

    def combine(self, weighted_diffs: Sequence[float]) -> float:
        """Combine non-negative weighted differences (monotone)."""
        return math.sqrt(sum(d * d for d in weighted_diffs))


class LInfMetric(Metric):
    """Chebyshev: maximum weighted difference."""

    name = "Linf"

    def combine(self, weighted_diffs: Sequence[float]) -> float:
        """Combine non-negative weighted differences (monotone)."""
        return float(max(weighted_diffs))


_METRICS = {"l1": L1Metric, "l2": L2Metric, "linf": LInfMetric, "euclidean": L2Metric}


def metric_by_name(name: str) -> Metric:
    """Look up a metric: ``"L1" | "L2" | "Linf" | "euclidean"``."""
    try:
        return _METRICS[name.lower()]()
    except KeyError:
        raise QueryError(
            f"unknown metric {name!r}; choose from {sorted(_METRICS)}"
        ) from None


class DistanceFunction:
    """Bundles metric, weight scheme and ndf penalties into ``D(T, Q)``.

    The same object computes both the *actual* distance of a materialised
    record and the whole-distance *lower bound* from per-attribute lower
    bounds — the two sides of the filter-and-refine contract.
    """

    def __init__(
        self,
        metric: Union[Metric, str, None] = None,
        weights: WeightScheme = equal_weights,
        ndf_penalty: float = DEFAULT_NDF_PENALTY,
    ) -> None:
        if metric is None:
            metric = L2Metric()
        elif isinstance(metric, str):
            metric = metric_by_name(metric)
        self.metric = metric
        self.weights = weights
        if ndf_penalty < 0:
            raise QueryError("ndf penalty must be non-negative")
        self.ndf_penalty = ndf_penalty
        self._weight_cache: Dict[int, float] = {}

    def reset_weight_cache(self) -> None:
        """Drop cached attribute weights.

        Weights are cached per attribute id for speed; schemes derived from
        table statistics (ITF) go stale as the table changes.  Call this
        after heavy updates when using such a scheme.
        """
        self._weight_cache.clear()

    def weight(self, attr_id: int, query: Query) -> float:
        """The importance weight λ of one attribute."""
        cached = self._weight_cache.get(attr_id)
        if cached is not None:
            return cached
        for term in query.terms:
            if term.attr.attr_id == attr_id:
                value = self.weights(term.attr)
                if value <= 0:
                    raise QueryError(
                        f"weight of attribute {term.attr.name!r} must be "
                        f"positive, got {value}"
                    )
                self._weight_cache[attr_id] = value
                return value
        raise QueryError(f"attribute id {attr_id} is not part of the query")

    def term_difference(self, term_index: int, query: Query, value: CellValue) -> float:
        """Exact ``d[A_i](T, Q)`` for the i-th query term, uncompiled."""
        term = query.terms[term_index]
        if term.attr.is_text:
            return text_difference(str(term.value), value, self.ndf_penalty)
        return numeric_difference(float(term.value), value, self.ndf_penalty)

    def compile(self, query: Query) -> "CompiledDistance":
        """*query*'s ``D(T, Q)`` with everything fixed per query resolved."""
        return CompiledDistance(self, query)

    def actual(
        self,
        query: Query,
        record: Record,
        plan: Optional["CompiledDistance"] = None,
    ) -> float:
        """The exact similarity distance ``D(T, Q)``.

        *plan* is ``self.compile(query)``; a caller scoring many records
        against one query (the refine step) compiles it once and passes
        it, others let each call compile its own.
        """
        if plan is None:
            plan = self.compile(query)
        return plan.score(record.cells)

    def combine_bounds(self, query: Query, diffs: Sequence[float]) -> float:
        """Whole-distance lower bound from per-attribute lower bounds.

        By Property 3.1 (monotonicity), feeding per-attribute lower bounds
        through ``f`` yields a lower bound on the actual distance.
        """
        weighted = [
            self.weight(term.attr.attr_id, query) * diff
            for term, diff in zip(query.terms, diffs)
        ]
        return self.metric.combine(weighted)


class _DistanceMemo(dict):
    """``string → edit distance`` to one query string, filled on first use.

    Refined rows repeat strings (a run meets the same value in many
    tuples), and the distance of a string to a fixed query string never
    changes, so each distinct string costs one Myers pass per run.
    """

    __slots__ = ("_distance",)

    def __init__(self, distance) -> None:
        super().__init__()
        self._distance = distance

    def __missing__(self, string: str) -> int:
        distance = self[string] = self._distance(string)
        return distance


class CompiledDistance:
    """One query's ``D(T, Q)``, compiled once for a run of many records.

    Everything :meth:`DistanceFunction.actual` would otherwise resolve per
    record is fixed here, term by term in the query's attribute-id order:
    the attribute id, its weight λ (``DistanceFunction.weight``), and
    either a text term's ``string → distance`` lookup or a numeric term's
    float value.  The lookup wraps the bound :meth:`EditPattern.distance
    <repro.metrics.edit_distance.EditPattern.distance>` of the query
    string with a memo that lives as long as this object (one run), so a
    string met again costs a dict hit.  :meth:`score` runs the same float
    operations in the same order as :func:`text_difference` and
    :func:`numeric_difference` followed by ``metric.combine``, so a
    compiled score equals the uncompiled one bit for bit.
    """

    __slots__ = ("attr_ids", "terms", "ndf_penalty", "combine")

    def __init__(self, dist: DistanceFunction, query: Query) -> None:
        #: The queried attribute ids, ascending (a row projection).
        self.attr_ids = query.attribute_ids()
        self.terms = tuple(
            (
                term.attr.attr_id,
                dist.weight(term.attr.attr_id, query),
                term.attr.is_text,
                _DistanceMemo(compile_pattern(str(term.value)).distance).__getitem__
                if term.attr.is_text
                else float(term.value),
            )
            for term in query.terms
        )
        self.ndf_penalty = dist.ndf_penalty
        self.combine = dist.metric.combine

    def score(self, cells: Mapping[int, CellValue]) -> float:
        """``D(T, Q)`` of a tuple whose defined cells are *cells*.

        *cells* may hold more attributes than the query's; a queried one
        it lacks is ndf.  A cell whose type does not match its term's
        raises :class:`QueryError`: every string is type-checked before
        any is looked up, so a memo hit never skips a check.
        """
        get = cells.get
        weighted = []
        for attr_id, weight, text, query_value in self.terms:
            value = get(attr_id, NDF)
            if value is NDF:
                diff = self.ndf_penalty
            elif text:
                if not isinstance(value, tuple) or not value:
                    raise QueryError(f"expected a text value, got {value!r}")
                for string in value:
                    if not isinstance(string, str):
                        raise QueryError(f"expected a text value, got {value!r}")
                diff = float(min(map(query_value, value)))
            elif isinstance(value, float):
                diff = abs(query_value - value)
            else:
                raise QueryError(f"expected a numeric value, got {value!r}")
            weighted.append(weight * diff)
        return self.combine(weighted)
