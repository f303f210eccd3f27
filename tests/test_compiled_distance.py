"""The refine step's compiled distance scores like the uncompiled one.

``DistanceFunction.compile`` fixes per query what ``actual`` once resolved
per record.  Its score must equal the term-by-term reference
(``tests.helpers.reference_actual``) bit for bit, for every metric, weight
scheme and ndf penalty, over rows decoded with a projection — a batch's
union projection included — and must reject mistyped cells the same way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.metrics.distance import DistanceFunction
from repro.metrics.edit_distance import edit_distance
from repro.metrics.weights import equal_weights
from repro.model.record import Record
from repro.model.schema import AttributeType
from repro.model.values import NDF
from repro.query import Query, QueryTerm
from repro.storage.catalog import Catalog
from repro.storage.interpreted import decode_record, encode_record
from tests.helpers import reference_actual

CATALOG = Catalog()
TEXT = [CATALOG.register(f"Text{i}", AttributeType.TEXT) for i in range(4)]
NUMERIC = [CATALOG.register(f"Num{i}", AttributeType.NUMERIC) for i in range(4)]
ATTRS = TEXT + NUMERIC
#: Attribute ids no query names: rows carry them, projections drop them.
UNQUERIED = range(len(ATTRS), len(ATTRS) + 6)


def skewed_weights(attr):
    """Unequal weights with inexact binary expansions."""
    return 0.1 + attr.attr_id * 0.37


STRINGS = st.text(alphabet="abcdeéü日😀 ", min_size=1, max_size=10)
NUMBERS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
TEXT_CELLS = st.lists(STRINGS, min_size=1, max_size=3).map(tuple)
DISTANCES = st.builds(
    DistanceFunction,
    metric=st.sampled_from(["L1", "L2", "Linf"]),
    weights=st.sampled_from([equal_weights, skewed_weights]),
    ndf_penalty=st.sampled_from([0.0, 20.0]),
)


@st.composite
def queries(draw):
    attrs = draw(
        st.lists(st.sampled_from(ATTRS), min_size=1, max_size=5, unique=True)
    )
    return Query(
        terms=tuple(
            QueryTerm(attr=a, value=draw(STRINGS if a.is_text else NUMBERS))
            for a in attrs
        )
    )


@st.composite
def records(draw):
    """A row defining a random subset of the attributes, typed to match."""
    cells = {}
    for attr in ATTRS:
        if draw(st.booleans()):
            cells[attr.attr_id] = draw(TEXT_CELLS if attr.is_text else NUMBERS)
    for attr_id in draw(st.lists(st.sampled_from(UNQUERIED), unique=True)):
        cells[attr_id] = draw(st.one_of(TEXT_CELLS, NUMBERS))
    return Record(tid=draw(st.integers(0, 2**32 - 1)), cells=cells)


def dp_actual(dist, query, record):
    """``D(T, Q)`` with text terms by the two-row DP edit distance."""
    weighted = []
    for term in query.terms:
        value = record.value(term.attr.attr_id)
        if value is NDF:
            diff = dist.ndf_penalty
        elif term.attr.is_text:
            diff = float(min(edit_distance(term.value, s) for s in value))
        else:
            diff = abs(term.value - value)
        weighted.append(dist.weight(term.attr.attr_id, query) * diff)
    return dist.metric.combine(weighted)


def bits(value: float) -> str:
    return float(value).hex()


class TestScorerIdentity:
    @settings(max_examples=300, deadline=None)
    @given(dist=DISTANCES, query=queries(), record=records())
    def test_compiled_score_equals_reference(self, dist, query, record):
        want = bits(reference_actual(dist, query, record))
        plan = dist.compile(query)
        assert bits(plan.score(record.cells)) == want
        assert bits(dist.actual(query, record, plan)) == want
        assert bits(dist.actual(query, record)) == want
        assert bits(dp_actual(dist, query, record)) == want

    @settings(max_examples=150, deadline=None)
    @given(
        dist=DISTANCES,
        batch=st.lists(queries(), min_size=2, max_size=4),
        rows=st.lists(records(), min_size=1, max_size=4),
    )
    def test_batch_scores_over_the_union_projection(self, dist, batch, rows):
        """Every query of a batch scores rows projected onto the union of
        the batch's attributes exactly as it scores the full rows."""
        plans = [dist.compile(q) for q in batch]
        union = frozenset(a for plan in plans for a in plan.attr_ids)
        assert union == frozenset(a for q in batch for a in q.attribute_ids())
        for record in rows:
            projected, _ = decode_record(encode_record(record), attr_ids=union)
            assert set(projected.cells) <= union
            for query, plan in zip(batch, plans):
                assert bits(dist.actual(query, projected, plan)) == bits(
                    reference_actual(dist, query, record)
                )

    def test_plan_holds_what_is_fixed_per_query(self):
        dist = DistanceFunction("L1", weights=skewed_weights)
        query = Query.from_dict(CATALOG, {"Num2": 5, "Text1": "abc"})
        plan = dist.compile(query)
        assert plan.attr_ids == (TEXT[1].attr_id, NUMERIC[2].attr_id)
        text_term, numeric_term = plan.terms
        text_id, text_weight, text_kind, distance = text_term
        num_id, _, num_kind, value = numeric_term
        assert (text_id, text_kind, num_id, num_kind) == (1, True, 6, False)
        assert text_weight == dist.weight(text_id, query)
        assert distance("abd") == 1
        assert value == 5.0 and isinstance(value, float)


class TestTypeMismatch:
    @pytest.fixture
    def dist(self):
        return DistanceFunction()

    @pytest.mark.parametrize(
        "cell", [3.0, (), ("ok", 7)], ids=["numeric", "empty", "non-string"]
    )
    def test_bad_cell_on_a_text_term_raises(self, dist, cell):
        query = Query.from_dict(CATALOG, {"Text0": "abc"})
        record = Record(tid=1, cells={TEXT[0].attr_id: cell})
        with pytest.raises(QueryError, match="expected a text value"):
            dist.actual(query, record)
        with pytest.raises(QueryError, match="expected a text value"):
            dist.compile(query).score(record.cells)

    def test_text_cell_on_a_numeric_term_raises(self, dist):
        query = Query.from_dict(CATALOG, {"Num0": 1.0, "Text0": "abc"})
        record = Record(tid=1, cells={NUMERIC[0].attr_id: ("abc",)})
        with pytest.raises(QueryError, match="expected a numeric value"):
            dist.actual(query, record, dist.compile(query))


#: A small pool, so rows drawn from it repeat strings within one run.
POOL_STRINGS = st.sampled_from(["abc", "abd", "x", "日本", "abcabc", "é ü"])
POOL_CELLS = st.lists(POOL_STRINGS, min_size=1, max_size=3).map(tuple)


@st.composite
def pooled_records(draw):
    """A row whose text cells come from :data:`POOL_STRINGS`."""
    cells = {}
    for attr in ATTRS:
        if draw(st.booleans()):
            cells[attr.attr_id] = draw(POOL_CELLS if attr.is_text else NUMBERS)
    return Record(tid=draw(st.integers(0, 2**32 - 1)), cells=cells)


def memo_of(plan, term_index):
    """The ``string → distance`` memo behind one compiled text term."""
    return plan.terms[term_index][3].__self__


class TestDistanceMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        dist=DISTANCES,
        query=queries(),
        rows=st.lists(pooled_records(), min_size=2, max_size=12),
    )
    def test_memoised_scores_equal_reference_and_dp(self, dist, query, rows):
        """One plan scores a run of rows that repeat strings, single- and
        multi-string cells alike: every score equals the reference and
        the DP, whether its strings were met before or not."""
        plan = dist.compile(query)
        for record in rows + rows:
            want = bits(reference_actual(dist, query, record))
            assert bits(plan.score(record.cells)) == want
            assert bits(dp_actual(dist, query, record)) == want

    def test_one_entry_per_distinct_string(self):
        dist = DistanceFunction()
        query = Query.from_dict(CATALOG, {"Text0": "abc"})
        plan = dist.compile(query)
        cells = [("abd",), ("abd", "x"), ("x", "abc"), ("abd",)]
        for cell in cells:
            plan.score({TEXT[0].attr_id: cell})
        assert memo_of(plan, 0) == {"abd": 1, "x": 3, "abc": 0}

    @pytest.mark.parametrize(
        "cell", [3.0, (), ("abc", 7), (7, "abc")], ids=["numeric", "empty", "after", "before"]
    )
    def test_bad_cell_after_memo_hits_still_raises(self, cell):
        """A hit never skips a type check: a cell mixing memoised strings
        with a non-string, or of the wrong type, raises after a run of
        good rows put its strings in the memo."""
        dist = DistanceFunction()
        query = Query.from_dict(CATALOG, {"Text0": "abd"})
        plan = dist.compile(query)
        for _ in range(3):
            plan.score({TEXT[0].attr_id: ("abc",)})
        assert "abc" in memo_of(plan, 0)
        with pytest.raises(QueryError, match="expected a text value"):
            plan.score({TEXT[0].attr_id: cell})

    def test_no_memo_is_shared_across_runs(self):
        """Each compile (one per run) starts an empty memo of its own."""
        dist = DistanceFunction()
        query = Query.from_dict(CATALOG, {"Text0": "abc", "Text1": "abc"})
        first = dist.compile(query)
        first.score({TEXT[0].attr_id: ("abd",), TEXT[1].attr_id: ("x",)})
        second = dist.compile(query)
        assert memo_of(first, 0) == {"abd": 1}
        assert memo_of(first, 1) == {"x": 3}
        assert memo_of(second, 0) == {} and memo_of(second, 1) == {}
        assert memo_of(second, 0) is not memo_of(first, 0)
