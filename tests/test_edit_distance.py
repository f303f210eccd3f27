"""Unit tests for Levenshtein edit distance."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.distance import text_difference
from repro.metrics.edit_distance import (
    EditPattern,
    compile_pattern,
    edit_distance,
    edit_distance_within,
)

#: Any Unicode text, astral planes included (code points, not UTF-16 units).
ANY_TEXT = st.text(max_size=40)
#: Tiny alphabets force repeated characters and long match runs.
REPEATS = st.text(alphabet="ab", max_size=40)
#: Past one 64-bit machine word.
LONG_TEXT = st.text(alphabet="abcdé\U0001F600", min_size=65, max_size=150)
STRINGS = st.one_of(ANY_TEXT, REPEATS, LONG_TEXT)


class TestEditDistance:
    @pytest.mark.parametrize(
        "s1, s2, expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("Canon", "Cannon", 1),
            ("Canon", "Sony", 4),
            ("yes", "yse", 2),
            ("book", "back", 2),
        ],
    )
    def test_known_distances(self, s1, s2, expected):
        assert edit_distance(s1, s2) == expected

    def test_symmetry(self):
        assert edit_distance("digital", "camera") == edit_distance("camera", "digital")

    def test_triangle_inequality_samples(self):
        words = ["canon", "cannon", "canyon", "cane"]
        for a in words:
            for b in words:
                for c in words:
                    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_unicode(self):
        assert edit_distance("café", "cafe") == 1


class TestBandedEditDistance:
    @pytest.mark.parametrize(
        "s1, s2, threshold",
        [
            ("kitten", "sitting", 3),
            ("Canon", "Cannon", 1),
            ("abc", "abc", 0),
            ("", "ab", 2),
        ],
    )
    def test_within_threshold_matches_exact(self, s1, s2, threshold):
        assert edit_distance_within(s1, s2, threshold) == edit_distance(s1, s2)

    def test_above_threshold_returns_none(self):
        assert edit_distance_within("kitten", "sitting", 2) is None

    def test_length_gap_shortcut(self):
        assert edit_distance_within("a", "abcdefgh", 3) is None

    def test_negative_threshold(self):
        assert edit_distance_within("a", "a", -1) is None

    def test_zero_threshold_equal_strings(self):
        assert edit_distance_within("same", "same", 0) == 0

    def test_zero_threshold_different_strings(self):
        assert edit_distance_within("same", "sane", 0) is None

    def test_agreement_with_exact_on_corpus(self):
        words = ["canon", "cannon", "camera", "cam", "digital", "digtal", ""]
        for a in words:
            for b in words:
                exact = edit_distance(a, b)
                for threshold in range(0, 8):
                    banded = edit_distance_within(a, b, threshold)
                    if exact <= threshold:
                        assert banded == exact
                    else:
                        assert banded is None


class TestEditPattern:
    """The bit-parallel kernel is pinned to the DP reference."""

    @pytest.mark.parametrize(
        "strings", [STRINGS, REPEATS, LONG_TEXT], ids=["mixed", "repeats", "long"]
    )
    @given(data=st.data())
    def test_matches_dp(self, strings, data):
        q, s = data.draw(strings), data.draw(strings)
        assert EditPattern(q).distance(s) == edit_distance(q, s)

    @given(s=STRINGS)
    def test_empty_and_equal_strings(self, s):
        assert EditPattern("").distance(s) == len(s)
        assert EditPattern(s).distance("") == len(s)
        assert EditPattern(s).distance(s) == 0

    def test_astral_characters_count_once(self):
        assert EditPattern("\U0001F600a").distance("a") == 1
        assert EditPattern("x\U0001F600").distance("x\U0001F601") == 1

    @given(q=STRINGS, values=st.lists(STRINGS, min_size=1, max_size=4))
    def test_text_difference_is_dp_minimum(self, q, values):
        expected = float(min(edit_distance(q, s) for s in values))
        assert text_difference(q, tuple(values), 20.0) == expected

    def test_pattern_cache_is_bounded(self):
        maxsize = compile_pattern.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 1 << 20
        assert compile_pattern("Canon") is compile_pattern("Canon")
