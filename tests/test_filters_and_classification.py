"""Unit tests for the filter algebra and the classification vocabulary."""

import pytest

from repro.core.classification import ClassifiedMiss, MissClass
from repro.core.filters import (
    ALL_FILTERS,
    DEFAULT_FILTER,
    MOST_LIBERAL_FILTER,
    ConflictFilter,
    parse_filter,
)


class TestMissClass:
    def test_binary_grouping(self):
        assert MissClass.CONFLICT.is_conflict
        assert not MissClass.CAPACITY.is_conflict
        assert not MissClass.COMPULSORY.is_conflict  # paper groups with capacity

    def test_str(self):
        assert str(MissClass.CONFLICT) == "conflict"


class TestClassifiedMiss:
    def test_correct_under_binary_grouping(self):
        m = ClassifiedMiss(
            address=0x1000,
            set_index=4,
            predicted=MissClass.CAPACITY,
            actual=MissClass.COMPULSORY,
        )
        assert m.correct is True  # compulsory counts as capacity

    def test_incorrect(self):
        m = ClassifiedMiss(
            address=0x1000,
            set_index=4,
            predicted=MissClass.CONFLICT,
            actual=MissClass.CAPACITY,
        )
        assert m.correct is False

    def test_unknown_truth(self):
        m = ClassifiedMiss(address=0, set_index=0, predicted=MissClass.CONFLICT)
        assert m.correct is None


class TestFilterTruthTable:
    CASES = [
        # (new_is_conflict, evicted_bit, in, out, and, or)
        (False, False, False, False, False, False),
        (False, True, True, False, False, True),
        (True, False, False, True, False, True),
        (True, True, True, True, True, True),
    ]

    @pytest.mark.parametrize("new,evicted,f_in,f_out,f_and,f_or", CASES)
    def test_all_filters(self, new, evicted, f_in, f_out, f_and, f_or):
        kw = dict(new_is_conflict=new, evicted_conflict_bit=evicted)
        assert ConflictFilter.IN_CONFLICT.matches(**kw) == f_in
        assert ConflictFilter.OUT_CONFLICT.matches(**kw) == f_out
        assert ConflictFilter.AND_CONFLICT.matches(**kw) == f_and
        assert ConflictFilter.OR_CONFLICT.matches(**kw) == f_or

    def test_or_is_most_liberal(self):
        """OR matches whenever any other filter matches."""
        for new in (False, True):
            for evicted in (False, True):
                kw = dict(new_is_conflict=new, evicted_conflict_bit=evicted)
                any_other = any(
                    f.matches(**kw)
                    for f in ALL_FILTERS
                    if f is not ConflictFilter.OR_CONFLICT
                )
                assert ConflictFilter.OR_CONFLICT.matches(**kw) or not any_other

    def test_and_is_most_conservative(self):
        for new in (False, True):
            for evicted in (False, True):
                kw = dict(new_is_conflict=new, evicted_conflict_bit=evicted)
                if ConflictFilter.AND_CONFLICT.matches(**kw):
                    assert all(f.matches(**kw) for f in ALL_FILTERS)


class TestFilterMetadata:
    def test_paper_defaults(self):
        assert DEFAULT_FILTER is ConflictFilter.OUT_CONFLICT
        assert MOST_LIBERAL_FILTER is ConflictFilter.OR_CONFLICT

    def test_parse_filter_roundtrip(self):
        for f in ALL_FILTERS:
            assert parse_filter(f.value) is f

    def test_parse_filter_unknown(self):
        with pytest.raises(ValueError, match="unknown conflict filter"):
            parse_filter("xor-conflict")
