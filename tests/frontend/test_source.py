"""SourceSpan: one slotted object of six ints that behaves like the
(start, end) pair of locations it replaces."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.frontend.lexer import tokenize
from repro.frontend.source import DUMMY_SPAN, SourceLocation, SourceSpan, make_span, span_at

A = SourceLocation(1, 2, 1)
B = SourceLocation(1, 6, 5)
C = SourceLocation(3, 1, 20)


def test_constructor_takes_two_locations():
    span = SourceSpan(A, B)
    assert (span.start, span.end) == (A, B)
    assert span == SourceSpan(start=A, end=B) == make_span(1, 2, 1, 1, 6, 5)
    assert span.text_range == (1, 5)
    assert (span.start_offset, span.end_offset) == (1, 5)


def test_one_object_holding_ints():
    span = tokenize("alpha")[0].span
    assert not hasattr(span, "__dict__")
    assert all(type(getattr(span, name)) is int for name in SourceSpan.__slots__)


def test_immutable():
    span = SourceSpan(A, B)
    with pytest.raises(FrozenInstanceError):
        span.start_offset = 0
    with pytest.raises(FrozenInstanceError):
        del span.end_line


def test_equality_ordering_and_hash_follow_the_location_pair():
    spans = [SourceSpan(B, C), SourceSpan(A, C), SourceSpan(A, B)]
    pairs = [(s.start, s.end) for s in spans]
    assert [(s.start, s.end) for s in sorted(spans)] == sorted(pairs)
    for span, pair in zip(spans, pairs):
        assert hash(span) == hash(pair)
    assert SourceSpan(A, B) != SourceSpan(A, C)
    assert SourceSpan(A, B) != (A, B)
    with pytest.raises(TypeError):
        SourceSpan(A, B) < (A, B)


def test_pickle_and_copy_round_trip():
    span = SourceSpan(A, C)
    for clone in (pickle.loads(pickle.dumps(span)), copy.copy(span), copy.deepcopy(span)):
        assert type(clone) is SourceSpan and clone == span


def test_text_helpers():
    span = SourceSpan(A, B)
    assert span.extract("xabcdy") == "abcd"
    assert span.merge(SourceSpan(B, C)) == SourceSpan(A, C)
    assert str(span) == "1:2-1:6"
    assert repr(span) == f"SourceSpan(start={A!r}, end={B!r})"


def test_dummy_span():
    assert DUMMY_SPAN == span_at(0, 0, 0, 0)
    assert DUMMY_SPAN.text_range == (0, 0)
    assert str(DUMMY_SPAN) == "0:0-0:0"
