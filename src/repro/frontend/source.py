"""Source locations and spans.

Every token and every AST node that names a variable carries a span back
into the original text. The substitution stage (``repro.core.substitute``)
relies on these spans to splice constant literals into the program source,
reproducing the paper's "transformed version of the original source".

A span is one immutable slotted object of six ints (line, column and
offset of each end), not three: the lexer makes one per token, so the
span layout sets most of the front end's allocation and of the heap a
full garbage collection walks. ``start`` and ``end`` build a
:class:`SourceLocation` on demand for errors and diagnostics; hot paths
read ``start_offset``/``end_offset`` (or ``text_range``) directly.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import total_ordering


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A position in the source text.

    ``line`` and ``column`` are 1-based (editor convention); ``offset`` is
    the 0-based character index into the source string.
    """

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@total_ordering
class SourceSpan:
    """A half-open character range ``[start, end)`` in the source text.

    Constructed from two :class:`SourceLocation` objects; compares,
    orders and hashes exactly as the pair ``(start, end)`` does.
    """

    __slots__ = (
        "start_line", "start_column", "start_offset",
        "end_line", "end_column", "end_offset",
    )

    def __init__(self, start: SourceLocation, end: SourceLocation):
        _fill(self, start.line, start.column, start.offset,
              end.line, end.column, end.offset)

    @property
    def start(self) -> SourceLocation:
        return SourceLocation(self.start_line, self.start_column, self.start_offset)

    @property
    def end(self) -> SourceLocation:
        return SourceLocation(self.end_line, self.end_column, self.end_offset)

    @property
    def text_range(self) -> tuple[int, int]:
        return (self.start_offset, self.end_offset)

    def extract(self, source: str) -> str:
        """Return the text this span covers in ``source``."""
        return source[self.start_offset : self.end_offset]

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span covering both ``self`` and ``other``."""
        mine, theirs = self._key(), other._key()
        return make_span(*min(mine[:3], theirs[:3]), *max(mine[3:], theirs[3:]))

    def _key(self) -> tuple[int, int, int, int, int, int]:
        return (self.start_line, self.start_column, self.start_offset,
                self.end_line, self.end_column, self.end_offset)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (make_span, self._key())

    def __eq__(self, other):
        if type(other) is not SourceSpan:
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other):
        if type(other) is not SourceSpan:
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        # hash((start, end)): sets of spans keep the iteration order
        # that pairs of locations give them.
        return hash((
            (self.start_line, self.start_column, self.start_offset),
            (self.end_line, self.end_column, self.end_offset),
        ))

    def __repr__(self) -> str:
        return f"SourceSpan(start={self.start!r}, end={self.end!r})"

    def __str__(self) -> str:
        return f"{self.start}-{self.end}"


# The slot descriptors' own setters write past the __setattr__ that keeps
# spans immutable.
_new_span = object.__new__
_SLOT_SETTERS = tuple(getattr(SourceSpan, name).__set__ for name in SourceSpan.__slots__)


def _fill(span, start_line, start_column, start_offset, end_line, end_column, end_offset):
    set_sl, set_sc, set_so, set_el, set_ec, set_eo = _SLOT_SETTERS
    set_sl(span, start_line)
    set_sc(span, start_column)
    set_so(span, start_offset)
    set_el(span, end_line)
    set_ec(span, end_column)
    set_eo(span, end_offset)


def make_span(start_line: int, start_column: int, start_offset: int,
              end_line: int, end_column: int, end_offset: int) -> SourceSpan:
    """Build a span straight from its six ints (no location objects)."""
    span = _new_span(SourceSpan)
    _fill(span, start_line, start_column, start_offset, end_line, end_column, end_offset)
    return span


def span_at(line: int, column: int, offset: int, length: int) -> SourceSpan:
    """Build a single-line span of ``length`` characters."""
    return make_span(line, column, offset, line, column + length, offset + length)


DUMMY_SPAN = span_at(0, 0, 0, 0)
"""Span used for synthesized nodes that have no source counterpart."""
