"""The MiniFortran lexer.

A single master regular expression scans the source; each match names
the lexical class it found. Design points:

- Free-form source; statements end at newlines, so NEWLINE is a token.
  A trailing ``&`` continues a statement onto the next line (the newline
  is swallowed), mirroring Fortran 90 free-form continuation.
- ``!`` starts a comment that runs to end of line.
- Case-insensitive: identifiers and keywords are lower-cased.
- Dot-operators (``.and.``, ``.lt.``, ``.true.``, ...) are recognized as
  single tokens, as are the modern comparison spellings (``<=``, ``/=``).
- A real literal requires a digit on at least one side of the dot and must
  not form a dot-operator (``1.eq.2`` lexes as INT DOT-OP INT).
- Letters and digits are ASCII only; any other character is a
  :class:`LexError` at its line and column.
"""

from __future__ import annotations

import re

from repro.frontend.errors import LexError
from repro.frontend.source import SourceLocation, make_span
from repro.frontend.tokens import DOT_OPERATORS, KEYWORDS, Token, TokenKind

_DOT_NAMES = "|".join(op.strip(".") for op in DOT_OPERATORS)

_TOKEN_RE = re.compile(
    rf"""
    (?P<skip>[ \t\r]+|![^\n]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\*\*|[=/<>]=|[-+*/()<>=,:])
  | (?P<newline>\n)
  | (?P<number>
        (?:[0-9]+(?:\.(?!(?i:{_DOT_NAMES})\.)[0-9]*)?|\.[0-9]+)
        (?:[eEdD][+-]?[0-9]+)?
    )
  | (?P<dotop>\.(?i:{_DOT_NAMES})\.)
  | (?P<string>'[^'\n]*'|"[^"\n]*")
  | (?P<continuation>&[ \t\r]*(?:![^\n]*)?\n)
    """,
    re.VERBOSE | re.ASCII,
)

_OPERATORS: dict[str, TokenKind] = {
    "**": TokenKind.POWER,
    "==": TokenKind.EQ,
    "/=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "=": TokenKind.ASSIGN,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
}

_NEWLINE = TokenKind.NEWLINE
_IDENT = TokenKind.IDENT
# Builds a Token without the Python-level __new__ a NamedTuple generates.
_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into tokens; the list always ends with one EOF."""
    tokens: list[Token] = []
    append = tokens.append
    keyword = KEYWORDS.get
    line, line_start, pos = 1, 0, 0
    match = _TOKEN_RE.scanner(source).match
    while (m := match()) is not None:
        group = m.lastgroup
        start, pos = m.span()
        if group == "skip":
            continue
        column = start - line_start + 1
        if group == "newline" or group == "continuation":
            # Runs of blank lines collapse into one NEWLINE; a
            # continuation swallows its newline altogether.
            if group == "newline" and (not tokens or tokens[-1].kind is not _NEWLINE):
                span = make_span(line, column, start, line + 1, 1, pos)
                append(_new_token(Token, (_NEWLINE, "\n", span)))
            line += 1
            line_start = pos
            continue
        span = make_span(line, column, start, line, column + pos - start, pos)
        text = m.group()
        if group == "word":
            text = text.lower()
            kind = keyword(text, _IDENT)
            value: object = text
        elif group == "op":
            kind, value = _OPERATORS[text], text
        elif group == "number":
            if text.isdigit():
                kind, value = TokenKind.INT, int(text)
            else:
                kind, value = TokenKind.REAL, float(text.lower().replace("d", "e"))
        elif group == "dotop":
            value = text.lower()
            kind = DOT_OPERATORS[value]
        else:
            kind, value = TokenKind.STRING, text[1:-1]
        append(_new_token(Token, (kind, value, span)))
    column = pos - line_start + 1
    if pos < len(source):
        _reject(source, pos, line, column)
    if tokens and tokens[-1].kind is not _NEWLINE:
        append(Token(_NEWLINE, "\n", make_span(line, column, pos, line, column, pos)))
    append(Token(TokenKind.EOF, "", make_span(line, column, pos, line, column, pos)))
    return tokens


def _reject(source: str, pos: int, line: int, column: int) -> None:
    """Raise the error for the character at ``pos`` no token matches."""
    where = SourceLocation(line, column, pos)
    ch = source[pos]
    if ch == "&":
        raise LexError("'&' must end its line", where)
    if ch in "'\"":
        raise LexError("unterminated string literal", where)
    if ch == ".":
        rest = source[pos : pos + 7].lower()
        raise LexError(f"unrecognized dot-operator starting {rest[:4]!r}", where)
    raise LexError(f"unexpected character {ch!r}", where)
