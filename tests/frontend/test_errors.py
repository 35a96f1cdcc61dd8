"""Error-path coverage: messages and locations must stay useful."""

import pytest

from repro.frontend.errors import (
    FrontendError,
    LexError,
    ParseError,
    SemanticError,
)
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceLocation
from repro.frontend.symbols import parse_program


class TestHierarchy:
    def test_all_derive_from_frontend_error(self):
        for kind in (LexError, ParseError, SemanticError):
            assert issubclass(kind, FrontendError)

    def test_catchable_as_one(self):
        with pytest.raises(FrontendError):
            tokenize("@")
        with pytest.raises(FrontendError):
            parse_source("program p\n= 1\nend\n")
        with pytest.raises(FrontendError):
            parse_program("program p\nn = zz(1)\nend\n")


class TestMessages:
    def test_location_in_message(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("ok = 1\n   bad @ here")
        assert "2:8" in str(exc_info.value)

    def test_no_location_is_fine(self):
        error = SemanticError("free-floating")
        assert str(error) == "free-floating"

    def test_parse_error_names_found_token(self):
        with pytest.raises(ParseError, match="found"):
            parse_source("program p\nn = call\nend\n")

    def test_semantic_error_names_symbol(self):
        with pytest.raises(SemanticError, match="'nope'"):
            parse_program("program p\ncall nope\nend\n")


class TestLocations:
    def test_location_ordering(self):
        a = SourceLocation(1, 5, 4)
        b = SourceLocation(2, 1, 10)
        assert a < b

    def test_location_str(self):
        assert str(SourceLocation(3, 7, 20)) == "3:7"

    @pytest.mark.parametrize(
        "source,line",
        [
            ("program p\nn = @\nend\n", 2),
            ("program p\nn = 1\nm = @\nend\n", 3),
        ],
    )
    def test_lex_error_line_number(self, source, line):
        with pytest.raises(LexError) as exc_info:
            tokenize(source)
        assert exc_info.value.location.line == line

    def test_parse_error_column(self):
        with pytest.raises(ParseError) as exc_info:
            parse_source("program p\nif (1 > 0 then\nendif\nend\n")
        assert exc_info.value.location is not None
        assert exc_info.value.location.line == 2


class TestRecoveryBoundaries:
    """Errors must be raised eagerly, not produce corrupt ASTs."""

    def test_error_in_second_unit_reported(self):
        source = "program p\nn = 1\nend\nsubroutine s\nx = (1\nend\n"
        with pytest.raises(ParseError):
            parse_source(source)

    def test_error_inside_nested_body(self):
        source = (
            "program p\ndo i = 1, 3\nif (i > 1) then\nm = *\nendif\nenddo\nend\n"
        )
        with pytest.raises(ParseError):
            parse_source(source)

    def test_deep_expression_error(self):
        source = "program p\nn = ((((1 + ))))\nend\n"
        with pytest.raises(ParseError):
            parse_source(source)


class TestDoVariableType:
    """Name resolution alone rejects a non-INTEGER DO variable."""

    SOURCE = "program p\nreal x\ndo x = 1, 3\n  write x\nenddo\nend\n"

    def test_parse_program_rejects(self):
        with pytest.raises(SemanticError) as exc_info:
            parse_program(self.SOURCE)
        error = exc_info.value
        assert error.message == "DO variable 'x' must be INTEGER"
        assert (error.location.line, error.location.column) == (3, 4)
        assert str(error) == "3:4: DO variable 'x' must be INTEGER"

    def test_implicit_real_rejected(self):
        with pytest.raises(SemanticError, match="DO variable 'r' must be"):
            parse_program("program p\ndo r = 1, 3\nenddo\nend\n")

    def test_integer_accepted(self):
        parse_program("program p\ninteger k\ndo k = 1, 3\nenddo\nend\n")
