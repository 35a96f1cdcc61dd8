"""Parser edge cases discovered worth pinning during development."""

import pytest

from repro.frontend import astnodes as ast
from repro.frontend.errors import ParseError
from repro.frontend.parser import MAX_NESTING, parse_source
from repro.frontend.symbols import parse_program
from repro.interp import run_program


class TestLabels:
    def test_label_on_assignment(self):
        unit = parse_source("program p\n10 n = 1\ngoto 10\nend\n")
        assert unit.procedures[0].body[0].label == 10

    def test_label_on_if(self):
        unit = parse_source(
            "program p\n20 if (n > 0) then\nn = 0\nendif\nend\n"
        )
        assert unit.procedures[0].body[0].label == 20

    def test_label_on_do(self):
        unit = parse_source("program p\n30 do i = 1, 2\nn = i\nenddo\nend\n")
        assert unit.procedures[0].body[0].label == 30

    def test_goto_into_loop_body_runs(self):
        # unusual but legal in our CFG model: jump over the loop setup
        source = """
program p
  n = 0
  goto 10
  do i = 1, 3
10  n = n + 1
  enddo
  write n
end
"""
        # jumping into a DO body skips the trip-count setup; the loop
        # machinery reads undefined state, which the parser cannot reject
        # and the interpreter reports at run time.
        parse_program(source)

    def test_label_zero_and_large(self):
        unit = parse_source(
            "program p\n0 continue\n99999 continue\ngoto 99999\nend\n"
        )
        labels = [s.label for s in unit.procedures[0].body]
        assert labels[:2] == [0, 99999]


class TestStatementBoundaries:
    def test_two_statements_one_line_rejected(self):
        with pytest.raises(ParseError):
            parse_source("program p\nn = 1 m = 2\nend\n")

    def test_continuation_inside_call(self):
        source = "program p\ninteger w(3)\ncall s(1, &\n  2, w)\nend\n" + (
            "subroutine s(a, b, v)\ninteger a, b, v(3)\nv(1) = a + b\nend\n"
        )
        program = parse_program(source)
        call = program.procedure("p").ast.body[0]
        assert len(call.args) == 3

    def test_empty_then_branch(self):
        unit = parse_source("program p\nif (n > 0) then\nendif\nend\n")
        assert unit.procedures[0].body[0].then_body == []

    def test_empty_loop_body(self):
        unit = parse_source("program p\ndo i = 1, 3\nenddo\nend\n")
        assert unit.procedures[0].body[0].body == []

    def test_deeply_nested_structures(self):
        lines = ["program p"]
        depth = 12
        for i in range(depth):
            lines.append(f"if (n > {i}) then")
        lines.append("m = 1")
        lines.extend(["endif"] * depth)
        lines.append("end")
        unit = parse_source("\n".join(lines) + "\n")
        node = unit.procedures[0].body[0]
        for _ in range(depth - 1):
            assert isinstance(node, ast.IfStmt)
            node = node.then_body[0]


class TestNegativeLiterals:
    def test_negative_do_step_executes(self):
        source = (
            "program p\nm = 0\ndo i = 3, 1, -1\nm = m * 10 + i\nenddo\n"
            "write m\nend\n"
        )
        assert run_program(source).outputs == [321]

    def test_double_negation_parses(self):
        unit = parse_source("program p\nn = - - 5\nend\n")
        value = unit.procedures[0].body[0].value
        assert isinstance(value, ast.UnaryOp)
        assert isinstance(value.operand, ast.UnaryOp)

    def test_subtraction_vs_negative_literal(self):
        source = "program p\nn = 5\nm = n -1\nwrite m\nend\n"
        assert run_program(source).outputs == [4]


def _assign_program(expr: str) -> str:
    return f"program p\n  integer x\n  x = {expr}\n  write x\nend\n"


class TestDeepNesting:
    """Precedence climbing costs two stack frames per parenthesis, and
    nothing deeper than MAX_NESTING ever reaches a RecursionError."""

    def test_250_parentheses_parse(self):
        program = parse_program(_assign_program("(" * 250 + "7" + ")" * 250))
        assign = program.procedure("p").ast.body[0]
        assert isinstance(assign.value, ast.IntLit) and assign.value.value == 7

    def test_250_nested_sums_analyze(self):
        from repro import analyze

        expr = "1" + " + (1" * 250 + ")" * 250
        result = analyze(_assign_program(expr), cache=None)
        assert result.lowered.procedures["p"] is not None

    def test_5000_parentheses_are_a_located_parse_error(self):
        with pytest.raises(ParseError) as exc_info:
            parse_program(_assign_program("(" * 5000 + "1" + ")" * 5000))
        error = exc_info.value
        assert "nested more than" in error.message
        # the first parenthesis past the limit, on the assignment's line
        assert (error.location.line, error.location.column) == (3, 8 + MAX_NESTING)

    @pytest.mark.parametrize("expr", ["-" * 5000 + "1", "2**" * 5000 + "2",
                                      "abs(" * 5000 + "1" + ")" * 5000])
    def test_other_deep_operands_are_parse_errors(self, expr):
        with pytest.raises(ParseError):
            parse_program(_assign_program(expr))

    def test_deep_statement_nesting_is_a_parse_error(self):
        depth = 5000
        source = ("program p\n integer x\n" + " if (x > 0) then\n" * depth
                  + " x = 1\n" + " endif\n" * depth + "end\n")
        with pytest.raises(ParseError) as exc_info:
            parse_program(source)
        assert exc_info.value.location is not None

    def test_1000_term_sum_resolves_and_analyzes(self):
        from repro import analyze

        source = _assign_program(" + ".join(["1"] * 1000))
        program = parse_program(source)
        value = program.procedure("p").ast.body[0].value
        depth = 0
        while isinstance(value, ast.BinaryOp):
            value, depth = value.left, depth + 1
        assert depth == 999
        assert run_program(source).outputs == [1000]
        transformed = analyze(source, cache=None).transformed_source()
        assert transformed == source.replace("write x", "write 1000")


    def test_1000_term_named_constant_evaluates(self):
        source = ("program p\n  integer n\n  parameter (n = "
                  + " + ".join(["1"] * 1000) + ")\n  write n\nend\n")
        assert run_program(source).outputs == [1000]


class TestPrecedenceClimbing:
    """Trees and rejections the old one-function-per-level ladder gave,
    beyond the basic cases in test_parser.TestExpressions."""

    @staticmethod
    def shape(expr):
        if isinstance(expr, ast.BinaryOp):
            return (expr.op, TestPrecedenceClimbing.shape(expr.left),
                    TestPrecedenceClimbing.shape(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return (expr.op, TestPrecedenceClimbing.shape(expr.operand))
        return getattr(expr, "name", getattr(expr, "value", None))

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("-a * b", ("*", ("-", "a"), "b")),
            ("a ** -b * c", ("*", ("**", "a", ("-", "b")), "c")),
            (".not. a < b .and. c", (".and.", (".not.", ("<", "a", "b")), "c")),
            ("a .or. b .and. .not. c", (".or.", "a", (".and.", "b", (".not.", "c")))),
            ("a + b * c < d", ("<", ("+", "a", ("*", "b", "c")), "d")),
        ],
    )
    def test_tree_shapes(self, text, tree):
        unit = parse_source(f"program p\nl = {text}\nend\n")
        assert self.shape(unit.procedures[0].body[0].value) == tree

    @pytest.mark.parametrize(
        "text, found",
        [(".not. a < b < c", "<"), ("a == .not. b", ".not."),
         ("a + .not. b", ".not."), ("- .not. a", ".not.")],
    )
    def test_rejections(self, text, found):
        with pytest.raises(ParseError, match=f"found {found!r}"):
            parse_source(f"program p\nl = {text}\nend\n")
