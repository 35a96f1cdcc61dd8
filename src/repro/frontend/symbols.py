"""Name resolution and semantic checking for MiniFortran.

This stage turns a parsed :class:`CompilationUnit` into a resolved
:class:`Program`:

- every name in every procedure is bound to a :class:`Symbol` (formal,
  local, COMMON global, named constant, or function result);
- ambiguous ``name(args)`` expressions are disambiguated into array
  references, intrinsic calls, or user function calls;
- COMMON blocks are storage-associated across procedures: member *i* of
  block ``/b/`` is the same variable everywhere, regardless of its local
  spelling (checked for consistent type and shape);
- FORTRAN implicit typing applies (names starting ``i``–``n`` are INTEGER,
  everything else REAL) for undeclared variables;
- DATA-initialized locals are modelled as procedure-private globals (FORTRAN
  SAVE semantics: one static instance initialized at program start), which
  lets every later phase treat "variables with cross-call storage" uniformly.

The paper treats global variables as extra parameters of every procedure
(footnote 1); :class:`GlobalId` is the program-wide identity that makes this
possible.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass, field

from repro.frontend import astnodes as ast
from repro.frontend.errors import SemanticError
from repro.frontend.parser import parse_source
from repro.frontend.source import DUMMY_SPAN, SourceSpan

#: Intrinsic functions: name -> (min_arity, max_arity).
INTRINSICS: dict[str, tuple[int, int]] = {
    "mod": (2, 2),
    "max": (2, 8),
    "min": (2, 8),
    "abs": (1, 1),
    "iabs": (1, 1),
    "int": (1, 1),
    "real": (1, 1),
    "nint": (1, 1),
    "isign": (2, 2),
}

#: Intrinsics whose result is INTEGER regardless of argument types.
INTEGER_INTRINSICS = frozenset({"mod", "iabs", "int", "nint", "isign"})


class SymbolKind(enum.Enum):
    FORMAL = "formal"
    LOCAL = "local"
    GLOBAL = "global"
    NAMED_CONST = "named_const"
    RESULT = "result"


@dataclass(frozen=True)
class GlobalId:
    """Program-wide identity of a COMMON-block member: block name + slot.

    GlobalIds key every entry environment and support index, so the hash
    is computed once and cached — the generated dataclass ``__hash__``
    would rebuild and rehash a ``(block, offset)`` tuple on every dict
    operation in the propagation hot loops.
    """

    block: str
    offset: int

    def __str__(self) -> str:
        return f"/{self.block}/[{self.offset}]"

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.block, self.offset))
            object.__setattr__(self, "_hash", value)
            return value

    # str hashes are salted per process: never serialize the cache
    # (GlobalIds cross process boundaries in sweep_programs).
    def __getstate__(self):
        return (self.block, self.offset)

    def __setstate__(self, state):
        object.__setattr__(self, "block", state[0])
        object.__setattr__(self, "offset", state[1])


@dataclass(eq=False)
class Symbol:
    """A resolved name within one procedure.

    Symbols are *identities*: equality and hashing are by object identity,
    and they survive ``deepcopy`` unchanged so copied IR still shares them.
    ``hidden`` marks synthesized symbols (e.g. shadow globals for COMMON
    members a procedure does not declare but must transmit).
    """

    name: str
    kind: SymbolKind
    type: ast.Type
    dims: tuple[int, ...] = ()
    global_id: GlobalId | None = None
    const_value: int | float | bool | None = None
    data_value: int | float | bool | None = None
    decl_span: SourceSpan = DUMMY_SPAN
    hidden: bool = False

    def __deepcopy__(self, memo):
        return self

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def is_global(self) -> bool:
        return self.global_id is not None

    def __repr__(self) -> str:
        return f"Symbol({self.name}, {self.kind.value}, {self.type.value})"


@dataclass
class GlobalVar:
    """Program-level view of one COMMON member (or SAVEd local)."""

    gid: GlobalId
    display: str
    type: ast.Type
    dims: tuple[int, ...] = ()
    data_value: int | float | bool | None = None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


class SymbolTable:
    """Per-procedure map from (lower-case) names to :class:`Symbol`."""

    def __init__(self) -> None:
        self._symbols: dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> Symbol:
        if symbol.name in self._symbols:
            raise SemanticError(
                f"duplicate declaration of {symbol.name!r}", symbol.decl_span.start
            )
        self._symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Symbol | None:
        return self._symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __iter__(self):
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)


@dataclass
class Procedure:
    """A resolved program unit: AST plus its symbol table."""

    ast: ast.ProcedureDef
    symtab: SymbolTable

    @property
    def name(self) -> str:
        return self.ast.name

    @property
    def kind(self) -> ast.ProcedureKind:
        return self.ast.kind

    @property
    def is_function(self) -> bool:
        return self.ast.is_function

    @property
    def is_main(self) -> bool:
        return self.ast.is_main

    @property
    def formals(self) -> list[Symbol]:
        found = []
        for name in self.ast.params:
            symbol = self.symtab.lookup(name)
            assert symbol is not None
            found.append(symbol)
        return found

    @property
    def result_symbol(self) -> Symbol | None:
        if not self.is_function:
            return None
        return self.symtab.lookup(self.name)

    def globals_used(self) -> list[Symbol]:
        """Symbols in this procedure bound to global storage."""
        return [s for s in self.symtab if s.is_global]

    def __repr__(self) -> str:
        return f"Procedure({self.kind.value} {self.name})"


@dataclass
class Program:
    """A fully resolved MiniFortran program."""

    procedures: dict[str, Procedure]
    globals: dict[GlobalId, GlobalVar]
    main: str
    source: str = ""

    def procedure(self, name: str) -> Procedure:
        try:
            return self.procedures[name.lower()]
        except KeyError:
            raise SemanticError(f"no procedure named {name!r}") from None

    @property
    def main_procedure(self) -> Procedure:
        return self.procedures[self.main]

    def global_display(self, gid: GlobalId) -> str:
        return self.globals[gid].display

    # -- Table 1 style characteristics ------------------------------------

    def noncomment_lines(self) -> int:
        count = 0
        for line in self.source.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("!"):
                count += 1
        return count

    def lines_per_procedure(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for name, proc in self.procedures.items():
            span = proc.ast.span
            sizes[name] = max(1, span.end.line - span.start.line + 1)
        return sizes

    def characteristics(self) -> dict[str, float]:
        """Program shape in the format of the paper's Table 1."""
        sizes = list(self.lines_per_procedure().values())
        return {
            "lines": self.noncomment_lines(),
            "procedures": len(self.procedures),
            "mean_lines_per_proc": round(statistics.fmean(sizes), 1),
            "median_lines_per_proc": statistics.median(sizes),
        }


# --------------------------------------------------------------------------
# Resolution
# --------------------------------------------------------------------------


def _implicit_type(name: str) -> ast.Type:
    return ast.Type.INTEGER if name[0] in "ijklmn" else ast.Type.REAL


class _ConstEvaluator:
    """Evaluates constant expressions in declarations (dims, PARAMETER)."""

    def __init__(self, named_constants: dict[str, int | float | bool]):
        self._named = named_constants

    def eval(self, expr: ast.Expr) -> int | float | bool:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.LogicalLit):
            return expr.value
        if isinstance(expr, ast.VarRef):
            if expr.name in self._named:
                return self._named[expr.name]
            raise SemanticError(
                f"{expr.name!r} is not a named constant", expr.span.start
            )
        if isinstance(expr, ast.UnaryOp):
            value = self.eval(expr.operand)
            if expr.op == "-":
                return -value  # type: ignore[operator]
            raise SemanticError(
                f"operator {expr.op!r} not allowed in constant expression",
                expr.span.start,
            )
        if isinstance(expr, ast.BinaryOp):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            if expr.op == "+":
                return left + right  # type: ignore[operator]
            if expr.op == "-":
                return left - right  # type: ignore[operator]
            if expr.op == "*":
                return left * right  # type: ignore[operator]
            if expr.op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    if right == 0:
                        raise SemanticError("division by zero in constant", expr.span.start)
                    return _fortran_int_div(left, right)
                return left / right  # type: ignore[operator]
            if expr.op == "**":
                return left**right  # type: ignore[operator]
            raise SemanticError(
                f"operator {expr.op!r} not allowed in constant expression",
                expr.span.start,
            )
        raise SemanticError("expected a constant expression", expr.span.start)


def _fortran_int_div(a: int, b: int) -> int:
    """FORTRAN integer division truncates toward zero."""
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


class _ProcedureResolver:
    """Resolves one program unit against the program-wide context."""

    def __init__(
        self,
        proc_def: ast.ProcedureDef,
        proc_kinds: dict[str, ast.ProcedureKind],
        proc_return_types: dict[str, ast.Type],
        global_vars: dict[GlobalId, GlobalVar],
    ):
        self._def = proc_def
        self._proc_kinds = proc_kinds
        self._proc_return_types = proc_return_types
        self._global_vars = global_vars
        self._symtab = SymbolTable()
        self._named_constants: dict[str, int | float | bool] = {}
        self._const_eval = _ConstEvaluator(self._named_constants)
        self._declared_types: dict[str, tuple[ast.Type, SourceSpan]] = {}
        self._declared_dims: dict[str, tuple[tuple[int, ...], SourceSpan]] = {}
        self._common_membership: dict[str, GlobalId] = {}
        self._data_values: dict[str, int | float | bool] = {}

    def resolve(self) -> Procedure:
        self._collect_declarations()
        self._define_formals()
        self._define_result()
        self._define_common_members()
        self._define_named_constants()
        self._define_declared_locals()
        self._resolve_statements(self._def.body)
        self._apply_local_data_values()
        return Procedure(ast=self._def, symtab=self._symtab)

    # -- declaration gathering ---------------------------------------------

    def _collect_declarations(self) -> None:
        for decl in self._def.decls:
            if isinstance(decl, ast.TypeDecl):
                for declarator in decl.declarators:
                    self._record_type(declarator.name, decl.type, declarator.span)
                    if declarator.dims:
                        self._record_dims(declarator)
            elif isinstance(decl, ast.DimensionDecl):
                for declarator in decl.declarators:
                    self._record_dims(declarator)
            elif isinstance(decl, ast.CommonDecl):
                self._record_common(decl)
            elif isinstance(decl, ast.ParameterDecl):
                for name, expr in decl.pairs:
                    if name in self._named_constants:
                        raise SemanticError(
                            f"duplicate named constant {name!r}", decl.span.start
                        )
                    self._named_constants[name] = self._const_eval.eval(expr)
            elif isinstance(decl, ast.DataDecl):
                for name, expr in decl.pairs:
                    if name in self._data_values:
                        raise SemanticError(
                            f"duplicate DATA initializer for {name!r}", decl.span.start
                        )
                    self._data_values[name] = self._const_eval.eval(expr)

    def _record_type(self, name: str, type_: ast.Type, span: SourceSpan) -> None:
        if name in self._declared_types:
            raise SemanticError(f"duplicate type declaration for {name!r}", span.start)
        self._declared_types[name] = (type_, span)

    def _record_dims(self, declarator: ast.Declarator) -> None:
        if declarator.name in self._declared_dims:
            raise SemanticError(
                f"duplicate dimension for {declarator.name!r}", declarator.span.start
            )
        dims = []
        for dim_expr in declarator.dims:
            extent = self._const_eval.eval(dim_expr)
            if not isinstance(extent, int) or extent <= 0:
                raise SemanticError(
                    f"array bound for {declarator.name!r} must be a positive "
                    "integer constant",
                    declarator.span.start,
                )
            dims.append(extent)
        self._declared_dims[declarator.name] = (tuple(dims), declarator.span)

    def _record_common(self, decl: ast.CommonDecl) -> None:
        for offset, declarator in enumerate(decl.declarators):
            if declarator.name in self._common_membership:
                raise SemanticError(
                    f"{declarator.name!r} appears in two COMMON blocks",
                    declarator.span.start,
                )
            if declarator.dims:
                self._record_dims(declarator)
            self._common_membership[declarator.name] = GlobalId(decl.block, offset)

    # -- symbol definition --------------------------------------------------

    def _type_of(self, name: str) -> ast.Type:
        if name in self._declared_types:
            return self._declared_types[name][0]
        return _implicit_type(name)

    def _dims_of(self, name: str) -> tuple[int, ...]:
        if name in self._declared_dims:
            return self._declared_dims[name][0]
        return ()

    def _define_formals(self) -> None:
        for name in self._def.params:
            if name in self._common_membership:
                raise SemanticError(
                    f"formal parameter {name!r} may not be in COMMON",
                    self._def.span.start,
                )
            self._symtab.define(
                Symbol(
                    name=name,
                    kind=SymbolKind.FORMAL,
                    type=self._type_of(name),
                    dims=self._dims_of(name),
                    decl_span=self._decl_span(name),
                )
            )

    def _define_result(self) -> None:
        if not self._def.is_function:
            return
        return_type = self._def.return_type or _implicit_type(self._def.name)
        self._symtab.define(
            Symbol(
                name=self._def.name,
                kind=SymbolKind.RESULT,
                type=return_type,
                decl_span=self._def.span,
            )
        )

    def _define_common_members(self) -> None:
        for name, gid in self._common_membership.items():
            if name in self._def.params:
                continue  # already rejected above, defensive
            type_ = self._type_of(name)
            dims = self._dims_of(name)
            data_value = self._data_values.pop(name, None)
            self._register_global(gid, name, type_, dims, data_value)
            self._symtab.define(
                Symbol(
                    name=name,
                    kind=SymbolKind.GLOBAL,
                    type=type_,
                    dims=dims,
                    global_id=gid,
                    data_value=data_value,
                    decl_span=self._decl_span(name),
                )
            )

    def _register_global(
        self,
        gid: GlobalId,
        local_name: str,
        type_: ast.Type,
        dims: tuple[int, ...],
        data_value: int | float | bool | None,
    ) -> None:
        existing = self._global_vars.get(gid)
        if existing is None:
            self._global_vars[gid] = GlobalVar(
                gid=gid,
                display=f"{gid.block}.{local_name}",
                type=type_,
                dims=dims,
                data_value=data_value,
            )
            return
        if existing.type is not type_ or existing.dims != dims:
            raise SemanticError(
                f"COMMON member {gid} declared with conflicting type/shape "
                f"({local_name!r} in {self._def.name!r})"
            )
        if data_value is not None:
            if existing.data_value is not None and existing.data_value != data_value:
                raise SemanticError(
                    f"COMMON member {gid} has conflicting DATA initializers"
                )
            existing.data_value = data_value

    def _define_named_constants(self) -> None:
        for name, value in self._named_constants.items():
            if isinstance(value, bool):
                type_ = ast.Type.LOGICAL
            elif isinstance(value, int):
                type_ = ast.Type.INTEGER
            else:
                type_ = ast.Type.REAL
            self._symtab.define(
                Symbol(
                    name=name,
                    kind=SymbolKind.NAMED_CONST,
                    type=type_,
                    const_value=value,
                    decl_span=self._decl_span(name),
                )
            )

    def _define_declared_locals(self) -> None:
        declared = set(self._declared_types) | set(self._declared_dims)
        for name in sorted(declared):
            if name in self._symtab:
                continue
            self._define_local(name)

    def _define_local(self, name: str) -> Symbol:
        return self._symtab.define(
            Symbol(
                name=name,
                kind=SymbolKind.LOCAL,
                type=self._type_of(name),
                dims=self._dims_of(name),
                decl_span=self._decl_span(name),
            )
        )

    def _apply_local_data_values(self) -> None:
        """Turn DATA-initialized locals into procedure-private globals.

        FORTRAN DATA implies static storage initialized once at program
        start. Modelling the variable as a single-member pseudo-COMMON
        block gives exactly those semantics to every downstream phase.
        """
        for name, value in self._data_values.items():
            symbol = self._symtab.lookup(name)
            if symbol is None:
                symbol = self._define_local(name)
            if symbol.kind is not SymbolKind.LOCAL:
                raise SemanticError(
                    f"DATA initializer not allowed for {symbol.kind.value} "
                    f"{name!r}"
                )
            gid = GlobalId(f"save${self._def.name}", _stable_offset(name))
            symbol.kind = SymbolKind.GLOBAL
            symbol.global_id = gid
            symbol.data_value = value
            self._register_global(gid, name, symbol.type, symbol.dims, value)

    def _decl_span(self, name: str) -> SourceSpan:
        if name in self._declared_types:
            return self._declared_types[name][1]
        if name in self._declared_dims:
            return self._declared_dims[name][1]
        return DUMMY_SPAN

    # -- statement / expression resolution -----------------------------------

    def _resolve_statements(self, stmts: list[ast.Stmt]) -> None:
        for stmt in stmts:
            self._resolve_stmt(stmt)

    def _resolve_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            stmt.target = self._resolve_target(stmt.target)
            stmt.value = self._resolve_expr(stmt.value)
        elif isinstance(stmt, ast.IfStmt):
            stmt.cond = self._resolve_expr(stmt.cond)
            self._resolve_statements(stmt.then_body)
            self._resolve_statements(stmt.else_body)
        elif isinstance(stmt, ast.DoLoop):
            induction = self._lookup_or_implicit(stmt.var.name, stmt.var.span)
            if induction.is_array or induction.kind is SymbolKind.NAMED_CONST:
                raise SemanticError(
                    f"invalid DO induction variable {stmt.var.name!r}",
                    stmt.var.span.start,
                )
            if induction.type is not ast.Type.INTEGER:
                raise SemanticError(
                    f"DO variable {induction.name!r} must be INTEGER",
                    stmt.var.span.start,
                )
            stmt.first = self._resolve_expr(stmt.first)
            stmt.last = self._resolve_expr(stmt.last)
            if stmt.step is not None:
                stmt.step = self._resolve_expr(stmt.step)
            self._resolve_statements(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            stmt.cond = self._resolve_expr(stmt.cond)
            self._resolve_statements(stmt.body)
        elif isinstance(stmt, ast.CallStmt):
            kind = self._proc_kinds.get(stmt.name)
            if kind is None:
                raise SemanticError(
                    f"call to unknown subroutine {stmt.name!r}", stmt.span.start
                )
            if kind is not ast.ProcedureKind.SUBROUTINE:
                raise SemanticError(
                    f"{stmt.name!r} is not a subroutine", stmt.span.start
                )
            stmt.args = [self._resolve_argument(a) for a in stmt.args]
        elif isinstance(stmt, ast.ReadStmt):
            stmt.targets = [self._resolve_target(t) for t in stmt.targets]
        elif isinstance(stmt, ast.WriteStmt):
            stmt.values = [self._resolve_expr(v) for v in stmt.values]
        elif isinstance(stmt, (ast.Goto, ast.Continue, ast.ReturnStmt, ast.StopStmt)):
            pass
        else:  # pragma: no cover - parser produces no other statement kinds
            raise SemanticError(f"unhandled statement {type(stmt).__name__}")

    def _resolve_target(
        self, target: ast.VarRef | ast.ArrayRef
    ) -> ast.VarRef | ast.ArrayRef:
        if isinstance(target, ast.ArrayRef):
            symbol = self._lookup_or_implicit(target.name, target.span)
            if not symbol.is_array:
                raise SemanticError(
                    f"{target.name!r} is not an array", target.span.start
                )
            if len(target.indices) != len(symbol.dims):
                raise SemanticError(
                    f"{target.name!r} expects {len(symbol.dims)} subscripts",
                    target.span.start,
                )
            target.indices = [self._resolve_expr(i) for i in target.indices]
            return target
        symbol = self._lookup_or_implicit(target.name, target.span)
        if symbol.kind is SymbolKind.NAMED_CONST:
            raise SemanticError(
                f"cannot assign to named constant {target.name!r}",
                target.span.start,
            )
        if symbol.is_array:
            raise SemanticError(
                f"array {target.name!r} needs subscripts", target.span.start
            )
        return target

    def _resolve_expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, (ast.IntLit, ast.RealLit, ast.LogicalLit, ast.StringLit)):
            return expr
        if isinstance(expr, ast.VarRef):
            symbol = self._lookup_or_implicit(expr.name, expr.span)
            if symbol.is_array:
                raise SemanticError(
                    f"array {expr.name!r} used without subscripts", expr.span.start
                )
            return expr
        if isinstance(expr, ast.UnaryOp):
            expr.operand = self._resolve_expr(expr.operand)
            return expr
        if isinstance(expr, ast.BinaryOp):
            expr.left = self._resolve_expr(expr.left)
            expr.right = self._resolve_expr(expr.right)
            return expr
        if isinstance(expr, ast.ArrayRef):
            expr.indices = [self._resolve_expr(i) for i in expr.indices]
            return expr
        if isinstance(expr, ast.FunctionCall):
            return self._resolve_call_like(expr)
        raise SemanticError(f"unhandled expression {type(expr).__name__}")

    def _resolve_call_like(self, expr: ast.FunctionCall) -> ast.Expr:
        """Disambiguate ``name(args)``: array, intrinsic, or user function."""
        symbol = self._symtab.lookup(expr.name)
        if symbol is not None and symbol.is_array:
            if len(expr.args) != len(symbol.dims):
                raise SemanticError(
                    f"{expr.name!r} expects {len(symbol.dims)} subscripts",
                    expr.span.start,
                )
            indices = [self._resolve_expr(a) for a in expr.args]
            return ast.ArrayRef(expr.name, indices, span=expr.span)
        if expr.name in INTRINSICS:
            low, high = INTRINSICS[expr.name]
            if not low <= len(expr.args) <= high:
                raise SemanticError(
                    f"intrinsic {expr.name!r} takes {low}..{high} arguments",
                    expr.span.start,
                )
            expr.args = [self._resolve_expr(a) for a in expr.args]
            return expr
        kind = self._proc_kinds.get(expr.name)
        if kind is ast.ProcedureKind.FUNCTION:
            expr.args = [self._resolve_argument(a) for a in expr.args]
            return expr
        if kind is not None:
            raise SemanticError(
                f"{expr.name!r} is a {kind.value}, not a function", expr.span.start
            )
        raise SemanticError(
            f"{expr.name!r} is neither an array, an intrinsic, nor a function",
            expr.span.start,
        )

    def _resolve_argument(self, expr: ast.Expr) -> ast.Expr:
        """Resolve an actual parameter; unlike other expression positions,
        a bare array name is allowed here (whole-array actual)."""
        if isinstance(expr, ast.VarRef):
            symbol = self._lookup_or_implicit(expr.name, expr.span)
            if symbol.is_array:
                return expr  # whole array passed by reference
        return self._resolve_expr(expr)

    def _lookup_or_implicit(self, name: str, span: SourceSpan) -> Symbol:
        symbol = self._symtab.lookup(name)
        if symbol is not None:
            return symbol
        if name in self._proc_kinds and name != self._def.name:
            raise SemanticError(
                f"procedure name {name!r} used as a variable", span.start
            )
        return self._define_local(name)


def _stable_offset(name: str) -> int:
    """Deterministic small slot number for SAVEd locals (name-derived)."""
    return sum(ord(c) for c in name) % 1000 + len(name) * 1000


def resolve(unit: ast.CompilationUnit) -> Program:
    """Resolve a parsed compilation unit into a :class:`Program`."""
    proc_kinds: dict[str, ast.ProcedureKind] = {}
    proc_return_types: dict[str, ast.Type] = {}
    main_name: str | None = None
    for proc_def in unit.procedures:
        if proc_def.name in proc_kinds:
            raise SemanticError(
                f"duplicate procedure name {proc_def.name!r}", proc_def.span.start
            )
        if proc_def.name in INTRINSICS:
            raise SemanticError(
                f"procedure name {proc_def.name!r} shadows an intrinsic",
                proc_def.span.start,
            )
        proc_kinds[proc_def.name] = proc_def.kind
        if proc_def.is_function:
            return_type = proc_def.return_type or _implicit_type(proc_def.name)
            proc_return_types[proc_def.name] = return_type
        if proc_def.is_main:
            if main_name is not None:
                raise SemanticError("multiple PROGRAM units", proc_def.span.start)
            main_name = proc_def.name
    if main_name is None:
        raise SemanticError("no PROGRAM unit")

    global_vars: dict[GlobalId, GlobalVar] = {}
    procedures: dict[str, Procedure] = {}
    for proc_def in unit.procedures:
        resolver = _ProcedureResolver(
            proc_def, proc_kinds, proc_return_types, global_vars
        )
        procedures[proc_def.name] = resolver.resolve()

    _check_call_arities(procedures)
    return Program(
        procedures=procedures,
        globals=global_vars,
        main=main_name,
        source=unit.source,
    )


def _check_call_arities(procedures: dict[str, Procedure]) -> None:
    for proc in procedures.values():
        for stmt in ast.walk_stmts(proc.ast.body):
            for call_name, args, span in _calls_in_stmt(stmt, procedures):
                callee = procedures[call_name]
                expected = len(callee.ast.params)
                if len(args) != expected:
                    raise SemanticError(
                        f"{call_name!r} expects {expected} arguments, "
                        f"got {len(args)}",
                        span.start,
                    )


def _calls_in_stmt(stmt: ast.Stmt, procedures: dict[str, Procedure]):
    """Yield (callee, args, span) for every call appearing in ``stmt``."""
    if isinstance(stmt, ast.CallStmt):
        yield (stmt.name, stmt.args, stmt.span)
        exprs = list(stmt.args)
    else:
        exprs = _exprs_of_stmt(stmt)
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.FunctionCall) and node.name in procedures:
                yield (node.name, node.args, node.span)


def _exprs_of_stmt(stmt: ast.Stmt) -> list[ast.Expr]:
    if isinstance(stmt, ast.Assign):
        exprs: list[ast.Expr] = [stmt.value]
        if isinstance(stmt.target, ast.ArrayRef):
            exprs.extend(stmt.target.indices)
        return exprs
    if isinstance(stmt, ast.IfStmt):
        return [stmt.cond]
    if isinstance(stmt, ast.DoLoop):
        exprs = [stmt.first, stmt.last]
        if stmt.step is not None:
            exprs.append(stmt.step)
        return exprs
    if isinstance(stmt, ast.DoWhile):
        return [stmt.cond]
    if isinstance(stmt, ast.WriteStmt):
        return list(stmt.values)
    if isinstance(stmt, ast.ReadStmt):
        exprs = []
        for target in stmt.targets:
            if isinstance(target, ast.ArrayRef):
                exprs.extend(target.indices)
        return exprs
    return []


def parse_program(source: str) -> Program:
    """Parse and resolve MiniFortran ``source`` — the main front-end entry."""
    return resolve(parse_source(source))
