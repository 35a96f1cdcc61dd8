"""AST → IR lowering.

One :class:`LoweredProcedure` per program unit, with a single-exit CFG:
every source ``return`` jumps to the exit block, which holds the one
:class:`Return`. STOP paths leave the graph. DO loops are lowered to the
FORTRAN 77 trip-count form (the iteration count is computed once on entry),
which both matches the language semantics and lets SCCP fold constant-bound
loops during complete propagation.

Call sites receive program-unique ``site_id`` values here; everything
downstream (MOD/REF, jump functions, the interprocedural solver) keys on
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import astnodes as ast
from repro.frontend.errors import SemanticError
from repro.frontend.source import DUMMY_SPAN, SourceSpan
from repro.frontend.symbols import (
    INTEGER_INTRINSICS,
    Procedure,
    Program,
    Symbol,
    SymbolKind,
)
from repro.ir.cfg import BasicBlock, ControlFlowGraph
from repro.ir.instructions import (
    Argument,
    ArgumentKind,
    BinOp,
    Call,
    CJump,
    Const,
    Convert,
    Copy,
    IntrinsicOp,
    Jump,
    LoadArr,
    Operand,
    ReadArr,
    ReadVar,
    Return,
    Stop,
    StoreArr,
    Temp,
    UnOp,
    VarDef,
    VarUse,
    WriteOut,
    bool_const,
    int_const,
)

_COMPARE_OPS = frozenset({"==", "/=", "<", "<=", ">", ">="})
_LOGICAL_OPS = frozenset({".and.", ".or."})


@dataclass
class LoweredProcedure:
    """A procedure plus its CFG and lowering metadata."""

    procedure: Procedure
    cfg: ControlFlowGraph
    call_instrs: list[Call] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.procedure.name

    def variables(self) -> list[Symbol]:
        """All scalar named variables (candidates for SSA renaming)."""
        return [s for s in self.procedure.symtab if not s.is_array
                and s.kind is not SymbolKind.NAMED_CONST]


@dataclass
class LoweredProgram:
    """Whole-program lowering result."""

    program: Program
    procedures: dict[str, LoweredProcedure]
    call_sites: dict[int, tuple[str, Call]] = field(default_factory=dict)

    def procedure(self, name: str) -> LoweredProcedure:
        return self.procedures[name.lower()]

    def site(self, site_id: int) -> tuple[str, Call]:
        """Return (caller name, call instruction) for a site id."""
        return self.call_sites[site_id]


def operand_type(operand: Operand) -> ast.Type:
    """Static type of an operand."""
    if isinstance(operand, Const):
        return operand.type
    if isinstance(operand, Temp):
        return operand.type
    if isinstance(operand, VarUse):
        return operand.symbol.type
    # SSAName appears only after renaming; same rule as VarUse.
    return operand.symbol.type  # type: ignore[union-attr]


class _ProcedureLowerer:
    """Lowers one procedure body into a CFG."""

    def __init__(self, procedure: Procedure, site_counter: _SiteCounter):
        self._proc = procedure
        self._cfg = ControlFlowGraph()
        self._sites = site_counter
        self._temp_index = 0
        self._synth_index = 0
        self._label_blocks: dict[int, BasicBlock] = {}
        self._call_instrs: list[Call] = []
        self._current: BasicBlock = self._cfg.new_block()
        self._cfg.entry_id = self._current.id
        exit_block = self._cfg.new_block()
        exit_block.append(Return())
        self._cfg.exit_id = exit_block.id

    def lower(self) -> LoweredProcedure:
        self._lower_stmts(self._proc.ast.body)
        if not self._current.is_terminated:
            self._current.append(Jump(self._cfg.exit_id))
        self._cfg.remove_unreachable()
        self._cfg.refresh()
        reachable_calls = self._reachable_call_instrs()
        return LoweredProcedure(
            procedure=self._proc, cfg=self._cfg, call_instrs=reachable_calls
        )

    def _reachable_call_instrs(self) -> list[Call]:
        alive = []
        live_ids = {id(instr) for _, instr in self._cfg.instructions()}
        for call in self._call_instrs:
            if id(call) in live_ids:
                alive.append(call)
        return alive

    # -- helpers -------------------------------------------------------------

    def _new_temp(self, type_: ast.Type) -> Temp:
        temp = Temp(self._temp_index, type_)
        self._temp_index += 1
        return temp

    def _new_synthetic(self, hint: str, type_: ast.Type) -> Symbol:
        name = f"${hint}{self._synth_index}"
        self._synth_index += 1
        existing = self._proc.symtab.lookup(name)
        if existing is not None:
            # Re-lowering the same procedure (analyzer runs lower once per
            # configuration): reuse the symbol so identities stay stable.
            return existing
        symbol = Symbol(name=name, kind=SymbolKind.LOCAL, type=type_, hidden=True)
        self._proc.symtab.define(symbol)
        return symbol

    def _emit(self, instr) -> None:
        if self._current.is_terminated:
            # Unreachable code after goto/return/stop: park it in a fresh
            # block; remove_unreachable() will prune it (unless labeled).
            self._current = self._cfg.new_block()
        self._current.append(instr)

    def _start_block(self, block: BasicBlock) -> None:
        if not self._current.is_terminated:
            self._current.append(Jump(block.id))
        self._current = block

    def _label_block(self, label: int) -> BasicBlock:
        if label not in self._label_blocks:
            self._label_blocks[label] = self._cfg.new_block()
        return self._label_blocks[label]

    def _symbol(self, name: str) -> Symbol:
        symbol = self._proc.symtab.lookup(name)
        assert symbol is not None, f"unresolved name {name!r} reached lowering"
        return symbol

    # -- statements -----------------------------------------------------------

    def _lower_stmts(self, stmts: list[ast.Stmt]) -> None:
        for stmt in stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if stmt.label is not None:
            self._start_block(self._label_block(stmt.label))
        if isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.DoLoop):
            self._lower_do(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self._lower_call_stmt(stmt)
        elif isinstance(stmt, ast.Goto):
            self._emit(Jump(self._label_block(stmt.target).id))
        elif isinstance(stmt, ast.Continue):
            pass  # label handling above did the work
        elif isinstance(stmt, ast.ReturnStmt):
            self._emit(Jump(self._cfg.exit_id))
        elif isinstance(stmt, ast.StopStmt):
            self._emit(Stop(span=stmt.span))
        elif isinstance(stmt, ast.ReadStmt):
            self._lower_read(stmt)
        elif isinstance(stmt, ast.WriteStmt):
            values = [self._lower_expr(v) for v in stmt.values]
            self._emit(WriteOut(values=values, span=stmt.span))
        else:  # pragma: no cover - resolver rejects everything else
            raise SemanticError(f"cannot lower {type(stmt).__name__}")

    def _lower_assign(self, stmt: ast.Assign) -> None:
        value = self._lower_expr(stmt.value)
        if isinstance(stmt.target, ast.ArrayRef):
            symbol = self._symbol(stmt.target.name)
            indices = [self._lower_expr(i) for i in stmt.target.indices]
            value = self._coerce(value, symbol.type)
            self._emit(
                StoreArr(array=symbol, indices=indices, src=value, span=stmt.span)
            )
            return
        symbol = self._symbol(stmt.target.name)
        value = self._coerce(value, symbol.type)
        dest = VarDef(symbol, stmt.target.span)
        self._emit(Copy(src=value, result=dest, span=stmt.span))

    def _coerce(self, operand: Operand, to_type: ast.Type) -> Operand:
        from_type = operand_type(operand)
        if from_type is to_type:
            return operand
        if ast.Type.LOGICAL in (from_type, to_type) or ast.Type.CHARACTER in (
            from_type,
            to_type,
        ):
            raise SemanticError(
                f"cannot convert {from_type.value} to {to_type.value}"
            )
        temp = self._new_temp(to_type)
        self._emit(Convert(to_type=to_type, operand=operand, result=temp))
        return temp

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        cond = self._lower_expr(stmt.cond)
        then_block = self._cfg.new_block()
        join_block = self._cfg.new_block()
        else_block = self._cfg.new_block() if stmt.else_body else join_block
        self._emit(
            CJump(cond=cond, if_true=then_block.id, if_false=else_block.id,
                  span=stmt.span)
        )
        self._current = then_block
        self._lower_stmts(stmt.then_body)
        if not self._current.is_terminated:
            self._current.append(Jump(join_block.id))
        if stmt.else_body:
            self._current = else_block
            self._lower_stmts(stmt.else_body)
            if not self._current.is_terminated:
                self._current.append(Jump(join_block.id))
        self._current = join_block

    def _lower_do(self, stmt: ast.DoLoop) -> None:
        induction = self._symbol(stmt.var.name)
        first = self._coerce(self._lower_expr(stmt.first), ast.Type.INTEGER)
        last = self._coerce(self._lower_expr(stmt.last), ast.Type.INTEGER)
        if stmt.step is None:
            step: Operand = int_const(1)
        else:
            step = self._coerce(self._lower_expr(stmt.step), ast.Type.INTEGER)

        # FORTRAN 77 semantics: trip count fixed at loop entry.
        #   count = max((last - first + step) / step, 0)
        self._emit(Copy(src=first, result=VarDef(induction, stmt.var.span),
                        span=stmt.span))
        span_temp = self._new_temp(ast.Type.INTEGER)
        self._emit(BinOp(op="-", left=last, right=first, result=span_temp))
        biased = self._new_temp(ast.Type.INTEGER)
        self._emit(BinOp(op="+", left=span_temp, right=step, result=biased))
        quotient = self._new_temp(ast.Type.INTEGER)
        self._emit(BinOp(op="/", left=biased, right=step, result=quotient))
        clamped = self._new_temp(ast.Type.INTEGER)
        self._emit(
            IntrinsicOp(name="max", args=[quotient, int_const(0)], result=clamped)
        )
        count_sym = self._new_synthetic("count", ast.Type.INTEGER)
        self._emit(Copy(src=clamped, result=VarDef(count_sym)))
        if isinstance(step, Const):
            step_use: Operand = step
        else:
            step_sym = self._new_synthetic("step", ast.Type.INTEGER)
            self._emit(Copy(src=step, result=VarDef(step_sym)))
            step_use = VarUse(step_sym)

        header = self._cfg.new_block()
        body = self._cfg.new_block()
        after = self._cfg.new_block()
        self._start_block(header)
        more = self._new_temp(ast.Type.LOGICAL)
        self._emit(BinOp(op=">", left=VarUse(count_sym), right=int_const(0),
                         result=more))
        self._emit(CJump(cond=more, if_true=body.id, if_false=after.id))
        self._current = body
        self._lower_stmts(stmt.body)
        if not self._current.is_terminated:
            next_i = self._new_temp(ast.Type.INTEGER)
            self._current.append(
                BinOp(op="+", left=VarUse(induction, stmt.var.span),
                      right=step_use, result=next_i)
            )
            self._current.append(
                Copy(src=next_i, result=VarDef(induction, stmt.var.span))
            )
            next_count = self._new_temp(ast.Type.INTEGER)
            self._current.append(
                BinOp(op="-", left=VarUse(count_sym), right=int_const(1),
                      result=next_count)
            )
            self._current.append(Copy(src=next_count, result=VarDef(count_sym)))
            self._current.append(Jump(header.id))
        self._current = after

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        header = self._cfg.new_block()
        body = self._cfg.new_block()
        after = self._cfg.new_block()
        self._start_block(header)
        cond = self._lower_expr(stmt.cond)
        self._emit(CJump(cond=cond, if_true=body.id, if_false=after.id,
                         span=stmt.span))
        self._current = body
        self._lower_stmts(stmt.body)
        if not self._current.is_terminated:
            self._current.append(Jump(header.id))
        self._current = after

    def _lower_call_stmt(self, stmt: ast.CallStmt) -> None:
        args = [self._lower_argument(a) for a in stmt.args]
        call = Call(callee=stmt.name, args=args,
                    site_id=self._sites.next_id(), span=stmt.span,
                    callee_span=stmt.name_span)
        self._call_instrs.append(call)
        self._emit(call)

    def _lower_read(self, stmt: ast.ReadStmt) -> None:
        for target in stmt.targets:
            if isinstance(target, ast.ArrayRef):
                symbol = self._symbol(target.name)
                indices = [self._lower_expr(i) for i in target.indices]
                self._emit(ReadArr(array=symbol, indices=indices, span=stmt.span))
            else:
                symbol = self._symbol(target.name)
                self._emit(
                    ReadVar(target=VarDef(symbol, target.span), span=stmt.span)
                )

    # -- expressions -----------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Operand:
        if isinstance(expr, ast.IntLit):
            return int_const(expr.value)
        if isinstance(expr, ast.RealLit):
            return Const(expr.value, ast.Type.REAL)
        if isinstance(expr, ast.LogicalLit):
            return bool_const(expr.value)
        if isinstance(expr, ast.StringLit):
            return Const(expr.value, ast.Type.CHARACTER)
        if isinstance(expr, ast.VarRef):
            symbol = self._symbol(expr.name)
            if symbol.kind is SymbolKind.NAMED_CONST:
                return _const_of(symbol)
            return VarUse(symbol, expr.span)
        if isinstance(expr, ast.ArrayRef):
            symbol = self._symbol(expr.name)
            indices = [self._lower_expr(i) for i in expr.indices]
            temp = self._new_temp(symbol.type)
            self._emit(LoadArr(array=symbol, indices=indices, result=temp,
                               span=expr.span))
            return temp
        if isinstance(expr, ast.UnaryOp):
            operand = self._lower_expr(expr.operand)
            result_type = (
                ast.Type.LOGICAL if expr.op == ".not." else operand_type(operand)
            )
            temp = self._new_temp(result_type)
            self._emit(UnOp(op=expr.op, operand=operand, result=temp,
                            span=expr.span))
            return temp
        if isinstance(expr, ast.BinaryOp):
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            temp = self._new_temp(_binop_type(expr.op, left, right))
            self._emit(BinOp(op=expr.op, left=left, right=right, result=temp,
                             span=expr.span))
            return temp
        if isinstance(expr, ast.FunctionCall):
            return self._lower_call_expr(expr)
        raise SemanticError(f"cannot lower expression {type(expr).__name__}")

    def _lower_call_expr(self, expr: ast.FunctionCall) -> Operand:
        if expr.name in _KNOWN_INTRINSIC_TYPES or expr.name in INTEGER_INTRINSICS:
            args = [self._lower_expr(a) for a in expr.args]
            temp = self._new_temp(_intrinsic_type(expr.name, args))
            self._emit(IntrinsicOp(name=expr.name, args=args, result=temp,
                                   span=expr.span))
            return temp
        args = [self._lower_argument(a) for a in expr.args]
        result_type = self._function_return_type(expr.name)
        temp = self._new_temp(result_type)
        call = Call(callee=expr.name, args=args, result=temp,
                    site_id=self._sites.next_id(), span=expr.span,
                    callee_span=expr.name_span)
        self._call_instrs.append(call)
        self._emit(call)
        return temp

    def _function_return_type(self, name: str) -> ast.Type:
        return self._sites.function_return_type(name)

    def _lower_argument(self, expr: ast.Expr) -> Argument:
        if isinstance(expr, ast.VarRef):
            symbol = self._symbol(expr.name)
            if symbol.kind is SymbolKind.NAMED_CONST:
                return Argument(
                    kind=ArgumentKind.VALUE, value=_const_of(symbol), span=expr.span
                )
            if symbol.is_array:
                return Argument(kind=ArgumentKind.ARRAY, symbol=symbol,
                                span=expr.span)
            return Argument(
                kind=ArgumentKind.VAR,
                value=VarUse(symbol, expr.span),
                symbol=symbol,
                span=expr.span,
            )
        if isinstance(expr, ast.ArrayRef):
            symbol = self._symbol(expr.name)
            indices = [self._lower_expr(i) for i in expr.indices]
            temp = self._new_temp(symbol.type)
            self._emit(LoadArr(array=symbol, indices=indices, result=temp,
                               span=expr.span))
            return Argument(
                kind=ArgumentKind.ARRAY_ELEMENT,
                value=temp,
                symbol=symbol,
                indices=indices,
                span=expr.span,
            )
        value = self._lower_expr(expr)
        return Argument(kind=ArgumentKind.VALUE, value=value, span=expr.span)


_KNOWN_INTRINSIC_TYPES = {
    "real": ast.Type.REAL,
    "abs": None,  # type follows the argument
    "max": None,
    "min": None,
}


def _intrinsic_type(name: str, args: list[Operand]) -> ast.Type:
    if name in INTEGER_INTRINSICS:
        return ast.Type.INTEGER
    fixed = _KNOWN_INTRINSIC_TYPES.get(name)
    if fixed is not None:
        return fixed
    if any(operand_type(a) is ast.Type.REAL for a in args):
        return ast.Type.REAL
    return ast.Type.INTEGER


def _binop_type(op: str, left: Operand, right: Operand) -> ast.Type:
    if op in _COMPARE_OPS or op in _LOGICAL_OPS:
        return ast.Type.LOGICAL
    if operand_type(left) is ast.Type.REAL or operand_type(right) is ast.Type.REAL:
        return ast.Type.REAL
    return ast.Type.INTEGER


def _const_of(symbol: Symbol) -> Const:
    value = symbol.const_value
    if isinstance(value, bool):
        return bool_const(value)
    if isinstance(value, int):
        return int_const(value)
    assert isinstance(value, float)
    return Const(value, ast.Type.REAL)


class _SiteCounter:
    """Allocates program-unique call-site ids; knows function return types."""

    def __init__(self, program: Program):
        self._next = 0
        self._program = program

    def next_id(self) -> int:
        site_id = self._next
        self._next += 1
        return site_id

    def function_return_type(self, name: str) -> ast.Type:
        proc = self._program.procedures[name]
        result = proc.result_symbol
        assert result is not None, f"{name!r} is not a function"
        return result.type


def lower_procedure(procedure: Procedure, program: Program) -> LoweredProcedure:
    """Lower a single procedure (ids are only unique within this call)."""
    return _ProcedureLowerer(procedure, _SiteCounter(program)).lower()


def lower_program(program: Program) -> LoweredProgram:
    """Lower every procedure; assign program-unique call-site ids."""
    counter = _SiteCounter(program)
    procedures: dict[str, LoweredProcedure] = {}
    for name, proc in program.procedures.items():
        procedures[name] = _ProcedureLowerer(proc, counter).lower()
    lowered = LoweredProgram(program=program, procedures=procedures)
    for name, lowered_proc in procedures.items():
        for call in lowered_proc.call_instrs:
            lowered.call_sites[call.site_id] = (name, call)
    _check_argument_shapes(lowered)
    return lowered


def refresh_call_sites(lowered: LoweredProgram) -> None:
    """Rebuild call-site bookkeeping after a transformation (e.g. DCE)
    removed instructions. Site ids are stable; removed sites disappear."""
    lowered.call_sites = {}
    for name, lowered_proc in lowered.procedures.items():
        calls = [
            instr
            for _, instr in lowered_proc.cfg.instructions()
            if isinstance(instr, Call)
        ]
        lowered_proc.call_instrs = calls
        for call in calls:
            lowered.call_sites[call.site_id] = (name, call)


def _check_argument_shapes(lowered: LoweredProgram) -> None:
    """Array actual ↔ array formal agreement (deferred from resolution)."""
    for caller_name, call in lowered.call_sites.values():
        callee = lowered.procedures[call.callee].procedure
        for arg, formal in zip(call.args, callee.formals):
            if formal.is_array and arg.kind is ArgumentKind.VALUE:
                raise SemanticError(
                    f"{call.callee!r} expects an array for formal "
                    f"{formal.name!r} (call in {caller_name!r})",
                    arg.span.start,
                )
            if formal.is_array and arg.kind is ArgumentKind.VAR:
                raise SemanticError(
                    f"{call.callee!r} expects an array for formal "
                    f"{formal.name!r}, got scalar (call in {caller_name!r})",
                    arg.span.start,
                )
            if not formal.is_array and arg.kind is ArgumentKind.ARRAY:
                raise SemanticError(
                    f"{call.callee!r} expects a scalar for formal "
                    f"{formal.name!r}, got array (call in {caller_name!r})",
                    arg.span.start,
                )
