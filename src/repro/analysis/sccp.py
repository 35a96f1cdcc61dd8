"""Sparse conditional constant propagation (Wegman–Zadeck) on SSA.

This is the canonical *intraprocedural* constant propagation algorithm —
the baseline the paper compares against in Table 3, column 4. Interfaces:

- ``entry_env`` maps symbols to the lattice value of their entry (version
  0) definition. The intraprocedural baseline passes ⊥ for formals and
  globals; the framework can also seed it with CONSTANTS(p) to measure
  the downstream effect of interprocedural information.
- MOD information is honoured structurally: a call kills a scalar iff a
  :class:`CallKill` was inserted for it, so un-MODified variables keep
  their values across calls with no extra logic here.

The algorithm is optimistic: values start at ⊤ and only lower; branch
edges become executable only when their condition allows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import semantics
from repro.analysis.ssa import SSAProcedure
from repro.core.lattice import BOTTOM, TOP, LatticeValue, is_constant, meet_all
from repro.frontend.astnodes import Type
from repro.frontend.symbols import Symbol
from repro.ir.instructions import (
    BinOp,
    Call,
    CallKill,
    CJump,
    Const,
    Convert,
    Copy,
    Instr,
    IntrinsicOp,
    Jump,
    LoadArr,
    Operand,
    Phi,
    ReadVar,
    SSAName,
    Temp,
    UnOp,
    VarDef,
)

_ENTRY_EDGE = -1  # virtual predecessor of the entry block


@dataclass
class SCCPResult:
    """Lattice values and reachability facts from one SCCP run."""

    values: dict[object, LatticeValue] = field(default_factory=dict)
    executable_blocks: set[int] = field(default_factory=set)
    executable_edges: set[tuple[int, int]] = field(default_factory=set)

    def value_of(self, operand: Operand) -> LatticeValue:
        return _operand_value(operand, self.values)

    def constant_names(self) -> dict[object, LatticeValue]:
        """All SSA names / temps proven constant."""
        return {k: v for k, v in self.values.items() if is_constant(v)}


def _operand_value(operand: Operand, values: dict) -> LatticeValue:
    if isinstance(operand, Const):
        if operand.type is Type.INTEGER:
            return int(operand.value)
        if operand.type is Type.LOGICAL:
            return bool(operand.value)
        return BOTTOM
    if isinstance(operand, SSAName):
        return values.get(SSAName(operand.symbol, operand.version), TOP)
    return values.get(operand, TOP)


def _fold(op: str, arity: str, args: list[LatticeValue]) -> LatticeValue:
    if op == "*" and arity == "bin" and any(
        a == 0 and isinstance(a, int) and not isinstance(a, bool) for a in args
    ):
        return 0  # 0 * anything = 0, even for unknown operands
    if any(a is BOTTOM for a in args):
        return BOTTOM
    if any(a is TOP for a in args):
        return TOP
    try:
        if arity == "bin":
            result = semantics.apply_binary(op, args[0], args[1])
        elif arity == "un":
            result = semantics.apply_unary(op, args[0])
        else:
            result = semantics.apply_intrinsic(op, args)
    except (semantics.EvalError, OverflowError, ValueError):
        return BOTTOM
    if isinstance(result, (bool, int)):
        return result
    return BOTTOM


def run_sccp(
    ssa: SSAProcedure,
    entry_env: dict[Symbol, LatticeValue] | None = None,
) -> SCCPResult:
    """Run SCCP over ``ssa`` with the given entry values."""
    result = SCCPResult()
    values = result.values
    env = entry_env or {}
    for symbol in ssa.variables:
        if symbol.type in (Type.INTEGER, Type.LOGICAL):
            values[SSAName(symbol, 0)] = env.get(symbol, BOTTOM)
        else:
            values[SSAName(symbol, 0)] = BOTTOM

    cfg = ssa.cfg
    uses = ssa.uses()

    flow_list: list[tuple[int, int]] = [(_ENTRY_EDGE, cfg.entry_id)]
    ssa_list: list[object] = []
    visited_blocks: set[int] = set()

    def set_value(key, new_value: LatticeValue) -> None:
        # Values may only move down the lattice (⊤ → c → ⊥).
        old = values.get(key, TOP)
        if old is new_value or old == new_value and type(old) is type(new_value):
            return
        if old is TOP or (is_constant(old) and new_value is BOTTOM):
            values[key] = new_value
            ssa_list.append(key)

    def dest_key(instr: Instr):
        dest = instr.dest
        if dest is None:
            return None
        if isinstance(dest, VarDef):
            return SSAName(dest.symbol, dest.version or 0)
        return dest

    def visit_phi(phi: Phi, block_id: int) -> None:
        key = dest_key(phi)
        if key is None:
            return
        contributions = []
        for pred_id, operand in phi.incoming.items():
            if (pred_id, block_id) in result.executable_edges:
                contributions.append(_operand_value(operand, values))
        if contributions:
            set_value(key, meet_all(contributions))

    def visit_instr(instr: Instr, block_id: int) -> None:
        if isinstance(instr, Phi):
            visit_phi(instr, block_id)
            return
        if isinstance(instr, BinOp):
            identity = _same_operand_identity(instr)
            if identity is not None:
                folded: LatticeValue = identity
            else:
                folded = _fold(
                    instr.op,
                    "bin",
                    [
                        _operand_value(instr.left, values),
                        _operand_value(instr.right, values),
                    ],
                )
            set_value(dest_key(instr), _demote_real(instr, folded))
        elif isinstance(instr, UnOp):
            folded = _fold(instr.op, "un", [_operand_value(instr.operand, values)])
            set_value(dest_key(instr), _demote_real(instr, folded))
        elif isinstance(instr, IntrinsicOp):
            if instr.name == "real":
                set_value(dest_key(instr), BOTTOM)
            else:
                folded = _fold(
                    instr.name,
                    "intrinsic",
                    [_operand_value(a, values) for a in instr.args],
                )
                set_value(dest_key(instr), _demote_real(instr, folded))
        elif isinstance(instr, Copy):
            set_value(dest_key(instr), _operand_value(instr.src, values))
        elif isinstance(instr, (Convert, LoadArr, ReadVar, CallKill)):
            key = dest_key(instr)
            if key is not None:
                set_value(key, BOTTOM)
        elif isinstance(instr, Call):
            key = dest_key(instr)
            if key is not None:
                set_value(key, BOTTOM)
        elif isinstance(instr, Jump):
            add_edge(block_id, instr.target)
        elif isinstance(instr, CJump):
            cond = _operand_value(instr.cond, values)
            if cond is TOP:
                return
            if cond is BOTTOM:
                add_edge(block_id, instr.if_true)
                add_edge(block_id, instr.if_false)
            elif cond:
                add_edge(block_id, instr.if_true)
            else:
                add_edge(block_id, instr.if_false)

    def add_edge(src: int, dst: int) -> None:
        if (src, dst) not in result.executable_edges:
            flow_list.append((src, dst))

    while flow_list or ssa_list:
        while flow_list:
            edge = flow_list.pop()
            if edge in result.executable_edges:
                continue
            result.executable_edges.add(edge)
            block_id = edge[1]
            block = cfg.blocks[block_id]
            for phi in block.phis():
                visit_phi(phi, block_id)
            if block_id not in visited_blocks:
                visited_blocks.add(block_id)
                result.executable_blocks.add(block_id)
                for instr in block.non_phi_instrs():
                    visit_instr(instr, block_id)
            else:
                # Re-triggering an already-visited block only re-runs its
                # terminator (phis were handled above).
                terminator = block.terminator
                if terminator is not None:
                    visit_instr(terminator, block_id)
        while ssa_list:
            key = ssa_list.pop()
            for use_block, use_instr in uses.get(key, ()):
                if use_block in result.executable_blocks:
                    visit_instr(use_instr, use_block)

    return result


_SAME_OPERAND_RESULTS = {
    "-": 0,
    "==": True,
    "<=": True,
    ">=": True,
    "/=": False,
    "<": False,
    ">": False,
}


def _same_operand_identity(instr: BinOp) -> LatticeValue | None:
    """Fold ``x op x`` where both operands are the *same* SSA value —
    identities the symbolic value numbering also applies, kept here so
    SCCP is never less precise than it."""
    if instr.op not in _SAME_OPERAND_RESULTS:
        return None
    left, right = instr.left, instr.right
    same = False
    if isinstance(left, SSAName) and isinstance(right, SSAName):
        same = left.symbol is right.symbol and left.version == right.version
    elif isinstance(left, Temp) and isinstance(right, Temp):
        same = left == right
    if not same:
        return None
    if _is_real_operand(left):
        return None  # NaN-style caveats: leave REALs alone
    return _SAME_OPERAND_RESULTS[instr.op]


def _is_real_operand(operand) -> bool:
    if isinstance(operand, SSAName):
        return operand.symbol.type not in (Type.INTEGER, Type.LOGICAL)
    if isinstance(operand, Temp):
        return operand.type not in (Type.INTEGER, Type.LOGICAL)
    return False


def _demote_real(instr, folded: LatticeValue) -> LatticeValue:
    """REAL-typed destinations never hold lattice constants."""
    dest = instr.dest
    dest_type = dest.symbol.type if isinstance(dest, VarDef) else dest.type
    if dest_type not in (Type.INTEGER, Type.LOGICAL) and folded is not TOP:
        return BOTTOM
    return folded
