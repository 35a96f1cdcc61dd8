"""Return jump function generation (§3.2, stage 1 of the analyzer).

A bottom-up walk over the call graph's SCC condensation. For each
procedure, SSA + value numbering produce, for every formal, every scalar
global, and (for functions) the result variable, a symbolic expression for
its value at procedure return, in terms of the procedure's *entry* values
— the polynomial return jump function.

Value numbering consults the return jump functions of already-processed
callees, so constants discovered deep in the call graph surface through
chains of returns in one pass (this is what makes ``ocean``-style
initialization routines work). Procedures on call-graph cycles see missing
summaries for their SCC-mates, which degrade to ⊥ — the 1993
implementation's behaviour for not-yet-analyzed routines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ssa import SSAProcedure, build_ssa
from repro.analysis.valuenum import RESULT_KEY, ValueNumbering, value_number
from repro.callgraph.graph import CallGraph
from repro.callgraph.modref import ModRefInfo, make_call_effects
from repro.core.config import AnalysisConfig
from repro.core.exprs import INTERN_TABLE, EntryExpr, ValueExpr
from repro.frontend.astnodes import Type
from repro.frontend.symbols import SymbolKind
from repro.ir.lower import LoweredProgram

#: proc name -> (formal name | GlobalId | RESULT_KEY) -> ValueExpr.
ReturnTable = dict[str, dict[object, ValueExpr]]


@dataclass
class ReturnFunctionResult:
    """The return jump function table plus per-procedure build artifacts."""

    table: ReturnTable = field(default_factory=dict)
    ssas: dict[str, SSAProcedure] = field(default_factory=dict)
    numberings: dict[str, ValueNumbering] = field(default_factory=dict)

    def function(self, proc: str, key) -> ValueExpr | None:
        return self.table.get(proc, {}).get(key)

    def count_nontrivial(self) -> int:
        """Return jump functions that are not the identity and not ⊥ —
        a rough measure of how much the stage discovered."""
        count = 0
        for proc_table in self.table.values():
            for key, expr in proc_table.items():
                if expr.is_bottom:
                    continue
                if isinstance(expr, EntryExpr) and expr.key == key:
                    continue
                count += 1
        return count


def numbering_key(use_return_jump_functions: bool, compose: bool) -> tuple:
    """Key of a stage-2 value numbering in ``SSAProcedure.numberings``.

    Over one SSA form, the numbering stage 2 needs depends only on
    whether return jump functions are on and how they are applied; the
    intern generation keeps numberings built before a
    ``clear_intern_table()`` from mixing with new expressions.
    """
    return (use_return_jump_functions, compose, INTERN_TABLE.generation)


def build_return_jump_functions(
    lowered: LoweredProgram,
    graph: CallGraph,
    modref: ModRefInfo,
    config: AnalysisConfig,
    ssa_cache=None,
) -> ReturnFunctionResult:
    """Stage 1: the bottom-up pass of §4.1.

    With ``config.use_return_jump_functions`` false, returns an empty
    table (Table 2's "No Return Jump Functions" columns) — calls then
    simply kill whatever MOD says they may modify.

    ``ssa_cache`` (a :class:`repro.core.driver.SSACache`) shares SSA forms
    with stage 2 and with other configurations, and memoizes the whole
    result: stage 1 reads only ``use_mod`` and
    ``compose_return_functions``, so every jump-function kind shares one
    build. Without a cache each procedure is converted here from scratch.

    A procedure outside every call-graph cycle is numbered against final
    callee summaries, so its numbering is also the one stage 2 needs; it
    is left in the SSA form's ``numberings`` memo for stage 2 to reuse.
    """
    result = ReturnFunctionResult()
    if not config.use_return_jump_functions:
        return result
    compose = config.compose_return_functions
    memo_key = (config.use_mod, compose, INTERN_TABLE.generation)
    if ssa_cache is not None:
        cached = ssa_cache.returns.get(memo_key)
        if cached is not None:
            return cached

    active_modref = modref if config.use_mod else None
    final_key = numbering_key(True, compose)
    for scc in graph.bottom_up_sccs():
        on_cycle = len(scc) > 1 or scc[0] in graph.callees(scc[0])
        for name in scc:
            lowered_proc = lowered.procedures[name]
            if ssa_cache is not None:
                ssa = ssa_cache.get(name, config.use_mod)
            else:
                effects = make_call_effects(lowered, name, active_modref)
                ssa = build_ssa(lowered_proc, effects)
            numbering = value_number(ssa, lowered, result.table, compose)
            if not on_cycle:
                ssa.numberings[final_key] = numbering
            result.ssas[name] = ssa
            result.numberings[name] = numbering
            result.table[name] = _extract_functions(lowered_proc, numbering)
    if ssa_cache is not None:
        ssa_cache.returns[memo_key] = result
    return result


def _extract_functions(lowered_proc, numbering: ValueNumbering) -> dict[object, ValueExpr]:
    """Exit-value expressions for everything a caller could observe."""
    functions: dict[object, ValueExpr] = {}
    procedure = lowered_proc.procedure
    for symbol in numbering.ssa.variables:
        if symbol.type not in (Type.INTEGER, Type.LOGICAL):
            continue
        expr = numbering.exit_expr(symbol)
        if expr.is_bottom:
            continue
        if symbol.kind is SymbolKind.FORMAL:
            functions[symbol.name] = expr
        elif symbol.kind is SymbolKind.GLOBAL:
            functions[symbol.global_id] = expr
        elif symbol.kind is SymbolKind.RESULT:
            functions[RESULT_KEY] = expr
    return functions
