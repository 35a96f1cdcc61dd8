"""Forward jump function generation (stage 2 of the analyzer, §4.1).

For every call site, project the value-numbering expression of each actual
parameter — and of each implicitly passed global — onto the configured
jump-function kind. The stage-1 return jump functions feed the value
numbering, so constants surviving earlier calls are visible here (this is
the "second evaluation" of each return jump function the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ssa import SSAProcedure, build_ssa
from repro.analysis.valuenum import ValueNumbering, value_number
from repro.callgraph.modref import ModRefInfo, make_call_effects
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.engine import SupportIndex, build_support_index
from repro.core.jump_functions import CallSiteFunctions, project
from repro.core.returns import ReturnFunctionResult, numbering_key
from repro.frontend.astnodes import Type
from repro.frontend.symbols import SymbolKind
from repro.ir.instructions import ArgumentKind, Const
from repro.ir.lower import LoweredProgram


@dataclass
class ForwardFunctions:
    """Stage-2 output: jump functions per site, plus the analysis
    artifacts later stages reuse (SSA form, value numbering, and the
    support-dependency index the sparse solvers run on)."""

    sites: dict[int, CallSiteFunctions] = field(default_factory=dict)
    ssas: dict[str, SSAProcedure] = field(default_factory=dict)
    numberings: dict[str, ValueNumbering] = field(default_factory=dict)
    #: precomputed by :func:`build_forward_jump_functions`; built lazily
    #: for hand-assembled site tables (tests).
    index: SupportIndex | None = None

    def site(self, site_id: int) -> CallSiteFunctions:
        return self.sites[site_id]

    def support_index(self, lowered: LoweredProgram) -> SupportIndex:
        """The reverse dependency index over these jump functions."""
        if self.index is None:
            self.index = build_support_index(lowered, self.sites)
        return self.index

    def total_cost(self) -> int:
        return sum(site.total_cost() for site in self.sites.values())


def build_forward_jump_functions(
    lowered: LoweredProgram,
    modref: ModRefInfo,
    returns: ReturnFunctionResult,
    config: AnalysisConfig,
    ssa_cache=None,
) -> ForwardFunctions:
    """Stage 2: construct every call site's forward jump functions.

    ``ssa_cache`` (a :class:`repro.core.driver.SSACache`) reuses the SSA
    forms stage 1 built — SSA depends only on MOD information, not on the
    jump-function kind — and with them each form's memoized numberings:
    the numbering depends on the return-JF table, which is fixed by
    ``use_mod`` and the two return-JF switches, never on the kind.
    """
    result = ForwardFunctions()
    active_modref = modref if config.use_mod else None
    rjf_table = returns.table if config.use_return_jump_functions else {}
    key = numbering_key(
        config.use_return_jump_functions, config.compose_return_functions
    )

    scalar_globals = {
        gid: gvar
        for gid, gvar in lowered.program.globals.items()
        if not gvar.is_array and gvar.type in (Type.INTEGER, Type.LOGICAL)
    }

    for name, lowered_proc in lowered.procedures.items():
        if ssa_cache is not None:
            ssa = ssa_cache.get(name, config.use_mod)
        else:
            effects = make_call_effects(lowered, name, active_modref)
            ssa = build_ssa(lowered_proc, effects)
        numbering = ssa.numberings.get(key)
        if numbering is None:
            numbering = value_number(
                ssa, lowered, rjf_table, config.compose_return_functions
            )
            ssa.numberings[key] = numbering
        result.ssas[name] = ssa
        result.numberings[name] = numbering

        global_symbols = {
            s.global_id: s
            for s in ssa.variables
            if s.kind is SymbolKind.GLOBAL and s.global_id in scalar_globals
        }

        for call in ssa.calls():
            site = CallSiteFunctions(
                site_id=call.site_id, caller=name, callee=call.callee
            )
            callee = lowered.procedures[call.callee].procedure
            for formal, arg in zip(callee.formals, call.args):
                if formal.is_array:
                    continue  # arrays carry no lattice value
                if formal.type not in (Type.INTEGER, Type.LOGICAL):
                    continue
                expr = numbering.argument_expr(arg)
                is_literal = (
                    arg.kind is ArgumentKind.VALUE
                    and isinstance(arg.value, Const)
                    and arg.value.type in (Type.INTEGER, Type.LOGICAL)
                )
                site.formals[formal.name] = project(
                    expr, config.jump_function, is_literal_actual=is_literal
                )
            for gid, symbol in global_symbols.items():
                expr = numbering.global_expr_at(call, symbol)
                site.globals[gid] = project(
                    expr, config.jump_function, is_global=True
                )
            result.sites[call.site_id] = site
    # Precompute the support-dependency index here, in stage 2, so the
    # sparse solvers only pay for propagation (and repeated solves over
    # one ForwardFunctions share the index).
    result.support_index(lowered)
    return result
