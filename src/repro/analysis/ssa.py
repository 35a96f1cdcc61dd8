"""SSA construction (Cytron et al.) over a copied CFG.

Responsibilities:

- :func:`ensure_global_symbols` — give every procedure a (possibly hidden)
  symbol for every scalar COMMON member in the program, so values that
  merely *flow through* a procedure are still tracked (the paper's
  pass-through of implicitly-passed globals).
- :func:`instrument_call_kills` — insert :class:`~repro.ir.instructions.CallKill`
  pseudo-definitions after each call for every scalar the call may modify,
  as dictated by MOD information (or everything visible, when running the
  paper's "no MOD" ablation).
- :func:`build_ssa` — copy the CFG, place phis at iterated dominance
  frontiers, rename, and record the entry (version-0) and exit versions of
  every scalar. Version 0 of a formal or global *is* its value on entry —
  the quantity interprocedural constant propagation approximates.

The original :class:`~repro.ir.lower.LoweredProcedure` is never mutated;
every analysis works on its own SSA copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable

from repro.analysis.dominance import DominatorTree, compute_dominators, iterated_frontier
from repro.frontend.astnodes import Type
from repro.frontend.symbols import GlobalId, Symbol, SymbolKind
from repro.ir.cfg import BasicBlock, ControlFlowGraph
from repro.ir.instructions import (
    Argument,
    Call,
    CallKill,
    Instr,
    Operand,
    Phi,
    SSAName,
    Temp,
    VarDef,
    VarUse,
)
from repro.ir.lower import LoweredProcedure, LoweredProgram

if TYPE_CHECKING:  # valuenum imports this module
    from repro.analysis.valuenum import ValueNumbering

#: Maps a Call to the scalars it may modify: list of (symbol, binding).
CallEffects = Callable[[Call], list[tuple[Symbol, tuple[str, object]]]]


def no_call_effects(_call: Call) -> list[tuple[Symbol, tuple[str, object]]]:
    """Effects function for code with no interprocedural information needs."""
    return []


def ensure_global_symbols(lowered: LoweredProgram) -> None:
    """Add hidden symbols for scalar globals a procedure does not declare.

    COMMON storage exists program-wide: if ``p`` calls ``q`` and both are
    called from code that sees ``/blk/``, values flow through ``p`` even
    when ``p`` never mentions the block. A hidden symbol gives the analyses
    something to version and kill. Idempotent.
    """
    for lowered_proc in lowered.procedures.values():
        symtab = lowered_proc.procedure.symtab
        present = {
            s.global_id for s in symtab if s.global_id is not None
        }
        for gid, gvar in lowered.program.globals.items():
            if gvar.is_array or gid in present:
                continue
            name = f"$g${gid.block}${gid.offset}"
            if name in symtab:
                continue
            symtab.define(
                Symbol(
                    name=name,
                    kind=SymbolKind.GLOBAL,
                    type=gvar.type,
                    global_id=gid,
                    data_value=gvar.data_value,
                    hidden=True,
                )
            )


def copy_cfg(cfg: ControlFlowGraph) -> ControlFlowGraph:
    """Structurally clone a CFG for SSA construction to rewrite.

    Blocks and instructions are new objects, and so is every mutable part
    renaming or later passes may touch: the ``instrs``/``preds`` lists,
    every list-valued operand field, each call :class:`Argument`, and
    phi ``incoming`` maps. Operands, spans and symbols are frozen or
    identity objects, so the clone shares them with the original.
    """
    clone = ControlFlowGraph()
    clone.entry_id = cfg.entry_id
    clone.exit_id = cfg.exit_id
    clone._next_id = cfg._next_id
    calls: dict[int, Call] = {}
    for block_id, block in cfg.blocks.items():
        clone.blocks[block_id] = BasicBlock(
            block_id,
            [_clone_instr(instr, calls) for instr in block.instrs],
            list(block.preds),
        )
    return clone


#: instruction class -> the names of all its dataclass fields.
_INSTR_FIELDS: dict[type, tuple[str, ...]] = {}


def _clone_instr(instr: Instr, calls: dict[int, Call]) -> Instr:
    """A field-by-field copy of ``instr`` with fresh mutable containers.

    ``calls`` maps already-cloned calls (by id of the original) to their
    clones, so a :class:`CallKill` keeps pointing at the call before it.
    """
    cls = type(instr)
    names = _INSTR_FIELDS.get(cls)
    if names is None:
        names = _INSTR_FIELDS[cls] = tuple(f.name for f in fields(cls))
    clone = cls.__new__(cls)
    for name in names:
        value = getattr(instr, name)
        kind = type(value)
        if kind is list:
            value = [
                _clone_argument(item) if type(item) is Argument else item
                for item in value
            ]
        elif kind is dict:
            value = dict(value)
        elif kind is Call:
            value = calls.get(id(value), value)
        setattr(clone, name, value)
    if cls is Call:
        calls[id(instr)] = clone
    return clone


def _clone_argument(arg: Argument) -> Argument:
    return Argument(arg.kind, arg.value, arg.symbol, list(arg.indices), arg.span)


def instrument_call_kills(cfg: ControlFlowGraph, effects: CallEffects) -> None:
    """Insert CallKill pseudo-defs after every call, per ``effects``."""
    for block in cfg.blocks.values():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            new_instrs.append(instr)
            if isinstance(instr, Call):
                for symbol, binding in effects(instr):
                    new_instrs.append(
                        CallKill(target=VarDef(symbol), call=instr, binding=binding)
                    )
        block.instrs = new_instrs


@dataclass
class SSAProcedure:
    """A procedure in SSA form plus renaming metadata."""

    lowered: LoweredProcedure
    cfg: ControlFlowGraph
    domtree: DominatorTree
    variables: list[Symbol]
    exit_versions: dict[Symbol, int] = field(default_factory=dict)
    exit_reachable: bool = True
    #: site_id -> {global symbol -> version current just before the call}.
    call_versions: dict[int, dict[Symbol, int]] = field(default_factory=dict)
    # Memos of results that depend on this SSA form plus a small key; they
    # live exactly as long as the form does (an ``SSACache`` entry).
    #: (use return JFs, compose, intern generation) -> stage-2 numbering.
    numberings: dict[tuple, ValueNumbering] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: type-tagged entry environment -> the seeded-SCCP substitution
    #: references ``record`` derives from it (see ``core.substitute``).
    references: dict[tuple, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    _uses: dict | None = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.lowered.name

    def entry_name(self, symbol: Symbol) -> SSAName:
        """Version 0 — the value of ``symbol`` on procedure entry."""
        return SSAName(symbol, 0)

    def calls(self) -> list[Call]:
        return [i for _, i in self.cfg.instructions() if isinstance(i, Call)]

    def definitions(self) -> dict[object, tuple[int, Instr]]:
        """Map each defined SSAName/Temp to its (block id, instruction)."""
        defs: dict[object, tuple[int, Instr]] = {}
        for block, instr in self.cfg.instructions():
            dest = instr.dest
            if isinstance(dest, Temp):
                defs[dest] = (block.id, instr)
            elif isinstance(dest, VarDef):
                defs[SSAName(dest.symbol, dest.version or 0)] = (block.id, instr)
        return defs

    def uses(self) -> dict[object, tuple[tuple[int, Instr], ...]]:
        """Map each SSAName/Temp to the (block id, instruction) pairs that
        use it.

        Built once per SSA form and kept compact (one pair per
        instruction, tuples not lists), because it lives as long as the
        form; callers must not mutate the result."""
        if self._uses is None:
            found: dict[object, list[tuple[int, Instr]]] = {}
            for block, instr in self.cfg.instructions():
                site = (block.id, instr)
                for operand in instr.uses():
                    if isinstance(operand, Temp):
                        found.setdefault(operand, []).append(site)
                    elif isinstance(operand, SSAName):
                        key = SSAName(operand.symbol, operand.version)
                        found.setdefault(key, []).append(site)
            self._uses = {key: tuple(sites) for key, sites in found.items()}
        return self._uses

    def entry_use_spans(self, symbol: Symbol) -> list:
        """Source spans of uses of ``symbol``'s entry value.

        These are exactly the references the paper's analyzer substitutes
        when the entry value turns out constant. Spans of synthesized uses
        (length 0) are excluded.
        """
        spans = []
        for _, instr in self.cfg.instructions():
            if isinstance(instr, Phi):
                continue  # phis are not source references
            for operand in instr.uses():
                if (
                    isinstance(operand, SSAName)
                    and operand.symbol is symbol
                    and operand.version == 0
                    and operand.span.start.offset != operand.span.end.offset
                ):
                    spans.append(operand.span)
        return spans


def build_ssa(
    lowered_proc: LoweredProcedure,
    effects: CallEffects = no_call_effects,
) -> SSAProcedure:
    """Copy, instrument, and convert one procedure to SSA form."""
    cfg = copy_cfg(lowered_proc.cfg)
    instrument_call_kills(cfg, effects)
    cfg.refresh()
    variables = [
        s
        for s in lowered_proc.procedure.symtab
        if not s.is_array and s.kind is not SymbolKind.NAMED_CONST
    ]
    domtree = compute_dominators(cfg)
    reachable = set(domtree.idom)
    _place_phis(cfg, domtree, variables, reachable)
    exit_versions, exit_reachable, call_versions = _rename(cfg, domtree, variables)
    return SSAProcedure(
        lowered=lowered_proc,
        cfg=cfg,
        domtree=domtree,
        variables=variables,
        exit_versions=exit_versions,
        exit_reachable=exit_reachable,
        call_versions=call_versions,
    )


def _place_phis(
    cfg: ControlFlowGraph,
    domtree: DominatorTree,
    variables: list[Symbol],
    reachable: set[int],
) -> None:
    def_blocks: dict[Symbol, set[int]] = {s: {cfg.entry_id} for s in variables}
    for block, instr in cfg.instructions():
        if block.id not in reachable:
            continue
        dest = instr.dest
        if isinstance(dest, VarDef) and dest.symbol in def_blocks:
            def_blocks[dest.symbol].add(block.id)
    for symbol in variables:
        blocks = def_blocks[symbol]
        if len(blocks) == 1:
            continue
        for join_id in iterated_frontier(domtree, blocks):
            join = cfg.blocks[join_id]
            join.instrs.insert(0, Phi(result=VarDef(symbol)))


def _rename(
    cfg: ControlFlowGraph,
    domtree: DominatorTree,
    variables: list[Symbol],
) -> tuple[dict[Symbol, int], bool, dict[int, dict[Symbol, int]]]:
    stacks: dict[Symbol, list[int]] = {s: [0] for s in variables}
    counters: dict[Symbol, int] = {s: 0 for s in variables}
    tracked = set(variables)
    global_symbols = [s for s in variables if s.kind is SymbolKind.GLOBAL]
    exit_versions: dict[Symbol, int] = {}
    call_versions: dict[int, dict[Symbol, int]] = {}
    exit_seen = False

    def current(symbol: Symbol) -> int:
        return stacks[symbol][-1]

    def fresh(symbol: Symbol) -> int:
        counters[symbol] += 1
        stacks[symbol].append(counters[symbol])
        return counters[symbol]

    def rewrite_use(operand: Operand) -> Operand:
        if isinstance(operand, VarUse) and operand.symbol in tracked:
            return SSAName(operand.symbol, current(operand.symbol), operand.span)
        return operand

    # Iterative dominator-tree walk with explicit enter/leave events.
    work: list[tuple[str, int]] = [("enter", cfg.entry_id)]
    pushed_per_block: dict[int, list[Symbol]] = {}
    while work:
        action, block_id = work.pop()
        if action == "leave":
            for symbol in pushed_per_block.pop(block_id, ()):
                stacks[symbol].pop()
            continue
        block = cfg.blocks[block_id]
        pushed: list[Symbol] = []
        for instr in block.instrs:
            if not isinstance(instr, Phi):
                instr.replace_uses(rewrite_use)
            if isinstance(instr, Call):
                # Snapshot pre-call global versions: forward jump functions
                # for implicitly-passed globals read the value *before* the
                # call's own kills take effect.
                call_versions[instr.site_id] = {
                    s: current(s) for s in global_symbols
                }
            dest = instr.dest
            if isinstance(dest, VarDef) and dest.symbol in tracked:
                version = fresh(dest.symbol)
                instr.set_dest(VarDef(dest.symbol, dest.span, version))
                pushed.append(dest.symbol)
        if block_id == cfg.exit_id:
            exit_seen = True
            for symbol in variables:
                exit_versions[symbol] = current(symbol)
        for succ_id in block.successors():
            succ = cfg.blocks[succ_id]
            for phi in succ.phis():
                dest = phi.dest
                assert isinstance(dest, VarDef)
                phi.incoming[block_id] = SSAName(dest.symbol, current(dest.symbol))
        pushed_per_block[block_id] = pushed
        work.append(("leave", block_id))
        for child in sorted(domtree.children.get(block_id, ()), reverse=True):
            work.append(("enter", child))

    if not exit_seen:
        return {}, False, call_versions
    return exit_versions, True, call_versions
