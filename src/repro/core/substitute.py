"""Recording the results (stage 4, §4.1): constant substitution.

The paper's measurement — following Metzger and Stroud — is the number of
constants the analyzer substitutes into the program: constants that are
both *known* and *relevant* (referenced in the procedure). We make that
operational:

1. Seed SCCP over each procedure with its CONSTANTS(p) entry environment.
   The references it yields depend only on the SSA form and that
   environment, so they are memoized on the form: configurations that
   reach the same CONSTANTS(p) share one SCCP run.
2. Every source-level variable reference whose SSA name SCCP proves
   constant is a substitution site (it carries the source span the IR
   preserved from parsing).
3. The headline count is the number of *(procedure, variable)* pairs with
   at least one substituted reference — the measure that "factors out
   procedure length and modularity". Reference counts and the subset of
   references replaced directly by interprocedural entry values are
   reported alongside.

The same spans drive :func:`transform_source`, the paper's optional
transformed-source output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sccp import SCCPResult, run_sccp
from repro.analysis.ssa import SSAProcedure
from repro.analysis.valuenum import entry_key_of
from repro.core.lattice import BOTTOM, TOP, LatticeValue, is_constant
from repro.core.solver import SolveResult
from repro.frontend.source import SourceSpan
from repro.frontend.symbols import Symbol
from repro.ir.instructions import Phi, SSAName

#: one substituted reference: (span, constant value, symbol).
Reference = tuple[SourceSpan, LatticeValue, Symbol]


@dataclass
class ProcedureSubstitutions:
    """Substitution facts for one procedure."""

    proc: str
    #: every substituted reference.
    references: list[Reference] = field(default_factory=list)
    #: the subset whose SSA name is the entry value of a CONSTANTS(p) key.
    entry_references: list[Reference] = field(default_factory=list)
    #: |CONSTANTS(p)| — every (key, value) pair the solver proved.
    known_constants: int = 0
    #: CONSTANTS(p) keys with no substituted entry reference — "known but
    #: irrelevant" (Metzger–Stroud, discussed in §4.1): typically COMMON
    #: constants a procedure can see but never reads.
    irrelevant_keys: list = field(default_factory=list)

    @property
    def substituted_symbols(self) -> set[Symbol]:
        return {symbol for _, _, symbol in self.references}

    @property
    def entry_symbols(self) -> set[Symbol]:
        return {symbol for _, _, symbol in self.entry_references}

    @property
    def pair_count(self) -> int:
        return len(self.substituted_symbols)

    @property
    def reference_count(self) -> int:
        return len(self.references)


@dataclass
class SubstitutionReport:
    """Whole-program substitution summary — the numbers in Tables 2–3."""

    per_procedure: dict[str, ProcedureSubstitutions] = field(default_factory=dict)

    @property
    def pairs(self) -> int:
        """(procedure, variable) pairs substituted — the headline metric."""
        return sum(p.pair_count for p in self.per_procedure.values())

    @property
    def references(self) -> int:
        """Total source references replaced by constants."""
        return sum(p.reference_count for p in self.per_procedure.values())

    @property
    def interprocedural_pairs(self) -> int:
        """Pairs substituted directly from interprocedural entry values."""
        return sum(len(p.entry_symbols) for p in self.per_procedure.values())

    @property
    def interprocedural_references(self) -> int:
        return sum(len(p.entry_references) for p in self.per_procedure.values())

    @property
    def known_constants(self) -> int:
        """Σ |CONSTANTS(p)| — what a naive count would report."""
        return sum(p.known_constants for p in self.per_procedure.values())

    @property
    def irrelevant_constants(self) -> int:
        """Known-but-unreferenced pairs (excluded from the headline count,
        per Metzger and Stroud's argument that only substituted constants
        measure code improvement)."""
        return sum(len(p.irrelevant_keys) for p in self.per_procedure.values())

    def replacements(self) -> list[tuple[SourceSpan, LatticeValue]]:
        found = []
        for proc_subs in self.per_procedure.values():
            for span, value, _ in proc_subs.references:
                found.append((span, value))
        return found


def compute_substitutions(
    forward,
    solved: SolveResult,
    include_procs: set[str] | None = None,
) -> SubstitutionReport:
    """Run seeded SCCP per procedure and collect substitution sites.

    ``forward`` is the stage-2 :class:`ForwardFunctions` (its SSA forms are
    reused); ``include_procs`` defaults to the procedures reached from the
    main program (never-called procedures contribute nothing, matching the
    paper's ⊤ convention).
    """
    report = SubstitutionReport()
    procs = include_procs if include_procs is not None else solved.reached
    for name in sorted(procs):
        ssa = forward.ssas.get(name)
        if ssa is None:
            continue
        val_env = solved.val.get(name, {})
        entry_env: dict[Symbol, LatticeValue] = {}
        for symbol in ssa.variables:
            key = entry_key_of(symbol)
            if key is None:
                continue
            value = val_env.get(key, BOTTOM)
            entry_env[symbol] = BOTTOM if value is TOP else value
        # Type-tagged, so an INTEGER 1 never shares a run with .true.;
        # absent symbols are ⊥, exactly as run_sccp reads them.
        env_key = tuple(
            (symbol, type(value), value)
            for symbol, value in entry_env.items()
            if value is not BOTTOM
        )
        sites = ssa.references.get(env_key)
        if sites is None:
            sites = _reference_sites(ssa, run_sccp(ssa, entry_env))
            ssa.references[env_key] = sites
        references, entry_candidates = sites
        constants = solved.constants(name)
        proc_subs = ProcedureSubstitutions(proc=name)
        proc_subs.references = list(references)
        proc_subs.entry_references = [
            record
            for record in entry_candidates
            if entry_key_of(record[2]) in constants
        ]
        proc_subs.known_constants = len(constants)
        referenced_keys = {
            entry_key_of(symbol) for symbol in proc_subs.entry_symbols
        }
        proc_subs.irrelevant_keys = [
            key for key in constants if key not in referenced_keys
        ]
        report.per_procedure[name] = proc_subs
    return report


def _reference_sites(
    ssa: SSAProcedure, sccp: SCCPResult
) -> tuple[tuple[Reference, ...], tuple[Reference, ...]]:
    """Every source reference ``sccp`` proves constant, in program order
    and one per span, plus the subset that reads an entry (version-0)
    value."""
    references: list[Reference] = []
    entry_candidates: list[Reference] = []
    seen_spans: set[tuple[int, int]] = set()
    for block, instr in ssa.cfg.instructions():
        if block.id not in sccp.executable_blocks:
            continue
        if isinstance(instr, Phi):
            continue  # phi inputs are not source references
        for operand in instr.uses():
            if not isinstance(operand, SSAName):
                continue
            span = operand.span
            if span.start.offset == span.end.offset:
                continue  # synthesized use, no source text
            value = sccp.value_of(operand)
            if not is_constant(value):
                continue
            span_key = span.text_range
            if span_key in seen_spans:
                continue
            seen_spans.add(span_key)
            record = (span, value, operand.symbol)
            references.append(record)
            if operand.version == 0:
                entry_candidates.append(record)
    return tuple(references), tuple(entry_candidates)


def format_constant(value: LatticeValue) -> str:
    """Source spelling of a lattice constant."""
    if isinstance(value, bool):
        return ".true." if value else ".false."
    return str(value)


def transform_source(source: str, report: SubstitutionReport) -> str:
    """Splice the substituted constants into the program text —
    the paper's optional transformed-source output."""
    replacements = sorted(
        report.replacements(), key=lambda pair: pair[0].start.offset, reverse=True
    )
    text = source
    for span, value in replacements:
        start, end = span.text_range
        text = text[:start] + format_constant(value) + text[end:]
    return text
