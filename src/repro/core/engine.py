"""Sparse delta-driven propagation engine — the shared stage-3 core.

Both stage-3 solvers (:func:`repro.core.solver.solve` at procedure
granularity, :func:`repro.core.binding_solver.solve_binding_graph` at
binding granularity) drive the same machinery:

- a :class:`SupportIndex`, precomputed by the stage-2 builder, that maps
  each caller entry key to the ``(site, callee key)`` jump-function
  bindings whose ``support()`` reads it — the reverse of the paper's §2
  support sets, in the spirit of Wegman–Zadeck SSA-edge-driven SCCP;
- a :class:`DeltaEngine` that seeds each procedure's call sites exactly
  once when the procedure is first reached, then re-evaluates a jump
  function only when one of its support keys actually *lowered* (a
  "delta"), memoizing evaluations by interned-expression identity plus
  the expression's support-slice of the environment.

The §3.1.5 cost model charges a propagation pass the sum of the
evaluated jump functions' costs; the delta discipline makes the engine's
``evaluations`` counter track that quantity instead of the dense
re-evaluate-everything upper bound. ⊥ jump functions contribute their
one ⊥ meet without ever being evaluated, and a binding that has already
fallen to ⊥ is never evaluated into again (both counted under
``bottom_skips``); callee keys no site binds are killed once at seed
time (counted under ``skipped``, not ``evaluations``).

The engine mutates a VAL mapping in place and reports through any object
carrying the counter attributes listed in :data:`ENGINE_COUNTERS`
(:class:`repro.core.solver.SolveResult` does). Because every evaluation
is a monotone function of the caller environment and every lowering is
re-propagated, any drain order reaches the same greatest fixpoint as the
dense reference solver — the suite cross-checks bit-identical VAL sets.

This module is the *object* engine: boxed lattice values in dicts keyed
by entry keys, :class:`BindingEdge` instances in dict-of-tuples. It
stays the semantic reference (and the only engine sanitizers and warm
starts run on). :mod:`repro.core.slab` flattens the same
:class:`SupportIndex` into integer-coded arrays for large corpora;
``build_slab`` consumes the ``seeds``/``kills``/``dependents``/
``callees`` structure produced here, so the two engines cannot drift on
which edges exist.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.exprs import (
    INTERN_TABLE,
    ConstExpr,
    EntryExpr,
    EntryKey,
    InternTable,
    ValueExpr,
    compile_expr,
)
from repro.core.jump_functions import CallSiteFunctions
from repro.core.lattice import BOTTOM, TOP, LatticeValue, meet
from repro.frontend.astnodes import Type
from repro.ir.lower import LoweredProgram

#: (procedure, entry key) — one node of the binding multi-graph.
Binding = tuple[str, EntryKey]

#: Counter attributes the engine increments on its stats object.
ENGINE_COUNTERS = (
    "evaluations",
    "meets",
    "deltas",
    "skipped",
    "memo_hits",
    "memo_misses",
    "bottom_skips",
    "kernel_compiles",
    "kernel_hits",
)

_MISSING = object()


def _memo_value(value: LatticeValue) -> tuple:
    """A memo-slice element: the value plus its class, so a LOGICAL
    ``.true.`` never aliases an INTEGER ``1`` (True == 1 in Python)."""
    return (value.__class__, value)


def entry_keys(lowered: LoweredProgram) -> dict[str, list[EntryKey]]:
    """Each procedure's propagated entry keys: scalar INTEGER/LOGICAL
    formals plus every scalar global (paper §2, footnote 1)."""
    scalar_gids = [
        gid
        for gid, gvar in lowered.program.globals.items()
        if not gvar.is_array and gvar.type in (Type.INTEGER, Type.LOGICAL)
    ]
    keys: dict[str, list[EntryKey]] = {}
    for name, lowered_proc in lowered.procedures.items():
        proc_keys: list[EntryKey] = [
            formal.name
            for formal in lowered_proc.procedure.formals
            if not formal.is_array
            and formal.type in (Type.INTEGER, Type.LOGICAL)
        ]
        proc_keys.extend(scalar_gids)
        keys[name] = proc_keys
    return keys


@dataclass(frozen=True, slots=True)
class BindingEdge:
    """One (call site, callee entry key) jump-function binding.

    ``const`` hoists a constant jump function's folded value to index
    construction (stage 2): §3.1.5 charges building such a function, not
    re-deriving its value every pass, so the engine transfers ``const``
    by meet alone — no solve-time evaluation at all. ``None`` means the
    function genuinely reads the environment (or is ⊥).
    """

    site_id: int
    caller: str
    callee: str
    key: EntryKey
    expr: ValueExpr
    #: the expression's support keys in deterministic first-use order —
    #: the environment slice that keys the evaluation memo.
    support: tuple[EntryKey, ...]
    #: folded value for build-time-constant jump functions, else None.
    const: LatticeValue | None


class SupportIndex:
    """The builder-precomputed dependency structure of one configuration's
    forward jump functions.

    ``seeds[p]``
        every binding edge at a call site inside ``p`` (evaluated once
        when ``p`` is first reached).
    ``kills[p]``
        ``(callee, key)`` pairs for callee entry keys some site in ``p``
        binds *no* jump function for — each is met with ⊥ once at seed.
    ``dependents[(p, k)]``
        the edges whose jump-function support reads ``p``'s entry key
        ``k`` — the fan-out of one delta.
    ``callees[p]``
        distinct callees of ``p``'s sites, for reachability.
    """

    __slots__ = ("seeds", "kills", "dependents", "callees")

    def __init__(
        self,
        seeds: dict[str, tuple[BindingEdge, ...]],
        kills: dict[str, tuple[Binding, ...]],
        dependents: dict[Binding, tuple[BindingEdge, ...]],
        callees: dict[str, tuple[str, ...]],
    ):
        self.seeds = seeds
        self.kills = kills
        self.dependents = dependents
        self.callees = callees

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self.seeds.values())


class RegionPartition:
    """The :class:`SupportIndex` split along region boundaries.

    Region-scheduled solves converge one SCC at a time, so a binding
    edge whose callee sits in a *different* region than its caller never
    needs to see an intermediate caller environment: every jump function
    is monotone, and the caller's region is converged before the
    callee's region starts, so evaluating the edge once with the
    caller's *final* environment meets the identical value into the
    callee that repeated intermediate evaluations would have (each
    intermediate result only re-lowers toward the final one). The
    partition therefore routes intra-region edges through the normal
    seed/delta discipline and defers every cross-region edge and kill to
    one :meth:`DeltaEngine.flush_region` call at region end.
    """

    __slots__ = (
        "internal_seeds",
        "external_seeds",
        "internal_kills",
        "external_kills",
        "internal_dependents",
        "region_of",
    )

    def __init__(self, index: SupportIndex, region_of: Mapping[str, int]):
        self.region_of = region_of
        self.internal_seeds: dict[str, tuple[BindingEdge, ...]] = {}
        self.external_seeds: dict[str, tuple[BindingEdge, ...]] = {}
        for proc, edges in index.seeds.items():
            home = region_of[proc]
            internal = tuple(
                edge for edge in edges if region_of[edge.callee] == home
            )
            external = tuple(
                edge for edge in edges if region_of[edge.callee] != home
            )
            if internal:
                self.internal_seeds[proc] = internal
            if external:
                self.external_seeds[proc] = external
        self.internal_kills: dict[str, tuple[Binding, ...]] = {}
        self.external_kills: dict[str, tuple[Binding, ...]] = {}
        for proc, pairs in index.kills.items():
            home = region_of[proc]
            internal = tuple(
                pair for pair in pairs if region_of[pair[0]] == home
            )
            external = tuple(
                pair for pair in pairs if region_of[pair[0]] != home
            )
            if internal:
                self.internal_kills[proc] = internal
            if external:
                self.external_kills[proc] = external
        self.internal_dependents: dict[Binding, tuple[BindingEdge, ...]] = {}
        for binding, edges in index.dependents.items():
            home = region_of[binding[0]]
            internal = tuple(
                edge for edge in edges if region_of[edge.callee] == home
            )
            if internal:
                self.internal_dependents[binding] = internal


def build_support_index(
    lowered: LoweredProgram, sites: Mapping[int, CallSiteFunctions]
) -> SupportIndex:
    """Precompute the support-dependency index for a site table (stage 2)."""
    keys_of = entry_keys(lowered)
    seeds: dict[str, list[BindingEdge]] = defaultdict(list)
    kills: dict[str, list[Binding]] = defaultdict(list)
    dependents: dict[Binding, list[BindingEdge]] = defaultdict(list)
    #: caller -> its callees in first-call order (a dict as ordered set).
    callees: dict[str, dict[str, None]] = defaultdict(dict)

    for site_id, site in sites.items():
        caller, callee = site.caller, site.callee
        callees[caller][callee] = None
        callee_keys = keys_of.get(callee, ())
        callee_key_set = set(callee_keys)
        bound: set[EntryKey] = set()
        for key, function in site.all_functions():
            if key not in callee_key_set:
                continue  # defensive: arrays/REALs carry no lattice value
            bound.add(key)
            expr = function.expr
            const = expr.value if expr.__class__ is ConstExpr else None
            edge = BindingEdge(
                site_id, caller, callee, key, expr,
                function.support_order(), const,
            )
            seeds[caller].append(edge)
            for support_key in edge.support:
                dependents[(caller, support_key)].append(edge)
        for key in callee_keys:
            if key not in bound:
                kills[caller].append((callee, key))

    return SupportIndex(
        {proc: tuple(edges) for proc, edges in seeds.items()},
        {proc: tuple(pairs) for proc, pairs in kills.items()},
        {binding: tuple(edges) for binding, edges in dependents.items()},
        {proc: tuple(names) for proc, names in callees.items()},
    )


class DeltaEngine:
    """Evaluate-and-meet over a :class:`SupportIndex`, with memoization.

    One engine serves one solve: it owns the evaluation memo and mutates
    ``val`` in place. The memo key — ``(generation, id(expr), support
    slice)`` — is sound because expressions are hash-consed (structural
    equality implies identity for smart-constructor-built trees) and
    ``evaluate`` reads nothing outside the support slice; the value class
    rides along in the slice so a LOGICAL ``.true.`` never aliases an
    INTEGER ``1``, and the intern table's generation counter rides along
    so a :func:`repro.core.exprs.clear_intern_table` mid-solve can never
    alias a recycled ``id`` to a stale entry.

    ``compiled=True`` routes polynomial evaluations through
    :func:`repro.core.exprs.compile_expr` closures instead of the
    ``evaluate`` tree walk (value-identical by construction); the engine
    counts top-level kernel cache misses/hits as
    ``kernel_compiles``/``kernel_hits`` on its stats object.

    ``sanitizer`` is the optional lattice-invariant observer (duck-typed
    to :class:`repro.diagnostics.sanitizer.LatticeSanitizer`; the engine
    deliberately does not import it): when attached, every transfer is
    reported through ``observe_transfer(site_id, callee, key, incoming)``
    and every VAL mutation — including seed-time kills — through
    ``observe_update(proc, key, old, new)``. Detached (the default), the
    hooks cost one ``is not None`` test per edge.

    ``budget`` (a :class:`repro.resilience.budgets.SolveBudget`, also
    duck-typed) caps evaluation/meet fuel, checked once per seed or
    delta batch — off the per-edge hot path, so a runaway solve overruns
    its cap by at most one batch before the
    :class:`~repro.resilience.errors.BudgetExhaustedError` fires.
    """

    __slots__ = (
        "_index",
        "_val",
        "_stats",
        "_memo",
        "_sanitizer",
        "_budget",
        "_partition",
        "_seeds",
        "_kills",
        "_dependents",
        "_compiled",
        "_table",
    )

    def __init__(
        self,
        index: SupportIndex,
        val: dict[str, dict[EntryKey, LatticeValue]],
        stats,
        sanitizer=None,
        budget=None,
        partition: RegionPartition | None = None,
        compiled: bool = False,
        table: InternTable | None = None,
    ):
        self._index = index
        self._val = val
        self._stats = stats
        self._memo: dict[tuple, LatticeValue] = {}
        self._sanitizer = sanitizer
        self._budget = budget
        self._partition = partition
        self._compiled = compiled
        self._table = INTERN_TABLE if table is None else table
        # With a partition, seed/delta traffic is intra-region only;
        # cross-region edges wait for flush_region. Without one (the
        # legacy schedule) the full index drives everything.
        if partition is None:
            self._seeds = index.seeds
            self._kills = index.kills
            self._dependents = index.dependents
        else:
            self._seeds = partition.internal_seeds
            self._kills = partition.internal_kills
            self._dependents = partition.internal_dependents

    def callees(self, caller: str) -> tuple[str, ...]:
        return self._index.callees.get(caller, ())

    def seed(self, caller: str) -> dict[str, dict[EntryKey, None]]:
        """First visit of ``caller``: evaluate every jump function at its
        sites once and kill unbound callee keys. Returns the lowered
        callee bindings grouped by callee, each callee's keys distinct
        and in evaluation order (insertion-ordered mappings).

        Every edge of every solve crosses this loop exactly once, so the
        edge transfer is inlined: counters accumulate in locals (flushed
        once at the end) and the ``meet(⊤, x) = x`` identity is applied
        without a call — at seed time nearly every binding still sits at
        ⊤. The delta path (:meth:`apply_deltas`) batches the same inlined
        transfer per callee; it only runs for jump functions whose
        support actually lowered.
        """
        val = self._val
        caller_env = val[caller]
        sanitizer = self._sanitizer
        changed: dict[str, dict[EntryKey, None]] = {}
        evaluations = meets = bottom_skips = 0
        for edge in self._seeds.get(caller, ()):
            callee = edge.callee
            env = val[callee]
            key = edge.key
            old = env[key]
            if old is BOTTOM:
                bottom_skips += 1  # already at the lattice floor
                continue
            incoming = edge.const
            if incoming is None:
                expr = edge.expr
                if expr.__class__ is EntryExpr:
                    # pass-through: the evaluation *is* the env fetch
                    evaluations += 1
                    incoming = caller_env.get(expr.key, BOTTOM)
                elif edge.support:
                    incoming = self._poly_value(expr, edge.support, caller_env)
                else:
                    # support-free and not constant ⇒ ⊥: its one ⊥
                    # contribution, applied without evaluation
                    bottom_skips += 1
                    incoming = BOTTOM
            if sanitizer is not None:
                sanitizer.observe_transfer(edge.site_id, callee, key, incoming)
            meets += 1
            new = incoming if old is TOP else meet(old, incoming)
            if new != old:
                if sanitizer is not None:
                    sanitizer.observe_update(callee, key, old, new)
                env[key] = new
                keys = changed.get(callee)
                if keys is None:
                    keys = changed[callee] = {}
                keys[key] = None
        stats = self._stats
        stats.evaluations += evaluations
        stats.meets += meets
        stats.bottom_skips += bottom_skips
        for callee, key in self._kills.get(caller, ()):
            stats.skipped += 1
            env = val[callee]
            old = env[key]
            if old is BOTTOM:
                continue
            stats.meets += 1
            if sanitizer is not None:
                sanitizer.observe_update(callee, key, old, BOTTOM)
            env[key] = BOTTOM  # meet(old, ⊥) is ⊥ for every old
            keys = changed.get(callee)
            if keys is None:
                keys = changed[callee] = {}
            keys[key] = None
        if self._budget is not None:
            self._budget.check_engine(stats)
        return changed

    def apply_deltas(
        self, proc: str, keys: Iterable[EntryKey]
    ) -> dict[str, dict[EntryKey, None]]:
        """Propagate lowered entry keys of ``proc`` to their dependent
        jump functions. An edge dependent on several keys of the batch is
        evaluated once. Returns the lowered callee bindings grouped by
        callee (same shape as :meth:`seed`).

        The batch is transferred per callee: unique dependent edges are
        grouped by callee (insertion order — deterministic), then each
        callee's environment is fetched once and its edges meet in as an
        array, with counters batched in locals like :meth:`seed`. Within
        a callee the edges keep their discovery order, so the ⊥-floor
        short-circuit fires identically to edge-at-a-time transfer.
        """
        changed: dict[str, dict[EntryKey, None]] = {}
        visited: set[int] = set()
        by_callee: dict[str, list[BindingEdge]] = {}
        dependents = self._dependents
        stats = self._stats
        for key in keys:
            stats.deltas += 1
            for edge in dependents.get((proc, key), ()):
                edge_id = id(edge)
                if edge_id in visited:
                    continue
                visited.add(edge_id)
                group = by_callee.get(edge.callee)
                if group is None:
                    group = by_callee[edge.callee] = []
                group.append(edge)
        if by_callee:
            val = self._val
            caller_env = val[proc]
            sanitizer = self._sanitizer
            evaluations = meets = bottom_skips = 0
            for callee, edges in by_callee.items():
                env = val[callee]
                lowered_keys = changed.get(callee)
                for edge in edges:
                    key = edge.key
                    old = env[key]
                    if old is BOTTOM:
                        bottom_skips += 1  # already at the lattice floor
                        continue
                    incoming = edge.const
                    if incoming is None:
                        expr = edge.expr
                        if expr.__class__ is EntryExpr:
                            # pass-through: the evaluation *is* the fetch
                            evaluations += 1
                            incoming = caller_env.get(expr.key, BOTTOM)
                        elif edge.support:
                            incoming = self._poly_value(
                                expr, edge.support, caller_env
                            )
                        else:
                            # support-free and not constant ⇒ ⊥
                            bottom_skips += 1
                            incoming = BOTTOM
                    if sanitizer is not None:
                        sanitizer.observe_transfer(
                            edge.site_id, callee, key, incoming
                        )
                    meets += 1
                    new = incoming if old is TOP else meet(old, incoming)
                    if new != old:
                        if sanitizer is not None:
                            sanitizer.observe_update(callee, key, old, new)
                        env[key] = new
                        if lowered_keys is None:
                            lowered_keys = changed[callee] = {}
                        lowered_keys[key] = None
            stats.evaluations += evaluations
            stats.meets += meets
            stats.bottom_skips += bottom_skips
        if self._budget is not None:
            self._budget.check_engine(stats)
        return changed

    def flush_region(
        self, caller: str, only: set[str] | None = None
    ) -> dict[str, dict[EntryKey, None]]:
        """Evaluate ``caller``'s cross-region binding edges (and apply
        its cross-region kills) exactly once, with the caller's — by now
        final — environment. Region-scheduled solves call this when the
        caller's region has converged; ``only`` restricts the flush to
        the named callees (the warm-start frontier from a clean caller
        into invalidated regions). Returns lowered callee bindings in
        the same shape as :meth:`seed`. Requires a partition.
        """
        partition = self._partition
        changed: dict[str, dict[EntryKey, None]] = {}
        sanitizer = self._sanitizer
        val = self._val
        caller_env = val[caller]
        # On DAG-shaped call graphs every region is a singleton, so this
        # loop — not seed() — carries nearly all of the propagation;
        # like seed() it inlines the edge transfer and batches counters
        # in locals instead of paying a method call per edge.
        evaluations = meets = bottom_skips = 0
        for edge in partition.external_seeds.get(caller, ()):
            callee = edge.callee
            if only is not None and callee not in only:
                continue
            env = val[callee]
            key = edge.key
            old = env[key]
            if old is BOTTOM:
                bottom_skips += 1  # already at the lattice floor
                continue
            incoming = edge.const
            if incoming is None:
                expr = edge.expr
                if expr.__class__ is EntryExpr:
                    # pass-through: the evaluation *is* the env fetch
                    evaluations += 1
                    incoming = caller_env.get(expr.key, BOTTOM)
                elif edge.support:
                    incoming = self._poly_value(expr, edge.support, caller_env)
                else:
                    # support-free and not constant ⇒ ⊥
                    bottom_skips += 1
                    incoming = BOTTOM
            if sanitizer is not None:
                sanitizer.observe_transfer(edge.site_id, callee, key, incoming)
            meets += 1
            new = incoming if old is TOP else meet(old, incoming)
            if new != old:
                if sanitizer is not None:
                    sanitizer.observe_update(callee, key, old, new)
                env[key] = new
                keys = changed.get(callee)
                if keys is None:
                    keys = changed[callee] = {}
                keys[key] = None
        stats = self._stats
        stats.evaluations += evaluations
        stats.meets += meets
        stats.bottom_skips += bottom_skips
        for callee, key in partition.external_kills.get(caller, ()):
            if only is not None and callee not in only:
                continue
            stats.skipped += 1
            env = val[callee]
            old = env[key]
            if old is BOTTOM:
                continue
            stats.meets += 1
            if sanitizer is not None:
                sanitizer.observe_update(callee, key, old, BOTTOM)
            env[key] = BOTTOM  # meet(old, ⊥) is ⊥ for every old
            keys = changed.get(callee)
            if keys is None:
                keys = changed[callee] = {}
            keys[key] = None
        if self._budget is not None:
            self._budget.check_engine(stats)
        return changed

    def _poly_value(
        self, expr: ValueExpr, support: tuple, caller_env: dict
    ) -> LatticeValue:
        """Memoized evaluation of a genuine polynomial jump function,
        keyed on interned-expression identity plus the support slice of
        the caller environment."""
        stats = self._stats
        if len(support) == 1:
            values = _memo_value(caller_env.get(support[0], BOTTOM))
        else:
            values = tuple(
                _memo_value(caller_env.get(key, BOTTOM)) for key in support
            )
        table = self._table
        memo_key = (table.generation, id(expr), values)
        incoming = self._memo.get(memo_key, _MISSING)
        if incoming is _MISSING:
            stats.memo_misses += 1
            stats.evaluations += 1
            if self._compiled:
                kernel = table.kernel_for(expr)
                if kernel is None:
                    kernel = compile_expr(expr, table)
                    stats.kernel_compiles += 1
                else:
                    stats.kernel_hits += 1
                incoming = kernel(caller_env)
            else:
                incoming = expr.evaluate(caller_env)
            self._memo[memo_key] = incoming
        else:
            stats.memo_hits += 1
        return incoming

