"""The four-stage analyzer of §4.1, assembled as a shared-artifact pipeline.

::

    stage 0   parse, resolve, lower, call graph, MOD/REF   (config-independent)
    stage 1   return jump functions       (bottom-up over the call graph)
    stage 2   forward jump functions      (per procedure, uses stage 1)
    stage 3   interprocedural propagation (worklist over the call graph)
    stage 4   record: CONSTANTS sets, substitution counts, transformed text

Stage 0 depends only on the program text, never on the
:class:`~repro.core.config.AnalysisConfig`, so the study's whole
methodology — sweeping one program under many jump-function
configurations (Tables 2/3) — only needs it once per program. The
pipeline makes that explicit:

- :func:`build_stage0` produces a :class:`Stage0Artifacts` bundle;
- :class:`Stage0Cache` memoizes bundles by program identity (the source
  text) and counts hits/misses;
- :func:`analyze` runs stages 1–4 for one configuration on top of a
  bundle (consulting the module-level cache by default);
- :class:`Analyzer` parses once and sweeps many configurations over one
  bundle; :func:`sweep_programs` fans whole-program sweeps across worker
  processes for table regeneration.

Complete propagation (``config.complete``) iterates analysis with
dead-code elimination, which *mutates* the lowered program — those runs
build a private stage 0 (counted as a cache bypass) so cached artifacts
stay pristine. Per-stage wall-clock timings and the cache counters are
surfaced through :attr:`AnalysisResult.timings` for the §3.1.5 cost
benchmarks and the ``repro analyze --stats`` flag.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.analysis.ssa import SSAProcedure, build_ssa, ensure_global_symbols
from repro.callgraph.graph import CallGraph, build_call_graph
from repro.callgraph.modref import ModRefInfo, compute_modref, make_call_effects
from repro.core.builder import ForwardFunctions, build_forward_jump_functions
from repro.core.complete import CompleteStats, run_complete_propagation
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.exprs import intern_counters
from repro.core.lattice import LatticeValue
from repro.core.parallel import ParallelSolveError, solve_parallel
from repro.core.returns import ReturnFunctionResult, build_return_jump_functions
from repro.core.solver import SolveResult, WarmStart, bottom_val, solve, solve_dense
from repro.core.substitute import (
    SubstitutionReport,
    compute_substitutions,
    transform_source,
)
from repro.frontend.symbols import Program, parse_program
from repro.ir.lower import LoweredProgram, lower_program
from repro.resilience.budgets import SolveBudget
from repro.resilience.cancel import (
    CancelledError,
    cancel_point,
    cancellable_budget,
)
from repro.resilience.chaos import chaos_point, maybe_corrupt_stage0
from repro.resilience.errors import (
    CODE_DEGRADED_DENSE,
    CODE_DEGRADED_FLOOR,
    CODE_DEGRADED_LADDER,
    CODE_PARALLEL_FALLBACK,
    CODE_SLAB_FALLBACK,
    CODE_STORE_FALLBACK,
    CODE_STORE_RESET,
    BudgetExhaustedError,
    DegradationRecord,
    Stage,
)
from repro.store.artifacts import MemoryStore, StoreError, StoreIndexError
from repro.store.fingerprints import config_key as _store_config_key
from repro.store.incremental import (
    IncrementalReport,
    plan_warm_start,
    publish_snapshot,
)
from repro.store.slabs import plan_slab, publish_slab


# -- stage 0: configuration-independent artifacts ----------------------------


class SSACache:
    """Memoized SSA construction, keyed by (procedure, use_mod), plus the
    configuration-independent results built on those SSA forms.

    SSA form depends on the lowered CFG and on which scalars each call
    kills — i.e. on MOD information, but on nothing else in the
    configuration. Stages 1 and 2 and every configuration of a sweep
    share the forms: at most two SSA forms per procedure ever exist (with
    and without MOD). The memos that ride on them (DESIGN.md, "Pipeline
    and caching") are keyed by what they read besides the form:

    - :attr:`returns`: stage 1's whole result, keyed by (use_mod,
      compose_return_functions, intern generation);
    - ``SSAProcedure.numberings``: stage 2's value numbering, keyed by
      (return JFs on/off, compose, intern generation);
    - ``SSAProcedure.references``: ``record``'s seeded-SCCP references,
      keyed by the type-tagged entry environment.

    Consumers (value numbering, SCCP, the dependence clients) never mutate
    the SSA CFG. :meth:`clear` drops the forms and every memo with them;
    complete propagation, which mutates the *lowered* CFGs, gets a private
    cache per DCE round.
    """

    def __init__(self, lowered: LoweredProgram, modref: ModRefInfo):
        self._lowered = lowered
        self._modref = modref
        self._entries: dict[tuple[str, bool], SSAProcedure] = {}
        #: (use_mod, compose, intern generation) -> stage-1 result.
        self.returns: dict[tuple, ReturnFunctionResult] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: str, use_mod: bool) -> SSAProcedure:
        key = (name, use_mod)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        effects = make_call_effects(
            self._lowered, name, self._modref if use_mod else None
        )
        ssa = build_ssa(self._lowered.procedures[name], effects)
        self._entries[key] = ssa
        return ssa

    def clear(self) -> None:
        self._entries.clear()
        self.returns.clear()


@dataclass
class Stage0Artifacts:
    """Everything about a program that no configuration can change."""

    program: Program
    lowered: LoweredProgram
    graph: CallGraph
    modref: ModRefInfo
    ssa_cache: SSACache
    #: build cost, keyed like :attr:`AnalysisResult.timings` ("lower", "modref").
    timings: dict[str, float] = field(default_factory=dict)


def build_stage0(program: Program) -> Stage0Artifacts:
    """Lower a resolved program and compute its call graph and MOD/REF."""
    timings: dict[str, float] = {}
    start = time.perf_counter()
    lowered = lower_program(program)
    ensure_global_symbols(lowered)
    timings["lower"] = time.perf_counter() - start

    start = time.perf_counter()
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph)
    timings["modref"] = time.perf_counter() - start
    return Stage0Artifacts(
        program, lowered, graph, modref, SSACache(lowered, modref), timings
    )


class Stage0Cache:
    """LRU cache of stage-0 bundles keyed by program identity.

    Identity is the program's source text: two programs with identical
    text have identical lowering, call graph, and MOD/REF (stage 0 never
    reads the configuration). ``hits``/``misses``/``bypasses`` make the
    sharing observable — the sweep tests assert stage 0 runs exactly once
    per program. Programs constructed without source text are never
    cached (there is no identity to key on).
    """

    def __init__(self, maxsize: int = 32):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        #: complete-propagation runs that built a private stage 0 because
        #: their DCE loop mutates the lowered program.
        self.bypasses = 0
        self._entries: OrderedDict[str, Stage0Artifacts] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, program: Program) -> Stage0Artifacts:
        """Fetch (or build and remember) the stage-0 bundle for ``program``."""
        key = program.source
        if not key:
            return build_stage0(program)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        artifacts = build_stage0(program)
        self._entries[key] = artifacts
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return artifacts

    def clear(self) -> None:
        self._entries.clear()

    def counters(self) -> dict[str, int]:
        return {
            "stage0_cache_hits": self.hits,
            "stage0_cache_misses": self.misses,
            "stage0_cache_bypasses": self.bypasses,
            "stage0_cache_entries": len(self._entries),
        }


#: The default process-wide cache :func:`analyze` and :class:`Analyzer` use.
GLOBAL_STAGE0_CACHE = Stage0Cache()


# -- stages 1–3: per-configuration -------------------------------------------


@dataclass
class _Artifacts:
    graph: CallGraph
    modref: ModRefInfo
    returns: ReturnFunctionResult
    forward: ForwardFunctions
    solved: SolveResult
    incremental: IncrementalReport | None = None


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    program: Program
    config: AnalysisConfig
    lowered: LoweredProgram
    call_graph: CallGraph
    modref: ModRefInfo
    returns: ReturnFunctionResult
    forward: ForwardFunctions
    solved: SolveResult
    substitutions: SubstitutionReport
    complete_stats: CompleteStats | None = None
    timings: dict[str, float] = field(default_factory=dict)
    #: True when stage 0 came out of a :class:`Stage0Cache` hit.
    stage0_cached: bool = False
    #: planned quality losses the resilience layer took (ladder steps,
    #: sparse→dense fallback, baseline floor) — empty on a healthy run.
    degradations: tuple[DegradationRecord, ...] = ()
    #: what the artifact-store pre-pass did (``None`` unless the run was
    #: requested with ``incremental=True`` and a store).
    incremental: IncrementalReport | None = None

    # -- the paper's numbers -------------------------------------------------

    @property
    def constants_found(self) -> int:
        """The Table 2/3 cell: (procedure, variable) pairs substituted."""
        return self.substitutions.pairs

    @property
    def references_substituted(self) -> int:
        return self.substitutions.references

    def constants(self, proc_name: str) -> dict[str, LatticeValue]:
        """CONSTANTS(p) with human-readable names."""
        pretty: dict[str, LatticeValue] = {}
        for key, value in self.solved.constants(proc_name.lower()).items():
            if isinstance(key, str):
                pretty[key] = value
            else:
                pretty[self.program.global_display(key)] = value
        return pretty

    def all_constants(self) -> dict[str, dict[str, LatticeValue]]:
        return {name: self.constants(name) for name in sorted(self.lowered.procedures)}

    def transformed_source(self) -> str:
        """The program text with substituted constants spliced in."""
        return transform_source(self.program.source, self.substitutions)

    def stats_report(self) -> str:
        """Per-stage timings plus solver and cache counters, rendered for
        ``repro analyze --stats``."""
        stage_keys = ("lower", "modref", "returns", "forward", "solve", "record")
        lines = ["per-stage timings:"]
        for key in stage_keys:
            if key in self.timings:
                lines.append(f"  {key:<8} {self.timings[key] * 1000.0:>9.3f} ms")
        extras = {
            key: value
            for key, value in self.timings.items()
            if key not in stage_keys
        }
        lines.append("solver counters:")
        for key, value in self.solved.counters().items():
            lines.append(f"  {key:<12} {value}")
        lines.append("pipeline:")
        lines.append(f"  stage0_cached {1 if self.stage0_cached else 0}")
        for key, value in intern_counters().items():
            lines.append(f"  {key} {value}")
        for key in sorted(extras):
            lines.append(f"  {key} {extras[key]:g}")
        lines.append("resilience:")
        lines.append(f"  degradations {len(self.degradations)}")
        for record in self.degradations:
            lines.append(f"  {record.describe()}")
        if self.incremental is not None:
            lines.append("store:")
            lines.append(f"  mode {self.incremental.mode}")
            for key, value in self.incremental.counters().items():
                lines.append(f"  {key} {value}")
        return "\n".join(lines)

    def stats_json(self) -> dict:
        """The ``--profile-json`` payload: per-stage timings (ms) plus
        every solver, cache, region, and store counter as plain JSON."""
        stage_keys = ("lower", "modref", "returns", "forward", "solve", "record")
        timings_ms = {key: value * 1000.0 for key, value in self.timings.items()}
        payload = {
            "timings_ms": {
                key: timings_ms.pop(key) for key in stage_keys if key in timings_ms
            },
            "solver_counters": dict(self.solved.counters()),
            "pipeline": {
                "stage0_cached": 1 if self.stage0_cached else 0,
                **intern_counters(),
            },
            "resilience": {
                "degradations": [r.describe() for r in self.degradations],
            },
            "result": {
                "constants_found": self.constants_found,
                "references_substituted": self.references_substituted,
            },
        }
        payload["timings_ms"].update(timings_ms)  # extras (complete, dce, …)
        if self.incremental is not None:
            payload["store"] = {
                "mode": self.incremental.mode,
                **self.incremental.counters(),
            }
        return payload

    def resilience_diagnostics(self):
        """The RL5xx diagnostics for every degradation this run took
        (rendered by ``repro analyze`` so downgrades are never silent)."""
        return [record.diagnostic() for record in self.degradations]


#: The degradation ladder (DESIGN.md §7): each rung is strictly cheaper
#: than the one above it (§3.1.5 cost analysis), so a budget that one
#: rung exhausts may still suffice for the next.
_DEGRADATION_LADDER = (
    JumpFunctionKind.POLYNOMIAL,
    JumpFunctionKind.PASS_THROUGH,
    JumpFunctionKind.INTRAPROCEDURAL,
    JumpFunctionKind.LITERAL,
)


def _next_ladder_kind(kind: JumpFunctionKind) -> JumpFunctionKind | None:
    index = _DEGRADATION_LADDER.index(kind)
    if index + 1 < len(_DEGRADATION_LADDER):
        return _DEGRADATION_LADDER[index + 1]
    return None


def _attempt_solve(
    lowered: LoweredProgram,
    graph: CallGraph,
    forward: ForwardFunctions,
    config: AnalysisConfig,
    budget: SolveBudget | None,
    degradations: list[DegradationRecord],
    warm: WarmStart | None = None,
) -> SolveResult:
    """Stage 3: the sparse solver, with the dense reference solver as a
    crash fallback (RL511). Budget exhaustion is *not* a crash — it
    propagates so the degradation ladder can pick a cheaper rung. The
    dense fallback always runs cold: a warm plan that provoked a crash
    must not poison the recovery path.

    ``config.parallel_regions`` first tries the wave-parallel schedule;
    any parallel failure (worker loss, pool breakage) degrades to this
    same sequential path with an RL540 record — never a crash. Parallel
    is skipped for warm starts (the wave scheduler is cold-only), for
    complete-mode rounds (DCE mutates the lowered program away from its
    source, which is what pool workers rebuild from), and for programs
    with no retained source text.
    """
    compiled = config.compiled_exprs
    try:
        if (
            config.parallel_regions
            and warm is None
            and not config.complete
            and lowered.program.source
        ):
            try:
                chaos_point(Stage.SOLVE, scope="parallel")
                return solve_parallel(
                    lowered,
                    graph,
                    forward,
                    workers=config.parallel_regions,
                    source=lowered.program.source,
                    config=config,
                    budget=budget,
                    compiled=compiled,
                )
            except BudgetExhaustedError:
                raise
            except ParallelSolveError as exc:
                degradations.append(
                    DegradationRecord(
                        code=CODE_PARALLEL_FALLBACK,
                        from_label="parallel",
                        to_label="sequential",
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
        chaos_point(Stage.SOLVE, scope="sparse")
        return solve(
            lowered, graph, forward, budget=budget, warm=warm,
            compiled=compiled, flat=config.flat_engine,
        )
    except (BudgetExhaustedError, CancelledError):
        # budget exhaustion feeds the ladder; cancellation aborts the
        # request — neither may be "recovered" by the dense fallback
        raise
    except Exception as exc:
        if not config.solver_fallback:
            raise
        degradations.append(
            DegradationRecord(
                code=CODE_DEGRADED_DENSE,
                from_label="sparse",
                to_label="dense",
                detail=f"{type(exc).__name__}: {exc}",
            )
        )
        chaos_point(Stage.SOLVE, scope="dense")
        return solve_dense(lowered, graph, forward, budget=budget)


def _plan_incremental(
    store,
    cfg_key: str,
    lowered: LoweredProgram,
    graph: CallGraph,
    modref: ModRefInfo,
    forward: ForwardFunctions,
    degradations: list[DegradationRecord],
) -> tuple[WarmStart | None, IncrementalReport]:
    """The incremental pre-pass: load the latest snapshot, diff
    fingerprints, and plan the warm start. Any store problem degrades to
    a cold run (RL530/RL531) — never an analysis failure."""
    try:
        snapshot = store.load_snapshot(cfg_key, lowered.program.main)
    except StoreIndexError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_STORE_RESET,
                from_label="store",
                to_label="reset",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(mode="cold", detail="index reset")
    if snapshot is None:
        return None, IncrementalReport(mode="cold", detail="no snapshot")
    try:
        return plan_warm_start(
            store,
            snapshot,
            cfg_key=cfg_key,
            lowered=lowered,
            graph=graph,
            modref=modref,
            forward=forward,
        )
    except StoreError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_STORE_FALLBACK,
                from_label="warm",
                to_label="cold",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(
            mode="fallback", store_fallbacks=1, detail=str(exc)
        )


def _plan_slab(
    store,
    cfg_key: str,
    lowered: LoweredProgram,
    graph: CallGraph,
    modref: ModRefInfo,
    forward: ForwardFunctions,
    degradations: list[DegradationRecord],
):
    """The flat engine's store pre-pass: load (or load-and-patch) the
    persistent slab. Any untrusted artifact degrades to a cold rebuild
    (RL532), an index reset to RL531 — never an analysis failure."""
    try:
        return plan_slab(
            store,
            cfg_key=cfg_key,
            lowered=lowered,
            graph=graph,
            modref=modref,
            forward=forward,
        )
    except StoreIndexError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_STORE_RESET,
                from_label="store",
                to_label="reset",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(mode="cold", detail="index reset")
    except StoreError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_SLAB_FALLBACK,
                from_label="slab",
                to_label="rebuild",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(
            mode="fallback", store_fallbacks=1, detail=str(exc)
        )


def _current_slab(forward: ForwardFunctions):
    """The slab the flat solve actually used, if any — a loaded one wins
    (that is what :func:`repro.core.slab.slab_for` returns first)."""
    loaded = getattr(forward, "_slab_loaded", None)
    if loaded is not None:
        return loaded
    cached = getattr(forward, "_slab", None)
    return cached[2] if cached is not None else None


def _config_stages(
    lowered: LoweredProgram,
    graph: CallGraph,
    modref: ModRefInfo,
    config: AnalysisConfig,
    timings: dict[str, float],
    ssa_cache: SSACache | None = None,
    degradations: list[DegradationRecord] | None = None,
    store=None,
    incremental: bool = False,
) -> _Artifacts:
    """Stages 1–3 for one configuration over prebuilt stage-0 artifacts.

    When the solve exhausts its :class:`SolveBudget` and the
    configuration allows degradation, the jump function walks one rung
    down :data:`_DEGRADATION_LADDER` (stages 1–2 rebuilt for the cheaper
    kind, RL510 recorded) and the solve retries with fresh fuel; below
    the last rung VAL floors to the always-sound intraprocedural
    baseline (RL512). Every step lands in ``degradations``.

    With a ``store``, a healthy solve publishes its snapshot (keyed by
    configuration and main program); with ``incremental`` too, the first
    ladder attempt warm-starts from the previous snapshot's clean
    regions. Degraded rungs always run cold, and degraded results are
    never published (only RL530/RL531 — store trouble itself — may
    accompany a publication, which is how a corrupt store self-heals).
    """
    if degradations is None:
        degradations = []
    effective = config
    if config.intraprocedural_only and config.use_return_jump_functions:
        # The baseline is *purely* intraprocedural: no information crosses
        # procedure boundaries in either direction.
        effective = replace(config, use_return_jump_functions=False)

    # A service request's cancel token rides on the budget hooks the
    # worklist loops already poll; outside the daemon this is a no-op.
    budget = cancellable_budget(SolveBudget.from_config(config))
    cfg_key = _store_config_key(effective) if store is not None else ""
    store_report: IncrementalReport | None = None
    kind = effective.jump_function
    while True:
        current = (
            effective
            if kind is effective.jump_function
            else replace(effective, jump_function=kind)
        )
        cancel_point()
        chaos_point(Stage.SSA)
        start = time.perf_counter()
        returns = build_return_jump_functions(
            lowered, graph, modref, current, ssa_cache=ssa_cache
        )
        timings["returns"] = (
            timings.get("returns", 0.0) + time.perf_counter() - start
        )

        cancel_point()
        chaos_point(Stage.JUMP_FUNCTIONS)
        start = time.perf_counter()
        forward = build_forward_jump_functions(
            lowered, modref, returns, current, ssa_cache=ssa_cache
        )
        timings["forward"] = (
            timings.get("forward", 0.0) + time.perf_counter() - start
        )

        warm: WarmStart | None = None
        if (
            store is not None
            and incremental
            and store_report is None
            and not current.intraprocedural_only
            and not current.flat_engine
            and kind is effective.jump_function
        ):
            warm, store_report = _plan_incremental(
                store, cfg_key, lowered, graph, modref, forward, degradations
            )
        if (
            store is not None
            and current.flat_engine
            and store_report is None
            and not current.intraprocedural_only
            and lowered.program.source
            and kind is effective.jump_function
        ):
            # The flat engine's warm path is the persistent slab, not the
            # boxed warm start (a warm start would route the solve back
            # to the object engine). Not gated on ``incremental``: a
            # loaded slab is bit-for-bit the slab a cold build produces,
            # so adopting it is a pure time saving, never a plan.
            start = time.perf_counter()
            slab, store_report = _plan_slab(
                store, cfg_key, lowered, graph, modref, forward, degradations
            )
            timings["slab_plan"] = (
                timings.get("slab_plan", 0.0) + time.perf_counter() - start
            )
            if slab is not None:
                try:
                    forward._slab_loaded = slab
                except AttributeError:
                    pass

        start = time.perf_counter()
        try:
            if current.intraprocedural_only:
                solved = _intraprocedural_solved(lowered)
            else:
                solved = _attempt_solve(
                    lowered, graph, forward, current, budget, degradations,
                    warm=warm,
                )
            break
        except BudgetExhaustedError as exc:
            if not config.degrade_on_budget:
                raise
            next_kind = _next_ladder_kind(kind)
            if next_kind is None:
                degradations.append(
                    DegradationRecord(
                        code=CODE_DEGRADED_FLOOR,
                        from_label=kind.value,
                        to_label="intraprocedural-baseline",
                        counter=exc.counter,
                    )
                )
                solved = _intraprocedural_solved(lowered)
                break
            degradations.append(
                DegradationRecord(
                    code=CODE_DEGRADED_LADDER,
                    from_label=kind.value,
                    to_label=next_kind.value,
                    counter=exc.counter,
                )
            )
            kind = next_kind
        finally:
            timings["solve"] = (
                timings.get("solve", 0.0) + time.perf_counter() - start
            )

    if (
        store is not None
        and not current.intraprocedural_only
        and all(
            record.code
            in (CODE_STORE_FALLBACK, CODE_STORE_RESET, CODE_SLAB_FALLBACK)
            for record in degradations
        )
    ):
        try:
            if current.flat_engine:
                # Flat runs persist the slab itself instead of the boxed
                # snapshot; a pure warm load ("slab") changed nothing, so
                # republishing would only rewrite identical artifacts.
                slab = _current_slab(forward)
                if (
                    slab is not None
                    and lowered.program.source
                    and not (
                        store_report is not None
                        and store_report.mode == "slab"
                    )
                ):
                    publish_slab(
                        store,
                        cfg_key=cfg_key,
                        lowered=lowered,
                        modref=modref,
                        forward=forward,
                        slab=slab,
                    )
            else:
                publish_snapshot(
                    store,
                    cfg_key=cfg_key,
                    lowered=lowered,
                    graph=graph,
                    modref=modref,
                    forward=forward,
                    returns_table=returns.table,
                    solved=solved,
                )
        except (StoreError, OSError, ValueError) as exc:
            degradations.append(
                DegradationRecord(
                    code=CODE_STORE_RESET,
                    from_label="publish",
                    to_label="skipped",
                    counter="store",
                    detail=str(exc),
                )
            )

    return _Artifacts(graph, modref, returns, forward, solved, store_report)


def _intraprocedural_solved(lowered: LoweredProgram) -> SolveResult:
    """The Table 3 baseline VAL: ⊥ at every entry key of every procedure
    (see :func:`repro.core.solver.bottom_val` for why DATA values are
    excluded too), and every procedure counted — the baseline measures
    each procedure alone, so reachability from the main program is moot."""
    result = SolveResult(val=bottom_val(lowered))
    result.reached.update(result.val)
    return result


def analyze(
    source: str | Program,
    config: AnalysisConfig | None = None,
    *,
    cache: Stage0Cache | None = GLOBAL_STAGE0_CACHE,
    store=None,
    incremental: bool = False,
) -> AnalysisResult:
    """Run the full analyzer over MiniFortran source (or a parsed Program).

    Stage 0 is fetched from ``cache`` (the module-level
    :data:`GLOBAL_STAGE0_CACHE` by default; pass ``cache=None`` to force a
    fresh build — the cache-correctness tests diff the two paths).

    ``store`` (an :class:`repro.store.artifacts.ArtifactStore` or
    :class:`~repro.store.artifacts.MemoryStore`) persists the run's
    jump functions and solution as a snapshot; with ``incremental=True``
    the solve warm-starts from the store's previous snapshot, re-solving
    only the regions the fingerprint diff invalidated. Complete
    propagation ignores the store entirely: its DCE loop rewrites the
    program between rounds, so there is no stable identity to key on.
    """
    config = config or AnalysisConfig()
    cancel_point()
    program = parse_program(source) if isinstance(source, str) else source
    chaos_point(Stage.FRONTEND)
    timings: dict[str, float] = {}
    degradations: list[DegradationRecord] = []

    complete_stats: CompleteStats | None = None
    stage0_cached = False
    chaos_point(Stage.LOWERING)
    if config.complete:
        # The DCE loop mutates the lowered program: give it a private
        # stage 0 and never publish the result to the cache.
        if cache is not None:
            cache.bypasses += 1
        stage0 = build_stage0(program)
        timings.update(stage0.timings)
        # Each DCE round may mutate the lowered CFGs, so SSA forms are only
        # shareable within a round: build a fresh cache per pipeline call.
        artifacts, complete_stats = run_complete_propagation(
            stage0.lowered,
            stage0.graph,
            stage0.modref,
            config,
            lambda lowered, graph, modref: _config_stages(
                lowered, graph, modref, config, timings,
                ssa_cache=SSACache(lowered, modref),
                degradations=degradations,
            ),
            timings=timings,
        )
    else:
        if cache is not None:
            hits_before = cache.hits
            stage0 = cache.get(program)
            stage0_cached = cache.hits > hits_before
            # chaos corruption clobbers the live cache entry, exactly
            # like a real poisoned cache would persist across fetches
            maybe_corrupt_stage0(stage0)
        else:
            stage0 = build_stage0(program)
        timings.update(stage0.timings)
        artifacts = _config_stages(
            stage0.lowered, stage0.graph, stage0.modref, config, timings,
            ssa_cache=stage0.ssa_cache,
            degradations=degradations,
            store=store,
            incremental=incremental,
        )

    cancel_point()
    chaos_point(Stage.SUBSTITUTE)
    start = time.perf_counter()
    substitutions = compute_substitutions(artifacts.forward, artifacts.solved)
    timings["record"] = time.perf_counter() - start

    return AnalysisResult(
        program=stage0.program,
        config=config,
        lowered=stage0.lowered,
        call_graph=artifacts.graph,
        modref=artifacts.modref,
        returns=artifacts.returns,
        forward=artifacts.forward,
        solved=artifacts.solved,
        substitutions=substitutions,
        complete_stats=complete_stats,
        timings=timings,
        stage0_cached=stage0_cached,
        degradations=tuple(degradations),
        incremental=artifacts.incremental,
    )


class Analyzer:
    """Parse once, build stage 0 once, analyze under many configurations.

    Every run publishes its snapshot to ``store`` (an in-process
    :class:`~repro.store.artifacts.MemoryStore` by default, so nothing
    touches disk unless the caller passes an
    :class:`~repro.store.artifacts.ArtifactStore`), which is what makes
    :meth:`reanalyze` work out of the box: edit the source, and only the
    regions the fingerprint diff invalidates are re-solved.
    """

    def __init__(
        self,
        source: str | Program,
        cache: Stage0Cache | None = None,
        store=None,
    ):
        self.program = parse_program(source) if isinstance(source, str) else source
        self.cache = cache if cache is not None else GLOBAL_STAGE0_CACHE
        self.store = store if store is not None else MemoryStore()

    @property
    def stage0(self) -> Stage0Artifacts:
        """The shared configuration-independent artifacts."""
        return self.cache.get(self.program)

    def run(
        self,
        config: AnalysisConfig | None = None,
        *,
        incremental: bool = False,
    ) -> AnalysisResult:
        return analyze(
            self.program,
            config,
            cache=self.cache,
            store=self.store,
            incremental=incremental,
        )

    def reanalyze(
        self,
        new_source: str | Program,
        config: AnalysisConfig | None = None,
    ) -> AnalysisResult:
        """Swap in edited source and re-run incrementally.

        The previous :meth:`run` (or ``reanalyze``) left a snapshot in
        :attr:`store`; this run diffs procedure fingerprints against it,
        re-solves only the invalidated regions, and adopts the stored
        fixed points for everything clean. The result is equivalent to a
        from-scratch :func:`analyze` of ``new_source`` — the property
        tests assert byte-identical CONSTANTS sets and substitution
        counts — just cheaper (see ``result.incremental`` and the
        ``regions_warm`` solver counter).
        """
        self.program = (
            parse_program(new_source)
            if isinstance(new_source, str)
            else new_source
        )
        return self.run(config, incremental=True)

    def sweep(
        self, configs: dict[str, AnalysisConfig]
    ) -> dict[str, AnalysisResult]:
        """Run a named family of configurations (e.g. a table's columns).

        Every non-``complete`` configuration shares one stage-0 bundle;
        the whole Table 2 sweep lowers and summarizes the program once.
        """
        return {name: self.run(config) for name, config in configs.items()}


# -- multi-program sweeps ----------------------------------------------------


@dataclass(frozen=True)
class SweepSummary:
    """The picklable essence of one (program, configuration) cell."""

    constants_found: int
    references_substituted: int
    #: procedure → {pretty entry name → constant value}.
    constants: dict[str, dict[str, LatticeValue]]
    timings: dict[str, float]
    solver_counters: dict[str, int]
    #: RL5xx degradation descriptions (empty on a healthy run).
    degradations: tuple[str, ...] = ()
    #: stage-0 cache counter deltas observed while producing this cell,
    #: measured in whichever process actually ran it — so ``--stats`` is
    #: truthful in both in-process and worker-pool sweeps.
    cache_counters: dict[str, int] = field(default_factory=dict)


def summarize(
    result: AnalysisResult, *, cache_counters: dict[str, int] | None = None
) -> SweepSummary:
    return SweepSummary(
        constants_found=result.constants_found,
        references_substituted=result.references_substituted,
        constants=result.all_constants(),
        timings=dict(result.timings),
        solver_counters=result.solved.counters(),
        degradations=tuple(r.describe() for r in result.degradations),
        cache_counters=dict(cache_counters or {}),
    )


class SweepError(RuntimeError):
    """A :func:`sweep_programs` call finished with failed cells.

    Carries the full :class:`~repro.resilience.executor.SweepOutcome` so
    callers that want partial results can still render them; callers of
    the strict legacy API get an exception instead of silent holes.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        programs = ", ".join(sorted({f.program for f in outcome.failures}))
        super().__init__(
            f"sweep finished with {len(outcome.failures)} failure(s) "
            f"({programs}); see SweepError.outcome for the records"
        )


def sweep_programs(
    sources: dict[str, str],
    configs: dict[str, AnalysisConfig],
    processes: int | None = None,
) -> dict[str, dict[str, SweepSummary]]:
    """Sweep many programs through many configurations.

    ``sources`` maps a display name to program text. With ``processes``
    unset the sweep runs in this process (sharing the global stage-0
    cache); with ``processes >= 1`` programs fan out across worker
    processes — each worker pays stage 0 once per program and ships back
    only the picklable :class:`SweepSummary` cells, which is how the
    12-program table regeneration parallelizes.

    This is the strict facade over the fault-tolerant executor
    (:func:`repro.resilience.executor.run_sweep`): every cell must
    succeed or the whole call raises :class:`SweepError`. Callers that
    want partial results, timeouts, retries, or the checkpoint journal
    use ``run_sweep`` directly.
    """
    # Late import: the executor imports this module.
    from repro.resilience.executor import SweepPolicy, run_sweep

    policy = SweepPolicy(
        processes=processes if processes and processes > 0 else None
    )
    outcome = run_sweep(sources, configs, policy)
    if outcome.failures:
        raise SweepError(outcome)
    return outcome.summaries
