"""Which entry points belong to which layer, and the per-layer metrics.

Each patch names the module (or class, or live object) through which the
*caller* reaches the function, because ``from x import f`` copies the
reference: ``repro.core.driver.lower_program`` is what ``build_stage0``
calls, not ``repro.ir.lower.lower_program``.
"""

from __future__ import annotations

import statistics

from repro.core import builder, complete, driver, returns, substitute
from repro.frontend import symbols
from repro.service import server

#: (owner, attribute, layer) for module-level and class-level entry points.
MODULE_PATCHES = (
    (symbols, "parse_source", "frontend.lex_parse"),
    (driver, "parse_program", "frontend.resolve"),
    (driver, "lower_program", "ir.lower"),
    (driver, "ensure_global_symbols", "ir.lower"),
    (complete, "refresh_call_sites", "ir.lower"),
    (driver, "build_call_graph", "callgraph.graph"),
    (complete, "build_call_graph", "callgraph.graph"),
    (driver, "compute_modref", "callgraph.modref"),
    (complete, "compute_modref", "callgraph.modref"),
    (driver, "build_stage0", "core.stage0"),
    (driver.Stage0Cache, "get", "core.stage0_cache"),
    (driver.SSACache, "get", "analysis.ssa_cache"),
    (driver, "build_ssa", "analysis.ssa"),
    (returns, "build_ssa", "analysis.ssa"),
    (builder, "build_ssa", "analysis.ssa"),
    (returns, "value_number", "analysis.valuenum"),
    (builder, "value_number", "analysis.valuenum"),
    (driver, "build_return_jump_functions", "core.returns"),
    (driver, "build_forward_jump_functions", "core.forward"),
    (builder, "build_support_index", "core.support_index"),
    (driver, "solve", "core.solve"),
    (driver, "solve_dense", "core.solve"),
    (driver, "solve_parallel", "core.solve"),
    (driver, "run_complete_propagation", "core.complete"),
    (complete, "eliminate_dead_code", "analysis.dce"),
    (driver, "compute_substitutions", "core.record"),
    (substitute, "run_sccp", "analysis.sccp"),
    (driver, "transform_source", "core.transform"),
    (driver, "plan_warm_start", "store.plan"),
    (driver, "publish_snapshot", "store.publish"),
    (driver, "plan_slab", "store.slab_plan"),
    (driver, "publish_slab", "store.slab_publish"),
    (driver, "analyze", "core.driver"),
    (server, "analyze", "core.driver"),
    (server, "parse_request", "service.parse"),
    (server, "request_fingerprint", "service.fingerprint"),
)

STORE_METHODS = (
    "put_object", "get_object", "put_blob", "get_blob",
    "append_snapshot", "load_snapshot",
)

#: layers reported as busy time (self time, ms per traced pass).
BUSY_LAYERS = (
    "frontend.lex_parse", "frontend.resolve", "ir.lower",
    "callgraph.graph", "callgraph.modref", "core.stage0",
    "core.stage0_cache", "analysis.ssa", "analysis.ssa_cache",
    "analysis.valuenum", "core.returns", "core.forward", "core.support_index",
    "core.solve", "core.complete", "analysis.dce", "core.record",
    "analysis.sccp", "core.transform", "core.driver",
    "store.plan", "store.publish", "store.slab_plan", "store.slab_publish",
    "store.io", "service.handle", "service.parse", "service.fingerprint",
    "service.admission", "service.cache", "service.journal",
)

TIERS = ("cold", "warm", "slab", "cache")

#: every per-layer metric: name -> (unit, better).
PER_LAYER = {
    **{f"{layer}.busy_ms": ("ms", "lower") for layer in BUSY_LAYERS},
    "frontend.lines": ("count", "lower"),
    "analysis.ssa.calls": ("count", "lower"),
    "analysis.ssa_cache.hit_ratio": ("ratio", "higher"),
    "analysis.valuenum.calls_per_proc": ("ratio", "lower"),
    "analysis.sccp.calls": ("count", "lower"),
    "core.complete.rounds": ("count", "lower"),
    "core.solve.evaluations": ("count", "lower"),
    "core.solve.meets": ("count", "lower"),
    "core.solve.passes": ("count", "lower"),
    "core.stage0_cache.hit_ratio": ("ratio", "higher"),
    "store.regions_warm_ratio": ("ratio", "higher"),
    "store.fallbacks": ("count", "lower"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    **{f"service.served.{tier}": ("count", "lower") for tier in TIERS},
    **{f"service.tier.{tier}.latency_ms_p50": ("ms", "lower") for tier in TIERS},
    "service.rejected": ("count", "lower"),
    "runtime.gc_full.busy_ms": ("ms", "lower"),
    "runtime.gc_full.collections": ("count", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def install(tracer) -> None:
    """Patch every module- and class-level entry point."""

    def count_lines(args, kwargs, result):
        tracer.count("frontend.lines", args[0].count("\n") + 1)

    def count_solve(args, kwargs, result):
        counters = result.counters()
        for key in ("evaluations", "meets", "passes", "regions", "regions_warm"):
            tracer.count(f"solve.{key}", counters.get(key, 0))

    def count_procs(args, kwargs, result):
        tracer.count("forward.procs", len(args[0].procedures))

    def count_rounds(args, kwargs, result):
        tracer.count("complete.rounds", result[1].rounds)

    def count_stage0_miss(args, kwargs, result):
        if tracer.parent_layer() == "core.stage0_cache":
            tracer.count("stage0_cache.misses")

    def count_store(args, kwargs, result):
        if result.incremental is not None:
            tracer.count("store.fallbacks", result.incremental.store_fallbacks)

    after = {
        "frontend.lex_parse": count_lines,
        "core.solve": count_solve,
        "core.forward": count_procs,
        "core.complete": count_rounds,
        "core.stage0": count_stage0_miss,
        "core.driver": count_store,
    }
    for owner, attr, layer in MODULE_PATCHES:
        tracer.patch(owner, attr, layer, after.get(layer))
    tracer.watch_gc()


def install_service(tracer, handle) -> None:
    """Patch the live daemon objects of one daemon_edits pass."""
    _directory, store, journal, service = handle
    tracer.patch(service, "handle", "service.handle")
    for attr in ("admit", "leave"):
        tracer.patch(service.admission, attr, "service.admission")
    for attr in ("get", "put"):
        tracer.patch(service.cache, attr, "service.cache")
    for attr in ("begin", "done"):
        tracer.patch(journal, attr, "service.journal")
    for attr in STORE_METHODS:
        tracer.patch(store, attr, "store.io")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(tracer, traced, untraced) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass. Tier latencies
    come from the untraced pass, which sent the same requests."""
    calls, counts = tracer.calls, tracer.counts
    metrics = {
        f"{layer}.busy_ms": tracer.self_seconds.get(layer, 0.0) * 1000.0
        for layer in BUSY_LAYERS
    }
    metrics["frontend.lines"] = counts.get("frontend.lines", 0)
    metrics["analysis.ssa.calls"] = calls.get("analysis.ssa", 0)
    lookups = calls.get("analysis.ssa_cache", 0)
    metrics["analysis.ssa_cache.hit_ratio"] = (
        1.0 - _ratio(calls.get("analysis.ssa", 0), lookups) if lookups else 0.0
    )
    metrics["analysis.valuenum.calls_per_proc"] = _ratio(
        calls.get("analysis.valuenum", 0), counts.get("forward.procs", 0)
    )
    metrics["analysis.sccp.calls"] = calls.get("analysis.sccp", 0)
    metrics["core.complete.rounds"] = counts.get("complete.rounds", 0)
    for key in ("evaluations", "meets", "passes"):
        metrics[f"core.solve.{key}"] = counts.get(f"solve.{key}", 0)
    gets = calls.get("core.stage0_cache", 0)
    metrics["core.stage0_cache.hit_ratio"] = (
        1.0 - _ratio(counts.get("stage0_cache.misses", 0), gets) if gets else 0.0
    )
    # ``regions`` counts regions the solver visited, ``regions_warm`` the
    # clean ones it adopted from the store without visiting
    warm = counts.get("solve.regions_warm", 0)
    metrics["store.regions_warm_ratio"] = _ratio(
        warm, warm + counts.get("solve.regions", 0)
    )
    metrics["store.fallbacks"] = counts.get("store.fallbacks", 0)

    stats = traced.stats
    served = stats.get("served", {})
    cache = stats.get("cache", {})
    lookups = sum(cache.get(k, 0) for k in
                  ("cache_hits", "cache_store_hits", "cache_misses"))
    metrics["service.cache.hit_ratio"] = _ratio(
        cache.get("cache_hits", 0) + cache.get("cache_store_hits", 0), lookups
    )
    for tier in TIERS:
        metrics[f"service.served.{tier}"] = served.get(tier, 0)
        latencies = [u.seconds * 1000.0 for u in untraced.units if u.tier == tier]
        metrics[f"service.tier.{tier}.latency_ms_p50"] = (
            statistics.median(latencies) if latencies else 0.0
        )
    metrics["service.rejected"] = served.get("errors", 0)
    metrics["runtime.gc_full.busy_ms"] = counts.get("gc_full.seconds", 0) * 1000.0
    metrics["runtime.gc_full.collections"] = counts.get("gc_full.collections", 0)

    metrics["trace.coverage_pct"] = 100.0 * _ratio(
        sum(tracer.self_seconds.values()), traced.wall_seconds
    )
    overhead = traced.wall_seconds - untraced.wall_seconds
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * _ratio(overhead, untraced.wall_seconds)
    return metrics
