"""The shared-artifact pipeline: stage-0 caching, sweep semantics, the
process-parallel multi-program sweep, and the Table 3 baseline contract."""

import pytest

from repro import AnalysisConfig, Analyzer, JumpFunctionKind, analyze
from repro.core.config import TABLE2_CONFIGS, TABLE3_CONFIGS
from repro.core.driver import Stage0Cache, sweep_programs
from repro.frontend import parse_program

PROGRAM = """
program main
  integer n, m
  common /cfg/ gmax
  integer gmax
  call init
  n = 10
  m = n * 2 + 1
  call work(n, m)
  call chain(4)
end

subroutine init
  common /cfg/ g
  integer g
  g = 100
end

subroutine work(k, j)
  integer k, j
  common /cfg/ lim
  integer lim
  j = k + lim
end

subroutine chain(d)
  integer d
  if (d > 0) then
    call leaf(d)
  endif
end

subroutine leaf(x)
  integer x
  write x
end
"""


class TestStage0Cache:
    def test_sweep_builds_stage0_exactly_once(self):
        cache = Stage0Cache()
        analyzer = Analyzer(PROGRAM, cache=cache)
        results = analyzer.sweep(TABLE2_CONFIGS)
        assert cache.misses == 1
        assert cache.hits == len(TABLE2_CONFIGS) - 1
        assert cache.bypasses == 0
        # every run after the first observed the cached stage 0
        flags = [r.stage0_cached for r in results.values()]
        assert flags.count(False) == 1 and flags.count(True) == len(flags) - 1

    def test_artifacts_shared_across_configs(self):
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        results = analyzer.sweep(TABLE2_CONFIGS)
        lowereds = {id(r.lowered) for r in results.values()}
        graphs = {id(r.call_graph) for r in results.values()}
        assert len(lowereds) == 1
        assert len(graphs) == 1

    def test_complete_config_bypasses_cache(self):
        cache = Stage0Cache()
        analyzer = Analyzer(PROGRAM, cache=cache)
        analyzer.run(AnalysisConfig(complete=True))
        assert cache.bypasses == 1
        assert cache.misses == 0
        # a complete run must not poison the shared artifacts
        fresh = analyzer.run()
        clean = analyze(PROGRAM, cache=None)
        assert fresh.all_constants() == clean.all_constants()

    def test_cache_keyed_by_source_identity(self):
        cache = Stage0Cache()
        first = Analyzer(PROGRAM, cache=cache)
        second = Analyzer(PROGRAM, cache=cache)  # same text, new parse
        assert first.stage0 is second.stage0
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = Stage0Cache(maxsize=2)
        programs = [
            f"program m\nn = {i}\nwrite n\nend\n" for i in range(3)
        ]
        for source in programs:
            cache.get(parse_program(source))
        assert len(cache) == 2
        cache.get(parse_program(programs[0]))  # evicted: builds again
        assert cache.misses == 4

    def test_sourceless_program_never_cached(self):
        cache = Stage0Cache()
        program = parse_program(PROGRAM)
        program.source = ""
        cache.get(program)
        assert cache.hits == cache.misses == 0
        assert len(cache) == 0

    def test_ssa_shared_between_stage1_and_stage2(self):
        result = analyze(PROGRAM, cache=Stage0Cache())
        for name, ssa in result.forward.ssas.items():
            assert result.returns.ssas[name] is ssa


ALL_KINDS = list(JumpFunctionKind)


class TestCacheCorrectness:
    """Cached sweeps must be bit-identical to fresh, uncached runs."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("use_mod", (True, False), ids=("mod", "no-mod"))
    @pytest.mark.parametrize("use_returns", (True, False), ids=("rjf", "no-rjf"))
    def test_cached_sweep_matches_fresh_analyze(self, kind, use_mod, use_returns):
        config = AnalysisConfig(
            jump_function=kind,
            use_return_jump_functions=use_returns,
            use_mod=use_mod,
        )
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        # warm the cache with a different configuration first
        analyzer.run(AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL))
        cached = analyzer.run(config)
        fresh = analyze(PROGRAM, config, cache=None)
        assert cached.constants_found == fresh.constants_found
        assert cached.references_substituted == fresh.references_substituted
        assert cached.all_constants() == fresh.all_constants()
        assert cached.solved.val == fresh.solved.val

    def test_repeated_sweeps_stable(self):
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        first = analyzer.sweep(TABLE2_CONFIGS)
        second = analyzer.sweep(TABLE2_CONFIGS)
        for name in TABLE2_CONFIGS:
            assert first[name].all_constants() == second[name].all_constants()


class TestBaselineSemantics:
    """Table 3 column 4: the purely intraprocedural baseline assumes ⊥ at
    every entry — DATA initializations included (see solver.bottom_val)."""

    WITHOUT_DATA = """
program main
  common /c/ g
  integer g, n
  n = 3
  write n
  write g
  call use
end
subroutine use
  common /c/ h
  integer h
  write h
end
"""
    WITH_DATA = WITHOUT_DATA.replace(
        "  integer g, n\n", "  integer g, n\n  data g /42/\n"
    )

    BASELINE = AnalysisConfig(intraprocedural_only=True)

    def test_baseline_invariant_under_data(self):
        plain = analyze(self.WITHOUT_DATA, self.BASELINE, cache=None)
        seeded = analyze(self.WITH_DATA, self.BASELINE, cache=None)
        assert plain.constants_found == seeded.constants_found
        assert plain.all_constants() == seeded.all_constants()

    def test_interprocedural_does_use_data(self):
        # sanity: DATA is not generally ignored — only the baseline floors it
        seeded = analyze(self.WITH_DATA, cache=None)
        assert seeded.constants("use").get("c.g") == 42

    def test_baseline_counts_every_procedure(self):
        result = analyze(self.WITHOUT_DATA, self.BASELINE, cache=None)
        assert result.solved.reached == set(result.solved.val)


class TestSweepPrograms:
    SOURCES = {
        "alpha": PROGRAM,
        "beta": "program m\nn = 5\ncall s(n)\nend\n"
                "subroutine s(a)\ninteger a\nwrite a\nend\n",
    }

    def expected(self):
        return {
            name: Analyzer(source).sweep(TABLE3_CONFIGS)
            for name, source in self.SOURCES.items()
        }

    def test_sequential_matches_per_program_sweep(self):
        swept = sweep_programs(self.SOURCES, TABLE3_CONFIGS)
        expected = self.expected()
        for name, cells in swept.items():
            for config_name, cell in cells.items():
                reference = expected[name][config_name]
                assert cell.constants_found == reference.constants_found
                assert cell.constants == reference.all_constants()

    def test_parallel_matches_sequential(self):
        sequential = sweep_programs(self.SOURCES, TABLE3_CONFIGS)
        parallel = sweep_programs(self.SOURCES, TABLE3_CONFIGS, processes=2)
        for name in self.SOURCES:
            for config_name in TABLE3_CONFIGS:
                left = sequential[name][config_name]
                right = parallel[name][config_name]
                assert left.constants_found == right.constants_found
                assert left.constants == right.constants

    def test_summary_carries_counters(self):
        swept = sweep_programs(self.SOURCES, {"default": AnalysisConfig()})
        cell = swept["beta"]["default"]
        assert cell.solver_counters["pops"] >= 1
        assert "solve" in cell.timings


class TestStatsSurface:
    def test_stage0_cached_flag_tracks_cache_hits(self):
        cache = Stage0Cache()
        first = analyze(PROGRAM, cache=cache)
        second = analyze(PROGRAM, cache=cache)
        assert first.stage0_cached is False
        assert second.stage0_cached is True
        assert second.stats_json()["pipeline"]["stage0_cached"] == 1

    def test_every_timing_is_a_stage_duration(self):
        cache = Stage0Cache()
        runs = [
            analyze(PROGRAM, cache=cache),
            analyze(PROGRAM, cache=cache),
            analyze(PROGRAM, AnalysisConfig(complete=True), cache=cache),
        ]
        stages = {"lower", "modref", "returns", "forward", "solve", "record"}
        for result in runs:
            assert stages <= set(result.timings)
            for key, value in result.timings.items():
                assert key in stages, key
                assert type(value) is float and value >= 0.0, (key, value)

    def test_stats_report_mentions_everything(self):
        result = analyze(PROGRAM, cache=Stage0Cache())
        report = result.stats_report()
        for token in ("lower", "modref", "solve", "passes", "pops",
                      "evaluations", "stage0_cached"):
            assert token in report

    def test_stage0_timings_survive_cache_hits(self):
        cache = Stage0Cache()
        analyze(PROGRAM, cache=cache)
        hit = analyze(PROGRAM, cache=cache)
        assert "lower" in hit.timings and "modref" in hit.timings
