"""The configuration-independent memos — stage 1's result, stage 2's value
numbering and ``record``'s seeded SCCP — must answer exactly what a
recomputation does, and must actually spare the recomputation."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import AnalysisConfig, Analyzer, analyze
from repro.core import builder, returns, substitute
from repro.core.config import TABLE2_CONFIGS, TABLE3_CONFIGS
from repro.core.driver import Stage0Cache, _config_stages, build_stage0
from repro.core.exprs import clear_intern_table
from repro.core.solver import SolveResult
from repro.core.substitute import compute_substitutions, transform_source
from repro.frontend.symbols import parse_program
from repro.workloads.suite import load_suite

from ..properties.strategies import programs

CELLS = {**TABLE2_CONFIGS, **TABLE3_CONFIGS}

#: mutual recursion (a <-> b), self recursion (c), and a caller above the
#: cycle whose stage-1 numbering is reusable. Inside each cycle a call's
#: return JF (q = 4, r = 7) is only known to stage 2, which is what makes
#: d's entry constant: reusing a cycle member's stage-1 numbering loses it.
RECURSIVE = """\
program main
  integer n, k
  common /g/ k
  k = 3
  n = 2
  call top(n)
  write n, k
end
subroutine top(x)
  integer x, k
  common /g/ k
  call a(x)
  call c(x)
  x = x + k
end
subroutine a(p)
  integer p
  if (p > 0) then
    p = p - 1
    call b(p)
    call d(p)
  endif
end
subroutine b(q)
  integer q
  call a(q)
  q = 4
end
subroutine c(r)
  integer r
  if (r > 10) then
    r = r - 1
    call c(r)
    call d(r - 3)
  endif
  r = 7
end
subroutine d(s)
  integer s
  write s
end
"""


def cell_fingerprint(solved, subs, source):
    return (
        solved.all_constants(),
        subs.pairs,
        subs.references,
        subs.interprocedural_pairs,
        subs.interprocedural_references,
        subs.known_constants,
        subs.irrelevant_constants,
        transform_source(source, subs),
    )


def fingerprint(result):
    return cell_fingerprint(
        result.solved, result.substitutions, result.program.source
    )


def recomputed(source, config):
    """The cell with no memo at all: without an SSA cache both stages
    convert and number every procedure from scratch, and ``record`` runs
    SCCP on fresh SSA forms. (``analyze(cache=None)`` still shares one
    SSA cache between the stages of its run.)"""
    stage0 = build_stage0(parse_program(source))
    artifacts = _config_stages(
        stage0.lowered, stage0.graph, stage0.modref, config, {}, ssa_cache=None
    )
    subs = compute_substitutions(artifacts.forward, artifacts.solved)
    return cell_fingerprint(artifacts.solved, subs, source)


def assert_sweep_matches_fresh(source, configs=CELLS):
    swept = Analyzer(source, cache=Stage0Cache()).sweep(configs)
    for name, config in configs.items():
        expected = fingerprint(analyze(source, config, cache=None))
        assert fingerprint(swept[name]) == expected, name
        if not config.complete:  # complete mode has no cache-free path
            assert recomputed(source, config) == expected, name


class TestMemoEqualsRecompute:
    def test_every_table_cell_on_the_suite(self):
        for work in load_suite(0.2).values():
            assert_sweep_matches_fresh(work.source)

    def test_recursive_program_with_and_without_compose(self):
        configs = dict(CELLS)
        for name, config in TABLE2_CONFIGS.items():
            configs[f"{name}_compose"] = AnalysisConfig(
                jump_function=config.jump_function,
                use_return_jump_functions=config.use_return_jump_functions,
                compose_return_functions=True,
            )
        assert_sweep_matches_fresh(RECURSIVE, configs)

    def test_stage_two_sees_cycle_return_functions(self):
        result = analyze(RECURSIVE, cache=Stage0Cache())
        assert result.constants("d").get("s") == 4

    @given(source=programs())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_every_table_cell_on_random_programs(self, source):
        assert_sweep_matches_fresh(source)


class TestInternGenerations:
    def test_clear_between_runs_on_one_cache(self):
        cache = Stage0Cache()
        first = {
            name: fingerprint(result)
            for name, result in Analyzer(RECURSIVE, cache=cache)
            .sweep(CELLS)
            .items()
        }
        clear_intern_table()
        second = Analyzer(RECURSIVE, cache=cache).sweep(CELLS)
        assert cache.misses == 1  # one stage 0 served both sweeps
        for name, result in second.items():
            assert fingerprint(result) == first[name], name
        # the second generation rebuilt stage 1 instead of reusing the old
        stage0 = Analyzer(RECURSIVE, cache=cache).stage0
        generations = {key[2] for key in stage0.ssa_cache.returns}
        assert len(generations) == 2


class _Counter:
    def __init__(self, monkeypatch):
        self.calls = {"value_number": 0, "run_sccp": 0}
        for module, name in (
            (returns, "value_number"),
            (builder, "value_number"),
            (substitute, "run_sccp"),
        ):
            monkeypatch.setattr(module, name, self._wrap(getattr(module, name)))

    def _wrap(self, function):
        def counted(*args, **kwargs):
            self.calls[function.__name__] += 1
            return function(*args, **kwargs)

        return counted


class TestMemoReach:
    NON_COMPLETE = {
        name: config for name, config in CELLS.items() if not config.complete
    }

    def test_value_numbering_runs_once_per_form_and_key(self, monkeypatch):
        source = load_suite(0.2)["ocean"].source
        counter = _Counter(monkeypatch)
        analyzer = Analyzer(source, cache=Stage0Cache())
        analyzer.sweep(self.NON_COMPLETE)
        procs = len(analyzer.stage0.lowered.procedures)
        # two stage-1 builds (with and without MOD), plus stage 2's one
        # numbering without return JFs; every other stage-2 numbering is
        # stage 1's (no procedure of ocean is on a call-graph cycle).
        assert counter.calls["value_number"] == 3 * procs

    def test_second_sweep_recomputes_nothing(self, monkeypatch):
        analyzer = Analyzer(RECURSIVE, cache=Stage0Cache())
        analyzer.sweep(self.NON_COMPLETE)
        counter = _Counter(monkeypatch)
        analyzer.sweep(self.NON_COMPLETE)
        assert counter.calls == {"value_number": 0, "run_sccp": 0}

    def test_cycle_members_are_renumbered_in_stage_two(self, monkeypatch):
        counter = _Counter(monkeypatch)
        analyzer = Analyzer(RECURSIVE, cache=Stage0Cache())
        analyzer.run(AnalysisConfig())
        # six procedures in stage 1; a, b (mutual) and c (self) again
        assert counter.calls["value_number"] == 6 + 3


class TestRecordMemo:
    def test_entry_environment_key_is_type_tagged(self):
        source = (
            "program m\n  integer n\n  n = 1\n  call s(n)\nend\n"
            "subroutine s(a)\n  integer a\n  write a\nend\n"
        )
        result = analyze(source, cache=Stage0Cache())
        ssa = result.forward.ssas["s"]
        found = {}
        for value in (1, True):
            solved = SolveResult(val={"m": {}, "s": {"a": value}})
            solved.reached.update(("m", "s"))
            report = compute_substitutions(result.forward, solved)
            ((_, substituted, _),) = report.per_procedure["s"].references
            found[value.__class__] = substituted
        assert found[int] == 1 and type(found[int]) is int
        assert found[bool] is True
        assert len(ssa.references) == 2

    @pytest.mark.parametrize("name", ["polynomial", "intraprocedural_only"])
    def test_repeat_cell_reuses_references(self, name, monkeypatch):
        analyzer = Analyzer(RECURSIVE, cache=Stage0Cache())
        first = analyzer.run(CELLS[name])
        counter = _Counter(monkeypatch)
        second = analyzer.run(CELLS[name])
        assert counter.calls["run_sccp"] == 0
        assert fingerprint(first) == fingerprint(second)
