"""Unit tests for interprocedural MOD/REF analysis."""

from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.frontend import parse_program
from repro.frontend.symbols import GlobalId
from repro.ir import lower_program
from repro.analysis.ssa import ensure_global_symbols


def modref_of(source):
    lowered = lower_program(parse_program(source))
    ensure_global_symbols(lowered)
    graph = build_call_graph(lowered)
    return compute_modref(lowered, graph), lowered


class TestDirectEffects:
    def test_assigned_formal_in_mod(self):
        source = """
program main
  call s(n)
end
subroutine s(a)
  integer a
  a = 1
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("s", "a")

    def test_read_only_formal_not_in_mod(self):
        source = """
program main
  call s(n)
end
subroutine s(a)
  integer a
  b = a
end
"""
        info, _ = modref_of(source)
        assert not info.modifies_formal("s", "a")
        assert info.references_formal("s", "a")

    def test_assigned_global_in_mod(self):
        source = """
program main
  common /c/ g
  integer g
  call s
end
subroutine s
  common /c/ h
  integer h
  h = 1
end
"""
        info, _ = modref_of(source)
        assert info.modifies_global("s", GlobalId("c", 0))

    def test_array_store_mods_array(self):
        source = """
program main
  call s(v)
  integer v(5)
end
"""
        # declarations first; rebuild correctly
        source = """
program main
  integer v(5)
  call s(v)
end
subroutine s(w)
  integer w(5)
  w(1) = 0
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("s", "w")

    def test_read_statement_is_mod(self):
        source = """
program main
  call s(n)
end
subroutine s(a)
  integer a
  read a
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("s", "a")


class TestTransitiveEffects:
    NEST = """
program main
  integer n
  call outer(n)
end
subroutine outer(p)
  integer p
  call inner(p)
end
subroutine inner(q)
  integer q
  q = 9
end
"""

    def test_mod_propagates_through_binding(self):
        info, _ = modref_of(self.NEST)
        assert info.modifies_formal("inner", "q")
        assert info.modifies_formal("outer", "p")

    def test_global_mod_propagates_to_callers(self):
        source = """
program main
  call middle
end
subroutine middle
  call leaf
end
subroutine leaf
  common /c/ g
  integer g
  g = 1
end
"""
        info, _ = modref_of(source)
        assert info.modifies_global("middle", GlobalId("c", 0))
        assert info.modifies_global("main", GlobalId("c", 0))

    def test_value_argument_breaks_mod_chain(self):
        source = """
program main
  integer n
  call outer(n)
end
subroutine outer(p)
  integer p
  call inner(p + 0)
end
subroutine inner(q)
  integer q
  q = 9
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("inner", "q")
        assert not info.modifies_formal("outer", "p")

    def test_global_passed_as_actual(self):
        source = """
program main
  common /c/ g
  integer g
  call s(g)
end
subroutine s(a)
  integer a
  a = 3
end
"""
        info, _ = modref_of(source)
        assert info.modifies_global("main", GlobalId("c", 0))

    def test_recursive_mod_converges(self):
        source = """
program main
  integer n
  call rec(n, 3)
end
subroutine rec(a, d)
  integer a, d
  if (d > 0) then
    call rec(a, d - 1)
  else
    a = 0
  endif
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("rec", "a")
        assert not info.modifies_formal("rec", "d")


class TestCallEffectsFactory:
    SRC = """
program main
  common /c/ g, h
  integer g, h
  integer n, m
  call s(n, m)
end
subroutine s(a, b)
  integer a, b
  common /c/ x, y
  integer x, y
  a = 1
  x = 2
end
"""

    def test_with_mod_kills_exact_set(self):
        info, lowered = modref_of(self.SRC)
        effects = make_call_effects(lowered, "main", info)
        call = lowered.procedure("main").call_instrs[0]
        kills = effects(call)
        killed = {symbol.name for symbol, _ in kills}
        assert killed == {"n", "g"}

    def test_without_mod_kills_all_visible(self):
        info, lowered = modref_of(self.SRC)
        effects = make_call_effects(lowered, "main", None)
        call = lowered.procedure("main").call_instrs[0]
        killed = {symbol.name for symbol, _ in effects(call)}
        assert killed == {"n", "m", "g", "h"}

    def test_without_mod_a_global_actual_is_not_rescued(self):
        # The callee may write g through COMMON as well as through its
        # formal, so only the alias kill (no return jump function) applies.
        source = """
program main
  common /c/ g
  integer g
  g = 1
  call s(g)
  call s(0)
end
subroutine s(p)
  integer p
  common /c/ g
  integer g
  g = 0
  write p
end
"""
        _info, lowered = modref_of(source)
        effects = make_call_effects(lowered, "main", None)
        call = lowered.procedure("main").call_instrs[0]
        assert [binding for _, binding in effects(call)] == [("alias", GlobalId("c", 0))]

        from repro import AnalysisConfig, JumpFunctionKind, analyze
        from repro.interp import check_soundness, run_program

        config = AnalysisConfig(JumpFunctionKind.POLYNOMIAL, use_mod=False)
        result = analyze(source, config, cache=None)
        assert check_soundness(result, run_program(source)) == []
        assert "c.g" not in result.constants("s")

    def test_bindings_describe_callee_keys(self):
        info, lowered = modref_of(self.SRC)
        effects = make_call_effects(lowered, "main", info)
        call = lowered.procedure("main").call_instrs[0]
        bindings = {binding for _, binding in effects(call)}
        assert ("formal", "a") in bindings
        assert ("global", GlobalId("c", 0)) in bindings


class TestRecursion:
    """MOD/REF must reach a fixpoint through recursive call cycles."""

    def test_direct_recursion_propagates_effects(self):
        source = """
program main
  integer n
  n = 5
  call f(n)
end
subroutine f(a)
  integer a
  if (a > 0) then
    a = a - 1
    call f(a)
  endif
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("f", "a")
        assert info.references_formal("f", "a")

    def test_mutual_recursion_carries_mod_around_the_cycle(self):
        # g writes its formal directly; f only does so via the f→g edge,
        # and g's recursive call back to f closes the cycle the solver
        # must iterate through.
        source = """
program main
  integer n
  n = 3
  call f(n)
end
subroutine f(a)
  integer a
  call g(a)
end
subroutine g(b)
  integer b
  if (b > 0) then
    call f(b)
  endif
  b = 0
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("g", "b")
        assert info.modifies_formal("f", "a")
        assert info.references_formal("g", "b")
        assert info.references_formal("f", "a")


class TestGlobalThroughTwoChains:
    """One COMMON slot MOD'd via one call chain and REF'd via another:
    both effects must surface in every caller on the respective chain."""

    SRC = """
program main
  common /c/ g
  integer g
  call chainw
  call chainr
end
subroutine chainw
  call leafw
end
subroutine leafw
  common /c/ w
  integer w
  w = 7
end
subroutine chainr
  call leafr
end
subroutine leafr
  common /c/ r
  integer r
  write r
end
"""

    def test_effects_at_the_leaves(self):
        info, _ = modref_of(self.SRC)
        gid = GlobalId("c", 0)
        assert info.modifies_global("leafw", gid)
        assert not info.references_global("leafw", gid)
        assert info.references_global("leafr", gid)
        assert not info.modifies_global("leafr", gid)

    def test_each_chain_carries_only_its_own_effect(self):
        info, _ = modref_of(self.SRC)
        gid = GlobalId("c", 0)
        assert info.modifies_global("chainw", gid)
        assert not info.references_global("chainw", gid)
        assert info.references_global("chainr", gid)
        assert not info.modifies_global("chainr", gid)

    def test_main_sees_both_effects(self):
        info, _ = modref_of(self.SRC)
        gid = GlobalId("c", 0)
        assert info.modifies_global("main", gid)
        assert info.references_global("main", gid)


class TestZeroFormals:
    def test_procedure_with_no_formals(self):
        source = """
program main
  common /c/ g
  integer g
  call setup
  write g
end
subroutine setup
  common /c/ x
  integer x
  x = 42
end
"""
        info, lowered = modref_of(source)
        assert lowered.procedure("setup").procedure.formals == []
        assert info.mod_formals["setup"] == set()
        assert info.ref_formals["setup"] == set()
        assert info.modifies_global("setup", GlobalId("c", 0))
