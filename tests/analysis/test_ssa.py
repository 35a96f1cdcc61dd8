"""Unit tests for SSA construction."""

import dataclasses

from repro.analysis.ssa import build_ssa, ensure_global_symbols
from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.frontend import parse_program
from repro.ir import lower_program
from repro.ir.instructions import Call, CallKill, Copy, Phi, SSAName, VarDef


def ssa_of(source, proc="t", use_mod=True):
    lowered = lower_program(parse_program(source))
    ensure_global_symbols(lowered)
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph) if use_mod else None
    effects = make_call_effects(lowered, proc, modref)
    return build_ssa(lowered.procedure(proc), effects), lowered


def main_src(body_lines, extra=""):
    return "program t\n" + "\n".join(body_lines) + "\nend\n" + extra


def defs_of(ssa, name):
    found = []
    for _, instr in ssa.cfg.instructions():
        dest = instr.dest
        if isinstance(dest, VarDef) and dest.symbol.name == name:
            found.append(dest)
    return found


class TestRenaming:
    def test_straightline_versions_increment(self):
        ssa, _ = ssa_of(main_src(["n = 1", "n = 2", "n = 3"]))
        versions = [d.version for d in defs_of(ssa, "n")]
        assert versions == [1, 2, 3]

    def test_uses_see_latest_version(self):
        ssa, _ = ssa_of(main_src(["n = 1", "m = n", "n = 2", "k = n"]))
        copies = [
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Copy) and isinstance(i.src, SSAName)
            and i.src.symbol.name == "n"
        ]
        assert [c.src.version for c in copies] == [1, 2]

    def test_entry_version_zero_for_unassigned_use(self):
        ssa, _ = ssa_of(main_src(["m = n"]))
        use = next(
            i.src
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Copy) and isinstance(i.src, SSAName)
        )
        assert use.version == 0

    def test_spans_preserved_through_renaming(self):
        source = main_src(["m = n"])
        ssa, _ = ssa_of(source)
        use = next(
            i.src
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Copy) and isinstance(i.src, SSAName)
        )
        assert use.span.extract(source) == "n"

    def test_original_cfg_untouched(self):
        lowered = lower_program(parse_program(main_src(["n = 1", "m = n"])))
        before = [
            type(i).__name__ for _, i in lowered.procedure("t").cfg.instructions()
        ]
        build_ssa(lowered.procedure("t"))
        after = [
            type(i).__name__ for _, i in lowered.procedure("t").cfg.instructions()
        ]
        assert before == after
        # and no SSA names leaked into the original
        for _, instr in lowered.procedure("t").cfg.instructions():
            for operand in instr.uses():
                assert not isinstance(operand, SSAName)


class TestPhiPlacement:
    def test_diamond_gets_phi(self):
        ssa, _ = ssa_of(
            main_src(
                ["if (c > 0) then", "n = 1", "else", "n = 2", "endif", "m = n"]
            )
        )
        phis = [i for _, i in ssa.cfg.instructions() if isinstance(i, Phi)]
        phi_names = {p.dest.symbol.name for p in phis}
        assert "n" in phi_names

    def test_phi_has_input_per_predecessor(self):
        ssa, _ = ssa_of(
            main_src(
                ["if (c > 0) then", "n = 1", "else", "n = 2", "endif", "m = n"]
            )
        )
        phi = next(
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi) and i.dest.symbol.name == "n"
        )
        block = next(b for b, i in ssa.cfg.instructions() if i is phi)
        assert set(phi.incoming) == set(block.preds)
        incoming_versions = {v.version for v in phi.incoming.values()}
        assert len(incoming_versions) == 2
        assert phi.dest.version not in incoming_versions

    def test_loop_phi_merges_entry_and_backedge(self):
        ssa, _ = ssa_of(
            main_src(["n = 0", "do while (n < 3)", "n = n + 1", "enddo", "m = n"])
        )
        phis = [
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi) and i.dest.symbol.name == "n"
        ]
        assert phis
        header_phi = phis[0]
        assert len(header_phi.incoming) == 2

    def test_no_phi_for_single_def_variable(self):
        ssa, _ = ssa_of(
            main_src(["n = 5", "if (c > 0) then", "m = n", "endif", "k = n"])
        )
        phi_names = {
            i.dest.symbol.name
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi)
        }
        assert "n" not in phi_names


class TestExitVersions:
    def test_exit_version_after_single_path(self):
        ssa, _ = ssa_of(main_src(["n = 1", "n = 2"]))
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        assert ssa.exit_versions[symbol] == 2
        assert ssa.exit_reachable

    def test_exit_version_merges_branches(self):
        ssa, _ = ssa_of(
            main_src(["if (c > 0) then", "n = 1", "else", "n = 2", "endif"])
        )
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        version = ssa.exit_versions[symbol]
        # the exit-reaching version is the phi merge, not either branch's
        from repro.ir.instructions import Phi

        phi = next(
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi) and i.dest.symbol is symbol
        )
        assert version == phi.dest.version
        assert version not in {v.version for v in phi.incoming.values()}

    def test_stop_only_procedure_has_unreachable_exit(self):
        ssa, _ = ssa_of(main_src(["n = 1", "stop"]))
        assert not ssa.exit_reachable
        assert ssa.exit_versions == {}


class TestCallEffects:
    SUB = "subroutine s(a, b)\ninteger a, b\na = b + 1\nend\n"

    def test_modified_actual_killed(self):
        src = main_src(["integer n, m", "n = 1", "m = 2", "call s(n, m)",
                        "k = n", "j = m"], self.SUB)
        ssa, _ = ssa_of(src)
        kills = [i for _, i in ssa.cfg.instructions() if isinstance(i, CallKill)]
        killed_names = {k.target.symbol.name for k in kills}
        assert killed_names == {"n"}  # only formal 'a' is modified

    def test_kill_binding_names_formal(self):
        src = main_src(["integer n, m", "call s(n, m)"], self.SUB)
        ssa, _ = ssa_of(src)
        kill = next(i for _, i in ssa.cfg.instructions() if isinstance(i, CallKill))
        assert kill.binding == ("formal", "a")

    def test_no_mod_kills_everything_visible(self):
        src = main_src(["integer n, m", "call s(n, m)"], self.SUB)
        ssa, _ = ssa_of(src, use_mod=False)
        kills = [i for _, i in ssa.cfg.instructions() if isinstance(i, CallKill)]
        killed_names = {k.target.symbol.name for k in kills}
        assert killed_names == {"n", "m"}

    def test_use_after_call_sees_kill_version(self):
        src = main_src(["integer n, m", "n = 1", "call s(n, m)", "k = n"],
                       self.SUB)
        ssa, _ = ssa_of(src)
        uses_of_n = [
            op
            for _, i in ssa.cfg.instructions()
            if not isinstance(i, (Phi, Call))
            for op in i.uses()
            if isinstance(op, SSAName) and op.symbol.name == "n"
        ]
        # the final use must be the post-kill version (2), not 1
        assert uses_of_n[-1].version == 2

    def test_global_versions_snapshotted_at_calls(self):
        src = (
            "program t\ncommon /c/ g\ninteger g\ng = 7\ncall s(g, g)\nend\n"
            + self.SUB
        )
        ssa, _ = ssa_of(src)
        call = ssa.calls()[0]
        snapshot = ssa.call_versions[call.site_id]
        g_symbol = next(s for s in snapshot if s.name == "g")
        assert snapshot[g_symbol] == 1  # version after 'g = 7'


class TestHiddenGlobals:
    def test_hidden_symbol_created_for_undeclared_global(self):
        src = """
program t
  common /c/ g
  integer g
  g = 1
  call middle
end
subroutine middle
  call bottom
end
subroutine bottom
  common /c/ h
  integer h
  h = 2
end
"""
        lowered = lower_program(parse_program(src))
        ensure_global_symbols(lowered)
        middle = lowered.procedure("middle").procedure
        hidden = [s for s in middle.symtab if s.hidden and s.kind.value == "global"]
        assert len(hidden) == 1
        assert hidden[0].global_id.block == "c"

    def test_ensure_global_symbols_idempotent(self):
        src = "program t\ncommon /c/ g\ninteger g\ng = 1\nend\n"
        lowered = lower_program(parse_program(src))
        ensure_global_symbols(lowered)
        count1 = len(lowered.procedure("t").procedure.symtab)
        ensure_global_symbols(lowered)
        assert len(lowered.procedure("t").procedure.symtab) == count1


class TestEntryUseSpans:
    def test_entry_uses_found(self):
        source = main_src(["m = n + n"])
        ssa, _ = ssa_of(source)
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        spans = ssa.entry_use_spans(symbol)
        assert len(spans) == 2
        assert all(s.extract(source) == "n" for s in spans)

    def test_redefined_uses_excluded(self):
        source = main_src(["m = n", "n = 5", "k = n"])
        ssa, _ = ssa_of(source)
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        assert len(ssa.entry_use_spans(symbol)) == 1


class TestStructuralClone:
    """``copy_cfg`` must equal a deep copy, and share nothing mutable."""

    @staticmethod
    def suite_procedures(scale=0.2):
        from repro.workloads.suite import load_suite

        for name, work in load_suite(scale).items():
            lowered = lower_program(parse_program(work.source))
            ensure_global_symbols(lowered)
            for proc in lowered.procedures.values():
                yield name, proc

    @staticmethod
    def listing(cfg):
        from repro.ir.printer import format_cfg

        exact = [
            (block_id, list(block.preds), [repr(i) for i in block.instrs])
            for block_id, block in cfg.blocks.items()
        ]
        return (format_cfg(cfg), exact, cfg.entry_id, cfg.exit_id, cfg._next_id)

    def test_clone_prints_like_deepcopy_on_suite(self):
        import copy

        from repro.analysis.ssa import copy_cfg

        count = 0
        for _program, proc in self.suite_procedures():
            reference = copy.deepcopy(proc.cfg)
            assert self.listing(copy_cfg(proc.cfg)) == self.listing(reference)
            count += 1
        assert count > 100

    def test_clone_shares_no_mutable_part(self):
        from repro.analysis.ssa import copy_cfg

        for _program, proc in self.suite_procedures():
            clone = copy_cfg(proc.cfg)
            for block_id, block in proc.cfg.blocks.items():
                twin = clone.blocks[block_id]
                assert twin is not block
                assert twin.instrs is not block.instrs
                assert twin.preds is not block.preds
                for instr, copied in zip(block.instrs, twin.instrs):
                    assert copied is not instr
                    for field in dataclasses.fields(instr):
                        value = getattr(instr, field.name)
                        if isinstance(value, (list, dict)):
                            assert getattr(copied, field.name) is not value
                    if isinstance(instr, Call):
                        for arg, twin_arg in zip(instr.args, copied.args):
                            assert twin_arg is not arg
                            assert twin_arg.indices is not arg.indices

    def test_call_kills_follow_their_cloned_call(self):
        from repro.analysis.ssa import copy_cfg, instrument_call_kills

        source = main_src(["n = 1", "call s(n)", "write n"],
                          "subroutine s(a)\na = 2\nend\n")
        lowered = lower_program(parse_program(source))
        ensure_global_symbols(lowered)
        graph = build_call_graph(lowered)
        effects = make_call_effects(
            lowered, "t", compute_modref(lowered, graph)
        )
        cfg = copy_cfg(lowered.procedure("t").cfg)
        instrument_call_kills(cfg, effects)
        clone = copy_cfg(cfg)
        calls = [i for _, i in clone.instructions() if isinstance(i, Call)]
        kills = [i for _, i in clone.instructions() if isinstance(i, CallKill)]
        assert kills and all(kill.call is calls[0] for kill in kills)

    def test_mutating_ssa_leaves_lowered_cfg_intact(self):
        from repro.ir.printer import format_cfg

        source = main_src(
            ["n = 1", "if (n > 0) then", "n = 2", "endif",
             "call s(n, n + 1)", "write n"],
            "subroutine s(a, b)\na = b\nend\n",
        )
        ssa, lowered = ssa_of(source)
        before = format_cfg(lowered.procedure("t").cfg)
        mutated = 0
        for _, instr in ssa.cfg.instructions():
            if isinstance(instr, Call):
                for arg in instr.args:
                    arg.value = SSAName(arg.symbol or ssa.variables[0], 99)
                    arg.indices.append(SSAName(ssa.variables[0], 98))
                instr.args.append(instr.args[0])
                mutated += 1
            elif isinstance(instr, Phi):
                for block_id in list(instr.incoming):
                    instr.incoming[block_id] = SSAName(ssa.variables[0], 97)
                instr.incoming[-5] = SSAName(ssa.variables[0], 96)
                mutated += 1
        assert mutated >= 2
        assert format_cfg(lowered.procedure("t").cfg) == before
