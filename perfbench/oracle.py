"""Correctness checks, run after the timed pass.

- Every claimed constant must hold on execution: the reference
  interpreter runs the original program and ``check_soundness`` compares
  each CONSTANTS claim with every recorded procedure entry.
- A transformed program (constants substituted into the text) must
  print exactly what its original prints.
- A daemon answer, whatever tier served it, must equal a cold
  ``analyze`` of the same source under the same configuration.

Interpreting every transformed table cell and re-solving every daemon
request would cost more than the timed pass, so those two checks take a
seeded subset whose size :data:`TABLE_TRANSFORM_SAMPLE` and
:data:`DAEMON_SAMPLE_PER_TIER` fix. Soundness is checked for every unit,
daemon answers included: each distinct request source is run once.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro.core import driver
from repro.frontend.symbols import parse_program
from repro.interp import check_soundness, run_program
from repro.service.protocol import parse_request

#: transformed table cells interpreted per program.
TABLE_TRANSFORM_SAMPLE = 1
#: daemon answers re-derived cold, per serving tier.
DAEMON_SAMPLE_PER_TIER = 6


def _claims_view(procedures, solved):
    """The two attributes ``check_soundness`` reads, without keeping the
    whole AnalysisResult (and its lowered program) alive through a pass."""
    return SimpleNamespace(lowered=SimpleNamespace(procedures=procedures),
                           solved=solved)


def _same_run(left, right) -> bool:
    return left.outputs == right.outputs and left.stopped == right.stopped


def check_executions(programs: dict, units, evidence, seed: int,
                     transform_share: int | None) -> int:
    """Soundness of every unit, and output equality of the transformed
    text for ``transform_share`` seeded units per program (None = all).
    Marks failing units and returns how many checks ran."""
    rng = random.Random(f"oracle:{seed}")
    by_program: dict[str, list[int]] = {}
    for index, (program, _procs, _solved, _text) in sorted(evidence.items()):
        by_program.setdefault(program, []).append(index)
    checks = 0
    for program, indices in by_program.items():
        work = programs[program]
        original = run_program(work.source, inputs=work.inputs)
        for index in indices:
            _, procedures, solved, _ = evidence[index]
            violations = check_soundness(_claims_view(procedures, solved), original)
            checks += 1
            if violations:
                units[index].failure = f"unsound: {violations[0]}"
        changed = [i for i in indices if evidence[i][3] != work.source]
        if transform_share is not None and len(changed) > transform_share:
            changed = rng.sample(changed, transform_share)
        for index in changed:
            transformed = run_program(evidence[index][3], inputs=work.inputs)
            checks += 1
            if not _same_run(original, transformed):
                units[index].failure = "transformed program's output differs"
    return checks


def render_constprop(result) -> dict:
    """A cold result rendered the way the daemon renders constprop."""
    return {
        "constants_found": result.constants_found,
        "references_substituted": result.references_substituted,
        "constants": {
            proc: {name: str(value) for name, value in sorted(constants.items())}
            for proc, constants in result.all_constants().items()
            if constants
        },
    }


def _rendered_entries(source: str, inputs) -> dict[str, list[dict]]:
    """Run ``source`` and render every recorded procedure entry the way
    the daemon renders constants: display names, ``str`` values."""
    program = parse_program(source)
    trace = run_program(program, inputs=inputs)
    return {
        proc: [
            {
                key if isinstance(key, str) else program.global_display(key):
                str(value)
                for key, value in snapshot.items()
            }
            for snapshot in snapshots
        ]
        for proc, snapshots in trace.entries.items()
    }


def _unsound_claim(answer: dict, entries: dict) -> str | None:
    """The first rendered constant some execution contradicts, if any."""
    for proc, claims in answer["constants"].items():
        for invocation, snapshot in enumerate(entries.get(proc.lower(), [])):
            for name, claimed in claims.items():
                if name in snapshot and snapshot[name] != claimed:
                    return (f"{proc}.{name} = {claimed} but entry {invocation} "
                            f"saw {snapshot[name]}")
    return None


def check_daemon(programs: dict, units, evidence, seed: int) -> int:
    """Soundness of every daemon answer, and a seeded per-tier sample of
    answers re-derived cold."""
    checks = 0
    entries: dict[str, dict] = {}
    for index in sorted(evidence):
        program, request, answer = evidence[index]
        source = request["source"]
        if source not in entries:
            entries[source] = _rendered_entries(source, programs[program].inputs)
        violation = _unsound_claim(answer, entries[source])
        checks += 1
        if violation:
            units[index].failure = f"unsound: {violation}"

    rng = random.Random(f"oracle:{seed}")
    by_tier: dict[str, list[int]] = {}
    for index in sorted(evidence):
        by_tier.setdefault(units[index].tier, []).append(index)
    for tier in sorted(by_tier):
        indices = by_tier[tier]
        if len(indices) > DAEMON_SAMPLE_PER_TIER:
            indices = rng.sample(indices, DAEMON_SAMPLE_PER_TIER)
        for index in indices:
            _program, request, answer = evidence[index]
            config = parse_request(request, default_id="oracle").config
            cold = driver.analyze(request["source"], config, cache=None)
            checks += 1
            if render_constprop(cold) != answer:
                units[index].failure = f"{tier} answer differs from a cold analyze"
    return checks
