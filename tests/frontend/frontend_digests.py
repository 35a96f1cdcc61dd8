"""Digests of everything the front end produces, for equivalence checks.

``test_frontend_equivalence`` compares these digests with the ones
recorded in ``data/frontend_digests.json``. The recorded file pins the
front end's observable output: token streams (kind, value, line, column
and offsets), unresolved and resolved ASTs (every field and span), Table 1
``characteristics()``, the transformed source of a default analysis, the
outcome of parsing a seeded corpus of malformed mutants (error class and
message, or the AST when a mutant still parses), and the SARIF and JSON
lint output of ``examples/lint_findings.f``.

Regenerate the file (only when a change to the front end's output is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.frontend.frontend_digests --write
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import glob
import hashlib
import json
import os
import random
import re
import string

from repro.core.driver import analyze
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_source
from repro.frontend.symbols import resolve
from repro.workloads import load, suite_names
from repro.workloads.suite import large_names

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "frontend_digests.json")
LINT_EXAMPLE = "examples/lint_findings.f"

#: mutants in the malformed corpus, and the seed that picks them.
MUTANTS = 2000
MUTANT_SEED = "frontend-mutants"
#: ASCII only: non-ASCII input is a lexical error by design.
_ALPHABET = string.printable
_LEXEMES = (
    ".eq.", ".and.", ".not.", ".true.", ".x.", ".", "1.", ".5", "1e", "1d+",
    "2.e3", "e5", "**", "/=", "==", "<=", "&", "&\n", "'", '"', "!", "(", ")",
    ",", "=", "\n", " 10 ", "goto", "end", "if (", "then", "enddo", "call ",
)


def _hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _span(span) -> list[int]:
    return [span.start.line, span.start.column, span.start.offset,
            span.end.line, span.end.column, span.end.offset]


def _scalar(value):
    # repr keeps int/float/bool apart (1, 1.0 and True all differ).
    return repr(value)


def dump_node(node):
    """A JSON-able rendering of an AST (sub)tree, spans included."""
    if type(node).__name__ == "SourceSpan":
        return ["span", *_span(node)]
    if dataclasses.is_dataclass(node):
        return [type(node).__name__,
                {f.name: dump_node(getattr(node, f.name))
                 for f in dataclasses.fields(node)}]
    if isinstance(node, enum.Enum):
        return f"{type(node).__name__}.{node.name}"
    if isinstance(node, (list, tuple)):
        return [dump_node(item) for item in node]
    if isinstance(node, dict):
        return {str(key): dump_node(value) for key, value in node.items()}
    return _scalar(node)


def token_digest(source: str) -> str:
    return _hash([[tok.kind.name, _scalar(tok.value), *_span(tok.span)]
                  for tok in tokenize(source)])


def program_digests(source: str, *, transform: bool = True) -> dict[str, str]:
    """Token, AST, characteristics and transformed-source digests."""
    unit = parse_source(source)
    digests = {"tokens": token_digest(source), "ast": _hash(dump_node(unit))}
    program = resolve(unit)
    digests["resolved_ast"] = _hash(dump_node(unit))
    digests["characteristics"] = _hash(program.characteristics())
    if transform:
        result = analyze(program, cache=None)
        digests["transformed"] = _hash(result.transformed_source())
    return digests


def outcome(source: str):
    """What the front end makes of ``source``: the unresolved AST (when it
    parses) and then the resolved AST, each failure as error class and
    message."""
    try:
        unit = parse_source(source)
    except Exception as error:  # the class is part of the outcome
        return [type(error).__name__, str(error)]
    parsed = _hash(dump_node(unit))
    try:
        resolve(unit)
    except Exception as error:
        return [parsed, type(error).__name__, str(error)]
    return [parsed, "ok", _hash(dump_node(unit))]


_UNIT_START = re.compile(
    r"^(program|subroutine|integer function|real function|logical function)\b",
    re.MULTILINE,
)


def mutant_bases() -> list[str]:
    """Small whole programs to mutate: the examples, and the first program
    units (about 60 lines) of each suite program at scale 0.1."""
    bases = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.f"))):
        with open(path) as handle:
            bases.append(handle.read())
    for name in suite_names():
        source = load(name, 0.1).source
        starts = [m.start() for m in _UNIT_START.finditer(source)] + [len(source)]
        end = next((s for s in starts[1:] if source.count("\n", 0, s) >= 60), len(source))
        bases.append(source[:end])
    return bases


def _mutate(source: str, rng: random.Random) -> str:
    pos = rng.randrange(len(source) + 1)
    op = rng.randrange(7)
    if op == 0:
        return source[:pos] + source[pos + 1:]
    if op == 1:
        return source[:pos] + rng.choice(_ALPHABET) + source[pos:]
    if op == 2:
        return source[:pos] + rng.choice(_ALPHABET) + source[pos + 1:]
    if op == 3:
        width = rng.randint(1, 8)
        return source[:pos] + source[pos:pos + width] + source[pos:]
    if op == 4:
        return source[:pos] + source[pos + rng.randint(1, 12):]
    if op == 5:
        return source[:pos] + source[pos + 1:pos + 2] + source[pos:pos + 1] + source[pos + 2:]
    return source[:pos] + rng.choice(_LEXEMES) + source[pos:]


def mutants() -> list[str]:
    """The seeded malformed corpus: one to three edits per mutant."""
    rng = random.Random(MUTANT_SEED)
    bases = mutant_bases()
    corpus = []
    for number in range(MUTANTS):
        source = bases[number % len(bases)]
        for _ in range(rng.randint(1, 3)):
            source = _mutate(source, rng)
        corpus.append(source)
    return corpus


def mutant_outcomes() -> list[str]:
    """One short digest per mutant, in corpus order."""
    return [_hash(outcome(source))[:16] for source in mutants()]


def lint_outputs() -> dict[str, str]:
    """SARIF and JSON renderings of the lint example's findings."""
    from repro.diagnostics import run_passes
    from repro.diagnostics.emit import EMITTERS

    with open(os.path.join(ROOT, LINT_EXAMPLE)) as handle:
        report = run_passes(handle.read(), path=LINT_EXAMPLE)
    return {fmt: EMITTERS[fmt](report) for fmt in ("sarif", "json")}


def corpus_sources(*, large: bool) -> dict[str, str]:
    """The programs whose full digests are pinned."""
    sources = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.f"))):
        with open(path) as handle:
            sources[f"examples/{os.path.basename(path)}"] = handle.read()
    for name in suite_names():
        sources[f"suite/{name}"] = load(name).source
    if large:
        for name in large_names():
            sources[f"large/{name}"] = load(name).source
    return sources


def compute() -> dict:
    return {
        "programs": {label: program_digests(source)
                     for label, source in corpus_sources(large=True).items()},
        "mutants": mutant_outcomes(),
        "lint": {fmt: _hash(text) for fmt, text in lint_outputs().items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the digests to {os.path.relpath(DATA_PATH, ROOT)}")
    args = parser.parse_args()
    digests = compute()
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if args.write:
        os.makedirs(os.path.dirname(DATA_PATH), exist_ok=True)
        with open(DATA_PATH, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
