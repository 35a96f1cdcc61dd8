"""The front end reproduces its recorded output byte for byte.

``data/frontend_digests.json`` holds digests of token streams, ASTs,
Table 1 characteristics, transformed source, a seeded corpus of malformed
mutants and the lint example's SARIF/JSON output; see
:mod:`tests.frontend.frontend_digests` for what each covers and how to
regenerate it.
"""

import json

import pytest

from tests.frontend import frontend_digests as fd

with open(fd.DATA_PATH) as _handle:
    RECORDED = json.load(_handle)

_SMALL = fd.corpus_sources(large=False)
_LARGE = {label: source for label, source in fd.corpus_sources(large=True).items()
          if label not in _SMALL}


@pytest.mark.parametrize("label", sorted(_SMALL))
def test_program_digests(label):
    assert fd.program_digests(_SMALL[label]) == RECORDED["programs"][label]


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(_LARGE))
def test_large_program_digests(label):
    assert fd.program_digests(_LARGE[label]) == RECORDED["programs"][label]


def test_every_recorded_program_is_checked():
    assert set(RECORDED["programs"]) == set(_SMALL) | set(_LARGE)


def test_malformed_mutants_keep_their_outcome():
    corpus = fd.mutants()
    assert len(corpus) == len(RECORDED["mutants"]) == fd.MUTANTS
    changed = [
        (number, fd.outcome(source))
        for number, (source, recorded) in enumerate(zip(corpus, RECORDED["mutants"]))
        if fd._hash(fd.outcome(source))[:16] != recorded
    ]
    assert not changed, changed[:5]


def test_lint_example_output_is_unchanged():
    outputs = fd.lint_outputs()
    assert {fmt: fd._hash(text) for fmt, text in outputs.items()} == RECORDED["lint"]
