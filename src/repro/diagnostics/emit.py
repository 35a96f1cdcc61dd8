"""Render a :class:`~repro.diagnostics.core.LintReport` for humans,
scripts, and editors.

Three formats, one report type:

- :func:`emit_text` — one finding per line, ``path:line:col: severity
  CODE [pass] message``, plus a summary line; for terminals.
- :func:`emit_json` — a versioned, stable-key-order document; for CI
  gates (``jq '.summary.error'``).
- :func:`emit_sarif` — SARIF 2.1.0, the static-analysis interchange
  format GitHub code scanning and most editors ingest; rule metadata is
  published from the registered code descriptions.

All three are deterministic: the report is expected to be pre-sorted
(``run_passes`` and ``LintReport.merged`` both guarantee that), and the
emitters add no timestamps or environment-dependent fields.
"""

from __future__ import annotations

import json

from repro import __version__
from repro.diagnostics.core import CODE_DESCRIPTIONS, LintReport, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Severity -> SARIF result level. SARIF has no "info" level; "note" is
#: its informational tier.
_SARIF_LEVELS = {
    Severity.INFO: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


def emit_text(report: LintReport) -> str:
    """Human-readable listing with a trailing summary line."""
    lines = [diag.format_text() for diag in report.diagnostics]
    counts = report.counts()
    lines.append(
        f"{len(report.diagnostics)} finding(s): "
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info"
    )
    return "\n".join(lines) + "\n"


def emit_json(report: LintReport) -> str:
    """Versioned JSON document: diagnostics plus severity summary."""
    payload = {
        "version": 1,
        "diagnostics": [diag.to_dict() for diag in report.diagnostics],
        "summary": report.counts(),
        "passes": list(report.passes_run),
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 log with one run and rule metadata per code."""
    codes = sorted({diag.code for diag in report.diagnostics})
    rule_index = {code: i for i, code in enumerate(codes)}
    rules = [
        {
            "id": code,
            "shortDescription": {
                "text": CODE_DESCRIPTIONS.get(code, code)
            },
        }
        for code in codes
    ]
    results = []
    for diag in report.diagnostics:
        result: dict = {
            "ruleId": diag.code,
            "ruleIndex": rule_index[diag.code],
            "level": _SARIF_LEVELS[diag.severity],
            "message": {"text": diag.message},
        }
        if diag.path is not None or diag.span is not None:
            physical: dict = {}
            if diag.path is not None:
                physical["artifactLocation"] = {"uri": diag.path}
            if diag.span is not None:
                physical["region"] = {
                    "startLine": diag.span.start_line,
                    "startColumn": diag.span.start_column,
                    "endLine": diag.span.end_line,
                    "endColumn": diag.span.end_column,
                }
            result["locations"] = [{"physicalLocation": physical}]
        if diag.procedure is not None:
            result["properties"] = {"procedure": diag.procedure}
        results.append(result)
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": __version__,
                        "informationUri": (
                            "https://github.com/paper-repro/"
                            "interprocedural-constant-propagation"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2) + "\n"


#: format name -> emitter, as the CLI exposes them.
EMITTERS = {
    "text": emit_text,
    "json": emit_json,
    "sarif": emit_sarif,
}
