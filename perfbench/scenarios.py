"""The three workloads: seeded inputs, one timed pass, and what the
oracle needs afterwards.

Every workload is a closed loop with one client in one thread: the next
unit starts only when the previous one has returned. Layer entry points
are always looked up through their modules (``driver.analyze``, never a
local alias) so that the tracer's patches see every call.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import layers
import oracle
import steer
from repro.core import driver
from repro.core.config import (
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    AnalysisConfig,
    JumpFunctionKind,
)
from repro.service.journal import RequestJournal
from repro.service.server import AnalysisService, ServicePolicy
from repro.store.artifacts import ArtifactStore
from repro.workloads.generator import generate
from repro.workloads.profiles import LARGE_PROFILES, PROFILES

#: Seed 0 reproduces the repository's own profiles; seed n shifts every
#: profile's generator seed by n * SEED_STRIDE.
SEED_STRIDE = 1000

#: Both suite workloads run scaled-down programs, so that a run of
#: ``run_seconds`` fits several passes and every unit is timed several
#: times: full-scale passes take ~15 s (tables) and ~40 s (daemon_edits)
#: on a 2-CPU container.
TABLES_SCALE = 0.5
DAEMON_SCALE = 0.2

TABLE_CONFIGS: dict[str, AnalysisConfig] = {**TABLE2_CONFIGS, **TABLE3_CONFIGS}
POLYNOMIAL = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)

#: what each program is sent after its one cold submit, in seeded order:
#: exact repeats of an earlier request, edits solved on the flat engine
#: (the first builds the program's slab, later ones patch it) and edits
#: solved warm from the store's snapshot.
DAEMON_FOLLOW_UPS = ("repeat",) * 2 + ("flat",) * 3 + ("edit",) * 3


@dataclass
class Unit:
    """One timed unit: a table cell, a program, or a daemon request."""

    name: str
    seconds: float
    constants_found: int = 0
    failure: str | None = None
    tier: str = ""
    #: full (generation-2) garbage collections that ran inside the unit.
    full_gcs: int = 0


@dataclass
class PassResult:
    units: list[Unit]
    wall_seconds: float
    #: what the oracle checks once timing is over, keyed by unit index.
    evidence: dict[int, object] = field(default_factory=dict)
    #: workload-specific counters read after the pass (daemon stats).
    stats: dict = field(default_factory=dict)


def seeded_programs(profiles: dict, seed: int) -> dict:
    """Generate ``profiles`` with every generator seed shifted by ``seed``."""
    return {
        name: generate(
            dataclasses.replace(profile, seed=profile.seed + SEED_STRIDE * seed)
        )
        for name, profile in profiles.items()
    }


def full_collections() -> int:
    """Full (generation-2) garbage collections so far in this process."""
    return gc.get_stats()[2]["collections"]


def _analysis_unit(name: str, program: str, analysis,
                   carry: tuple[float, int] = (0.0, 0)):
    """Time ``analysis()`` and the emission of its transformed source as
    one unit, plus ``carry`` (seconds, full collections) of earlier work
    billed to it. Returns the unit and the oracle's evidence (None when
    the analysis raised)."""
    steer.between_units()
    gcs = full_collections() - carry[1]
    begin = perf_counter() - carry[0]
    try:
        result = analysis()
        transformed = result.transformed_source()
    except Exception as exc:  # a unit failure, not a crash
        unit = Unit(name, perf_counter() - begin,
                    failure=f"{type(exc).__name__}: {exc}")
        unit.full_gcs = full_collections() - gcs
        return unit, None
    seconds = perf_counter() - begin
    failure = "; ".join(r.describe() for r in result.degradations) or None
    evidence = (program, tuple(result.lowered.procedures), result.solved,
                transformed)
    unit = Unit(name, seconds, result.constants_found, failure,
                full_gcs=full_collections() - gcs)
    return unit, evidence


# -- tables ------------------------------------------------------------------


class _Batch:
    """A workload of whole-program analyses with nothing to set up."""

    #: transformed outputs interpreted per program (None = all).
    transform_share: int | None = None

    def open(self, inputs):
        return None

    def close(self, handle) -> None:
        pass

    def instrument(self, tracer, handle) -> None:
        pass

    def check(self, inputs, result: PassResult, seed: int) -> int:
        return oracle.check_executions(
            inputs, result.units, result.evidence, seed, self.transform_share
        )


class Tables(_Batch):
    """Table 2 + Table 3: every suite program under all ten configurations,
    one fresh Stage0Cache per program, each cell through Analyzer.sweep."""

    name = "tables"
    #: nominal seconds of one pass on a 2-CPU container.
    pass_seconds = 9.0
    transform_share = oracle.TABLE_TRANSFORM_SAMPLE

    def prepare(self, seed: int):
        profiles = {name: p.scaled(TABLES_SCALE) for name, p in PROFILES.items()}
        return seeded_programs(profiles, seed)

    def run_pass(self, inputs, handle) -> PassResult:
        units: list[Unit] = []
        evidence: dict[int, object] = {}
        started = perf_counter()
        for program, work in inputs.items():
            steer.between_units()
            begin, gcs = perf_counter(), full_collections()
            analyzer = driver.Analyzer(work.source, cache=driver.Stage0Cache())
            # parsing, billed to the first cell
            carry = (perf_counter() - begin, full_collections() - gcs)
            for cell, config in TABLE_CONFIGS.items():
                unit, proof = _analysis_unit(
                    f"{program}/{cell}", program,
                    lambda: analyzer.sweep({cell: config})[cell], carry,
                )
                carry = (0.0, 0)
                if proof is not None:
                    evidence[len(units)] = proof
                units.append(unit)
        return PassResult(units, perf_counter() - started, evidence)


# -- cold_large ----------------------------------------------------------------


class ColdLarge(_Batch):
    """Cold polynomial analysis of the three 1k-procedure programs, with
    no stage-0 cache: every run pays frontend, lowering and SSA."""

    name = "cold_large"
    pass_seconds = 10.0

    def prepare(self, seed: int):
        return seeded_programs(LARGE_PROFILES, seed)

    def run_pass(self, inputs, handle) -> PassResult:
        units: list[Unit] = []
        evidence: dict[int, object] = {}
        started = perf_counter()
        for program, work in inputs.items():
            unit, proof = _analysis_unit(
                program, program,
                lambda: driver.analyze(work.source, POLYNOMIAL, cache=None),
            )
            if proof is not None:
                evidence[len(units)] = proof
            units.append(unit)
        return PassResult(units, perf_counter() - started, evidence)


# -- daemon_edits --------------------------------------------------------------

_HEADER = re.compile(r"^(?:\w+ )*(?:program|subroutine|function) (\w+)")
_LITERAL_ASSIGN = re.compile(r"^(\s+[a-z]\w* = )(\d+)$")


def literal_sites(source: str) -> dict[str, list[int]]:
    """Procedure name -> line numbers of ``v = <integer literal>`` lines."""
    sites: dict[str, list[int]] = {}
    proc = None
    for number, line in enumerate(source.split("\n")):
        header = _HEADER.match(line)
        if header:
            proc = header.group(1)
        elif proc is not None and _LITERAL_ASSIGN.match(line):
            sites.setdefault(proc, []).append(number)
    return sites


def edit_one_literal(source: str, rng: random.Random) -> str:
    """Change one integer literal in one seeded procedure."""
    sites = literal_sites(source)
    proc = rng.choice(sorted(sites))
    number = rng.choice(sites[proc])
    lines = source.split("\n")
    match = _LITERAL_ASSIGN.match(lines[number])
    old = int(match.group(2))
    new = rng.choice([value for value in range(1, 100) if value != old])
    lines[number] = f"{match.group(1)}{new}"
    return "\n".join(lines)


@dataclass
class DaemonInputs:
    programs: dict
    #: (program, kind, payload) in send order; kind is cold/edit/flat/repeat.
    requests: list[tuple[str, str, dict]]


class DaemonEdits:
    """One in-process AnalysisService over an on-disk store and journal:
    a cold submit per suite program, then seeded one-literal edits sent
    as incremental requests, a share of them on the flat engine, and a
    share of exact repeats."""

    name = "daemon_edits"
    pass_seconds = 9.0

    def __init__(self, root: str):
        self.tmp_root = os.path.join(root, ".perfbench_tmp")

    def prepare(self, seed: int) -> DaemonInputs:
        profiles = {name: p.scaled(DAEMON_SCALE) for name, p in PROFILES.items()}
        programs = seeded_programs(profiles, seed)
        rng = random.Random(f"daemon_edits:{seed}")
        names = list(programs)
        requests: list[tuple[str, str, dict]] = []
        sent: dict[str, list[dict]] = {}
        current: dict[str, str] = {}
        for name in names:
            current[name] = programs[name].source
            payload = {"tenant": name, "source": current[name]}
            sent[name] = [payload]
            requests.append((name, "cold", payload))
        # Every program gets the same follow-ups, so the mix of cheap and
        # costly requests (and with it the latency percentiles) does not
        # move with the seed; the seed orders them and picks the edits.
        plans = {
            name: rng.sample(DAEMON_FOLLOW_UPS, len(DAEMON_FOLLOW_UPS))
            for name in names
        }
        for _round in DAEMON_FOLLOW_UPS:
            for name in rng.sample(names, len(names)):
                kind = plans[name].pop()
                if kind == "repeat":
                    payload = rng.choice(sent[name])
                else:
                    current[name] = edit_one_literal(current[name], rng)
                    payload = {"tenant": name, "source": current[name]}
                    if kind == "flat":
                        payload["config"] = {"flat_engine": True}
                    sent[name].append(payload)
                requests.append((name, kind, payload))
        return DaemonInputs(programs, requests)

    def open(self, inputs):
        os.makedirs(self.tmp_root, exist_ok=True)
        directory = tempfile.mkdtemp(dir=self.tmp_root)
        store = ArtifactStore(os.path.join(directory, "store"))
        journal = RequestJournal(os.path.join(directory, "journal.jsonl"))
        service = AnalysisService(ServicePolicy(), store=store, journal=journal)
        return directory, store, journal, service

    def close(self, handle) -> None:
        shutil.rmtree(handle[0], ignore_errors=True)
        try:
            os.rmdir(self.tmp_root)
        except OSError:
            pass  # another pass's directory is still there

    def instrument(self, tracer, handle) -> None:
        layers.install_service(tracer, handle)

    def check(self, inputs, result: PassResult, seed: int) -> int:
        return oracle.check_daemon(inputs.programs, result.units,
                                  result.evidence, seed)

    def run_pass(self, inputs: DaemonInputs, handle) -> PassResult:
        _directory, _store, _journal, service = handle
        units: list[Unit] = []
        evidence: dict[int, object] = {}
        started = perf_counter()
        for number, (program, kind, payload) in enumerate(inputs.requests):
            request = dict(payload, id=f"r{number}")
            steer.between_units()
            gcs, begin = full_collections(), perf_counter()
            response = service.handle(request)
            seconds = perf_counter() - begin
            unit = Unit(f"{program}/{kind}/r{number}", seconds,
                        tier=response.get("served", "error"),
                        full_gcs=full_collections() - gcs)
            if response.get("status") != "ok":
                unit.failure = response.get("error", "error response")
            elif response.get("degradations"):
                unit.failure = "; ".join(response["degradations"])
            else:
                unit.constants_found = response["result"]["constants_found"]
                evidence[number] = (program, request, response["result"])
            units.append(unit)
        wall = perf_counter() - started
        stats = service.stats()
        return PassResult(units, wall, evidence, stats)


def make_workloads(root: str) -> dict:
    return {
        workload.name: workload
        for workload in (Tables(), ColdLarge(), DaemonEdits(root))
    }
