"""Differential fuzzing of the whole compilation surface.

Every iteration generates one random loop from a derived seed
(:func:`repro.workloads.synthetic.random_loop_spec` — replayable without
re-running the campaign), compiles it through every configured
scheduler × strategy, and runs the :mod:`repro.verify` oracle on each
result, plus cross-result differential checks (a converged
non-spilling run may never beat the MII; every converged run must fit
its budget).  A failure is shrunk by :func:`shrink_source` — greedy
statement dropping, then innermost-subexpression collapsing — until no
smaller loop reproduces it, and written as a ``repro.fuzz-repro/1``
document to the reproducer corpus, from which
:func:`replay_reproducer` re-runs it exactly.

A compile that fails is a finding when the II search rejects a complex
operation that fits at no II: the spill drivers must only build groups
that fit.  A search that walked its whole window without an II is not a
finding (the heuristic schedulers are allowed to miss); such results
are listed, without gating, under ``search_failures``.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field

from repro.api import compile_loop
from repro.graph.builder import ddg_from_source
from repro.sched.base import FITS_AT_NO_II, NO_SCHEDULE
from repro.verify import verify_result
from repro.workloads.synthetic import (
    RandomDDGParams,
    derive_seed,
    random_loop_spec,
)

JSON_SCHEMA = "repro.fuzz/1"
REPRO_SCHEMA = "repro.fuzz-repro/1"


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign.

    Iteration ``i`` draws its loop from ``derive_seed(seed, i)``,
    compiles it on ``machines[i % len(machines)]`` under
    ``registers[i % len(registers)]`` through every scheduler ×
    strategy, and oracle-checks each result.
    """

    iterations: int = 100
    seed: int = 0
    machines: tuple[str, ...] = ("P2L4", "P1L4")
    schedulers: tuple[str, ...] = ("hrms", "ims", "swing")
    strategies: tuple[str, ...] = (
        "none", "increase", "spill", "prespill", "combined",
    )
    registers: tuple[int, ...] = (16, 32)
    params: RandomDDGParams = field(default_factory=RandomDDGParams)
    shrink: bool = True


@dataclass
class FuzzReport:
    """Campaign outcome: counts plus one record per surviving failure,
    and one per compile whose II search walked its window and failed
    (``search_failures``; recorded, never gating)."""

    config: FuzzConfig
    iterations: int = 0
    compiles: int = 0
    failures: list[dict] = field(default_factory=list)
    search_failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema": JSON_SCHEMA,
            "seed": self.config.seed,
            "iterations": self.iterations,
            "compiles": self.compiles,
            "machines": list(self.config.machines),
            "schedulers": list(self.config.schedulers),
            "strategies": list(self.config.strategies),
            "registers": list(self.config.registers),
            "failures": [dict(f) for f in self.failures],
            "search_failures": [dict(f) for f in self.search_failures],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [
            f"fuzz: {self.iterations} iterations"
            f" ({self.compiles} compiles), seed {self.config.seed}:"
            f" {len(self.failures)} failure(s),"
            f" {len(self.search_failures)} search failure(s)"
        ]
        for failure in self.failures:
            lines.append(
                f"  {failure['loop']} seed={failure['seed']}"
                f" [{failure['machine']}, {failure['scheduler']},"
                f" {failure['strategy']},"
                f" registers={failure['registers']}]:"
                f" {'; '.join(failure['violations'])}"
            )
            lines.append(
                f"    shrunk to {failure['shrunk_ops']} ops:"
                f" {failure['shrunk_source']!r}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _operation_count(source: str) -> int:
    return len(ddg_from_source(source).nodes)


def _check_one(source, name, machine, scheduler, strategy, registers):
    """Compile one combination; returns ``(failure strings, reason)``:
    the failure list is empty when clean, and ``reason`` is the failed
    compile's reason when its II search walked the whole window (else
    ``None``).  Compiler crashes count as failures too — the fuzzer's
    job is to surface them, not to die on them."""
    try:
        result = compile_loop(
            source, machine=machine, scheduler=scheduler,
            strategy=strategy, registers=registers, name=name,
        )
    except Exception as error:  # noqa: BLE001 - any crash is a finding
        return [f"compiler raised {type(error).__name__}: {error}"], None
    oracle = verify_result(result)
    problems = [str(v) for v in oracle.violations]
    if not result.converged and FITS_AT_NO_II in result.reason:
        # the spill drivers must only build complex operations that fit
        problems.append(f"[groups] {result.reason}")
    if (
        result.converged
        and result.ii is not None
        and strategy in ("none", "increase")
        and result.ii < result.mii
    ):
        # differential: without graph-changing spills the final II can
        # never beat the MII lower bound
        problems.append(
            f"[differential] II {result.ii} below MII {result.mii}"
            f" without spilling"
        )
    search_failed = not result.converged and NO_SCHEDULE in result.reason
    return problems, result.reason if search_failed else None


def fuzz_iteration(config: FuzzConfig, index: int):
    """Run one campaign iteration; returns ``(spec, failures,
    search_failures, compiles)`` where each failure is a
    reproducer-shaped dict (before shrinking) and each search failure
    names its combination and reason."""
    spec = random_loop_spec(config.seed, index, config.params)
    machine = config.machines[index % len(config.machines)]
    registers = config.registers[index % len(config.registers)]
    failures = []
    search_failures = []
    compiles = 0
    for scheduler in config.schedulers:
        for strategy in config.strategies:
            compiles += 1
            problems, search_reason = _check_one(
                spec.source, spec.name, machine, scheduler, strategy,
                registers,
            )
            combination = {
                "loop": spec.name,
                "seed": derive_seed(config.seed, index),
                "iteration": index,
                "machine": machine,
                "scheduler": scheduler,
                "strategy": strategy,
                "registers": registers,
            }
            if search_reason is not None:
                search_failures.append(
                    dict(combination, reason=search_reason)
                )
            if problems:
                failures.append(dict(
                    combination,
                    schema=REPRO_SCHEMA,
                    source=spec.source,
                    violations=problems,
                ))
    return spec, failures, search_failures, compiles


def run_fuzz(
    config: FuzzConfig | None = None,
    corpus_dir: "str | pathlib.Path | None" = None,
    log=None,
) -> FuzzReport:
    """Run the whole campaign; shrink and (optionally) persist every
    failure.  ``log`` is an optional ``print``-like progress callback."""
    config = config or FuzzConfig()
    report = FuzzReport(config=config)
    for index in range(config.iterations):
        _spec, failures, search_failures, compiles = fuzz_iteration(
            config, index
        )
        report.iterations += 1
        report.compiles += compiles
        report.search_failures.extend(search_failures)
        for failure in failures:
            if log is not None:
                log(
                    f"iteration {index}: FAILURE"
                    f" [{failure['scheduler']}/{failure['strategy']}]"
                    f" seed={failure['seed']}"
                )
            if config.shrink:
                failure = shrink_failure(failure)
            else:
                failure.setdefault("shrunk_source", failure["source"])
                failure.setdefault(
                    "shrunk_ops", _operation_count(failure["source"])
                )
            report.failures.append(failure)
            if corpus_dir is not None:
                write_reproducer(corpus_dir, failure)
    return report


# ----------------------------------------------------------------------
# the shrinker
def shrink_failure(failure: dict) -> dict:
    """Minimize one failure record's loop while it keeps failing for the
    same compilation parameters."""
    combo = (
        failure["machine"], failure["scheduler"], failure["strategy"],
        failure["registers"],
    )

    def still_fails(source: str) -> bool:
        return bool(
            _check_one(source, failure["loop"], *combo[:3],
                       registers=combo[3])[0]
        )

    shrunk = shrink_source(failure["source"], still_fails)
    failure = dict(failure)
    failure["shrunk_source"] = shrunk
    failure["shrunk_ops"] = _operation_count(shrunk)
    return failure


def _parses(source: str) -> bool:
    try:
        ddg_from_source(source)
    except Exception:  # noqa: BLE001 - any reject means "not a loop"
        return False
    return bool(source.strip())


_PAREN = re.compile(r"\(([^()]+)\)")
_SPLIT = re.compile(r"\s*[+*/-]\s*")


def _simplifications(source: str):
    """Candidate one-step reductions of *source*, largest first:
    drop a statement, then collapse an innermost parenthesized
    subexpression to one of its operands."""
    lines = source.splitlines()
    if len(lines) > 1:
        for drop in range(len(lines)):
            yield "\n".join(
                line for index, line in enumerate(lines) if index != drop
            )
    for match in _PAREN.finditer(source):
        operands = [
            part for part in _SPLIT.split(match.group(1)) if part.strip()
        ]
        for operand in operands:
            yield (
                source[: match.start()]
                + operand.strip()
                + source[match.end():]
            )


def shrink_source(source: str, predicate) -> str:
    """Greedily minimize *source* subject to ``predicate(source)``.

    Candidates that no longer parse into a DDG are skipped, so the
    predicate only ever sees valid loops.  Restarts from the head of the
    candidate stream after every accepted reduction; stops at a local
    minimum (no single statement drop or subexpression collapse still
    fails)."""
    if not predicate(source):
        return source
    current = source
    progress = True
    while progress:
        progress = False
        for candidate in _simplifications(current):
            if not _parses(candidate):
                continue
            if predicate(candidate):
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------------
# the reproducer corpus
def write_reproducer(
    corpus_dir: "str | pathlib.Path", failure: dict
) -> pathlib.Path:
    """Persist one failure as a replayable JSON document; the filename
    encodes iteration + combination, so a campaign writes each failing
    combination exactly once."""
    directory = pathlib.Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"repro_{failure['iteration']:06d}_{failure['scheduler']}"
        f"_{failure['strategy']}.json"
    )
    path.write_text(json.dumps(failure, indent=2, sort_keys=True) + "\n")
    return path


def replay_reproducer(path: "str | pathlib.Path"):
    """Re-run one corpus document; returns the fresh failure list
    (empty = the bug no longer reproduces)."""
    document = json.loads(pathlib.Path(path).read_text())
    if document.get("schema") != REPRO_SCHEMA:
        raise ValueError(
            f"expected schema {REPRO_SCHEMA!r},"
            f" got {document.get('schema')!r}"
        )
    problems, _search_reason = _check_one(
        document["source"], document["loop"], document["machine"],
        document["scheduler"], document["strategy"],
        document["registers"],
    )
    return problems


# ----------------------------------------------------------------------
# shrinker self-check (the CI dry run)
def shrinker_self_check(seed: int = 0) -> dict:
    """Inject a synthetic failure and prove the shrinker machinery
    minimizes it: the predicate "the loop contains a multiply" plays the
    role of an oracle violation (it survives shrinking the same way a
    real one would), starting from a deliberately oversized random loop.
    Returns ``{"start_ops", "shrunk_ops", "shrunk_source"}``; callers
    assert ``shrunk_ops`` is small (CI: <= 8)."""
    params = RandomDDGParams(ops=30)
    index = 0
    while True:
        spec = random_loop_spec(seed, index, params)
        if "*" in spec.source and _parses(spec.source):
            break
        index += 1

    def has_multiply(source: str) -> bool:
        return "*" in source

    shrunk = shrink_source(spec.source, has_multiply)
    return {
        "start_ops": _operation_count(spec.source),
        "shrunk_ops": _operation_count(shrunk),
        "shrunk_source": shrunk,
    }
