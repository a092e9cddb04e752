"""The sanitize acceptance protocol (``python -m repro run sanitize``).

Generates ``scenarios`` seed-reproducible scenarios, runs each through
:func:`~repro.sanitizer.scenarios.run_scenario` (sanitized Slash vs the
sequential reference oracle vs the partitioned baseline), and on failure
greedily shrinks the scenario and prints a copy-pasteable repro command.
``replay`` re-runs one exact scenario from its JSON description — the
format ``repro_command`` emits — instead of generating fresh ones.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from typing import Callable, Optional

from repro.common.errors import StateError
from repro.metrics.reporting import Report, TextTable
from repro.sanitizer.scenarios import (
    Scenario,
    ScenarioOutcome,
    generate_scenario,
    run_scenario,
)
from repro.sanitizer.shrinker import shrink


def _to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def run_sanitize(
    scenarios: int = 25,
    seed: int = 1,
    replay: Optional[str] = None,
    shrink_failures: bool = True,
    progress: Optional[Callable[[str], None]] = _to_stderr,
    runner: Callable[[Scenario], ScenarioOutcome] = run_scenario,
) -> Report:
    """Run the differential oracle harness; returns a renderable report.

    The report's ``rows`` carry one machine-readable dict per scenario.
    Any failing scenario raises :class:`StateError` whose message lists
    each (minimized) repro command and whose ``report`` attribute holds
    the report, so the CLI still prints and writes it.  Progress lines go
    to stderr by default, so a parallel sweep's stdout stays identical to
    a serial one.  ``runner`` is injectable for tests.
    """
    emit = progress if progress is not None else (lambda _line: None)
    if replay is not None:
        plan = [Scenario.from_json(replay)]
        title = "sanitize: replay"
    else:
        plan = [generate_scenario(seed, index) for index in range(scenarios)]
        title = f"sanitize: {scenarios} scenarios (seed {seed})"

    report = Report(title)
    table = TextTable(title, ["#", "scenario", "checks", "verdict"])
    failed: list[ScenarioOutcome] = []
    for position, scenario in enumerate(plan):
        outcome = runner(scenario)
        verdict = "PASS" if outcome.ok else "FAIL"
        emit(f"[{position + 1}/{len(plan)}] {scenario.label()} ... {verdict}")
        total_checks = sum(outcome.checks.values())
        table.add_row(position + 1, scenario.label(), total_checks, verdict)
        report.rows.append(
            {
                "scenario": asdict(scenario),
                "ok": outcome.ok,
                "failures": list(outcome.failures),
                "checks": dict(outcome.checks),
                "horizon_s": outcome.horizon_s,
            }
        )
        if not outcome.ok:
            failed.append(outcome)
            for line in outcome.failures:
                emit(f"    {line}")
    report.tables.append(table)

    if not failed:
        report.notes.append("0 failures: zero invariant violations, zero oracle mismatches")
        return report

    report.notes.append(f"{len(failed)} of {len(plan)} scenarios FAILED")
    for outcome in failed:
        scenario = outcome.scenario
        if shrink_failures:
            emit(f"shrinking failing scenario: {scenario.label()}")

            def still_fails(candidate: Scenario) -> bool:
                return not runner(candidate).ok

            smallest, attempts = shrink(scenario, still_fails)
            emit(
                f"  shrunk {scenario.records} -> {smallest.records} records "
                f"({scenario.nodes}x{scenario.threads} -> "
                f"{smallest.nodes}x{smallest.threads}) in {attempts} attempts"
            )
        else:
            smallest = scenario
        report.notes.append(
            "repro (minimized): " + smallest.repro_command()
            if shrink_failures
            else "repro: " + smallest.repro_command()
        )
        emit("  " + smallest.repro_command())
    error = StateError("\n".join(
        [f"{len(failed)} of {len(plan)} sanitize scenarios failed"]
        + report.notes[1:]
    ))
    error.report = report
    raise error
