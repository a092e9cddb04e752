"""Declarative sweep grids: a figure as data instead of a function.

A :class:`SweepGrid` names what used to be hand-rolled per figure:

* ordered **axes** — the swept dimensions (workload, node count, engine
  set, buffer size, Zipf skew, shed policy, ...), each a plain tuple of
  values or an :class:`EngineSet` resolved against the engine registry
  with capability filtering;
* **fixed** knobs — the non-swept sizes (threads, records per thread),
  overridable per invocation;
* a **cell** function — one sweep point (a dict of axis values) plus the
  fixed knobs to one picklable :mod:`repro.grid.cells` cell;
* a **report** function — the in-order cell results back to the figure's
  :class:`~repro.metrics.reporting.Report`;
* **quick** overrides — the smoke-test sizes ``--quick`` applies;
* **claims** — the paper's shape claims the report must bear out
  (:class:`Claim`), checked by ``run`` at the grid's own sizes.

:func:`run_grid` expands the cartesian product of the axes in
declaration order (first axis outermost, exactly the nested-loop order
the hand-rolled experiments used), feeds the cells to a
``SerialRunner``/``PoolRunner``, and hands the positionally-ordered
results to the report function — so a grid's render is byte-identical
serial or ``-j N``.

Axis and fixed-knob overrides are validated with did-you-mean
suggestions, the same convention as engine and workload lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.suggest import unknown_name_message
from repro.grid.cells import Cell, SerialRunner


@dataclass(frozen=True)
class EngineSet:
    """An engine axis resolved against the registry, capability-gated.

    With ``include`` empty, the set is every registered engine carrying
    all the required ``capabilities``, in registration order (the
    display order of the paper's figures).  With ``include`` given, the
    listed engines are kept in *that* order but still validated against
    the capabilities — asking a transfer figure to sweep ``lightsaber``
    fails before any cell runs, with the capability named.
    """

    capabilities: tuple = ()
    include: tuple = ()
    exclude: tuple = ()

    def resolve(self) -> tuple:
        from repro.runtime import REGISTRY

        if self.include:
            names = [
                REGISTRY.require(name, *self.capabilities).name
                for name in self.include
            ]
        else:
            names = [
                name
                for name in REGISTRY.names()
                if set(self.capabilities) <= REGISTRY.spec(name).capabilities
            ]
        return tuple(name for name in names if name not in self.exclude)

    def narrowed(self, names: Sequence) -> "EngineSet":
        """The same capability gate over an explicit engine list."""
        return EngineSet(
            capabilities=self.capabilities,
            include=tuple(names),
            exclude=self.exclude,
        )


@dataclass(frozen=True)
class Claim:
    """One shape claim of the paper, checked against a report's rows.

    ``artifact`` and ``text`` cite the paper artifact and the wording of
    its EXPERIMENTS.md row; ``holds(rows)`` is the predicate over
    ``report.rows``.  ``quick`` says whether the claim also holds at the
    grid's ``--quick`` sizes; a claim that only emerges at the full
    volumes (a saturated link, a long buffer's latency) sets it False.
    """

    artifact: str
    text: str
    holds: Callable[[list], bool]
    quick: bool = True

    def __str__(self) -> str:
        return f"{self.artifact}: {self.text}"


@dataclass
class SweepGrid:
    """One declarative experiment: axes × cell template → report."""

    name: str
    description: str
    #: Ordered ``(axis_name, values)`` pairs; ``values`` is a tuple or an
    #: :class:`EngineSet`.  First axis is the outermost sweep loop.
    axes: tuple
    #: ``cell(point, fixed) -> Cell`` — one sweep point to one cell.
    cell: Callable[[dict, dict], Cell]
    #: ``report(run) -> Report`` — in-order results to the rendered figure.
    report: Callable[["GridRun"], Any]
    #: Non-swept knobs, overridable per invocation (``--set k=v``).
    fixed: dict = field(default_factory=dict)
    #: Per-panel names resolving to this grid (``fig6a`` → ``fig6a-c``).
    aliases: tuple = ()
    #: Report headline; defaults to ``name``.
    title: str = ""
    #: ``--quick`` sizes: axis names map to swept values, every other key
    #: to a fixed knob (see :func:`quick_overrides`).
    quick: dict = field(default_factory=dict)
    #: The paper's shape claims over the report's rows (see :class:`Claim`).
    claims: tuple = ()

    def __post_init__(self):
        if not self.title:
            self.title = self.name

    def axis_names(self) -> tuple:
        return tuple(name for name, _values in self.axes)


@dataclass
class GridRun:
    """One expanded-and-executed grid, handed to the report function."""

    grid: SweepGrid
    #: Resolved axis values (EngineSets already flattened to names).
    axes: dict
    fixed: dict
    #: Sweep points in declaration order, one dict per cell.
    points: list
    cells: list
    #: Cell results, positionally aligned with ``points``.
    results: list

    def axis(self, name: str) -> tuple:
        return self.axes[name]

    def iter_results(self):
        """The results as an in-order iterator (one ``next()`` per point)."""
        return iter(self.results)


def quick_overrides(grid: SweepGrid) -> tuple:
    """The grid's ``quick`` data split into ``(axis, fixed)`` overrides."""
    names = grid.axis_names()
    axes = {k: v for k, v in grid.quick.items() if k in names}
    fixed = {k: v for k, v in grid.quick.items() if k not in names}
    return axes, fixed


def check_claims(grid: SweepGrid, rows: list, quick: bool) -> list:
    """``(claim, held)`` for each of the grid's claims; ``held`` is None
    for a claim not checked at ``--quick`` sizes (``claim.quick`` False)."""
    return [
        (claim, bool(claim.holds(rows)) if claim.quick or not quick else None)
        for claim in grid.claims
    ]


def resolve_axes(grid: SweepGrid, axis_overrides: Optional[dict] = None) -> dict:
    """Apply ``--axis``-style overrides and flatten EngineSets to names."""
    overrides = dict(axis_overrides or {})
    known = grid.axis_names()
    for key in overrides:
        if key not in known:
            raise ConfigError(unknown_name_message("axis", key, known))
    resolved = {}
    for name, default in grid.axes:
        values = overrides.get(name, default)
        if isinstance(default, EngineSet) and not isinstance(values, EngineSet):
            # Overriding an engine axis keeps the grid's capability gate:
            # the names are explicit, the validation is not optional.
            values = default.narrowed(values)
        if isinstance(values, EngineSet):
            values = values.resolve()
        values = tuple(values)
        if not values:
            raise ConfigError(f"axis {name!r} of grid {grid.name!r} is empty")
        resolved[name] = values
    return resolved


def resolve_fixed(grid: SweepGrid, fixed_overrides: Optional[dict] = None) -> dict:
    """Apply ``--set``-style overrides to the grid's fixed knobs."""
    fixed = dict(grid.fixed)
    for key, value in (fixed_overrides or {}).items():
        if key not in fixed:
            raise ConfigError(
                unknown_name_message("fixed knob", key, tuple(fixed))
            )
        fixed[key] = value
    return fixed


def expand_grid(
    grid: SweepGrid,
    axis_overrides: Optional[dict] = None,
    fixed_overrides: Optional[dict] = None,
) -> GridRun:
    """Expand a grid to its cells without running them (dry-run form).

    Building the cells resolves the engine set (capability check) and
    constructs every Scenario, so a dry-run catches unknown engines,
    missing capabilities, and malformed cell templates — the CI
    ``grid-smoke`` gate — at zero simulation cost.
    """
    axes = resolve_axes(grid, axis_overrides)
    fixed = resolve_fixed(grid, fixed_overrides)
    names = grid.axis_names()
    points = [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]
    cells = [grid.cell(point, fixed) for point in points]
    return GridRun(
        grid=grid, axes=axes, fixed=fixed, points=points, cells=cells,
        results=[],
    )


def run_grid(
    grid: SweepGrid,
    axis_overrides: Optional[dict] = None,
    fixed_overrides: Optional[dict] = None,
    runner=None,
):
    """Expand, execute, and report one grid; returns the Report."""
    run = expand_grid(grid, axis_overrides, fixed_overrides)
    run.results = list((runner or SerialRunner()).map(run.cells))
    return grid.report(run)


# -- CLI-facing parsing ------------------------------------------------------

def parse_axis_value(text: str):
    """``--axis``/``--set`` value literal: bool, int, float, else str."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_axis_spec(spec: str) -> tuple:
    """One ``name=v1,v2,...`` override → ``(name, (v1, v2, ...))``."""
    name, sep, rest = spec.partition("=")
    if not sep or not name or not rest:
        raise ConfigError(
            f"malformed axis override {spec!r} (expected name=v1,v2,...)"
        )
    return name, tuple(parse_axis_value(part) for part in rest.split(","))


def parse_set_spec(spec: str) -> tuple:
    """One ``name=value`` fixed-knob override → ``(name, value)``."""
    name, sep, rest = spec.partition("=")
    if not sep or not name:
        raise ConfigError(
            f"malformed knob override {spec!r} (expected name=value)"
        )
    return name, parse_axis_value(rest)
