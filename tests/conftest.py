"""Test-suite configuration.

Hypothesis runs derandomized: property tests explore the same example
sequence on every run, so the suite's outcome is reproducible (matching
the library's own determinism guarantees).  Set HYPOTHESIS_PROFILE=random
to explore fresh examples locally.

Randomness outside hypothesis goes through the :class:`RngTree` fixtures
below: ``rng_tree`` is the session root (seed from ``REPRO_TEST_SEED``,
default 7) and ``rng`` derives a per-test stream from the test's node id,
so adding or reordering tests never shifts another test's draws.

``quick_report`` runs a registered grid at its ``--quick`` sizes once per
session and hands every later caller the same report.
"""

import functools
import os

import pytest
from hypothesis import settings

from repro.common.rng import RngTree

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("random", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture(scope="session")
def rng_tree() -> RngTree:
    """Session-wide deterministic RNG root (override via REPRO_TEST_SEED)."""
    return RngTree(int(os.environ.get("REPRO_TEST_SEED", "7")))


@pytest.fixture
def rng(rng_tree, request):
    """A numpy generator unique to this test, derived from its node id."""
    return rng_tree.generator("tests", request.node.nodeid)


@pytest.fixture(scope="session")
def quick_report():
    """``quick_report(name)``: the grid's ``--quick`` report, run once.

    Callers that doctor the rows must copy them first.
    """
    from repro.grid import quick_overrides, resolve_grid, run_grid

    @functools.cache
    def run(name: str):
        grid = resolve_grid(name)
        return run_grid(grid, *quick_overrides(grid))

    return run
