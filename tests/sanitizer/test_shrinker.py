"""Greedy scenario shrinker: minimization power and floor safety.

The predicates here are synthetic (no engine runs), so these tests pin
the shrinker's search behaviour exactly: it must at least halve the
record count of a record-driven failure, drop an irrelevant fault plan,
respect the dimensional floors, and stay within its attempt budget.
"""

from repro.sanitizer.scenarios import Scenario
from repro.sanitizer.shrinker import (
    MIN_BATCH,
    MIN_KEYSPACE,
    MIN_NODES,
    MIN_RECORDS,
    MIN_THREADS,
    shrink,
)

BIG = Scenario(
    workload="ysb", records=400, batch=128, keyspace=160, nodes=4, threads=3,
    epoch_bytes=8192, credits=4, workload_seed=1,
    fault="leader-crash", fault_seed=2,
)


def test_shrink_halves_a_record_driven_failure():
    """Acceptance bar: a failure needing >= 100 records minimizes to at
    most half the original record count (and stays failing)."""
    still_fails = lambda s: s.records >= 100
    smallest, attempts = shrink(BIG, still_fails)
    assert still_fails(smallest)
    assert smallest.records <= BIG.records // 2
    assert smallest.records == 100  # greedy halving lands exactly here
    assert attempts > 0


def test_shrink_drops_an_irrelevant_fault():
    still_fails = lambda s: s.records >= MIN_RECORDS  # fault plays no role
    smallest, _ = shrink(BIG, still_fails)
    assert smallest.fault is None
    assert smallest.fault_seed == 0


def test_shrink_keeps_a_load_bearing_fault():
    still_fails = lambda s: s.fault == "leader-crash"
    smallest, _ = shrink(BIG, still_fails)
    assert smallest.fault == "leader-crash"
    # Everything else minimized: halving stops once it would cross the
    # floor, so 400 -> 200 -> 100 -> 50 -> 25 (12 < MIN_RECORDS).
    assert smallest.records == 25
    assert smallest.nodes == MIN_NODES
    assert smallest.threads == MIN_THREADS


def test_shrink_respects_all_floors():
    smallest, attempts = shrink(BIG, lambda s: True)
    assert smallest.records >= MIN_RECORDS
    assert smallest.nodes >= MIN_NODES
    assert smallest.threads >= MIN_THREADS
    assert smallest.batch >= MIN_BATCH
    assert smallest.keyspace >= MIN_KEYSPACE
    assert smallest.fault is None
    assert attempts <= 48


def test_shrink_returns_input_when_nothing_smaller_fails():
    seen = []
    def only_original_fails(candidate):
        seen.append(candidate)
        return False
    smallest, attempts = shrink(BIG, only_original_fails)
    assert smallest == BIG
    assert attempts == len(seen)


def test_attempt_budget_bounds_the_walk():
    _smallest, attempts = shrink(BIG, lambda s: True, max_attempts=5)
    assert attempts <= 5


def test_shrunk_scenario_round_trips_through_repro_command():
    smallest, _ = shrink(BIG, lambda s: s.records >= 100)
    payload = smallest.repro_command().split("--set replay='")[1].rstrip("'")
    assert Scenario.from_json(payload) == smallest


def test_shrink_drops_an_irrelevant_overload_plane():
    loaded = Scenario(
        workload="ysb", records=200, batch=64, keyspace=40, nodes=3,
        threads=2, epoch_bytes=8192, credits=4, workload_seed=1,
        overload="probabilistic",
    )
    smallest, _ = shrink(loaded, lambda s: s.records >= MIN_RECORDS)
    assert smallest.overload is None


def test_shrink_keeps_a_load_bearing_overload_plane():
    loaded = Scenario(
        workload="ysb", records=200, batch=64, keyspace=40, nodes=3,
        threads=2, epoch_bytes=8192, credits=4, workload_seed=1,
        overload="fair",
    )
    smallest, _ = shrink(loaded, lambda s: s.overload == "fair")
    assert smallest.overload == "fair"
