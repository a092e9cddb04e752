"""Integration: a session trigger leaves the state of quiet keys untouched.

A mid-run NB11 trigger rewrites only the keys that emit a pair.  Every
other key keeps the very payload list it had, in the same order, in
Slash's SSB and in the partitioned engines' per-consumer ``state``: the
SSB's resident-byte accounting (and so the cache model's simulated time)
is anchored on those payloads.
"""

import pytest

import repro.baselines.partitioned as partitioned
import repro.core.executor as executor
from repro.baselines.uppar import UpParEngine
from repro.core.engine import SlashEngine
from repro.workloads import Nexmark11Workload


def _store_items(store):
    """The live (key, payload) pairs behind a trigger's ``replace`` callback."""
    if hasattr(store, "led_items"):  # Slash's SSB operator handle
        return dict(store.led_items())
    return dict(store)  # a partitioned consumer's state dict


def _watch_triggers(monkeypatch, module):
    """Wrap ``module.fire_sessions``; record what each mid-run trigger kept."""
    real = module.fire_sessions
    checked = []

    def watched(window, items, frontier, replace, remove):
        items = list(items)
        before = {key: (payload, list(payload)) for key, payload in items}
        joined = real(window, items, frontier, replace, remove)
        emitting = {key for key, _left, _right in joined}
        after = _store_items(replace.__self__)
        quiet = [key for key in before if key not in emitting]
        for key in quiet:
            payload, contents = before[key]
            assert after[key] is payload, key
            assert payload == contents, key
        if frontier != float("inf") and emitting and quiet:
            checked.append(len(quiet))
        return joined

    monkeypatch.setattr(module, "fire_sessions", watched)
    return checked


@pytest.mark.parametrize(
    "module, engine, nodes, threads",
    [
        (executor, lambda: SlashEngine(epoch_bytes=48 * 1024), 2, 2),
        (partitioned, UpParEngine, 2, 4),
    ],
    ids=["slash", "uppar"],
)
def test_quiet_keys_keep_their_payload_objects(monkeypatch, module, engine, nodes, threads):
    checked = _watch_triggers(monkeypatch, module)
    workload = Nexmark11Workload(records_per_thread=500, sellers=25, batch_records=128)
    result = engine().run(workload.build_query(), workload.flows(nodes, threads))
    assert result.join_pairs
    assert checked, "no mid-run trigger had both emitting and quiet keys"
