"""SLO-style latency statistics shared across the reporting stack.

One home for the percentile, window-lag and fairness helpers used by
the acceptance suites (:mod:`repro.grid.suites`), the overload
coordinator's delay report, and the grid report builders.  Everything
here is pure arithmetic over plain data — no simulation imports — so
all of them can share it without layering violations (``metrics`` sits
at rank 3, below ``overload``/``elastic`` and far below ``grid``).

Two percentile conventions coexist deliberately:

* :func:`percentile` takes ``q`` in ``[0, 1]`` (the harness convention:
  ``percentile(lags, 0.99)``);
* :func:`weighted_percentile` takes ``q`` in ``[0, 100]`` (the overload
  coordinator convention: ``weighted_percentile(samples, 99.9)``), and
  weights each sample value by a record count.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: The SLO quantiles every latency report prints, as (label, q) pairs.
SLO_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p99", 0.99),
    ("p999", 0.999),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``[0, 1]``); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def weighted_percentile(pairs: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile over (value, weight) samples (``q`` in %)."""
    if not pairs:
        return 0.0
    ordered = sorted(pairs)
    total = sum(weight for _value, weight in ordered)
    rank = max(1, math.ceil(q / 100.0 * total))
    cumulative = 0
    for value, weight in ordered:
        cumulative += weight
        if cumulative >= rank:
            return value
    return ordered[-1][0]


def window_lags(result, start_s: Optional[float] = None) -> list[float]:
    """Trigger lags of windows fired at or after ``start_s``.

    ``result.extra["trigger_events"]`` is a run's ``(fire_time_s, lag_s)``
    timeline; passing a start instant keeps only the lags from that
    moment onward (e.g. everything after a migration's first stall).
    """
    events = result.extra.get("trigger_events", [])
    if start_s is None:
        return [lag for _t, lag in events]
    return [lag for t, lag in events if t >= start_s]


def lag_quantiles(lags: Sequence[float]) -> dict[str, float]:
    """The standard SLO quantiles of a lag sample, keyed by label."""
    return {label: percentile(lags, q) for label, q in SLO_QUANTILES}


def fairness_shares(
    tenant_offered: Sequence[int], tenant_shed: Sequence[int]
) -> list[dict]:
    """Per-tenant traffic vs shed shares, one plain dict per tenant.

    ``traffic_share`` is the tenant's fraction of all offered records and
    ``shed_share`` its fraction of all shed records; a fair shedder keeps
    the two aligned, a hot-key-blind one concentrates shedding on whoever
    is unlucky enough to be queued when pressure spikes.
    """
    offered_total = sum(tenant_offered) or 1
    shed_total = sum(tenant_shed) or 1
    return [
        {
            "tenant": tenant,
            "offered": int(offered),
            "shed": int(shed),
            "traffic_share": offered / offered_total,
            "shed_share": shed / shed_total,
        }
        for tenant, (offered, shed) in enumerate(
            zip(tenant_offered, tenant_shed)
        )
    ]
