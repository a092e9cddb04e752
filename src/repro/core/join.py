"""Windowed hash-join probe logic (paper Sec. 5.2, 'Windowed Join').

Slash eagerly *builds* per-window hash state (the append partials of
:class:`~repro.core.pipeline.JoinBuildPipeline`) and *probes* lazily when
a window terminates: for every key, it outputs the per-key pairwise
combinations of the stored left and right records.  Because the state
backend concatenates all partial values with the same key before the
trigger fires, the probe sees exactly the records a sequential execution
would have collected (P2).

Session joins (NB11) additionally split a key's merged timeline into
gap-separated sessions at trigger time and only emit the sessions that
are *closed* — those whose last record is more than one gap below the
vector-clock frontier.  A trigger first finds, in one columnar pass over
every key's timeline, the keys that hold a closed session with both
sides (:func:`emitting_sessions`); only those are split and probed
(:func:`fire_sessions`), so every other key's payload stays untouched.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.core.pipeline import LEFT, RIGHT
from repro.core.windows import SessionWindows

JoinedPair = tuple[tuple, tuple]


def probe_window(payload: Sequence[tuple[int, tuple]]) -> list[JoinedPair]:
    """Emit all left x right combinations of one (window, key) payload.

    ``payload`` entries are ``(side, row_tuple)``.  Output order is
    normalised (sorted) so distributed and sequential runs compare equal.
    """
    lefts = [row for side, row in payload if side == LEFT]
    rights = [row for side, row in payload if side == RIGHT]
    return sorted((l, r) for l in lefts for r in rights)


def probe_sessions(
    window: SessionWindows,
    payload: Sequence[tuple[float, int, tuple]],
    frontier: float,
) -> tuple[list[JoinedPair], list[tuple[float, int, tuple]]]:
    """Split a key's merged timeline into sessions and emit closed ones.

    ``payload`` entries are ``(ts, side, row_tuple)``.  Returns
    ``(emitted_pairs, remaining_payload)``: sessions whose end (last ts +
    gap) is ``<= frontier`` are probed and dropped, the rest are kept for
    future records.
    """
    if not payload:
        return [], []
    timestamps = [entry[0] for entry in payload]
    emitted: list[JoinedPair] = []
    remaining: list[tuple[float, int, tuple]] = []
    for _start, end, member_indices in window.split_sessions(timestamps):
        members = [payload[i] for i in member_indices]
        if end <= frontier:
            emitted.extend(
                probe_window([(side, row) for _ts, side, row in members])
            )
        else:
            remaining.extend(members)
    return sorted(emitted), remaining


def emitting_sessions(
    window: SessionWindows,
    items: Sequence[tuple[Hashable, Sequence[tuple[float, int, tuple]]]],
    frontier: float,
) -> list[tuple[Hashable, Sequence[tuple[float, int, tuple]]]]:
    """The ``items`` whose :func:`probe_sessions` would emit a pair.

    ``items`` are ``(key, payload)`` pairs with :func:`probe_sessions`
    payloads.  A key emits iff its timeline holds a closed session (last
    ts + gap ``<= frontier``) with at least one LEFT and one RIGHT row.
    All keys are sorted and split at once: a session starts where the
    owning key changes or the sorted timestamps step by more than the
    gap.  The selected items keep their order in ``items``.
    """
    payloads = [payload for _key, payload in items]
    lengths = np.fromiter(map(len, payloads), dtype=np.intp, count=len(payloads))
    total = int(lengths.sum())
    if total == 0:
        return []
    flat = list(chain.from_iterable(payloads))
    ts = np.fromiter(map(itemgetter(0), flat), dtype=np.float64, count=total)
    side = np.fromiter(map(itemgetter(1), flat), dtype=np.intp, count=total)
    owner = np.repeat(np.arange(len(payloads)), lengths)
    order = np.lexsort((ts, owner))
    ts, side, owner = ts[order], side[order], owner[order]
    starts = np.empty(total, dtype=bool)
    starts[0] = True
    starts[1:] = (owner[1:] != owner[:-1]) | (np.diff(ts) > window.gap_ms)
    session = np.cumsum(starts) - 1
    last = np.append(np.flatnonzero(starts[1:]), total - 1)
    closed = ts[last] + window.gap_ms <= frontier
    lefts = np.bincount(session, weights=side == LEFT)
    rights = np.bincount(session, weights=side == RIGHT)
    emitting = np.zeros(len(items), dtype=bool)
    emitting[owner[last[closed & (lefts > 0) & (rights > 0)]]] = True
    return [items[index] for index in np.flatnonzero(emitting).tolist()]


def fire_sessions(
    window: SessionWindows,
    items: Iterable[tuple[Hashable, Sequence[tuple[float, int, tuple]]]],
    frontier: float,
    replace: Callable[[Hashable, list], Any],
    remove: Callable[[Hashable], Any],
) -> list[tuple[Hashable, tuple, tuple]]:
    """One session trigger over a store's ``(key, payload)`` items.

    Probes only the keys :func:`emitting_sessions` selects, in
    ``items`` order, and hands each its remaining payload through
    ``replace`` (or ``remove`` when nothing remains).  Every other key is
    left as it is: not rewritten, not reordered, its closed one-sided
    sessions kept.  Returns the ``(key, left_row, right_row)`` triples.
    """
    joined: list[tuple[Hashable, tuple, tuple]] = []
    for key, payload in emitting_sessions(window, list(items), frontier):
        emitted, remaining = probe_sessions(window, payload, frontier)
        joined.extend((key, left_row, right_row) for left_row, right_row in emitted)
        if remaining:
            replace(key, remaining)
        else:
            remove(key)
    return joined
