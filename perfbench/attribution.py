"""Charge deterministic-profiler time and cross-layer calls to repro layers.

A *layer* is a ``repro.<subpackage>``.  Every profiled second lands in
exactly one layer: a function under ``repro/<layer>/`` keeps its own
self time, and the self time of everything else (numpy, builtins, the
standard library, generated dataclass methods) is charged to the nearest
calling repro layer.  "Nearest" is found by walking up the caller graph:
the first step splits a function's self time over its callers exactly,
by the time the profiler measured per caller edge; further steps through
non-repro callers follow those callers' own per-edge cumulative times.
The walk is an absorbing Markov chain over the non-repro functions,
solved in closed form, so recursion (``copy.deepcopy``) needs no depth
cut-off.  A non-repro function with no caller at all can only be the
target the benchmark itself called, so it is charged to ``root_layer``.

``calls_in`` counts calls that enter a layer's functions from another
layer (or from the benchmark).  Calls arriving through non-repro frames
(a generator resumed by ``generator.send`` inside the kernel) are
resolved to the calling layer by the same walk, weighted by call counts,
so the counts depend only on the program's control flow and repeat
exactly across runs with the same inputs.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

#: The profiler's own bookkeeping entry (``Profile.disable``).
_PROFILER_ENTRY = "_lsprof.Profiler"


def _key(code):
    # Code objects are unique per function; builtins arrive as their repr.
    return code if not isinstance(code, str) else ("builtin", code)


def _label(code) -> tuple:
    # A process-independent sort key (a code object's repr holds its address).
    if isinstance(code, str):
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_qualname)


def layer_of(code, repro_dir: str):
    """The repro layer a profiled function belongs to, or ``None``."""
    if isinstance(code, str):
        return None
    filename = code.co_filename
    if not filename.startswith(repro_dir):
        return None
    parts = filename[len(repro_dir):].split(os.sep)
    return parts[0] if len(parts) > 1 else "repro"


def _absorb(callers: dict, layer: dict, nodes: list, weight: int, root_layer: str,
            layers: list) -> dict:
    """Distribution over ``layers`` of the nearest repro caller of each node.

    ``weight`` picks the edge statistic used to choose among callers:
    1 = call count, 3 = cumulative time (falling back to call counts on
    rows where every edge timed at zero).
    """
    if not nodes:
        return {}
    index = {node: i for i, node in enumerate(nodes)}
    col = {name: i for i, name in enumerate(layers)}
    size = len(nodes)
    P = np.zeros((size, size))
    A = np.zeros((size, len(layers)))
    for node in nodes:
        row = index[node]
        edges = callers.get(node, {})
        weights = {c: e[weight] for c, e in edges.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[1] for c, e in edges.items()}
        total = float(sum(weights.values()))
        if total <= 0:
            A[row, col[root_layer]] = 1.0
            continue
        for caller, w in weights.items():
            if layer[caller] is not None:
                A[row, col[layer[caller]]] += w / total
            else:
                P[row, index[caller]] += w / total
    X = np.linalg.solve(np.eye(size) - P, A)
    return {node: X[index[node]] for node in nodes}


def attribute(entries, repro_dir: str, root_layer: str) -> dict:
    """Per-layer ``{"self_s", "calls_in"}`` from ``Profile.getstats()``.

    The ``self_s`` values sum to the total self time of ``entries``.
    """
    self_time: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    callers: dict = defaultdict(dict)  # callee -> caller -> [_, nc, tt, ct]
    codes: dict = {}
    for entry in entries:
        if isinstance(entry.code, str) and _PROFILER_ENTRY in entry.code:
            continue
        node = _key(entry.code)
        codes[node] = entry.code
        self_time[node] += entry.inlinetime
        calls[node] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str) and _PROFILER_ENTRY in sub.code:
                continue
            callee = _key(sub.code)
            codes.setdefault(callee, sub.code)
            edge = callers[callee].setdefault(node, [0, 0, 0.0, 0.0])
            edge[1] += sub.callcount
            edge[2] += sub.inlinetime
            edge[3] += sub.totaltime
    layer = {node: layer_of(code, repro_dir) for node, code in codes.items()}
    layers = sorted({name for name in layer.values() if name} | {root_layer})
    # Sorted, so the float sums below run in one order on every run.
    order = sorted(codes, key=lambda n: (layer[n] or "", _label(codes[n])))
    outside = [node for node in order if layer[node] is None]
    by_time = _absorb(callers, layer, outside, 3, root_layer, layers)
    by_calls = _absorb(callers, layer, outside, 1, root_layer, layers)

    def towards(caller, table) -> np.ndarray:
        if layer[caller] is None:
            return table[caller]
        share = np.zeros(len(layers))
        share[layers.index(layer[caller])] = 1.0
        return share

    out = {name: {"self_s": 0.0, "calls_in": 0.0} for name in layers}
    for node in order:
        edges = callers.get(node, {})
        own = layer[node]
        if own is not None:
            out[own]["self_s"] += self_time[node]
            from_outside = calls[node] - sum(e[1] for e in edges.values())
            for caller, edge in edges.items():
                from_outside += edge[1] * (
                    1.0 - towards(caller, by_calls)[layers.index(own)]
                )
            out[own]["calls_in"] += from_outside
            continue
        # Non-repro self time: split exactly over the callers first.
        weights = {c: e[2] for c, e in edges.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[1] for c, e in edges.items()}
        total = float(sum(weights.values()))
        if total <= 0:
            # Called by the benchmark itself (a dataclass constructor).
            out[root_layer]["self_s"] += self_time[node]
            out[root_layer]["calls_in"] += calls[node]
            continue
        share = sum(
            (w / total) * towards(caller, by_time)
            for caller, w in weights.items()
        )
        for name, part in zip(layers, share):
            out[name]["self_s"] += self_time[node] * part
    for name in out:
        out[name]["calls_in"] = int(round(out[name]["calls_in"]))
    return out


def total_self_time(entries) -> float:
    """Sum of profiled self time, excluding the profiler's own entry."""
    return sum(
        entry.inlinetime
        for entry in entries
        if not (isinstance(entry.code, str) and _PROFILER_ENTRY in entry.code)
    )
