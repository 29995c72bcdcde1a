"""Shared streaming-partitioner substrate (the baseline zoo's hot path).

The paper's §7.1 comparisons score every streamed edge of HDRF / FENNEL
(and every re-homed vertex group of Hybrid Ginger) against all ``|P|``
partitions with state that mutates per item: per-partition *loads* and
per-vertex *replica membership*.  The reference implementations walk
the stream one item at a time and rebuild a ``|P|``-wide score vector
per item; this module holds what their ``kernel="vectorized"`` twins
run instead.

:func:`walk_edge_stream` (HDRF, FENNEL)
    An exact per-edge walk whose argmax runs over *classes x load
    levels* instead of over ``|P|`` partitions.  Both scores split as
    ``class constant + balance(load)``: the constant depends only on
    whether the partition already holds ``u``, ``v``, both or neither,
    the balance only on the partition's load.  Replica sets are
    Python-int bitmasks per vertex, and every *present* load level
    keeps one bitmask of the partitions at that load, so a class meets
    a level in one ``&``.  Levels are kept ordered by balance,
    descending, and re-sorted only when a level appears or empties
    (which is also when HDRF's max/min load moves); a placement that
    keeps the level set just moves one bit between two masks.

:func:`run_chunked_fixpoint` (weighted group streams)
    The prefix-commit loop for scorers whose staleness rule needs
    the tentative targets themselves (Ginger's re-homing rounds: a
    histogram goes stale only when an earlier in-window *mover* is a
    neighbour).  Windows here commit wholesale once a round's movers
    thin out, so no sequential tail is needed.

Both kernels of every partitioner built on this substrate are pinned
bit-identical — assignments, replication factors, and final loads — by
``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import chain

import numpy as np

__all__ = ["walk_edge_stream", "run_chunked_fixpoint", "DEFAULT_CHUNK"]

#: window width: the fixpoint driver's scoring window and the edge
#: walk's scalar-conversion window
DEFAULT_CHUNK = 1024

#: smallest fixpoint window
_MIN_WINDOW = 16


def _scalars(a: np.ndarray) -> Iterator:
    """The items of ``a`` as Python scalars, converted one window at a
    time so a stream never exists as one list of boxed numbers."""
    return chain.from_iterable(a[i:i + DEFAULT_CHUNK].tolist()
                               for i in range(0, len(a), DEFAULT_CHUNK))


def walk_edge_stream(u: np.ndarray, v: np.ndarray, num_partitions: int,
                     fu: np.ndarray, fv: np.ndarray,
                     balance: Callable[[list[int]], list[float]]
                     ) -> np.ndarray:
    """Place a unit-load edge stream one edge at a time; return targets.

    Edge ``i`` scores partition ``p`` as ``c + balance(load(p))``, where
    ``c`` is ``fu[i] + fv[i]`` if ``p`` already holds both endpoints,
    ``fu[i]`` / ``fv[i]`` if it holds only ``u`` / only ``v``, and
    ``0.0`` otherwise — exactly the rowwise sums the references build
    (``g_u + g_v`` for HDRF, the ``0/1/2`` locality for FENNEL).  The
    edge goes to the highest score, ties to the lowest partition id,
    as ``np.argmax`` picks.  ``balance(levels)`` returns one float per
    present load level (ascending), and sees every present level, so
    HDRF's max/min-dependent term is computable from its argument.

    Exactness: a correctly rounded ``+`` is monotone in each operand,
    so within a class the level order by balance is the score order,
    up to ties that rounding may create.  Per class the walk takes the
    first level meeting the class, keeps going while the score ties
    (lowest set bit over the tied levels) and stops at the first
    strictly smaller one.  A class whose ``c + top balance`` is below
    the best score so far cannot win and is skipped.  Levels are
    ordered by the balance floats themselves, so a non-monotone
    balance table (FENNEL's ``**``) is ordered correctly too.
    """
    full = (1 << num_partitions) - 1
    loads = [0] * num_partitions
    replicas = [0] * (max(int(u.max()), int(v.max())) + 1 if len(u) else 0)
    out: list[int] = []
    level_mask = {0: full}                 # load level -> partitions at it
    dirty = True
    for a, b, cu, cv in zip(_scalars(u), _scalars(v), _scalars(fu),
                            _scalars(fv)):
        if dirty:
            # Present levels by balance, descending: bals[k] / masks[k],
            # and slot[level] = k.
            levels = sorted(level_mask)
            ranked = sorted(zip(balance(levels), levels), reverse=True)
            bals = [bal for bal, _ in ranked]
            masks = [level_mask[lv] for _, lv in ranked]
            slot = {lv: k for k, (_, lv) in enumerate(ranked)}
            top = bals[0]
            dirty = False
        ru = replicas[a]
        rv = replicas[b]
        both = ru & rv
        best = -np.inf
        t = num_partitions                 # so an all -inf edge takes 0
        for c, cls in ((cu + cv, both), (cu, ru ^ both), (cv, rv ^ both),
                       (0.0, full ^ (ru | rv))):
            if not cls or c + top < best:
                continue
            k = 0
            while not masks[k] & cls:
                k += 1
            score = c + bals[k]
            hit = masks[k] & cls
            pick = (hit & -hit).bit_length() - 1
            k += 1
            while k < len(bals) and c + bals[k] == score:
                hit = masks[k] & cls
                if hit:
                    pick = min(pick, (hit & -hit).bit_length() - 1)
                k += 1
            if score > best or (score == best and pick < t):
                best, t = score, pick
        out.append(t)
        bit = 1 << t
        replicas[a] = ru | bit
        replicas[b] |= bit
        lv = loads[t]
        loads[t] = lv + 1
        k = slot[lv]
        rest = masks[k] ^ bit
        k1 = slot.get(lv + 1)
        if rest and k1 is not None:
            masks[k] = rest
            masks[k1] |= bit
        else:                              # a level empties or appears
            level_mask = {lv2: masks[k2] for lv2, k2 in slot.items()}
            if rest:
                level_mask[lv] = rest
            else:
                del level_mask[lv]
            level_mask[lv + 1] = level_mask.get(lv + 1, 0) | bit
            dirty = True
    return np.array(out, dtype=np.int64)


def run_chunked_fixpoint(scorer, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """Prefix-commit loop for weighted/group stream scorers.

    Protocol: ``len(scorer)``, ``select(sl, loads_view_or_None)``,
    ``reconstruct(sl, t0)`` (returns the opaque loads view ``select``
    consumes), ``run_length(sl, t0, t1)`` (longest proven prefix, >= 1)
    and ``commit(sl, targets)``.  Each window scores tentatively, then
    against the reconstructed running loads, and commits the proven
    prefix; the window width adapts to the recent run length.
    """
    n = len(scorer)
    targets = np.empty(n, dtype=np.int64)
    i0 = 0
    cap = chunk
    while i0 < n:
        w = min(cap, n - i0)
        sl = slice(i0, i0 + w)
        t0 = scorer.select(sl, None)
        t1 = scorer.select(sl, scorer.reconstruct(sl, t0))
        r = scorer.run_length(sl, t0, t1)
        run = slice(i0, i0 + r)
        scorer.commit(run, t1[:r])
        targets[run] = t1[:r]
        i0 += r
        cap = min(chunk, max(_MIN_WINDOW, 4 * r))
    return targets
