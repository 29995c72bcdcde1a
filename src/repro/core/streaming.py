"""Shared streaming-partitioner substrate (the baseline zoo's hot path).

The paper's §7.1 comparisons score every streamed edge of HDRF / FENNEL,
and every vertex a label-propagation rival revisits, against all ``|P|``
partitions with state that mutates per item: per-partition *loads* and
per-vertex *replicas* or *labels*.  The references rebuild a ``|P|``-wide
score vector per item; the walks here score only the candidates that
can win, and stay exact.

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

:func:`walk_labels` (Spinner, XtraPuLP, ``metis_like``'s FM refinement)
    An exact sequential label walk scoring only a vertex's neighbour
    labels, its own label and the best label of the *rest*: a label no
    neighbour holds scores by its load term alone, so the best of the
    rest heads one ``(-balance, label)``-sorted list, kept by
    ``bisect``.  Ginger's re-homing walk (``partitioners/ginger.py``)
    uses the same candidate set over edge labels and vertex groups.

``walk_edge_stream`` and Ginger's walk are pinned bit-identical to
their partitioners' ``kernel="python"`` references, and
:func:`walk_labels` to a ``|P|``-wide NumPy oracle of the loop it
replaced, by ``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Callable, Iterator
from itertools import chain

import numpy as np

__all__ = ["walk_edge_stream", "walk_labels", "DEFAULT_CHUNK"]

#: scalar-conversion window of the edge walk
DEFAULT_CHUNK = 1024


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


def walk_labels(indptr: np.ndarray, indices: np.ndarray, labels: np.ndarray,
                weights: np.ndarray, num_labels: int, capacity: float,
                rng: np.random.Generator, passes: int, *,
                settle: float = 0, edge_weights: np.ndarray | None = None,
                balance: Callable[[float], float] | None = None) -> int:
    """Capacity-constrained label propagation over a CSR adjacency.

    Rewrites ``labels`` in place; returns the number of passes run.
    Each pass visits the vertices with neighbours in an ``rng``-shuffled
    order.  Vertex ``v`` scores label ``l`` as ``h(l) / d +
    balance(load(l))``: ``h(l)`` counts ``v``'s neighbours labelled
    ``l`` (sums their ``edge_weights`` if given), ``d`` is ``v``'s
    neighbour count, ``load(l)`` sums ``weights`` over label ``l``, and
    the load term is 0 without ``balance`` (dividing by ``d`` then keeps
    every order and tie of the raw counts, for sums below 2**52).  A
    label other than ``v``'s own is rejected when ``load(l) +
    weights[v] > capacity``.  ``v`` moves to the best accepted label,
    lowest on a tie, if it beats its own label's score strictly.  The
    walk stops after ``passes`` passes, or a pass with at most
    ``settle`` moves.

    Exact for finite scores against the ``|P|``-wide loop it replaced
    (rejected labels at ``-inf``, ``np.argmax``, a strict gain test):
    a label outside the histogram scores ``0 / d + balance``, so the
    first accepted one in ``(-balance, label)`` order is the best of
    them.
    """
    ptr = indptr.tolist()
    nbr = indices.tolist()
    ew = None if edge_weights is None else edge_weights.tolist()
    lab = labels.tolist()
    vw = weights.tolist()
    loads = np.bincount(labels, weights=weights,
                        minlength=num_labels).tolist()
    bal = [0] * num_labels
    ranked = []                          # (-balance, label), ascending
    if balance is not None:
        bal = [balance(x) for x in loads]
        ranked = sorted((-b, lv) for lv, b in enumerate(bal))
    order = np.arange(len(lab))
    iterations = 0
    for iterations in range(1, passes + 1):
        rng.shuffle(order)
        moves = 0
        for v in order.tolist():
            lo, hi = ptr[v], ptr[v + 1]
            if lo == hi:
                continue
            hist = {}
            if ew is None:
                for u in nbr[lo:hi]:
                    lu = lab[u]
                    if lu in hist:
                        hist[lu] += 1
                    else:
                        hist[lu] = 1
            else:
                for u, x in zip(nbr[lo:hi], ew[lo:hi]):
                    lu = lab[u]
                    hist[lu] = hist.get(lu, 0) + x
            d = hi - lo
            cur = lab[v]
            w = vw[v]
            top = hist.get(cur, 0) / d + bal[cur]
            t = -1                       # -1: nothing beats staying
            for lv, c in hist.items():
                if lv != cur and loads[lv] + w <= capacity:
                    s = c / d + bal[lv]
                    if s > top or (s == top and 0 <= lv < t):
                        top, t = s, lv
            for nb, lv in ranked:        # best of the rest
                if -nb < top or (-nb == top and (t < 0 or lv > t)):
                    break
                if lv not in hist and loads[lv] + w <= capacity:
                    top, t = -nb, lv
                    break
            if t < 0:
                continue
            lab[v] = t
            moves += 1
            loads[cur] -= w
            loads[t] += w
            if ranked:
                for lv in (cur, t):
                    del ranked[bisect_left(ranked, (-bal[lv], lv))]
                    bal[lv] = balance(loads[lv])
                    insort(ranked, (-bal[lv], lv))
        if moves <= settle:
            break
    labels[:] = lab
    return iterations
