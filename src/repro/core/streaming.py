"""Shared streaming-partitioner substrate (the baseline zoo's hot path).

The paper's §7.1 comparisons score every streamed edge of HDRF / FENNEL
(and every re-homed vertex group of Hybrid Ginger) against all ``|P|``
partitions with state that mutates per item: per-partition
*loads* and per-vertex *replica membership*.  The reference
implementations walk the stream one item at a time, rebuilding every
membership-dependent term per edge; this module is the flat-array
substrate their ``kernel="vectorized"`` twins share.

:class:`StreamingState`
    Flat int64 ``loads`` plus replica membership backed by the same
    dense/packed-bitset backends the allocation plane uses
    (:class:`~repro.core.allocation.DenseMembership` /
    :class:`~repro.core.allocation.PackedMembership`, auto-packed at
    |P| > 64 under the PR-2 contract).

:func:`run_chunked_stream` (edge streams)
    The conflict-aware chunked scoring driver.  Per window it

    1. hoists the membership-dependent score terms of the whole window
       in one vectorized pass (:meth:`EdgeStreamScorer.window_static`)
       — the expensive part of the reference's per-edge work;
    2. attempts a bulk commit of an adaptive leading slice, clipped to
       the window's collision-free prefix (positions whose endpoints
       were already touched inside the window see stale hoisted rows;
       a single pre-computed previous-occurrence array finds them in
       O(1) per window): a tentative pass against the current flat
       loads, then a second pass against the *exact* per-position
       running loads the tentative targets imply (an exclusive
       cumulative one-hot sum — the same loads-delta idea as the
       two-hop ``_resolve_multi_shared`` batching).  The agreement
       prefix of the two passes is self-consistent, hence
       bit-identical to the sequential walk by induction, and commits
       in bulk;
    3. replays the loads-sensitive remainder through
       :meth:`EdgeStreamScorer.tail_walk` — an exact, self-committing
       sequential stepper over the hoisted rows that touches only the
       balance term per edge (a handful of NumPy ops on ``|P|``-length
       arrays instead of the reference's full rebuild), re-deriving a
       hoisted row on the fly only when an earlier placement actually
       changed one of its endpoints' score inputs (membership-bit
       flips and the scorers' extra staleness rules).

    The balance terms of HDRF/FENNEL make long drift-stable prefixes
    rare in steady state — each placement can flip the next
    near-tie — so the bulk slice adapts
    down to a cheap probe when it stops paying and back up when the
    stream enters a replication-dominated stretch.

:func:`run_chunked_fixpoint` (weighted group streams)
    The pure prefix-commit loop for scorers whose staleness rule needs
    the tentative targets themselves (Ginger's re-homing rounds: a
    histogram goes stale only when an earlier in-window *mover* is a
    neighbour).  Windows here commit wholesale once a round's movers
    thin out, so no sequential tail is needed.

:class:`EdgeStreamScorer`
    The scorer protocol plus shared machinery for unit-load edge
    streams: collision scan, loads reconstruction, generic tail
    walker, and the bulk commit (loads bincount + membership
    ``set_pairs``).

Both kernels of every partitioner built on this substrate are pinned
bit-identical — assignments, replication factors, and final loads — by
``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamingState", "EdgeStreamScorer", "run_chunked_stream",
           "run_chunked_fixpoint", "block_tail_hints", "DEFAULT_CHUNK",
           "TAIL_BLOCK"]

#: default scoring-window width of the chunked drivers
DEFAULT_CHUNK = 1024

#: smallest bulk-commit probe / fixpoint window
_MIN_WINDOW = 16

#: tail-walker hint-block width (rows per batched tie-break)
TAIL_BLOCK = 64


def block_tail_hints(static_block: np.ndarray, balance: np.ndarray,
                     subtract: bool = False) -> np.ndarray:
    """Batched argmax hints for the sequential tail walkers.

    One ``(block, |P|)`` broadcast plus a rowwise argmax replaces the
    per-edge ``|P|``-vector combine + argmax of the tail steppers.  A
    hint row is *exact* — bit-identical to the per-edge computation at
    the row's turn — whenever (a) the row's hoisted static terms are
    still fresh and (b) the hinted partition's balance entry has not
    changed since the block snapshot, **provided** every balance update
    between snapshot and turn only worsened the updated entry's score
    (the walkers' invariant: a placement raises fennel's marginal
    penalty and lowers hdrf's ``lam_cbal`` entry, and whole-vector
    rebalances invalidate the rest of the block).  Then every other
    partition's score is at most its snapshot value while the hinted
    one is unchanged, so the snapshot argmax — lowest index among
    maxima — still wins its strict-below/ties-above relations.

    Elementwise ``+``/``-`` are correctly rounded float64 regardless of
    array shape, so the broadcast rows equal the per-edge vectors
    bit-for-bit (this would *not* hold for ``**``, which is why the
    penalty tables are built through whole-array ufuncs).
    """
    if subtract:
        return (static_block - balance[None, :]).argmax(axis=1)
    return (static_block + balance[None, :]).argmax(axis=1)


class StreamingState:
    """Flat streaming-partitioner state: loads + replica membership.

    ``loads`` is the per-partition edge (or item) count as a flat int64
    array — the layout every scorer's balance term reads directly.
    Replica membership rides the allocation plane's backends: a boolean
    matrix up to |P| = 64, uint64-packed words beyond (8× smaller).
    |P| alone picks the layout, as in
    :class:`~repro.core.allocation.AllocationProcess`: packed words at
    |P| ≤ 64 cost the HDRF tail walker's scalar ``get_bit`` /
    ``set_bit`` +26–29 % ``partition_s`` on the ``serve_hdrf`` gate
    workload (see *Membership backends* in
    :mod:`repro.core.allocation`).
    """

    def __init__(self, num_vertices: int, num_partitions: int):
        # Imported here, not at module scope: the partitioner package
        # pulls this module in while core.allocation's own import chain
        # (hash2d -> partitioners.hashing) is still resolving.
        from repro.core.allocation import (
            DENSE_MEMBERSHIP_MAX_PARTITIONS,
            DenseMembership,
            PackedMembership,
        )
        self.num_partitions = num_partitions
        self.loads = np.zeros(num_partitions, dtype=np.int64)
        if num_partitions > DENSE_MEMBERSHIP_MAX_PARTITIONS:
            self.member = PackedMembership(num_vertices, num_partitions)
        else:
            self.member = DenseMembership(num_vertices, num_partitions)

    def member_rows(self, vs: np.ndarray) -> np.ndarray:
        """Boolean ``(len(vs), |P|)`` membership rows of vertices ``vs``."""
        return self.member.rows_bool(vs)

    def add_replicas(self, vs: np.ndarray, ps: np.ndarray) -> None:
        """Set membership bit ``(v, p)`` for every parallel pair."""
        self.member.set_pairs(vs, ps)


class EdgeStreamScorer:
    """Chunked-scorer base for unit-load edge streams.

    Subclasses implement

    * :meth:`window_static` — hoist every membership/degree-dependent
      score term of a window into one aux object, exactly reproducing
      the reference kernel's per-edge arithmetic rowwise against the
      window-start state;
    * :meth:`pick` — select targets for a row range of the window
      against a broadcastable loads matrix, using only the aux terms
      plus the loads-dependent part of the score (rows are only picked
      while their hoisted terms are provably fresh);
    * :meth:`tail_walk` — the exact sequential stepper for the
      loads-sensitive remainder of a window.  It commits its own
      per-edge state (live ``state.loads``, membership bits via
      ``get_bit``/``set_bit`` flip tracking, scorer extras) and
      re-derives a hoisted row exactly when the *changed* set — seeded
      by :meth:`commit` with the bulk prefix's membership flips and
      extended per step — touches one of its endpoints;

    and may override :meth:`apply` with extra bulk-commit state
    (degrees, remaining-degree counters; endpoints are pairwise
    distinct across a committed prefix, so plain fancy updates are
    exact there).

    ``u`` / ``v`` are the stream-ordered endpoint arrays: position ``i``
    of the stream is the edge ``(u[i], v[i])``.
    """

    def __init__(self, state: StreamingState, u: np.ndarray, v: np.ndarray):
        self.state = state
        self.u = np.ascontiguousarray(u, dtype=np.int64)
        self.v = np.ascontiguousarray(v, dtype=np.int64)
        #: per position, the previous stream position sharing one of its
        #: endpoints (-1 if none) — the driver's collision oracle
        self.prev_occ = self._previous_occurrence()
        #: vertices whose score inputs changed since the current
        #: window's static pass (seeded by commit, grown by tail_walk)
        self._changed: set = set()

    def __len__(self) -> int:
        return len(self.u)

    def _previous_occurrence(self) -> np.ndarray:
        n = len(self.u)
        ends = np.empty(2 * n, dtype=np.int64)
        ends[0::2] = self.u
        ends[1::2] = self.v
        order = np.argsort(ends, kind="stable")
        se = ends[order]
        prev_slot = np.full(2 * n, -1, dtype=np.int64)
        same = se[1:] == se[:-1]
        prev_slot[order[1:][same]] = order[:-1][same]
        pos = prev_slot >> 1           # slot -> stream position (-1 kept)
        return np.maximum(pos[0::2], pos[1::2])

    # -- subclass hooks -------------------------------------------------
    def window_static(self, sl: slice):
        raise NotImplementedError

    def pick(self, aux, rows, loads_mat: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tail_walk(self, sl: slice, aux, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def apply(self, u: np.ndarray, v: np.ndarray,
              targets: np.ndarray) -> None:
        """Extra bulk-commit state updates."""

    # -- shared machinery ----------------------------------------------
    def reconstruct(self, t0: np.ndarray) -> np.ndarray:
        """Exact running loads per position if the tentative targets
        ``t0`` were committed in order: row ``i`` is the flat loads plus
        one increment per earlier tentative placement (an exclusive
        cumulative sum of one-hot rows)."""
        w = len(t0)
        p = self.state.num_partitions
        hot = np.zeros((w, p), dtype=np.int64)
        if w > 1:
            hot[np.arange(1, w), t0[:-1]] = 1
            np.cumsum(hot, axis=0, out=hot)
        return self.state.loads[None, :] + hot

    def commit(self, sl: slice, targets: np.ndarray) -> None:
        """Apply a proven prefix in bulk: loads scatter-add, membership
        bits for both endpoints (recording actual flips as the tail
        walker's staleness seed), then the subclass's extra state."""
        u, v = self.u[sl], self.v[sl]
        state = self.state
        both = np.concatenate([u, v])
        ts = np.concatenate([targets, targets])
        flipped = ~state.member.test_pairs(both, ts)
        state.add_replicas(both, ts)
        self._changed = set(both[flipped].tolist())
        state.loads += np.bincount(targets, minlength=state.num_partitions)
        self.apply(u, v, targets)


def run_chunked_stream(scorer: EdgeStreamScorer,
                       chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """Drive an edge-stream scorer over its whole stream.

    Window loop: hoist the static score terms once, bulk-commit the
    drift-stable leading slice (tentative pass + exact
    reconstructed-loads pass over the collision-free prefix, commit
    the agreement prefix), and replay the remainder with the scorer's
    self-committing sequential tail stepper.  The bulk-slice width
    adapts to its recent success so the two vectorized passes degrade
    to a cheap probe wherever the balance term dominates.
    """
    n = len(scorer)
    targets = np.empty(n, dtype=np.int64)
    prev = scorer.prev_occ
    i0 = 0
    vcap = chunk
    while i0 < n:
        w = min(chunk, n - i0)
        sl = slice(i0, i0 + w)
        aux = scorer.window_static(sl)

        # Bulk attempt, clipped to the collision-free window prefix.
        stale = np.flatnonzero(prev[i0:i0 + w] >= i0)
        vw = min(vcap, int(stale[0]) if len(stale) else w)
        base = scorer.state.loads[None, :]
        t0 = scorer.pick(aux, slice(0, vw), base)
        t1 = scorer.pick(aux, slice(0, vw), scorer.reconstruct(t0))
        neq = np.flatnonzero(t1 != t0)
        r = max(1, int(neq[0])) if len(neq) else vw
        scorer.commit(slice(i0, i0 + r), t1[:r])
        targets[i0:i0 + r] = t1[:r]
        vcap = min(chunk, 2 * vcap) if r == vw else max(_MIN_WINDOW, 2 * r)

        if r < w:
            targets[i0 + r:i0 + w] = scorer.tail_walk(sl, aux, r, w)
        i0 += w
    return targets


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
