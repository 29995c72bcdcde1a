"""Unit tests for the expansion process, its boundary and its seed scan.

The segmented :class:`BoundaryStore` is pinned against one
:class:`HeapqBoundaryQueue` per segment (hypothesis interleavings, a
threaded stress run over disjoint segments), and the one-probe seed
scan against the probe loop it replaced, kept here as the definition.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expansion import (BoundarySegment, BoundaryStore,
                                  ExpansionProcess, HeapqBoundaryQueue,
                                  SharedSeedSource)
from repro.core.hash2d import Hash2DPlacement


def _segment() -> BoundarySegment:
    """The one segment of a fresh one-segment store."""
    return BoundarySegment(BoundaryStore(), 0)


@pytest.fixture(params=[_segment, HeapqBoundaryQueue],
                ids=["BoundaryQueue", "HeapqBoundaryQueue"])
def queue_cls(request):
    """The one-segment store and the reference share one contract
    (the first id is the per-process array queue's, whose cases the
    one-segment store took over unchanged)."""
    return request.param


class TestBoundaryQueue:
    def test_pop_min_order(self, queue_cls):
        q = queue_cls()
        q.insert(10, 5)
        q.insert(20, 1)
        q.insert(30, 3)
        assert q.pop_k_min(3) == [20, 30, 10]

    def test_pop_k_respects_k(self, queue_cls):
        q = queue_cls()
        for v, d in [(1, 4), (2, 2), (3, 9)]:
            q.insert(v, d)
        assert q.pop_k_min(2) == [2, 1]
        assert len(q) == 1

    def test_duplicate_insert_ignored(self, queue_cls):
        q = queue_cls()
        q.insert(7, 3)
        q.insert(7, 1)  # second insert dropped (set semantics)
        assert len(q) == 1
        assert q.pop_k_min(5) == [7]

    def test_pop_from_empty(self, queue_cls):
        assert queue_cls().pop_k_min(3) == []

    def test_len_tracks_members(self, queue_cls):
        q = queue_cls()
        q.insert(1, 1)
        q.insert(2, 2)
        assert len(q) == 2
        q.pop_k_min(1)
        assert len(q) == 1

    def test_tie_breaks_by_vertex_id(self, queue_cls):
        q = queue_cls()
        q.insert(9, 2)
        q.insert(3, 2)
        assert q.pop_k_min(2) == [3, 9]


class TestArrayBoundaryQueue:
    """Batched API specific to the one-segment store."""

    def test_insert_many_then_pop_array(self):
        q = _segment()
        q.insert_many(np.array([5, 1, 9]), np.array([2, 7, 2]))
        out = q.pop_k_min_array(2)
        assert out.dtype == np.int64
        assert out.tolist() == [5, 9]
        assert len(q) == 1

    def test_insert_many_respects_existing_members(self):
        q = _segment()
        q.insert(4, 1)
        q.insert_many(np.array([4, 8]), np.array([99, 3]))
        assert len(q) == 2
        assert q.pop_k_min(2) == [4, 8]  # 4 kept its original score

    def test_membership_mask_grows_with_vertex_ids(self):
        """(Named for the per-queue mask; the store widens its packed
        vertex field instead.)"""
        q = _segment()
        q.insert(10_000, 1)
        q.insert_many(np.array([999_999]), np.array([0]))
        assert len(q) == 2
        assert q.pop_k_min(2) == [999_999, 10_000]

    def test_pop_empty_array(self):
        q = _segment()
        assert q.pop_k_min_array(3).tolist() == []
        q.insert(1, 1)
        assert q.pop_k_min_array(0).tolist() == []

    def test_entries_are_the_content_in_pop_order(self):
        q = _segment()
        q.insert_many(np.array([5, 1, 9]), np.array([2, 7, 2]))
        vertices, drests = q.entries()
        assert (vertices.tolist(), drests.tolist()) == ([5, 9, 1], [2, 2, 7])
        assert len(q) == 3                       # a read, not a pop


# ----------------------------------------------------------------------
# The segmented store against one heapq reference per segment
# ----------------------------------------------------------------------
_ROWS = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 40),
                           st.integers(0, 12)), max_size=12)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _ROWS),
    # a vertex id and a score beyond anything seen: both fields widen
    st.tuples(st.just("insert"),
              st.lists(st.tuples(st.integers(0, 8),
                                 st.integers(2 ** 20, 2 ** 34),
                                 st.integers(2 ** 10, 2 ** 20)),
                       min_size=1, max_size=3)),
    st.tuples(st.just("pop"),
              st.lists(st.tuples(st.integers(0, 8), st.integers(0, 9)),
                       max_size=9, unique_by=lambda sk: sk[0])),
    st.tuples(st.just("flush"),
              st.one_of(st.just(1.0), st.floats(0.05, 1.0)))), max_size=30)


def _split(vertices, counts):
    return [chunk.tolist()
            for chunk in np.split(vertices, np.cumsum(counts)[:-1])]


class TestBoundaryStore:
    @settings(max_examples=150, deadline=None)
    @given(num_segments=st.integers(1, 9), ops=_OPS)
    def test_interleavings_match_one_heapq_per_segment(self, num_segments,
                                                       ops):
        """Random insert / pop interleavings: pop order ⟨Drest, vertex⟩
        with the vertex tie-break, entry-time scores kept, duplicates
        in a batch and re-insertion of a member dropped, re-insertion
        after a pop accepted, empty segments, k >= size, the
        lam-fraction pop over every segment (lam = 1: the flush) and
        field growth mid-run."""
        store = BoundaryStore(num_segments)
        refs = [HeapqBoundaryQueue() for _ in range(num_segments)]
        for op, arg in ops:
            if op == "insert":
                rows = [(s % num_segments, v, d) for s, v, d in arg]
                segs, vs, ds = (np.array(col, dtype=np.int64)
                                for col in (zip(*rows) if rows
                                            else ((), (), ())))
                store.insert(segs, vs, ds)
                for s, v, d in rows:
                    refs[s].insert(v, d)
                continue
            if op == "pop":
                picks = {s % num_segments: k for s, k in arg}
            else:                                 # Algorithm 4's k
                picks = {s: max(1, int(np.ceil(arg * len(refs[s]))))
                         for s in range(num_segments)}
            segs = np.array(list(picks), dtype=np.int64)
            vertices, counts = store.pop(
                segs, np.array(list(picks.values()), dtype=np.int64))
            expect = [refs[s].pop_k_min(k) for s, k in picks.items()]
            assert counts.tolist() == [len(e) for e in expect]
            if picks:
                assert _split(vertices, counts) == expect
            assert store.sizes.tolist() == [len(ref) for ref in refs]
        for s, ref in enumerate(refs):            # residual content too
            assert store.entries(s)[0].tolist() == ref.pop_k_min(10 ** 6)

    def test_reinsertion_after_pop_takes_the_new_score(self):
        store = BoundaryStore(2)
        one = np.array([1])
        store.insert(one, np.array([7]), np.array([9]))
        assert store.pop(one, one)[0].tolist() == [7]
        store.insert(np.array([1, 1, 0]), np.array([7, 3, 7]),
                     np.array([1, 5, 4]))
        assert store.pop(np.array([0, 1]), np.array([5, 5]))[0].tolist() \
            == [7, 7, 3]

    def test_widening_keeps_order_and_membership(self):
        store = BoundaryStore(3)
        segs = np.array([2, 0, 2])
        store.insert(segs, np.array([5, 6, 4]), np.array([3, 1, 3]))
        store.insert(np.array([2, 1]), np.array([2 ** 40, 6]),
                     np.array([2 ** 18, 0]))     # both fields widen
        store.insert(np.array([2]), np.array([5]), np.array([0]))  # member
        assert store.sizes.tolist() == [1, 1, 3]
        assert store.pop(np.array([2]), np.array([9]))[0].tolist() \
            == [4, 5, 2 ** 40]

    def test_key_overflow_raises_instead_of_wrapping(self):
        store = BoundaryStore(256)                # 8 segment bits
        one = np.array([3])
        store.insert(one, np.array([2 ** 30]), np.array([2 ** 20]))
        with pytest.raises(ValueError, match="overflow"):
            store.insert(one, np.array([2 ** 40]), np.array([1]))
        with pytest.raises(ValueError, match="overflow"):
            store.insert(one, np.array([1]), np.array([2 ** 30]))
        # refused whole: content and field widths are what they were
        assert store.sizes.sum() == 1
        assert store.pop(one, one)[0].tolist() == [2 ** 30]

    def test_threads_over_disjoint_segments(self):
        """Shares of one superstep mutate the store concurrently, each
        over its own segments: no update is lost (more threads than
        cores, a shortened switch interval, bounded joins)."""
        num_threads, per_thread, rounds = 8, 3, 60
        store = BoundaryStore(num_threads * per_thread)
        refs = [HeapqBoundaryQueue() for _ in range(len(store.sizes))]
        errors = []

        def share(t):
            try:
                rng = np.random.default_rng(t)
                segs = np.arange(t * per_thread, (t + 1) * per_thread)
                for _ in range(rounds):
                    rows = rng.integers(0, 200, (int(rng.integers(1, 20)), 2))
                    owner = segs[rng.integers(0, per_thread, len(rows))]
                    store.insert(owner, rows[:, 0], rows[:, 1])
                    for s, (v, d) in zip(owner.tolist(), rows.tolist()):
                        refs[s].insert(v, d)
                    ks = rng.integers(0, 6, per_thread)
                    vertices, counts = store.pop(segs, ks)
                    assert _split(vertices, counts) == [
                        refs[s].pop_k_min(k)
                        for s, k in zip(segs.tolist(), ks.tolist())]
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=share, args=(t,))
                       for t in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert store.sizes.tolist() == [len(ref) for ref in refs]
        assert store.sizes.sum() > 0


# ----------------------------------------------------------------------
# The seed scan against the probe loop it replaced
# ----------------------------------------------------------------------
def _probe_loop_seed(proc):
    """The definition: probe the co-located allocator, then every
    other one in ascending order, until a lookup returns a vertex;
    every remote scanned costs one request/response pair."""
    proc.random_seed_requests += 1
    order = [proc.partition] + [
        p for p in range(proc.num_partitions) if p != proc.partition]
    probed, found = [], None
    for proc_id in order:
        if proc_id != proc.partition:
            probed.append(("alloc", proc_id))
        if proc.seed_strategy == "min_degree":
            v = proc.seed_source.min_degree_vertex(proc_id)
        else:
            v = proc.seed_source.random_vertex(proc_id, proc.rng)
        if v is not None:
            found = v
            break
    proc.remote_seed_requests += len(probed)
    proc.account_rpc_pairs(probed, 8)
    return found


def _seed_arrays(live, rng):
    """Per-allocator (local vertices, remaining degrees): a live
    allocator has some vertex left, a dead one none."""
    lvs, rests = [], []
    for k, alive in enumerate(live):
        lvs.append(np.arange(100 * k, 100 * k + 6))
        rest = rng.integers(1, 5, 6) * (rng.random(6) < 0.6)
        rest[rng.integers(6)] = 3                # at least one candidate
        rests.append(rest * int(alive))
    return lvs, rests


class TestSeedScan:
    @pytest.mark.parametrize("strategy", ["random", "min_degree"])
    @pytest.mark.parametrize("pattern", [
        "own", "none", "before", "after", "random", "random", "random"])
    def test_one_probe_scan_equals_the_probe_loop(self, pattern, strategy):
        """Own allocator live, none live, first live one before / after
        the requester, random patterns: same vertex, same RNG state
        afterwards, same counters, same ``rpc`` outbox entries."""
        parts, own = 7, 3
        rng = np.random.default_rng(sum(map(ord, pattern)))
        live = {"own": [0, 1, 0, 1, 0, 0, 1], "none": [0] * parts,
                "before": [0, 1, 0, 0, 0, 1, 0],
                "after": [0, 0, 0, 0, 0, 1, 1]}.get(
                    pattern, (rng.random(parts) < 0.4).astype(int).tolist())
        lvs, rests = _seed_arrays(live, rng)
        source = SharedSeedSource(lvs, rests)
        assert source.live().tolist() == [bool(x) for x in live]
        outcomes = []
        for scan in (_probe_loop_seed, ExpansionProcess._random_seed):
            proc = ExpansionProcess(
                own, parts, limit=10, total_edges=10, lam=0.1, seed=5,
                placement=Hash2DPlacement(parts), seed_strategy=strategy,
                seed_source=source)
            proc._outbox = []
            found = [scan(proc) for _ in range(3)]
            outcomes.append((found, proc.rng.bit_generator.state,
                             proc.random_seed_requests,
                             proc.remote_seed_requests, proc._outbox))
        assert outcomes[0] == outcomes[1]
        found, _, requests, remote, outbox = outcomes[1]
        assert requests == 3 and len(outbox) == remote
        assert (found[0] is None) == (pattern == "none")
        if pattern in ("before", "after"):
            assert remote == 3 * {"before": 2, "after": 5}[pattern]


class TestMultiExpansionK:
    """k = max(1, ceil(lambda * |B|)) from Algorithm 4."""

    @pytest.mark.parametrize("lam,boundary,expected", [
        (0.1, 100, 10),
        (0.1, 5, 1),
        (1.0, 7, 7),
        (0.001, 50, 1),
        (0.5, 3, 2),
    ])
    def test_k_formula(self, lam, boundary, expected):
        k = max(1, int(np.ceil(lam * boundary)))
        assert k == expected
