"""The two send planes: accounting, delivery order, and the central
payload-contract pins.

Eager ``send`` is the reference plane: one message, priced by
``payload_nbytes`` at call time, delivered at the next barrier.  A
``SegmentBatch`` sweep (``send_segments``, the vectorized kernel's
plane) must be observationally *one eager send per segment* everywhere
the accounting model looks: identical per-process message/byte totals
on both sides, identical per-mailbox ``(src, payload)`` order through
``Process.receive``, exact bytes past 2^53, unchanged under outbox
replay and destination-mask sub-batching — plus one
``send_batches`` / ``receive_batches`` tick per segment, and one
mailbox entry per sweep at any |P|.  These tests pin that contract
centrally so the byte-equality pins between the reference kernel
(tuple lists over ``send``) and the vectorized kernel (row arrays in
sweeps) cannot rot silently.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.cluster.accounting import payload_nbytes
from repro.cluster.backends.base import apply_outbox
from repro.cluster.runtime import (Process, SegmentBatch, SegmentQueue,
                                  SimulatedCluster)

#: payload shapes spanning the whole contract: ndarray pair batches,
#: reference tuple lists, id arrays, scalars, and control messages
PAYLOADS = [
    None,
    7,
    [(1, 2), (3, 4), (5, 6)],
    [],
    np.arange(8, dtype=np.int64).reshape(4, 2),
    np.empty((0, 2), dtype=np.int64),
    np.arange(5, dtype=np.int64),
]


def _cluster(pids):
    cluster = SimulatedCluster()
    procs = [cluster.add_process(Process(pid)) for pid in pids]
    return cluster, procs


def _totals(cluster, pids):
    return {
        pid: (s.messages_sent, s.bytes_sent,
              s.messages_received, s.bytes_received)
        for pid in pids
        for s in [cluster.stats.stats_for(pid)]
    }


def _sweep(rows, src_pids, dst_pids, lengths):
    """A sweep of ``len(lengths)`` segments over ``rows``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return SegmentBatch(
        np.asarray(rows, dtype=np.int64), offsets,
        src_pids[0][0], np.array([slot for _, slot in src_pids]),
        dst_pids[0][0], np.array([slot for _, slot in dst_pids]))


class TestBatchedAccountingEquality:
    """Central pin: however a message reaches the accountant — eager,
    replayed from an outbox, or as a segment of a sweep — it prices the
    same."""

    @pytest.mark.parametrize("src,dst", [
        (("alloc", 0), ("alloc", 1)),       # cross-machine tuples
        (("expansion", 2), ("alloc", 2)),   # co-located (free on wire)
        ("a", "b"),                         # plain ids
        ("solo", "solo"),                   # self-send
    ])
    def test_totals_match_eager_send(self, src, dst):
        """Outbox-recorded sends replayed by the parent (what a
        parallel backend does) == eager sends, for every payload shape:
        totals, and mailbox contents in order."""
        pids = [src] if src == dst else [src, dst]
        eager, (ep, *_rest) = _cluster(pids)
        replayed, (rp, *_rest) = _cluster(pids)
        rp._outbox = []
        for payload in PAYLOADS:
            ep.send(dst, "t", payload)
            rp.send(dst, "t", payload)
        outbox, rp._outbox = rp._outbox, None
        assert len(outbox) == len(PAYLOADS)
        assert _totals(replayed, pids) != _totals(eager, pids)
        apply_outbox(replayed, rp.pid, outbox)
        assert _totals(eager, pids) == _totals(replayed, pids)
        replayed.barrier()
        eager.barrier()
        # Same mailbox contents in the same order.
        edel = eager.process(dst).receive("t")
        rdel = replayed.process(dst).receive("t")
        assert len(edel) == len(rdel) == len(PAYLOADS)
        for (es, epay), (rs, rpay) in zip(edel, rdel):
            assert es == rs
            if isinstance(epay, np.ndarray):
                assert np.array_equal(epay, rpay)
            else:
                assert epay == rpay

    def test_bulk_price_is_sum_of_payload_nbytes(self):
        """A sweep's one-pass bulk price equals the per-segment
        ``payload_nbytes`` sum over its cross-machine segments —
        co-located segments are messages but free on the wire."""
        cluster, _ = _cluster([("alloc", 0), ("alloc", 1), ("alloc", 2)])
        rows = np.arange(24, dtype=np.int64).reshape(12, 2)
        batch = _sweep(rows, [("alloc", 0)] * 3,
                       [("alloc", 0), ("alloc", 1), ("alloc", 2)],
                       [5, 3, 4])
        cluster.deliver_segments("t", batch)
        payloads = [payload for _, (_, payload) in batch.messages()]
        expected = sum(payload_nbytes(p) for p in payloads[1:])
        assert expected == 16 * 7
        sender = cluster.stats.stats_for(("alloc", 0))
        assert sender.bytes_sent == expected
        assert sender.messages_sent == 3
        assert sender.bytes_received == 0 and sender.messages_received == 1
        assert cluster.stats.stats_for(("alloc", 1)).bytes_received == 48
        assert cluster.stats.stats_for(("alloc", 2)).bytes_received == 64

    def test_one_bulk_pass_per_communication_edge(self):
        """The batching counters, asserted directly: one
        ``send_batches`` / ``receive_batches`` tick per segment — per
        (src, dst) edge of the sweep — however many rows it carries,
        and none for eager sends."""
        cluster, (a, b, c) = _cluster([("x", 0), ("x", 1), ("x", 2)])
        batch = _sweep(np.arange(9), [a.pid, a.pid, b.pid],
                       [b.pid, c.pid, c.pid], [5, 1, 3])
        a.send_segments("t", batch)
        a.send(c.pid, "u", 1)
        stats = cluster.stats
        assert stats.stats_for(a.pid).messages_sent == 3
        assert stats.stats_for(a.pid).send_batches == 2   # (a,b), (a,c)
        assert stats.stats_for(b.pid).send_batches == 1   # (b,c)
        assert stats.stats_for(b.pid).receive_batches == 1
        assert stats.stats_for(c.pid).receive_batches == 2
        assert sum(s.send_batches for s in stats.per_process.values()) \
            == len(batch) == 3


class TestPairArrayContract:
    """The payload contract on pair batches: the reference's tuple list
    and the vectorized kernel's ``(k, 2)`` int64 rows are the same
    values and both price to 16k bytes, on either plane."""

    @pytest.mark.parametrize("pairs", [
        [], [(3, 1)], [(0, 0), (5, 2), (5, 2), (7, 1)],
    ])
    def test_forms_normalise_identically_and_price_16k(self, pairs):
        as_list = [tuple(p) for p in pairs]
        as_array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert np.array_equal(
            np.asarray(as_list, dtype=np.int64).reshape(-1, 2), as_array)
        assert payload_nbytes(as_list) == payload_nbytes(as_array) \
            == 16 * len(pairs)
        if pairs:       # a segment is never empty
            batch = _sweep(as_array, [("alloc", 0)], [("alloc", 1)],
                           [len(pairs)])
            assert batch.nbytes.tolist() == [16 * len(pairs)]

    def test_ndarray_passthrough_no_copy(self):
        """Rows cross the segment plane uncopied when a sweep is taken
        whole: the take hands back the delivered batch itself, and
        ``receive`` hands out views of its row array."""
        rows = np.arange(12, dtype=np.int64).reshape(6, 2)
        batch = _sweep(rows, [("alloc", 0), ("alloc", 2)],
                       [("alloc", 1)] * 2, [4, 2])
        cluster, _ = _cluster([("alloc", k) for k in range(3)])
        cluster.deliver_segments("t", batch)
        mail = cluster.process(("alloc", 1)).receive("t")
        assert [src for src, _ in mail] == [("alloc", 0), ("alloc", 2)]
        assert mail[1][1].tolist() == rows[4:].tolist()
        assert all(np.shares_memory(payload, rows) for _, payload in mail)
        cluster.deliver_segments("u", batch)
        assert cluster.take_segments("alloc", "u", [1])[0] is batch

    def test_batched_wire_forms_price_identically(self):
        """End-to-end: the reference's tuple list over eager ``send``
        and the vectorized kernel's row array in a sweep drive
        identical totals."""
        pairs = [(9, 0), (4, 2), (11, 1)]
        totals = {}
        for form in ("list", "array"):
            cluster, (a, b) = _cluster([("alloc", 0), ("alloc", 1)])
            if form == "list":
                a.send(b.pid, "t", list(pairs))
            else:
                a.send_segments("t", _sweep(pairs, [a.pid], [b.pid], [3]))
            cluster.barrier()
            totals[form] = _totals(cluster, [a.pid, b.pid])
        assert totals["list"] == totals["array"]
        assert totals["list"][a.pid][:2] == (1, 48)


class TestFlushVersusBarrier:
    @staticmethod
    def _send_on_both_planes():
        cluster, (a, b) = _cluster([("alloc", 0), ("alloc", 1)])
        a.send(b.pid, "eager", 1)
        a.send_segments("bulk", _sweep(np.arange(4), [a.pid], [b.pid], [4]))
        return cluster, a, b

    def test_flush_drains_batched_without_counting_barrier(self):
        cluster, a, b = self._send_on_both_planes()
        assert not cluster.has_mail(b.pid, "eager")   # eager mail in flight
        assert cluster.has_mail(b.pid, "bulk")        # sweeps land at once
        assert cluster.mail_slots("alloc", "eager") == set()
        assert cluster.mail_slots("alloc", "bulk") == {1}
        cluster.flush()
        assert cluster.mail_slots("alloc", "eager") == {1}
        assert cluster.stats.barriers == 0
        # Both planes readable and accounted.
        assert b.receive("eager") == [(a.pid, 1)]
        bulk = b.receive("bulk")
        assert len(bulk) == 1 and bulk[0][0] == a.pid
        assert not cluster._in_flight and not cluster.segment_mail()
        assert cluster.stats.stats_for(a.pid).messages_sent == 2
        assert cluster.stats.stats_for(a.pid).bytes_sent == 8 + 32

    def test_barrier_counts_and_drains_both_planes(self):
        cluster, a, b = self._send_on_both_planes()
        cluster.barrier()
        assert cluster.stats.barriers == 1
        assert not cluster._in_flight
        assert b.receive("eager") == [(a.pid, 1)]
        assert [src for src, _ in b.receive("bulk")] == [a.pid]

    def test_repeated_drains_idempotent(self):
        cluster, a, b = self._send_on_both_planes()
        cluster.flush()
        cluster.flush()
        cluster.barrier()
        s = cluster.stats.stats_for(a.pid)
        assert s.messages_sent == 2
        assert cluster.stats.barriers == 1
        assert len(b.receive("eager")) == len(b.receive("bulk")) == 1
        assert b.receive("eager") == b.receive("bulk") == []


class TestDeliveryOrder:
    def test_eager_before_batched_then_buffer_first_send_order(self):
        """One mailbox fed by both planes reads eager mail first (send
        order), then the sweeps in delivery order, segments in sweep
        order inside each."""
        cluster, (a, b, c) = _cluster([("x", 0), ("x", 1), ("x", 2)])
        b.send_segments("t", _sweep([10], [b.pid], [c.pid], [1]))
        a.send(c.pid, "t", "a-eager")
        a.send_segments("t", _sweep([20, 21], [a.pid, b.pid],
                                    [c.pid, c.pid], [1, 1]))
        b.send(c.pid, "t", "b-eager")
        cluster.barrier()
        got = [(src, payload if isinstance(payload, str)
                else payload.tolist()) for src, payload in c.receive("t")]
        assert got == [(a.pid, "a-eager"), (b.pid, "b-eager"),
                       (b.pid, [10]), (a.pid, [20]), (b.pid, [21])]

    def test_single_message_per_destination_order_matches_eager(self):
        """The DNE pattern — at most one message per (src, dst, tag)
        per window, sources ascending — reads back in the same order
        from a sweep as from eager sends."""
        pids = [("alloc", k) for k in range(4)]
        orders = {}
        for plane in ("send", "send_segments"):
            cluster, procs = _cluster(pids)
            if plane == "send":
                for p in procs[1:]:
                    p.send(procs[0].pid, "t", np.array([p.pid[1]]))
            else:
                procs[1].send_segments("t", _sweep(
                    [1, 2, 3], pids[1:], [pids[0]] * 3, [1, 1, 1]))
            cluster.barrier()
            orders[plane] = [(src, payload.tolist())
                             for src, payload in procs[0].receive("t")]
        assert orders["send"] == orders["send_segments"]
        assert [src for src, _ in orders["send"]] == pids[1:]


# ----------------------------------------------------------------------
# Segment sweeps: one SegmentBatch per emission sweep
# ----------------------------------------------------------------------
_COUNTERS = ("messages_sent", "bytes_sent", "messages_received",
             "bytes_received", "send_batches", "receive_batches")


def _dne_cluster(machines):
    pids = ([("alloc", k) for k in range(machines)]
            + [("expansion", k) for k in range(machines)])
    return _cluster(pids)[0], pids


def _counters(cluster, pids):
    return {pid: tuple(getattr(cluster.stats.stats_for(pid), c)
                       for c in _COUNTERS) for pid in pids}


def _random_sweep(rng, machines, shape, dst_role="alloc", width=2):
    """A sweep in creation order (sources ascending, destinations
    ascending): distinct (src, dst) pairs, no empty segment."""
    if shape == "all_to_all":
        pairs = [(s, d) for s in range(machines) for d in range(machines)]
    elif shape == "single_destination":
        pairs = [(s, machines // 2) for s in range(machines)]
    elif shape == "colocated":
        pairs = [(s, s) for s in range(machines)] + [(0, machines - 1)]
    else:
        hit = rng.random((machines, machines)) < 0.3
        hit[0, 1] = True
        pairs = [(s, d) for s in range(machines) for d in range(machines)
                 if hit[s, d]]
    pairs.sort()
    lengths = rng.integers(1, 6, size=len(pairs))
    offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    rows = rng.integers(0, 1000, size=(int(offsets[-1]), width))
    if width == 1:
        rows = rows[:, 0]
    return SegmentBatch(rows.astype(np.int64), offsets,
                        "alloc", np.array([s for s, _ in pairs]),
                        dst_role, np.array([d for _, d in pairs]))


def _mailboxes(cluster, pids, tag):
    return {pid: [(src, payload.tolist())
                  for src, payload in cluster.process(pid).receive(tag)]
            for pid in pids}


class TestSegmentBatchDelivery:
    """A SegmentBatch delivery is observationally one eager ``send``
    per segment."""

    @pytest.mark.parametrize("shape", ["random", "colocated",
                                       "single_destination", "all_to_all"])
    @pytest.mark.parametrize("dst_role,width", [("alloc", 2),
                                                ("expansion", 1)])
    def test_equals_send_batched_per_segment(self, shape, dst_role, width):
        """Messages and bytes on both sides, and every mailbox's
        ``(src, payload)`` order through ``Process.receive``, equal one
        eager ``send`` per segment; the batch counters — which eager
        sends never tick — equal the segment counts directly."""
        rng = np.random.default_rng(hash((shape, width)) % 2**32)
        for _ in range(5):
            machines = int(rng.integers(2, 9))
            batch = _random_sweep(rng, machines, shape, dst_role, width)
            swept, pids = _dne_cluster(machines)
            plain, _ = _dne_cluster(machines)
            swept.process(("alloc", 0)).send_segments("t", batch)
            for dst, (src, payload) in batch.messages():
                plain.process(src).send(dst, "t", payload)
            assert _totals(swept, pids) == _totals(plain, pids)
            sent = Counter(batch.src_slots.tolist())
            got = Counter(batch.dst_slots.tolist())
            for role, slot in pids:
                stats = swept.stats.stats_for((role, slot))
                assert stats.send_batches == (
                    sent[slot] if role == batch.src_role else 0)
                assert stats.receive_batches == (
                    got[slot] if role == batch.dst_role else 0)
            assert sum(s.send_batches for s in
                       swept.stats.per_process.values()) == len(batch)
            plain.barrier()
            swept.barrier()
            assert all(swept.has_mail(pid, "t") == plain.has_mail(pid, "t")
                       for pid in pids)
            # the per-tag query is the per-process probe, on both layouts
            for role in ("alloc", "expansion"):
                waiting = {pid[1] for pid in pids
                           if pid[0] == role and swept.has_mail(pid, "t")}
                assert swept.mail_slots(role, "t") == waiting \
                    == plain.mail_slots(role, "t")
            assert swept.mail_slots(batch.dst_role, "t")
            assert _mailboxes(swept, pids, "t") == _mailboxes(plain, pids, "t")
            assert not any(swept.has_mail(pid, "t") for pid in pids)
            assert swept.mail_slots(batch.dst_role, "t") == set() \
                == plain.mail_slots(batch.dst_role, "t")

    def test_one_mailbox_entry_per_sweep(self):
        cluster, _ = _dne_cluster(6)
        batch = _random_sweep(np.random.default_rng(1), 6, "all_to_all")
        cluster.deliver_segments("t", batch)
        assert not cluster._delivered
        assert len(cluster.segment_mail()) == 1

    def test_empty_segment_rejected(self):
        cluster, _ = _dne_cluster(2)
        batch = SegmentBatch(np.zeros((3, 2), dtype=np.int64),
                             np.array([0, 3, 3]), "alloc", np.array([0, 1]),
                             "alloc", np.array([1, 0]))
        with pytest.raises(ValueError):
            cluster.deliver_segments("t", batch)

    def test_unknown_destination_raises_before_accounting(self):
        cluster, pids = _dne_cluster(2)
        batch = SegmentBatch(np.zeros((2, 2), dtype=np.int64),
                             np.array([0, 1, 2]), "alloc", np.array([0, 0]),
                             "alloc", np.array([1, 7]))
        before = _counters(cluster, pids)
        with pytest.raises(KeyError):
            cluster.deliver_segments("t", batch)
        assert _counters(cluster, pids) == before

    def test_byte_totals_exact_past_2_to_53(self):
        """Wire bytes accumulate in int64: 2**56 + 8 is not a float64
        (spacing 16 up there), so a float-weighted bincount would
        round it."""
        cluster, _ = _dne_cluster(3)
        big = 2 ** 53
        rows = np.broadcast_to(np.int64(0), (big + 1,))  # no memory behind it
        batch = SegmentBatch(rows, np.array([0, big, big + 1]),
                             "alloc", np.array([0, 1]),
                             "expansion", np.array([2, 2]))
        cluster.deliver_segments("t", batch)
        total = 8 * (big + 1)
        assert total > 2 ** 53 and int(float(total)) != total
        assert cluster.stats.stats_for(("expansion", 2)).bytes_received \
            == total
        assert cluster.stats.stats_for(("alloc", 0)).bytes_sent == 8 * big
        assert cluster.stats.stats_for(("alloc", 1)).bytes_sent == 8

    def test_outbox_replay_equals_inline_delivery(self):
        batch = _random_sweep(np.random.default_rng(2), 5, "random")
        inline, pids = _dne_cluster(5)
        replayed, _ = _dne_cluster(5)
        inline.process(("alloc", 3)).send_segments("t", batch)
        carrier = replayed.process(("alloc", 3))
        carrier._outbox = []
        carrier.send_segments("t", batch)
        outbox, carrier._outbox = carrier._outbox, None
        assert len(outbox) == 1
        assert _counters(replayed, pids) != _counters(inline, pids)
        apply_outbox(replayed, carrier.pid, outbox)
        assert _counters(replayed, pids) == _counters(inline, pids)
        assert _mailboxes(replayed, pids, "t") == _mailboxes(inline, pids, "t")

    def test_destination_mask_sub_batches_round_trip(self):
        """What the processes backend ships: one sub-batch per worker,
        selected by destination mask, pickled over a pipe, filed in the
        worker's own cluster — every mailbox reads back unchanged."""
        rng = np.random.default_rng(3)
        machines, workers = 7, 3
        batch = _random_sweep(rng, machines, "all_to_all")
        parent, pids = _dne_cluster(machines)
        parent.deliver_segments("t", batch)
        expected = _mailboxes(parent, pids, "t")
        got = {}
        for w in range(workers):
            part = batch.select(np.flatnonzero(batch.dst_slots % workers == w))
            part = pickle.loads(pickle.dumps(part))
            assert set(part.dst_slots.tolist()) \
                == set(range(w, machines, workers))
            wcluster, wpids = _dne_cluster(machines)
            wcluster.put_segments("t", part)
            assert all(v == (0,) * len(_COUNTERS)
                       for v in _counters(wcluster, wpids).values())
            owned = [pid for pid in wpids if pid[1] % workers == w]
            got.update(_mailboxes(wcluster, owned, "t"))
            assert not wcluster.segment_mail()
        assert got == expected

    def test_take_segments_by_slot_subset(self):
        """Bulk consumers (thread-pool chunks) take disjoint slot
        subsets of one sweep; nothing is lost or seen twice."""
        batch = _random_sweep(np.random.default_rng(4), 6, "all_to_all")
        cluster, _ = _dne_cluster(6)
        cluster.deliver_segments("t", batch)
        first = SegmentBatch.merge(cluster.take_segments("alloc", "t", [0, 4]))
        assert set(first.dst_slots.tolist()) == {0, 4}
        assert not cluster.has_mail(("alloc", 0), "t")
        assert cluster.has_mail(("alloc", 1), "t")
        assert cluster.mail_slots("alloc", "t") == {1, 2, 3, 5}
        assert cluster.mail_slots("expansion", "t") == set() \
            == cluster.mail_slots("alloc", "other")
        assert cluster.take_segments("alloc", "t", [0, 4]) == []
        rest = SegmentBatch.merge(
            cluster.take_segments("alloc", "t", [1, 2, 3, 5]))
        assert len(first) + len(rest) == len(batch)
        assert len(first.rows) + len(rest.rows) == len(batch.rows)
        assert not cluster.segment_mail()

    def test_queued_rows_equal_what_a_take_returns(self):
        """The per-slot row count (what the plane sizes its two-hop
        machine groups by) is the row count a ``take`` of that slot
        returns: over several sweeps, after a partial take, after a
        queue rebuilt from its batches, and zero once taken."""
        rng = np.random.default_rng(5)
        cluster, _ = _dne_cluster(6)
        for kind in ("all_to_all", "random"):
            cluster.deliver_segments("t", _random_sweep(rng, 6, kind))
        slots = list(range(6))

        def taken(cluster, slot):
            return sum(len(b.rows)
                       for b in cluster.take_segments("alloc", "t", [slot]))

        before = cluster.queued_rows("alloc", "t", slots)
        assert sum(before) > 0
        first = cluster.take_segments("alloc", "t", [1, 4])
        assert sum(len(b.rows) for b in first) == before[1] + before[4]
        after = cluster.queued_rows("alloc", "t", slots)
        assert after == [0 if s in (1, 4) else before[s] for s in slots]
        rebuilt = SegmentQueue(
            [b for tag, b in cluster.segment_mail() if tag == "t"])
        assert rebuilt.rows(slots) == after
        assert [taken(cluster, s) for s in slots] == after
        assert cluster.queued_rows("alloc", "t", slots) == [0] * 6
        assert cluster.queued_rows("alloc", "absent", [0, 9]) == [0, 0]


class TestMailboxEntriesIndependentOfP:
    @pytest.mark.parametrize("budget", [None, 256])
    def test_same_entries_per_superstep_at_16_and_64(self, budget,
                                                     monkeypatch):
        """Structural pin of the segment plane: the number of
        Python-level mailbox entries a DNE superstep creates does not
        depend on |P| — one per emission sweep *per machine group*,
        never one per (src, dst) buffer.  Under the plane's default
        sweep budget every superstep at this shape is one group and
        reads ``{select: 1, one_hop: 1, two_hop: 2}``; under a small
        budget (more groups) no superstep exceeds that per group."""
        from repro.cluster.backends.base import SimulatedBackend
        from repro.core import fused as fused_module
        from repro.core.distributed_ne import DistributedNE
        from repro.graph.csr import CSRGraph
        from repro.graph.generators import rmat_edges

        per_sweep = {"select_and_multicast": 1, "one_hop_and_sync": 1,
                     "two_hop_and_report": 2, "update_state": 0,
                     "check_termination": 0}
        created = []
        groups = []
        put = SimulatedCluster.put_segments
        execute = SimulatedBackend._execute_superstep
        real_groups = fused_module._budget_groups

        def counting_put(self, tag, batch):
            created.append(tag)
            put(self, tag, batch)

        def counting_groups(sizes, limit):
            out = real_groups(sizes, limit)
            groups.append(len(out))
            return out

        def counting_execute(self, steps, gather=(), iteration=None):
            methods = {m for _, m, _ in steps if m is not None}
            before, cut = len(created), len(groups)
            out = execute(self, steps, gather, iteration)
            listed = sum(len(v) for v in self.cluster._delivered.values())
            if methods:
                per_step.setdefault(methods.pop(), []).append(
                    (len(created) - before + listed,
                     max(sum(groups[cut:]), 1)))
            return out

        monkeypatch.setattr(SimulatedCluster, "put_segments", counting_put)
        monkeypatch.setattr(SimulatedBackend, "_execute_superstep",
                            counting_execute)
        monkeypatch.setattr(fused_module, "_budget_groups", counting_groups)
        if budget is not None:
            monkeypatch.setattr(fused_module, "_SWEEP_ROWS", budget)
        graph = CSRGraph(rmat_edges(10, 8, seed=0))
        entries = {}
        for p in (16, 64):
            per_step: dict = {}
            DistributedNE(p, seed=0).partition(graph)
            for method, seen in per_step.items():
                assert all(n <= per_sweep[method] * k for n, k in seen), \
                    (p, method)
            entries[p] = {m: max(n for n, _ in v)
                          for m, v in per_step.items()}
            split = max(k for v in per_step.values() for _, k in v)
            assert (split == 1) == (budget is None), p
        if budget is None:
            assert entries[16] == entries[64] == per_sweep
