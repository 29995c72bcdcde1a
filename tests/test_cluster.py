"""Unit tests for the simulated cluster runtime and accounting."""

import numpy as np
import pytest

from repro.cluster.accounting import ClusterStats, ProcessStats, payload_nbytes
from repro.cluster.runtime import Process, SimulatedCluster, _same_machine


class TestPayloadSizing:
    def test_none_is_free(self):
        assert payload_nbytes(None) == 0

    def test_scalars(self):
        assert payload_nbytes(5) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(True) == 8

    def test_numpy_array(self):
        arr = np.zeros(10, dtype=np.int64)
        assert payload_nbytes(arr) == 80

    def test_containers_sum(self):
        assert payload_nbytes([1, 2, 3]) == 24
        assert payload_nbytes((1, 2)) == 16
        assert payload_nbytes({1: 2}) == 16

    def test_nested(self):
        assert payload_nbytes([(1, 2), (3, 4)]) == 32

    def test_strings_and_bytes(self):
        assert payload_nbytes("abc") == 3
        assert payload_nbytes(b"abcd") == 4

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())


class TestProcessStats:
    def test_send_receive_counters(self):
        s = ProcessStats()
        s.record_send(100)
        s.record_send(50)
        s.record_receive(30)
        assert s.messages_sent == 2
        assert s.bytes_sent == 150
        assert s.messages_received == 1

    def test_peak_resident_tracks_max(self):
        s = ProcessStats()
        s.set_resident("a", 100)
        s.set_resident("b", 200)
        assert s.peak_resident_bytes == 300
        s.set_resident("a", 10)  # shrink: peak stays
        assert s.peak_resident_bytes == 300
        s.set_resident("b", 300)  # the running total is 10 + 300
        assert s.peak_resident_bytes == 310


class TestClusterStats:
    def test_mem_score(self):
        cs = ClusterStats()
        cs.stats_for("a").set_resident("x", 1000)
        cs.stats_for("b").set_resident("x", 3000)
        assert cs.mem_score(100) == pytest.approx(40.0)

    def test_mem_score_rejects_zero_edges(self):
        with pytest.raises(ValueError):
            ClusterStats().mem_score(0)

    def test_summary_keys(self):
        cs = ClusterStats()
        cs.stats_for("a")
        summary = cs.summary()
        assert set(summary) == {"processes", "barriers", "total_messages",
                                "total_bytes", "peak_resident_bytes"}


class TestSameMachine:
    def test_identical_pids(self):
        assert _same_machine("a", "a")

    def test_role_pairs_share_machine(self):
        assert _same_machine(("expansion", 3), ("alloc", 3))
        assert not _same_machine(("expansion", 3), ("alloc", 4))

    def test_plain_distinct(self):
        assert not _same_machine("a", "b")


class TestSimulatedCluster:
    def _pair(self):
        cluster = SimulatedCluster()
        a = cluster.add_process(Process(("alloc", 0)))
        b = cluster.add_process(Process(("alloc", 1)))
        return cluster, a, b

    def test_duplicate_pid_rejected(self):
        cluster = SimulatedCluster()
        cluster.add_process(Process("x"))
        with pytest.raises(ValueError):
            cluster.add_process(Process("x"))

    def test_message_needs_barrier(self):
        cluster, a, b = self._pair()
        a.send(b.pid, "t", 42)
        assert b.receive("t") == []  # not delivered yet
        cluster.barrier()
        assert b.receive("t") == [(a.pid, 42)]

    def test_receive_drains(self):
        cluster, a, b = self._pair()
        a.send(b.pid, "t", 1)
        cluster.barrier()
        assert len(b.receive("t")) == 1
        assert b.receive("t") == []

    def test_unknown_destination(self):
        cluster, a, _ = self._pair()
        with pytest.raises(KeyError):
            a.send("nope", "t", 1)

    def test_cross_machine_bytes_counted(self):
        cluster, a, b = self._pair()
        a.send(b.pid, "t", np.zeros(4, dtype=np.int64))  # 32 bytes
        stats = cluster.stats.stats_for(a.pid)
        assert stats.bytes_sent == 32
        assert stats.messages_sent == 1

    def test_same_machine_bytes_free(self):
        cluster = SimulatedCluster()
        e = cluster.add_process(Process(("expansion", 0)))
        al = cluster.add_process(Process(("alloc", 0)))
        e.send(al.pid, "t", np.zeros(4, dtype=np.int64))
        assert cluster.stats.stats_for(e.pid).bytes_sent == 0
        assert cluster.stats.stats_for(e.pid).messages_sent == 1

    def test_barrier_counter(self):
        cluster, a, b = self._pair()
        cluster.barrier()
        cluster.barrier()
        assert cluster.stats.barriers == 2

    def test_flush_does_not_count_barrier(self):
        cluster, a, b = self._pair()
        a.send(b.pid, "t", 1)
        cluster.flush()
        assert cluster.stats.barriers == 0
        assert b.receive("t") == [(a.pid, 1)]

    def test_message_order_preserved(self):
        cluster, a, b = self._pair()
        for i in range(5):
            a.send(b.pid, "t", i)
        cluster.barrier()
        values = [payload for _, payload in b.receive("t")]
        assert values == [0, 1, 2, 3, 4]

    def test_all_gather_sum(self):
        cluster, a, b = self._pair()
        total = cluster.all_gather_sum({a.pid: 3, b.pid: 4})
        assert total == 7
        # all-gather accounts (n-1) sends per process
        assert cluster.stats.stats_for(a.pid).messages_sent == 1

    def test_pending_resident_flushed_on_attach(self):
        p = Process("later")
        p.set_resident("pre", 512)
        cluster = SimulatedCluster()
        cluster.add_process(p)
        assert cluster.stats.stats_for("later").peak_resident_bytes == 512

    def test_processes_sorted(self):
        cluster, a, b = self._pair()
        assert cluster.processes() == [a, b]

    @pytest.mark.parametrize("src,dst", [
        (("alloc", 0), ("alloc", 1)),          # cross-machine tuples
        (("expansion", 2), ("alloc", 2)),      # co-located tuples
        ("a", "b"),                            # plain ids
        ("solo", "solo"),                      # self-send
    ])
    @pytest.mark.parametrize("payload", [
        None, 7, [(1, 2), (3, 4)],
        np.arange(6, dtype=np.int64).reshape(3, 2),
    ])
    def test_send_inline_matches_reference_accounting(self, src, dst,
                                                      payload):
        """_send's inlined fast path must equal the composition of
        _same_machine + payload_nbytes + record_send/record_receive
        (the API everything else uses) for every pid/payload shape."""
        from repro.cluster.accounting import ProcessStats, payload_nbytes

        cluster = SimulatedCluster()
        sp = cluster.add_process(Process(src))
        if dst != src:
            cluster.add_process(Process(dst))
        sp.send(dst, "t", payload)

        ref_send, ref_recv = ProcessStats(), ProcessStats()
        nbytes = 0 if _same_machine(src, dst) else payload_nbytes(payload)
        ref_send.record_send(nbytes)
        ref_recv.record_receive(nbytes)
        got_s = cluster.stats.stats_for(src)
        got_r = cluster.stats.stats_for(dst)
        assert (got_s.messages_sent, got_s.bytes_sent) == \
            (ref_send.messages_sent, ref_send.bytes_sent)
        assert (got_r.messages_received, got_r.bytes_received) == \
            (ref_recv.messages_received, ref_recv.bytes_received)
