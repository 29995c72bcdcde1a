"""Unit tests for the simulated cluster runtime and accounting."""

import numpy as np
import pytest

from repro.cluster.accounting import ClusterStats, ProcessStats
from repro.cluster.runtime import Process, SimulatedCluster, _same_machine


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
        assert _same_machine(("alloc", 2), ("alloc", 2))

    def test_role_pairs_share_machine(self):
        assert _same_machine(("expansion", 3), ("alloc", 3))
        assert not _same_machine(("expansion", 3), ("alloc", 4))


class TestSimulatedCluster:
    def _pair(self):
        cluster = SimulatedCluster()
        a = cluster.add_process(Process(("alloc", 0)))
        b = cluster.add_process(Process(("alloc", 1)))
        return cluster, a, b

    def test_duplicate_pid_rejected(self):
        cluster = SimulatedCluster()
        cluster.add_process(Process(("x", 0)))
        with pytest.raises(ValueError):
            cluster.add_process(Process(("x", 0)))

    @pytest.mark.parametrize("pid", [
        "x", ("x",), ("x", 0, 1), (0, 0), ("x", "0"), ("x", 1.0),
        ("x", True), ["x", 0], ("x", np.int64(0))])
    def test_pid_must_be_a_role_slot_pair(self, pid):
        cluster = SimulatedCluster()
        with pytest.raises(ValueError, match=r"\(role: str, slot: int\)"):
            cluster.add_process(Process(pid))
        assert cluster.pids == []

    def test_message_readable_at_send(self):
        """A message lands in the mailbox when it is sent, its rows held
        as int32; the barrier only counts."""
        cluster, a, b = self._pair()
        a.send("alloc", "t", [(1, [42])])
        assert cluster.mail_slots("alloc", "t") == {1}
        [(src, payload)] = b.receive("t")
        assert src == a.pid and payload.tolist() == [42]
        assert payload.dtype == np.int32
        assert cluster.stats.barriers == 0

    def test_receive_drains(self):
        cluster, a, b = self._pair()
        a.send("alloc", "t", [(1, [1])])
        cluster.barrier()
        assert len(b.receive("t")) == 1
        assert b.receive("t") == []

    def test_unknown_destination(self):
        cluster, a, _ = self._pair()
        with pytest.raises(KeyError):
            a.send("alloc", "t", [(7, [1])])
        assert cluster.stats.stats_for(a.pid).messages_sent == 0

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("messages", [
        [(1, [])], [(1, np.empty((0, 2)))], [(1, [[[1, 2]]])], [(1, ["a"])],
        [(1, [(1, 2, 3)])], [(1, [1]), (0, [(1, 2)])], [(1, [1]), (1, [2])]])
    def test_messages_must_be_non_empty_int_rows(self, messages, armed):
        """A bad sweep raises in the step that sends it, before an
        armed outbox records it."""
        cluster, a, b = self._pair()
        a._outbox = [] if armed else None
        with pytest.raises(ValueError):
            a.send("alloc", "t", messages)
        assert a._outbox == ([] if armed else None)
        assert cluster.mail_slots("alloc", "t") == set()

    def test_sweep_of_messages(self):
        """One send is one sweep: a message per destination slot, in
        send order, each priced alone."""
        cluster = SimulatedCluster()
        a, b, c = (cluster.add_process(Process(("alloc", k)))
                   for k in range(3))
        a.send("alloc", "t", [(2, [(1, 2), (3, 4)]), (1, [(5, 6)])])
        assert cluster.mail_slots("alloc", "t") == {1, 2}
        [(src, payload)] = c.receive("t")
        assert src == a.pid and payload.tolist() == [[1, 2], [3, 4]]
        [(_, payload)] = b.receive("t")
        assert payload.tolist() == [[5, 6]]
        stats = cluster.stats.stats_for(a.pid)
        assert (stats.messages_sent, stats.bytes_sent,
                stats.send_batches) == (2, 48, 2)
        a.send("alloc", "t", [])
        assert cluster.stats.stats_for(a.pid).messages_sent == 2

    def test_cross_machine_bytes_counted(self):
        cluster, a, b = self._pair()
        a.send("alloc", "t", [(1, np.zeros(4, dtype=np.int64))])  # 32 bytes
        stats = cluster.stats.stats_for(a.pid)
        assert stats.bytes_sent == 32
        assert stats.messages_sent == 1

    def test_same_machine_bytes_free(self):
        cluster = SimulatedCluster()
        e = cluster.add_process(Process(("expansion", 0)))
        al = cluster.add_process(Process(("alloc", 0)))
        e.send("alloc", "t", [(0, np.zeros(4, dtype=np.int64))])
        assert cluster.stats.stats_for(e.pid).bytes_sent == 0
        assert cluster.stats.stats_for(e.pid).messages_sent == 1

    def test_barrier_counter(self):
        cluster, a, b = self._pair()
        cluster.barrier()
        cluster.barrier()
        assert cluster.stats.barriers == 2

    def test_message_order_preserved(self):
        cluster, a, b = self._pair()
        for i in range(5):
            a.send("alloc", "t", [(1, [i])])
        cluster.barrier()
        values = [payload.tolist() for _, payload in b.receive("t")]
        assert values == [[0], [1], [2], [3], [4]]

    def test_all_gather_sum(self):
        cluster, a, b = self._pair()
        total = cluster.all_gather_sum({a.pid: 3, b.pid: 4})
        assert total == 7
        # all-gather accounts (n-1) sends per process
        assert cluster.stats.stats_for(a.pid).messages_sent == 1

    def test_pending_resident_flushed_on_attach(self):
        p = Process(("later", 0))
        p.set_resident("pre", 512)
        cluster = SimulatedCluster()
        cluster.add_process(p)
        assert cluster.stats.stats_for(("later", 0)).peak_resident_bytes \
            == 512

    def test_processes_sorted(self):
        cluster, a, b = self._pair()
        assert cluster.processes() == [a, b]
