"""Cost accounting for the simulated cluster.

Figure 9 of the paper reports a *mem score* — peak total resident bytes
across processes, normalised by edge count — and §5/§7 argue about
barrier counts and communication volume.  This module provides the
measurement model:

* message bytes follow a declared wire format, not the buffer: a
  :class:`~repro.cluster.runtime.SegmentBatch` prices each segment at
  ``WIRE_ID_BYTES`` (8: the 64-bit id a 10¹² edge graph needs) per
  row field — rows × arity × 8 — however narrow it is held (sweeps
  hold int32), free between processes on one machine.
* :class:`ProcessStats` accumulates per-process traffic and tracks the
  peak of registered memory.
* :class:`ClusterStats` aggregates across processes and produces the
  paper's normalised scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["record_rpc_pair", "ProcessStats", "ClusterStats"]


def record_rpc_pair(stats: "ClusterStats", requester, responder,
                    nbytes: int) -> None:
    """Account one synchronous request/response exchange.

    ``nbytes`` each way: a send+receive pair on both sides, no mailbox
    message.  The single home of this pricing rule — used at call time
    by ``Process.account_rpc_pairs`` (simulated scheduler) and at replay
    time by the execution backends' outbox replay; the two must never
    diverge.
    """
    stats.stats_for(requester).record_send(nbytes)
    stats.stats_for(responder).record_receive(nbytes)
    stats.stats_for(responder).record_send(nbytes)
    stats.stats_for(requester).record_receive(nbytes)


@dataclass
class ProcessStats:
    """Traffic and memory counters for one simulated process."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    #: bulk accounting passes (one per segment of a delivered sweep or
    #: collective fan-out) — the batching-efficiency counters; they
    #: never affect the message/byte totals
    send_batches: int = 0
    receive_batches: int = 0
    #: named resident structures; peak of their sum is the mem score input
    _resident: dict = field(default_factory=dict)
    peak_resident_bytes: int = 0

    def record_send(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def record_receive(self, nbytes: int) -> None:
        self.messages_received += 1
        self.bytes_received += nbytes

    def record_send_bulk(self, count: int, nbytes: int) -> None:
        """Account ``count`` sends totalling ``nbytes`` in one update.

        Senders with a regular wire pattern — collectives that know
        their whole fan-out up front — replace ``count`` per-message
        calls with one bulk update; the message/byte totals are
        identical, and ``send_batches`` counts the coalesced passes.
        """
        self.messages_sent += count
        self.bytes_sent += nbytes
        self.send_batches += 1

    def record_receive_bulk(self, count: int, nbytes: int) -> None:
        """Account ``count`` receives totalling ``nbytes`` in one update."""
        self.messages_received += count
        self.bytes_received += nbytes
        self.receive_batches += 1

    def set_resident(self, name: str, nbytes: int) -> None:
        """Register (or update) a named resident structure's size.

        The peak of the running total across all names is retained —
        the simulator's analogue of the paper's 0.5-second memory
        snapshots.
        """
        self._resident[name] = int(nbytes)
        total = sum(self._resident.values())
        if total > self.peak_resident_bytes:
            self.peak_resident_bytes = total


@dataclass
class ClusterStats:
    """Cluster-wide aggregate of :class:`ProcessStats`."""

    per_process: dict = field(default_factory=dict)
    barriers: int = 0

    def stats_for(self, pid) -> ProcessStats:
        if pid not in self.per_process:
            self.per_process[pid] = ProcessStats()
        return self.per_process[pid]

    # -- aggregates ----------------------------------------------------
    @property
    def total_bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.per_process.values())

    @property
    def total_messages_sent(self) -> int:
        return sum(s.messages_sent for s in self.per_process.values())

    @property
    def peak_total_resident_bytes(self) -> int:
        """Sum of per-process peaks.

        A slight over-approximation of the true simultaneous peak, in
        the same way the paper's snapshot `smax` is a lower bound on it;
        both are consistent estimators of resident footprint.
        """
        return sum(s.peak_resident_bytes for s in self.per_process.values())

    def mem_score(self, num_edges: int) -> float:
        """Figure 9's metric: peak resident bytes per input edge."""
        if num_edges <= 0:
            raise ValueError("num_edges must be positive")
        return self.peak_total_resident_bytes / num_edges

    def summary(self) -> dict:
        """Flat dict of headline numbers, convenient for bench output."""
        return {
            "processes": len(self.per_process),
            "barriers": self.barriers,
            "total_messages": self.total_messages_sent,
            "total_bytes": self.total_bytes_sent,
            "peak_resident_bytes": self.peak_total_resident_bytes,
        }

    def record_metrics(self, registry) -> None:
        """Feed the run's final totals into a metrics registry.

        Called once at end of run (never per message — telemetry must
        not tax the message plane): counters accumulate across runs
        sharing the registry, the peak gauge is last-run-wins.
        """
        registry.counter_inc("repro_cluster_messages_total",
                             self.total_messages_sent)
        registry.counter_inc("repro_cluster_bytes_total",
                             self.total_bytes_sent)
        registry.counter_inc("repro_cluster_barriers_total", self.barriers)
        registry.gauge_set("repro_cluster_peak_resident_bytes",
                           self.peak_total_resident_bytes)
