"""Deterministic message-passing simulator.

:class:`SimulatedCluster` hosts a set of :class:`Process` objects, each
named by a ``(role, slot)`` pid — the paper co-locates one expansion
and one allocation process on machine ``slot`` — and gives them the
primitives the paper's algorithm needs:

* ``send_segments(tag, batch)`` — one emission sweep, a
  :class:`SegmentBatch`, priced and delivered at once;
* ``send(dst_role, tag, messages)`` — one process's messages, one per
  destination slot, sent as one sweep;
* ``barrier()`` — bumps the global barrier counter (the unit Figure 6
  counts as an "iteration" cost);
* ``receive(tag)`` — drain this process's mail for a tag.

Messages between processes on one machine are accounted as local (zero
bytes on the wire, still counted as a message) — matching how the
paper's implementation co-locates an expansion process and an
allocation process on each machine and exchanges data through memory.

The simulator is *deterministic*: mailboxes preserve send order, and
all iteration orders are over sorted process ids.

One message plane
-----------------
Every message rides a :class:`SegmentBatch` — one row array, segment
offsets, aligned source/destination slots.  At |P| ≫ 64 a DNE phase
emits O(|P|²) tiny ``(src, dst)`` payloads per superstep, and one
Python object per payload is what the run would spend its time on, so
the fused plane hands a whole emission sweep over as a single value;
a reference-kernel step sends one sweep per tag, a segment per
destination.  Either way:

* rows are one ``(k, 2)`` or ``(k,)`` int32 array, offsets and slots
  int32 too, and a segment is never empty; a row value past int32
  raises where the rows enter (:meth:`SegmentBatch.from_runs`,
  :meth:`Process.send`) instead of wrapping;
* pricing follows the declared wire format, not the bytes held: every
  row field is one ``WIRE_ID_BYTES`` (8-byte, 64-bit) id on the wire
  — the width a 10¹² edge graph needs — so a segment costs its rows
  × arity × 8 whatever dtype it is held in;
* pricing is one integer pass over the offsets: one message per
  segment, wire bytes zero iff the machine slots match, plus one
  ``send_batches`` / ``receive_batches`` tick per segment (pinned by
  ``tests/test_cluster_batched.py``);
* the sweep lands in the mailbox of its ``(dst_role, tag)`` as **one
  entry**, however many processes it addresses, at send time — a step
  reads only mail sent before the last barrier because no step of a
  superstep reads the tag that superstep writes;
* ``Process.receive`` serves a process's segments as ``(src,
  payload)`` pairs in delivery order, payloads being row slices (a
  sweep splits into per-slot messages once, on its first such
  receive); bulk consumers take whole sweeps with
  :meth:`SimulatedCluster.take_segments` and never materialise the
  per-segment objects;
* ``send_segments`` is outbox-aware like every other helper: under a
  parallel backend the sweep is one recorded entry that the parent
  replays through the same ``deliver_segments``.

Execution backends
------------------
The cluster itself is a passive mailbox + accountant; *who* runs the
process steps between barriers is the job of
:mod:`repro.cluster.backends`.  The ``simulated`` backend calls the
step methods inline (the deterministic reference scheduler); the
``threads`` / ``processes`` backends run them on real concurrent
workers.  To keep accounting and delivery order bit-identical under
concurrency, a parallel backend arms each process with an *outbox*
(:attr:`Process._outbox`) before running its step: every
``send_segments`` / ``set_resident`` / RPC-accounting call is recorded
instead of applied, and the parent replays the outboxes against the
cluster in deterministic step order afterwards (see
``repro.cluster.backends.base.apply_outbox``).  Replay is exactly the
call sequence the simulated scheduler would have made, so totals,
mailbox order, and memory peaks cannot diverge.
"""

from __future__ import annotations

import copy
import threading
from collections import Counter
from itertools import chain
from dataclasses import dataclass

import numpy as np

from repro.cluster.accounting import ClusterStats
from repro.graph.csr import sorted_unique

__all__ = ["Process", "SegmentBatch", "SegmentQueue", "SimulatedCluster",
           "WIRE_ID_BYTES", "restore_attr"]

#: the declared wire format: every row field travels as one 64-bit id
#: (what a 10**12 edge graph needs), however narrow the rows are held
WIRE_ID_BYTES = 8

#: rows, offsets and slots are held as int32: a value past this raises
_ROW_BOUND = 2 ** 31


def _rows32(rows: np.ndarray) -> np.ndarray:
    """``rows`` as int32 — itself when it already is; otherwise a
    checked copy that raises ``ValueError`` on a value int32 cannot
    hold, never a silent wrap."""
    if rows.dtype == np.int32:
        return rows
    if len(rows) and (int(rows.max()) >= _ROW_BOUND
                      or int(rows.min()) < -_ROW_BOUND):
        raise ValueError(f"message rows run past the int32 bound 2**31 - 1 "
                         f"(max {int(rows.max())}, min {int(rows.min())})")
    return rows.astype(np.int32)


def _offsets32(lengths) -> np.ndarray:
    """int32 segment offsets ``[0, cumsum(lengths)]``; raises when a
    sweep's rows pass the int32 bound."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if offsets[-1] >= _ROW_BOUND:
        raise ValueError(f"a sweep of {int(offsets[-1])} rows passes the "
                         f"int32 bound 2**31 - 1")
    return offsets.astype(np.int32)


def restore_attr(obj, name: str, value) -> None:
    """Restore one attribute from a state snapshot, in place when it
    matters.

    The rule that makes checkpoint/restore safe under the fused
    dispatch plane and the shared-memory arenas: several per-process
    arrays (``alloc``, ``_part_loads``, membership matrices, the
    processes backend's ``rest_degree``) are *views* into larger fused
    or shared segments, so restoring them must write through the
    existing buffer — rebinding the attribute would silently detach
    the process from its siblings.  Hence:

    * matching ndarray (same shape + dtype) -> element-wise copy into
      the existing buffer;
    * matching plain object (same class, same ``__dict__`` keys) ->
      recurse per attribute, so e.g. a membership wrapper's matrix is
      restored through the fused view while its scalars rebind;
    * anything else -> rebind.
    """
    current = getattr(obj, name, None)
    if (isinstance(current, np.ndarray) and isinstance(value, np.ndarray)
            and current.shape == value.shape
            and current.dtype == value.dtype):
        current[...] = value
        return
    if (current is not None and value is not None
            and type(current) is type(value)
            and not isinstance(value, (np.ndarray, list, tuple, dict, set,
                                       frozenset, str, bytes, int, float,
                                       bool))
            and getattr(current, "__dict__", None) is not None
            and getattr(value, "__dict__", None) is not None
            and current.__dict__.keys() == value.__dict__.keys()):
        for key, val in value.__dict__.items():
            restore_attr(current, key, val)
        return
    setattr(obj, name, value)


@dataclass(frozen=True, eq=False)
class SegmentBatch:
    """One emission sweep as a single value.

    Segment ``i`` is the payload ``rows[offsets[i]:offsets[i + 1]]``
    sent by process ``(src_role, src_slots[i])`` to process
    ``(dst_role, dst_slots[i])``.  ``rows`` is one ``(k, 2)`` or
    ``(k,)`` int32 array for the whole sweep (offsets and slots are
    int32 too; :meth:`from_runs` and :meth:`Process.send` check the
    bound, and the price is the declared wire format's, not the held
    bytes'); segments are never empty
    and every ``(src, dst)`` pair appears at most once, so a segment is
    exactly one message and the order of the segments is the order
    sequential per-process steps would have sent them in; ``offsets``
    runs from 0 to ``len(rows)``.  Immutable by
    convention — batches are shared between outboxes, mailboxes and
    snapshots without copying.
    """

    rows: np.ndarray
    offsets: np.ndarray
    src_role: str
    src_slots: np.ndarray
    dst_role: str
    dst_slots: np.ndarray

    @classmethod
    def from_runs(cls, rows: np.ndarray, src_role: str, src: np.ndarray,
                  dst_role: str, dst: np.ndarray) -> "SegmentBatch":
        """Batch whose segments are the maximal runs of equal
        ``(src[i], dst[i])`` over the (non-empty) per-row slot arrays —
        the form a kernel holds right after its stable
        ``(source, destination)`` sort.  int32 rows are taken as they
        are; wider ones are checked against the int32 bound and
        narrowed (``ValueError`` past it)."""
        rows = _rows32(rows)
        if len(rows) >= _ROW_BOUND:
            raise ValueError(f"a sweep of {len(rows)} rows passes the "
                             f"int32 bound 2**31 - 1")
        starts = np.flatnonzero(np.concatenate(
            ([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]))))
        return cls(rows, np.append(starts, len(rows)).astype(np.int32),
                   src_role, src[starts].astype(np.int32), dst_role,
                   dst[starts].astype(np.int32))

    @staticmethod
    def merge(batches: list) -> "SegmentBatch":
        """Concatenate same-role batches, segments in list order."""
        if len(batches) == 1:
            return batches[0]
        offsets = _offsets32(np.concatenate([b.lengths for b in batches]))
        first = batches[0]
        return SegmentBatch(
            np.concatenate([b.rows for b in batches]), offsets,
            first.src_role, np.concatenate([b.src_slots for b in batches]),
            first.dst_role, np.concatenate([b.dst_slots for b in batches]))

    def __len__(self) -> int:
        return len(self.dst_slots)

    @property
    def lengths(self) -> np.ndarray:
        """Rows per segment."""
        return self.offsets[1:] - self.offsets[:-1]

    @property
    def nbytes(self) -> np.ndarray:
        """Wire bytes per segment under the declared wire format: rows
        × fields per row × ``WIRE_ID_BYTES`` (int64 — the held dtype
        does not enter)."""
        arity = self.rows.shape[1] if self.rows.ndim > 1 else 1
        return self.lengths.astype(np.int64) * (WIRE_ID_BYTES * arity)

    def select(self, index: np.ndarray) -> "SegmentBatch":
        """The sub-batch of segments ``index`` (an integer index array;
        its order becomes the segment order) — one row gather, no
        per-segment objects."""
        lengths = self.lengths[index]
        offsets = _offsets32(lengths)
        gather = (np.repeat(self.offsets[index] - offsets[:-1], lengths)
                  + np.arange(offsets[-1], dtype=offsets.dtype))
        return SegmentBatch(self.rows[gather], offsets, self.src_role,
                            self.src_slots[index], self.dst_role,
                            self.dst_slots[index])

    def messages(self) -> list:
        """The sweep as per-segment ``(dst_pid, (src_pid, payload))``
        entries in segment order — the per-message view
        ``Process.receive`` serves; bulk consumers never call this."""
        bounds = self.offsets.tolist()
        return [((self.dst_role, dst),
                 ((self.src_role, src), self.rows[a:b]))
                for dst, src, a, b in zip(self.dst_slots.tolist(),
                                          self.src_slots.tolist(),
                                          bounds, bounds[1:])]


class SegmentQueue:
    """Delivered sweeps awaiting their addressees: put whole, taken by
    destination slot.

    A take removes every waiting segment of its slots at once, so the
    bookkeeping is per slot: each sweep keeps the set of destination
    slots it still holds segments for.  Thread-pool chunks of one fused
    superstep take disjoint slot subsets of the same sweeps
    concurrently, so the slot sets change under a lock, and each
    segment's rows are found and gathered by whoever takes it, outside
    the lock; the stored batches are never copied or rebuilt.
    """

    def __init__(self, batches=()):
        #: put sequence number -> [batch, slots it still addresses, how
        #: many slots it addressed when put, its per-slot messages once
        #: a receive asked for them]
        self._entries: dict = {}
        self._puts = 0
        self._lock = threading.Lock()
        for batch in batches:
            self.put(batch)

    def put(self, batch: SegmentBatch) -> None:
        slots = set(sorted_unique(batch.dst_slots).tolist())
        with self._lock:
            self._entries[self._puts] = [batch, slots, len(slots), None]
            self._puts += 1

    def slots(self) -> set:
        """Every destination slot with a segment waiting."""
        with self._lock:
            return set().union(*(entry[1]
                                 for entry in self._entries.values()))

    def _waiting(self) -> list:
        """``(batch, slots)`` per entry, put order: the slots whose
        segments still wait (``None`` = every slot the batch
        addresses).  Caller holds the lock."""
        return [(batch, None if len(waiting) == nslots else set(waiting))
                for batch, waiting, nslots, _ in self._entries.values()]

    @staticmethod
    def _select(batch: SegmentBatch, slots) -> SegmentBatch:
        """The segments of ``batch`` addressed to ``slots``, a subset of
        its destination slots (``None`` = the whole batch, uncopied)."""
        if slots is None:
            return batch
        member = np.zeros(int(batch.dst_slots.max()) + 1, dtype=bool)
        member[list(slots)] = True
        return batch.select(np.flatnonzero(member[batch.dst_slots]))

    def rows(self, slots) -> list:
        """Rows waiting for each of ``slots`` — what a :meth:`take` of
        that slot would return — counted from the waiting segments'
        lengths, no row touched."""
        slots = np.asarray(slots, dtype=np.int64)
        if not len(slots):
            return []
        counts = np.zeros(len(slots), dtype=np.int64)
        bound = int(slots.max()) + 1
        with self._lock:
            entries = self._waiting()
        for batch, waiting in entries:
            # float64 weights: exact for any row count below 2**53
            per_slot = np.bincount(batch.dst_slots, weights=batch.lengths,
                                   minlength=bound)[slots].astype(np.int64)
            if waiting is not None:
                # a slot's segments in a sweep wait or went together
                per_slot *= np.fromiter((slot in waiting
                                         for slot in slots.tolist()),
                                        dtype=bool, count=len(slots))
            counts += per_slot
        return counts.tolist()

    def batches(self) -> list:
        """The waiting segments as batches, put order kept."""
        with self._lock:
            entries = self._waiting()
        return [self._select(batch, slots) for batch, slots in entries]

    def _pop(self, slots: set) -> list:
        """Mark ``slots`` taken; returns ``(batch, slots taken from
        it)`` per entry holding their segments, put order (``None`` =
        the whole batch).  Caller holds the lock."""
        out = []
        for seq, (batch, waiting, nslots, _) in list(self._entries.items()):
            taken = waiting & slots
            if not taken:
                continue
            whole = len(waiting) == nslots
            waiting.difference_update(taken)
            if not waiting:
                del self._entries[seq]
            out.append((batch, None if whole and not waiting else taken))
        return out

    def take(self, slots) -> list:
        """Remove and return, as batches in put order, every waiting
        segment addressed to one of ``slots`` (whole sweeps pass
        through uncopied)."""
        with self._lock:
            picked = self._pop(set(slots))
        return [self._select(batch, taken) for batch, taken in picked]

    def take_messages(self, slot: int) -> list:
        """Remove and return the waiting segments addressed to ``slot``
        as ``(src_pid, payload)`` pairs in put order, each payload a
        row slice of its sweep — one process's receive.  A sweep splits
        into per-slot messages once, on its first such take."""
        out = []
        with self._lock:
            for seq, entry in list(self._entries.items()):
                batch, waiting, _, mail = entry
                if slot not in waiting:
                    continue
                if mail is None:
                    entry[3] = mail = {}
                    for (_, dst), message in batch.messages():
                        mail.setdefault(dst, []).append(message)
                out.extend(mail[slot])
                waiting.discard(slot)
                if not waiting:
                    del self._entries[seq]
        return out


class Process:
    """Base class for a simulated process.

    Subclasses implement behaviour as plain methods and use
    :meth:`send` / :meth:`send_segments` / :meth:`receive`; the cluster
    injects itself at registration time.  ``pid`` is a ``(role, slot)``
    pair such as ``("expansion", 3)``: process ``slot`` of ``role``,
    on machine ``slot``.
    """

    #: attributes excluded from state snapshots: cluster wiring, the
    #: outbox hook, and (in subclasses) shared read-only structures —
    #: graph CSR views, placements, seed sources, derived immutable
    #: index arrays.  Everything else is per-run mutable state and
    #: rides checkpoint_state()/restore_state().
    _STATE_EXCLUDE: frozenset = frozenset({"cluster", "_outbox"})

    def __init__(self, pid):
        self.pid = pid
        self.cluster: SimulatedCluster | None = None
        self._pending_resident: dict = {}
        #: last value reported per resident name (see :meth:`_report`)
        self._reported: dict[str, int] = {}
        #: when a parallel execution backend runs this process's step,
        #: it points this at a per-step list and every outbound effect
        #: (sends, resident reports, RPC accounting) is recorded there
        #: instead of applied — the parent replays outboxes in
        #: deterministic step order (see repro.cluster.backends).
        self._outbox: list | None = None

    # -- checkpoint / restore ------------------------------------------
    def checkpoint_state(self) -> dict:
        """Deep snapshot of this process's mutable state.

        Picklable and self-contained (shared-memory and fused-array
        views are copied out), so the blob can travel over a worker
        pipe, live in a supervisor's retry cache, or be written to a
        :class:`~repro.cluster.checkpoint.CheckpointStore`.  Restoring
        it with :meth:`restore_state` — on this object or on a freshly
        rebuilt twin — reproduces the state bit-for-bit; step purity
        (own state + delivered mail only) then makes every re-executed
        step bit-identical.
        """
        return copy.deepcopy({key: value
                              for key, value in self.__dict__.items()
                              if key not in self._STATE_EXCLUDE})

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`checkpoint_state` snapshot.

        Arrays are written *through* existing buffers where shapes
        match (see :func:`restore_attr`) so shared-memory views stay
        shared and fused-plane views stay fused; the caller's blob is
        deep-copied first and never aliased.
        """
        for name, value in copy.deepcopy(state).items():
            restore_attr(self, name, value)

    # -- wiring --------------------------------------------------------
    def _attach(self, cluster: "SimulatedCluster") -> None:
        self.cluster = cluster
        # Flush memory reports made before registration (constructors
        # typically register their initial structures).
        for name, nbytes in self._pending_resident.items():
            cluster.stats.stats_for(self.pid).set_resident(name, nbytes)
        self._pending_resident.clear()

    # -- messaging -----------------------------------------------------
    def send(self, dst_role: str, tag: str, messages) -> None:
        """Send ``messages`` to ``dst_role`` processes under ``tag`` as
        one sweep.

        ``messages`` is a list of ``(dst_slot, rows)`` pairs in send
        order, no slot twice; each ``rows`` is a non-empty list of ints
        or of int pairs (or an int array of that shape), one message
        each.  An empty list sends nothing.  The sweep holds its rows
        as int32: a value int32 cannot hold raises ``ValueError``.
        """
        if not messages:
            return
        slots = [slot for slot, _ in messages]
        lengths = [len(rows) for _, rows in messages]
        if len(set(slots)) != len(slots):
            raise ValueError(f"a sweep names each destination slot at "
                             f"most once, got {slots}")
        if 0 in lengths:
            raise ValueError("a message carries at least one row")
        rows = np.array(list(chain.from_iterable(
            rows for _, rows in messages)), dtype=np.int64)
        if rows.shape[1:] not in ((), (2,)):
            raise ValueError(f"message rows must be (k,) or (k, 2), "
                             f"got shape {rows.shape}")
        src_role, src = self.pid
        self.send_segments(tag, SegmentBatch(
            _rows32(rows), _offsets32(lengths), src_role,
            np.full(len(slots), src, dtype=np.int32), dst_role,
            np.array(slots, dtype=np.int32)))

    def send_segments(self, tag: str, batch: SegmentBatch) -> None:
        """Hand a whole emission sweep to the segment plane.

        The batch names its own sources, so this process is only the
        *carrier*: the sweep is priced and delivered at once
        (:meth:`SimulatedCluster.deliver_segments`), or — outbox armed —
        recorded as a single entry the parent replays through the same
        call.  The carrier must be a process of the step that produced
        the sweep, so the entry lands in that step's replay slot.
        """
        if self._outbox is not None:
            self._outbox.append(("segments", tag, batch))
            return
        assert self.cluster is not None, "process not registered with a cluster"
        self.cluster.deliver_segments(tag, batch)

    def receive(self, tag: str) -> list:
        """Pop and return this process's delivered segments for ``tag``
        as ``(src, payload)`` pairs in delivery order, each payload a
        row slice of its sweep."""
        assert self.cluster is not None, "process not registered with a cluster"
        return self.cluster.take_messages(self.pid, tag)

    def set_resident(self, name: str, nbytes: int) -> None:
        """Report a resident structure's size to the memory accountant.

        Safe to call before cluster registration; pre-attach reports are
        buffered and flushed at attach time.
        """
        if self._outbox is not None:
            self._outbox.append(("resident", name, int(nbytes)))
        elif self.cluster is None:
            self._pending_resident[name] = int(nbytes)
        else:
            self.cluster.stats.stats_for(self.pid).set_resident(name, nbytes)

    def _report(self, name: str, nbytes: int) -> None:
        """``set_resident`` only when the value moved (an unchanged report
        moves no total and no peak; the last values ride the snapshot)."""
        if self._reported.get(name) != nbytes:
            self._reported[name] = nbytes
            self.set_resident(name, nbytes)

    def account_rpc_pairs(self, other_pids, nbytes: int) -> None:
        """Account one synchronous request/response exchange with each
        of ``other_pids`` (``nbytes`` each way) without sending a
        mailbox message.

        Used by the expansion seed scan, whose remote lookups the paper
        models as one request + one response per scanned machine, and
        whose probe loop may touch O(|P|) remote processes.  Totals are
        exactly :func:`~repro.cluster.accounting.record_rpc_pair` per
        pid (integer adds commute).  Parallel backends capture the
        exchanges in the outbox instead of racing the shared counters
        (the stats objects of *other* processes are not safe to touch
        from inside a concurrently-executing step), one entry per pair,
        so replay is byte-for-byte the sequential call sequence.
        """
        nbytes = int(nbytes)
        if self._outbox is not None:
            self._outbox.extend(("rpc", pid, nbytes) for pid in other_pids)
            return
        assert self.cluster is not None, "process not registered with a cluster"
        n = len(other_pids)
        if not n:
            return
        stats = self.cluster.stats
        mine = stats.stats_for(self.pid)
        total = nbytes * n
        mine.messages_sent += n
        mine.bytes_sent += total
        mine.messages_received += n
        mine.bytes_received += total
        per = stats.per_process
        for pid in other_pids:
            other = per.get(pid)
            if other is None:
                other = stats.stats_for(pid)
            other.messages_received += 1
            other.bytes_received += nbytes
            other.messages_sent += 1
            other.bytes_sent += nbytes


class SimulatedCluster:
    """A set of processes plus mailboxes, barriers, and accounting."""

    def __init__(self):
        self._processes: dict = {}
        #: (dst_role, tag) -> SegmentQueue of delivered sweeps, one
        #: entry per sweep
        self._segment_mail: dict = {}
        self.stats = ClusterStats()

    # -- membership ----------------------------------------------------
    def add_process(self, process: Process) -> Process:
        """Register ``process``; its pid must be a unique ``(role,
        slot)`` pair."""
        pid = process.pid
        if not (type(pid) is tuple and len(pid) == 2
                and isinstance(pid[0], str) and type(pid[1]) is int):
            raise ValueError(
                f"process id must be a (role: str, slot: int) pair, "
                f"got {pid!r}")
        if pid in self._processes:
            raise ValueError(f"duplicate process id {pid!r}")
        self._processes[pid] = process
        process._attach(self)
        self.stats.stats_for(pid)  # materialise counters
        return process

    def process(self, pid) -> Process:
        return self._processes[pid]

    def close(self) -> None:
        """Forget the registered processes (``stats`` stays readable).

        Cluster and processes reference each other, so a finished run's
        state — every process's arrays — would otherwise live until
        the cyclic collector next runs, and runs that allocate few
        Python objects (the segment plane's whole point) trigger it
        rarely.  Breaking the cycle frees it by refcount.
        """
        self._processes.clear()

    @property
    def pids(self) -> list:
        return sorted(self._processes, key=repr)

    def processes(self) -> list:
        """All processes in deterministic pid order."""
        return [self._processes[pid] for pid in self.pids]

    # -- mail ----------------------------------------------------------
    def mail_slots(self, role: str, tag: str) -> set:
        """The slots ``s`` for which ``receive(tag)`` on ``(role, s)``
        would return anything — one query per tag, not one probe per
        process (the drivers' empty-mailbox short-circuit)."""
        queue = self._segment_mail.get((role, tag))
        return queue.slots() if queue is not None else set()

    # -- segment sweeps --------------------------------------------------
    def deliver_segments(self, tag: str, batch: SegmentBatch) -> None:
        """Price and deliver one emission sweep.

        One message per segment, wire bytes zero iff the machine slots
        match, plus one ``send_batches`` / ``receive_batches`` tick per
        segment — accounted in one integer pass over the segment
        offsets plus one update per touched process; the sweep lands in
        the mailbox as a single entry.  Delivery is inline, segments in
        sweep order after every sweep delivered before; senders that
        share a ``(dst, tag)`` mailbox within a superstep therefore
        send in step order, the order outbox replay keeps.
        """
        nbytes = batch.nbytes
        if not len(batch) or (nbytes <= 0).any():
            raise ValueError("a segment sweep carries no empty segment")
        wire = np.where(batch.src_slots == batch.dst_slots, 0, nbytes)
        sides = []
        for role, slots in ((batch.src_role, batch.src_slots),
                            (batch.dst_role, batch.dst_slots)):
            counts = np.bincount(slots)
            # int64 scatter-add, not bincount(weights=...): float64
            # sums stop being exact past 2**53 bytes.
            totals = np.zeros(len(counts), dtype=np.int64)
            np.add.at(totals, slots, wire)
            sides.append((role, np.flatnonzero(counts).tolist(),
                          counts.tolist(), totals.tolist()))
        for slot in sides[1][1]:
            if (batch.dst_role, slot) not in self._processes:
                raise KeyError("unknown destination process "
                               f"{(batch.dst_role, slot)!r}")
        stats = self.stats
        for sending, (role, touched, counts, totals) in zip((True, False),
                                                            sides):
            for slot in touched:
                st = stats.stats_for((role, slot))
                if sending:
                    st.messages_sent += counts[slot]
                    st.bytes_sent += totals[slot]
                    st.send_batches += counts[slot]
                else:
                    st.messages_received += counts[slot]
                    st.bytes_received += totals[slot]
                    st.receive_batches += counts[slot]
        self.put_segments(tag, batch)

    def put_segments(self, tag: str, batch: SegmentBatch) -> None:
        """File an already-priced sweep in the mailbox (delivery, and
        mail moving between a parent cluster and its workers')."""
        queue = self._segment_mail.get((batch.dst_role, tag))
        if queue is None:
            queue = self._segment_mail[batch.dst_role, tag] = SegmentQueue()
        queue.put(batch)

    def take_segments(self, dst_role: str, tag: str, slots) -> list:
        """Remove and return the delivered segments addressed to
        ``(dst_role, s)`` for ``s`` in ``slots``, as a list of batches
        in delivery order (whole sweeps when every addressee is
        named, destination-masked sub-batches otherwise)."""
        queue = self._segment_mail.get((dst_role, tag))
        return queue.take(slots) if queue is not None else []

    def take_messages(self, pid, tag: str) -> list:
        """Remove and return process ``pid``'s delivered segments for
        ``tag`` as ``(src, payload)`` pairs in delivery order
        (:meth:`SegmentQueue.take_messages`)."""
        role, slot = pid
        queue = self._segment_mail.get((role, tag))
        return queue.take_messages(slot) if queue is not None else []

    def queued_rows(self, dst_role: str, tag: str, slots) -> list:
        """Rows delivered and not yet taken for ``(dst_role, s)``, per
        ``s`` in ``slots`` (:meth:`SegmentQueue.rows`)."""
        queue = self._segment_mail.get((dst_role, tag))
        return queue.rows(slots) if queue is not None else [0] * len(slots)

    def segment_mail(self) -> list:
        """Every undrained sweep as ``(tag, batch)`` pairs, per-mailbox
        delivery order kept."""
        return [(tag, batch)
                for (_, tag), queue in self._segment_mail.items()
                for batch in queue.batches()]

    def pop_segment_mail(self) -> list:
        """:meth:`segment_mail`, emptying the mailboxes — how a parent
        cluster hands its segment mail to workers."""
        out = self.segment_mail()
        self._segment_mail.clear()
        return out

    # -- synchronisation -------------------------------------------------
    def barrier(self) -> None:
        """Count one global barrier (sweeps are delivered when sent)."""
        self.stats.barriers += 1

    # -- collectives ------------------------------------------------------
    def all_gather_sum(self, values: dict) -> float:
        """AllGather+sum collective (Algorithm 1, line 14).

        ``values`` maps pid -> local value.  Accounts one scalar message
        from every process to every other process (the all-gather wire
        pattern) and returns the global sum.  Does *not* barrier; the
        caller owns synchronisation.

        The wire pattern is completely regular, so the accounting is a
        single bulk update per process instead of an O(P²) message
        loop: each process sends P-1 messages, of which the ones to
        co-located processes (pids sharing the machine slot) are free
        on the wire.
        """
        pids = list(values)
        n = len(pids)
        if n > 1:
            machines = Counter(slot for _, slot in pids)
            for pid in pids:
                nbytes = 8 * (n - machines[pid[1]])
                stats = self.stats.stats_for(pid)
                stats.record_send_bulk(n - 1, nbytes)
                stats.record_receive_bulk(n - 1, nbytes)
        return sum(values.values())


def _same_machine(a, b) -> bool:
    """True when two ``(role, slot)`` pids share machine ``slot``."""
    return a[1] == b[1]
