"""On-disk superstep checkpoints for long partitioning runs.

A :class:`CheckpointStore` owns a directory of snapshot files, one per
checkpointed barrier boundary.  Each snapshot is a single pickle
holding everything a driver needs to re-enter its loop bit-for-bit:
the per-process state blobs (flat per-partition arrays, boundary
queues, RNG state — see ``Process.checkpoint_state``), the cluster's
accounting totals, the backend's superstep ledger, and the driver's
own loop variables, plus a ``meta`` dict the resuming run validates
against its own configuration (graph shape, seed, kernel, |P|).

File layout: the pickle bytes followed by their 32-byte SHA-256 digest,
in the one file (no sidecar).  Writes are atomic and durable (temp file,
``flush`` + ``fsync``, then ``os.replace``) so a run killed
mid-checkpoint leaves the previous snapshot intact, and the store
prunes to the ``keep`` most recent snapshots so an N-thousand-barrier
run does not fill the disk.  :meth:`CheckpointStore.load` verifies the
trailer *before* unpickling — a truncated file, a flipped byte or a
file without a trailer is :class:`CheckpointCorrupt` — and
:meth:`CheckpointStore.load_latest` falls back newest → oldest over the
retained snapshots, which is what ``keep=2`` is for.

Invariants pinned by ``tests/test_faults.py`` (CI ``chaos`` job) —
hold them when extending this module:

* **resume bit-identity** — a run killed at any checkpoint boundary
  and resumed matches the uninterrupted run bit-for-bit: assignments,
  message/byte/barrier/memory totals, and the superstep ledger.  Any
  driver state that influences the loop MUST join the snapshot
  payload, or resume silently diverges (the DNE driver keeps its loop
  variables in one dataclass that *is* the payload's ``loop`` entry);
* **backend neutrality** — a snapshot written under one backend
  resumes under any other (the payload is per-process state + totals,
  never backend handles);
* **atomicity** — a crash mid-write never corrupts the newest
  readable snapshot (``tests/test_faults.py`` kills writers
  mid-checkpoint);
* **verified or refused** — a snapshot that fails verification is
  never unpickled: resume continues from the newest one that
  verifies, bit-identically to the uninterrupted run, and when
  snapshots exist but none verifies it raises
  :class:`CheckpointCorrupt` — never a silent fresh start;
* **loud mismatch** — resuming against a different graph, seed,
  kernel, or |P| raises :class:`CheckpointMismatch` naming both
  sides, never a quiet wrong answer.

The serving plane reuses the store read-only: an API job submitted
with ``checkpoint_every`` reports :meth:`CheckpointStore.steps` as
live progress (``docs/API.md``).

Snapshots are pickles: load them only from directories you wrote.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import re
import time

from repro.observability.metrics import get_registry

__all__ = ["CheckpointStore", "CheckpointMismatch", "CheckpointCorrupt"]

_log = logging.getLogger("repro.cluster.checkpoint")

_FILE_RE = re.compile(r"^ckpt-(\d{8})\.pkl$")
_DIGEST_BYTES = hashlib.sha256().digest_size


class CheckpointCorrupt(RuntimeError):
    """Snapshot files failed SHA-256 verification (torn write, bit rot,
    or not written by this store); ``paths`` names every one."""

    def __init__(self, paths: list):
        super().__init__("checkpoint failed SHA-256 verification: "
                         + ", ".join(paths))
        self.paths = paths


class CheckpointMismatch(RuntimeError):
    """A resume was attempted against an incompatible checkpoint.

    Raised when the snapshot's ``meta`` disagrees with the resuming
    run's configuration — resuming a 64-partition run as 4 partitions,
    against a different graph, or under a different kernel would
    silently produce garbage, so the mismatch fails loudly with both
    sides of the disagreement.
    """

    def __init__(self, mismatches: dict):
        lines = ", ".join(f"{key}: checkpoint={a!r} run={b!r}"
                          for key, (a, b) in sorted(mismatches.items()))
        super().__init__(f"checkpoint does not match this run ({lines})")
        self.mismatches = mismatches


class CheckpointStore:
    """Directory of atomic, verified, pruned, step-numbered snapshots."""

    def __init__(self, root: str, keep: int = 2):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = str(root)
        self.keep = keep
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, step: int) -> str:
        return os.path.join(self.root, f"ckpt-{step:08d}.pkl")

    def steps(self) -> list:
        """Snapshot step numbers present on disk, ascending."""
        out = []
        for name in os.listdir(self.root):
            match = _FILE_RE.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    # ------------------------------------------------------------------
    def save(self, step: int, payload: dict) -> str:
        """Write the snapshot for ``step`` atomically; prune old ones."""
        t0 = time.perf_counter()
        path = self._path(step)
        tmp = path + ".tmp"
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.write(hashlib.sha256(data).digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        for old in self.steps()[:-self.keep]:
            try:
                os.remove(self._path(old))
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass
        registry = get_registry()
        registry.counter_inc("repro_checkpoint_writes_total")
        registry.observe("repro_checkpoint_write_seconds",
                         time.perf_counter() - t0)
        return path

    def load(self, step: int) -> dict:
        """The verified snapshot for ``step``; :class:`CheckpointCorrupt`
        when its SHA-256 trailer does not match its pickle bytes."""
        t0 = time.perf_counter()
        path = self._path(step)
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())  # sliced without copying
        data, digest = blob[:-_DIGEST_BYTES], blob[-_DIGEST_BYTES:]
        if hashlib.sha256(data).digest() != bytes(digest):
            raise CheckpointCorrupt([path])
        payload = pickle.loads(data)
        registry = get_registry()
        registry.counter_inc("repro_checkpoint_restores_total")
        registry.observe("repro_checkpoint_restore_seconds",
                         time.perf_counter() - t0)
        return payload

    def load_latest(self) -> dict | None:
        """The newest snapshot that verifies; ``None`` only when the
        store is empty.  Corrupt snapshots are skipped with a warning;
        when none verifies, :class:`CheckpointCorrupt` names them all."""
        rejected = []
        for step in reversed(self.steps()):
            try:
                return self.load(step)
            except CheckpointCorrupt as exc:
                rejected += exc.paths
                _log.warning("skipping corrupt checkpoint %s", exc.paths[0])
                get_registry().counter_inc("repro_checkpoint_corrupt_total")
        if rejected:
            raise CheckpointCorrupt(rejected)
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def check_meta(snapshot: dict, expected: dict) -> None:
        """Validate a snapshot's ``meta`` against the resuming run.

        Every key in ``expected`` must be present and equal in the
        snapshot's meta; any disagreement raises
        :class:`CheckpointMismatch` naming all mismatched keys.
        """
        meta = snapshot.get("meta", {})
        mismatches = {key: (meta.get(key), value)
                      for key, value in expected.items()
                      if meta.get(key) != value}
        if mismatches:
            raise CheckpointMismatch(mismatches)
