"""Deterministic fault injection for the parallel execution backends.

A :class:`FaultPlan` is a reproducible chaos schedule: each entry names
a worker index, a superstep ordinal, and an action — ``kill`` the
worker process outright (``os._exit``, no cleanup, simulating an OOM
kill or segfault), ``hang`` it (stop responding for a bounded sleep so
the parent's step timeout fires), ``raise`` a step exception, or
``delay`` the step by a fixed number of seconds (jitter that must not
change any result).  The processes backend consumes the plan at
dispatch time: each event fires exactly once, on the attempt it was
armed for, so a supervised retry of the same superstep does not
re-trigger it — which is what makes chaos scenarios deterministic
enough to pin bit-identical recovery in tests and CI.

Superstep ordinals are 1-based counts of ``run_superstep`` calls on
the backend (the DNE driver issues five per iteration).

Seeded delays (:meth:`FaultPlan.seeded_delays`) draw per-(worker,
superstep) sleeps from a seeded RNG — reproducible scheduling noise
for shaking out ordering assumptions without changing any pinned
total.

Invariants pinned by ``tests/test_faults.py`` (CI ``chaos`` job) —
the contract new fault kinds or backends must keep:

* **recovery bit-identity** — any armed kill/hang/raise that the
  supervisor recovers from (respawn + retry) yields a run
  bit-identical to the fault-free run: assignments, every accounting
  total, and the superstep ledger.  This leans on step purity (a step
  reads only its own state + delivered mail) and on outboxes being
  replayed only on success;
* **fire-once determinism** — an event fires on exactly the attempt
  it was armed for; retries of the same superstep must not re-trigger
  it, or recovery tests would race themselves;
* **atomic terminal failure** — when retries are exhausted, no
  partial outbox is applied, retained inboxes return to the parent's
  mailboxes, and accounting is untouched;
* **no resource leaks** — every failure path leaves ``/dev/shm``
  clean after ``close()``;
* **delay neutrality** — ``delay`` and ``seeded_delays`` events must
  be result-neutral: they reorder wall-clock, never outputs.
"""

from __future__ import annotations

import numpy as np

from repro.observability.metrics import get_registry

__all__ = ["FaultPlan", "FAULT_KINDS"]

#: actions a plan entry may carry (see the module docstring)
FAULT_KINDS = ("kill", "hang", "raise", "delay")

#: default hang length: far beyond any sane step timeout, bounded so a
#: hung worker whose parent vanished still exits on its own eventually
DEFAULT_HANG_SECONDS = 3600.0


class FaultPlan:
    """Reproducible schedule of injected worker faults.

    Builder methods return ``self`` so plans chain::

        plan = FaultPlan().kill(1, superstep=4).delay(0, 2, 0.05)

    The plan is picklable (it crosses the fork boundary inside the
    step messages only as per-event directive tuples) and single-use:
    the backend *consumes* events as it dispatches them, recording
    them in :attr:`fired`.
    """

    def __init__(self):
        #: (worker, superstep) -> (kind, arg); consumed by take()
        self._events: dict = {}
        #: events already dispatched, in dispatch order
        self.fired: list = []

    # -- building ------------------------------------------------------
    def _add(self, worker: int, superstep: int, kind: str,
             arg) -> "FaultPlan":
        key = (int(worker), int(superstep))
        if key in self._events:
            raise ValueError(f"duplicate fault for worker {worker} at "
                             f"superstep {superstep}")
        self._events[key] = (kind, arg)
        return self

    def kill(self, worker: int, superstep: int) -> "FaultPlan":
        """Hard-kill ``worker`` when it receives superstep ``superstep``."""
        return self._add(worker, superstep, "kill", None)

    def hang(self, worker: int, superstep: int,
             seconds: float = DEFAULT_HANG_SECONDS) -> "FaultPlan":
        """Make ``worker`` unresponsive for ``seconds`` at ``superstep``.

        With a parent step timeout below ``seconds`` this exercises the
        hung-worker path (timeout, terminate, respawn); above it, it
        degenerates to a delay.
        """
        return self._add(worker, superstep, "hang", float(seconds))

    def raise_error(self, worker: int, superstep: int,
                    message: str = "injected fault") -> "FaultPlan":
        """Fail the step with an injected exception (worker survives)."""
        return self._add(worker, superstep, "raise", str(message))

    def delay(self, worker: int, superstep: int,
              seconds: float) -> "FaultPlan":
        """Sleep ``seconds`` before running the step (result-neutral)."""
        return self._add(worker, superstep, "delay", float(seconds))

    def seeded_delays(self, workers: int, supersteps: int,
                      max_seconds: float, seed: int = 0) -> "FaultPlan":
        """Arm a delay for every (worker, superstep) pair, drawn from a
        seeded RNG — deterministic scheduling jitter.  Pairs that
        already carry an event keep it."""
        rng = np.random.default_rng(seed)
        for step in range(1, supersteps + 1):
            for w in range(workers):
                seconds = float(rng.uniform(0.0, max_seconds))
                if (w, step) not in self._events:
                    self._add(w, step, "delay", seconds)
        return self

    # -- consumption (backend side) ------------------------------------
    def take(self, worker: int, superstep: int):
        """Pop and return the directive for ``(worker, superstep)``.

        Returns ``(kind, arg)`` or ``None``; each event fires once, so
        a supervised retry of the same superstep sees ``None``.
        """
        event = self._events.pop((worker, superstep), None)
        if event is not None:
            self.fired.append((worker, superstep) + event)
            get_registry().counter_inc("repro_faults_injected_total",
                                       kind=event[0])
        return event

    # -- inspection ----------------------------------------------------
    def pending(self) -> list:
        """Unfired events as sorted ``(worker, superstep, kind, arg)``
        tuples — for test assertions that every armed fault actually
        fired."""
        return sorted(key + val for key, val in self._events.items())

    def __len__(self) -> int:
        return len(self._events)
