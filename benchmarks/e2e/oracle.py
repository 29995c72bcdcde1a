"""Correctness oracle — checks that reuse no code of the system under test.

Only NumPy and the standard library are imported here.  Everything is
recomputed from the two things the benchmark handed to or received from
the program: the canonical edge array it generated and the per-edge
assignment the partitioner returned.  The replica relation is held as a
dense ``(|V|, |P|)`` boolean matrix — a different algorithm from the
sort-and-unique the metrics and store modules use, and small at the
benchmark's sizes (at most a few million cells).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOLERANCE = 1e-12


def assignment_sha256(assignment) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(assignment, dtype=np.int64).tobytes()).hexdigest()


def assignment_problem(assignment, num_edges: int, num_partitions: int
                       ) -> str | None:
    """Why ``assignment`` is not a partition of the edges, if it isn't."""
    arr = np.asarray(assignment)
    if arr.shape != (num_edges,):
        return f"shape {arr.shape} != ({num_edges},)"
    if arr.dtype.kind not in "iu":
        return f"dtype {arr.dtype} is not integral"
    if num_edges and (arr.min() < 0 or arr.max() >= num_partitions):
        return (f"ids outside [0, {num_partitions}): "
                f"min {arr.min()}, max {arr.max()}")
    return None


def membership(edges, assignment, num_vertices: int, num_partitions: int
               ) -> np.ndarray:
    """``member[v, p]`` — does partition ``p`` hold a replica of ``v``."""
    member = np.zeros((num_vertices, num_partitions), dtype=bool)
    member[edges[:, 0], assignment] = True
    member[edges[:, 1], assignment] = True
    return member


def replication_factor(member: np.ndarray) -> float:
    """Equation 1: replicas per vertex that has at least one edge."""
    return float(member.sum()) / float(member.any(axis=1).sum())


def edge_balance(assignment, num_partitions: int) -> float:
    """Equation 2's measure: largest partition over the mean."""
    sizes = np.zeros(num_partitions, dtype=np.int64)
    np.add.at(sizes, np.asarray(assignment), 1)
    return float(sizes.max()) * num_partitions / float(sizes.sum())


def quality_problems(partition, member: np.ndarray) -> list:
    """Compare the program's own RF / balance against the oracle's."""
    problems = []
    for name, mine, theirs in (
            ("replication_factor", replication_factor(member),
             partition.replication_factor()),
            ("edge_balance",
             edge_balance(partition.assignment, partition.num_partitions),
             partition.edge_balance())):
        if abs(mine - theirs) > TOLERANCE * max(1.0, abs(mine)):
            problems.append(f"{name}: program says {theirs!r}, "
                            f"oracle says {mine!r}")
    return problems


def response_problem(route: int, key, status: int, body: str,
                     member: np.ndarray, page_limit: int) -> str | None:
    """Check one full HTTP answer of the read mix against ``member``.

    ``route``/``key`` are as produced by ``client.request_mix``: 0 = bulk
    lookup of the vertex ids in ``key``, 1 = point lookup of vertex
    ``key``, 2 = boundary page after cursor ``key``.
    """
    if status != 200:
        return f"route {route}: status {status}: {body[:120]}"
    doc = json.loads(body)
    if route == 0:
        rows = member[np.asarray(key)]
        want_counts = rows.sum(axis=1).tolist()
        want_parts = np.nonzero(rows)[1].tolist()
        if doc["counts"] != want_counts or doc["partitions"] != want_parts:
            return f"bulk lookup of {key[:4]}...: wrong replica sets"
    elif route == 1:
        want = np.flatnonzero(member[key]).tolist()
        if doc["partitions"] != want or doc["replicas"] != len(want):
            return f"vertex {key}: got {doc['partitions']}, want {want}"
    else:
        degree = member.sum(axis=1)
        boundary = np.flatnonzero(degree >= 2)
        after = boundary[boundary > key]
        page = after[:page_limit]
        got = [(item["vertex"], item["partitions"]) for item in doc["items"]]
        want = [(int(v), np.flatnonzero(member[v]).tolist()) for v in page]
        more = len(after) > page_limit
        want_cursor = str(int(page[-1])) if more else None
        if got != want or doc["page"]["next_cursor"] != want_cursor:
            return f"boundary page after {key}: wrong items or cursor"
    return None
