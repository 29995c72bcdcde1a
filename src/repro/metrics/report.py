"""Per-partition quality reports.

:func:`partition_report` turns an :class:`EdgePartition` into the full
per-partition breakdown a downstream engine operator would want before
deploying: per-partition edge and vertex counts, replica-only
("mirror") vertex counts, plus the aggregate metrics the paper reports
(RF, EB, VB, vertex cuts).  :func:`format_report` renders it as the
table the CLI's ``inspect`` command prints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.quality import balance, partition_edge_counts

if TYPE_CHECKING:  # avoid a metrics <-> partitioners import cycle
    from repro.partitioners.base import EdgePartition

__all__ = ["PartitionReport", "partition_report", "format_report"]

#: diagnostics only (``repro --log-level DEBUG``); report *output*
#: goes through :func:`format_report`, never the logger
_log = logging.getLogger("repro.metrics.report")


@dataclass(frozen=True)
class PartitionReport:
    """Aggregate + per-partition quality numbers."""

    method: str
    num_partitions: int
    num_vertices: int
    num_edges: int
    replication_factor: float
    vertex_cuts: int
    edge_balance: float
    vertex_balance: float
    #: |E_p| per partition
    edge_counts: np.ndarray = field(repr=False)
    #: |V(E_p)| per partition
    vertex_counts: np.ndarray = field(repr=False)
    #: per partition: vertices that are replicas of a vertex whose
    #: master copy (lowest-id covering partition) lives elsewhere
    mirror_counts: np.ndarray = field(repr=False)


def partition_report(partition: "EdgePartition") -> PartitionReport:
    """Compute a :class:`PartitionReport` for ``partition``."""
    graph = partition.graph
    p = partition.num_partitions
    edge_counts = partition_edge_counts(partition.assignment, p)
    vertex_counts = partition.vertex_counts()

    # Mirror counts: vertex v covers partitions S(v); its "master" is
    # min(S(v)) (the PowerGraph convention is hash-based, any fixed
    # choice gives the same count), every other covering partition
    # holds a mirror.  Replica rows are pid-ascending, so every slot
    # but the first of a row is a mirror.
    indptr, parts = partition.replicas
    mirror = np.ones(len(parts), dtype=bool)
    mirror[indptr[:-1][np.diff(indptr) > 0]] = False
    mirror_counts = np.bincount(parts[mirror], minlength=p)

    _log.debug("report for %s: P=%d, |V|=%d, |E|=%d",
               partition.method or "<unnamed>", p, graph.num_vertices,
               graph.num_edges)
    return PartitionReport(
        method=partition.method,
        num_partitions=p,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        replication_factor=partition.replication_factor(),
        vertex_cuts=partition.vertex_cut_count(),
        edge_balance=balance(edge_counts),
        vertex_balance=balance(vertex_counts),
        edge_counts=edge_counts,
        vertex_counts=vertex_counts,
        mirror_counts=mirror_counts,
    )


def format_report(report: PartitionReport, max_rows: int = 32) -> str:
    """Render a report as aligned text (used by ``repro inspect``)."""
    lines = [
        f"method={report.method}  P={report.num_partitions}  "
        f"|V|={report.num_vertices}  |E|={report.num_edges}",
        f"replication factor={report.replication_factor:.3f}  "
        f"vertex cuts={report.vertex_cuts}  "
        f"EB={report.edge_balance:.3f}  VB={report.vertex_balance:.3f}",
        f"{'part':>5}  {'edges':>9}  {'vertices':>9}  {'mirrors':>9}",
    ]
    shown = min(report.num_partitions, max_rows)
    for p in range(shown):
        lines.append(f"{p:>5}  {report.edge_counts[p]:>9}  "
                     f"{report.vertex_counts[p]:>9}  "
                     f"{report.mirror_counts[p]:>9}")
    if shown < report.num_partitions:
        lines.append(f"... ({report.num_partitions - shown} more)")
    return "\n".join(lines)
