"""Kernel-selection constants shared by every dual-implementation path.

The partitioning/engine hot paths each ship a flat-array NumPy kernel
(``"vectorized"``, the default) and a per-slot reference kernel
(``"python"``), pinned bit-identical by the kernel equivalence tests.
For Distributed NE the flag picks one of two tiers for every phase,
allocation and selection alike: the reference steps of
``core/allocation.py`` / ``core/expansion.py``, or the one vectorized
kernel, ``core/fused.py``'s plane, which a scheduler builds over its
processes.  It also covers NE/SNE expansion, the GAS engine gathers,
and the streaming baselines on the shared ``core/streaming.py`` substrate
(HDRF, FENNEL, and Hybrid Ginger's re-homing rounds, pinned by
``tests/test_streaming_equivalence.py``).  This module is the single
home of the valid names so constructors all fail fast with the same
message.
"""

from __future__ import annotations

#: valid values for every ``kernel=`` argument
KERNELS = ("vectorized", "python")


def validate_kernel(kernel: str) -> str:
    """Return ``kernel`` unchanged, or raise ``ValueError``."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    return kernel
