"""Keep freed kernel buffers in the server process.

A cold prediction allocates and frees numpy temporaries of a few hundred
kilobytes to a few megabytes (one float row per 20k-event run, a few
rows per batch shard).  glibc's default ``malloc`` serves blocks of that
size with ``mmap`` (or trims them off the heap top) and hands them back
to the kernel on ``free``, so every request faults its pages in afresh:
about two thousand minor page faults per single-point/batch request pair,
a third of its compute time, and a cost that swings with the load on a
virtualised host.

:func:`retain_freed_memory` raises the ``mmap`` and trim thresholds, so
those blocks come from and return to the heap and the next request
reuses pages already mapped.  The price is up to ``TRIM_THRESHOLD`` of
freed memory the process keeps -- meant for a long-running server, which
is why ``repro.cli serve`` calls it and importing :mod:`repro` does not.
"""

from __future__ import annotations

import ctypes
import platform

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "retain_freed_memory"]

#: ``mallopt`` parameter numbers from glibc's ``malloc.h``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Blocks below this size come from the heap; 32 MiB is glibc's ceiling
#: for the parameter on 64-bit hosts.
MMAP_THRESHOLD = 32 * 1024 * 1024
#: Free memory the heap top may hold before it is returned to the OS.
TRIM_THRESHOLD = 64 * 1024 * 1024


def retain_freed_memory() -> bool:
    """Set the process-wide glibc ``malloc`` thresholds; ``True`` if set.

    A no-op returning ``False`` where the C library is not glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
