"""Thread-count resolution for the threaded code: the sampler's sweeps.

Parallel code in this package must partition work into fixed chunks whose
results combine by order-independent reductions, so the thread count never
changes any output bit. The env var QUADRANT_ATLAS_THREADS caps the sweeps'
pool; certify starts no thread and does not read it.
"""

from __future__ import annotations

import os

# a sweep starts a thread per task up to the count; 1e6 samples are 31 tasks
MAX_THREADS = 256


def thread_count() -> int:
    """Worker count: QUADRANT_ATLAS_THREADS, from 1 to MAX_THREADS, if set, else cpu count."""
    raw = os.environ.get("QUADRANT_ATLAS_THREADS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"QUADRANT_ATLAS_THREADS must be an integer, got {raw!r}") from exc
        if not 1 <= n <= MAX_THREADS:
            raise ValueError(f"QUADRANT_ATLAS_THREADS must be from 1 to {MAX_THREADS}, got {n}")
        return n
    return os.cpu_count() or 1
