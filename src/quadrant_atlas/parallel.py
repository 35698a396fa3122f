"""Thread-count resolution for the sampler's sweeps, the only threaded code.

Parallel code in this package must partition work into fixed chunks whose
results combine by order-independent reductions, so the thread count never
changes any output bit. The env var QUADRANT_ATLAS_THREADS caps the pool.
"""

from __future__ import annotations

import os


def thread_count() -> int:
    """Positive worker count: QUADRANT_ATLAS_THREADS if set, else cpu count."""
    raw = os.environ.get("QUADRANT_ATLAS_THREADS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"QUADRANT_ATLAS_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"QUADRANT_ATLAS_THREADS must be positive, got {n}")
        return n
    return os.cpu_count() or 1
