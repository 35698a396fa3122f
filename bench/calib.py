"""Host-speed calibration for the timed passes.

On a shared host the same work takes up to 1.6x longer for seconds to
minutes at a time, because of load outside this machine; in five-seed sets
the raw pass time of a workload spread by 0.17-0.59 (IQR/median) while the
work was identical. Best-of-passes cannot remove a slowdown that lasts the
whole run. So the run times a fixed calibration kernel before the first op,
after the last, after each set-up probe, and between ops whenever
INTERVAL_S has passed since the last kernel call, and scales each op's time
by NOMINAL_S over the mean of the two kernel times around it: an op that
ran while the host was 1.4x slow is scaled back by 1/1.4. The kernel mixes
the two kinds of work the program does: scalar Python arithmetic (the
solver, the identity stream) and chunked numpy (the linking sum, the
positivity sweep). It never calls the program, so a change to the program
cannot change the scale. In a ten-seed set on a 2-vCPU Xeon VM the scaled
times spread by 0.07-0.12 where the raw ones spread by 0.17-0.33.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

INTERVAL_S = 0.25
NOMINAL_S = 0.065  # about the fastest kernel call on an idle 2-vCPU Xeon VM

# A bivariate polynomial of degree 16 in each variable, evaluated by Horner.
_COEFFS = [[(i * 7 + j * 3) % 11 - 5 for j in range(17)] for i in range(17)]
# Row blocks small enough that the kernel's temporaries (0.4 MB each) add
# only about 2 MB to the process's peak resident set.
_ROWS = 16
_t = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
_POINTS = np.stack([np.cos(_t), np.sin(2.0 * _t), 0.5 * np.sin(_t)], axis=1)
_TANGENTS = np.stack([-np.sin(_t), 2.0 * np.cos(2.0 * _t), 0.5 * np.cos(_t)], axis=1)


def _scalar() -> float:
    total = 0.0
    for k in range(1000):
        x = 0.3 + k * 1e-4
        y = 1.7 - k * 1e-4
        acc = 0.0
        for row in _COEFFS:
            inner = 0.0
            for c in row:
                inner = inner * y + c
            acc = acc * x + inner
        total += acc
    return total


def _chunk(i0: int) -> float:
    diff = _POINTS[i0 : i0 + _ROWS, None, :] - _POINTS[None, :, :]
    cross = np.cross(
        _TANGENTS[i0 : i0 + _ROWS, None, :], np.broadcast_to(_TANGENTS[None, :, :], diff.shape)
    )
    numer = np.einsum("ijk,ijk->ij", diff, cross)
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    return float(np.sum(numer / (dist2 * np.sqrt(dist2) + 1.0)))


def _vector() -> float:
    return sum(_chunk(i0) for i0 in range(0, len(_POINTS) // 2, _ROWS))


def kernel() -> tuple[float, float]:
    """Seconds the scalar and the vector half of the kernel take now."""
    t0 = perf_counter()
    _scalar()
    t1 = perf_counter()
    _vector()
    return t1 - t0, perf_counter() - t1


class Calibrator:
    """Kernel timings taken between ops, and the scale they give each op."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = [kernel()]
        self._last = perf_counter()

    def position(self) -> int:
        """Index of the next sample; record it when an op starts."""
        return len(self.samples)

    def between_ops(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def sample(self) -> None:
        """Time the kernel now; also after the last op of a run."""
        self.samples.append(kernel())
        self._last = perf_counter()

    def scale(self, position: int) -> float:
        """NOMINAL_S over the mean of the samples just before and just after
        an op that started at position."""
        return 2.0 * NOMINAL_S / (sum(self.samples[position - 1]) + sum(self.samples[position]))
