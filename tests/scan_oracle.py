"""The grid transversality scan: the criterion-7 oracle of the tests.

certify decides the crossing in closed form (topology.transversality_exact);
this scan samples the loop on a uniform grid and finds its runs inside the
open cylinder by testing every sample, in one pass over the whole grid
(about 5.3 MiB at 10^5 points), so it checks the closed form's interval,
and the loop geometry behind it, with no algebra of its own.
"""

from __future__ import annotations

import numpy as np

from quadrant_atlas.maps import _zeta_terms
from quadrant_atlas.topology import BoundaryLoop, TransversalityReport, TubeSpec, _loop_points

# least grid points of a scan
MIN_GRID = 1000


def in_tube(points: np.ndarray, tube: TubeSpec) -> tuple[tuple, np.ndarray]:
    """Flattened coordinates (q1, q2, q3) of n x 3 points and the mask of
    those in the open cylinder {q1^2 + q2^2 < (a + epsilon)^2, |q3| < epsilon};
    a d2 tube is the d1 tube with x and z swapped, as in topology._circle."""
    points = points[:, ::-1] if tube.disc.variant == "d2" else points
    q1, q2, q3 = _zeta_terms(*points.T, tube.disc.b)
    eps = tube.epsilon
    return (q1, q2, q3), (q1 * q1 + q2 * q2 < (tube.disc.a + eps) ** 2) & (np.abs(q3) < eps)


def transversality_scan(loop: BoundaryLoop, tube: TubeSpec, grid: int) -> TransversalityReport:
    """Sample the loop uniformly and certify "crosses the tube once".

    ok requires: exactly one hit interval, endpoints within one grid step
    of b -/+ epsilon, lateral deviation sqrt(q1^2+q2^2) at most 1e-9 on the
    hits, and q3 matching t - b to 1e-9 there (the straight vertical pass).
    The step never falls below (pi/2) / grid, so at small scales the grid
    can step over the tube.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}, got {grid}")
    b, eps = tube.disc.b, tube.epsilon
    t = np.linspace(0.0, loop.t_max, grid)
    step = loop.t_max / (grid - 1)
    (q1, q2, q3), member = in_tube(_loop_points(loop, t), tube)

    # edges alternate: a run of hits starts at one and ends just before the
    # next, so a run open at the last point ends at grid
    edges = np.flatnonzero(np.diff(member, prepend=False, append=False)).tolist()
    intervals = tuple((float(t[i]), float(t[j - 1])) for i, j in zip(edges[::2], edges[1::2]))
    # a loop that never enters the tube reads 0.0 for both; ok still fails
    # for it, since it has no hit interval
    q1, q2, q3, t = q1[member], q2[member], q3[member], t[member]
    lateral = float(np.max(np.sqrt(q1**2 + q2**2), initial=0.0))
    affine_err = float(np.max(np.abs(q3 - (t - b)), initial=0.0))

    expected = (b - eps, b + eps)
    ok = (
        len(intervals) == 1
        and abs(intervals[0][0] - expected[0]) <= step
        and abs(intervals[0][1] - expected[1]) <= step
        and lateral <= 1e-9
        and affine_err <= 1e-9
    )
    return TransversalityReport(
        ok=ok,
        hit_intervals=intervals,
        expected_interval=expected,
        max_lateral_deviation=lateral,
        basis="grid",
    )
