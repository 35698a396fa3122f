"""The midpoint Gauss quadrature: the criterion-8 cross-check of the tests.

certify decides the linking number by an exact crossing count
(topology.gauss_linking); this oracle estimates the same integer by the
classical double integral, so that the count is checked against a method
that shares none of its predicates. Against a
fixed circle sample the integrand along a straight leg has the closed-form
finite-wire antiderivative, so the legs are integrated exactly, once per
circle sample. Only the arc goes through the midpoint double sum. It is
sampled in its own strip angle theta at rho = m, so its samples stay
strictly inside the strip at any scale, and its cells' chords serve as its
tangents. The sum runs on both sample sets scaled by a power of two to
unit size, and evaluates the numerator det(p1 - p2, t1, t2) by the
triple-product identity (p1 x t1) . t2 - t1 . (t2 x p2), as matrix
products over tiles sized by a fixed element count, so memory stays
bounded for any segment count.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from quadrant_atlas.maps import HALF_PI, _phi_terms, _trig_vec, _xi_terms
from quadrant_atlas.topology import (
    MIN_SEGMENTS,
    BoundaryLoop,
    DegenerateGeometryError,
    WarpedDiscSpec,
    _circle,
)

# least distance between the two curves of a linking sum, relative to the
# disc radius a, which is the circle's distance from the loop's axis legs
_PROXIMITY_LIMIT = 1e-9
_TILE_ELEMENTS = 1 << 16


def _circle_tangents(spec: WarpedDiscSpec, s: np.ndarray) -> np.ndarray:
    """The disc boundary's s-derivative at angles s, n x 3, as topology._circle
    lays out its points: (-a sin s, a cos s, xi'), xi' = -a^2 sin s cos s / xi."""
    a, b = spec.a, spec.b
    c, sn = np.cos(s), np.sin(s)
    w = _xi_terms(a * sn, b)
    dw = np.where(w > 0.0, -a * a * sn * c / np.where(w > 0.0, w, 1.0), 0.0)
    tan = np.array([-a * sn, a * c, dw])
    return (tan[::-1] if spec.variant == "d2" else tan).T


def _circle_samples(spec: WarpedDiscSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint samples of the disc boundary and its s-derivative."""
    s = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return _circle(spec, np.cos(s), np.sin(s)), _circle_tangents(spec, s)


def _pair_sum(
    pts1: np.ndarray, tan1: np.ndarray, pts2: np.ndarray, tan2: np.ndarray
) -> tuple[float, float]:
    """Unscaled sum of det(p1 - p2, t1, t2) / |p1 - p2|^3 over all sample
    pairs, and the least distance between the two sample sets; t1 is a
    tangent or, for the loop's arc, a chord.

    Scaling points and tangents together leaves the integrand unchanged,
    so the sum runs on both sets times 2^-e, e the binary exponent of their
    largest |coordinate|: far pairs' cubed distances stay finite, and the
    power of two changes no rounding that stays in the normal range. The
    least distance is scaled back.

    With a = pts1 x tan1 and b = tan2 x pts2 formed once per call, a tile's
    numerators are two (rows x 3) @ (3 x cols) matrix products. The pair
    grid is cut into tiles of at most _TILE_ELEMENTS pairs, so the
    temporaries of one tile fit in cache and memory does not grow with the
    sample counts; tile sums are combined with fsum in index order. The sum
    is NaN when a tile sum is not finite.
    """
    n1, n2 = pts1.shape[0], pts2.shape[0]
    e = math.frexp(max(float(np.max(np.abs(v))) for v in (pts1, tan1, pts2, tan2)))[1]
    pts1, tan1, pts2, tan2 = (np.ldexp(v, -e) for v in (pts1, tan1, pts2, tan2))
    a = np.cross(pts1, tan1)
    # unit-stride copies: the tile loop below runs about 20% faster on them
    b_t = np.cross(tan2, pts2).T.copy()
    tan2_t = tan2.T.copy()
    x1, y1, z1 = pts1.T.copy()
    x2, y2, z2 = pts2.T.copy()
    cols = min(n2, _TILE_ELEMENTS)
    rows = max(1, _TILE_ELEMENTS // cols)
    # three tile buffers reused by every tile: allocating fresh ones per
    # tile goes through mmap and page faults and costs more than the
    # arithmetic
    buffers = np.empty((3, rows, cols))
    sums = []
    closest2 = math.inf
    for i0 in range(0, n1, rows):
        i = slice(i0, min(i0 + rows, n1))
        for j0 in range(0, n2, cols):
            j = slice(j0, min(j0 + cols, n2))
            numer, dist2, tmp = buffers[:, : i.stop - i.start, : j.stop - j.start]
            np.matmul(a[i], tan2_t[:, j], out=numer)
            numer -= np.matmul(tan1[i], b_t[:, j], out=tmp)
            np.square(np.subtract(x1[i, None], x2[j], out=dist2), out=dist2)
            dist2 += np.square(np.subtract(y1[i, None], y2[j], out=tmp), out=tmp)
            dist2 += np.square(np.subtract(z1[i, None], z2[j], out=tmp), out=tmp)
            closest2 = min(closest2, float(np.min(dist2)))
            dist2 *= np.sqrt(dist2, out=tmp)
            # a degenerate pair divides by ~0 here; the caller raises before
            # the polluted sum can be used, so silence the transient warning
            with np.errstate(divide="ignore", invalid="ignore"):
                numer /= dist2
            sums.append(float(np.sum(numer)))
    total = math.fsum(sums) if all(math.isfinite(v) for v in sums) else math.nan
    # sqrt is monotone, so the root of the least square is the least distance
    return total, math.ldexp(math.sqrt(closest2), e)


def _leg_integrals(
    p0: np.ndarray, p1: np.ndarray, pts2: np.ndarray, tan2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact integral of det(p - q, dp, t) / |p - q|^3 along the straight
    segment p0 -> p1 for each circle sample (q, t), and the distance from
    each sample to the segment.

    With e the unit direction and L the length, the numerator det(p0 - q,
    e, t) is constant along the segment. With tau = e . (q - p0), delta the
    distance from q to the segment's line, u0 = -tau, u1 = L - tau and
    r_i = sqrt(u_i^2 + delta^2), the integral of |p - q|^-3 is the
    finite-wire (Biot-Savart) form (u1/r1 - u0/r0) / delta^2. When u0 and
    u1 have the same sign, the sample lies beyond an end of the segment and
    that difference cancels, so the equal form
    (u1 - u0)(u1 + u0) / ((u1 r0 + u0 r1) r0 r1) is used instead.
    """
    span = p1 - p0
    length = math.hypot(*span.tolist())
    e0, e1, e2 = (span / length).tolist()
    # coordinate rows of w = p0 - q and of t
    w0, w1, w2 = p0[:, None] - pts2.T
    t0, t1, t2 = tan2.T
    tau = -(w0 * e0 + w1 * e1 + w2 * e2)
    # w's part across e; on a coordinate axis the part along e cancels exactly
    v0, v1, v2 = w0 + tau * e0, w1 + tau * e1, w2 + tau * e2
    delta2 = v0 * v0 + v1 * v1 + v2 * v2
    u0, u1 = -tau, length - tau
    r0, r1 = np.sqrt(u0 * u0 + delta2), np.sqrt(u1 * u1 + delta2)
    # det(w, e, t) as (w x e) . t
    numer = (w1 * e2 - w2 * e1) * t0 + (w2 * e0 - w0 * e2) * t1 + (w0 * e1 - w1 * e0) * t2
    beyond = u0 * u1 > 0.0
    # both forms are evaluated everywhere; the one not selected may divide
    # by zero, and an overflow shows up as a non-finite total
    with np.errstate(all="ignore"):
        across = (u1 / r1 - u0 / r0) / delta2
        outside = (u1 - u0) / r0 * ((u1 + u0) / r1) / (u1 * r0 + u0 * r1)
        gap = np.clip(tau, 0.0, length) - tau
        return numer * np.where(beyond, outside, across), np.sqrt(delta2 + gap * gap)


def arc_samples(loop: BoundaryLoop, loop_segments: int) -> np.ndarray:
    """The arc at rho = m in its own angle, 3 x (2n + 1): one phi evaluation
    on the 2n + 1 angles of [0, pi/2], n = ceil(loop_segments * (pi/2) /
    t_max); the odd columns are the n midpoints theta_k = (k + 1/2) (pi/2)
    / n and the even ones the n + 1 cell edges between them (alpha1 runs
    them down, as pi/2 - theta)."""
    n = math.ceil(loop_segments * HALF_PI / loop.t_max)
    # entry i is i * fl((pi/2) / 2n), and the last is exactly pi/2: the
    # odd entries are the midpoints (k + 1/2) fl((pi/2) / n), bit for bit,
    # and the even ones the cell edges
    theta = np.linspace(0.0, HALF_PI, 2 * n + 1)
    if loop.variant == "alpha1":
        theta = HALF_PI - theta
    return np.array(_phi_terms(loop.m, *_trig_vec(theta)))


def arc_pair_inputs(loop: BoundaryLoop, spec: WarpedDiscSpec, loop_segments: int, circle_segments: int):
    """The arguments midpoint_linking passes _pair_sum: the arc's midpoints,
    its cells' chords as their tangents, and the circle's midpoint samples
    with their tangents."""
    arc = arc_samples(loop, loop_segments)
    return (arc[:, 1::2].T, np.diff(arc[:, ::2], axis=1).T, *_circle_samples(spec, circle_segments))


def midpoint_linking(
    loop: BoundaryLoop, spec: WarpedDiscSpec, loop_segments: int, circle_segments: int
) -> tuple[float, float]:
    """The linking number of the loop with the disc boundary circle by the
    midpoint quadrature, and the least distance between the circle samples
    and the loop (legs exactly, arc at its midpoints).

    The circle is sampled at circle_segments midpoints and the arc as
    arc_samples makes it, with its cells' chords as tangents. The end edges
    are exactly 0 and pi/2, where phi is m times an axis, so the loop's two
    straight legs, from the origin to the first edge and from the last edge
    back, lie on the axes; they are integrated exactly against each circle
    sample (_leg_integrals).

    Raises DegenerateGeometryError when a circle sample lies within
    _PROXIMITY_LIMIT times a of an arc sample or of a leg, or else when the
    sum is not finite: the curve coordinates overflow or their squares
    underflow.
    """
    if loop_segments < MIN_SEGMENTS or circle_segments < MIN_SEGMENTS:
        raise ValueError(f"segment counts must be at least {MIN_SEGMENTS}")
    with np.errstate(all="ignore"):
        arc = arc_samples(loop, loop_segments)
        pts2, tan2 = _circle_samples(spec, circle_segments)
        total, closest = _pair_sum(arc[:, 1::2].T, np.diff(arc[:, ::2], axis=1).T, pts2, tan2)
        origin = np.zeros(3)
        for p0, p1 in ((origin, arc[:, 0]), (arc[:, -1], origin)):
            values, dist = _leg_integrals(p0, p1, pts2, tan2)
            total += float(np.sum(values))
            closest = min(closest, float(np.min(dist)))
        if closest < _PROXIMITY_LIMIT * spec.a:
            near = f"curves pass within {closest:.3e} of each other"
            if spec.a * spec.a < sys.float_info.min:
                near = f"A^2 underflows to {spec.a * spec.a!r}, so the squared leg distances vanish"
            raise DegenerateGeometryError(f"{near}; linking integrand is unreliable")
        if not math.isfinite(total):
            raise DegenerateGeometryError(
                "linking sum is not finite; the curve coordinates overflow or their squares underflow"
            )
    return total * (2.0 * math.pi / circle_segments) / (4.0 * math.pi), closest
