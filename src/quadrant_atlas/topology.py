"""Warped discs, tubes, boundary loops, and the two numerical certificates.

The discs are graphs over coordinate discs of radius A, warped to height B
by the xi profile; flattening them with zeta turns "the loop crosses the
disc once, straight through" into an interval statement about cylinder
coordinates, which transversality_scan checks on a uniform grid.

Each boundary loop is two straight legs along coordinate axes (phi is rho
times an axis on both strip edges) joined by an arc at rho = m. The loop
arrays are built one segment at a time: an ascending parameter array is
split at m and m + pi/2 by binary search, the legs are written in closed
form, and only the arc goes through phi.

gauss_linking computes the classical double-integral linking number of a
boundary loop with a disc boundary circle. Its value for a matched pair
certifies, up to sign, that the loop generates the fundamental group of the
circle's complement. Against a fixed circle sample the integrand along a
straight leg has the closed-form finite-wire antiderivative, so the legs
are integrated exactly, once per circle sample. Only the arc goes through
the midpoint double sum. It is sampled in its own strip angle theta at
rho = m, so its samples stay strictly inside the strip at any scale. The
sum runs on both sample sets scaled by a power of two to unit size, and
evaluates the numerator det(p1 - p2, t1, t2) by the triple-product
identity (p1 x t1) . t2 - t1 . (t2 x p2), as matrix products over tiles
sized by a fixed element count rather than a row count, so memory stays
bounded for any segment count; squared distances are kept as explicit
coordinate differences, which stay exact enough for the near-contact
guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import HALF_PI, _phi_terms, _phi_theta, _trig_vec, _zeta_terms

# Orientation regression constants: the loop and circle orientations below
# are fixed by their parameterizations, and these are the observed signs of
# the two certified linking numbers. Only the magnitudes are geometrically
# forced; the signs are pinned here so any orientation regression trips tests.
ALPHA1_D1_SIGN = 1
ALPHA2_D2_SIGN = -1

# least curve samples of a linking sum and grid points of a transversality scan
MIN_SEGMENTS = 256
MIN_GRID = 1000

_PROXIMITY_LIMIT = 1e-9
_TILE_ELEMENTS = 1 << 16


class DegenerateGeometryError(RuntimeError):
    """Raised when the two curves of a linking integral nearly touch, or
    when their sum is not finite because the coordinates overflow."""


@dataclass(frozen=True)
class WarpedDiscSpec:
    """One warped disc: "d1" is a z-graph over the xy-disc of radius a,
    "d2" the x-graph over the yz-disc; b >= a scales the height profile."""

    variant: str
    a: float
    b: float

    def __post_init__(self):
        if self.variant not in ("d1", "d2"):
            raise ValueError(f"unknown disc variant {self.variant!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"need finite a and b, got a={self.a}, b={self.b}")
        if not (self.b >= self.a > 0.0):
            raise ValueError(f"need b >= a > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class TubeSpec:
    """A disc together with its flattened cylinder neighborhood parameters."""

    disc: WarpedDiscSpec
    epsilon: float
    m0: float
    m: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.epsilon, self.m0, self.m)):
            raise ValueError(
                f"tube constants overflow at a={self.disc.a}, b={self.disc.b}: "
                f"m0={self.m0}, m={self.m}, epsilon={self.epsilon}"
            )
        if not (self.epsilon > 0.0 and self.m0 > 0.0):
            raise ValueError(
                f"tube constants underflow at a={self.disc.a}, b={self.disc.b}: "
                f"m0={self.m0}, epsilon={self.epsilon}"
            )


# Each loop's orientation: the axis its first leg leaves the origin along
# (x = 0, z = 2; the second leg returns along the other), and the sign of
# d theta / dt on the arc (alpha1 runs down from pi/2, alpha2 up from 0).
_ORIENTATION = {"alpha1": (2, -1.0), "alpha2": (0, 1.0)}


@dataclass(frozen=True)
class BoundaryLoop:
    """Piecewise loop image under phi: "alpha1" runs up the z-axis first,
    "alpha2" out the x-axis first; m is the long-edge parameter length."""

    variant: str
    m: float

    def __post_init__(self):
        if self.variant not in ("alpha1", "alpha2"):
            raise ValueError(f"unknown loop variant {self.variant!r}")
        if not 0.0 < self.m < math.inf:
            raise ValueError(f"loop length scale must be positive and finite, got {self.m}")

    @property
    def t_max(self) -> float:
        return 2.0 * self.m + HALF_PI


@dataclass(frozen=True)
class LinkingResult:
    """loop_segments is the requested loop resolution; arc_segments is the
    number of arc midpoints that went through the double sum (the legs are
    exact), and closest_approach the least distance between the circle
    samples and the loop (legs exactly, arc at its midpoints)."""

    value: float
    rounded: int
    loop_segments: int
    circle_segments: int
    arc_segments: int
    closest_approach: float


@dataclass(frozen=True)
class TransversalityReport:
    ok: bool
    hit_intervals: tuple[tuple[float, float], ...]
    expected_interval: tuple[float, float]
    max_lateral_deviation: float


def make_tube(a: float, b: float, variant: str) -> TubeSpec:
    """Tube around one warped disc, with the fixed constant rule

    m0 = 2*sqrt(a^2 + b^2),  m = 4*m0,  epsilon = min(b, m0 - b) / 2.

    m0 strictly dominates the sup norm over both discs, and epsilon sits
    strictly inside the open constraint 0 < epsilon < min(b, m0 - b).
    """
    disc = WarpedDiscSpec(variant, a, b)
    m0 = 2.0 * math.sqrt(a * a + b * b)
    return TubeSpec(disc=disc, epsilon=min(b, m0 - b) / 2.0, m0=m0, m=4.0 * m0)


# ---------------------------------------------------------------------------
# Curves on arrays of parameters.


def _circle(spec: WarpedDiscSpec, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disc boundary points at angles s and their s-derivatives.

    d1: (a cos s, a sin s, sqrt(b^2 - a^2 sin^2 s)), which lies on both
    quadrics x^2+y^2 = a^2 and y^2+z^2 = b^2; d2 swaps x and z.
    """
    a, b = spec.a, spec.b
    c, sn = np.cos(s), np.sin(s)
    w = np.sqrt(np.maximum(b * b - a * a * sn * sn, 0.0))
    dw = np.where(w > 0.0, -a * a * sn * c / np.where(w > 0.0, w, 1.0), 0.0)
    pts = np.stack([a * c, a * sn, w], axis=-1)
    tan = np.stack([-a * sn, a * c, dw], axis=-1)
    if spec.variant == "d2":  # copies, as the linking sum is slower on reversed views
        pts, tan = pts[:, ::-1].copy(), tan[:, ::-1].copy()
    return pts, tan


def _loop_points(loop: BoundaryLoop, t: np.ndarray) -> np.ndarray:
    """Loop points at an ascending 1-D t: t[:i] is the first leg, t[i:j]
    the arc and t[j:] the second leg. On the legs theta is 0 or pi/2, where
    phi is exactly rho times an axis, so their points are t and t_max - t
    on that axis; only the arc goes through phi."""
    m = loop.m
    i, j = np.searchsorted(t, [m, m + HALF_PI], side="right")
    first, theta_sign = _ORIENTATION[loop.variant]
    arc = t[i:j]
    theta = arc - m if theta_sign > 0.0 else m + HALF_PI - arc
    out = np.zeros((len(t), 3))
    out[:i, first] = t[:i]
    out[j:, 2 - first] = loop.t_max - t[j:]
    out[i:j] = np.stack(_phi_terms(m, *_trig_vec(theta)), axis=-1)
    return out


def _loop_corners(loop: BoundaryLoop) -> np.ndarray:
    """p(0), p(m), p(m + pi/2) and p(t_max), from the formula: phi(rho, 0)
    = (rho, 0, 0) and phi(rho, pi/2) = (0, 0, rho), so the legs end exactly
    on the axes, where evaluating p at the rounded m + pi/2 would not."""
    first, _ = _ORIENTATION[loop.variant]
    out = np.zeros((4, 3))
    out[1, first] = out[2, 2 - first] = loop.m
    return out


# ---------------------------------------------------------------------------
# Tube membership and the transversality certificate.


def _in_tube(points: np.ndarray, tube: TubeSpec) -> tuple[tuple, np.ndarray]:
    """Flattened coordinates (q1, q2, q3) of n x 3 points and the mask of
    those in the open cylinder {q1^2 + q2^2 < (a + epsilon)^2, |q3| < epsilon};
    a d2 tube is the d1 tube with x and z swapped, as in _circle."""
    points = points[:, ::-1] if tube.disc.variant == "d2" else points
    q1, q2, q3 = _zeta_terms(*points.T, tube.disc.b)
    eps = tube.epsilon
    return (q1, q2, q3), (q1 * q1 + q2 * q2 < (tube.disc.a + eps) ** 2) & (np.abs(q3) < eps)


def transversality_scan(loop: BoundaryLoop, tube: TubeSpec, grid: int) -> TransversalityReport:
    """Sample the loop uniformly and certify "crosses the tube once".

    ok requires: exactly one hit interval, endpoints within one grid step
    of b -/+ epsilon, lateral deviation sqrt(q1^2+q2^2) at most 1e-9 on the
    hits, and q3 matching t - b to 1e-9 there (the straight vertical pass).
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}, got {grid}")
    b, eps = tube.disc.b, tube.epsilon
    t = np.linspace(0.0, loop.t_max, grid)
    step = loop.t_max / (grid - 1)
    (q1, q2, q3), member = _in_tube(_loop_points(loop, t), tube)

    # with the mask padded by False, edges alternate: a run of hits starts
    # at one and ends just before the next
    edges = np.flatnonzero(np.diff(member, prepend=False, append=False))
    intervals = tuple((float(t[i]), float(t[j - 1])) for i, j in zip(edges[::2], edges[1::2]))

    expected = (b - eps, b + eps)
    # a loop that never enters the tube reads 0.0 for both; ok still fails
    # for it, since it has no hit interval
    lateral = float(np.max(np.sqrt(q1[member] ** 2 + q2[member] ** 2), initial=0.0))
    affine_err = float(np.max(np.abs(q3[member] - (t[member] - b)), initial=0.0))
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
    )


# ---------------------------------------------------------------------------
# Gauss linking number.


def _circle_samples(spec: WarpedDiscSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint samples of the disc boundary and its s-derivative."""
    return _circle(spec, (np.arange(n) + 0.5) * (2.0 * math.pi / n))


def _pair_sum(
    pts1: np.ndarray, tan1: np.ndarray, pts2: np.ndarray, tan2: np.ndarray
) -> tuple[float, float]:
    """Unscaled sum of det(p1 - p2, t1, t2) / |p1 - p2|^3 over all sample
    pairs, and the least distance between the two sample sets.

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


def _check_linking_geometry(closest: float, total: float) -> None:
    """Raise DegenerateGeometryError if the curves nearly touch or the
    linking sum is not finite."""
    if closest < _PROXIMITY_LIMIT:
        raise DegenerateGeometryError(
            f"curves pass within {closest:.3e} of each other; linking integrand is unreliable"
        )
    if not math.isfinite(total):
        raise DegenerateGeometryError(
            "linking sum is not finite; the curve coordinates overflow doubles"
        )


def _linking_double_sum(
    pts1: np.ndarray,
    tan1: np.ndarray,
    h1: float,
    pts2: np.ndarray,
    tan2: np.ndarray,
    h2: float,
) -> float:
    """Midpoint-rule Gauss integral over all sample pairs.

    The integrand numerator det(p1 - p2, t1, t2) is evaluated through the
    scalar triple-product identity

        det(p1 - p2, t1, t2) = (p1 x t1) . t2 - t1 . (t2 x p2),

    as tiled matrix products (see _pair_sum). Squared distances stay
    explicit coordinate differences summed over x, y and z: the expansion
    |p1|^2 + |p2|^2 - 2 p1.p2 cancels to ~1e-8 on coincident curves, which
    would hide them from the proximity guard.
    """
    total, closest = _pair_sum(pts1, tan1, pts2, tan2)
    _check_linking_geometry(closest, total)
    return total * h1 * h2 / (4.0 * math.pi)


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
    e = span / length
    w = p0 - pts2
    tau = -(w @ e)
    # on a coordinate axis the component along e cancels exactly here
    perp = w + tau[:, None] * e
    delta2 = perp[:, 0] * perp[:, 0] + perp[:, 1] * perp[:, 1] + perp[:, 2] * perp[:, 2]
    u0, u1 = -tau, length - tau
    r0, r1 = np.sqrt(u0 * u0 + delta2), np.sqrt(u1 * u1 + delta2)
    numer = np.sum(np.cross(w, e) * tan2, axis=1)
    beyond = u0 * u1 > 0.0
    # both forms are evaluated everywhere; the one not selected may divide
    # by zero, and an overflow shows up as a non-finite total
    with np.errstate(all="ignore"):
        across = (u1 / r1 - u0 / r0) / delta2
        outside = (u1 - u0) * (u1 + u0) / ((u1 * r0 + u0 * r1) * r0 * r1)
        gap = np.clip(tau, 0.0, length) - tau
        return numer * np.where(beyond, outside, across), np.sqrt(delta2 + gap * gap)


def gauss_linking(
    loop: BoundaryLoop,
    spec: WarpedDiscSpec,
    loop_segments: int,
    circle_segments: int,
) -> LinkingResult:
    """Linking number of the loop with the disc boundary circle.

    The circle is sampled at circle_segments midpoints. The loop's two
    straight legs, p(0) -> p(m) and p(m + pi/2) -> p(t_max), with corners
    from _loop_corners, are integrated exactly against each circle sample
    (_leg_integrals). The arc at rho = m is sampled in its own angle, at
    the ceil(loop_segments * (pi/2) / t_max) midpoints theta_k = (k + 1/2)
    h_arc of [0, pi/2], so its cells are no wider than those of
    loop_segments cells over the whole loop; alpha1 runs them down, as
    pi/2 - theta_k. Its points are phi(m, theta) and its tangents
    +/-dphi/dtheta, signed by the way theta runs, and they go through the
    midpoint double sum. For the matched pairs (alpha1, d1) and
    (alpha2, d2) the rounded value is +/-1, with signs pinned by
    ALPHA1_D1_SIGN and ALPHA2_D2_SIGN.
    """
    if loop_segments < MIN_SEGMENTS or circle_segments < MIN_SEGMENTS:
        raise ValueError(f"segment counts must be at least {MIN_SEGMENTS}")
    m = loop.m
    h2 = 2.0 * math.pi / circle_segments
    pts2, tan2 = _circle_samples(spec, circle_segments)

    arc_segments = math.ceil(loop_segments * HALF_PI / loop.t_max)
    h_arc = HALF_PI / arc_segments
    _, theta_sign = _ORIENTATION[loop.variant]
    theta = (np.arange(arc_segments) + 0.5) * h_arc
    trig = _trig_vec(theta if theta_sign > 0.0 else HALF_PI - theta)
    arc_pts = np.stack(_phi_terms(m, *trig), axis=-1)
    arc_tan = theta_sign * np.stack(_phi_theta(m, *trig), axis=-1)
    arc_sum, closest = _pair_sum(arc_pts, arc_tan, pts2, tan2)
    total = arc_sum * h_arc

    corners = _loop_corners(loop)
    for p0, p1 in (corners[:2], corners[2:]):
        values, dist = _leg_integrals(p0, p1, pts2, tan2)
        total += float(np.sum(values))
        closest = min(closest, float(np.min(dist)))
    _check_linking_geometry(closest, total)
    value = total * h2 / (4.0 * math.pi)
    return LinkingResult(
        value=value,
        rounded=int(round(value)),
        loop_segments=loop_segments,
        circle_segments=circle_segments,
        arc_segments=arc_segments,
        closest_approach=closest,
    )
