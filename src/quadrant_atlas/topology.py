"""Warped discs, tubes, boundary loops, and the two topological certificates.

The discs are graphs over coordinate discs of radius A, warped to height B
by the xi profile; flattening them with zeta turns "the loop crosses the
disc once, straight through" into an interval statement about cylinder
coordinates. transversality_report decides it in closed form: the loop's
first leg flattens, through zeta, to a vertical line that stays in the tube
exactly over (B - epsilon, B + epsilon); the second leg stays at height -B
and the arc at norm m/2 or more, both outside the tube. The inequalities
behind that are checked in exact rationals on the tube's doubles, so the
verdict holds at every scale at which the doubles do.

Each boundary loop is two straight legs along coordinate axes (phi is rho
times an axis on both strip edges) joined by an arc at rho = m. The loop
arrays are built one segment at a time: an ascending parameter array is
split at m and m + pi/2 by binary search, the legs are written in closed
form, and only the arc goes through phi.

gauss_linking decides the linking number of a boundary loop with a disc
boundary circle, which for a matched pair certifies, up to sign, that the
loop generates the fundamental group of the circle's complement. For two
closed polygons the Gauss integral is their signed crossing count in any
regular view (Banchoff, Indiana Univ. Math. J. 25, 1976); each orientation
goes through a float filter with a stated error bound, and what it cannot
decide, like each crossing's height, through determinants of Python
integers: the doubles times one power of two. Cell boxes from the Interval
type carry the count from the polygons to the curves. Both of certify's
pairs at one (A, B) share their pieces, built once an op: linking_arcs
builds both loops' polygons and edge boxes, and proves criterion 5 at
rho = m, from one phi pass on doubles and one on intervals, since both
loops have the same m; linking_circle builds the circle polygon and its
boxes, since d2's are d1's with x and z swapped; linking_count counts one
pair on them, and transversality_report takes criterion 5's verdict.
transversality_exact and gauss_linking are the one-pair compositions. The
tests hold the midpoint quadrature the count replaced as a cross-check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .interval import Interval, down, up
from .maps import HALF_PI, _phi_terms, _trig_vec, _xi_terms, _zeta_terms

# Orientation regression constants: the loop and circle orientations below
# are fixed by their parameterizations, and these are the observed signs of
# the two certified linking numbers. Only the magnitudes are geometrically
# forced; the signs are pinned here so any orientation regression trips tests.
ALPHA1_D1_SIGN = 1
ALPHA2_D2_SIGN = -1

# least polygon segments of a linking count
MIN_SEGMENTS = 256

# largest residual of a linking circle's vertices on their disc's quadrics,
# each relative to 1: 32 units of roundoff
QUADRIC_TOL = 2.0**-48

# least arc cells of a linking loop: at 4096 segments the arc has one cell
# at (1, 1000), and that cell's box meets the circle's
_MIN_ARC_CELLS = 4

# the crossing count's view direction
_VIEW = (1, 2, 3)

# the edges of the cells on which criterion 5 is proved at rho = m
_TUBE_ANGLES = np.linspace(0.0, HALF_PI, 5)


class DegenerateGeometryError(RuntimeError):
    """Raised when a linking count cannot be certified: a polygon vertex is
    not finite, a loop cell's box meets a circle cell's, or the count's view
    is not regular."""


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
        # the loop's arc phi(m, theta) has a term in m^2
        if not all(math.isfinite(v) for v in (self.epsilon, self.m0, self.m * self.m)):
            raise ValueError(
                f"tube constants overflow at a={self.disc.a}, b={self.disc.b}: "
                f"m0={self.m0}, m={self.m}, m^2={self.m * self.m}, epsilon={self.epsilon}"
            )
        # below a normal b^2, the disc's axis height sqrt(b^2) need not be b
        b = self.disc.b
        if not (self.epsilon > 0.0 and self.m0 > 0.0 and b * b >= sys.float_info.min):
            raise ValueError(
                f"tube constants underflow at a={self.disc.a}, b={b}: "
                f"m0={self.m0}, epsilon={self.epsilon}, b^2={b * b} "
                f"(least normal double {sys.float_info.min})"
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
    """value is the exact linking number as a float, rounded the same integer;
    loop_segments is the requested loop resolution, arc_segments the number
    of arc cells, closest_approach the least gap between a loop cell's box
    and a circle cell's, and crossings the number of projected crossings."""

    value: float
    rounded: int
    loop_segments: int
    circle_segments: int
    arc_segments: int
    closest_approach: float
    crossings: int


@dataclass(frozen=True)
class TransversalityReport:
    """The loop's stretches inside the tube, the one predicted, the largest
    distance from the tube's axis on them, and how they were found."""

    ok: bool
    hit_intervals: tuple[tuple[float, float], ...]
    expected_interval: tuple[float, float]
    max_lateral_deviation: float
    basis: str


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


def _circle(spec: WarpedDiscSpec, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Disc boundary points at the angles s whose cos and sin are given,
    n x 3.

    d1: (a cos s, a sin s, xi(a sin s)) = (a cos s, a sin s,
    sqrt(b^2 - a^2 sin^2 s)), the disc's own height at its rim, which lies
    on both quadrics x^2+y^2 = a^2 and y^2+z^2 = b^2; d2 swaps x and z.
    """
    a, b = spec.a, spec.b
    y = a * sin
    pts = np.array([a * cos, y, _xi_terms(y, b)])
    return (pts[::-1] if spec.variant == "d2" else pts).T


def quadric_residual(a: float, b: float, pts: np.ndarray) -> float:
    """The largest residual of d1 circle vertices pts (rows x, y, z) on the
    disc's two quadrics, x^2 + y^2 = a^2 and y^2 + z^2 = b^2, each written
    scale-free, as (x/a)^2 + (y/a)^2 - 1, so that it holds where a^2
    underflows; d2's vertices, the same with x and z swapped, have the same
    residual. Certify needs it at most QUADRIC_TOL."""
    x, y, z = pts.T
    (xa, ya), (yb, zb) = (x / a, y / a), (y / b, z / b)
    return float(np.max(np.abs([xa * xa + ya * ya - 1.0, yb * yb + zb * zb - 1.0])))


def _loop_points(loop: BoundaryLoop, t: np.ndarray) -> np.ndarray:
    """Loop points at an ascending 1-D t: t[:i] is the first leg, t[i:j]
    the arc and t[j:] the second leg. On the legs theta is 0 or pi/2, where
    phi is exactly rho times an axis, so their points are t and t_max - t
    on that axis; only the arc goes through phi."""
    m = loop.m
    i, j = np.searchsorted(t, [m, m + HALF_PI], side="right")
    first, theta_sign = _ORIENTATION[loop.variant]
    out = np.zeros((3, len(t)))
    out[first, :i] = t[:i]
    out[2 - first, j:] = loop.t_max - t[j:]
    arc = t[i:j]
    theta = arc - m if theta_sign > 0.0 else m + HALF_PI - arc
    out[:, i:j] = _phi_terms(m, *_trig_vec(theta))
    return out.T


# ---------------------------------------------------------------------------
# The transversality certificate.


def transversality_exact(loop: BoundaryLoop, tube: TubeSpec) -> TransversalityReport:
    """transversality_report with criterion 5 at the loop's m proved on its
    own four cells; certify proves it once for both loops in linking_arcs."""
    return transversality_report(loop, tube, _arc_clears_tube(loop.m))


def transversality_report(
    loop: BoundaryLoop, tube: TubeSpec, arc_clears_tube: bool
) -> TransversalityReport:
    """Decide "the loop crosses the tube once, straight through" in closed
    form, given whether the arc clears the tube (criterion 5 at rho = m).
    Take alpha1 and d1; alpha2 and d2 are the same with x and z swapped,
    and a loop whose first leg runs along the other axis fails.

    zeta flattens the first leg (0, 0, t) to (q1, q2, t + q3), with (q1, q2,
    q3) its value at the origin, so the leg is in the open cylinder exactly
    for t in (-q3 - epsilon, -q3 + epsilon); ok needs that interval to be
    (b - epsilon, b + epsilon), as written in doubles. These inequalities,
    in exact rationals on the doubles, make it the one hit:

    * 0 < epsilon < min(b, m0 - b): the second leg flattens to height -b,
      outside |q3| < epsilon, and the hit starts after the origin;
    * m0^2 > a^2 + b^2: m0 strictly dominates the disc's sup norm;
    * m^2 / 4 > (a + epsilon)^2 + (b + epsilon)^2: every tube point has a
      norm below the right side's root, and the arc has norm above m/2
      (arc_clears_tube, proved in intervals on four cells of the arc), so
      the arc never enters the tube. It also gives m > 2 (b + epsilon), so
      the hit ends before the first leg does.

    Nothing in the verdict is sampled.
    """
    a, b, eps = tube.disc.a, tube.disc.b, tube.epsilon
    first, _ = _ORIENTATION[loop.variant]
    q1, q2, q3 = _zeta_terms(0.0, 0.0, 0.0, b)
    hit = (float(-q3) - eps, float(-q3) + eps)
    expected = (b - eps, b + eps)
    fa, fb, fe, m0, m = map(Fraction, (a, b, eps, tube.m0, loop.m))
    ok = (
        first == (2 if tube.disc.variant == "d1" else 0)
        and hit == expected
        and 0 < fe < min(fb, m0 - fb)
        and m0 * m0 > fa * fa + fb * fb
        and m * m / 4 > (fa + fe) ** 2 + (fb + fe) ** 2
        and arc_clears_tube
    )
    return TransversalityReport(
        ok=ok,
        hit_intervals=(hit,),
        expected_interval=expected,
        max_lateral_deviation=math.hypot(q1, q2),
        basis="exact",
    )


# ---------------------------------------------------------------------------
# Linking number.


def _cells(v: np.ndarray) -> Interval:
    """A function monotone on each cell, enclosed from its values at the edges."""
    return Interval(down(np.minimum(v[:-1], v[1:])), up(np.maximum(v[:-1], v[1:])))


def _arc_boxes(m: float, trig) -> tuple[Interval, Interval, Interval]:
    """phi(m, theta) over the cells between consecutive strip angles, on
    intervals; trig is _trig_vec at the angles, exact at 0 and pi/2, and
    cos and sin are monotone in between."""
    c, s = _cells(trig[0]), _cells(trig[1])
    return _phi_terms(Interval(m), c, s, (c * s).sqrt())


def _clears_tube(m: float, boxes) -> bool:
    """Criterion 5 at rho = m: ||phi(m, theta)||^2 > m^2/4 on all of
    [0, pi/2], proved from phi's boxes over cells that cover it; the
    caller ignores overflow."""
    norm2 = Interval(0.0)
    for p in boxes:
        least = Interval(np.maximum(np.maximum(p.lo, -p.hi), 0.0))
        norm2 = norm2 + least * least
    return bool(np.all(norm2.lo > (Interval(m) * m * 0.25).hi))


def _arc_clears_tube(m: float) -> bool:
    """_clears_tube on the boxes of criterion 5's cells alone."""
    with np.errstate(over="ignore"):
        return _clears_tube(m, _arc_boxes(m, _trig_vec(_TUBE_ANGLES)))


def _circle_boxes(spec: WarpedDiscSpec, s: np.ndarray, cos, sin, pts: np.ndarray):
    """Boxes (lo, hi), 3 x n, around the disc boundary's cells between the
    angles s, the last closing at 2 pi, and the chords of its closed polygon
    pts; cos and sin are those of s. cos and sin are monotone between
    quarter turns; a cell that holds one takes the extreme there. The
    height goes through intervals: b^2 - y^2 rounds by ulps of b^2, not of
    the height."""
    a, b = spec.a, spec.b
    ends = np.append(s, 2.0 * math.pi)
    cos, sin = _cells(np.append(cos, 1.0)), _cells(np.append(sin, 0.0))
    for k, bound, extreme in ((1, sin.hi, 1.0), (2, cos.lo, -1.0), (3, sin.lo, -1.0)):
        # the cells that hold k pi/2, to a few ulps
        q = k * HALF_PI
        bound[(ends[:-1] <= q * (1.0 + 2.0**-50)) & (ends[1:] >= q * (1.0 - 2.0**-50))] = extreme
    y = a * sin
    y2, b2 = y * y, Interval(b) * b
    z = (b2 - Interval(np.minimum(y2.lo, b2.lo), np.minimum(y2.hi, b2.hi))).sqrt()
    box = [a * cos, y, z][:: -1 if spec.variant == "d2" else 1]
    box = [v.hull(p[:-1], p[1:]) for v, p in zip(box, pts.T)]
    return np.array([v.lo for v in box]), np.array([v.hi for v in box])


def _least_gap(lo1, hi1, lo2, hi2) -> float:
    """The least gap between a box of the first set and one of the second
    (3 x n bounds); raises DegenerateGeometryError when two boxes meet. A
    box's gap to the second set's hull bounds its gaps to that set, so boxes
    go nearest the hull first, until none is nearer than the least gap."""
    near = _box_gaps(lo1, hi1, lo2.min(axis=1)[:, None], hi2.max(axis=1)[:, None])
    best = math.inf
    for i in np.argsort(near, kind="stable"):
        if near[i] >= best > 0.0:
            break
        best = min(best, float(np.min(_box_gaps(lo1[:, i, None], hi1[:, i, None], lo2, hi2))))
    if not best > 0.0:
        raise DegenerateGeometryError("a loop cell's box meets a circle cell's box")
    return best


def _box_gaps(lo1, hi1, lo2, hi2) -> np.ndarray:
    """Euclidean gaps between broadcast boxes, rounded down (hypot within an
    ulp); 0 where two boxes meet, at least 5e-324 where they do not."""
    sep = np.maximum(lo2 - hi1, lo1 - hi2)
    gx, gy, gz = np.maximum(down(sep), 0.0)
    gap = down(down(np.hypot(np.hypot(gx, gy), gz)))
    return np.where(np.any(sep > 0.0, axis=0), np.maximum(gap, 5e-324), 0.0)


def _orientations(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signs of det(_VIEW, b - a, c - a) for rows of n x 3 doubles: the side
    of the projected line through a and b that c projects to.

    A float filter evaluates it twice, also as det(_VIEW, a - c, b - c),
    whose terms are small where c is near a or b and the first form's
    cancel, and decides a row when either value exceeds 2^-50 P + 2^-1060,
    P its permanent (products by magnitude). A term takes at most seven
    roundings (two differences, a product, a difference, the factor of
    _VIEW, two sums), so the error is below gamma_7 P / (1 - gamma_7) <
    8 eps P, eps = 2^-53; 2^-1060 covers products rounded in the subnormal
    range. Other rows, overflowed ones too, are redone exactly
    (_orientation_exact).
    """
    signs = np.zeros(len(a))
    view = np.array(_VIEW, dtype=float)[:, None]
    for u, v in (((b - a).T, (c - a).T), ((a - c).T, (b - c).T)):
        left = np.array([u[1] * v[2], u[2] * v[0], u[0] * v[1]])
        right = np.array([u[2] * v[1], u[0] * v[2], u[1] * v[0]])
        det = (view * (left - right)).sum(axis=0)
        perm = (view * (np.abs(left) + np.abs(right))).sum(axis=0)
        signs = np.where(np.abs(det) > 2.0**-50 * perm + 2.0**-1060, np.sign(det), signs)
    signs = signs.astype(int)
    for k in np.flatnonzero(signs == 0):
        signs[k] = _orientation_exact(a[k], b[k], c[k])
    return signs


def _orientation_exact(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> int:
    """Sign of det(_VIEW, b - a, c - a) for three points of doubles, exactly."""
    a, b, c = _integer_points(a, b, c)
    return _det_sign(_VIEW, _minus(b, a), _minus(c, a))


def _height_sign(p0: np.ndarray, p1: np.ndarray, q0: np.ndarray, q1: np.ndarray) -> int:
    """Sign of det(p0 - q0, p1 - p0, q1 - q0) for four points of doubles,
    exactly: the side of the circle edge q0 q1 the loop edge p0 p1 crosses
    on, along _VIEW, where their projections cross."""
    p0, p1, q0, q1 = _integer_points(p0, p1, q0, q1)
    return _det_sign(_minus(p0, q0), _minus(p1, p0), _minus(q1, q0))


def _integer_points(*points: np.ndarray) -> list[list[int]]:
    """The points' coordinates times one power of two, the largest of their
    denominators, as exact Python integers: differences and determinants
    built from them have the exact signs. Finite doubles only."""
    ratios = [x.as_integer_ratio() for p in points for x in p.tolist()]
    top = max(d for _, d in ratios)
    ints = [n * (top // d) for n, d in ratios]
    return [ints[i : i + 3] for i in range(0, len(ints), 3)]


def _minus(p: list[int], q: list[int]) -> list[int]:
    return [x - y for x, y in zip(p, q)]


def _det_sign(r0, r1, r2) -> int:
    """Sign of the determinant of three exact rows."""
    det = sum(r0[i] * (r1[i - 2] * r2[i - 1] - r1[i - 1] * r2[i - 2]) for i in range(3))
    return (det > 0) - (det < 0)


def _projected_edges(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boxes (lo, hi), 2 x n, around a polygon's edges projected along _VIEW
    by (u, v) = (3y - 2z, 2x - y).

    Each vertex's u and v are taken in doubles: 2z and 2x are exact, so u
    rounds twice and is within 2^-52 (3|y| + 2|z|) (1 + 2^-53) + 2^-1074
    of its exact value, the last term for a subnormal 3y, and v within the
    same of 2^-52 (2|x| + |y|). Each value is padded by 2^-49 times its own
    sum of magnitudes, plus 2^-1060; that pad, after its own roundings, is
    above the error by more than 2^-50 of the sum plus 2^-1061, which
    covers the rounding of value -+ pad, so each vertex's padded range
    holds its exact projection. An edge's box spans its ends' ranges.
    """
    x, y, z = pts.T
    ay = np.abs(y)
    proj = np.array([3.0 * y - 2.0 * z, 2.0 * x - y])
    pad = 2.0**-49 * np.array([3.0 * ay + 2.0 * np.abs(z), 2.0 * np.abs(x) + ay]) + 2.0**-1060
    lo, hi = proj - pad, proj + pad
    return np.minimum(lo[:, :-1], lo[:, 1:]), np.maximum(hi[:, :-1], hi[:, 1:])


def _crossings(loop: np.ndarray, circle: np.ndarray) -> tuple[int, int]:
    """The signed count of the crossings of two closed polygons ((n + 1) x 3,
    last vertex first) viewed along _VIEW with the loop on top, and the
    number of crossings either way. Only edges whose projected boxes meet
    are compared.

    Where loop edge P0 P1 crosses circle edge Q0 Q1 the loop's point is the
    circle's plus lambda _VIEW, lambda det(_VIEW, t1, t2) = det(P0 - Q0, t1,
    t2) with t1 = P1 - P0, t2 = Q1 - Q0. It counts when lambda > 0, with
    the sign of det(_VIEW, t1, t2), Q1's orientation to P0 P1. The sum is
    the Gauss integral, loop tangent first. Raises DegenerateGeometryError
    when the view is not regular: a vertex projects onto an edge of the
    other polygon, or two edges cross at one height.
    """
    # scaling up by a power of two is exact; at |coordinates| up to 2^500,
    # products stay finite and small ones clear of the slow subnormal range
    k = max(0, 500 - math.frexp(max(float(np.max(np.abs(v))) for v in (loop, circle)))[1])
    loop, circle = np.ldexp(loop, k), np.ldexp(circle, k)
    (llo, lhi), (clo, chi) = _projected_edges(loop), _projected_edges(circle)
    hull = (llo <= chi.max(axis=1)[:, None]) & (lhi >= clo.min(axis=1)[:, None])
    near = np.flatnonzero(np.all(hull, axis=0))
    meet = (llo[:, near, None] <= chi[:, None]) & (lhi[:, near, None] >= clo[:, None])
    i, j = np.nonzero(np.all(meet, axis=0))
    p0, p1, q0, q1 = loop[near[i]], loop[near[i] + 1], circle[j], circle[j + 1]
    # the circle edge's ends against the loop edge, then, where they part or
    # touch its line, the loop edge's ends against the circle edge
    o = _orientations(np.vstack([p0, p0]), np.vstack([p1, p1]), np.vstack([q0, q1])).reshape(2, -1)
    part = np.flatnonzero((o[0] != o[1]) | (o[0] == 0))
    p0, p1, q0, q1, o = p0[part], p1[part], q0[part], q1[part], o[:, part]
    ends = _orientations(np.vstack([q0, q0]), np.vstack([q1, q1]), np.vstack([p0, p1]))
    o = np.vstack([o, ends.reshape(2, -1)])
    if not o.all():
        raise DegenerateGeometryError("a vertex of one polygon projects onto an edge of the other")
    crossing = np.flatnonzero(o[2] != o[3])
    total = 0
    for k in crossing:
        height = _height_sign(p0[k], p1[k], q0[k], q1[k])
        if height == 0:
            raise DegenerateGeometryError("a loop edge and a circle edge cross at one height")
        total += int(o[1, k]) if height == o[1, k] else 0
    return total, int(crossing.size)


@dataclass(frozen=True)
class LinkingCircle:
    """The two discs' boundary circles at one (a, b), as the closed polygons
    their linking counts compare: d1's n + 1 vertices (the last is the
    first again), (n + 1) x 3, its n cells' boxes (lo, hi), 3 x n, from
    _circle_boxes, and the vertices' quadric_residual. d2's polygon and
    boxes are d1's with x and z swapped; polygon() returns them as views."""

    points: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    residual: float

    def polygon(self, variant: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if variant == "d1":
            return self.points, self.lo, self.hi
        return self.points[:, ::-1], self.lo[::-1], self.hi[::-1]


def linking_circle(a: float, b: float, n: int) -> LinkingCircle:
    """Both discs' boundary circles at n equally spaced angles, built once
    for the linking counts of both pairs at (a, b)."""
    if n < MIN_SEGMENTS:
        raise ValueError(f"segment counts must be at least {MIN_SEGMENTS}")
    disc = WarpedDiscSpec("d1", a, b)
    s = np.arange(n) * (2.0 * math.pi / n)
    with np.errstate(all="ignore"):
        cos, sin = np.cos(s), np.sin(s)
        pts = _circle(disc, cos, sin)
        pts = np.vstack([pts, pts[:1]])
        lo, hi = _circle_boxes(disc, s, cos, sin, pts)
        return LinkingCircle(pts, lo, hi, quadric_residual(a, b, pts))


@dataclass(frozen=True)
class LoopPolygon:
    """A boundary loop as the closed polygon its linking counts compare:
    the origin, phi(m, theta) at the arc's arc_segments + 1 cell edges and
    the origin again, (n + 3) x 3, and its n + 2 edges' boxes (lo, hi),
    3 x (n + 2): a leg's box is its ends' hull, an arc edge's also holds
    phi over its cell."""

    points: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    arc_segments: int


def linking_arcs(m: float, loop_segments: int) -> tuple[dict[str, LoopPolygon], bool]:
    """Both boundary loops at one m, as LoopPolygons keyed by variant, and
    whether their arc clears the tube (criterion 5 at rho = m), built once
    for both pairs at one (a, b).

    Each arc has n = max(4, ceil(loop_segments (pi/2) / t_max)) cells on
    theta = linspace(0, pi/2, n + 1); alpha1 runs them down, as pi/2 -
    theta. phi at exactly 0 and pi/2 is m times an axis, so the legs are the
    loop's own. phi runs once on doubles, at both arcs' angles, and once on
    intervals, over both arcs' cells and criterion 5's four, joined in one
    array: every operation is elementwise, so each slice holds the bits a
    pass of its own would give.
    """
    if loop_segments < MIN_SEGMENTS:
        raise ValueError(f"segment counts must be at least {MIN_SEGMENTS}")
    n = max(_MIN_ARC_CELLS, math.ceil(loop_segments * HALF_PI / BoundaryLoop("alpha1", m).t_max))
    theta = np.linspace(0.0, HALF_PI, n + 1)
    # each loop's cell edges in _ORIENTATION's order, then criterion 5's;
    # _cells also boxes the two steps from one run to the next, which
    # nothing reads
    runs = [theta if sign > 0.0 else HALF_PI - theta for _, sign in _ORIENTATION.values()]
    theta = np.concatenate([*runs, _TUBE_ANGLES])
    with np.errstate(all="ignore"):
        trig = _trig_vec(theta)
        arcs = np.array(_phi_terms(m, *(v[: 2 * n + 2] for v in trig)))
        boxes = _arc_boxes(m, trig)
        pts = np.zeros((2, n + 3, 3))
        pts[:, 1:-1] = arcs.reshape(3, 2, n + 1).transpose(1, 2, 0)
        # each edge's box: its ends' hull, and for an arc edge its cell's
        # phi; cells is (lo or hi, loop, coordinate, cell)
        lo = np.minimum(pts[:, :-1], pts[:, 1:]).transpose(0, 2, 1)
        hi = np.maximum(pts[:, :-1], pts[:, 1:]).transpose(0, 2, 1)
        cells = np.array([(v.lo, v.hi) for v in boxes])[..., : 2 * n + 2]
        cells = cells.reshape(3, 2, 2, n + 1)[..., :n].transpose(1, 2, 0, 3)
        lo[..., 1:-1] = np.minimum(lo[..., 1:-1], cells[0])
        hi[..., 1:-1] = np.maximum(hi[..., 1:-1], cells[1])
        clear = _clears_tube(m, [Interval(v.lo[2 * n + 2 :], v.hi[2 * n + 2 :]) for v in boxes])
    polygons = {v: LoopPolygon(pts[k], lo[k], hi[k], n) for k, v in enumerate(_ORIENTATION)}
    return polygons, clear


def linking_count(
    loop: LoopPolygon, disc: WarpedDiscSpec, circle: LinkingCircle, loop_segments: int
) -> LinkingResult:
    """Linking number of a loop, given as its linking_arcs polygon at
    loop_segments, with the disc's boundary circle, read from circle, the
    linking_circle at the disc's a and b: the exact crossing count of two
    polygons, carried to the curves by cell boxes.

    Each arc cell's box holds phi over the cell and its chord, each circle
    cell's box the boundary over the cell and its chord, and each leg is
    its own box. When no loop box meets a circle box, the straight-line
    homotopies from the curves to the polygons never bring them together,
    so the count is the curves' linking number: ALPHA1_D1_SIGN and
    ALPHA2_D2_SIGN for the matched pairs. closest_approach is the least gap
    between the boxes.

    Raises DegenerateGeometryError on a vertex that is not finite, boxes
    that meet or a view that is not regular; it never warns.
    """
    circle_pts, circle_lo, circle_hi = circle.polygon(disc.variant)
    with np.errstate(all="ignore"):
        if not np.all(np.isfinite(loop.points)) or not np.all(np.isfinite(circle_pts)):
            raise DegenerateGeometryError("a polygon vertex is not finite: coordinates overflow")
        closest = _least_gap(loop.lo, loop.hi, circle_lo, circle_hi)
        count, crossings = _crossings(loop.points, circle_pts)
    return LinkingResult(
        float(count), count, loop_segments, circle_lo.shape[1], loop.arc_segments, closest, crossings
    )


def gauss_linking(
    loop: BoundaryLoop,
    spec: WarpedDiscSpec,
    loop_segments: int,
    circle_segments: int,
) -> LinkingResult:
    """Linking number of the loop with the disc boundary circle at
    circle_segments equally spaced angles: linking_count on the loop's
    linking_arcs polygon and that disc's linking_circle. Certify builds the
    arcs and the circle once for both of its pairs and calls linking_count
    itself."""
    polygons, _ = linking_arcs(loop.m, loop_segments)
    circle = linking_circle(spec.a, spec.b, circle_segments)
    return linking_count(polygons[loop.variant], spec, circle, loop_segments)
