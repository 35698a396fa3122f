"""Tests for discs, tubes, loops, and the two topological certificates.

The closed-form transversality certificate is checked against the grid
scan of scan_oracle, at every scale at which its doubles are exact, and
against mutants of the tube constants it must refuse. The exact linking
count is checked on unlinked and Hopf polygons, at doubled resolution,
against hand-built degenerate fixtures, and against linking_oracle's
midpoint quadrature, which is itself checked on unlinked and Hopf circles,
against a broadcast reference and against the whole-loop midpoint sum; its
cell boxes are checked to enclose the curves, evaluated in high precision.
The certified signs are frozen regression constants.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import linking_oracle
import quadrant_atlas.topology as topology
import scan_oracle
from quadrant_atlas.interval import Interval
from quadrant_atlas.maps import (
    HALF_PI,
    _phi_terms,
    _trig_vec,
    eval_h,
)
from quadrant_atlas.topology import (
    ALPHA1_D1_SIGN,
    ALPHA2_D2_SIGN,
    MIN_SEGMENTS,
    BoundaryLoop,
    DegenerateGeometryError,
    LinkingResult,
    TubeSpec,
    WarpedDiscSpec,
    _circle,
    _crossings,
    _loop_points,
    _orientations,
    gauss_linking,
    make_tube,
    transversality_exact,
)
from linking_oracle import _circle_samples, _leg_integrals, _pair_sum, arc_pair_inputs
from scan_oracle import in_tube, transversality_scan


def circle_at(spec, s):
    """Disc boundary points at the angles s, n x 3."""
    return _circle(spec, np.cos(s), np.sin(s))


def loop_at(loop, t):
    """Loop points at an ascending list of parameters, as triples."""
    return [tuple(p) for p in _loop_points(loop, np.asarray(t, dtype=float)).tolist()]


def inside(points, tube):
    """Which of the n x 3 points lie in the tube's open cylinder."""
    return in_tube(np.asarray(points, dtype=float), tube)[1]


def test_make_tube_frozen_constants():
    t = make_tube(1.0, 2.0, "d1")
    assert abs(t.m0 - 2.0 * math.sqrt(5.0)) <= 1e-15
    assert abs(t.m - 8.0 * math.sqrt(5.0)) <= 1e-14
    assert t.epsilon == 1.0
    t = make_tube(1.0, 1.0, "d2")
    assert abs(t.m0 - 2.0 * math.sqrt(2.0)) <= 1e-15
    assert t.epsilon == 0.5


def test_make_tube_invariants_hold():
    for a, b in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]:
        t = make_tube(a, b, "d1")
        assert 0.0 < t.epsilon < min(b, t.m0 - b)
        assert t.m == 4.0 * t.m0
        assert t.m0 > math.sqrt(a * a + b * b)


def test_make_tube_rejects_bad_radii():
    with pytest.raises(ValueError):
        make_tube(2.0, 1.0, "d1")
    with pytest.raises(ValueError):
        make_tube(0.0, 1.0, "d1")
    with pytest.raises(ValueError):
        make_tube(1.0, 2.0, "d3")


def test_disc_boundary_frozen_points():
    d1 = WarpedDiscSpec("d1", 1.0, 2.0)
    pts = circle_at(d1, np.array([0.0, math.pi / 2])).tolist()
    assert tuple(pts[0]) == (1.0, 0.0, 2.0)
    p = pts[1]
    assert abs(p[0]) <= 1e-15 and abs(p[1] - 1.0) <= 1e-15
    assert abs(p[2] - math.sqrt(3.0)) <= 1e-15


def test_disc_boundary_lies_on_both_quadrics():
    for variant in ("d1", "d2"):
        spec = WarpedDiscSpec(variant, 1.3, 2.7)
        a2, b2 = spec.a**2, spec.b**2
        s = np.array([2.0 * math.pi * k / 257 for k in range(257)])
        x, y, z = circle_at(spec, s).T
        if variant == "d1":
            assert np.max(np.abs(x * x + y * y - a2)) <= 1e-12
            assert np.max(np.abs(y * y + z * z - b2)) <= 1e-12
            assert max(np.max(np.abs(u - v)) for u, v in zip(eval_h((x, y, z)), (a2, b2))) <= 1e-12
        else:
            assert np.max(np.abs(y * y + z * z - a2)) <= 1e-12
            assert np.max(np.abs(x * x + y * y - b2)) <= 1e-12


def test_loop_runs_along_the_axes_first():
    m = make_tube(1.0, 2.0, "d1").m
    a1 = BoundaryLoop("alpha1", m)
    a2 = BoundaryLoop("alpha2", m)
    t = [m * k / 10 for k in range(11)]
    assert loop_at(a1, t) == [(0.0, 0.0, v) for v in t]
    assert loop_at(a2, t) == [(v, 0.0, 0.0) for v in t]


def test_loop_rejects_a_length_scale_that_is_not_positive_and_finite():
    # m sets the parameter range that the linking sum and the
    # transversality scan cut into segments, so it must be a finite length
    for m in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            BoundaryLoop("alpha1", m)


def test_loop_closes_and_is_continuous_at_junctions():
    # the middle segment leaves the strip edges with a sqrt(delta) modulus of
    # continuity, so the junction jump must shrink like sqrt of the probe step
    m = make_tube(1.0, 2.0, "d1").m
    for variant in ("alpha1", "alpha2"):
        loop = BoundaryLoop(variant, m)
        start, end = loop_at(loop, [0.0, loop.t_max])
        assert max(abs(u - v) for u, v in zip(start, end)) <= 1e-9
        for junction in (m, m + math.pi / 2):
            for delta in (1e-4, 1e-6, 1e-8):
                bound = 1.5 * math.sqrt(delta) + 2.0 * (1.0 + m) ** 2 * delta
                before, at, after = loop_at(loop, [junction - delta, junction, junction + delta])
                for q in (before, after):
                    assert max(abs(u - v) for u, v in zip(at, q)) <= bound


def test_tube_membership_frozen_points():
    tube = make_tube(1.0, 2.0, "d1")
    b, eps = 2.0, tube.epsilon
    assert inside([(0.0, 0.0, b), (0.0, 0.0, b + 2 * eps)], tube).tolist() == [True, False]


def test_far_points_are_outside_the_tube():
    rng = random.Random(29)
    for variant in ("d1", "d2"):
        tube = make_tube(1.0, 2.0, variant)
        floor = math.sqrt(2.0) * tube.m0
        points = []
        for _ in range(100):
            v = np.array([rng.gauss(0, 1) for _ in range(3)])
            points.append(v * ((floor + 0.01 + 10 * rng.random()) / np.linalg.norm(v)))
        assert not inside(points, tube).any()


def test_middle_segment_stays_far_from_origin():
    # points with rho = m obey the norm >= rho/2 = 2*m0 lower bound
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    t = np.array([tube.m + (math.pi / 2) * (k + 1) / 200 for k in range(200)])
    p = _loop_points(loop, t)
    assert np.all(np.sqrt(np.sum(p * p, axis=1)) >= 2.0 * tube.m0 * (1 - 1e-12))
    assert not inside(p, tube).any()


def test_transversality_certificates_for_matched_pairs():
    for a, b in [(1.0, 2.0), (1.0, 1.0)]:
        for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
            tube = make_tube(a, b, disc_variant)
            loop = BoundaryLoop(loop_variant, tube.m)
            grid = 20_000
            report = transversality_scan(loop, tube, grid)
            assert report.ok
            assert len(report.hit_intervals) == 1
            step = loop.t_max / (grid - 1)
            lo, hi = report.hit_intervals[0]
            assert abs(lo - (b - tube.epsilon)) <= step
            assert abs(hi - (b + tube.epsilon)) <= step
            assert report.expected_interval == (b - tube.epsilon, b + tube.epsilon)
            assert report.max_lateral_deviation <= 1e-9
            assert report.basis == "grid"
            exact = transversality_exact(loop, tube)
            assert exact.ok and exact.basis == "exact"
            assert exact.hit_intervals == (exact.expected_interval,)
            assert exact.expected_interval == report.expected_interval
            assert exact.max_lateral_deviation == 0.0


def test_transversality_mismatched_pair_is_informational():
    tube = make_tube(1.0, 2.0, "d2")
    loop = BoundaryLoop("alpha1", tube.m)
    report = transversality_scan(loop, tube, 2000)
    assert isinstance(report.ok, bool)
    # the closed form follows the loop's first leg, which runs along the
    # other axis here
    assert transversality_exact(loop, tube).ok is False
    # a loop that never reaches the tube: no hits, so no certificate
    tube = make_tube(1.0, 2.0, "d1")
    report = transversality_scan(BoundaryLoop("alpha1", 0.5), tube, 2000)
    assert report.ok is False
    assert report.hit_intervals == ()
    assert report.max_lateral_deviation == 0.0
    # its first leg ends at 0.5, before the hit (1, 3) the closed form finds
    assert transversality_exact(BoundaryLoop("alpha1", 0.5), tube).ok is False


def test_transversality_exact_refuses_each_broken_hypothesis():
    # at (1, 2), with make_tube's m0 = 2 sqrt(5), epsilon = 1 and m = 8 sqrt(5)
    # unless replaced; each tube breaks one inequality and keeps the others
    disc = WarpedDiscSpec("d1", 1.0, 2.0)
    m0 = 2.0 * math.sqrt(5.0)
    tubes = [
        TubeSpec(disc, epsilon=1.0, m0=m0, m=4.0 * m0),
        # epsilon on its bound b
        TubeSpec(disc, epsilon=2.0, m0=m0, m=4.0 * m0),
        # m0 below the sup norm sqrt(5)
        TubeSpec(disc, epsilon=0.1, m0=2.2, m=8.8),
        # the hit (1, 3) lies on the first leg, but the arc's norm bound
        # m/2 = 1.75 falls short of the tube's sqrt(13)
        TubeSpec(disc, epsilon=1.0, m0=m0, m=3.5),
    ]
    verdicts = [transversality_exact(BoundaryLoop("alpha1", t.m), t).ok for t in tubes]
    assert verdicts == [True, False, False, False]


def test_transversality_exact_holds_at_every_exact_scale():
    # the acceptance pairs times 2^k, wherever make_tube succeeds and b^2
    # is a normal double, so that sqrt(b * b) in xi gives back b; below
    # that the disc's own height at y = 0 may round off b, and the crossing
    # is then refused
    checked = 0
    for a, b in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]:
        for k in range(-1080, 1000):
            sa, sb = math.ldexp(a, k), math.ldexp(b, k)
            for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
                try:
                    tube = make_tube(sa, sb, disc_variant)
                except ValueError:
                    continue
                report = transversality_exact(BoundaryLoop(loop_variant, tube.m), tube)
                if sb * sb >= sys.float_info.min:
                    assert report.ok, (a, b, k, disc_variant)
                    checked += 1
    # every k from about -510 to 510 at each pair and variant
    assert checked >= 4 * 2 * 1000


def test_make_tube_refuses_a_b_whose_square_is_subnormal():
    # the least b whose square is a normal double, and the double below it
    b = math.sqrt(sys.float_info.min)
    while b * b < sys.float_info.min:
        b = math.nextafter(b, math.inf)
    below = math.nextafter(b, 0.0)
    assert below * below < sys.float_info.min
    for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
        tube = make_tube(b, b, disc_variant)
        assert transversality_exact(BoundaryLoop(loop_variant, tube.m), tube).ok
        for a in (below, below / 2.0):
            with pytest.raises(ValueError, match="underflow"):
                make_tube(a, below, disc_variant)


def test_transversality_rejects_tiny_grid():
    tube = make_tube(1.0, 2.0, "d1")
    with pytest.raises(ValueError):
        transversality_scan(BoundaryLoop("alpha1", tube.m), tube, 999)


def test_linking_signs_are_the_frozen_constants():
    for a, b in [(1.0, 2.0), (1.0, 1.0)]:
        t1 = make_tube(a, b, "d1")
        t2 = make_tube(a, b, "d2")
        r1 = gauss_linking(BoundaryLoop("alpha1", t1.m), t1.disc, 512, 512)
        r2 = gauss_linking(BoundaryLoop("alpha2", t2.m), t2.disc, 512, 512)
        assert (r1.value, r1.rounded) == (ALPHA1_D1_SIGN, ALPHA1_D1_SIGN)
        assert (r2.value, r2.rounded) == (ALPHA2_D2_SIGN, ALPHA2_D2_SIGN)
        assert r1.crossings == r2.crossings == 2


def test_linking_stable_under_mesh_refinement():
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    coarse = gauss_linking(loop, tube.disc, 512, 512)
    fine = gauss_linking(loop, tube.disc, 1024, 1024)
    circle_only = gauss_linking(loop, tube.disc, 512, 1024)
    assert coarse.value == fine.value == circle_only.value == ALPHA1_D1_SIGN
    assert isinstance(coarse, LinkingResult)


def test_linking_rejects_tiny_segment_counts():
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    with pytest.raises(ValueError):
        gauss_linking(loop, tube.disc, 255, 512)
    with pytest.raises(ValueError):
        gauss_linking(loop, tube.disc, 512, 100)


def midpoint_sum(pts1, tan1, h1, pts2, tan2, h2):
    """The midpoint-rule Gauss integral over all sample pairs of two
    curves with cell widths h1 and h2."""
    return _pair_sum(pts1, tan1, pts2, tan2)[0] * h1 * h2 / (4.0 * math.pi)


def unit_circle(n: int, center, plane_z: float, s=None):
    s = (np.arange(n) + 0.5) * (2.0 * math.pi / n) if s is None else s
    pts = np.stack(
        [center[0] + np.cos(s), center[1] + np.sin(s), np.full(n, plane_z)], axis=-1
    )
    tan = np.stack([-np.sin(s), np.cos(s), np.zeros(n)], axis=-1)
    return pts, tan, 2.0 * math.pi / n


def closed(pts):
    """A polygon through the given vertices, closed by its first."""
    return np.vstack([pts, pts[:1]])


def hopf_partner(n: int, s=None):
    """A circle of radius 1 in the xz-plane through the unit circle's centre."""
    s = (np.arange(n) + 0.5) * (2.0 * math.pi / n) if s is None else s
    pts = np.stack([1.0 + np.cos(s), np.zeros(n), np.sin(s)], axis=-1)
    return pts, np.stack([-np.sin(s), np.zeros(n), np.cos(s)], axis=-1)


def test_unlinked_circles_have_linking_zero():
    p1, t1, h1 = unit_circle(512, (0.0, 0.0), 0.0)
    p2, t2, h2 = unit_circle(512, (10.0, 0.0), 5.0)
    assert abs(midpoint_sum(p1, t1, h1, p2, t2, h2)) <= 0.01
    # as polygons: their projections along (1, 2, 3) are apart
    assert _crossings(closed(p1), closed(p2)) == (0, 0)
    # a circle whose projection crosses the other's twice, both times above:
    # the unit circle moved by 2 (1, 2, 3), which projects to 0, and by
    # (0.5, 0, 0), which does not
    p3 = p1 + np.array([2.5, 4.0, 6.0])
    assert _crossings(closed(p3), closed(p1)) == (0, 2)


def test_hopf_circles_link_once():
    # textbook sanity fixture: unit circle in the plane vs a loop threading
    # it; the count and the quadrature agree on the sign, loop tangent first
    p1, t1, h1 = unit_circle(512, (0.0, 0.0), 0.0)
    p2, t2 = hopf_partner(512)
    value = midpoint_sum(p2, t2, h1, p1, t1, h1)
    assert abs(abs(value) - 1.0) <= 0.01
    # polygons through vertices off the axes' planes, so no vertex projects
    # onto an edge of the other
    s = (np.arange(512) + 0.25) * (2.0 * math.pi / 512)
    loop, circle = closed(hopf_partner(512, s)[0]), closed(unit_circle(512, (0.0, 0.0), 0.0, s)[0])
    count, crossings = _crossings(loop, circle)
    assert count == round(value) and crossings == 2
    # swapping the curves keeps the linking number; reversing one negates it
    assert _crossings(circle, loop)[0] == count
    assert _crossings(loop[::-1], circle)[0] == -count


def test_crossing_count_refuses_a_view_that_is_not_regular():
    # a vertex of one polygon projects onto an edge of the other: (1, 2, 3)
    # from a point of the edge through the origin
    square = closed(np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]))
    on_edge = np.array([1.0, 0.0, 0.0]) + np.array([1.0, 2.0, 3.0])
    loop = closed(np.array([on_edge, [5.0, 5.0, 9.0], [5.0, -5.0, 9.0]]))
    with pytest.raises(DegenerateGeometryError, match="projects onto an edge"):
        _crossings(loop, square)
    # an edge that projects onto a square edge's line, overlapping it
    view = np.array([1.0, 2.0, 3.0])
    along = closed(np.array([[-2.0, -1.0, 0.0] + view, [2.0, -1.0, 0.0] + view, [0.0, 5.0, 9.0]]))
    with pytest.raises(DegenerateGeometryError, match="projects onto an edge"):
        _crossings(along, square)
    # two edges that meet in space, at (1, 0, 0), cross at one height
    through = closed(np.array([[1.0, 0.0, -1.0], [1.0, 0.0, 1.0], [7.0, 0.1, 5.0]]))
    with pytest.raises(DegenerateGeometryError, match="one height"):
        _crossings(through, square)


# (a, b, c) whose orientation det(_VIEW, b - a, c - a) rounds to the wrong
# sign in doubles (-1, 0 and +1 where it is +1, +1 and -1): found by
# sampling c one ulp off the line through a and b
NEAR_COLLINEAR = [
    (
        [0.6100058474907604, 0.6158815794729875, 0.030651122084284],
        [-0.4283972398237168, -0.8921385952366871, -0.23326223842896354],
        [0.26361877077170515, 0.11284118376117426, -0.057384226203929294],
    ),
    (
        [0.6741235312661911, 0.7301008447541804, -0.7098687402229238],
        [0.8773532507916382, 0.6711672269237998, -0.7913272483009841],
        [0.31198297511785095, 0.835116258773169, -0.5647156125834935],
    ),
    (
        [-0.2619008778373684, 0.3622234741788142, -0.3568408342440208],
        [-0.7351117997538328, 0.5676418485149965, -0.9414984859808175],
        [-1.1400164886908886, 0.7434088460849096, -1.441762984636973],
    ),
]


def exact_orientation(a, b, c):
    """The sign of det(_VIEW, b - a, c - a) in Fractions, by cofactors."""
    (r, s, t), (u, v, w), (x, y, z) = (
        topology._VIEW,
        *([Fraction(p) - Fraction(q) for p, q in zip(row.tolist(), a.tolist())] for row in (b, c)),
    )
    det = r * (v * z - w * y) - s * (u * z - w * x) + t * (u * y - v * x)
    return (det > 0) - (det < 0)


def test_orientation_filter_defers_to_exact_arithmetic():
    # on the line through a and b, all dyadic, the exact sign is 0; one ulp
    # off it either way, and at the near-collinear triples, the float
    # determinant is at rounding level and the filter defers to Fractions
    a, b = np.array([0.125, 0.25, 0.375]), np.array([0.75, -1.25, 2.875])
    on = a + 2.0 * (b - a)
    off = [np.nextafter(on, on + d * e) for d in (1.0, -1.0) for e in np.eye(3)]
    rows = [(a, b, on), *((a, b, c) for c in off), *(tuple(map(np.array, t)) for t in NEAR_COLLINEAR)]
    signs = _orientations(*(np.array(r) for r in zip(*rows)))
    exact = [exact_orientation(*row) for row in rows]
    assert signs.tolist() == exact
    assert exact[0] == 0 and exact[-3:] == [1, 1, -1]
    # the rows the filter decides itself agree with exact arithmetic too
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1.0, 1.0, (2, 1000, 3))
    c = a + rng.uniform(-3.0, 3.0, (1000, 1)) * (b - a)
    c = np.nextafter(c, c + rng.choice([-1.0, 1.0], c.shape))
    exact = [exact_orientation(*row) for row in zip(a, b, c)]
    assert _orientations(a, b, c).tolist() == exact


def broadcast_double_sum(pts1, tan1, h1, pts2, tan2, h2):
    # reference: the integrand det(p1 - p2, t1, t2) broadcast over all pairs
    total = 0.0
    for i0 in range(0, pts1.shape[0], 64):
        diff = pts1[i0 : i0 + 64, None, :] - pts2[None, :, :]
        cross = np.cross(tan1[i0 : i0 + 64, None, :], np.broadcast_to(tan2, diff.shape))
        numer = np.einsum("ijk,ijk->ij", diff, cross)
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        total += float(np.sum(numer / (dist2 * np.sqrt(dist2))))
    return total * h1 * h2 / (4.0 * math.pi)


def test_linking_sum_matches_broadcast_reference():
    n = 512
    for a, b in [(1.0, 2.0), (0.5, 3.0)]:
        for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
            tube = make_tube(a, b, disc_variant)
            loop = BoundaryLoop(loop_variant, tube.m)
            h1 = loop.t_max / n
            t = (np.arange(n) + 0.5) * h1
            args = (_loop_points(loop, t), reference_loop_tangents(loop, t), h1)
            args += (*_circle_samples(tube.disc, n), 2.0 * math.pi / n)
            assert abs(midpoint_sum(*args) - broadcast_double_sum(*args)) <= 1e-12


def test_linking_sum_memory_is_bounded_by_the_tile():
    # the bound sits far below one 64-row broadcast temporary of this grid (96 MiB)
    p1, t1, h1 = unit_circle(256, (0.0, 0.0), 0.0)
    p2, t2, h2 = unit_circle(65536, (10.0, 0.0), 5.0)
    tracemalloc.start()
    try:
        value = midpoint_sum(p1, t1, h1, p2, t2, h2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value) <= 0.01
    assert peak <= 16 * 2**20


def overflowing_pair(b, loop_variant, disc_variant):
    """The loop and disc make_tube's rule gives at (1, b), where make_tube
    itself refuses an m whose square overflows."""
    disc = WarpedDiscSpec(disc_variant, 1.0, b)
    m = 8.0 * math.sqrt(1.0 + b * b)
    with pytest.raises(ValueError, match=r"m\^2=inf"):
        make_tube(1.0, b, disc_variant)
    return BoundaryLoop(loop_variant, m), disc


def test_linking_raises_when_the_loop_overflows():
    # m0 is finite at this scale, but the loop's phi1 ~ rho^2 overflows
    with pytest.raises(DegenerateGeometryError):
        gauss_linking(*overflowing_pair(1e154, "alpha1", "d1"), 256, 256)


def test_leg_integral_matches_quadrature():
    mpmath = pytest.importorskip("mpmath")
    p0, p1 = np.array([0.3, -0.2, 1.0]), np.array([0.3, -0.2, 11.0])
    b = 2.0
    samples = [
        # near the middle of the leg, 0.5 from its line
        ((0.6, 0.2, 6.1), (0.6, -0.8, 0.1)),
        # beyond its far end, 1e-6 from its line: u0 and u1 share a sign
        ((0.3 + 1e-6, -0.2, 13.0), (-0.3, 0.9, 0.2)),
        # at distance b from its line, level with its start
        ((0.3, -0.2 + b, 1.0), (0.0, 0.4, -1.0)),
    ]
    values, dist = _leg_integrals(
        p0, p1, np.array([q for q, _ in samples]), np.array([t for _, t in samples])
    )
    assert dist.tolist() == pytest.approx([0.5, 2.0, b], rel=1e-12)
    with mpmath.workdps(30):
        for value, (q, t) in zip(values.tolist(), samples):
            w = [mpmath.mpf(u) - mpmath.mpf(v) for u, v in zip(p0.tolist(), q)]
            # det(w, e, t) with e = (0, 0, 1)
            numer = w[1] * t[0] - w[0] * t[1]
            tau = -w[2]
            cuts = [0, tau, 10] if 0 < tau < 10 else [0, 10]
            exact = mpmath.quad(
                lambda s: numer / (w[0] ** 2 + w[1] ** 2 + (w[2] + s) ** 2) ** 1.5, cuts
            )
            assert abs(value - exact) <= 1e-12 * abs(exact), q


def test_linking_matches_the_whole_loop_midpoint_sum():
    # the whole-loop midpoint sum, the oracle's quadrature (legs exact) and
    # the count agree
    n = 4096
    for a, b in [(1.0, 2.0), (0.5, 3.0)]:
        for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
            tube = make_tube(a, b, disc_variant)
            loop = BoundaryLoop(loop_variant, tube.m)
            h1 = loop.t_max / n
            t = (np.arange(n) + 0.5) * h1
            midpoint = midpoint_sum(
                _loop_points(loop, t),
                reference_loop_tangents(loop, t),
                h1,
                *_circle_samples(tube.disc, n),
                2.0 * math.pi / n,
            )
            quadrature, _ = linking_oracle.midpoint_linking(loop, tube.disc, n, n)
            assert abs(quadrature - midpoint) <= 1e-4
            result = gauss_linking(loop, tube.disc, n, n)
            assert result.value == result.rounded == round(quadrature)
            assert result.loop_segments == n
            assert result.arc_segments == math.ceil(n * (math.pi / 2) / loop.t_max)


def test_circle_through_a_leg_raises_degenerate_error(monkeypatch):
    # a unit circle in the plane z = 5 with a vertex on the z-axis, which is
    # the first leg of alpha1: that vertex's cell box meets the leg
    def circle_through_axis(spec, c, sn):
        return np.stack([c - c[len(c) // 2], sn - sn[len(c) // 2], np.full(len(c), 5.0)], axis=-1)

    monkeypatch.setattr(topology, "_circle", circle_through_axis)
    tube = make_tube(1.0, 2.0, "d1")
    with pytest.raises(DegenerateGeometryError, match="box meets"):
        gauss_linking(BoundaryLoop("alpha1", tube.m), tube.disc, 512, 512)


def test_circle_through_the_arc_raises_degenerate_error(monkeypatch):
    # a unit circle in a plane z = const with a vertex at an arc vertex of
    # alpha1 at (1, 2), made as gauss_linking makes it; every vertex stays
    # at least 1e-3 from both legs, so only an arc cell's box meets it
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    n = 512
    arc_segments = math.ceil(n * HALF_PI / loop.t_max)
    theta = np.linspace(0.0, HALF_PI, arc_segments + 1)[arc_segments // 2]
    arc_point = np.stack(_phi_terms(tube.m, *_trig_vec(np.array([HALF_PI - theta]))), axis=-1)[0]

    def circle_through_arc(spec, c, sn):
        x, y, z = arc_point
        k = len(c) // 2
        return np.stack([c - c[k] + x, sn - sn[k] + y, np.full(len(c), z)], axis=-1)

    s = np.arange(n) * (2.0 * math.pi / n)
    pts = circle_through_arc(tube.disc, np.cos(s), np.sin(s))
    assert pts[n // 2].tolist() == arc_point.tolist()
    # the legs run along the z- and x-axes, so their distances are at least
    # those to the axes
    x, y, z = pts.T
    assert min(np.min(np.hypot(x, y)), np.min(np.hypot(y, z))) >= 1e-3
    monkeypatch.setattr(topology, "_circle", circle_through_arc)
    with pytest.raises(DegenerateGeometryError, match="box meets"):
        gauss_linking(loop, tube.disc, n, n)


def test_leg_corners_lie_exactly_on_the_axes(monkeypatch):
    # the legs end on the arc's end edges, phi(m, 0) = (m, 0, 0) and
    # phi(m, pi/2) = (0, 0, m) exactly; p(m + pi/2) evaluated at the rounded
    # parameter lands a few ulps of the angle off the axis (x = -1.3e-9 for
    # alpha2 at (1, 1000))
    for a, b in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (1.0, 1000.0)]:
        for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
            tube = make_tube(a, b, disc_variant)
            loop = BoundaryLoop(loop_variant, tube.m)
            _, [arc], (polygon, _) = record_linking(monkeypatch, loop, tube.disc, 4096, 4096)
            corners = [arc[:, 0].tolist(), arc[:, -1].tolist()]
            origin, x_end, z_end = [0.0, 0.0, 0.0], [tube.m, 0.0, 0.0], [0.0, 0.0, tube.m]
            ends = [z_end, x_end] if loop_variant == "alpha1" else [x_end, z_end]
            assert corners == ends
            assert polygon[[0, 1, -2, -1]].tolist() == [origin, ends[0], ends[1], origin]
            rounded = _loop_points(loop, np.array([loop.m, loop.m + math.pi / 2]))
            assert np.max(np.abs(rounded - np.array(corners))) <= 1e-7


# Reference: the whole-grid loop geometry that _loop_points replaced. It
# evaluates phi and both partials at every parameter and selects the
# segment with np.where; _loop_points must reproduce its points byte for
# byte, signed zeros included, and the whole-loop midpoint sums take their
# tangents from it.


def reference_loop_params(loop, t):
    m = loop.m
    seg = np.where(t <= m, 0, np.where(t <= m + HALF_PI, 1, 2))
    rho = np.where(seg == 0, t, np.where(seg == 1, m, 2.0 * m + HALF_PI - t))
    if loop.variant == "alpha1":
        theta = np.where(seg == 0, HALF_PI, np.where(seg == 1, m + HALF_PI - t, 0.0))
    else:
        theta = np.where(seg == 0, 0.0, np.where(seg == 1, t - m, HALF_PI))
    return rho, theta, seg


def reference_loop_points(loop, t):
    rho, theta, _ = reference_loop_params(loop, t)
    return np.stack(_phi_terms(rho, *_trig_vec(theta)), axis=-1)


def phi_rho(rho, c, s, w):
    """d phi / d rho, arguments as for _phi_terms; the straight legs'
    direction, which the program writes in closed form."""
    c4 = (c * c) * (c * c)
    s4 = (s * s) * (s * s)
    return (2.0 * c4 * s + c * s4 + c4 * c + 2.0 * rho * (c4 * c) * s, (c * s) * w, s)


def phi_theta(rho, c, s, w):
    """d phi / d theta, arguments as for _phi_terms; needs w > 0, that is
    theta strictly inside the strip, where phi2 is differentiable. The
    arc's tangent, which the program replaces by its cells' chords."""
    cs, c2, s2 = c * s, c * c, s * s
    c4, cc_ss = c2 * c2, c2 - s2
    lin = -8.0 * (c2 * c) * s2 + 2.0 * (c4 * c) - s2 * s2 * s + 4.0 * c2 * (s2 * s) - 5.0 * c4 * s
    return (
        cc_ss * (1.0 - 4.0 * cs) + rho * lin + rho * rho * (c4 * c2 - 5.0 * c4 * s2),
        cc_ss / (2.0 * w) * (c + s + rho * cs) + w * ((c - s) + rho * cc_ss),
        rho * c,
    )


def reference_loop_tangents(loop, t):
    rho, theta, seg = reference_loop_params(loop, t)
    d_rho = np.stack(phi_rho(rho, *_trig_vec(theta)), axis=-1)
    safe_theta = np.clip(theta, 1e-300, HALF_PI * (1.0 - 1e-16))
    d_theta = np.stack(phi_theta(rho, *_trig_vec(safe_theta)), axis=-1)
    theta_sign = -1.0 if loop.variant == "alpha1" else 1.0
    return np.where(
        (seg == 0)[..., None],
        d_rho,
        np.where((seg == 1)[..., None], theta_sign * d_theta, -d_rho),
    )


REFERENCE_SCALES = [
    (1.0, 1.0),
    (1.0, 2.0),
    (0.5, 3.0),
    (2.0, 2.5),
    (1.0, 1000.0),
    (1e-3, 1e3),
    (1.0, 1e6),
]


def reference_cases():
    for a, b in REFERENCE_SCALES:
        for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
            tube = make_tube(a, b, disc_variant)
            yield tube, BoundaryLoop(loop_variant, tube.m)


def test_loop_segments_match_the_whole_grid_reference():
    for _, loop in reference_cases():
        grids = [np.linspace(0.0, loop.t_max, n) for n in (1000, 4096, 100_000)]
        grids += [(np.arange(n) + 0.5) * (loop.t_max / n) for n in (1000, 4096, 100_000)]
        # both junctions exactly: t = m closes the first leg, t = m + pi/2 the arc
        m = loop.m
        grids.append(np.array([0.0, m, m + math.pi / 2, loop.t_max]))
        grids.append(np.array([np.nextafter(m, 0.0), m, np.nextafter(m, np.inf)]))
        end = m + math.pi / 2
        grids.append(np.array([np.nextafter(end, 0.0), end, np.nextafter(end, np.inf)]))
        for t in grids:
            got, want = _loop_points(loop, t), reference_loop_points(loop, t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (loop, t.size)


def test_transversality_reports_match_the_whole_grid_reference(monkeypatch):
    # alpha1 at m = 0.5 never enters its tube
    cases = [(tube, loop, grid) for tube, loop in reference_cases() for grid in (100_000, 12_345)]
    cases.append((make_tube(1.0, 2.0, "d1"), BoundaryLoop("alpha1", 0.5), 12_345))
    reports = [transversality_scan(loop, tube, grid) for tube, loop, grid in cases]
    monkeypatch.setattr(scan_oracle, "_loop_points", reference_loop_points)
    for (tube, loop, grid), report in zip(cases, reports):
        assert report == transversality_scan(loop, tube, grid), (loop, grid)

    # Two curves in the d1 tube at (1, 2), whose hits span 1 < z < 3, try
    # what no loop reaches. climb ends inside the tube at z = 2.5, so its
    # run is still open at the last point. nudge is the loop with z lifted
    # by 1e-6 below z = 2, so only the first half of its run misses the
    # affine bound and fails ok.
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)

    def climb(loop, t):
        drift = 1e-3 * (loop.t_max - t)
        return np.stack([drift, np.zeros_like(t), t - loop.t_max + 2.5 - drift], axis=-1)

    def nudge(loop, t):
        points = reference_loop_points(loop, t)
        points[:, 2] += np.where(points[:, 2] < 2.0, 1e-6, 0.0)
        return points

    wholes = {}
    for curve in (climb, nudge):
        monkeypatch.setattr(scan_oracle, "_loop_points", curve)
        whole = wholes[curve] = transversality_scan(loop, tube, 100_000)
        assert len(whole.hit_intervals) == 1 and not whole.ok
    assert wholes[climb].hit_intervals[0][1] == loop.t_max
    assert wholes[nudge].max_lateral_deviation == 0.0

    # Two runs of grid points inside the tube, apart and both away from the
    # grid's ends: each is its own hit interval, from its first point to its
    # last.
    t = np.linspace(0.0, loop.t_max, 100_000)
    runs = [(3000, 3500), (6200, 6999)]

    def two_runs(loop, ts):
        hit = np.zeros(ts.shape, dtype=bool)
        for i, j in runs:
            hit |= (ts >= t[i]) & (ts <= t[j])
        z = np.where(hit, 2.0, 10.0)
        return np.stack([np.zeros_like(ts), np.zeros_like(ts), z], axis=-1)

    monkeypatch.setattr(scan_oracle, "_loop_points", two_runs)
    report = transversality_scan(loop, tube, 100_000)
    assert report.hit_intervals == tuple((t[i], t[j]) for i, j in runs)


def test_loop_legs_stay_exact_beyond_the_squared_range():
    # t * t overflows beyond about 1.34e154, and phi's rho^2 term at an
    # edge angle is then inf * 0 = nan; the legs do not go through phi
    assert loop_at(BoundaryLoop("alpha2", 1e200), [1e200]) == [(1e200, 0.0, 0.0)]
    assert loop_at(BoundaryLoop("alpha1", 1e200), [1e200]) == [(0.0, 0.0, 1e200)]
    loop = BoundaryLoop("alpha1", 1e200)
    t = loop.t_max - 1e199
    assert loop_at(loop, [t]) == [(loop.t_max - t, 0.0, 0.0)]


def test_linking_raises_once_the_arc_overflows():
    # at B = 1.7e153 the tube and the legs are finite, but m^2 is not, so
    # the arc at rho = m has no finite points; at B = 1e153 it still has
    for variant, disc in (("alpha1", "d1"), ("alpha2", "d2")):
        with pytest.raises(DegenerateGeometryError, match="not finite"):
            gauss_linking(*overflowing_pair(1.7e153, variant, disc), 256, 256)
        tube = make_tube(1.0, 1e153, disc)
        result = gauss_linking(BoundaryLoop(variant, tube.m), tube.disc, 256, 256)
        assert result.value == result.rounded


MATCHED = (("alpha1", "d1", ALPHA1_D1_SIGN), ("alpha2", "d2", ALPHA2_D2_SIGN))


def arc_inputs(a, b, n):
    """The arguments the oracle's quadrature passes _pair_sum for the arc
    of each matched pair at (a, b), n segments each way."""
    seen = []
    for loop_variant, disc_variant, _ in MATCHED:
        tube = make_tube(a, b, disc_variant)
        seen.append(arc_pair_inputs(BoundaryLoop(loop_variant, tube.m), tube.disc, n, n))
    return seen


def record_linking(monkeypatch, loop, disc, loop_segments, circle_segments):
    """gauss_linking's result, the arrays its phi evaluations on doubles
    return, each cut to the loop's own arc (linking_arcs evaluates both
    loops' arcs in one call, alpha1's first), and the two polygons whose
    crossings it counts."""
    phis, polygons = [], []

    def recording_phi_terms(*args):
        out = _phi_terms(*args)
        if not isinstance(args[1], Interval):
            both = np.array(out)
            half = both.shape[1] // 2
            phis.append(both[:, :half] if loop.variant == "alpha1" else both[:, half:])
        return out

    def recording_crossings(*args):
        polygons.extend(v.copy() for v in args)
        return _crossings(*args)

    with monkeypatch.context() as patch:
        patch.setattr(topology, "_phi_terms", recording_phi_terms)
        patch.setattr(topology, "_crossings", recording_crossings)
        result = gauss_linking(loop, disc, loop_segments, circle_segments)
    return result, phis, polygons


@pytest.mark.parametrize("b", [1e15, 1.2e15])
def test_linking_arc_midpoint_stays_on_the_arc_at_large_scales(b, monkeypatch):
    # the loop parameter m + pi/4 rounds to m + 1 (theta = 1) at B = 1e15,
    # where ulp(m) = 1, and onto t = m, the leg corner, from m = 2^53 (B =
    # 1.2e15). Cut in its own angle, the arc keeps its least 4 cells, whose
    # inner vertices phi(m, k pi/8) stay on the arc, off both axes
    tube = make_tube(1.0, b, "d1")
    assert math.ulp(tube.m) >= 1.0
    for loop_variant, disc_variant, sign in MATCHED:
        tube = make_tube(1.0, b, disc_variant)
        loop = BoundaryLoop(loop_variant, tube.m)
        result, [arc], _ = record_linking(monkeypatch, loop, tube.disc, 4096, 4096)
        assert result.arc_segments == 4 and result.value == sign
        theta = np.linspace(0.0, HALF_PI, 5)
        if loop_variant == "alpha1":
            theta = HALF_PI - theta
        assert arc.tobytes() == np.array(_phi_terms(tube.m, *_trig_vec(theta))).tobytes()
        assert np.all(arc[:, 1:-1] > 0.0)


@pytest.mark.parametrize("arc_segments", [25, 41, 50, 173])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 2.0)])
def test_linking_arc_chords_end_on_the_leg_corners(a, b, arc_segments, monkeypatch):
    # the arc is one phi evaluation on linspace's n + 1 angles, whose end
    # edges are exactly 0 and pi/2, where k * (pi/2 / n) misses pi/2 at n =
    # 25, 41 and 50, so the arc starts and ends exactly on the axes, the
    # legs run from and to those ends, and the loop polygon closes at the
    # origin; 173 is certify's arc at (1, 2) and 4096 segments
    misses = (np.arange(arc_segments + 1) * (HALF_PI / arc_segments))[-1] != HALF_PI
    assert misses == (arc_segments != 173)
    for loop_variant, disc_variant, _ in MATCHED:
        tube = make_tube(a, b, disc_variant)
        loop = BoundaryLoop(loop_variant, tube.m)
        sizes = range(MIN_SEGMENTS, 1 << 16)
        n = next(n for n in sizes if math.ceil(n * HALF_PI / loop.t_max) == arc_segments)
        result, [arc], (polygon, circle) = record_linking(monkeypatch, loop, tube.disc, n, MIN_SEGMENTS)
        assert result.arc_segments == arc_segments
        theta = np.linspace(0.0, HALF_PI, arc_segments + 1)
        if loop_variant == "alpha1":
            theta = HALF_PI - theta
        assert arc.tobytes() == np.array(_phi_terms(loop.m, *_trig_vec(theta))).tobytes()
        origin, x_end, z_end = [0.0, 0.0, 0.0], [loop.m, 0.0, 0.0], [0.0, 0.0, loop.m]
        first, last = (z_end, x_end) if loop_variant == "alpha1" else (x_end, z_end)
        assert polygon.tolist() == [origin, *arc.T.tolist(), origin]
        assert polygon[1].tolist() == first and polygon[-2].tolist() == last
        s = np.arange(MIN_SEGMENTS) * (2.0 * math.pi / MIN_SEGMENTS)
        assert circle.tolist() == [*circle_at(tube.disc, s).tolist(), circle[0].tolist()]


def test_pair_sum_runs_at_unit_scale():
    # det(p1 - p2, t1, t2) / |p1 - p2|^3 does not change when points and
    # tangents scale together; summed at unit scale, scaled inputs give the
    # same total bit for bit, where at 2^400 the cubed distances overflow
    for a, b in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]:
        for args in arc_inputs(a, b, 4096):
            total, closest = _pair_sum(*args)
            for k in (-300, 300, 400):
                scaled = _pair_sum(*(np.ldexp(v, k) for v in args))
                assert scaled == (total, math.ldexp(closest, k)), (a, b, k)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (1.3, 2.7)])
def test_linking_sums_are_the_same_bits_on_either_sample_layout(a, b):
    # the oracle passes coordinate-major samples, transposes of 3 x n
    # arrays, which BLAS reads through a transposed operand; row-major ones
    # give the same bits
    def layouts(*arrays):
        row_major = [np.ascontiguousarray(v) for v in arrays]
        coordinate_major = [np.ascontiguousarray(v.T).T for v in arrays]
        assert all(v.flags.c_contiguous for v in row_major)
        assert all(v.T.flags.c_contiguous and not v.flags.c_contiguous for v in coordinate_major)
        return row_major, coordinate_major

    def every_other_column(v):
        # as the arc's midpoints are made: the odd columns of one 3 x 2n array
        out = np.zeros((3, 2 * len(v)))
        out[:, 1::2] = v.T
        return out[:, 1::2].T

    for args in arc_inputs(a, b, 4096):
        row_major, coordinate_major = layouts(*args)
        want = _pair_sum(*row_major)
        assert _pair_sum(*coordinate_major) == want
        assert _pair_sum(*map(every_other_column, args)) == want
    for loop_variant, disc_variant, _ in MATCHED:
        tube = make_tube(a, b, disc_variant)
        origin, x_end, z_end = np.zeros(3), np.array([tube.m, 0.0, 0.0]), np.array([0.0, 0.0, tube.m])
        first, last = (z_end, x_end) if loop_variant == "alpha1" else (x_end, z_end)
        samples = _circle_samples(tube.disc, 4096)
        # as made: each coordinate a unit-stride row (d2's rows in reverse order)
        assert all(v.strides[0] == v.itemsize for v in samples)
        row_major, coordinate_major = layouts(*samples)
        for p0, p1 in ((origin, first), (last, origin)):
            want = [v.tobytes() for v in _leg_integrals(p0, p1, *row_major)]
            for layout in (samples, coordinate_major):
                assert [v.tobytes() for v in _leg_integrals(p0, p1, *layout)] == want


def test_linking_at_b_1e153_raises_no_warning():
    # the arc point phi(m, pi/4) is near 1e307 here, and far pairs' cubed
    # distances overflowed with a RuntimeWarning before the quadrature ran
    # at unit scale; the count scales its polygons by a power of two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loop_variant, disc_variant, sign in MATCHED:
            tube = make_tube(1.0, 1e153, disc_variant)
            result = gauss_linking(BoundaryLoop(loop_variant, tube.m), tube.disc, 256, 256)
            assert result.value == result.rounded == sign


@pytest.mark.parametrize(
    "a, b", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (1e-9, 2e-9), (1e80, 2e80), (1e-200, 1.0)]
)
def test_cell_boxes_enclose_the_curves(a, b):
    # the boxes gauss_linking compares, against phi and the disc boundary
    # evaluated in 40 digits at points of every cell; the cell edges are
    # the doubles the program uses, except the ends, which stand for exactly
    # 0 and pi/2 (the arc) and 2 pi (the circle). At A = B the height
    # sqrt(B^2 - A^2 sin^2 s) has a kink at each quarter turn.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    with mpmath.workdps(40):
        pi = mpmath.pi
        for loop_variant, disc_variant, _ in MATCHED:
            tube = make_tube(a, b, disc_variant)
            loop = BoundaryLoop(loop_variant, tube.m)
            theta = np.linspace(0.0, HALF_PI, 65)
            if loop_variant == "alpha1":
                theta = HALF_PI - theta
            boxes = topology._arc_boxes(loop.m, _trig_vec(theta))
            edges = [mpmath.mpf(t) for t in theta.tolist()]
            edges[0], edges[-1] = (pi / 2, 0) if loop_variant == "alpha1" else (0, pi / 2)
            rho = mpmath.mpf(loop.m)
            for k in range(64):
                for u in (0, 1, rng.random(), rng.random()):
                    t = edges[k] + u * (edges[k + 1] - edges[k])
                    c, s = mpmath.cos(t), mpmath.sin(t)
                    phi = (
                        c * s * (c - s) ** 2
                        + rho * (2 * c**4 * s + c * s**4 + c**5)
                        + rho**2 * c**5 * s,
                        mpmath.sqrt(c * s) * (c + s + rho * c * s),
                        rho * s,
                    )
                    for v, box in zip(phi, boxes):
                        assert box.lo[k] <= v <= box.hi[k], (loop_variant, k, u)
            n = 256
            s = np.arange(n) * (2.0 * math.pi / n)
            pts = circle_at(tube.disc, s)
            lo, hi = topology._circle_boxes(tube.disc, s, np.cos(s), np.sin(s), closed(pts))
            ends = [mpmath.mpf(v) for v in s.tolist()] + [2 * pi]
            fa, fb = mpmath.mpf(a), mpmath.mpf(b)
            for j in range(n):
                params = [ends[j] + u * (ends[j + 1] - ends[j]) for u in (0, 1, rng.random())]
                params += [q * pi / 2 for q in range(1, 4) if ends[j] <= q * pi / 2 <= ends[j + 1]]
                for t in params:
                    y = fa * mpmath.sin(t)
                    p = [fa * mpmath.cos(t), y, mpmath.sqrt(fb**2 - y**2)]
                    if disc_variant == "d2":
                        p.reverse()
                    for v, low, high in zip(p, lo[:, j], hi[:, j]):
                        assert low <= v <= high, (disc_variant, j, t)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (1e-9, 2e-9), (1e80, 2e80)])
def test_linking_circle_gives_d2_the_d1_polygon_swapped(a, b):
    # the one circle certify builds: d2's polygon and boxes, read as views
    # of d1's, are _circle and _circle_boxes run on d2, bit for bit
    n = 4096
    circle = topology.linking_circle(a, b, n)
    s = np.arange(n) * (2.0 * math.pi / n)
    for variant in ("d1", "d2"):
        spec = WarpedDiscSpec(variant, a, b)
        pts = closed(circle_at(spec, s))
        direct = (pts, *topology._circle_boxes(spec, s, np.cos(s), np.sin(s), pts))
        shared = circle.polygon(variant)
        assert [v.tobytes() for v in shared] == [v.tobytes() for v in direct]
        for v, base in zip(shared, (circle.points, circle.lo, circle.hi)):
            assert np.shares_memory(v, base)


@pytest.mark.parametrize(
    "a, b, unscaled",
    [(1.0, 2.0, False), (1e-153, 2e-153, False), (1e80, 2e80, True), (1.31e150, 2.71e150, True)],
)
def test_projected_edge_boxes_hold_the_exact_projections(a, b, unscaled, monkeypatch):
    # each projected edge box, padded in doubles, holds both of its ends'
    # projections (3y - 2z, 2x - y) taken in Fractions, for both polygons as
    # _crossings scales them by 2^k; k is 0 where the arc passes 2^500
    projected_edges = topology._projected_edges
    for loop_variant, disc_variant, _ in MATCHED:
        tube = make_tube(a, b, disc_variant)
        polygons, scaled = [], []

        def recording_crossings(*args):
            polygons.extend(args)
            return _crossings(*args)

        def recording_edges(pts):
            scaled.append(pts)
            return projected_edges(pts)

        with monkeypatch.context() as patch:
            patch.setattr(topology, "_crossings", recording_crossings)
            patch.setattr(topology, "_projected_edges", recording_edges)
            gauss_linking(BoundaryLoop(loop_variant, tube.m), tube.disc, 1024, 1024)
        k = max(0, 500 - math.frexp(max(float(np.max(np.abs(v))) for v in polygons))[1])
        assert (k == 0) == unscaled
        for polygon, pts in zip(polygons, scaled):
            assert pts.tobytes() == np.ldexp(polygon, k).tobytes()
            lo, hi = (v.T.tolist() for v in projected_edges(pts))
            exact = [
                (3 * Fraction(y) - 2 * Fraction(z), 2 * Fraction(x) - Fraction(y))
                for x, y, z in pts.tolist()
            ]
            for j, ends in enumerate(zip(exact[:-1], exact[1:])):
                for p in ends:
                    for c in range(2):
                        assert lo[j][c] <= p[c] <= hi[j][c], (loop_variant, j, c)


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 3.0), (1.0, 1000.0), (1e-9, 2e-9), (1e80, 2e80)])
def test_linking_arcs_slices_are_the_bits_of_separate_passes(a, b, monkeypatch):
    # linking_arcs runs phi once on intervals over both arcs' cells and
    # criterion 5's four; each slice must hold the bits of a pass of its
    # own: criterion 5's boxes those of its four cells on [0, pi/2], each
    # loop's edge boxes its ends' hull widened by phi over its own cells
    m = make_tube(a, b, "d1").m
    seen = []
    clears_tube = topology._clears_tube
    monkeypatch.setattr(topology, "_clears_tube", lambda m, boxes: seen.append(boxes) or clears_tube(m, boxes))
    polygons, clear = topology.linking_arcs(m, 4096)

    def bits(boxes):
        return [(v.lo.tobytes(), v.hi.tobytes()) for v in boxes]

    with np.errstate(over="ignore"):
        own = topology._arc_boxes(m, _trig_vec(np.linspace(0.0, HALF_PI, 5)))
    [joined] = seen
    assert bits(joined) == bits(own)
    assert clear is topology._arc_clears_tube(m) is True
    assert list(polygons) == ["alpha1", "alpha2"]
    for variant, polygon in polygons.items():
        n = polygon.arc_segments
        theta = np.linspace(0.0, HALF_PI, n + 1)
        if variant == "alpha1":
            theta = HALF_PI - theta
        trig = _trig_vec(theta)
        pts = closed(np.vstack([np.zeros(3), np.array(_phi_terms(m, *trig)).T]))
        lo, hi = np.minimum(pts[:-1], pts[1:]).T, np.maximum(pts[:-1], pts[1:]).T
        for k, v in enumerate(topology._arc_boxes(m, trig)):
            lo[k, 1:-1] = np.minimum(lo[k, 1:-1], v.lo)
            hi[k, 1:-1] = np.maximum(hi[k, 1:-1], v.hi)
        assert [polygon.points.tobytes(), polygon.lo.tobytes(), polygon.hi.tobytes()] == [
            pts.tobytes(), lo.tobytes(), hi.tobytes()
        ]
