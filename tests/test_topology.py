"""Tests for discs, tubes, loops, and the two numerical certificates.

The closed-form transversality certificate is checked against the grid
scan of scan_oracle, at every scale at which its doubles are exact, and
against mutants of the tube constants it must refuse. The linking
quadrature is checked against itself at doubled resolution
(the standard mesh-refinement oracle), against hand-built degenerate
fixtures, and against midpoint_linking, the whole-loop midpoint Gauss sum
over _pair_sum with no geometry guard of its own; that oracle is itself
checked on unlinked and Hopf circles and against a broadcast reference.
The certified signs are frozen regression constants.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import quadrant_atlas.topology as topology
import scan_oracle
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
    _circle_samples,
    _leg_integrals,
    _loop_points,
    _pair_sum,
    gauss_linking,
    make_tube,
    transversality_exact,
)
from scan_oracle import in_tube, transversality_scan


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
    pts = _circle(d1, np.array([0.0, math.pi / 2]))[0].tolist()
    assert tuple(pts[0]) == (1.0, 0.0, 2.0)
    p = pts[1]
    assert abs(p[0]) <= 1e-15 and abs(p[1] - 1.0) <= 1e-15
    assert abs(p[2] - math.sqrt(3.0)) <= 1e-15


def test_disc_boundary_lies_on_both_quadrics():
    for variant in ("d1", "d2"):
        spec = WarpedDiscSpec(variant, 1.3, 2.7)
        a2, b2 = spec.a**2, spec.b**2
        s = np.array([2.0 * math.pi * k / 257 for k in range(257)])
        x, y, z = _circle(spec, s)[0].T
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
        assert r1.rounded == ALPHA1_D1_SIGN
        assert r2.rounded == ALPHA2_D2_SIGN
        assert abs(r1.value - r1.rounded) <= 0.01
        assert abs(r2.value - r2.rounded) <= 0.01


def test_linking_stable_under_mesh_refinement():
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    coarse = gauss_linking(loop, tube.disc, 512, 512)
    fine = gauss_linking(loop, tube.disc, 1024, 1024)
    circle_only = gauss_linking(loop, tube.disc, 512, 1024)
    assert abs(coarse.value - fine.value) <= 5e-3
    assert coarse.rounded == fine.rounded == circle_only.rounded
    assert isinstance(coarse, LinkingResult)


def test_linking_rejects_tiny_segment_counts():
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    with pytest.raises(ValueError):
        gauss_linking(loop, tube.disc, 255, 512)
    with pytest.raises(ValueError):
        gauss_linking(loop, tube.disc, 512, 100)


def midpoint_linking(pts1, tan1, h1, pts2, tan2, h2):
    """The midpoint-rule Gauss integral over all sample pairs of two
    curves with cell widths h1 and h2: the oracle of the linking tests."""
    return _pair_sum(pts1, tan1, pts2, tan2)[0] * h1 * h2 / (4.0 * math.pi)


def unit_circle(n: int, center, plane_z: float):
    s = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    pts = np.stack(
        [center[0] + np.cos(s), center[1] + np.sin(s), np.full(n, plane_z)], axis=-1
    )
    tan = np.stack([-np.sin(s), np.cos(s), np.zeros(n)], axis=-1)
    return pts, tan, 2.0 * math.pi / n


def test_unlinked_circles_have_linking_zero():
    p1, t1, h1 = unit_circle(512, (0.0, 0.0), 0.0)
    p2, t2, h2 = unit_circle(512, (10.0, 0.0), 5.0)
    value = midpoint_linking(p1, t1, h1, p2, t2, h2)
    assert abs(value) <= 0.01


def test_hopf_circles_link_once():
    # textbook sanity fixture: unit circle in the plane vs a loop threading it
    p1, t1, h1 = unit_circle(512, (0.0, 0.0), 0.0)
    s = (np.arange(512) + 0.5) * (2.0 * math.pi / 512)
    p2 = np.stack([1.0 + np.cos(s), np.zeros(512), np.sin(s)], axis=-1)
    t2 = np.stack([-np.sin(s), np.zeros(512), np.cos(s)], axis=-1)
    value = midpoint_linking(p1, t1, h1, p2, t2, h1)
    assert abs(abs(value) - 1.0) <= 0.01


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
            assert abs(midpoint_linking(*args) - broadcast_double_sum(*args)) <= 1e-12


def test_linking_sum_memory_is_bounded_by_the_tile(monkeypatch):
    # the bound sits far below one 64-row broadcast temporary of this grid (96 MiB)
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", "1")
    p1, t1, h1 = unit_circle(256, (0.0, 0.0), 0.0)
    p2, t2, h2 = unit_circle(65536, (10.0, 0.0), 5.0)
    tracemalloc.start()
    try:
        value = midpoint_linking(p1, t1, h1, p2, t2, h2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value) <= 0.01
    assert peak <= 16 * 2**20


def test_linking_raises_when_the_loop_overflows():
    # m0 is finite at this scale, but the loop's phi1 ~ rho^2 overflows
    tube = make_tube(1.0, 1e154, "d1")
    with pytest.raises(DegenerateGeometryError):
        gauss_linking(BoundaryLoop("alpha1", tube.m), tube.disc, 256, 256)


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
    n = 4096
    for a, b in [(1.0, 2.0), (0.5, 3.0)]:
        for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
            tube = make_tube(a, b, disc_variant)
            loop = BoundaryLoop(loop_variant, tube.m)
            h1 = loop.t_max / n
            t = (np.arange(n) + 0.5) * h1
            midpoint = midpoint_linking(
                _loop_points(loop, t),
                reference_loop_tangents(loop, t),
                h1,
                *_circle_samples(tube.disc, n),
                2.0 * math.pi / n,
            )
            result = gauss_linking(loop, tube.disc, n, n)
            assert abs(result.value - midpoint) <= 1e-4
            assert result.loop_segments == n
            assert result.arc_segments == math.ceil(n * (math.pi / 2) / loop.t_max)


def test_circle_through_a_leg_raises_degenerate_error(monkeypatch):
    # a unit circle in the plane z = 5 whose middle sample lies on the z-axis,
    # which is the first leg of alpha1; no loop midpoint lies near it
    def circle_through_axis(spec, n):
        s = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        c, sn = np.cos(s), np.sin(s)
        pts = np.stack([c - c[n // 2], sn - sn[n // 2], np.full(n, 5.0)], axis=-1)
        return pts, np.stack([-sn, c, np.zeros(n)], axis=-1)

    monkeypatch.setattr(topology, "_circle_samples", circle_through_axis)
    tube = make_tube(1.0, 2.0, "d1")
    with pytest.raises(DegenerateGeometryError):
        gauss_linking(BoundaryLoop("alpha1", tube.m), tube.disc, 512, 512)


def test_circle_through_the_arc_raises_degenerate_error(monkeypatch):
    # a unit circle in a plane z = const whose middle sample is the middle
    # arc midpoint of alpha1 at (1, 2), made as gauss_linking makes it; every
    # sample stays at least 1e-3 from both legs, so only the arc trips the guard
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    n = 512
    arc_segments = math.ceil(n * HALF_PI / loop.t_max)
    h_arc = HALF_PI / arc_segments
    theta = (arc_segments // 2 + 0.5) * h_arc
    arc_point = np.stack(_phi_terms(tube.m, *_trig_vec(np.array([HALF_PI - theta]))), axis=-1)[0]

    def circle_through_arc(spec, n):
        s = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        c, sn = np.cos(s), np.sin(s)
        x, y, z = arc_point
        pts = np.stack([c - c[n // 2] + x, sn - sn[n // 2] + y, np.full(n, z)], axis=-1)
        return pts, np.stack([-sn, c, np.zeros(n)], axis=-1)

    pts = circle_through_arc(tube.disc, n)[0]
    assert pts[n // 2].tolist() == arc_point.tolist()
    # the legs run along the z- and x-axes, so their distances are at least
    # those to the axes
    x, y, z = pts.T
    assert min(np.min(np.hypot(x, y)), np.min(np.hypot(y, z))) >= 1e-3
    monkeypatch.setattr(topology, "_circle_samples", circle_through_arc)
    with pytest.raises(DegenerateGeometryError, match="pass within"):
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
            _, [arc], _, legs = record_linking(monkeypatch, loop, tube.disc, 4096, 4096)
            corners = [arc[:, 0].tolist(), arc[:, -1].tolist()]
            origin, x_end, z_end = [0.0, 0.0, 0.0], [tube.m, 0.0, 0.0], [0.0, 0.0, tube.m]
            ends = [z_end, x_end] if loop_variant == "alpha1" else [x_end, z_end]
            assert corners == ends
            assert legs == [(origin, ends[0]), (ends[1], origin)]
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
    # the arc at rho = m has no finite points; at B = 1e153 it still has.
    # At both scales the arc is one sample, at theta = pi/4, and the pair
    # sum runs at unit scale, so only a non-finite arc point ends the sum.
    for variant, disc in (("alpha1", "d1"), ("alpha2", "d2")):
        tube = make_tube(1.0, 1.7e153, disc)
        with pytest.raises(DegenerateGeometryError, match="not finite"):
            gauss_linking(BoundaryLoop(variant, tube.m), tube.disc, 256, 256)
        tube = make_tube(1.0, 1e153, disc)
        result = gauss_linking(BoundaryLoop(variant, tube.m), tube.disc, 256, 256)
        assert abs(result.value - result.rounded) <= 0.01


MATCHED = (("alpha1", "d1", ALPHA1_D1_SIGN), ("alpha2", "d2", ALPHA2_D2_SIGN))


def arc_inputs(monkeypatch, a, b, n):
    """The arguments gauss_linking passes _pair_sum for the arc of each
    matched pair at (a, b), n segments each way."""
    seen = []
    for loop_variant, disc_variant, _ in MATCHED:
        tube = make_tube(a, b, disc_variant)
        seen += record_linking(monkeypatch, BoundaryLoop(loop_variant, tube.m), tube.disc, n, n)[2]
    return seen


def record_linking(monkeypatch, loop, disc, loop_segments, circle_segments):
    """gauss_linking's result, the arrays its phi evaluations return, the
    arguments it passes _pair_sum and the ends it passes _leg_integrals."""
    phis, pairs, legs = [], [], []

    def recording_phi_terms(*args):
        out = _phi_terms(*args)
        phis.append(np.array(out))
        return out

    def recording_pair_sum(*args):
        pairs.append(tuple(v.copy() for v in args))
        return _pair_sum(*args)

    def recording_leg_integrals(p0, p1, *args):
        legs.append((p0.tolist(), p1.tolist()))
        return _leg_integrals(p0, p1, *args)

    with monkeypatch.context() as patch:
        patch.setattr(topology, "_phi_terms", recording_phi_terms)
        patch.setattr(topology, "_pair_sum", recording_pair_sum)
        patch.setattr(topology, "_leg_integrals", recording_leg_integrals)
        result = gauss_linking(loop, disc, loop_segments, circle_segments)
    return result, phis, pairs, legs


@pytest.mark.parametrize("b", [1e15, 1.2e15])
def test_linking_arc_midpoint_stays_on_the_arc_at_large_scales(b, monkeypatch):
    # the loop parameter m + pi/4 rounds to m + 1 (theta = 1) at B = 1e15,
    # where ulp(m) = 1, and onto t = m, the leg corner, from m = 2^53 (B =
    # 1.2e15). Sampled in its own angle, the one arc sample is phi(m, pi/4),
    # and its one chord runs from corner to corner: phi(m, 0) - phi(m, pi/2)
    # = (m, 0, -m) for alpha1, which runs theta down, and the negation for alpha2.
    tube = make_tube(1.0, b, "d1")
    assert math.ulp(tube.m) >= 1.0
    arcs = arc_inputs(monkeypatch, 1.0, b, 4096)
    m = tube.m
    chords = {"alpha1": [m, 0.0, -m], "alpha2": [-m, 0.0, m]}
    for (pts, chord, _, _), (loop_variant, _, _) in zip(arcs, MATCHED):
        assert pts.shape == chord.shape == (1, 3)
        on_arc = np.stack(_phi_terms(m, *_trig_vec(np.array([math.pi / 4]))), axis=-1)
        assert pts[0].tolist() == pytest.approx(on_arc[0].tolist(), rel=1e-15)
        assert chord[0].tolist() == chords[loop_variant]


@pytest.mark.parametrize("arc_segments", [25, 41, 50, 173])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 2.0)])
def test_linking_arc_chords_end_on_the_leg_corners(a, b, arc_segments, monkeypatch):
    # the arc is one phi evaluation on linspace's 2n + 1 angles: the odd
    # ones are the midpoints (k + 1/2) (pi/2 / n) bit for bit, and the end
    # edges are exactly 0 and pi/2, where k * (pi/2 / n) misses pi/2 at n =
    # 25, 41 and 50, so the chord polyline starts and ends exactly on the
    # axes, the legs run from and to those ends, and the sampled loop
    # closes; 173 is certify's arc at (1, 2) and 4096 segments
    misses = (np.arange(arc_segments + 1) * (HALF_PI / arc_segments))[-1] != HALF_PI
    assert misses == (arc_segments != 173)
    for loop_variant, disc_variant, _ in MATCHED:
        tube = make_tube(a, b, disc_variant)
        loop = BoundaryLoop(loop_variant, tube.m)
        sizes = range(MIN_SEGMENTS, 1 << 16)
        n = next(n for n in sizes if math.ceil(n * HALF_PI / loop.t_max) == arc_segments)
        result, phis, pairs, legs = record_linking(monkeypatch, loop, tube.disc, n, MIN_SEGMENTS)
        assert result.arc_segments == arc_segments
        [arc] = phis
        assert arc.shape == (3, 2 * arc_segments + 1)
        theta = (np.arange(arc_segments) + 0.5) * (HALF_PI / arc_segments)
        if loop_variant == "alpha1":
            theta = HALF_PI - theta
        midpoints = np.array(_phi_terms(loop.m, *_trig_vec(theta)))
        assert arc[:, 1::2].tobytes() == midpoints.tobytes()
        vertices = arc[:, ::2].T
        origin, x_end, z_end = [0.0, 0.0, 0.0], [loop.m, 0.0, 0.0], [0.0, 0.0, loop.m]
        first, last = (z_end, x_end) if loop_variant == "alpha1" else (x_end, z_end)
        assert vertices[0].tolist() == first and vertices[-1].tolist() == last
        assert legs == [(origin, first), (last, origin)]
        [(pts, chords, _, _)] = pairs
        assert pts.tobytes() == midpoints.T.tobytes()
        assert chords.tolist() == np.diff(vertices, axis=0).tolist()


def test_pair_sum_runs_at_unit_scale(monkeypatch):
    # det(p1 - p2, t1, t2) / |p1 - p2|^3 does not change when points and
    # tangents scale together; summed at unit scale, scaled inputs give the
    # same total bit for bit, where at 2^400 the cubed distances overflow
    for a, b in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]:
        for args in arc_inputs(monkeypatch, a, b, 4096):
            total, closest = _pair_sum(*args)
            for k in (-300, 300, 400):
                scaled = _pair_sum(*(np.ldexp(v, k) for v in args))
                assert scaled == (total, math.ldexp(closest, k)), (a, b, k)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (1.3, 2.7)])
def test_linking_sums_are_the_same_bits_on_either_sample_layout(a, b, monkeypatch):
    # the program passes coordinate-major samples, transposes of 3 x n
    # arrays, which BLAS reads through a transposed operand; the tests pass
    # row-major ones. Both give the same bits.
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

    for args in arc_inputs(monkeypatch, a, b, 4096):
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
    # distances overflowed with a RuntimeWarning before the sum was scaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loop_variant, disc_variant, sign in MATCHED:
            tube = make_tube(1.0, 1e153, disc_variant)
            result = gauss_linking(BoundaryLoop(loop_variant, tube.m), tube.disc, 256, 256)
            assert result.rounded == sign
            assert abs(result.value - result.rounded) <= 0.01
