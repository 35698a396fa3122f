"""Tests for discs, tubes, loops, and the two numerical certificates.

The linking quadrature is checked against itself at doubled resolution
(the standard mesh-refinement oracle) and against hand-built unlinked and
degenerate fixtures; the certified signs are frozen regression constants.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

import quadrant_atlas.topology as topology
from quadrant_atlas.maps import eval_h
from quadrant_atlas.topology import (
    ALPHA1_D1_SIGN,
    ALPHA2_D2_SIGN,
    BoundaryLoop,
    DegenerateGeometryError,
    LinkingResult,
    WarpedDiscSpec,
    _circle_samples,
    _leg_integrals,
    _linking_double_sum,
    _loop_corners,
    _loop_points,
    _loop_tangents,
    disc_boundary,
    eval_loop,
    gauss_linking,
    make_tube,
    transversality_scan,
    tube_membership,
)


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
    assert disc_boundary(d1, 0.0) == (1.0, 0.0, 2.0)
    p = disc_boundary(d1, math.pi / 2)
    assert abs(p[0]) <= 1e-15 and abs(p[1] - 1.0) <= 1e-15
    assert abs(p[2] - math.sqrt(3.0)) <= 1e-15


def test_disc_boundary_lies_on_both_quadrics():
    for variant in ("d1", "d2"):
        spec = WarpedDiscSpec(variant, 1.3, 2.7)
        a2, b2 = spec.a**2, spec.b**2
        for k in range(257):
            x, y, z = disc_boundary(spec, 2.0 * math.pi * k / 257)
            if variant == "d1":
                assert abs(x * x + y * y - a2) <= 1e-12
                assert abs(y * y + z * z - b2) <= 1e-12
                assert max(abs(u - v) for u, v in zip(eval_h((x, y, z)), (a2, b2))) <= 1e-12
            else:
                assert abs(y * y + z * z - a2) <= 1e-12
                assert abs(x * x + y * y - b2) <= 1e-12


def test_loop_runs_along_the_axes_first():
    m = make_tube(1.0, 2.0, "d1").m
    a1 = BoundaryLoop("alpha1", m)
    a2 = BoundaryLoop("alpha2", m)
    for k in range(11):
        t = m * k / 10
        assert eval_loop(a1, t) == (0.0, 0.0, t)
        assert eval_loop(a2, t) == (t, 0.0, 0.0)


def test_loop_closes_and_is_continuous_at_junctions():
    # the middle segment leaves the strip edges with a sqrt(delta) modulus of
    # continuity, so the junction jump must shrink like sqrt of the probe step
    m = make_tube(1.0, 2.0, "d1").m
    for variant in ("alpha1", "alpha2"):
        loop = BoundaryLoop(variant, m)
        start = eval_loop(loop, 0.0)
        end = eval_loop(loop, loop.t_max)
        assert max(abs(u - v) for u, v in zip(start, end)) <= 1e-9
        for junction in (m, m + math.pi / 2):
            at = eval_loop(loop, junction)
            for delta in (1e-4, 1e-6, 1e-8):
                bound = 1.5 * math.sqrt(delta) + 2.0 * (1.0 + m) ** 2 * delta
                for probe in (junction - delta, junction + delta):
                    q = eval_loop(loop, probe)
                    assert max(abs(u - v) for u, v in zip(at, q)) <= bound


def test_loop_rejects_out_of_range_parameter():
    loop = BoundaryLoop("alpha1", 10.0)
    with pytest.raises(ValueError):
        eval_loop(loop, -0.1)
    with pytest.raises(ValueError):
        eval_loop(loop, loop.t_max + 0.1)


def test_tube_membership_frozen_points():
    tube = make_tube(1.0, 2.0, "d1")
    b, eps = 2.0, tube.epsilon
    assert tube_membership((0.0, 0.0, b), tube)
    assert not tube_membership((0.0, 0.0, b + 2 * eps), tube)


def test_far_points_are_outside_the_tube():
    rng = random.Random(29)
    for variant in ("d1", "d2"):
        tube = make_tube(1.0, 2.0, variant)
        floor = math.sqrt(2.0) * tube.m0
        for _ in range(100):
            v = np.array([rng.gauss(0, 1) for _ in range(3)])
            v *= (floor + 0.01 + 10 * rng.random()) / np.linalg.norm(v)
            assert not tube_membership((v[0], v[1], v[2]), tube)


def test_middle_segment_stays_far_from_origin():
    # points with rho = m obey the norm >= rho/2 = 2*m0 lower bound
    tube = make_tube(1.0, 2.0, "d1")
    loop = BoundaryLoop("alpha1", tube.m)
    for k in range(200):
        t = tube.m + (math.pi / 2) * (k + 1) / 200
        p = eval_loop(loop, t)
        assert math.sqrt(sum(c * c for c in p)) >= 2.0 * tube.m0 * (1 - 1e-12)
        assert not tube_membership(p, tube)


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


def test_transversality_mismatched_pair_is_informational():
    tube = make_tube(1.0, 2.0, "d2")
    loop = BoundaryLoop("alpha1", tube.m)
    report = transversality_scan(loop, tube, 2000)
    assert isinstance(report.ok, bool)


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
    value = _linking_double_sum(p1, t1, h1, p2, t2, h2)
    assert abs(value) <= 0.01


def test_coincident_curves_raise_degenerate_error():
    p, t, h = unit_circle(512, (0.0, 0.0), 0.0)
    with pytest.raises(DegenerateGeometryError):
        _linking_double_sum(p, t, h, p.copy(), t.copy(), h)


def test_hopf_circles_link_once():
    # textbook sanity fixture: unit circle in the plane vs a loop threading it
    p1, t1, h1 = unit_circle(512, (0.0, 0.0), 0.0)
    s = (np.arange(512) + 0.5) * (2.0 * math.pi / 512)
    p2 = np.stack([1.0 + np.cos(s), np.zeros(512), np.sin(s)], axis=-1)
    t2 = np.stack([-np.sin(s), np.zeros(512), np.cos(s)], axis=-1)
    value = _linking_double_sum(p1, t1, h1, p2, t2, h1)
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
            args = (_loop_points(loop, t), _loop_tangents(loop, t), h1)
            args += (*_circle_samples(tube.disc, n), 2.0 * math.pi / n)
            assert abs(_linking_double_sum(*args) - broadcast_double_sum(*args)) <= 1e-12


def test_linking_sum_memory_is_bounded_by_the_tile(monkeypatch):
    # the bound sits far below one 64-row broadcast temporary of this grid (96 MiB)
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", "1")
    p1, t1, h1 = unit_circle(256, (0.0, 0.0), 0.0)
    p2, t2, h2 = unit_circle(65536, (10.0, 0.0), 5.0)
    tracemalloc.start()
    try:
        value = _linking_double_sum(p1, t1, h1, p2, t2, h2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value) <= 0.01
    assert peak <= 16 * 2**20


def test_linking_raises_when_the_loop_overflows():
    # m0 is finite at this scale, but the loop's phi1 ~ rho^2 overflows
    tube = make_tube(1.0, 1e154, "d1")
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateGeometryError):
            gauss_linking(BoundaryLoop("alpha1", tube.m), tube.disc, 256, 256)


def test_disc_boundary_matches_the_circle_samples():
    for variant in ("d1", "d2"):
        spec = WarpedDiscSpec(variant, 0.7, 1.9)
        pts, _ = _circle_samples(spec, 256)
        for k in range(256):
            s = (k + 0.5) * (2.0 * math.pi / 256)
            assert disc_boundary(spec, s) == tuple(pts[k].tolist())


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
            midpoint = _linking_double_sum(
                _loop_points(loop, t),
                _loop_tangents(loop, t),
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


def test_leg_corners_lie_exactly_on_the_axes(monkeypatch):
    # p(m + pi/2) evaluated at the rounded parameter lands a few ulps of the
    # angle off the axis (x = -1.3e-9 for alpha2 at (1, 1000)); the legs
    # take their corners from the formula instead
    def rounded_corners(loop):
        return _loop_points(loop, np.array([0.0, loop.m, loop.m + math.pi / 2, loop.t_max]))

    cases = []
    for a, b in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (1.0, 1000.0)]:
        for loop_variant, disc_variant in (("alpha1", "d1"), ("alpha2", "d2")):
            tube = make_tube(a, b, disc_variant)
            loop = BoundaryLoop(loop_variant, tube.m)
            x_end, z_end = [tube.m, 0.0, 0.0], [0.0, 0.0, tube.m]
            legs = (z_end, x_end) if loop_variant == "alpha1" else (x_end, z_end)
            assert _loop_corners(loop).tolist() == [[0.0, 0.0, 0.0], *legs, [0.0, 0.0, 0.0]]
            assert np.max(np.abs(rounded_corners(loop) - _loop_corners(loop))) <= 1e-7
            cases.append((loop, tube.disc, gauss_linking(loop, tube.disc, 4096, 4096).value))
    monkeypatch.setattr(topology, "_loop_corners", rounded_corners)
    for loop, disc, value in cases:
        assert abs(gauss_linking(loop, disc, 4096, 4096).value - value) <= 1e-8
