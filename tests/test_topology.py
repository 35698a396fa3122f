"""Tests for discs, tubes, loops, and the two numerical certificates.

The linking quadrature is checked against itself at doubled resolution
(the standard mesh-refinement oracle) and against hand-built unlinked and
degenerate fixtures; the certified signs are frozen regression constants.
"""

from __future__ import annotations

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import quadrant_atlas.topology as topology
from quadrant_atlas.maps import (
    HALF_PI,
    _phi_rho,
    _phi_terms,
    _phi_theta,
    _trig_vec,
    eval_h,
)
from quadrant_atlas.topology import (
    ALPHA1_D1_SIGN,
    ALPHA2_D2_SIGN,
    BoundaryLoop,
    DegenerateGeometryError,
    LinkingResult,
    WarpedDiscSpec,
    _circle,
    _circle_samples,
    _in_tube,
    _leg_integrals,
    _linking_double_sum,
    _loop_corners,
    _loop_points,
    _pair_sum,
    gauss_linking,
    make_tube,
    transversality_scan,
)


def loop_at(loop, t):
    """Loop points at an ascending list of parameters, as triples."""
    return [tuple(p) for p in _loop_points(loop, np.asarray(t, dtype=float)).tolist()]


def inside(points, tube):
    """Which of the n x 3 points lie in the tube's open cylinder."""
    return _in_tube(np.asarray(points, dtype=float), tube)[1]


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
            args = (_loop_points(loop, t), reference_loop_tangents(loop, t), h1)
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


def reference_loop_tangents(loop, t):
    rho, theta, seg = reference_loop_params(loop, t)
    d_rho = np.stack(_phi_rho(rho, *_trig_vec(theta)), axis=-1)
    safe_theta = np.clip(theta, 1e-300, HALF_PI * (1.0 - 1e-16))
    d_theta = np.stack(_phi_theta(rho, *_trig_vec(safe_theta)), axis=-1)
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
    cases = list(reference_cases())
    reports = [transversality_scan(loop, tube, 100_000) for tube, loop in cases]
    monkeypatch.setattr(topology, "_loop_points", reference_loop_points)
    for (tube, loop), report in zip(cases, reports):
        assert report == transversality_scan(loop, tube, 100_000), loop


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
    with np.errstate(all="ignore"):
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

    def recording_pair_sum(*args):
        seen.append(tuple(v.copy() for v in args))
        return _pair_sum(*args)

    with monkeypatch.context() as patch:
        patch.setattr(topology, "_pair_sum", recording_pair_sum)
        for loop_variant, disc_variant, _ in MATCHED:
            tube = make_tube(a, b, disc_variant)
            gauss_linking(BoundaryLoop(loop_variant, tube.m), tube.disc, n, n)
    return seen


@pytest.mark.parametrize("b", [1e15, 1.2e15])
def test_linking_arc_midpoint_stays_on_the_arc_at_large_scales(b, monkeypatch):
    # the loop parameter m + pi/4 rounds to m + 1 (theta = 1) at B = 1e15,
    # where ulp(m) = 1, and onto t = m, the leg corner, from m = 2^53 (B =
    # 1.2e15). Sampled in its own angle, the one arc sample is phi(m, pi/4).
    tube = make_tube(1.0, b, "d1")
    assert math.ulp(tube.m) >= 1.0
    arcs = arc_inputs(monkeypatch, 1.0, b, 4096)
    for (pts, tan, _, _), (loop_variant, _, _) in zip(arcs, MATCHED):
        assert pts.shape == tan.shape == (1, 3)
        trig = _trig_vec(np.array([math.pi / 4]))
        on_arc = np.stack(_phi_terms(tube.m, *trig), axis=-1)
        assert pts[0].tolist() == pytest.approx(on_arc[0].tolist(), rel=1e-15)
        sign = -1.0 if loop_variant == "alpha1" else 1.0
        d_theta = np.stack(_phi_theta(tube.m, *trig), axis=-1)
        assert tan[0].tolist() == pytest.approx((sign * d_theta[0]).tolist(), rel=1e-15)


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
