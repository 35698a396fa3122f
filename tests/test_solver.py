"""Tests for the two-stage preimage solver.

The acceptance oracle throughout is forward evaluation: a result is right
exactly when pushing it through the exact polynomial map reproduces the
target within the relative tolerance.
"""

from __future__ import annotations

import math
import random

import pytest

from quadrant_atlas.maps import HALF_PI, eval_psi, objective_F
from quadrant_atlas.polynomial import build_f2, build_theorem_map, evaluate_float
from quadrant_atlas.solver import (
    PreimageQuery,
    PreimageResult,
    SolverConfig,
    SolverFailure,
    lift_to_quadrant,
    preimage,
    refine_direct,
    solve_surface,
)
from quadrant_atlas.topology import BoundaryLoop, TubeSpec, make_tube, tube_membership

F_MAP = build_theorem_map()
F2_MAP = build_f2()


def forward_residual(x: float, y: float, a: float, b: float) -> float:
    fa = evaluate_float(F_MAP.component1, x, y)
    fb = evaluate_float(F_MAP.component2, x, y)
    return max(abs(fa - a), abs(fb - b)) / max(a, b, 1.0)


def test_query_requires_strictly_positive_target():
    with pytest.raises(ValueError):
        PreimageQuery(0.0, 1.0)
    with pytest.raises(ValueError):
        PreimageQuery(1.0, -2.0)


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid_rho=0)


def test_solve_surface_unit_target():
    cfg = SolverConfig()
    rho, theta = solve_surface(PreimageQuery(1.0, 1.0), cfg)
    fa, fb = objective_F((rho, theta))
    assert max(abs(fa - 1.0), abs(fb - 1.0)) <= 1e-9


def test_solve_surface_assorted_targets():
    cfg = SolverConfig()
    for a, b in [(241.0, 52.0), (0.001, 1000.0), (7.0, 0.3)]:
        rho, theta = solve_surface(PreimageQuery(a, b), cfg)
        assert rho >= 0.0 and 0.0 < theta < HALF_PI
        fa, fb = objective_F((rho, theta))
        assert max(abs(fa - a), abs(fb - b)) <= 1e-9 * max(a, b, 1.0)


def test_solve_surface_reports_failure_with_crippled_budget():
    cfg = SolverConfig(max_newton_iters=1, grid_rho=2, grid_theta=2, max_backtracks=1)
    with pytest.raises(SolverFailure) as info:
        solve_surface(PreimageQuery(0.001, 1000.0), cfg)
    assert info.value.best_residual > 0.0


def test_lift_frozen_points():
    u, v = lift_to_quadrant((0.0, math.pi / 4))
    assert abs(u - 1.0) <= 1e-12 and abs(v - 1.0) <= 1e-12
    u, v = lift_to_quadrant((1.0, math.pi / 4))
    assert abs(v - (1.0 + math.sqrt(2.0) / 4.0)) <= 1e-12


def test_lift_rejects_edge_angles():
    for theta in (0.0, 1e-9, HALF_PI - 1e-9, HALF_PI):
        with pytest.raises(ValueError):
            lift_to_quadrant((1.0, theta))


def test_lift_intertwines_the_two_objectives():
    # f2 after psi equals h after phi, so the lift carries surface roots
    # to direct-stage seeds with matching values
    rng = random.Random(8)
    for _ in range(500):
        p = (5.0 * rng.random(), 0.01 + (HALF_PI - 0.02) * rng.random())
        u, v = lift_to_quadrant(p)
        fa = evaluate_float(F2_MAP.component1, u, v)
        fb = evaluate_float(F2_MAP.component2, u, v)
        ga, gb = objective_F(p)
        assert abs(fa - ga) <= 1e-9 * max(1.0, abs(ga))
        assert abs(fb - gb) <= 1e-9 * max(1.0, abs(gb))


def test_refine_direct_fixed_point():
    cfg = SolverConfig()
    got = refine_direct((1.0, 1.0), PreimageQuery(1.0, 1.0), cfg)
    assert got == (1.0, 1.0)


def test_refine_direct_polishes_a_nearby_seed():
    cfg = SolverConfig()
    u, v = refine_direct((1.05, 1.02), PreimageQuery(1.0, 1.0), cfg)
    fa = evaluate_float(F2_MAP.component1, u, v)
    fb = evaluate_float(F2_MAP.component2, u, v)
    assert max(abs(fa - 1.0), abs(fb - 1.0)) <= 1e-9
    assert u >= 0.0 and v >= 0.0


def test_preimage_frozen_targets():
    cfg = SolverConfig()
    for a, b in [(1.0, 1.0), (241.0, 52.0), (1000.0, 0.01)]:
        r = preimage(PreimageQuery(a, b), cfg)
        assert isinstance(r, PreimageResult)
        assert r.residual <= 1e-9
        assert forward_residual(r.x, r.y, a, b) <= 1e-9
        assert r.stage in ("surface-seeded", "direct-fallback")


def test_preimage_decade_targets():
    cfg = SolverConfig()
    for ka in (-2, 0, 2):
        for kb in (-2, 0, 2):
            a, b = 10.0**ka, 10.0**kb
            r = preimage(PreimageQuery(a, b), cfg)
            assert r.residual <= 1e-9, (a, b)


def test_preimage_round_trip_targets():
    rng = random.Random(60)
    cfg = SolverConfig()
    for _ in range(50):
        x, y = 5.0 * rng.random(), 5.0 * rng.random()
        a = evaluate_float(F_MAP.component1, x, y)
        b = evaluate_float(F_MAP.component2, x, y)
        r = preimage(PreimageQuery(a, b), cfg)
        assert r.residual <= 1e-9, (x, y, a, b)


def test_preimage_image_point_is_strictly_inside_quadrant():
    cfg = SolverConfig()
    for a, b in [(0.5, 2.0), (3.0, 3.0)]:
        r = preimage(PreimageQuery(a, b), cfg)
        fa = evaluate_float(F_MAP.component1, r.x, r.y)
        fb = evaluate_float(F_MAP.component2, r.x, r.y)
        assert fa > 0.0 and fb > 0.0


def test_preimage_is_deterministic():
    cfg = SolverConfig()
    q = PreimageQuery(17.0, 0.4)
    assert preimage(q, cfg) == preimage(q, cfg)


def test_preimage_failure_propagates():
    cfg = SolverConfig(max_newton_iters=1, grid_rho=2, grid_theta=2, max_backtracks=1)
    with pytest.raises(SolverFailure):
        preimage(PreimageQuery(0.001, 1000.0), cfg)


def test_surface_root_lands_inside_the_shrunk_tube():
    # the crossing the transversality certificate promises is realized by
    # the solver root: its surface point sits well inside the tube even
    # after shrinking the cylinder margin tenfold
    from quadrant_atlas.maps import eval_phi

    cfg = SolverConfig()
    for a_r, b_r in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]:
        for variant, target in (("d1", (a_r**2, b_r**2)), ("d2", (b_r**2, a_r**2))):
            tube = make_tube(a_r, b_r, variant)
            shrunk = TubeSpec(
                disc=tube.disc, epsilon=tube.epsilon / 10.0, m0=tube.m0, m=tube.m
            )
            root = solve_surface(PreimageQuery(*target), cfg)
            p = eval_phi(root)
            assert tube_membership(p, shrunk), (a_r, b_r, variant, root, p)


def test_query_and_config_reject_non_finite_values():
    for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            PreimageQuery(a, b)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=tol)
