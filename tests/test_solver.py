"""Tests for the two-stage preimage solver.

The acceptance oracle throughout is forward evaluation: a result is right
exactly when pushing it through the exact polynomial map reproduces the
target within the relative tolerance.
"""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
import warnings

import pytest

from quadrant_atlas.maps import HALF_PI, eval_psi, jacobian_F, objective_F
from quadrant_atlas.polynomial import build_f2, build_theorem_map, evaluate_float
import quadrant_atlas.solver as solver
from quadrant_atlas.solver import (
    DELTA_THETA,
    PreimageQuery,
    PreimageResult,
    SolverConfig,
    SolverFailure,
    preimage,
    _newton_direct,
    _newton_lanes,
    _seed_lattice,
    _surface_runs,
    _theta_grid,
)
from quadrant_atlas.topology import BoundaryLoop, TubeSpec, make_tube, tube_membership

F_MAP = build_theorem_map()
F2_MAP = build_f2()

# the smallest solver budget: one Newton step of one halving from a 2 x 2
# seed lattice
CRIPPLED = {"MAX_NEWTON_ITERS": 1, "GRID_RHO": 2, "GRID_THETA": 2, "MAX_BACKTRACKS": 1}


def cripple(monkeypatch):
    for name, value in CRIPPLED.items():
        monkeypatch.setattr(solver, name, value)


def surface_runs(q: PreimageQuery) -> list:
    """(converged, point, residual, iterations) of every surface seed."""
    return list(_surface_runs(q, SolverConfig(), *_seed_lattice(q)))


def first_surface_root(q: PreimageQuery):
    """The root the surface stage hands on first: its first converged lane."""
    return next(p for ok, p, _, _ in _surface_runs(q, SolverConfig(), *_seed_lattice(q)) if ok)


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
        SolverConfig(residual_tol=-1e-9)
    # the tolerance is the one setting; the budgets are module constants
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["residual_tol"]


# The surface stage hands on its first converged lane, in seed order.


def test_solve_surface_unit_target():
    rho, theta = first_surface_root(PreimageQuery(1.0, 1.0))
    fa, fb = objective_F((rho, theta))
    assert max(abs(fa - 1.0), abs(fb - 1.0)) <= 1e-9


def test_solve_surface_assorted_targets():
    for a, b in [(241.0, 52.0), (0.001, 1000.0), (7.0, 0.3)]:
        rho, theta = first_surface_root(PreimageQuery(a, b))
        assert rho >= 0.0 and 0.0 < theta < HALF_PI
        fa, fb = objective_F((rho, theta))
        assert max(abs(fa - a), abs(fb - b)) <= 1e-9 * max(a, b, 1.0)


def test_solve_surface_reports_failure_with_crippled_budget(monkeypatch):
    cripple(monkeypatch)
    runs = surface_runs(PreimageQuery(0.001, 1000.0))
    assert len(runs) == 4
    assert not any(ok for ok, _, _, _ in runs)
    assert min(r for _, _, r, _ in runs) > 0.0


# The lift into the quadrant is psi.


def test_lift_frozen_points():
    u, v = eval_psi((0.0, math.pi / 4))
    assert abs(u - 1.0) <= 1e-12 and abs(v - 1.0) <= 1e-12
    u, v = eval_psi((1.0, math.pi / 4))
    assert abs(v - (1.0 + math.sqrt(2.0) / 4.0)) <= 1e-12


def test_lift_never_sees_an_edge_angle():
    # psi needs theta strictly inside (0, pi/2); the seed angles and the
    # clamp on every Newton iterate keep surface roots DELTA_THETA inside
    lo, hi = DELTA_THETA, HALF_PI - DELTA_THETA
    for n in (2, 3, 64, 65, 128):
        assert all(lo <= t <= hi for t in _theta_grid(n)), n
    q = PreimageQuery(*EDGE_TARGETS[0])
    rho, theta, m = _seed_lattice(q)
    _, _, theta1, _, _ = _newton_lanes(rho[::8], theta[::8], q.a, q.b, m, SolverConfig())
    assert theta1.min() == lo and theta1.max() <= hi


def test_lift_intertwines_the_two_objectives():
    # f2 after psi equals h after phi, so the lift carries surface roots
    # to direct-stage seeds with matching values
    rng = random.Random(8)
    for _ in range(500):
        p = (5.0 * rng.random(), 0.01 + (HALF_PI - 0.02) * rng.random())
        u, v = eval_psi(p)
        fa = evaluate_float(F2_MAP.component1, u, v)
        fb = evaluate_float(F2_MAP.component2, u, v)
        ga, gb = objective_F(p)
        assert abs(fa - ga) <= 1e-9 * max(1.0, abs(ga))
        assert abs(fb - gb) <= 1e-9 * max(1.0, abs(gb))


# The direct polish on the outer factor.


def test_refine_direct_fixed_point():
    ok, got, r, iters = _newton_direct((1.0, 1.0), PreimageQuery(1.0, 1.0), SolverConfig())
    assert ok and got == (1.0, 1.0) and r == 0.0 and iters == 0


def test_refine_direct_polishes_a_nearby_seed():
    ok, (u, v), _, _ = _newton_direct((1.05, 1.02), PreimageQuery(1.0, 1.0), SolverConfig())
    assert ok
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


def test_preimage_failure_propagates(monkeypatch):
    cripple(monkeypatch)
    with pytest.raises(SolverFailure):
        preimage(PreimageQuery(0.001, 1000.0), SolverConfig())


def test_surface_root_lands_inside_the_shrunk_tube():
    # the crossing the transversality certificate promises is realized by
    # the solver root: its surface point sits well inside the tube even
    # after shrinking the cylinder margin tenfold
    from quadrant_atlas.maps import eval_phi

    for a_r, b_r in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]:
        for variant, target in (("d1", (a_r**2, b_r**2)), ("d2", (b_r**2, a_r**2))):
            tube = make_tube(a_r, b_r, variant)
            shrunk = TubeSpec(
                disc=tube.disc, epsilon=tube.epsilon / 10.0, m0=tube.m0, m=tube.m
            )
            root = first_surface_root(PreimageQuery(*target))
            p = eval_phi(root)
            assert tube_membership(p, shrunk), (a_r, b_r, variant, root, p)


def test_query_and_config_reject_non_finite_values():
    for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            PreimageQuery(a, b)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=tol)


# ---------------------------------------------------------------------------
# The lockstep surface kernel.

EDGE_TARGETS = [(1.0, 2.225531455441776e-07), (4.308878459422807e-08, 0.01)]


def _scalar_newton_surface(seed, a, b, m):
    """The one-seed damped Newton loop the lockstep lanes must reproduce."""
    scale, tol = max(a, b, 1.0), SolverConfig().residual_tol

    def residual(p):
        fa, fb = objective_F(p)
        return max(abs(fa - a), abs(fb - b)) / scale

    p = seed
    r = residual(p)
    for iters in range(1, solver.MAX_NEWTON_ITERS + 1):
        if r <= tol:
            return True, p, r, iters - 1
        jac = jacobian_F(p)
        det = jac.d1_drho * jac.d2_dtheta - jac.d1_dtheta * jac.d2_drho
        if det == 0.0 or not math.isfinite(det):
            return False, p, r, iters - 1
        fa, fb = objective_F(p)
        ra, rb = fa - a, fb - b
        step_rho = (jac.d2_dtheta * ra - jac.d1_dtheta * rb) / det
        step_theta = (-jac.d2_drho * ra + jac.d1_drho * rb) / det
        tau = 1.0
        for _ in range(solver.MAX_BACKTRACKS):
            cand = (
                min(max(p[0] - tau * step_rho, 0.0), m),
                min(max(p[1] - tau * step_theta, DELTA_THETA), HALF_PI - DELTA_THETA),
            )
            rc = residual(cand)
            if rc < r:
                p, r = cand, rc
                break
            tau *= 0.5
        else:
            return False, p, r, iters
    return r <= tol, p, r, solver.MAX_NEWTON_ITERS


def _bits(v):
    return v.hex() if isinstance(v, float) else v


@pytest.mark.parametrize(
    "target, cfg",
    [
        (EDGE_TARGETS[0], {}),
        ((0.001, 1000.0), {}),
        (
            (float.fromhex("0x1.eac2541e9d32ap+13"), float.fromhex("0x1.9bf08cc8c38aap+17")),
            {},
        ),
        ((0.001, 1000.0), CRIPPLED),
    ],
)
def test_lockstep_lanes_match_the_one_seed_loop_bit_for_bit(target, cfg, monkeypatch):
    # cfg: the solver constants to set for this case
    for name, value in cfg.items():
        monkeypatch.setattr(solver, name, value)
    q = PreimageQuery(*target)
    rho, theta, m = _seed_lattice(q)
    pick = slice(None, None, max(1, rho.size // 1000))
    rho, theta = rho[pick][:1000], theta[pick][:1000]
    ok, rho1, theta1, r, iters = _newton_lanes(rho, theta, q.a, q.b, m, SolverConfig())
    lanes = list(zip(ok.tolist(), rho1.tolist(), theta1.tolist(), r.tolist(), iters.tolist()))
    want = []
    for seed in zip(rho.tolist(), theta.tolist()):
        ok1, (rho1, theta1), r1, it1 = _scalar_newton_surface(seed, q.a, q.b, m)
        want.append((ok1, rho1, theta1, r1, it1))
    assert [tuple(map(_bits, lane)) for lane in lanes] == [tuple(map(_bits, w)) for w in want]


# Frozen from the one-seed-at-a-time solver: target (a, b), witness (x, y),
# all as float.hex, then stage, seed_index, newton_iters. Four decade
# targets, six round-trip targets (random.Random(60), x, y in (0, 5)), two
# whose winning seed lies in the fifth and sixth lockstep block, and one
# target of the log-uniform set (random.Random(7)) that only the direct
# lattice solves.
FROZEN_RESULTS = [
    ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.000276c8cd9bfp+0", "0x1.fff89bbc4d48dp-1", "surface-seeded", 0, 28),
    ("0x1.f400000000000p+9", "0x1.47ae147ae147bp-7", "0x1.b27c84b88f1fap-5", "0x1.3a2c4f5e44c41p+4", "surface-seeded", 0, 5),
    ("0x1.0624dd2f1a9fcp-10", "0x1.f400000000000p+9", "0x1.4763c0c0b9fbap+5", "0x1.3c16ba3703c9dp-11", "surface-seeded", 94, 67),
    ("0x1.9000000000000p+6", "0x1.999999999999ap-4", "0x1.60fbe8705f0a7p-3", "0x1.a097cc603f1aap+2", "surface-seeded", 0, 6),
    ("0x1.482d919b482bbp+15", "0x1.0c072e95ba8bdp+14", "0x1.89fe1e0d58eaap+0", "0x1.71e49e5c54b9dp+1", "surface-seeded", 1, 9),
    ("0x1.f12a900177596p+17", "0x1.cef3e6deead4cp+13", "0x1.53fdb7c4a0cf7p+0", "0x1.0286d8338ca47p+2", "surface-seeded", 71, 6),
    ("0x1.eac2541e9d32ap+13", "0x1.9bf08cc8c38aap+17", "0x1.2b04de96d18edp+1", "0x1.a9a0171c0eab9p+0", "surface-seeded", 79, 10),
    ("0x1.ed33acdb9fa6ap+26", "0x1.e731c1f031036p+33", "0x1.1ef5f8efbaf61p+2", "0x1.fb24c8286ee14p+1", "surface-seeded", 65, 10),
    ("0x1.1c27e9016bfb1p+25", "0x1.24902c6024bedp+32", "0x1.13138dc0b6201p+2", "0x1.aa1eec578161fp+1", "surface-seeded", 65, 12),
    ("0x1.d82ab1cc709cep+6", "0x1.7d1d44302099cp+4", "0x1.dac6f1f1210e1p-1", "0x1.f31bc707ab9afp+0", "surface-seeded", 0, 76),
    ("0x1.999999999999ap-4", "0x1.999999999999ap-4", "0x1.c171144305674p+1", "0x1.5940dfa51c70bp-4", "surface-seeded", 318, 6),
    ("0x1.999999999999ap-5", "0x1.999999999999ap-5", "0x1.3045cc6b3cd73p+2", "0x1.725416119f966p-5", "surface-seeded", 510, 6),
    ("0x1.fa6f54f3b6b9ap+28", "0x1.0726e4c8a3259p-21", "0x1.802ef1addd01ep-9", "0x1.63cccbff4c040p+7", "direct-fallback", 0, 5),
]


@pytest.mark.parametrize("row", FROZEN_RESULTS, ids=lambda row: f"{row[0]},{row[1]}")
def test_preimage_frozen_results(row):
    a, b, x, y, stage, seed_index, iters = row
    r = preimage(PreimageQuery(float.fromhex(a), float.fromhex(b)), SolverConfig())
    assert (r.x.hex(), r.y.hex(), r.stage, r.seed_index, r.newton_iters) == (
        float.fromhex(x).hex(),
        float.fromhex(y).hex(),
        stage,
        seed_index,
        iters,
    )


def test_direct_stage_survives_a_vanishing_damped_determinant():
    # from seed (1e-4, 100) at target (1e60, 1e60) the first step clamps u
    # to 0, the Gram matrix grows by about 1e145 and its damped determinant,
    # with the ridge of the first step, cancels to exactly 0; dividing by
    # it raised ZeroDivisionError out of preimage
    with pytest.raises(SolverFailure):
        preimage(PreimageQuery(1e60, 1e60), SolverConfig())
    r = preimage(PreimageQuery(1e30, 1.0), SolverConfig())
    assert r.residual <= 1e-9


def test_edge_target_failures_are_frozen():
    a, b = EDGE_TARGETS[0]
    with pytest.raises(SolverFailure) as info:
        preimage(PreimageQuery(a, b), SolverConfig())
    assert str(info.value) == (
        "no preimage found for target (1.0, 2.225531455441776e-07); "
        "no polished point was found"
    )
    assert info.value.best_residual == math.inf
    assert info.value.best_point == (0.0, 0.0)
    # no surface seed converges; the least residual, first in seed order,
    # sits on the angle clamp
    runs = surface_runs(PreimageQuery(a, b))
    assert not any(ok for ok, _, _, _ in runs)
    _, point, r, _ = min(runs, key=lambda run: run[2] if math.isfinite(run[2]) else math.inf)
    assert r == 7.774518544386032e-07
    assert point == (0.999995111897917, 1e-06)


def test_preimage_raises_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in EDGE_TARGETS:
            with pytest.raises(SolverFailure):
                preimage(PreimageQuery(a, b), SolverConfig())
        for a, b in [(1.0, 1.0), (241.0, 52.0), (1000.0, 0.01)]:
            assert preimage(PreimageQuery(a, b), SolverConfig()).residual <= 1e-9


def test_edge_target_preimage_memory_is_bounded():
    # the seed blocks are capped at 2^13 lanes x backtracks elements, which
    # keeps the peak near 1.3 MB; blocks left to double through the
    # 7168-seed edge lattice peak near 13 MB
    tracemalloc.start()
    try:
        with pytest.raises(SolverFailure):
            preimage(PreimageQuery(*EDGE_TARGETS[1]), SolverConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak
