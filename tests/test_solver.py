"""Tests for the level-curve preimage solver.

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
from fractions import Fraction

import numpy as np
import pytest

from quadrant_atlas.maps import HALF_PI, _phi_terms, _psi_terms, eval_g, eval_h
from quadrant_atlas.polynomial import build_f2, build_theorem_map, evaluate_exact, evaluate_float
import quadrant_atlas.solver as solver
from quadrant_atlas.solver import (
    PreimageQuery,
    PreimageResult,
    SolverConfig,
    SolverFailure,
    preimage,
    _curve_point,
    _curve_samples,
    _level_curve,
    _level_seeds,
    _polish,
    _sqrt,
)
from quadrant_atlas.topology import TubeSpec, _in_tube, make_tube

F_MAP = build_theorem_map()
F2_MAP = build_f2()

# the two preimage-edge targets: one coordinate near 1e-7
EDGE_TARGETS = [(1.0, 2.225531455441776e-07), (4.308878459422807e-08, 0.01)]

def trig(theta: float) -> tuple[float, float, float]:
    """(cos, sin, sqrt(cos sin)) of an angle inside the open strip, in math."""
    c, s = math.cos(theta), math.sin(theta)
    return c, s, math.sqrt(c * s)


def objective(p) -> tuple[float, float]:
    """The surface objective F = h . phi at one strip point, on floats."""
    return eval_h(_phi_terms(p[0], *trig(p[1])))


def psi(p) -> tuple[float, float]:
    """psi at one point of the open strip, on floats."""
    return _psi_terms(p[0], math.cos(p[1]), math.sin(p[1]))


def exact_residual(x: float, y: float, a: float, b: float) -> float:
    """The relative sup-norm residual of the expanded map at (x, y), in
    exact rationals."""
    fx, fy, fa, fb = Fraction(x), Fraction(y), Fraction(a), Fraction(b)
    da = abs(evaluate_exact(F_MAP.component1, fx, fy) - fa)
    db = abs(evaluate_exact(F_MAP.component2, fx, fy) - fb)
    return float(max(da, db) / max(fa, fb, Fraction(1)))


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


# The level curve c2 = b over u, and the seeds on it.

EPS = 2.0**-52


def c2_exact(u: float, v: float) -> Fraction:
    return evaluate_exact(F2_MAP.component2, Fraction(u), Fraction(v))


def test_level_curve_branches_satisfy_c2_equals_b_exactly():
    # c2 - b = A v^2 - 2 pq v + (q^2 - b), in exact rationals, stays within
    # a few ulps of the size of its terms: each branch value is an exact
    # root of a quadratic whose coefficients moved by a few ulps
    rng = random.Random(12)
    checked = 0
    while checked < 2000:
        u, b = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-6, 6)
        d, *branches = _level_curve(u, b, _sqrt)
        if d < 0.0:
            continue
        for v in branches:
            if v < 0.0:
                continue
            fu, fv, fb = Fraction(u), Fraction(v), Fraction(b)
            p, q = fu**3 + fu, fu + 1
            size = (p * p + fu**3) * fv * fv + 2 * p * q * fv + q * q + fb
            assert abs(c2_exact(u, v) - fb) <= 16 * Fraction(EPS) * size, (u, b, v)
            checked += 1


def test_level_curve_has_at_most_two_folds():
    # D / u^2 = b u^4 - u^3 + 2 (b - 1) u^2 + (b - 1) u + b: its coefficient
    # signs change twice for every b > 0, so by Descartes' rule D has at
    # most two positive roots, and the scan sees D change sign at most twice
    rng = random.Random(13)
    for _ in range(200):
        u, b = Fraction(10.0 ** rng.uniform(-6, 6)), Fraction(10.0 ** rng.uniform(-6, 6))
        p, q = u**3 + u, u + 1
        d = b * (p * p + u**3) - u**3 * q * q
        assert d == u * u * (b * u**4 - u**3 + 2 * (b - 1) * u**2 + (b - 1) * u + b)
    for b in [10.0**k for k in range(-9, 10)] + [1.0 - 1e-9, 1.0 + 1e-9]:
        coeffs = [b, -1.0, 2.0 * (b - 1.0), b - 1.0, b]
        signs = [c > 0.0 for c in coeffs if c != 0.0]
        assert sum(s != t for s, t in zip(signs, signs[1:])) <= 2, b
        u = np.logspace(-40.0, 40.0, solver.SCAN_POINTS)
        has_curve = _curve_samples(u, PreimageQuery(1.0, b))[1] >= 0.0
        assert np.count_nonzero(has_curve[:-1] != has_curve[1:]) <= 2, b


@pytest.mark.parametrize(
    "target, cfg",
    [
        (EDGE_TARGETS[0], {}),
        ((241.0, 52.0), {}),
        ((1e60, 1e60), {}),
        ((0.001, 1000.0), {"SCAN_POINTS": 64}),
    ],
)
def test_lockstep_lanes_match_the_one_seed_loop_bit_for_bit(target, cfg, monkeypatch):
    # the scan runs the bisections' + - * / and sqrt on arrays, one lane
    # per u in lockstep; each lane, c1 - a and v, must equal the one-point
    # float path: the near-tangency seeds read v from the arrays.
    # cfg: the solver constants to set for this case
    for name, value in cfg.items():
        monkeypatch.setattr(solver, name, value)
    q = PreimageQuery(*target)
    u = np.logspace(-40.0, 40.0, solver.SCAN_POINTS)[::7]
    f, _, v = _curve_samples(u, q)
    for branch in (0, 1):
        points = [_curve_point(x, branch, q) for x in u.tolist()]
        for k, lane in enumerate((f[branch], v[branch])):
            got = [x.hex() for x in lane.tolist()]
            want = [p[k].hex() for p in points]
            assert got == want, (target, branch, k)


# The first seed is a bracketed root on the level curve, c2 = b to rounding
# and c1 = a: its surface point g(u, v) lies over the target.


def first_surface_root(q: PreimageQuery) -> tuple[float, float, float]:
    """The surface point g(u, v) of the first level-curve seed."""
    u, v = next(_level_seeds(q))
    assert u > 0.0 and v > 0.0, (q, u, v)
    return eval_g((u, v))


def test_solve_surface_unit_target():
    fa, fb = eval_h(first_surface_root(PreimageQuery(1.0, 1.0)))
    assert max(abs(fa - 1.0), abs(fb - 1.0)) <= 1e-9


def test_solve_surface_assorted_targets():
    for a, b in [(241.0, 52.0), (0.001, 1000.0), (7.0, 0.3)]:
        fa, fb = eval_h(first_surface_root(PreimageQuery(a, b)))
        assert max(abs(fa - a), abs(fb - b)) <= 1e-9 * max(a, b, 1.0), (a, b)


# psi lifts strip points into the quadrant.


def test_lift_frozen_points():
    u, v = psi((0.0, math.pi / 4))
    assert abs(u - 1.0) <= 1e-12 and abs(v - 1.0) <= 1e-12
    u, v = psi((1.0, math.pi / 4))
    assert abs(v - (1.0 + math.sqrt(2.0) / 4.0)) <= 1e-12


def test_lift_intertwines_the_two_objectives():
    # f2 after psi equals h after phi: the roots of the outer factor are
    # the surface points over the target
    rng = random.Random(8)
    for _ in range(500):
        p = (5.0 * rng.random(), 0.01 + (HALF_PI - 0.02) * rng.random())
        u, v = psi(p)
        fa = evaluate_float(F2_MAP.component1, u, v)
        fb = evaluate_float(F2_MAP.component2, u, v)
        ga, gb = objective(p)
        assert abs(fa - ga) <= 1e-9 * max(1.0, abs(ga))
        assert abs(fb - gb) <= 1e-9 * max(1.0, abs(gb))


# The polish on the outer factor.


def test_refine_direct_fixed_point():
    got, r, iters = _polish((1.0, 1.0), PreimageQuery(1.0, 1.0), 1e-9)
    assert got == (1.0, 1.0) and r == 0.0 and iters == 0


def test_refine_direct_polishes_a_nearby_seed():
    (u, v), r, _ = _polish((1.05, 1.02), PreimageQuery(1.0, 1.0), 1e-9)
    assert r <= 1e-9
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
    # the outer factor overflows at every seed for this target, so no
    # polish converges and no point is graded
    with pytest.raises(SolverFailure) as info:
        preimage(PreimageQuery(1e300, 1e300), SolverConfig())
    assert str(info.value) == (
        "no preimage found for target (1e+300, 1e+300); no polished point was found"
    )
    assert info.value.best_residual == math.inf
    assert info.value.best_point == (0.0, 0.0)


def test_surface_root_lands_inside_the_shrunk_tube():
    # the crossing the transversality certificate promises is realized by
    # the solver's witness: its surface point g(x^2, y^2) sits well inside
    # the tube even after shrinking the cylinder margin tenfold
    for a_r, b_r in [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]:
        for variant, target in (("d1", (a_r**2, b_r**2)), ("d2", (b_r**2, a_r**2))):
            tube = make_tube(a_r, b_r, variant)
            shrunk = TubeSpec(
                disc=tube.disc, epsilon=tube.epsilon / 10.0, m0=tube.m0, m=tube.m
            )
            r = preimage(PreimageQuery(*target))
            p = eval_g((r.x * r.x, r.y * r.y))
            assert _in_tube(np.array([p]), shrunk)[1][0], (a_r, b_r, variant, r, p)


def test_query_and_config_reject_non_finite_values():
    for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            PreimageQuery(a, b)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=tol)


# Frozen from the level-curve solver: target (a, b), witness (x, y), all
# as float.hex, then seed_index, newton_iters. Decade and round-trip
# targets (random.Random(60), x, y in (0, 5)), targets of assorted scale,
# one of the wide set (random.Random(7)) far out along the a-axis, the two
# edge targets and (1e60, 1e60).
FROZEN_RESULTS = [
    ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.2187fa147285ep+0", "0x1.a96db54e3696fp-1", 0, 0),
    ("0x1.f400000000000p+9", "0x1.47ae147ae147bp-7", "0x1.b27c84a896edap-5", "0x1.3a2c4f68fcab9p+4", 0, 0),
    ("0x1.0624dd2f1a9fcp-10", "0x1.f400000000000p+9", "0x1.4763d6cc7daecp+5", "0x1.3c168f3d04b48p-11", 0, 0),
    ("0x1.9000000000000p+6", "0x1.999999999999ap-4", "0x1.60fbe8705f0a0p-3", "0x1.a097cc603f1afp+2", 0, 0),
    ("0x1.482d919b482bbp+15", "0x1.0c072e95ba8bdp+14", "0x1.89fe1e0d58eb0p+0", "0x1.71e49e5c54b8ep+1", 0, 0),
    ("0x1.f12a900177596p+17", "0x1.cef3e6deead4cp+13", "0x1.53fdb7c4be822p+0", "0x1.0286d833571c8p+2", 0, 0),
    ("0x1.eac2541e9d32ap+13", "0x1.9bf08cc8c38aap+17", "0x1.2b04de96d2300p+1", "0x1.a9a0171c0c0fap+0", 0, 0),
    ("0x1.ed33acdb9fa6ap+26", "0x1.e731c1f031036p+33", "0x1.1ef5f901a59e4p+2", "0x1.fb24c7c99ea8bp+1", 0, 0),
    ("0x1.1c27e9016bfb1p+25", "0x1.24902c6024bedp+32", "0x1.13138dcbb0068p+2", "0x1.aa1eec249c828p+1", 0, 0),
    ("0x1.d82ab1cc709cep+6", "0x1.7d1d44302099cp+4", "0x1.dac6f1f14b408p-1", "0x1.f31bc7076e2e1p+0", 0, 0),
    ("0x1.999999999999ap-4", "0x1.999999999999ap-4", "0x1.c1711442efc8fp+1", "0x1.5940dfa53951cp-4", 0, 0),
    ("0x1.999999999999ap-5", "0x1.999999999999ap-5", "0x1.3045cc6a67383p+2", "0x1.7254161364005p-5", 0, 0),
    ("0x1.fa6f54f3b6b9ap+28", "0x1.0726e4c8a3259p-21", "0x1.6807953edbd3bp-13", "0x1.6c2eb5eaddca4p+12", 0, 0),
    ("0x1.0000000000000p+0", "0x1.ddede2babe3d2p-23", "0x1.eeabcd5521c26p-12", "0x1.08f7d10dbd10ap+11", 0, 0),
    ("0x1.72213d47c1d92p-25", "0x1.47ae147ae147bp-7", "0x1.2d1752bb90d9fp+12", "0x1.72213a4a818d0p-25", 0, 0),
    ("0x1.3e9e4e4c2f344p+199", "0x1.3e9e4e4c2f344p+199", "0x1.f4000346dc02bp+9", "0x1.e847f66666840p+19", 0, 0),
]


@pytest.mark.parametrize("row", FROZEN_RESULTS, ids=lambda row: f"{row[0]},{row[1]}")
def test_preimage_frozen_results(row):
    a, b, x, y, seed_index, iters = row
    r = preimage(PreimageQuery(float.fromhex(a), float.fromhex(b)), SolverConfig())
    assert (r.x.hex(), r.y.hex(), r.seed_index, r.newton_iters) == (
        float.fromhex(x).hex(),
        float.fromhex(y).hex(),
        seed_index,
        iters,
    )


def reference_official_residual(x: float, y: float, q: PreimageQuery) -> Fraction:
    """The exact gate as it was written on Fractions: the reference for
    solver._official_residual, which works in integers."""
    f = build_theorem_map()
    fx, fy, a, b = Fraction(x), Fraction(y), Fraction(q.a), Fraction(q.b)
    fa = evaluate_exact(f.component1, fx, fy)
    fb = evaluate_exact(f.component2, fx, fy)
    return max(abs(fa - a), abs(fb - b)) / max(a, b, Fraction(1))


def test_integer_gate_equals_the_fraction_gate():
    rng = random.Random(14)

    def draw() -> float:
        return 10 ** rng.uniform(-9, 9)

    cases = [(draw(), draw(), draw(), draw()) for _ in range(300)]
    cases += [(0.0, 0.0, 1.0, 1.0), (0.0, draw(), draw(), draw()), (draw(), 0.0, draw(), draw())]
    # witnesses of (1e30, 1e-30) and (1e150, 1e150), with the targets as points too
    cases += [
        (5.850151888936027e-09, 32199203.910492368, 1e30, 1e-30),
        (1e30, 1e-30, 1e30, 1e-30),
        (31622776.601683795, 999999999999999.6, 1e150, 1e150),
        (1e150, 1e150, 1e150, 1e150),
    ]
    cases += [tuple(float.fromhex(t) for t in (x, y, a, b)) for a, b, x, y, *_ in FROZEN_RESULTS]
    for x, y, a, b in cases:
        q = PreimageQuery(a, b)
        assert solver._official_residual(x, y, q) == reference_official_residual(x, y, q), (x, y, a, b)


def test_direct_stage_survives_a_vanishing_damped_determinant():
    # from seed (1e-4, 100) at target (1e60, 1e60) the first step clamps u
    # to 0, the Gram matrix grows by about 1e145 and its damped determinant,
    # with the ridge of the first step, cancels to exactly 0; dividing by
    # it raised ZeroDivisionError; the step is rejected instead
    _, r, _ = _polish((1e-4, 100.0), PreimageQuery(1e60, 1e60), 1e-9)
    assert not r <= 1e-9
    r = preimage(PreimageQuery(1e30, 1.0), SolverConfig())
    assert r.residual <= 1e-9


def test_edge_targets_are_solved():
    # each root lies next to a fold of the level curve, where the float
    # residual of the outer factor rounds near the tolerance; the exact
    # gate accepts the witness
    for a, b in EDGE_TARGETS:
        r = preimage(PreimageQuery(a, b), SolverConfig())
        assert r.residual <= 1e-9
        assert exact_residual(r.x, r.y, a, b) == r.residual


def test_stalled_polish_from_the_level_curve_is_graded():
    # at these roots the float residual of the outer factor rounds above
    # the tolerance, so the polish from the winning seed stalls; graded in
    # exact rationals, its witness passes
    for a, b in [(1.0, 8.328591873190005e-08), (7.234364434620563, 1.3495890612116638e-08)]:
        q = PreimageQuery(a, b)
        r = preimage(q, SolverConfig())
        assert r.residual == exact_residual(r.x, r.y, a, b) <= 1e-9
        seed = list(_level_seeds(q))[r.seed_index]
        _, stalled_at, _ = _polish(seed, q, 1e-9)
        assert stalled_at > 1e-9


def test_residual_is_exact_where_the_float_expansion_cancels():
    # at the first edge target's witness the expanded map in floats is off
    # by about 1e-3; the reported residual is the exact one
    a, b = EDGE_TARGETS[0]
    r = preimage(PreimageQuery(a, b), SolverConfig())
    assert forward_residual(r.x, r.y, a, b) > 1e-6
    assert r.residual == exact_residual(r.x, r.y, a, b) <= 1e-9


def test_preimage_raises_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in EDGE_TARGETS + [(1.0, 1.0), (241.0, 52.0), (1000.0, 0.01), (1e150, 1e150)]:
            assert preimage(PreimageQuery(a, b), SolverConfig()).residual <= 1e-9
        with pytest.raises(SolverFailure):
            preimage(PreimageQuery(1e300, 1e300), SolverConfig())


# Targets where the gate, which scales by max(a, b, 1), passes points that
# miss the small coordinate by 1e12 relative or more: a point mapping to
# (1e30, 0.93) passes for (1e30, 1e-30), one mapping to (0.58, 6.58e11)
# for the first hard target. The level curve yields no passing point for
# them, so the solver reports a failure, not such a point.
GATE_ONLY_TARGETS = [
    (1e30, 1e-30),
    (1e-30, 1e30),
    (1.7432717858700207e-14, 657960868301.8638),
    (7.098979925513692e-14, 20533116334.778038),
    (2183442107.162487, 1.8293979751669146e-14),
    (1.7397616297941639e-15, 40853906813.250145),
    (3.455285877736244e-15, 791583249.3964957),
    (641058722311.6287, 4.9645583116514865e-15),
    (4.0646958449499786e-14, 36419100463.98103),
]


@pytest.mark.parametrize("target", GATE_ONLY_TARGETS, ids=lambda t: f"{t[0]!r},{t[1]!r}")
def test_gate_only_targets_are_reported_as_failures(target):
    with pytest.raises(SolverFailure) as info:
        preimage(PreimageQuery(*target), SolverConfig())
    assert math.isfinite(info.value.best_residual), target


def test_edge_target_preimage_memory_is_bounded():
    # the level-curve scan holds a few arrays of SCAN_POINTS doubles; the
    # traced peak is near 0.5 MB
    tracemalloc.start()
    try:
        preimage(PreimageQuery(*EDGE_TARGETS[1]), SolverConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


# The 300 wide targets: log-uniform on [1e-9, 1e9]^2 from random.Random(7).
_WIDE_RNG = random.Random(7)
WIDE_TARGETS = [(10 ** _WIDE_RNG.uniform(-9, 9), 10 ** _WIDE_RNG.uniform(-9, 9)) for _ in range(300)]
# near-tangencies: the level curves c1 = a and c2 = b nearly touch, and
# c1 - a grazes zero along c2 = b without a sign change
TANGENCY_TARGETS = [
    (4.129174849420961e-4, 3.090986881173021e-4),
    (1.1879525155621027e-4, 2.2899859188419337e-5),
]


def test_wide_targets_are_solved():
    solved = {}
    for a, b in WIDE_TARGETS:
        try:
            r = preimage(PreimageQuery(a, b), SolverConfig())
        except SolverFailure:
            continue
        assert exact_residual(r.x, r.y, a, b) <= 1e-9, (a, b)
        solved[a, b] = r
    assert len(solved) >= 289, len(solved)
    assert all(t in solved for t in TANGENCY_TARGETS)


def test_edge_draws_are_solved():
    # the preimage-edge distribution: 150 rounds of (10^U(-7.5, -6.5), 1e-2)
    # then (1.0, 10^U(-7.5, -6.5)) from random.Random(0); at some (1.0, b)
    # every fold root misses the gate and a near-tangency seed, taken at
    # its sample, wins
    rng = random.Random(0)
    targets = []
    for _ in range(150):
        targets.append((10.0 ** rng.uniform(-7.5, -6.5), 1e-2))
        targets.append((1.0, 10.0 ** rng.uniform(-7.5, -6.5)))
    for a, b in targets:
        r = preimage(PreimageQuery(a, b), SolverConfig())
        assert exact_residual(r.x, r.y, a, b) <= 1e-9, (a, b)
