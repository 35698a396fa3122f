"""Tests for the closed-form surface and parameter maps.

The formula bodies are checked as the program runs them: phi on numpy
arrays with angles through _trig_vec, g and h through their scalar entry
points, psi on floats with math's cos and sin. Frozen values come from
direct hand substitution; the tests' reference theta-partial of phi is
checked against a central finite-difference oracle computed here.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from quadrant_atlas.maps import (
    HALF_PI,
    _mu_terms,
    _phi_terms,
    _psi_terms,
    _trig_vec,
    _xi_terms,
    _zeta_terms,
    eval_g,
    eval_h,
)
from quadrant_atlas.polynomial import build_f2, evaluate_float
from test_topology import phi_theta


def phi(rho, theta):
    """phi at strip points, rho and theta floats or arrays."""
    return _phi_terms(rho, *_trig_vec(np.asarray(theta, dtype=float)))


def psi(p):
    """psi at one point of the open strip, on floats."""
    return _psi_terms(p[0], math.cos(p[1]), math.sin(p[1]))


def objective(rho, theta):
    """The surface objective F = h . phi."""
    return eval_h(phi(rho, theta))


def test_g_frozen_points():
    assert eval_g((0.0, 0.0)) == (-1.0, 0.0, -1.0)
    gx = eval_g((1.0, 1.0))
    assert max(abs(gx[0]), abs(gx[1] - 1.0), abs(gx[2])) <= 1e-15
    assert eval_g((4.0, 1.0)) == (18.0, 8.0, 63.0)


def test_g_rejects_negative_first_coordinate():
    with pytest.raises(ValueError):
        eval_g((-0.5, 1.0))


def test_h_frozen_points():
    assert eval_h((0.0, 0.0, 0.0)) == (0.0, 0.0)
    assert eval_h((1.0, 2.0, 3.0)) == (5.0, 13.0)


def test_h_after_g_matches_outer_factor_at_unit_point():
    f2 = build_f2()
    got = eval_h(eval_g((1.0, 1.0)))
    assert abs(got[0] - evaluate_float(f2.component1, 1.0, 1.0)) <= 1e-12
    assert abs(got[1] - evaluate_float(f2.component2, 1.0, 1.0)) <= 1e-12


def test_psi_frozen_points():
    u, v = psi((0.0, math.pi / 4))
    assert abs(u - 1.0) <= 1e-12 and abs(v - 1.0) <= 1e-12
    u, v = psi((1.0, math.pi / 4))
    assert abs(u - 1.0) <= 1e-12
    assert abs(v - (1.0 + math.sqrt(2.0) / 4.0)) <= 1e-12


def test_psi_stays_in_closed_quadrant():
    rng = random.Random(11)
    for _ in range(10_000):
        rho = 10.0 * rng.random()
        theta = 0.01 + (HALF_PI - 0.02) * rng.random()
        u, v = psi((rho, theta))
        assert u > 0.0 and v > 0.0


def test_phi_edge_collapse_is_exact():
    t = np.arange(101.0)
    for theta, axis in ((HALF_PI, 2), (0.0, 0)):
        want = np.zeros((t.size, 3))
        want[:, axis] = t
        assert np.array_equal(np.stack(phi(t, np.full(t.size, theta)), axis=-1), want)


def test_phi_center_of_glued_edge():
    p = phi(0.0, math.pi / 4)
    assert abs(p[0]) <= 1e-12
    assert abs(p[1] - 1.0) <= 1e-12
    assert abs(p[2]) <= 1e-12


def test_phi_zero_rho_symmetry():
    theta = np.array([HALF_PI if i == 1000 else HALF_PI * i / 1000 for i in range(1001)])
    a = np.stack(phi(0.0, theta), axis=-1)
    b = np.stack(phi(0.0, HALF_PI - theta), axis=-1)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_phi_lower_bound_on_first_and_third():
    rng = random.Random(3)
    rho, theta = np.array([(100.0 * rng.random(), HALF_PI * rng.random()) for _ in range(10_000)]).T
    p1, _, p3 = phi(rho, theta)
    assert np.all(p1 * p1 + p3 * p3 >= rho * rho / 4.0 - 1e-12 * np.maximum(1.0, rho * rho))


def test_g_after_psi_equals_phi():
    rng = random.Random(17)
    points = [(10.0 * rng.random(), 0.01 + (HALF_PI - 0.02) * rng.random()) for _ in range(10_000)]
    rhs = np.stack(phi(*np.array(points).T), axis=-1).tolist()
    for p, want in zip(points, rhs):
        for a, b in zip(eval_g(psi(p)), want):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_f2_equals_h_after_g():
    rng = random.Random(5)
    f2 = build_f2()
    for _ in range(10_000):
        u = 20.0 * rng.random()
        v = 20.0 * rng.random()
        got = eval_h(eval_g((u, v)))
        want = (
            evaluate_float(f2.component1, u, v),
            evaluate_float(f2.component2, u, v),
        )
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_xi_frozen_values():
    # the height is a function of y alone
    assert _xi_terms(0.0, 2.0) == 2.0
    assert _xi_terms(2.5, 2.0) == 0.0
    assert _xi_terms(-2.0, 2.0) == 0.0
    assert abs(_xi_terms(1.0, 2.0) - math.sqrt(3.0)) <= 1e-15


def test_zeta_frozen_and_flattening():
    b = 2.0
    assert _zeta_terms(0.0, 0.0, 5.0, b) == (0.0, 0.0, 3.0)
    # a d2 point (x, y, z) is flattened as (z, y, x)
    assert _zeta_terms(*(5.0, 0.0, 0.0)[::-1], b) == (0.0, 0.0, 3.0)
    rng = random.Random(23)
    # a random point of each warped graph must land on the flat disc
    x, y, z = np.array([[2.0 * rng.random() - 1.0 for _ in range(3)] for _ in range(1000)]).T
    q = _zeta_terms(x, y, _xi_terms(y, b), b)
    assert np.all(q[2] == 0.0) and np.array_equal(q[0], x) and np.array_equal(q[1], y)
    q = _zeta_terms(z, y, _xi_terms(y, b), b)
    assert np.all(q[2] == 0.0) and np.array_equal(q[0], z) and np.array_equal(q[1], y)


def test_mu_values_and_symmetry():
    assert _mu_terms(math.pi / 4) == 0.0
    assert _mu_terms(0.0) == 1.0
    assert _mu_terms(HALF_PI) == 1.0
    theta = np.array([HALF_PI if i == 99 else HALF_PI * i / 99 for i in range(100)])
    assert np.max(np.abs(_mu_terms(theta) - _mu_terms(HALF_PI - theta))) <= 1e-15


def test_objective_frozen_points():
    fa, fb = objective(0.0, math.pi / 4)
    assert abs(fa - 1.0) <= 1e-12 and abs(fb - 1.0) <= 1e-12
    for t in (0.0, 1.5, 7.0):
        assert objective(t, HALF_PI) == (0.0, t * t)


def test_jacobian_matches_central_differences():
    # d phi / d theta, the reference loop tangents of the topology tests
    rng = random.Random(71)
    h = 1e-6
    samples = [(0.1 + 2.9 * rng.random(), 0.05 + (HALF_PI - 0.1) * rng.random()) for _ in range(1000)]
    rho, theta = np.array(samples).T
    jac = phi_theta(rho, *_trig_vec(theta))
    fpt = phi(rho, theta + h)
    fmt = phi(rho, theta - h)
    num = [(p - m) / (2 * h) for p, m in zip(fpt, fmt)]
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(jac, num))
    assert worst <= 1e-5


def test_scalar_and_array_kernels_agree_bit_for_bit():
    # one body per formula: the bodies on floats, as the solver calls them,
    # and on the arrays of the sweeps must round identically
    from quadrant_atlas.maps import _g_terms

    rng = random.Random(91)
    n = 10_000
    rho = [100.0 * rng.random() for _ in range(n)]
    # the next n - 200 draws of this stream are not used here
    for _ in range(n - 200):
        rng.random()

    inner = np.array([0.01 + (HALF_PI - 0.02) * rng.random() for _ in range(n)])
    trig = _trig_vec(inner)
    got_psi = np.stack(_psi_terms(np.array(rho), trig[0], trig[1]), axis=-1).tolist()
    for k in range(n):
        assert tuple(got_psi[k]) == psi((rho[k], float(inner[k]))), k

    x = np.array([20.0 * rng.random() for _ in range(n)])
    y = np.array([40.0 * rng.random() - 20.0 for _ in range(n)])
    got_g = np.stack(_g_terms(x, y, np.sqrt(x)), axis=-1).tolist()
    for k in range(n):
        assert tuple(got_g[k]) == eval_g((float(x[k]), float(y[k]))), k


def test_outer_factor_jacobian_matches_exact_partials():
    # the polish's Jacobian, the chain rule over the partials of g,
    # against the partials of the expanded outer factor in exact rationals;
    # the error is bounded relative to the same partial with every
    # coefficient made positive, the size of the terms that cancel
    from fractions import Fraction

    from quadrant_atlas.maps import _dg_terms, _h_chain
    from quadrant_atlas.polynomial import SparsePolynomial, evaluate_exact

    def partials(p, absolute):
        out = []
        for axis in (0, 1):
            terms = {}
            for t in p.terms:
                e, c = t.exponents, t.coefficient
                if e[axis]:
                    d = (e[0] - 1, e[1]) if axis == 0 else (e[0], e[1] - 1)
                    terms[d] = e[axis] * (abs(c) if absolute else c)
            out.append(SparsePolynomial(terms))
        return out

    f2 = build_f2()
    exact = partials(f2.component1, False) + partials(f2.component2, False)
    sizes = partials(f2.component1, True) + partials(f2.component2, True)
    rng = random.Random(33)
    for _ in range(2000):
        u, v = 20.0 * rng.random(), 20.0 * rng.random()
        got = _h_chain(eval_g((u, v)), *_dg_terms(u, v, math.sqrt(u)))
        fu, fv = Fraction(u), Fraction(v)
        for k in range(4):
            err = abs(Fraction(got[k]) - evaluate_exact(exact[k], fu, fv))
            assert err <= Fraction(1e-13) * evaluate_exact(sizes[k], fu, fv), (u, v, k)
