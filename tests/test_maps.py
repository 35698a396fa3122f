"""Tests for the closed-form surface and parameter maps.

Frozen values come from direct hand substitution; the Jacobian is checked
against a central finite-difference oracle computed here in the test.
"""

from __future__ import annotations

import math
import random

import pytest

from quadrant_atlas.maps import (
    HALF_PI,
    eval_g,
    eval_h,
    eval_mu,
    eval_phi,
    eval_psi,
    eval_xi1,
    eval_xi2,
    eval_zeta1,
    eval_zeta2,
    jacobian_F,
    objective_F,
)
from quadrant_atlas.polynomial import build_f2, build_theorem_map, evaluate_float


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
    u, v = eval_psi((0.0, math.pi / 4))
    assert abs(u - 1.0) <= 1e-12 and abs(v - 1.0) <= 1e-12
    u, v = eval_psi((1.0, math.pi / 4))
    assert abs(u - 1.0) <= 1e-12
    assert abs(v - (1.0 + math.sqrt(2.0) / 4.0)) <= 1e-12


def test_psi_stays_in_closed_quadrant():
    rng = random.Random(11)
    for _ in range(10_000):
        rho = 10.0 * rng.random()
        theta = 0.01 + (HALF_PI - 0.02) * rng.random()
        u, v = eval_psi((rho, theta))
        assert u > 0.0 and v > 0.0


def test_psi_rejects_boundary_angles():
    for theta in (0.0, HALF_PI):
        with pytest.raises(ValueError):
            eval_psi((1.0, theta))


def test_phi_edge_collapse_is_exact():
    for i in range(101):
        t = i
        assert eval_phi((t, HALF_PI)) == (0.0, 0.0, float(t))
        assert eval_phi((t, 0.0)) == (float(t), 0.0, 0.0)


def test_phi_center_of_glued_edge():
    p = eval_phi((0.0, math.pi / 4))
    assert abs(p[0]) <= 1e-12
    assert abs(p[1] - 1.0) <= 1e-12
    assert abs(p[2]) <= 1e-12


def test_phi_zero_rho_symmetry():
    for i in range(1001):
        theta = HALF_PI if i == 1000 else HALF_PI * i / 1000
        a = eval_phi((0.0, theta))
        b = eval_phi((0.0, HALF_PI - theta))
        assert max(abs(a[k] - b[k]) for k in range(3)) <= 1e-12


def test_phi_lower_bound_on_first_and_third():
    rng = random.Random(3)
    for _ in range(10_000):
        rho = 100.0 * rng.random()
        theta = HALF_PI * rng.random()
        p1, _, p3 = eval_phi((rho, theta))
        assert p1 * p1 + p3 * p3 >= rho * rho / 4.0 - 1e-12 * max(1.0, rho * rho)


def test_g_after_psi_equals_phi():
    rng = random.Random(17)
    for _ in range(10_000):
        rho = 10.0 * rng.random()
        theta = 0.01 + (HALF_PI - 0.02) * rng.random()
        lhs = eval_g(eval_psi((rho, theta)))
        rhs = eval_phi((rho, theta))
        for a, b in zip(lhs, rhs):
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
    assert eval_xi1(123.0, 0.0, 2.0) == 2.0
    assert eval_xi1(0.0, 2.5, 2.0) == 0.0
    assert eval_xi1(0.0, -2.0, 2.0) == 0.0
    assert abs(eval_xi1(0.7, 1.0, 2.0) - math.sqrt(3.0)) <= 1e-15
    assert abs(eval_xi2(1.0, 0.7, 2.0) - math.sqrt(3.0)) <= 1e-15


def test_zeta_frozen_and_flattening():
    b = 2.0
    assert eval_zeta1((0.0, 0.0, 5.0), b) == (0.0, 0.0, 3.0)
    assert eval_zeta2((5.0, 0.0, 0.0), b) == (0.0, 0.0, 3.0)
    rng = random.Random(23)
    for _ in range(1000):
        # a random point of each warped graph must land on the flat disc
        x = 2.0 * rng.random() - 1.0
        y = 2.0 * rng.random() - 1.0
        q = eval_zeta1((x, y, eval_xi1(x, y, b)), b)
        assert q[2] == 0.0 and q[0] == x and q[1] == y
        z = 2.0 * rng.random() - 1.0
        q = eval_zeta2((eval_xi2(y, z, b), y, z), b)
        assert q[2] == 0.0 and q[0] == z and q[1] == y


def test_mu_values_and_symmetry():
    assert eval_mu(math.pi / 4) == 0.0
    assert eval_mu(0.0) == 1.0
    assert eval_mu(HALF_PI) == 1.0
    for i in range(100):
        theta = HALF_PI if i == 99 else HALF_PI * i / 99
        assert abs(eval_mu(theta) - eval_mu(HALF_PI - theta)) <= 1e-15


def test_mu_rejects_out_of_range():
    with pytest.raises(ValueError):
        eval_mu(-0.1)
    with pytest.raises(ValueError):
        eval_mu(HALF_PI + 0.1)


def test_objective_frozen_points():
    fa, fb = objective_F((0.0, math.pi / 4))
    assert abs(fa - 1.0) <= 1e-12 and abs(fb - 1.0) <= 1e-12
    for t in (0.0, 1.5, 7.0):
        assert objective_F((t, HALF_PI)) == (0.0, t * t)


def test_jacobian_matches_central_differences():
    rng = random.Random(71)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        rho = 0.1 + 2.9 * rng.random()
        theta = 0.05 + (HALF_PI - 0.1) * rng.random()
        jac = jacobian_F((rho, theta))
        fpr = objective_F((rho + h, theta))
        fmr = objective_F((rho - h, theta))
        fpt = objective_F((rho, theta + h))
        fmt = objective_F((rho, theta - h))
        num = (
            (fpr[0] - fmr[0]) / (2 * h),
            (fpt[0] - fmt[0]) / (2 * h),
            (fpr[1] - fmr[1]) / (2 * h),
            (fpt[1] - fmt[1]) / (2 * h),
        )
        worst = max(worst, max(abs(a - b) for a, b in zip(jac, num)))
    assert worst <= 1e-5


def test_jacobian_rejects_boundary_angles():
    for theta in (0.0, HALF_PI):
        with pytest.raises(ValueError):
            jacobian_F((1.0, theta))


def test_scalar_and_array_kernels_agree_bit_for_bit():
    # one body per formula: the float path and the array path must round
    # identically, edges included
    import numpy as np

    from quadrant_atlas.maps import (
        _g_terms,
        _phi_rho,
        _phi_terms,
        _phi_theta,
        _psi_terms,
        _trig,
        _trig_vec,
    )

    rng = random.Random(91)
    n = 10_000
    rho = [100.0 * rng.random() for _ in range(n)]
    theta = [HALF_PI * rng.random() for _ in range(n - 200)] + [0.0, HALF_PI] * 100
    arrays = (np.array(rho), np.array(theta))
    trig = _trig_vec(arrays[1])
    got_phi = np.stack(_phi_terms(arrays[0], *trig), axis=-1).tolist()
    got_rho = np.stack(_phi_rho(arrays[0], *trig), axis=-1).tolist()
    for k in range(n):
        assert tuple(got_phi[k]) == eval_phi((rho[k], theta[k])), k
        assert tuple(got_rho[k]) == _phi_rho(rho[k], *_trig(theta[k])), k

    inner = np.array([0.01 + (HALF_PI - 0.02) * rng.random() for _ in range(n)])
    trig = _trig_vec(inner)
    got_theta = np.stack(_phi_theta(arrays[0], *trig), axis=-1).tolist()
    got_psi = np.stack(_psi_terms(arrays[0], trig[0], trig[1]), axis=-1).tolist()
    for k in range(n):
        point = (rho[k], float(inner[k]))
        assert tuple(got_theta[k]) == _phi_theta(rho[k], *_trig(point[1])), k
        assert tuple(got_psi[k]) == eval_psi(point), k

    x = np.array([20.0 * rng.random() for _ in range(n)])
    y = np.array([40.0 * rng.random() - 20.0 for _ in range(n)])
    got_g = np.stack(_g_terms(x, y, np.sqrt(x)), axis=-1).tolist()
    for k in range(n):
        assert tuple(got_g[k]) == eval_g((float(x[k]), float(y[k]))), k


def test_outer_factor_jacobian_matches_exact_partials():
    # the direct stage's Jacobian, the chain rule over the partials of g,
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
