"""Tests for the exact sparse polynomial layer.

The expected expansions are frozen below and cross-checked against a
deliberately naive dict-convolution oracle implemented in this file,
independent of the package's arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from quadrant_atlas.polynomial import (
    ONE,
    X,
    Y,
    PolyMap2,
    SparsePolynomial,
    add,
    build_f1,
    build_f2,
    build_theorem_map,
    compose,
    evaluate_exact,
    evaluate_float,
    evaluate_map_exact,
    evaluate_map_float,
    mul,
    stats,
    to_text,
    to_triples,
)


# ---------------------------------------------------------------------------
# Naive oracle: dict-of-exponents arithmetic, no canonicalization subtleties.


def oracle_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def oracle_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def oracle_scale(p: dict, k: int) -> dict:
    return {e: k * c for e, c in p.items() if k * c != 0}


def oracle_eval(p: dict, u, v):
    return sum(c * u**a * v**b for (a, b), c in p.items())


# The two map components in raw (unsquared) form, expanded by the oracle only.
def oracle_component_1() -> dict:
    # (x^2 y^4 + x^4 y^2 - y^2 - 1)^2 + x^6 y^4
    inner = {(2, 4): 1, (4, 2): 1, (0, 2): -1, (0, 0): -1}
    return oracle_add(oracle_mul(inner, inner), {(6, 4): 1})


def oracle_component_2() -> dict:
    # (x^6 y^2 + x^2 y^2 - x^2 - 1)^2 + x^6 y^4
    inner = {(6, 2): 1, (2, 2): 1, (2, 0): -1, (0, 0): -1}
    return oracle_add(oracle_mul(inner, inner), {(6, 4): 1})


# Frozen expansions, written out term by term.
COMP1_TERMS = {
    (8, 4): 1,
    (6, 6): 2,
    (4, 8): 1,
    (6, 4): 1,
    (4, 4): -2,
    (2, 6): -2,
    (4, 2): -2,
    (2, 4): -2,
    (0, 4): 1,
    (0, 2): 2,
    (0, 0): 1,
}

COMP2_TERMS = {
    (12, 4): 1,
    (8, 4): 2,
    (8, 2): -2,
    (6, 4): 1,
    (6, 2): -2,
    (4, 4): 1,
    (4, 2): -2,
    (4, 0): 1,
    (2, 2): -2,
    (2, 0): 2,
    (0, 0): 1,
}

COMP1_TEXT = (
    "x^8*y^4 + 2*x^6*y^6 + x^4*y^8 + x^6*y^4 - 2*x^4*y^4 - 2*x^2*y^6"
    " - 2*x^4*y^2 - 2*x^2*y^4 + y^4 + 2*y^2 + 1"
)


def as_dict(p: SparsePolynomial) -> dict:
    return {m.exponents: m.coefficient for m in p.terms}


def random_poly(rng: random.Random, max_terms: int = 6) -> SparsePolynomial:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = (rng.randrange(5), rng.randrange(5))
        terms[e] = terms.get(e, 0) + rng.randrange(-9, 10)
    return SparsePolynomial(terms)


# ---------------------------------------------------------------------------
# Oracle self-checks against the frozen term lists.


def test_oracle_matches_frozen_component_1():
    assert oracle_component_1() == COMP1_TERMS


def test_oracle_matches_frozen_component_2():
    assert oracle_component_2() == COMP2_TERMS


def test_frozen_values_at_1_2():
    assert oracle_eval(COMP1_TERMS, 1, 2) == 241  # 15^2 + 16
    assert oracle_eval(COMP2_TERMS, 1, 2) == 52  # 6^2 + 16


# ---------------------------------------------------------------------------
# Construction of the three maps.


def test_theorem_map_matches_frozen_expansion():
    f = build_theorem_map()
    assert as_dict(f.component1) == COMP1_TERMS
    assert as_dict(f.component2) == COMP2_TERMS


def test_f1_components_are_plain_squares():
    f1 = build_f1()
    assert as_dict(f1.component1) == {(2, 0): 1}
    assert as_dict(f1.component2) == {(0, 2): 1}


def test_f2_against_oracle():
    f2 = build_f2()
    inner1 = {(1, 2): 1, (2, 1): 1, (0, 1): -1, (0, 0): -1}
    want1 = oracle_add(oracle_mul(inner1, inner1), {(3, 2): 1})
    inner2 = {(3, 1): 1, (1, 1): 1, (1, 0): -1, (0, 0): -1}
    want2 = oracle_add(oracle_mul(inner2, inner2), {(3, 2): 1})
    assert as_dict(f2.component1) == want1
    assert as_dict(f2.component2) == want2


def test_composition_factors_the_theorem_map():
    f1, f2, f = build_f1(), build_f2(), build_theorem_map()
    for outer, want in (
        (f2.component1, f.component1),
        (f2.component2, f.component2),
    ):
        got = compose(outer, f1.component1, f1.component2)
        assert got == want
        assert [m.exponents for m in got.terms] == [m.exponents for m in want.terms]
        assert [m.coefficient for m in got.terms] == [m.coefficient for m in want.terms]


def test_map_components_are_nonempty():
    for pm in (build_f1(), build_f2(), build_theorem_map()):
        assert isinstance(pm, PolyMap2)
        assert pm.component1.terms and pm.component2.terms


# ---------------------------------------------------------------------------
# Canonical form.


def grlex_key(e):
    return (-(e[0] + e[1]), -e[0])


def test_terms_sorted_graded_lex():
    for p in (build_theorem_map().component1, build_theorem_map().component2):
        keys = [grlex_key(m.exponents) for m in p.terms]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_canonicalization_idempotent_and_drops_zeros():
    p = SparsePolynomial({(1, 1): 5, (0, 0): 0, (2, 0): -3})
    q = SparsePolynomial({m.exponents: m.coefficient for m in p.terms})
    assert p == q
    assert all(m.coefficient != 0 for m in p.terms)


def test_cancellation_gives_zero_polynomial():
    p = SparsePolynomial({(2, 0): 1})
    z = add(p, SparsePolynomial({(2, 0): -1}))
    assert z.terms == ()
    assert z == SparsePolynomial({})


# ---------------------------------------------------------------------------
# Algebra laws on seeded random supports, checked against the oracle.


def test_arithmetic_matches_oracle_on_random_supports():
    rng = random.Random(2024)
    for _ in range(300):
        p, q = random_poly(rng), random_poly(rng)
        assert as_dict(add(p, q)) == oracle_add(as_dict(p), as_dict(q))
        assert as_dict(mul(p, q)) == oracle_mul(as_dict(p), as_dict(q))


def test_ring_laws():
    rng = random.Random(99)
    for _ in range(120):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert add(p, q) == add(q, p)
        assert mul(p, q) == mul(q, p)
        assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
        assert mul(p, ONE) == p


def test_difference_of_squares():
    assert mul(X + Y, X - Y) == X**2 - Y**2


def test_compose_identity_and_monomial():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng)
        assert compose(p, X, Y) == p
    assert compose(X * Y, X**2, Y**2) == X**2 * Y**2


def test_compose_against_oracle_on_random_inputs():
    rng = random.Random(41)
    for _ in range(40):
        outer, s1, s2 = (random_poly(rng, 4) for _ in range(3))
        got = as_dict(compose(outer, s1, s2))
        acc: dict = {}
        for (a, b), c in as_dict(outer).items():
            term = {(0, 0): c}
            for _ in range(a):
                term = oracle_mul(term, as_dict(s1))
            for _ in range(b):
                term = oracle_mul(term, as_dict(s2))
            acc = oracle_add(acc, term)
        assert got == acc


# ---------------------------------------------------------------------------
# Evaluation.


def test_evaluate_exact_frozen_points():
    f = build_theorem_map()
    assert evaluate_exact(f.component1, 0, 0) == 1
    assert evaluate_exact(f.component1, 1, 2) == 241
    assert evaluate_exact(f.component2, 1, 2) == 52
    assert evaluate_exact(f.component2, Fraction(1), Fraction(1)) == 1


def test_evaluate_exact_rational_inputs():
    f = build_theorem_map()
    u, v = Fraction(1, 2), Fraction(-3, 4)
    want = oracle_eval(COMP1_TERMS, u, v)
    assert evaluate_exact(f.component1, u, v) == want
    assert isinstance(evaluate_exact(f.component1, u, v), Fraction)


def fraction_eval(p: SparsePolynomial, u, v) -> Fraction:
    # term-by-term Fraction arithmetic, the direct reading of the sum
    u, v = Fraction(u), Fraction(v)
    total = Fraction(0)
    for m in p.terms:
        a, b = m.exponents
        total += m.coefficient * u**a * v**b
    return total


def test_evaluate_exact_matches_fraction_oracle():
    f, outer = build_theorem_map(), build_f2()
    polys = [f.component1, f.component2, outer.component1, outer.component2, SparsePolynomial({})]
    rng = random.Random(271828)
    points = [(Fraction(i, 2), Fraction(k, 2)) for i in range(-10, 11) for k in range(-10, 11)]
    for _ in range(300):
        # denominators up to 97, most of them not powers of two
        points.append(
            (
                Fraction(rng.randrange(-500, 501), rng.randrange(1, 98)),
                Fraction(rng.randrange(-500, 501), rng.randrange(1, 98)),
            )
        )
    points += [(Fraction(1, 3), Fraction(-2, 7)), (3, -2), (-1, 5), (0, 0), (0, Fraction(5, 3))]
    for p in polys:
        for u, v in points:
            got = evaluate_exact(p, u, v)
            assert isinstance(got, Fraction)
            assert got == fraction_eval(p, u, v), (to_text(p), u, v)


def test_evaluate_float_basics():
    f = build_theorem_map()
    assert evaluate_float(f.component1, 0.0, 0.0) == 1.0
    assert abs(evaluate_float(f.component1, 1.0, 2.0) - 241.0) <= 1e-12 * 241.0
    assert evaluate_float(f.component2, 1.0, 1.0) == 1.0


def test_evaluate_float_overflow_is_nonfinite_not_raised():
    f = build_theorem_map()
    got = evaluate_float(f.component2, 1e300, 1e300)
    assert not math.isfinite(got)


def test_float_tracks_exact_on_random_rationals():
    rng = random.Random(314159)
    f = build_theorem_map()
    for _ in range(10_000):
        u = Fraction(rng.randrange(-256, 257), 64)
        v = Fraction(rng.randrange(-256, 257), 64)
        for comp in (f.component1, f.component2):
            exact = evaluate_exact(comp, u, v)
            approx = evaluate_float(comp, float(u), float(v))
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


def test_map_evaluators_match_the_component_evaluators():
    rng = random.Random(161803)
    # random doubles of either sign, one coordinate near an axis for half
    # of them, the exact 21 x 21 grid of halves, and two overflowing points
    doubles = [
        (rng.uniform(-5.0, 5.0), rng.uniform(-1e-8, 1e-8) if k % 2 else rng.uniform(-5.0, 5.0))
        for k in range(300)
    ]
    doubles += [(i / 2.0, k / 2.0) for i in range(-10, 11) for k in range(-10, 11)]
    doubles += [(1e300, -1e300), (-1e30, 1e-300)]
    fractions = [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(-500, 97), 5), (3, Fraction(5, 3))]
    for fmap in (build_theorem_map(), build_f2()):
        c1, c2 = fmap.component1, fmap.component2
        for x, y in doubles + fractions:
            n1, n2, den = evaluate_map_exact(fmap, x, y)
            assert den > 0
            want = (evaluate_exact(c1, x, y), evaluate_exact(c2, x, y))
            assert (Fraction(n1, den), Fraction(n2, den)) == want, (x, y)
        want = [tuple(evaluate_float(c, x, y).hex() for c in (c1, c2)) for x, y in doubles]
        got = [tuple(v.hex() for v in evaluate_map_float(fmap, x, y)) for x, y in doubles]
        assert got == want
        xs, ys = np.array(doubles).T
        with np.errstate(over="ignore", invalid="ignore"):
            on_arrays = evaluate_map_float(fmap, xs, ys)
        pairs = zip(*(a.tolist() for a in on_arrays))
        assert [tuple(v.hex() for v in pair) for pair in pairs] == want


# ---------------------------------------------------------------------------
# Stats.


def test_stats_of_theorem_components():
    f = build_theorem_map()
    s1, s2 = stats(f.component1), stats(f.component2)
    assert s1 == (12, 11)
    assert s2 == (16, 11)
    assert s1[0] + s2[0] == 28
    assert s1[1] + s2[1] == 22


def test_stats_zero_polynomial_degree_marker():
    deg, count = stats(SparsePolynomial({}))
    assert deg == float("-inf")
    assert count == 0


# ---------------------------------------------------------------------------
# Serialization.


def test_text_form_is_canonical_and_frozen():
    f = build_theorem_map()
    assert to_text(f.component1) == COMP1_TEXT
    assert to_text(SparsePolynomial({})) == "0"


def parse_canonical_text(text: str) -> dict:
    """Exponents -> coefficient read back from to_text's exact format."""
    coeffs = {}
    if text == "0":
        return coeffs
    for term in text.replace(" - ", " + -").split(" + "):
        sign, term = (-1, term[1:]) if term.startswith("-") else (1, term)
        c, a, b = 1, 0, 0
        for factor in term.split("*"):
            power = int(factor[2:]) if "^" in factor else 1
            if factor[0] == "x":
                a = power
            elif factor[0] == "y":
                b = power
            else:
                c = int(factor)
        assert (a, b) not in coeffs, text
        coeffs[(a, b)] = sign * c
    return coeffs


def test_text_round_trip():
    rng = random.Random(1234)
    f = build_theorem_map()
    candidates = [f.component1, f.component2, SparsePolynomial({})]
    candidates += [random_poly(rng) for _ in range(50)]
    for p in candidates:
        assert SparsePolynomial(parse_canonical_text(to_text(p))) == p


def test_triples_round_trip_and_order():
    f = build_theorem_map()
    t = to_triples(f.component1)
    assert t[0] == (8, 4, 1)
    assert t[-1] == (0, 0, 1)
    assert SparsePolynomial({(a, b): c for a, b, c in t}) == f.component1
