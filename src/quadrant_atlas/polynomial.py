"""Exact sparse polynomial arithmetic in two variables.

A polynomial is a finite sum ``c * x^a * y^b`` with integer coefficients.
Internally each polynomial stores a dict mapping exponent pairs ``(a, b)``
to nonzero coefficients; the public ``terms`` view is sorted in graded
lexicographic order (total degree descending, then the x-exponent
descending), which fixes a canonical form for equality, printing, and
float evaluation order.

The module also builds the three concrete maps the rest of the package
studies: the plane map whose image is the open quadrant, the squaring map
it factors through, and the outer factor of that composition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponents = tuple[int, int]
Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Monomial:
    """One term: coefficient times x^a * y^b with a nonzero coefficient."""

    exponents: Exponents
    coefficient: int


def _grlex_key(e: Exponents) -> tuple[int, int]:
    # total degree descending, then x-exponent descending
    return (-(e[0] + e[1]), -e[0])


class SparsePolynomial:
    """Immutable two-variable polynomial with exact integer coefficients."""

    __slots__ = ("_coeffs", "_terms", "_top")

    def __init__(self, terms: Union[Mapping[Exponents, int], Iterable[tuple[Exponents, int]]]):
        """Sum of the given terms, a mapping of exponents to coefficients or
        (exponents, coefficient) pairs; repeated exponents add up, and terms
        that cancel are dropped. The one place coefficients are summed."""
        coeffs: dict[Exponents, int] = {}
        for (a, b), c in terms.items() if isinstance(terms, Mapping) else terms:
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in {(a, b)}")
            c = coeffs.get((a, b), 0) + c
            if c:
                coeffs[(a, b)] = c
            else:
                coeffs.pop((a, b), None)
        object.__setattr__(self, "_coeffs", coeffs)
        ordered = tuple(
            Monomial(e, coeffs[e]) for e in sorted(coeffs, key=_grlex_key)
        )
        object.__setattr__(self, "_terms", ordered)
        # highest exponent of x and of y; (0, 0) for the zero polynomial
        object.__setattr__(
            self, "_top", tuple(max((e[k] for e in coeffs), default=0) for k in (0, 1))
        )

    @property
    def terms(self) -> tuple[Monomial, ...]:
        """Terms in canonical graded-lex order; empty for the zero polynomial."""
        return self._terms

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"SparsePolynomial({to_text(self)!r})"

    # Operator sugar so the map builders read like the formulas they encode.
    def __add__(self, other) -> "SparsePolynomial":
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "SparsePolynomial":
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other) -> "SparsePolynomial":
        return add(_coerce(other), neg(self))

    def __mul__(self, other) -> "SparsePolynomial":
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "SparsePolynomial":
        return neg(self)

    def __pow__(self, n: int) -> "SparsePolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = ONE
        for _ in range(n):
            out = mul(out, self)
        return out


def _coerce(value) -> SparsePolynomial:
    if isinstance(value, SparsePolynomial):
        return value
    if isinstance(value, int):
        return SparsePolynomial({(0, 0): value})
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


@dataclass(frozen=True)
class PolyMap2:
    """A pair of polynomials seen as a map of the plane to itself."""

    component1: SparsePolynomial
    component2: SparsePolynomial

    def __post_init__(self):
        if not self.component1.terms or not self.component2.terms:
            raise ValueError("map components must be nonzero")

    @property
    def top(self) -> Exponents:
        """Highest exponent of x and of y over both components."""
        (a1, b1), (a2, b2) = self.component1._top, self.component2._top
        return max(a1, a2), max(b1, b2)


# ---------------------------------------------------------------------------
# Arithmetic.


def add(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """Sum in canonical form."""
    return SparsePolynomial([*p._coeffs.items(), *q._coeffs.items()])


def neg(p: SparsePolynomial) -> SparsePolynomial:
    """Additive inverse."""
    return SparsePolynomial({e: -c for e, c in p._coeffs.items()})


def mul(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """Product by support convolution with exact coefficients."""
    return SparsePolynomial(
        ((a1 + a2, b1 + b2), c1 * c2)
        for (a1, b1), c1 in p._coeffs.items()
        for (a2, b2), c2 in q._coeffs.items()
    )


def compose(
    outer: SparsePolynomial,
    sub1: SparsePolynomial,
    sub2: SparsePolynomial,
) -> SparsePolynomial:
    """Substitute sub1 for x and sub2 for y in outer."""
    return SparsePolynomial(
        (e, c * t)
        for (a, b), c in outer._coeffs.items()
        for e, t in mul(sub1**a, sub2**b)._coeffs.items()
    )


# ---------------------------------------------------------------------------
# Evaluation.


def _exact_powers(n: int, d: int, top: int) -> list[int]:
    """[n^k d^(top-k) for k = 0..top]: the powers of n/d up to top over the
    one denominator d^top, which is the list's first entry."""
    return [n**k * d ** (top - k) for k in range(top + 1)]


def _exact_sum(p: SparsePolynomial, pu: list[int], pv: list[int]) -> int:
    """Numerator of p at the point whose power lists are pu and pv, as
    _exact_powers builds them, over the denominator pu[0] * pv[0]; the
    lists may run past p's top exponents."""
    return sum(c * pu[a] * pv[b] for (a, b), c in p._coeffs.items())


def evaluate_exact(p: SparsePolynomial, u: Rational, v: Rational) -> Fraction:
    """Exact rational value of p(u, v); no rounding anywhere. The integer
    sum of _exact_sum is divided once, so the only gcd is taken at the end."""
    u, v = Fraction(u), Fraction(v)
    pu = _exact_powers(u.numerator, u.denominator, p._top[0])
    pv = _exact_powers(v.numerator, v.denominator, p._top[1])
    return Fraction(_exact_sum(p, pu, pv), pu[0] * pv[0])


def _powers(base, top: int) -> list:
    """[1.0, base, base^2, ..., base^top] by repeated multiplication, so
    overflow yields inf instead of raising; base is a float or an array."""
    out = [1.0]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _sum_terms(p: SparsePolynomial, px: list, py: list):
    """p at the point whose power lists are px and py, as _powers builds
    them; floats or arrays alike.

    Terms are accumulated left to right in the canonical graded-lex order,
    each as (c * x^a) * y^b, so the rounding behaviour is reproducible and
    an array result matches the scalar one element for element.
    """
    total = 0.0
    for m in p._terms:
        a, b = m.exponents
        total += (m.coefficient * px[a]) * py[b]
    return total


def evaluate_float(p: SparsePolynomial, u: float, v: float) -> float:
    """Floating value of p(u, v) through _sum_terms. Overflow is reported as
    a non-finite result, never as an exception."""
    return _sum_terms(p, _powers(u, p._top[0]), _powers(v, p._top[1]))


def evaluate_map_exact(fmap: PolyMap2, x, y) -> tuple[int, int, int]:
    """(n1, n2, den): both components of fmap at (x, y) as integer
    numerators over one positive denominator, so fmap(x, y) is exactly
    (n1 / den, n2 / den). x and y are ints, floats or Fractions, read
    through as_integer_ratio. Each value's sign is its numerator's, and
    n / den in Python rounds to the double nearest the value."""
    top_x, top_y = fmap.top
    px = _exact_powers(*x.as_integer_ratio(), top_x)
    py = _exact_powers(*y.as_integer_ratio(), top_y)
    c1, c2 = fmap.component1, fmap.component2
    return _exact_sum(c1, px, py), _exact_sum(c2, px, py), px[0] * py[0]


def evaluate_map_float(fmap: PolyMap2, x, y) -> tuple:
    """Both components of fmap at (x, y), floats or arrays, from one set of
    power lists; each is bit-identical to evaluate_float of its component."""
    top_x, top_y = fmap.top
    px, py = _powers(x, top_x), _powers(y, top_y)
    return _sum_terms(fmap.component1, px, py), _sum_terms(fmap.component2, px, py)


def stats(p: SparsePolynomial) -> tuple[float, int]:
    """(total degree, monomial count); the zero polynomial reports -inf degree."""
    if not p._terms:
        return (float("-inf"), 0)
    return (max(a + b for (a, b) in p._coeffs), len(p._terms))


# ---------------------------------------------------------------------------
# Generators and the concrete maps.

X = SparsePolynomial({(1, 0): 1})
Y = SparsePolynomial({(0, 1): 1})
ONE = SparsePolynomial({(0, 0): 1})


def build_f1() -> PolyMap2:
    """The coordinate-squaring map (x, y) -> (x^2, y^2)."""
    return PolyMap2(X**2, Y**2)


@functools.cache
def build_f2() -> PolyMap2:
    """The outer factor:

    (x, y) -> ((x*y^2 + x^2*y - y - 1)^2 + x^3*y^2,
               (x^3*y + x*y - x - 1)^2 + x^3*y^2)

    Both components are sums of two squares, hence nonnegative everywhere,
    and they never vanish simultaneously on the closed quadrant.
    """
    tail = X**3 * Y**2
    c1 = (X * Y**2 + X**2 * Y - Y - 1) ** 2 + tail
    c2 = (X**3 * Y + X * Y - X - 1) ** 2 + tail
    return PolyMap2(c1, c2)


@functools.cache
def build_theorem_map() -> PolyMap2:
    """The degree-16 plane map whose image is the open quadrant:

    (x, y) -> ((x^2*y^4 + x^4*y^2 - y^2 - 1)^2 + x^6*y^4,
               (x^6*y^2 + x^2*y^2 - x^2 - 1)^2 + x^6*y^4)

    Built directly from this formula; that it equals the composition of
    build_f2 after build_f1 is a separate checked fact, not an input here.
    Both builders are cached: maps are immutable, so callers share one.
    """
    tail = X**6 * Y**4
    c1 = (X**2 * Y**4 + X**4 * Y**2 - Y**2 - 1) ** 2 + tail
    c2 = (X**6 * Y**2 + X**2 * Y**2 - X**2 - 1) ** 2 + tail
    return PolyMap2(c1, c2)


# ---------------------------------------------------------------------------
# Serialization: canonical text and structured triples.


def to_text(p: SparsePolynomial) -> str:
    """Canonical human form, e.g. ``x^2*y - 2*y^2 + 1``; ``0`` when empty."""
    if not p._terms:
        return "0"
    pieces: list[str] = []
    for i, m in enumerate(p._terms):
        a, b = m.exponents
        c = m.coefficient
        factors = []
        if abs(c) != 1 or (a == 0 and b == 0):
            factors.append(str(abs(c)))
        if a:
            factors.append("x" if a == 1 else f"x^{a}")
        if b:
            factors.append("y" if b == 1 else f"y^{b}")
        body = "*".join(factors)
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def to_triples(p: SparsePolynomial) -> list[tuple[int, int, int]]:
    """Canonical [(x-exp, y-exp, coefficient), ...] for structured output."""
    return [(m.exponents[0], m.exponents[1], m.coefficient) for m in p._terms]
