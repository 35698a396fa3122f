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
import re
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

    __slots__ = ("_coeffs", "_terms")

    def __init__(self, terms: Union[Mapping[Exponents, int], Iterable[Monomial]]):
        coeffs: dict[Exponents, int] = {}
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = ((m.exponents, m.coefficient) for m in terms)
        for (a, b), c in items:
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


# ---------------------------------------------------------------------------
# Arithmetic.


def add(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """Sum in canonical form."""
    out = dict(p._coeffs)
    for e, c in q._coeffs.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return SparsePolynomial(out)


def neg(p: SparsePolynomial) -> SparsePolynomial:
    """Additive inverse."""
    return SparsePolynomial({e: -c for e, c in p._coeffs.items()})


def mul(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """Product by support convolution with exact coefficients."""
    out: dict[Exponents, int] = {}
    for (a1, b1), c1 in p._coeffs.items():
        for (a2, b2), c2 in q._coeffs.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return SparsePolynomial(out)


def compose(
    outer: SparsePolynomial,
    sub1: SparsePolynomial,
    sub2: SparsePolynomial,
) -> SparsePolynomial:
    """Substitute sub1 for x and sub2 for y in outer.

    Powers of the substituted polynomials are memoized; the inputs here are
    tiny, so repeated multiplication is plenty.
    """
    pow1: dict[int, SparsePolynomial] = {0: ONE}
    pow2: dict[int, SparsePolynomial] = {0: ONE}

    def power(cache, base, n):
        while n not in cache:
            k = max(cache)
            cache[k + 1] = mul(cache[k], base)
        return cache[n]

    acc = SparsePolynomial({})
    for (a, b), c in outer._coeffs.items():
        term = mul(power(pow1, sub1, a), power(pow2, sub2, b))
        acc = add(acc, mul(SparsePolynomial({(0, 0): c}), term))
    return acc


# ---------------------------------------------------------------------------
# Evaluation.


def evaluate_exact(p: SparsePolynomial, u: Rational, v: Rational) -> Fraction:
    """Exact rational value of p(u, v); no rounding anywhere.

    With u = un/ud, v = vn/vd and A, B the top exponents of x and y, the
    value is the integer sum of c * un^a ud^(A-a) * vn^b vd^(B-b) over the
    terms, divided once by ud^A vd^B, so the only gcd is taken at the end.
    """
    u, v = Fraction(u), Fraction(v)
    un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
    top_a = max((a for a, _ in p._coeffs), default=0)
    top_b = max((b for _, b in p._coeffs), default=0)
    pu = [un**k * ud ** (top_a - k) for k in range(top_a + 1)]
    pv = [vn**k * vd ** (top_b - k) for k in range(top_b + 1)]
    total = sum(c * pu[a] * pv[b] for (a, b), c in p._coeffs.items())
    return Fraction(total, ud**top_a * vd**top_b)


def _fpow(base: float, n: int) -> float:
    # repeated multiplication so overflow yields inf instead of raising
    out = 1.0
    for _ in range(n):
        out *= base
    return out


def evaluate_float(p: SparsePolynomial, u: float, v: float) -> float:
    """Floating value of p(u, v).

    Terms are accumulated left to right in the canonical graded-lex order,
    so the rounding behaviour is reproducible. Overflow is reported as a
    non-finite result, never as an exception.
    """
    total = 0.0
    for m in p._terms:
        a, b = m.exponents
        total += m.coefficient * _fpow(u, a) * _fpow(v, b)
    return total


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

_TERM_RE = re.compile(
    r"^([+-]?)(\d+)?(?:\*?x(?:\^(\d+))?)?(?:\*?y(?:\^(\d+))?)?$"
)


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


def from_text(text: str) -> SparsePolynomial:
    """Parse the text form produced by to_text (spacing is forgiven)."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    if compact == "0":
        return SparsePolynomial({})
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"cannot parse polynomial text {text!r}")
    coeffs: dict[Exponents, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and "x" not in chunk and "y" not in chunk):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        c = sign * int(m.group(2) or 1)
        a = int(m.group(3) or (1 if "x" in chunk else 0))
        b = int(m.group(4) or (1 if "y" in chunk else 0))
        coeffs[(a, b)] = coeffs.get((a, b), 0) + c
    return SparsePolynomial(coeffs)


def to_triples(p: SparsePolynomial) -> list[tuple[int, int, int]]:
    """Canonical [(x-exp, y-exp, coefficient), ...] for structured output."""
    return [(m.exponents[0], m.exponents[1], m.coefficient) for m in p._terms]


def from_triples(triples: Iterable[tuple[int, int, int]]) -> SparsePolynomial:
    """Rebuild a polynomial from to_triples output."""
    coeffs: dict[Exponents, int] = {}
    for a, b, c in triples:
        coeffs[(a, b)] = coeffs.get((a, b), 0) + int(c)
    return SparsePolynomial(coeffs)
