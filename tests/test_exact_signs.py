"""Property tests of the crossing count's exact signs.

topology decides crossing heights, and the orientations its float filter
leaves open, as determinants of integers: the doubles scaled by one power
of two. These tests hold them, and the filtered orientations, to a
Fraction reference on doubles of every binary exponent from -1074 to 1023,
signed zeros and subnormals included. Half the draws take every
coordinate from a pool of at most three values, so that differences
cancel and determinants vanish.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadrant_atlas import topology  # noqa: E402

TINY = 5e-324

# m 2^e with |m| < 2^53 and e from -1074, the subnormal step, to 971, so
# that the leading bit runs from 2^-1074 to 2^1023; and the edge values
DOUBLES = st.one_of(
    st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, 971)),
    st.sampled_from(
        [0.0, -0.0, TINY, -TINY, 2.0**-1022 - TINY, 2.0**-1022, 1.0, -1.0, sys.float_info.max]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@st.composite
def points(draw, count):
    values = DOUBLES
    if draw(st.booleans()):
        values = st.sampled_from(draw(st.lists(DOUBLES, min_size=1, max_size=3)))
    return [np.array([draw(values) for _ in range(3)]) for _ in range(count)]


def minus(p, q):
    return [Fraction(x) - Fraction(y) for x, y in zip(p.tolist(), q.tolist())]


def fraction_sign(rows):
    """The sign of a 3 x 3 determinant of Fractions, by cofactors."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return (det > 0) - (det < 0)


@SEEDED
@given(points(4))
def test_crossing_heights_match_fractions(pts):
    p0, p1, q0, q1 = pts
    want = fraction_sign([minus(p0, q0), minus(p1, p0), minus(q1, q0)])
    assert topology._height_sign(p0, p1, q0, q1) == want


@SEEDED
@given(points(3))
def test_orientation_rows_match_fractions(pts):
    a, b, c = pts
    want = fraction_sign([list(map(Fraction, topology._VIEW)), minus(b, a), minus(c, a)])
    assert topology._orientation_exact(a, b, c) == want
    # the float filter decides the row itself or defers, overflowed too
    with np.errstate(all="ignore"):
        assert topology._orientations(a[None], b[None], c[None]).tolist() == [want]
