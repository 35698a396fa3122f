"""Outward-rounded interval arithmetic on numpy arrays.

An Interval stands for every real between its arrays lo <= hi. + - * round
each bound one np.nextafter step outward, past round-to-nearest's half-ulp
error, so the `maps` bodies, written with + - * only, run on intervals and
enclose their exact values over the box of their arguments. Callers
enclose cos, sin and sqrt, taking libm's and numpy's values to be within
one ulp (IEEE sqrt within half an ulp).
"""

from __future__ import annotations

import numpy as np


def down(x):
    return np.nextafter(x, -np.inf)


def up(x):
    return np.nextafter(x, np.inf)


class Interval:
    # numpy scalars and arrays on the left defer to the reflected methods
    __array_ufunc__ = None

    def __init__(self, lo, hi=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = self.lo if hi is None else np.asarray(hi, dtype=float)

    def __add__(self, other):
        other = _lift(other)
        return Interval(down(self.lo + other.lo), up(self.hi + other.hi))

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -_lift(other)

    def __mul__(self, other):
        lo, hi = self.lo, self.hi
        if not isinstance(other, Interval):
            # a point: two products, swapped when it is negative
            lo, hi = (lo * other, hi * other) if other >= 0.0 else (hi * other, lo * other)
            return Interval(down(lo), up(hi))
        p = np.array([lo * other.lo, lo * other.hi, hi * other.lo, hi * other.hi])
        return Interval(down(p.min(axis=0)), up(p.max(axis=0)))

    __radd__, __rmul__ = __add__, __mul__

    def sqrt(self) -> Interval:
        """The root of the interval's non-negative part."""
        lo = np.maximum(down(np.sqrt(np.maximum(self.lo, 0.0))), 0.0)
        return Interval(lo, up(np.sqrt(self.hi)))

    def hull(self, *points) -> Interval:
        """The least interval holding this one and the given points."""
        lo, hi = np.minimum.reduce([self.lo, *points]), np.maximum.reduce([self.hi, *points])
        return Interval(lo, hi)


def _lift(x) -> Interval:
    return x if isinstance(x, Interval) else Interval(x)
