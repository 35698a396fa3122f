"""Closed-form maps behind the quadrant construction.

Each formula has one body, shared by the array sweeps in topology and
sampler and by the solver, on arrays for its level-curve scan and on
floats for its bisections and its polish:

* ``g`` embeds the closed quadrant into 3-space; ``h`` projects back to the
  plane by summing squares of adjacent coordinates, and the composition
  ``h(g(x, y))`` equals the outer polynomial factor.
* ``phi`` parameterizes the image surface over the strip
  ``rho >= 0, 0 <= theta <= pi/2``; ``psi`` carries strip points back into
  the closed quadrant so that ``g(psi(p)) = phi(p)`` away from the edges.
* ``xi`` and ``zeta`` build and flatten the warped discs used by the
  topological certificates.
* The solver finds preimages of the outer factor ``h . g``; its Jacobian
  is the chain rule through ``h`` over the partials of ``g``.
  ``d phi / d theta`` gives the tangents of the boundary loops in topology.

Only g and h have scalar entry points, the ones the solver calls on
floats. Angles are radians; ``pi`` is the platform double.
"""

from __future__ import annotations

import math

import numpy as np

Point2 = tuple[float, float]
Point3 = tuple[float, float, float]

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# Formula bodies. Each map is written once, with + - * / only, and runs
# unchanged on floats (the scalar entry points below and the solver) and
# on numpy arrays (topology, sampler and solver). Those four operations
# round identically in both, so given the same cos, sin and roots the two
# paths agree bit for bit; a test checks that numpy's cos, sin and sqrt
# match libm's where it runs.
# Integer powers are explicit products: numpy's c**k and libm's pow round
# differently. Callers supply cos, sin and the square roots, via _trig_vec
# for the strip angle; only the scalar entry points check their domain.


def _g_terms(x, y, root_x):
    """g(x, y) given root_x = sqrt(x)."""
    return (x * y * y + x * x * y - y - 1.0, root_x * x * y, x * x * x * y + x * y - x - 1.0)


def _dg_terms(x, y, root_x):
    """(dg/dx, dg/dy), arguments as for _g_terms."""
    return (
        (y * y + 2.0 * x * y, 1.5 * root_x * y, 3.0 * x * x * y + y - 1.0),
        (2.0 * x * y + x * x - 1.0, root_x * x, x * x * x + x),
    )


def _psi_terms(rho, c, s):
    """psi(rho, theta) given c = cos theta, s = sin theta."""
    return (s / c, (c + s + rho * c * s) * c * c / s)


def _phi_terms(rho, c, s, w):
    """phi(rho, theta) given c = cos theta, s = sin theta, w = sqrt(c s)."""
    cs, d = c * s, c - s
    c4 = (c * c) * (c * c)
    s4 = (s * s) * (s * s)
    return (
        cs * (d * d) + rho * (2.0 * c4 * s + c * s4 + c4 * c) + rho * rho * (c4 * c) * s,
        w * (c + s + rho * cs),
        rho * s,
    )


def _phi_theta(rho, c, s, w):
    """d phi / d theta, arguments as for _phi_terms; needs w > 0, that is
    theta strictly inside the strip, where phi2 is differentiable."""
    cs, c2, s2 = c * s, c * c, s * s
    c4, cc_ss = c2 * c2, c2 - s2
    lin = -8.0 * (c2 * c) * s2 + 2.0 * (c4 * c) - s2 * s2 * s + 4.0 * c2 * (s2 * s) - 5.0 * c4 * s
    return (
        cc_ss * (1.0 - 4.0 * cs) + rho * lin + rho * rho * (c4 * c2 - 5.0 * c4 * s2),
        cc_ss / (2.0 * w) * (c + s + rho * cs) + w * ((c - s) + rho * cc_ss),
        rho * c,
    )


def _h_chain(f, f_a, f_b):
    """Partials of h . f as (d1_da, d1_db, d2_da, d2_db), by the chain rule
    Dh(f) Df with Dh = [[2x, 2y, 0], [0, 2y, 2z]], given the value f of
    the inner map and its partials f_a, f_b."""
    f1, f2, f3 = f
    a1, a2, a3 = f_a
    b1, b2, b3 = f_b
    return (
        2.0 * (f1 * a1 + f2 * a2),
        2.0 * (f1 * b1 + f2 * b2),
        2.0 * (f2 * a2 + f3 * a3),
        2.0 * (f2 * b2 + f3 * b3),
    )


def _mu_terms(theta):
    """The gluing profile mu(theta)."""
    t = 4.0 * theta / math.pi - 1.0
    return t * t


def _xi_terms(y, b):
    """Warped-disc height over the coordinate y, in numpy: floats come back
    as numpy scalars."""
    return np.sqrt(b * b - np.minimum(y * y, b * b))


def _zeta_terms(x, y, z, b, variant):
    """Flattening of disc "d1", or of "d2" with x and z swapped."""
    xi = _xi_terms(y, b)
    return (x, y, z - xi) if variant == "d1" else (z, y, x - xi)


def _trig_vec(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos, sin, sqrt(cos sin)) of an array of strip angles, collapsing
    exactly at the edges, where cos(pi/2) is only ~6e-17 in doubles; the
    clamp covers angles that overshoot pi/2 by an ulp."""
    at_zero = theta == 0.0
    at_half = theta == HALF_PI
    c = np.where(at_zero, 1.0, np.where(at_half, 0.0, np.cos(theta)))
    s = np.where(at_zero, 0.0, np.where(at_half, 1.0, np.sin(theta)))
    return c, s, np.sqrt(np.maximum(c * s, 0.0))


# ---------------------------------------------------------------------------
# Scalar entry points.


def eval_g(p: Point2) -> Point3:
    """g(x, y) = (x*y^2 + x^2*y - y - 1, x^(3/2)*y, x^3*y + x*y - x - 1).

    The fractional power needs x >= 0; negative x is a domain error.
    """
    x, y = p
    if x < 0.0:
        raise ValueError(f"eval_g needs a non-negative first coordinate, got {x}")
    return _g_terms(x, y, math.sqrt(x))


def eval_h(p: Point3) -> Point2:
    """h(x, y, z) = (x^2 + y^2, y^2 + z^2); also takes a triple of arrays."""
    x, y, z = p
    return (x * x + y * y, y * y + z * z)

