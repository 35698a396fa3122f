"""Constructive preimages: find (x, y) with f(x, y) close to a target.

The map factors as f = f2 . f1 with f1(x, y) = (x^2, y^2), so a preimage
of (a, b) is a point (u, v) = (x^2, y^2) of the closed quadrant where the
outer factor f2 = h . g takes the value (a, b). For fixed u its second
component c2 = (p v - q)^2 + u^3 v^2, with p = u^3 + u and q = u + 1, is
a quadratic in v: the level curve c2 = b is the two branches
v+-(u) = (pq +- sqrt(D)) / A, with A = p^2 + u^3 and D = b A - u^3 q^2,
which meet at the folds where D = 0. D / u^2 is a quartic with at most
two positive roots, so there are at most two folds. A preimage is a root
in u of c1(u, v+-(u)) - a. The seeds lie on the level curve and are
tried in this order. The branches are scanned on SCAN_POINTS log-spaced
u in [1e-40, 1e40], and each sign change is bisected in log u; v- is
scanned only once v+'s roots are used up. Then each fold is located by
bisection on D, the branches are sampled at FOLD_POINTS points graded
toward it, v- again only after v+'s roots, and the sign changes there
are bisected. Last, the samples where |c1 - a| has a local minimum with
no sign change around it, near-tangencies of the level curves c1 = a and
c2 = b, are taken as they are, least |c1 - a| first.

Each seed is polished by one damped least-squares iteration on the outer
factor over the closed quadrant, its value and Jacobian taken from the
maps bodies of g, its partials and h. Every polished point with a finite
residual is graded, also when the polish stalled: a seed on the level
curve brackets a root, and near the axes the float residual rounds above
the tolerance at points the exact map accepts. Grading evaluates the
exact expanded map in rationals at the witness (x, y) = (sqrt(u),
sqrt(v)), and at the doubles one ulp around it when that misses, so the
solver cannot grade its own homework. The first point that passes wins.
A value that overflows is inf or NaN, which never descends, so such a
seed fails quietly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .maps import Point2, _dg_terms, _g_terms, _h_chain, eval_g, eval_h
from .polynomial import build_theorem_map, evaluate_map_exact

# Newton budget per seed, most ridge increases (each times 4) per step,
# and the sizes of the level-curve scan, read-only log-spaced u in
# [1e-40, 1e40], and of the graded sampling toward each fold
MAX_NEWTON_ITERS = 100
MAX_BACKTRACKS = 40
SCAN_POINTS = 4000
FOLD_POINTS = 400
_SCAN = np.logspace(-40.0, 40.0, SCAN_POINTS)
_SCAN.flags.writeable = False


class SolverFailure(RuntimeError):
    """No graded point passed; carries the best residual and point graded."""

    def __init__(self, message: str, best_residual: float, best_point: Point2):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_point = best_point


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError(
                f"residual_tol must be positive and finite, got {self.residual_tol}"
            )


@dataclass(frozen=True)
class PreimageQuery:
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(
                f"target must be a finite point of the open quadrant, got ({self.a}, {self.b})"
            )


@dataclass(frozen=True)
class PreimageResult:
    """x, y: the witness point; residual: exact relative sup-norm error of
    the expanded map at it; newton_iters: iterations of the polish from
    the winning seed; seed_index: that seed's position in the level-curve
    stream."""

    x: float
    y: float
    residual: float
    newton_iters: int
    seed_index: int


# ---------------------------------------------------------------------------
# Polish.


def _norms(u: float, v: float, a: float, b: float, scale: float):
    """Scaled sup and squared 2-norms of the residual at (u, v), and the
    values g(u, v) and h(g) they came from, which the next step reuses."""
    g = eval_g((u, v))
    f = eval_h(g)
    ra, rb = (f[0] - a) / scale, (f[1] - b) / scale
    return max(abs(ra), abs(rb)), ra * ra + rb * rb, g, f


def _polish(seed: Point2, q: PreimageQuery, tol: float) -> tuple[Point2, float, int]:
    """(point, scaled sup-norm residual, iterations) of the polish from
    seed, which stops early once the residual is at most tol."""
    # Damped least-squares iteration with an adaptive ridge. The outer
    # factor has genuinely singular roots (both bracket terms vanish
    # together with parallel gradients); there an undamped solve blows up
    # or crawls across the residual valley instead of along it, while the
    # ridge keeps the step inside the well-conditioned subspace. Near a
    # regular root the ridge decays and the step reverts to plain Newton.
    # Steps are accepted on the squared 2-norm since that is what the
    # normal equations descend; convergence is judged on the sup norm.
    scale = max(q.a, q.b, 1.0)
    u, v = seed
    r, m, g, f = _norms(u, v, q.a, q.b, scale)
    lam = -1.0
    for iters in range(1, MAX_NEWTON_ITERS + 1):
        if r <= tol:
            return (u, v), r, iters - 1
        d11, d12, d21, d22 = _h_chain(g, *_dg_terms(u, v, math.sqrt(u)))
        ra, rb = f[0] - q.a, f[1] - q.b
        g1 = d11 * ra + d21 * rb
        g2 = d12 * ra + d22 * rb
        a11 = d11 * d11 + d21 * d21
        a12 = d11 * d12 + d21 * d22
        a22 = d12 * d12 + d22 * d22
        trace = a11 + a22
        if trace <= 0.0 or not math.isfinite(trace):
            return (u, v), r, iters
        if lam < 0.0:
            lam = 1e-3 * trace
        for _ in range(MAX_BACKTRACKS):
            det = (a11 + lam) * (a22 + lam) - a12 * a12
            if det == 0.0:
                # a ridge set from an earlier, much smaller trace is lost in
                # a11 a22 - a12^2 rounding; reject the step like a rise
                lam *= 4.0
                continue
            cu = max(u - ((a22 + lam) * g1 - a12 * g2) / det, 0.0)
            cv = max(v - ((a11 + lam) * g2 - a12 * g1) / det, 0.0)
            rc, mc, gc, fc = _norms(cu, cv, q.a, q.b, scale)
            if mc < m:
                u, v, r, m, g, f = cu, cv, rc, mc, gc, fc
                # floor keeps det safely positive in floating point
                lam = max(lam * 0.25, 1e-14 * trace)
                break
            lam *= 4.0
        else:
            return (u, v), r, iters
    return (u, v), r, MAX_NEWTON_ITERS


# ---------------------------------------------------------------------------
# Level-curve seeds.


def _level_curve(u, b, sqrt):
    """(D, v+, v-) over u: the roots of A v^2 - 2 pq v + (q^2 - b) = 0, the
    level curve c2 = b, with the small root as (q^2 - b) / (A v+), free of
    the cancellation in pq - sqrt(D); floats or arrays, sqrt to match, NaN
    where D < 0."""
    u3 = u * u * u
    p, q = u3 + u, u + 1.0
    big_a = p * p + u3
    d = b * big_a - u3 * (q * q)
    v_plus = (p * q + sqrt(d)) / big_a
    return d, v_plus, (q * q - b) / (big_a * v_plus)


def _sqrt(d: float) -> float:
    """sqrt on floats, NaN below 0 as np.sqrt gives on arrays."""
    return math.sqrt(d) if d >= 0.0 else math.nan


def _curve_point(u: float, branch: int, q: PreimageQuery) -> tuple[float, float]:
    """(c1 - a, v) at u on branch 0 (v+) or 1 (v-) of the level curve, on
    floats; NaN where the branch is absent or v < 0."""
    v = _level_curve(u, q.b, _sqrt)[1 + branch]
    if not v >= 0.0:
        return math.nan, math.nan
    return eval_h(_g_terms(u, v, math.sqrt(u)))[0] - q.a, v


def _branch_samples(u, v, q: PreimageQuery):
    """(c1 - a, v) on one branch v of the level curve over an array of u,
    both NaN where the branch is absent or v < 0; _curve_point's + - * /
    and sqrt on arrays, so the values agree bit for bit."""
    with np.errstate(all="ignore"):
        v = np.where(v >= 0.0, v, np.nan)
        return eval_h(_g_terms(u, v, np.sqrt(u)))[0] - q.a, v


def _bisect(fn, x0: float, f0: float, x1: float, f1: float):
    """Narrows the bracket (x0, x1), across which fn changes sign from f0
    to f1 (0 counts as positive), halving it in log u until the midpoint
    rounds onto an end or fn is NaN there; returns (x0, f0, x1, f1)."""
    while True:
        mid = math.sqrt(x0) * math.sqrt(x1)
        if not min(x0, x1) < mid < max(x0, x1):
            return x0, f0, x1, f1
        f_mid = fn(mid)
        if math.isnan(f_mid):
            return x0, f0, x1, f1
        if (f_mid < 0.0) == (f0 < 0.0):
            x0, f0 = mid, f_mid
        else:
            x1, f1 = mid, f_mid


def _branch_roots(branch: int, u, f, q: PreimageQuery):
    """Seeds (u, v) at the sign changes of c1 - a between neighbouring
    samples of one branch, each bisected. Brackets in the rounding noise
    near a fold often end on one point; it is given once."""
    neg, finite = f < 0.0, ~np.isnan(f)
    lo = np.flatnonzero((neg[:-1] != neg[1:]) & finite[:-1] & finite[1:])
    hi, last = lo + 1, None
    for bracket in zip(u[lo].tolist(), f[lo].tolist(), u[hi].tolist(), f[hi].tolist()):
        x0, f0, x1, f1 = _bisect(lambda x: _curve_point(x, branch, q)[0], *bracket)
        x = x0 if abs(f0) <= abs(f1) else x1
        seed = x, _curve_point(x, branch, q)[1]
        if seed != last:
            yield seed
        last = seed


def _branch_minima(u, f, v) -> list:
    """(|c1 - a|, u, v) at each sample of one branch where |c1 - a| has a
    local minimum and its neighbours show no sign change: the
    near-tangencies of the level curves c1 = a and c2 = b."""
    size, neg, mid = np.abs(f), f < 0.0, slice(1, -1)
    at = 1 + np.flatnonzero(
        (size[:-2] > size[mid]) & (size[mid] <= size[2:])
        & (neg[:-2] == neg[mid]) & (neg[mid] == neg[2:])
    )
    return list(zip(size[at].tolist(), u[at].tolist(), v[at].tolist()))


def _sampled_roots(u, q: PreimageQuery, samples: list):
    """The bisected roots of c1 - a between samples at an array of u, v+
    first: c1 - a on v- is only evaluated once the caller has taken every
    v+ root. Appends each branch's (u, c1 - a, v) to samples and returns D
    over u."""
    with np.errstate(all="ignore"):
        d, *branches = _level_curve(u, q.b, np.sqrt)
    for branch, vb in enumerate(branches):
        f, v = _branch_samples(u, vb, q)
        samples.append((u, f, v))
        yield from _branch_roots(branch, u, f, q)
    return d


def _level_seeds(q: PreimageQuery):
    """Quadrant seeds (u, v) on the level curve c2 = b, in the order they
    are tried: the roots bracketed on the scan, v+ then v-, then those near
    the folds, then the near-tangencies, the sampled minima of |c1 - a| on
    the scan and toward the folds, least |c1 - a| first. Each group and
    branch is only computed once the caller has taken every seed before it."""
    u, samples = _SCAN, []
    d = yield from _sampled_roots(u, q, samples)
    has_curve = d >= 0.0
    for i in np.flatnonzero(has_curve[:-1] != has_curve[1:]).tolist():
        inside, outside = (i, i + 1) if has_curve[i] else (i + 1, i)
        # the fold, then FOLD_POINTS samples of both branches graded from
        # the inside scan point toward it, down to 1e-14 of the distance
        fold = _bisect(
            lambda x: _level_curve(x, q.b, _sqrt)[0],
            float(u[inside]), float(d[inside]), float(u[outside]), float(d[outside]),
        )[0]
        graded = fold + (u[inside] - fold) * np.logspace(0.0, -14.0, FOLD_POINTS)
        yield from _sampled_roots(graded, q, samples)
    for _, x, y in sorted(m for s in samples for m in _branch_minima(*s)):
        yield x, y


# ---------------------------------------------------------------------------
# Full pipeline.


def _official_residual(x: float, y: float, q: PreimageQuery) -> Fraction:
    """The exact relative sup-norm residual of the expanded map at (x, y);
    its float expansion cancels near the axes. Worked in integers over the
    common denominator den * ad * bd, one Fraction at the end."""
    n1, n2, den = evaluate_map_exact(build_theorem_map(), x, y)
    (an, ad), (bn, bd) = q.a.as_integer_ratio(), q.b.as_integer_ratio()
    err_a = abs(n1 * ad - an * den) * bd
    err_b = abs(n2 * bd - bn * den) * ad
    return Fraction(max(err_a, err_b), den * max(an * bd, bn * ad, ad * bd))


def _graded(u: float, v: float, q: PreimageQuery, tol: float) -> tuple[Fraction, float, float]:
    """(exact residual, x, y) at the witness (sqrt(u), sqrt(v)), or, if it
    misses tol, the least over the doubles one ulp around it: rounding to
    doubles alone can miss the gate near the axes."""
    x, y = math.sqrt(u), math.sqrt(v)
    res = _official_residual(x, y, q)
    if res <= tol:
        return res, x, y
    near_x, near_y = ((t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)) for t in (x, y))
    around = [(nx, ny) for nx in near_x for ny in near_y if (nx, ny) != (x, y)]
    return min((res, x, y), *((_official_residual(nx, ny, q), nx, ny) for nx, ny in around))


def preimage(q: PreimageQuery, cfg: SolverConfig = SolverConfig()) -> PreimageResult:
    """Witness point for the target, or SolverFailure if no graded point
    passes.

    The reported residual is computed from the exact expanded map, so a
    result that passes came from the theorem's own polynomial.
    """
    best_r, best_xy = math.inf, (0.0, 0.0)
    for idx, seed in enumerate(_level_seeds(q)):
        (u, v), r, iters = _polish(seed, q, cfg.residual_tol)
        # a level-curve seed brackets a root, so a stalled polish is graded
        if not math.isfinite(r):
            continue
        res, x, y = _graded(u, v, q, cfg.residual_tol)
        if res <= cfg.residual_tol:
            return PreimageResult(
                x=x, y=y, residual=float(res), newton_iters=iters, seed_index=idx
            )
        if res < best_r:
            best_r, best_xy = float(res), (x, y)

    best = (
        f"best residual {best_r:.3e}"
        if math.isfinite(best_r)
        else "no polished point was found"
    )
    raise SolverFailure(
        f"no preimage found for target ({q.a}, {q.b}); {best}",
        best_residual=best_r,
        best_point=best_xy,
    )
