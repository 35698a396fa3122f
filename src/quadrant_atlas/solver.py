"""Constructive preimages: find (x, y) with f(x, y) close to a target.

Two stages, following the geometry that proves such a point exists:

1. Multistart damped Newton on the surface objective F(rho, theta), the
   composition of the sum-of-squares projection with the surface
   parameterization, over a fixed rho x theta seed lattice. Seeds are
   scanned in row-major order and the first converged one wins, which
   makes the result deterministic.
2. The surface root is carried into the open quadrant (where the outer
   polynomial factor agrees with the surface objective) and polished by
   damped Newton on that factor directly, with iterates clamped to the
   closed quadrant.

The returned point is (sqrt(u), sqrt(v)) of the stage-2 root, and its
residual is always measured by evaluating the exact expanded map, so the
solver cannot grade its own homework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maps import HALF_PI, ParamPoint, Point2, eval_psi, jacobian_F, objective_F
from .polynomial import build_theorem_map, evaluate_float

DELTA_THETA = 1e-6


class SolverFailure(RuntimeError):
    """No seed converged; carries the best residual and point seen."""

    def __init__(self, message: str, best_residual: float, best_point: Point2):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_point = best_point


class RefineFailure(RuntimeError):
    """Direct polish diverged; carries the best iterate."""

    def __init__(self, message: str, best_iterate: Point2):
        super().__init__(message)
        self.best_iterate = best_iterate


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-9
    max_newton_iters: int = 100
    grid_rho: int = 64
    grid_theta: int = 64
    max_backtracks: int = 40

    def __post_init__(self):
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError(
                f"residual_tol must be positive and finite, got {self.residual_tol}"
            )
        for name in ("max_newton_iters", "grid_rho", "grid_theta", "max_backtracks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


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
    """x, y: the witness point; residual: relative sup-norm error of the
    exact map at it; stage: which strategy produced it; newton_iters:
    iterations spent on the winning seed across both stages; seed_index:
    row-major index of the winning seed in its stage's lattice."""

    x: float
    y: float
    residual: float
    stage: str
    newton_iters: int
    seed_index: int


# ---------------------------------------------------------------------------
# Seed lattices.


def _rho_grid(m: float, n: int) -> list[float]:
    # 0 first, then log-spaced over four decades up to m
    if n == 1:
        return [0.0]
    out = [0.0]
    for i in range(1, n):
        frac = (i - 1) / (n - 2) if n > 2 else 1.0
        out.append(m * 10.0 ** (-4.0 * (1.0 - frac)))
    return out


def _theta_grid(n: int, refine_edges: bool) -> list[float]:
    lo, hi = DELTA_THETA, HALF_PI - DELTA_THETA
    if n == 1:
        return [(lo + hi) / 2.0]
    base = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    if not refine_edges:
        return base
    # quadruple the density over the first and last eighth of the strip
    edge = max(1, n // 8)
    extra: list[float] = []
    for i in list(range(edge)) + list(range(n - 1 - edge, n - 1)):
        a, b = base[i], base[i + 1]
        extra.extend(a + (b - a) * k / 4.0 for k in (1, 2, 3))
    return sorted(set(base + extra))


# ---------------------------------------------------------------------------
# Damped Newton, surface stage.


def _surface_residual(p: ParamPoint, a: float, b: float, scale: float) -> float:
    fa, fb = objective_F(p)
    return max(abs(fa - a), abs(fb - b)) / scale


def _clamp_surface(rho: float, theta: float, m: float) -> ParamPoint:
    rho = min(max(rho, 0.0), m)
    theta = min(max(theta, DELTA_THETA), HALF_PI - DELTA_THETA)
    return (rho, theta)


def _newton_surface(
    seed: ParamPoint, a: float, b: float, m: float, cfg: SolverConfig
) -> tuple[bool, ParamPoint, float, int]:
    """(converged, point, residual, iterations) for one seed."""
    scale = max(a, b, 1.0)
    p = seed
    r = _surface_residual(p, a, b, scale)
    for iters in range(1, cfg.max_newton_iters + 1):
        if r <= cfg.residual_tol:
            return True, p, r, iters - 1
        jac = jacobian_F(p)
        det = jac.d1_drho * jac.d2_dtheta - jac.d1_dtheta * jac.d2_drho
        if det == 0.0 or not math.isfinite(det):
            return False, p, r, iters - 1
        fa, fb = objective_F(p)
        ra, rb = fa - a, fb - b
        step_rho = (jac.d2_dtheta * ra - jac.d1_dtheta * rb) / det
        step_theta = (-jac.d2_drho * ra + jac.d1_drho * rb) / det
        tau = 1.0
        for _ in range(cfg.max_backtracks):
            cand = _clamp_surface(p[0] - tau * step_rho, p[1] - tau * step_theta, m)
            rc = _surface_residual(cand, a, b, scale)
            if rc < r:
                p, r = cand, rc
                break
            tau *= 0.5
        else:
            return False, p, r, iters
    return r <= cfg.residual_tol, p, r, cfg.max_newton_iters


def _seed_pairs(q: PreimageQuery, cfg: SolverConfig) -> tuple[list[ParamPoint], float]:
    m = 4.0 * 2.0 * math.sqrt(q.a + q.b)  # constant rule at A^2 + B^2 = a + b
    rhos = _rho_grid(m, cfg.grid_rho)
    thetas = _theta_grid(cfg.grid_theta, min(q.a, q.b) <= 1e-6)
    return [(r, t) for r in rhos for t in thetas], m


def solve_surface(q: PreimageQuery, cfg: SolverConfig) -> ParamPoint:
    """First surface root (rho, theta) with F within tolerance of (a, b)."""
    seeds, m = _seed_pairs(q, cfg)
    best_r, best_p = math.inf, seeds[0]
    for seed in seeds:
        ok, p, r, _ = _newton_surface(seed, q.a, q.b, m, cfg)
        if ok:
            return p
        if r < best_r:
            best_r, best_p = r, p
    raise SolverFailure(
        f"no surface seed converged for target ({q.a}, {q.b}); best residual {best_r:.3e}",
        best_residual=best_r,
        best_point=best_p,
    )


# ---------------------------------------------------------------------------
# Lift and direct stage.


def lift_to_quadrant(p: ParamPoint) -> Point2:
    """Carry a surface root into the open quadrant; needs the angle to sit
    at least DELTA_THETA inside the strip."""
    rho, theta = p
    if not DELTA_THETA <= theta <= HALF_PI - DELTA_THETA:
        raise ValueError(
            f"angle {theta} too close to the strip edge for the quadrant lift"
        )
    return eval_psi((rho, theta))


def _f2_and_jac(u: float, v: float):
    """Outer factor and its Jacobian, in unexpanded closed form."""
    p1 = u * v * v + u * u * v - v - 1.0
    q1 = u**3 * v + u * v - u - 1.0
    tail = u**3 * v * v
    f1 = p1 * p1 + tail
    f2 = q1 * q1 + tail
    d11 = 2.0 * p1 * (v * v + 2.0 * u * v) + 3.0 * u * u * v * v
    d12 = 2.0 * p1 * (2.0 * u * v + u * u - 1.0) + 2.0 * u**3 * v
    d21 = 2.0 * q1 * (3.0 * u * u * v + v - 1.0) + 3.0 * u * u * v * v
    d22 = 2.0 * q1 * (u**3 + u) + 2.0 * u**3 * v
    return f1, f2, d11, d12, d21, d22


def _direct_residual(u: float, v: float, a: float, b: float, scale: float) -> float:
    f1, f2, *_ = _f2_and_jac(u, v)
    return max(abs(f1 - a), abs(f2 - b)) / scale


def _direct_norms(
    u: float, v: float, a: float, b: float, scale: float
) -> tuple[float, float]:
    f1, f2, *_ = _f2_and_jac(u, v)
    ra, rb = (f1 - a) / scale, (f2 - b) / scale
    return max(abs(ra), abs(rb)), ra * ra + rb * rb


def _newton_direct(
    seed: Point2, q: PreimageQuery, cfg: SolverConfig
) -> tuple[bool, Point2, float, int]:
    # Damped least-squares iteration with an adaptive ridge. The outer
    # factor has genuinely singular roots (both bracket terms vanish
    # together with parallel gradients); there an undamped solve blows up
    # or crawls across the residual valley instead of along it, while the
    # ridge keeps the step inside the well-conditioned subspace. Near a
    # regular root the ridge decays and the step reverts to plain Newton.
    # Steps are accepted on the squared 2-norm since that is what the
    # normal equations descend; convergence is judged on the sup norm.
    scale = max(q.a, q.b, 1.0)
    u, v = max(seed[0], 0.0), max(seed[1], 0.0)
    r, m = _direct_norms(u, v, q.a, q.b, scale)
    lam = -1.0
    for iters in range(1, cfg.max_newton_iters + 1):
        if r <= cfg.residual_tol:
            return True, (u, v), r, iters - 1
        f1, f2, d11, d12, d21, d22 = _f2_and_jac(u, v)
        ra, rb = f1 - q.a, f2 - q.b
        g1 = d11 * ra + d21 * rb
        g2 = d12 * ra + d22 * rb
        a11 = d11 * d11 + d21 * d21
        a12 = d11 * d12 + d21 * d22
        a22 = d12 * d12 + d22 * d22
        trace = a11 + a22
        if trace <= 0.0 or not math.isfinite(trace):
            return False, (u, v), r, iters
        if lam < 0.0:
            lam = 1e-3 * trace
        accepted = False
        for _ in range(cfg.max_backtracks):
            det = (a11 + lam) * (a22 + lam) - a12 * a12
            cu = max(u - ((a22 + lam) * g1 - a12 * g2) / det, 0.0)
            cv = max(v - ((a11 + lam) * g2 - a12 * g1) / det, 0.0)
            rc, mc = _direct_norms(cu, cv, q.a, q.b, scale)
            if mc < m:
                u, v, r, m = cu, cv, rc, mc
                # floor keeps det safely positive in floating point
                lam = max(lam * 0.25, 1e-14 * trace)
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            return False, (u, v), r, iters
    return r <= cfg.residual_tol, (u, v), r, cfg.max_newton_iters


def refine_direct(seed: Point2, q: PreimageQuery, cfg: SolverConfig) -> Point2:
    """Polish a quadrant seed against the outer factor; iterates stay in
    the closed quadrant. Divergence raises RefineFailure."""
    ok, point, r, _ = _newton_direct(seed, q, cfg)
    if not ok:
        raise RefineFailure(
            f"direct refinement stalled at residual {r:.3e}", best_iterate=point
        )
    return point


# ---------------------------------------------------------------------------
# Full pipeline.


def _official_residual(x: float, y: float, q: PreimageQuery) -> float:
    f = build_theorem_map()
    fa = evaluate_float(f.component1, x, y)
    fb = evaluate_float(f.component2, x, y)
    return max(abs(fa - q.a), abs(fb - q.b)) / max(q.a, q.b, 1.0)


def _fallback_seeds(q: PreimageQuery) -> list[Point2]:
    # direct multistart lattice: log-spaced magnitudes in both coordinates
    mags = [10.0 ** (k / 2.0) for k in range(-8, 9)]
    return [(u, v) for u in mags for v in mags]


def preimage(q: PreimageQuery, cfg: SolverConfig = SolverConfig()) -> PreimageResult:
    """Witness point for the target, or SolverFailure if every seed fails.

    The reported residual is computed from the exact expanded map, so a
    result that passes came from the theorem's own polynomial.
    """
    seeds, m = _seed_pairs(q, cfg)
    best_r, best_xy = math.inf, (0.0, 0.0)
    for idx, seed in enumerate(seeds):
        ok, p, _, it1 = _newton_surface(seed, q.a, q.b, m, cfg)
        if not ok:
            continue
        try:
            lifted = lift_to_quadrant(p)
            ok2, (u, v), _, it2 = _newton_direct(lifted, q, cfg)
        except (ValueError, OverflowError):
            continue
        if not ok2:
            continue
        x, y = math.sqrt(u), math.sqrt(v)
        res = _official_residual(x, y, q)
        if res <= cfg.residual_tol:
            return PreimageResult(
                x=x,
                y=y,
                residual=res,
                stage="surface-seeded",
                newton_iters=it1 + it2,
                seed_index=idx,
            )
        if res < best_r:
            best_r, best_xy = res, (x, y)

    for idx, seed in enumerate(_fallback_seeds(q)):
        ok, (u, v), _, iters = _newton_direct(seed, q, cfg)
        if not ok:
            continue
        x, y = math.sqrt(u), math.sqrt(v)
        res = _official_residual(x, y, q)
        if res <= cfg.residual_tol:
            return PreimageResult(
                x=x,
                y=y,
                residual=res,
                stage="direct-fallback",
                newton_iters=iters,
                seed_index=idx,
            )
        if res < best_r:
            best_r, best_xy = res, (x, y)

    raise SolverFailure(
        f"no preimage found for target ({q.a}, {q.b}); best residual {best_r:.3e}",
        best_residual=best_r,
        best_point=best_xy,
    )
