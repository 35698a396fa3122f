"""Constructive preimages: find (x, y) with f(x, y) close to a target.

Every candidate is polished by one damped least-squares iteration on the
outer factor h . g over the closed quadrant (u, v) = (x^2, y^2), its value
and Jacobian taken from the maps bodies of g, its partials and h. The
candidates form one stream, tried in order:

1. Surface roots. Multistart damped Newton on the surface objective
   F(rho, theta), the composition of the sum-of-squares projection with
   the surface parameterization, over one rho x theta seed lattice for
   every target (theta evenly spaced on [DELTA_THETA, pi/2 - DELTA_THETA]).
   The seeds run as numpy lanes in lockstep, in row-major blocks of 16
   that double up to a cap of 2^13 // MAX_BACKTRACKS lanes; each round
   takes one Newton step in every live lane and tries all its step
   halvings in one array. Each converged root, in ascending seed index,
   is carried into the open quadrant, where the outer factor agrees with
   the surface objective. Blocks run only as the stream is consumed, so
   the result is the one a seed-by-seed scan gives, bit for bit.
2. Direct seeds: a 17 x 17 lattice of magnitudes 10^(k/2), k = -8..8.

The first polished point whose residual passes wins; the returned point
is (sqrt(u), sqrt(v)), and its residual is always measured by evaluating
the exact expanded map, so the solver cannot grade its own homework. A
value that overflows is inf or NaN, which never descends, so such a
seed fails quietly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import (
    HALF_PI,
    Point2,
    _dF_terms,
    _dg_terms,
    _h_chain,
    _phi_terms,
    _trig_vec,
    eval_g,
    eval_h,
    eval_psi,
)
from .polynomial import build_theorem_map, evaluate_float

DELTA_THETA = 1e-6
# Newton budget per seed, step halvings per Newton step, and the surface
# seed lattice's rho x theta size
MAX_NEWTON_ITERS = 100
MAX_BACKTRACKS = 40
GRID_RHO = 64
GRID_THETA = 64


class SolverFailure(RuntimeError):
    """No seed converged; carries the best residual and point seen."""

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
    out = [0.0]
    for i in range(1, n):
        frac = (i - 1) / (n - 2) if n > 2 else 1.0
        out.append(m * 10.0 ** (-4.0 * (1.0 - frac)))
    return out


def _theta_grid(n: int) -> list[float]:
    lo, hi = DELTA_THETA, HALF_PI - DELTA_THETA
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# Damped Newton, surface stage, in lockstep lanes.

# lanes x backtracks elements per candidate array; caps a seed block at
# 204 lanes at MAX_BACKTRACKS = 40, which bounds the kernel's
# temporaries (a few dozen arrays of this many doubles)
_LANE_ELEMENTS = 2**13
_FIRST_BLOCK = 16


def _residual_lanes(rho, theta, a: float, b: float, scale: float):
    """F = h . phi at every (rho, theta) and the scaled sup-norm residual.

    The max is Python's max(da, db), which keeps da unless db > da, so a
    NaN lands where the scalar expression puts it.
    """
    fa, fb = eval_h(_phi_terms(rho, *_trig_vec(theta)))
    da, db = np.abs(fa - a), np.abs(fb - b)
    return fa, fb, np.where(db > da, db, da) / scale


def _clamp_lanes(v, lo: float, hi: float):
    """min(max(v, lo), hi) with Python's semantics, NaN passing through."""
    v = np.where(v < lo, lo, v)
    return np.where(v > hi, hi, v)


def _newton_lanes(rho, theta, a: float, b: float, m: float, cfg: SolverConfig):
    """Damped Newton on F from every seed (rho[i], theta[i]) at once.

    Returns arrays (converged, rho, theta, residual, iterations). Each lane
    runs the one-seed iteration: a full Newton step, halved until the
    residual drops, at most MAX_BACKTRACKS times, with iterates clamped to
    [0, m] x [DELTA_THETA, pi/2 - DELTA_THETA]. A lane stops when it
    converges, when its Jacobian is singular or not finite, or when no
    step length descends. Every step length is tried in one array per
    round and each lane takes the longest that descends; the halvings are
    exact, so each lane reproduces the one-seed loop bit for bit.
    Non-finite candidates never descend, so they end a lane quietly.
    """
    n, tol = rho.size, cfg.residual_tol
    scale = max(a, b, 1.0)
    taus = np.ldexp(1.0, -np.arange(MAX_BACKTRACKS))
    out_ok = np.zeros(n, dtype=bool)
    out_rho, out_theta, out_r = np.empty(n), np.empty(n), np.empty(n)
    out_iters = np.empty(n, dtype=int)

    def settle(stop, ok, iters):
        # record the lanes in stop as finished; returns the mask of the rest
        if stop.any():
            ids = lane[stop]
            out_ok[ids], out_iters[ids] = ok, iters
            out_rho[ids], out_theta[ids], out_r[ids] = rho[stop], theta[stop], r[stop]
        return ~stop

    lane = np.arange(n)
    with np.errstate(all="ignore"):
        fa, fb, r = _residual_lanes(rho, theta, a, b, scale)
        for done in range(MAX_NEWTON_ITERS):
            go = settle(r <= tol, True, done)
            lane, rho, theta, r, fa, fb = (v[go] for v in (lane, rho, theta, r, fa, fb))
            if not lane.size:
                break
            d1_drho, d1_dtheta, d2_drho, d2_dtheta = _dF_terms(rho, *_trig_vec(theta))
            det = d1_drho * d2_dtheta - d1_dtheta * d2_drho
            ra, rb = fa - a, fb - b
            step_rho = (d2_dtheta * ra - d1_dtheta * rb) / det
            step_theta = (-d2_drho * ra + d1_drho * rb) / det

            go = settle((det == 0.0) | ~np.isfinite(det), False, done)
            lane, rho, theta, r, step_rho, step_theta = (
                v[go] for v in (lane, rho, theta, r, step_rho, step_theta)
            )
            # one row per lane, one column per step length
            c_rho = _clamp_lanes(rho[:, None] - taus * step_rho[:, None], 0.0, m)
            c_theta = _clamp_lanes(
                theta[:, None] - taus * step_theta[:, None], DELTA_THETA, HALF_PI - DELTA_THETA
            )
            c_fa, c_fb, c_r = _residual_lanes(c_rho, c_theta, a, b, scale)
            descends = c_r < r[:, None]
            go = np.flatnonzero(settle(~descends.any(axis=1), False, done + 1))
            pick = (go, descends[go].argmax(axis=1))
            lane = lane[go]
            rho, theta, fa, fb, r = c_rho[pick], c_theta[pick], c_fa[pick], c_fb[pick], c_r[pick]
        converged = r <= tol
        settle(converged, True, MAX_NEWTON_ITERS)
        settle(~converged, False, MAX_NEWTON_ITERS)
    return out_ok, out_rho, out_theta, out_r, out_iters


def _seed_lattice(q: PreimageQuery) -> tuple[np.ndarray, np.ndarray, float]:
    """The rho x theta seed lattice in row-major order, as a rho array and
    a theta array, and the rho bound m."""
    m = 4.0 * 2.0 * math.sqrt(q.a + q.b)  # constant rule at A^2 + B^2 = a + b
    rhos = np.array(_rho_grid(m, GRID_RHO))
    thetas = np.array(_theta_grid(GRID_THETA))
    return np.repeat(rhos, thetas.size), np.tile(thetas, rhos.size), m


def _surface_runs(q: PreimageQuery, cfg: SolverConfig, rho, theta, m: float):
    """(converged, point, residual, iterations) of the surface Newton from
    each seed of the lattice (rho, theta, m), in row-major seed order.

    Seeds run in lockstep blocks of 16 lanes, doubling up to the cap, and
    a block only runs once the caller has taken every result before it.
    """
    cap = max(1, _LANE_ELEMENTS // MAX_BACKTRACKS)
    start, size = 0, min(_FIRST_BLOCK, cap)
    while start < rho.size:
        block = slice(start, start + size)
        ok, p_rho, p_theta, r, iters = _newton_lanes(
            rho[block], theta[block], q.a, q.b, m, cfg
        )
        points = zip(p_rho.tolist(), p_theta.tolist())
        yield from zip(ok.tolist(), points, r.tolist(), iters.tolist())
        start, size = start + size, min(2 * size, cap)


# ---------------------------------------------------------------------------
# Direct stage.


def _direct_norms(u: float, v: float, a: float, b: float, scale: float):
    """Scaled sup and squared 2-norms of the residual at (u, v), and the
    values g(u, v) and h(g) they came from, which the next step reuses."""
    g = eval_g((u, v))
    f = eval_h(g)
    ra, rb = (f[0] - a) / scale, (f[1] - b) / scale
    return max(abs(ra), abs(rb)), ra * ra + rb * rb, g, f


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
    r, m, g, f = _direct_norms(u, v, q.a, q.b, scale)
    lam = -1.0
    for iters in range(1, MAX_NEWTON_ITERS + 1):
        if r <= cfg.residual_tol:
            return True, (u, v), r, iters - 1
        d11, d12, d21, d22 = _h_chain(g, *_dg_terms(u, v, math.sqrt(u)))
        ra, rb = f[0] - q.a, f[1] - q.b
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
        for _ in range(MAX_BACKTRACKS):
            det = (a11 + lam) * (a22 + lam) - a12 * a12
            if det == 0.0:
                # a ridge set from an earlier, much smaller trace is lost in
                # a11 a22 - a12^2 rounding; reject the step like a rise
                lam *= 4.0
                continue
            cu = max(u - ((a22 + lam) * g1 - a12 * g2) / det, 0.0)
            cv = max(v - ((a11 + lam) * g2 - a12 * g1) / det, 0.0)
            rc, mc, gc, fc = _direct_norms(cu, cv, q.a, q.b, scale)
            if mc < m:
                u, v, r, m, g, f = cu, cv, rc, mc, gc, fc
                # floor keeps det safely positive in floating point
                lam = max(lam * 0.25, 1e-14 * trace)
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            return False, (u, v), r, iters
    return r <= cfg.residual_tol, (u, v), r, MAX_NEWTON_ITERS


# ---------------------------------------------------------------------------
# Full pipeline.


def _official_residual(x: float, y: float, q: PreimageQuery) -> float:
    f = build_theorem_map()
    fa = evaluate_float(f.component1, x, y)
    fb = evaluate_float(f.component2, x, y)
    return max(abs(fa - q.a), abs(fb - q.b)) / max(q.a, q.b, 1.0)


def _candidates(q: PreimageQuery, cfg: SolverConfig):
    """Quadrant seeds for the direct polish, in the order they are tried:
    (stage, seed_index, seed, surface_iters) for each converged surface
    root carried into the quadrant, then for each point of the direct
    lattice, log-spaced magnitudes in both coordinates. The lattice and
    the clamp keep every surface angle in [DELTA_THETA, pi/2 - DELTA_THETA],
    inside the open strip where psi is defined."""
    runs = _surface_runs(q, cfg, *_seed_lattice(q))
    for idx, (ok, p, _, iters) in enumerate(runs):
        if ok:
            yield "surface-seeded", idx, eval_psi(p), iters
    mags = [10.0 ** (k / 2.0) for k in range(-8, 9)]
    for idx, seed in enumerate((u, v) for u in mags for v in mags):
        yield "direct-fallback", idx, seed, 0


def preimage(q: PreimageQuery, cfg: SolverConfig = SolverConfig()) -> PreimageResult:
    """Witness point for the target, or SolverFailure if every seed fails.

    The reported residual is computed from the exact expanded map, so a
    result that passes came from the theorem's own polynomial.
    """
    best_r, best_xy = math.inf, (0.0, 0.0)
    for stage, idx, seed, surface_iters in _candidates(q, cfg):
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
                stage=stage,
                newton_iters=surface_iters + iters,
                seed_index=idx,
            )
        if res < best_r:
            best_r, best_xy = res, (x, y)

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
