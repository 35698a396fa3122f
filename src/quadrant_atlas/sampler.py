"""Seeded random verification sweeps over the map identities and bounds.

Every check draws from one fixed pseudorandom stream: a 64-bit Weyl
sequence pushed through a finalizing mixer, mapped to doubles in [0, 1)
by the usual 53-bit construction. The stream is defined in closed form
by (seed, index), so any sample can be reproduced in isolation and runs
are identical across platforms and thread counts.

The sample stream is split into fixed-size chunks and chunk k runs its
own stream seeded seed + k. Chunks are independent, reports aggregate by
count, min, max and first failure by global index; all of these are
associative and commutative, so parallel and serial runs agree exactly.

Chunks fix the stream; blocks fix only how much of a chunk is evaluated
at once. Each worker evaluates its chunk in blocks of _BLOCK_ROWS rows,
sized so one block's temporaries stay in a core's cache, and merges the
blocks' stats like the chunks'. Every check is elementwise, so neither
the block size nor the thread count changes a bit of any report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .maps import (
    HALF_PI,
    _g_terms,
    _mu_terms,
    _phi_terms,
    _psi_terms,
    _trig_vec,
    eval_h,
)
from .parallel import thread_count
from .polynomial import PolyMap2, build_f2, build_theorem_map, evaluate_exact, to_triples

_MASK64 = (1 << 64) - 1
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB

# samples per reseeded chunk; fixed so the stream layout never depends on
# worker count
CHUNK_SAMPLES = 65536
# rows per evaluation block within a chunk: the positivity probe's 22 power
# arrays of one block (2.9 MB) stay within a core's L2 cache; on a 2-vCPU
# Xeon with 4 MiB L2 per core, 16384 rows ran fastest at two threads and
# within noise of 8192 at one, well ahead of 65536 and 4096 at both
_BLOCK_ROWS = 16384

_IDENTITY_TOL = 1e-10
_BOUND_SLACK = 1e-12
_GLUE_PHI_TOL = 1e-12
_GLUE_MU_TOL = 1e-15


def _mix64(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX_MULT_1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_MULT_2) & _MASK64
    z ^= z >> 31
    return z


def unit_double(seed: int, index: int) -> float:
    """Output number index of the stream for seed, as a double in [0, 1)."""
    z = _mix64((seed + (index + 1) * SPLITMIX_GAMMA) & _MASK64)
    return (z >> 11) * 2.0**-53


def sample_pair(seed: int, sample_index: int) -> tuple[float, float]:
    """The two unit doubles spent on one sample.

    Sample j belongs to chunk j // CHUNK_SAMPLES, whose stream is seeded
    seed + chunk modulo 2^64; in-chunk sample t reads outputs 2t and
    2t + 1, first coordinate first.
    """
    chunk, offset = divmod(sample_index, CHUNK_SAMPLES)
    chunk_seed = (seed + chunk) & _MASK64
    return unit_double(chunk_seed, 2 * offset), unit_double(chunk_seed, 2 * offset + 1)


@dataclass(frozen=True)
class SamplerConfig:
    """Size, seed and square half-width of one verification sweep."""

    count: int
    seed: int
    range: float = 50.0

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError("count must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not (math.isfinite(self.range) and self.range > 0.0):
            raise ValueError("range must be a positive finite half-width")


@dataclass(frozen=True)
class SamplerReport:
    """Aggregated outcome of a sweep.

    The component minima and the relative-error maximum are populated
    with whatever quantity the particular check tracks (documented on
    each check); first_failure_input is the offending input with the
    smallest global sample index, or None on a clean run; nonfinite
    counts the samples whose tracked values or error are NaN or infinite,
    each of which is also a failure.
    """

    checked: int
    failures: int
    min_component_1: float
    min_component_2: float
    max_relative_error: float
    first_failure_input: tuple[float, float] | None
    nonfinite: int = 0


# partial stats: (checked, failures, min1, min2, maxerr, first, nonfinite)
# with first either None or (global_index, input_pair)
_Stats = tuple[int, int, float, float, float, tuple | None, int]

_EMPTY_STATS: _Stats = (0, 0, math.inf, math.inf, 0.0, None, 0)


def _merge(a: _Stats, b: _Stats) -> _Stats:
    first = a[5]
    if first is None or (b[5] is not None and b[5][0] < first[0]):
        first = b[5]
    return (
        a[0] + b[0],
        a[1] + b[1],
        min(a[2], b[2]),
        min(a[3], b[3]),
        max(a[4], b[4]),
        first,
        a[6] + b[6],
    )


def _report(stats: _Stats) -> SamplerReport:
    checked, failures, m1, m2, maxerr, first, nonfinite = stats
    return SamplerReport(
        checked=checked,
        failures=failures,
        min_component_1=m1,
        min_component_2=m2,
        max_relative_error=maxerr,
        first_failure_input=None if first is None else first[1],
        nonfinite=nonfinite,
    )


# ---------------------------------------------------------------------------
# The vectorized sweep: every check evaluates whole chunks of the stream.


def _unit_matrix(seed: int, chunk: int, n: int) -> np.ndarray:
    """n rows of unit-double pairs, bit-identical to sample_pair."""
    chunk_seed = np.uint64((seed + chunk) & _MASK64)
    z = chunk_seed + np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(
        SPLITMIX_GAMMA
    )
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_MULT_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_MULT_2)
    z ^= z >> np.uint64(31)
    unit = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return unit.reshape(n, 2)


def _reduce(base: int, inputs: tuple, v1, v2, err, ok: np.ndarray) -> _Stats:
    """Stats of samples base, base + 1, ...: inputs is the pair of input
    arrays reported on failure, v1 and v2 the tracked quantities, err the
    error array (None when the check tracks none) and ok the mask of
    samples whose check holds.

    A sample fails unless ok holds for it and both tracked values are
    finite, so an overflow fails, and a check written as the comparison
    that holds on success fails every NaN too. Minima and the error
    maximum skip NaN, which the failure count already reports; the
    non-finite count says how many samples had a NaN or an infinity in a
    tracked value or the error.
    """
    finite = np.isfinite(v1) & np.isfinite(v2)
    if err is not None:
        finite &= np.isfinite(err)
    bad = ~(ok & finite)
    failures = int(np.count_nonzero(bad))
    first = None
    if failures:
        i = int(np.argmax(bad))
        first = (base + i, (float(inputs[0][i]), float(inputs[1][i])))
    maxerr = 0.0 if err is None else float(np.fmax.reduce(err))
    return (
        ok.size,
        failures,
        float(np.fmin.reduce(v1)),
        float(np.fmin.reduce(v2)),
        maxerr,
        first,
        ok.size - int(np.count_nonzero(finite)),
    )


def _sweep(cfg: SamplerConfig, probe: Callable[[np.ndarray, np.ndarray], tuple]) -> _Stats:
    """Run probe over the config's stream, chunk by chunk and, within a
    chunk, block by block, and reduce.

    probe maps one block's unit doubles (u1, u2) to the arguments of
    _reduce after base.
    """

    def run(spec: tuple[int, int]) -> _Stats:
        chunk, n = spec
        unit = _unit_matrix(cfg.seed, chunk, n)
        stats = _EMPTY_STATS
        # numpy's error state is per thread, so it is set here and not
        # around the pool; overflowed and NaN samples already count as
        # failures and in nonfinite
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, _BLOCK_ROWS):
                block = unit[lo : lo + _BLOCK_ROWS]
                part = _reduce(chunk * CHUNK_SAMPLES + lo, *probe(block[:, 0], block[:, 1]))
                stats = _merge(stats, part)
        return stats

    plan = [
        (k, min(CHUNK_SAMPLES, cfg.count - start))
        for k, start in enumerate(range(0, cfg.count, CHUNK_SAMPLES))
    ]
    workers = min(thread_count(), len(plan))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, plan))
    else:
        parts = [run(spec) for spec in plan]
    total = _EMPTY_STATS
    for part in parts:
        total = _merge(total, part)
    return total


def _pow_table(base: np.ndarray, top: int) -> list[np.ndarray]:
    table = [np.ones_like(base)]
    for _ in range(top):
        table.append(table[-1] * base)
    return table


def _eval_terms(
    triples: list[tuple[int, int, int]],
    px: list[np.ndarray],
    py: list[np.ndarray],
) -> np.ndarray:
    # term order and association mirror the scalar evaluator exactly, so
    # the vectorized values are bit-identical to evaluate_float
    total = np.zeros_like(px[0])
    for a, b, c in triples:
        total += (c * px[a]) * py[b]
    return total


def _map_on_arrays(fmap: PolyMap2) -> Callable[[np.ndarray, np.ndarray], tuple]:
    """Both components of fmap as one evaluator on arrays."""
    t1, t2 = to_triples(fmap.component1), to_triples(fmap.component2)
    top_x = max(a for a, _, _ in t1 + t2)
    top_y = max(b for _, b, _ in t1 + t2)

    def evaluate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        px, py = _pow_table(x, top_x), _pow_table(y, top_y)
        return _eval_terms(t1, px, py), _eval_terms(t2, px, py)

    return evaluate


def _relative_error(lhs: tuple, rhs: tuple) -> np.ndarray:
    """Largest componentwise |l - r| / max(1, |r|)."""
    return np.maximum.reduce(
        [np.abs(l - r) / np.maximum(1.0, np.abs(r)) for l, r in zip(lhs, rhs)]
    )


# ---------------------------------------------------------------------------
# The five checks.


def check_positivity(cfg: SamplerConfig) -> SamplerReport:
    """Both components of the glued map stay strictly positive.

    Samples the square [-range, range]^2 and records the minimum of each
    component; a sample fails unless both evaluate finite and strictly
    above zero, so an overflow fails too. A fixed 21-by-21 grid of
    half-integers is additionally evaluated in exact rational arithmetic,
    so the verdict cannot be a rounding artifact; the grid contributes to
    checked and to the minima. The relative-error field is unused and
    reported as zero.
    """
    fmap = build_theorem_map()
    evaluate = _map_on_arrays(fmap)
    half = cfg.range

    def probe(u1: np.ndarray, u2: np.ndarray) -> tuple:
        x = (2.0 * u1 - 1.0) * half
        y = (2.0 * u2 - 1.0) * half
        c1, c2 = evaluate(x, y)
        return (x, y), c1, c2, None, (c1 > 0.0) & (c2 > 0.0)

    stats = _sweep(cfg, probe)

    grid_failures = 0
    grid_first = None
    gm1 = gm2 = math.inf
    index = 0
    for i in range(-10, 11):
        for k in range(-10, 11):
            xq, yq = Fraction(i, 2), Fraction(k, 2)
            v1 = evaluate_exact(fmap.component1, xq, yq)
            v2 = evaluate_exact(fmap.component2, xq, yq)
            if v1 <= 0 or v2 <= 0:
                grid_failures += 1
                if grid_first is None:
                    # grid points sort after every stream sample
                    grid_first = (cfg.count + index, (float(xq), float(yq)))
            gm1 = min(gm1, float(v1))
            gm2 = min(gm2, float(v2))
            index += 1
    stats = _merge(stats, (index, grid_failures, gm1, gm2, 0.0, grid_first, 0))
    return _report(stats)


def check_f2_equals_h_g(cfg: SamplerConfig) -> SamplerReport:
    """The outer factor agrees with its surface factorization.

    Samples [0, range]^2 and compares the polynomial components against
    the composite of the quadric projection with the surface embedding,
    componentwise, relative to the reference magnitude floored at one.
    The minima record the reference components, which stay positive on
    the closed quadrant.
    """
    evaluate = _map_on_arrays(build_f2())

    def probe(u1: np.ndarray, u2: np.ndarray) -> tuple:
        u, v = u1 * cfg.range, u2 * cfg.range
        rhs = eval_h(_g_terms(u, v, np.sqrt(u)))
        err = _relative_error(evaluate(u, v), rhs)
        return (u, v), rhs[0], rhs[1], err, err <= _IDENTITY_TOL

    return _report(_sweep(cfg, probe))


def check_g_psi_equals_phi(cfg: SamplerConfig) -> SamplerReport:
    """The chart composed with the embedding agrees with the direct map.

    Samples the open strip rho in [0, 10], theta in (0.01, pi/2 - 0.01);
    the count and seed come from the config while the strip is fixed by
    the chart's domain. Componentwise discrepancy is relative to the
    direct map's magnitude floored at one; the minima record its first
    two components.
    """

    def probe(u1: np.ndarray, u2: np.ndarray) -> tuple:
        rho = u1 * 10.0
        theta = 0.01 + u2 * (HALF_PI - 0.02)
        c, s, w = _trig_vec(theta)
        x, y = _psi_terms(rho, c, s)
        rhs = _phi_terms(rho, c, s, w)
        err = _relative_error(_g_terms(x, y, np.sqrt(x)), rhs)
        return (rho, theta), rhs[0], rhs[1], err, err <= _IDENTITY_TOL

    return _report(_sweep(cfg, probe))


def check_phi_bound(cfg: SamplerConfig) -> SamplerReport:
    """First and third components dominate half the radial coordinate.

    Samples rho in [0, 100], theta in [0, pi/2] (ranges fixed by the
    bound's domain) and evaluates the margin phi1^2 + phi3^2 - rho^2/4.
    A sample fails unless the margin stays at or above the floating slack
    -1e-12 * max(1, rho^2). min_component_1 is the raw margin minimum,
    min_component_2 the slack-scaled one; the error field stays zero.
    """

    def probe(u1: np.ndarray, u2: np.ndarray) -> tuple:
        rho, theta = u1 * 100.0, u2 * HALF_PI
        f1, _, f3 = _phi_terms(rho, *_trig_vec(theta))
        margin = f1 * f1 + f3 * f3 - rho * rho / 4.0
        scale = np.maximum(1.0, rho * rho)
        return (rho, theta), margin, margin / scale, None, margin >= -_BOUND_SLACK * scale

    return _report(_sweep(cfg, probe))


def check_mu_gluing(grid: int) -> SamplerReport:
    """The rho = 0 edge folds onto itself and the quotient map respects it.

    On a uniform theta grid of [0, pi/2], the surface map at rho = 0 must
    agree with its reflection across pi/4 within 1e-12 componentwise, and
    the quotient coordinate must match its reflection within 1e-15. The
    error field holds the largest raw discrepancy of either family;
    min_component_1 tracks the quotient coordinate, min_component_2 the
    second surface component, both informational. Failing grid points
    report the pair (theta, reflected theta).
    """
    if not isinstance(grid, int) or grid < 2:
        raise ValueError("grid must be an integer with at least 2 points")
    theta = HALF_PI * (np.arange(grid) / (grid - 1))
    mirror = HALF_PI - theta
    left = _phi_terms(0.0, *_trig_vec(theta))
    right = _phi_terms(0.0, *_trig_vec(mirror))
    phi_err = np.maximum.reduce([np.abs(l - r) for l, r in zip(left, right)])
    mu = _mu_terms(theta)
    mu_err = np.abs(mu - _mu_terms(mirror))
    ok = (phi_err <= _GLUE_PHI_TOL) & (mu_err <= _GLUE_MU_TOL)
    return _report(_reduce(0, (theta, mirror), mu, left[1], np.fmax(phi_err, mu_err), ok))
