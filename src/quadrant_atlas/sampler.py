"""Seeded random verification sweeps over the map identities and bounds.

Every check draws from one fixed pseudorandom stream, SplitMix64: a
64-bit Weyl sequence pushed through a finalizing mixer, mapped to doubles
in [0, 1) by the usual 53-bit construction. The stream is defined in
closed form by (seed, index), so any sample can be reproduced in
isolation and runs are identical across platforms and thread counts.
_unit_matrix is its one implementation, on numpy's wrapping uint64.

The sample stream is split into fixed-size chunks and chunk k runs its
own stream seeded seed + k. Chunks are independent, reports aggregate by
count, min, max and first failure by global index; all of these are
associative and commutative, so runs at any thread count agree exactly.

Chunks fix the stream; blocks fix only how much of a chunk is evaluated
at once. Each worker evaluates its chunk in blocks of _BLOCK_ROWS rows,
sized so one block's temporaries stay in a core's cache, and one _report
combines the stats of every block of every chunk in one pass. Every check
is elementwise, so neither the block size nor the thread count changes a
bit of any report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
from .polynomial import build_f2, build_theorem_map, evaluate_map_exact, evaluate_map_float

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

# theta points of the gluing check
GLUING_GRID = 1001

_IDENTITY_TOL = 1e-10
_BOUND_SLACK = 1e-12
_GLUE_PHI_TOL = 1e-12
_GLUE_MU_TOL = 1e-15


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


def _report(parts: list[_Stats]) -> SamplerReport:
    """One report from partial stats, which may come in any order: counts
    add, the minima and the error maximum skip a part's NaN, and the first
    failure is the one with the least global index."""
    checked, failures, m1, m2, maxerr, firsts, nonfinite = zip(*parts)
    first = min((f for f in firsts if f is not None), default=None)
    return SamplerReport(
        checked=sum(checked),
        failures=sum(failures),
        min_component_1=min([math.inf, *m1]),
        min_component_2=min([math.inf, *m2]),
        max_relative_error=max([0.0, *maxerr]),
        first_failure_input=None if first is None else first[1],
        nonfinite=sum(nonfinite),
    )


# ---------------------------------------------------------------------------
# The sweep: every check evaluates whole chunks of the stream.


def _unit_matrix(seed: int, chunk: int, n: int) -> np.ndarray:
    """The first n samples of a chunk, one row of two unit doubles each.

    Output i of the stream seeded s is mix(s + (i + 1) * SPLITMIX_GAMMA
    mod 2^64) >> 11, times 2^-53. The chunk's stream is seeded seed + chunk
    mod 2^64, and in-chunk sample t reads its outputs 2t and 2t + 1, first
    coordinate first.
    """
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


def _sweep(cfg: SamplerConfig, probe: Callable[[np.ndarray, np.ndarray], tuple]) -> list[_Stats]:
    """Run probe over the config's stream, chunk by chunk and, within a
    chunk, block by block; returns every block's stats.

    probe maps one block's unit doubles (u1, u2) to the arguments of
    _reduce after base.
    """

    def run(start: int) -> list[_Stats]:
        chunk, n = start // CHUNK_SAMPLES, min(CHUNK_SAMPLES, cfg.count - start)
        unit = _unit_matrix(cfg.seed, chunk, n)
        # numpy's error state is per thread, so it is set here and not
        # around the pool; overflowed and NaN samples already count as
        # failures and in nonfinite
        parts = []
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, _BLOCK_ROWS):
                block = unit[lo : lo + _BLOCK_ROWS]
                parts.append(_reduce(start + lo, *probe(block[:, 0], block[:, 1])))
        return parts

    starts = range(0, cfg.count, CHUNK_SAMPLES)
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(starts))) as pool:
        return [part for parts in pool.map(run, starts) for part in parts]


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
    half = cfg.range

    def probe(u1: np.ndarray, u2: np.ndarray) -> tuple:
        x = (2.0 * u1 - 1.0) * half
        y = (2.0 * u2 - 1.0) * half
        c1, c2 = evaluate_map_float(fmap, x, y)
        return (x, y), c1, c2, None, (c1 > 0.0) & (c2 > 0.0)

    parts = _sweep(cfg, probe)

    # the grid in exact integers, x-major
    coords = np.arange(-10, 11) / 2.0
    halves = coords.tolist()
    nums = [evaluate_map_exact(fmap, x, y) for x in halves for y in halves]
    # grid points sort after every stream sample
    grid = _reduce(
        cfg.count,
        (np.repeat(coords, coords.size), np.tile(coords, coords.size)),
        np.array([n1 / den for n1, _, den in nums]),
        np.array([n2 / den for _, n2, den in nums]),
        None,
        np.array([n1 > 0 and n2 > 0 for n1, n2, _ in nums]),
    )
    return _report([*parts, grid])


def check_f2_equals_h_g(cfg: SamplerConfig) -> SamplerReport:
    """The outer factor agrees with its surface factorization.

    Samples [0, range]^2 and compares the polynomial components against
    the composite of the quadric projection with the surface embedding,
    componentwise, relative to the reference magnitude floored at one.
    The minima record the reference components, which stay positive on
    the closed quadrant.
    """
    f2 = build_f2()

    def probe(u1: np.ndarray, u2: np.ndarray) -> tuple:
        u, v = u1 * cfg.range, u2 * cfg.range
        rhs = eval_h(_g_terms(u, v, np.sqrt(u)))
        err = _relative_error(evaluate_map_float(f2, u, v), rhs)
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


def check_mu_gluing() -> SamplerReport:
    """The rho = 0 edge folds onto itself and the quotient map respects it.

    On a uniform grid of GLUING_GRID theta values on [0, pi/2], the
    surface map at rho = 0 must agree with its reflection across pi/4
    within 1e-12 componentwise, and the quotient coordinate must match its
    reflection within 1e-15. The error field holds the largest raw
    discrepancy of either family; min_component_1 tracks the quotient
    coordinate, min_component_2 the second surface component, both
    informational. Failing grid points report the pair (theta, reflected
    theta).
    """
    theta = HALF_PI * (np.arange(GLUING_GRID) / (GLUING_GRID - 1))
    mirror = HALF_PI - theta
    left = _phi_terms(0.0, *_trig_vec(theta))
    right = _phi_terms(0.0, *_trig_vec(mirror))
    phi_err = np.maximum.reduce([np.abs(l - r) for l, r in zip(left, right)])
    mu = _mu_terms(theta)
    mu_err = np.abs(mu - _mu_terms(mirror))
    ok = (phi_err <= _GLUE_PHI_TOL) & (mu_err <= _GLUE_MU_TOL)
    return _report([_reduce(0, (theta, mirror), mu, left[1], np.fmax(phi_err, mu_err), ok)])
