"""Seeded random verification sweeps over the map identities and bounds.

Every sweep draws from one fixed pseudorandom stream, SplitMix64: a
64-bit Weyl sequence pushed through a finalizing mixer, mapped to doubles
in [0, 1) by the usual 53-bit construction. The stream is defined in
closed form by (seed, index), so any sample can be reproduced in
isolation and runs are identical across platforms and thread counts.
_unit_matrix is its one implementation, on numpy's wrapping uint64.

The sample stream is split into fixed-size chunks and chunk k runs its
own stream seeded seed + k. Chunks are independent, reports aggregate by
count, min, max and first failure by global index; all of these are
associative and commutative, so runs at any thread count agree exactly.
Three entry points run the five checks: check_positivity,
check_identities (the two map identities and the parametrization bound)
and check_mu_gluing (phi's fold at rho = 0, on a fixed grid, no stream).
A command starts one pool.

Chunks fix the stream; blocks fix only how much of a chunk is generated
and evaluated at once. A pool task is one block, in stream order:
_unit_matrix generates its rows once, at the block's row offset, and
every check of the sweep evaluates them, so no check writes them. Blocks
are _POSITIVITY_ROWS rows for the positivity check, whose map powers live
in reused per-thread arrays, and _BLOCK_ROWS for the identity checks,
whose probes build their temporaries anew; both sizes were chosen by
timing the sweeps. One _report combines the stats of every block in one
pass. Every check is elementwise, so neither the block size nor the
thread count changes a bit of any report.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps import (
    HALF_PI,
    _g_terms,
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
# rows per block of the identity checks, whose probes build their
# temporaries anew each block; chosen by timing, not by a cache fit: on a
# 2-vCPU Xeon, 32768 rows raised the identities op's peak RSS (38 -> 45 MB,
# BENCH_25.json) and its time (the withdrawn sizes in ROADMAP.md)
_BLOCK_ROWS = 16384
# rows per block of the positivity check, also chosen by timing: 32768
# rows halve a sweep's numpy calls against 16384 (BENCH_25.json), each of
# which releases and retakes the GIL, kept the sample op's time as one pool
# task a block (BENCH_28.json), and 16384 rows took it from 63-71 to 99-108
# ms (the withdrawn sizes in ROADMAP.md); the 14 arrays its probe keeps
# live, 14 * 32768 * 8 bytes = 3.7 MB, exceed a core's 2 MiB L2
_POSITIVITY_ROWS = 32768

# theta points of the gluing check
GLUING_GRID = 1001

_IDENTITY_TOL = 1e-10
_BOUND_SLACK = 1e-12
_GLUE_PHI_TOL = 1e-12


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


def _unit_matrix(seed: int, chunk: int, n: int, offset: int = 0) -> np.ndarray:
    """Samples offset, ..., offset + n - 1 of a chunk, one row of two unit
    doubles each.

    Output i of the stream seeded s is mix(s + (i + 1) * SPLITMIX_GAMMA
    mod 2^64) >> 11, times 2^-53. The chunk's stream is seeded seed + chunk
    mod 2^64, and in-chunk sample t reads its outputs 2t and 2t + 1, first
    coordinate first. The rows are a view of a (2, n) array, so each
    coordinate's column is contiguous; the mixer runs in place with one
    scratch array for its shifts.
    """
    # each coordinate's first output, then two gammas a sample
    first = [(seed + chunk + (2 * offset + j) * SPLITMIX_GAMMA) & _MASK64 for j in (1, 2)]
    step = np.uint64(2 * SPLITMIX_GAMMA & _MASK64)
    z, shifted = np.empty((2, n), dtype=np.uint64), np.empty((2, n), dtype=np.uint64)
    np.multiply(np.arange(n, dtype=np.uint64), step, out=shifted[0])
    np.add(shifted[0], np.array(first, dtype=np.uint64)[:, None], out=z)
    for shift, mult in ((30, _MIX_MULT_1), (27, _MIX_MULT_2)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=shifted), out=z)
        np.multiply(z, np.uint64(mult), out=z)
    np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=shifted), out=z)
    unit = z.view(np.float64)
    np.multiply(np.right_shift(z, np.uint64(11), out=shifted), 2.0**-53, out=unit)
    return unit.T


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
    good = ok & finite
    failures = ok.size - int(np.count_nonzero(good))
    first = None
    if failures:
        i = int(np.argmin(good))
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


def _sweep(cfg: SamplerConfig, probes: list[Callable], rows: int) -> list[list[_Stats]]:
    """Run every probe over the config's stream in one pool, block by block
    of the given rows within each chunk; returns each probe's block stats.

    probe(cfg, u1, u2) maps one block's unit doubles to the arguments of
    _reduce after base. A task is one block, generated once, and every
    probe runs on it, so no probe writes u1 or u2. Tasks are in stream
    order: chunk by chunk, and block by block within a chunk.
    """

    def run(start: int) -> list[_Stats]:
        chunk, lo = divmod(start, CHUNK_SAMPLES)
        n = min(rows, CHUNK_SAMPLES - lo, cfg.count - start)
        block = _unit_matrix(cfg.seed, chunk, n, lo)
        # numpy's error state is per thread, so it is set here and not
        # around the pool; overflowed and NaN samples already count as
        # failures and in nonfinite
        with np.errstate(over="ignore", invalid="ignore"):
            return [_reduce(start, *probe(cfg, block[:, 0], block[:, 1])) for probe in probes]

    chunks = range(0, cfg.count, CHUNK_SAMPLES)
    starts = [c + lo for c in chunks for lo in range(0, CHUNK_SAMPLES, rows) if c + lo < cfg.count]
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(starts))) as pool:
        done = pool.map(run, starts)
    # read once the pool has shut down: this thread then wakes once a
    # worker, not once a task, each wake taking the GIL from a busy worker
    return [list(parts) for parts in zip(*done)]


def _relative_error(lhs: tuple, rhs: tuple) -> np.ndarray:
    """Largest componentwise |l - r| / max(1, |r|)."""
    errs = (np.abs(l - r) / np.maximum(1.0, np.abs(r)) for l, r in zip(lhs, rhs))
    err = next(errs)
    for e in errs:
        np.maximum(err, e, out=err)
    return err


def _positivity_probe(cfg: SamplerConfig, u1: np.ndarray, u2: np.ndarray) -> tuple:
    x, y = ((u * 2.0 - 1.0) * cfg.range for u in (u1, u2))
    c1, c2 = evaluate_map_float(build_theorem_map(), x, y)
    return (x, y), c1, c2, None, (c1 > 0.0) & (c2 > 0.0)


def _f2_probe(cfg: SamplerConfig, u1: np.ndarray, u2: np.ndarray) -> tuple:
    u, v = u1 * cfg.range, u2 * cfg.range
    rhs = eval_h(_g_terms(u, v, np.sqrt(u)))
    err = _relative_error(evaluate_map_float(build_f2(), u, v), rhs)
    return (u, v), rhs[0], rhs[1], err, err <= _IDENTITY_TOL


def _g_psi_probe(cfg: SamplerConfig, u1: np.ndarray, u2: np.ndarray) -> tuple:
    rho = u1 * 10.0
    theta = 0.01 + u2 * (HALF_PI - 0.02)
    c, s, w = _trig_vec(theta)
    x, y = _psi_terms(rho, c, s)
    rhs = _phi_terms(rho, c, s, w)
    err = _relative_error(_g_terms(x, y, np.sqrt(x)), rhs)
    return (rho, theta), rhs[0], rhs[1], err, err <= _IDENTITY_TOL


def _phi_bound_probe(cfg: SamplerConfig, u1: np.ndarray, u2: np.ndarray) -> tuple:
    rho, theta = u1 * 100.0, u2 * HALF_PI
    f1, _, f3 = _phi_terms(rho, *_trig_vec(theta))
    rho2 = rho * rho
    margin = f1 * f1 + f3 * f3 - rho2 / 4.0
    scale = np.maximum(1.0, rho2)
    return (rho, theta), margin, margin / scale, None, margin >= -_BOUND_SLACK * scale


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
    # grid points sort after every stream sample
    parts = _sweep(cfg, [_positivity_probe], _POSITIVITY_ROWS)[0]
    return _report([*parts, _reduce(cfg.count, *_exact_grid())])


@functools.cache
def _exact_grid() -> tuple:
    """_reduce's arguments after base for the theorem map on the 21 x 21
    grid of half-integers, x-major, in exact integers. No argument of a
    sweep changes them, so they are built once a process, as read-only
    arrays."""
    coords, fmap = np.arange(-10, 11) / 2.0, build_theorem_map()
    nums = [evaluate_map_exact(fmap, x, y) for x in coords.tolist() for y in coords.tolist()]
    xs, ys = np.repeat(coords, coords.size), np.tile(coords, coords.size)
    v1, v2 = (np.array([n[k] / n[2] for n in nums]) for k in (0, 1))
    ok = np.array([n1 > 0 and n2 > 0 for n1, n2, _ in nums])
    for a in (xs, ys, v1, v2, ok):
        a.flags.writeable = False
    return (xs, ys), v1, v2, None, ok


def check_identities(cfg: SamplerConfig) -> list[SamplerReport]:
    """The map identities and the parametrization bound, from one sweep
    whose chunks share one pool; three reports, in this order.

    f2 = h o g: samples [0, range]^2 and compares the outer factor's
    polynomial components against the composite of the quadric projection
    with the surface embedding, componentwise, relative to the reference
    magnitude floored at one. The minima record the reference components,
    which stay positive on the closed quadrant.

    g o psi = phi: samples the open strip rho in [0, 10], theta in
    (0.01, pi/2 - 0.01); the count and seed come from the config while the
    strip is fixed by the chart's domain. Componentwise discrepancy is
    relative to the direct map's magnitude floored at one; the minima
    record its first two components.

    The phi bound: samples rho in [0, 100], theta in [0, pi/2] (ranges
    fixed by the bound's domain) and evaluates the margin
    phi1^2 + phi3^2 - rho^2/4. A sample fails unless the margin stays at
    or above the floating slack -1e-12 * max(1, rho^2). min_component_1 is
    the raw margin minimum, min_component_2 the slack-scaled one; the
    error field stays zero.
    """
    probes = [_f2_probe, _g_psi_probe, _phi_bound_probe]
    return [_report(parts) for parts in _sweep(cfg, probes, _BLOCK_ROWS)]


def check_mu_gluing() -> SamplerReport:
    """The rho = 0 edge folds onto itself: phi(0, theta) = phi(0, pi/2 - theta).

    That fold is all the gluing step needs; no certificate step uses a
    gluing weight mu, so none is checked. The name and the JSON key
    mu_gluing stay, since the benchmark's output check compares the key
    set exactly.

    On a uniform grid of GLUING_GRID theta values on [0, pi/2], the
    surface map at rho = 0 must agree with its reflection across pi/4
    within 1e-12 componentwise. The error field holds the largest raw
    discrepancy; min_component_1 and min_component_2 track the first and
    second surface components, both informational. Failing grid points
    report the pair (theta, reflected theta).
    """
    theta = HALF_PI * (np.arange(GLUING_GRID) / (GLUING_GRID - 1))
    mirror = HALF_PI - theta
    left = _phi_terms(0.0, *_trig_vec(theta))
    right = _phi_terms(0.0, *_trig_vec(mirror))
    phi_err = np.maximum.reduce([np.abs(l - r) for l, r in zip(left, right)])
    ok = phi_err <= _GLUE_PHI_TOL
    return _report([_reduce(0, (theta, mirror), left[0], left[1], phi_err, ok)])
