"""Command line front end.

Five subcommands: expand (exact expansions and the composition verdict),
preimage (level-curve solver for one target), certify (the closed-form
transversality certificate and the two linking sums for one disc scale),
sample (the positivity sweep) and identities (the remaining verification
sweeps). Every subcommand takes --format text|json; JSON documents share
the layout

    {"subcommand", "params", "results", "pass", "wall_time_ms"}

which run() alone builds: params echo the parsed arguments in parser
order, and results start with the package version. Documents are
byte-identical between runs with the same arguments apart from
wall_time_ms. Exit codes: 0 all checks passed, 1 a check failed,
2 invalid arguments, 3 the solver did not converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from . import __version__
from .parallel import thread_count
from .polynomial import (
    PolyMap2,
    SparsePolynomial,
    build_f1,
    build_f2,
    build_theorem_map,
    compose,
    stats,
    to_text,
    to_triples,
)
from .sampler import (
    GLUING_GRID,
    SamplerConfig,
    check_identities,
    check_mu_gluing,
    check_positivity,
)
from .solver import PreimageQuery, SolverConfig, SolverFailure, preimage
from .topology import (
    ALPHA1_D1_SIGN,
    ALPHA2_D2_SIGN,
    MIN_SEGMENTS,
    BoundaryLoop,
    DegenerateGeometryError,
    _circle,
    _loop_points,
    gauss_linking,
    make_tube,
    transversality_exact,
)

_LINKING_TOL = 0.01


class _UsageError(Exception):
    """Bad argument values discovered after argparse; maps to exit 2."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once: parse_args leaves the parser as it was and returns a
    # fresh namespace, and the build costs about a millisecond
    parser = argparse.ArgumentParser(
        prog="quadrant-atlas",
        description="expand, solve and certify the open-quadrant polynomial map",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output style (default text)",
        )

    p_expand = sub.add_parser("expand", help="canonical expansions and stats")
    add_format(p_expand)

    p_pre = sub.add_parser("preimage", help="solve one target in the open quadrant")
    p_pre.add_argument("--target", required=True, metavar="A,B", help="target point")
    p_pre.add_argument(
        "--tol", type=float, default=SolverConfig.residual_tol, help="relative residual bound"
    )
    add_format(p_pre)

    p_cert = sub.add_parser("certify", help="transversality and linking certificates")
    p_cert.add_argument("--A", required=True, type=float, help="disc radius")
    p_cert.add_argument("--B", required=True, type=float, help="height scale")
    p_cert.add_argument(
        "--segments", type=int, default=4096, help="quadrature segments per curve"
    )
    p_cert.add_argument(
        "--dump-points", metavar="FILE", default=None, help="write sampled curves as CSV"
    )
    add_format(p_cert)

    p_sample = sub.add_parser("sample", help="seeded positivity sweep")
    p_sample.add_argument("--count", required=True, type=int, help="sample count")
    p_sample.add_argument("--seed", required=True, type=int, help="stream seed")
    p_sample.add_argument(
        "--range", type=float, default=SamplerConfig.range, help="square half-width"
    )
    add_format(p_sample)

    p_ident = sub.add_parser("identities", help="identity, bound and gluing sweeps")
    p_ident.add_argument("--count", required=True, type=int, help="sample count")
    p_ident.add_argument("--seed", required=True, type=int, help="stream seed")
    add_format(p_ident)

    return parser


# ---------------------------------------------------------------------------
# Serialization helpers.


def _poly_payload(p: SparsePolynomial) -> list[list[Any]]:
    # exponents stay integers, coefficients become decimal strings
    return [[a, b, str(c)] for a, b, c in to_triples(p)]


def _map_payload(fmap: PolyMap2) -> dict[str, Any]:
    d1, n1 = stats(fmap.component1)
    d2, n2 = stats(fmap.component2)
    return {
        "component_1": _poly_payload(fmap.component1),
        "component_2": _poly_payload(fmap.component2),
        "degrees": [int(d1), int(d2)],
        "monomials": [n1, n2],
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results, exit code, text lines);
# run() adds the params echo and the version.


def _run_expand(args) -> tuple[dict, int, list[str]]:
    f1 = build_f1()
    f2 = build_f2()
    fmap = build_theorem_map()
    composed = PolyMap2(
        compose(f2.component1, f1.component1, f1.component2),
        compose(f2.component2, f1.component1, f1.component2),
    )
    equal = composed == fmap

    glued = _map_payload(fmap)
    (d1, d2), (n1, n2) = glued["degrees"], glued["monomials"]
    glued["total_degree"] = d1 + d2
    glued["total_monomials"] = n1 + n2
    results = {
        "f1": _map_payload(f1),
        "f2": _map_payload(f2),
        "theorem_map": glued,
        "composition_equals_theorem_map": equal,
    }

    lines = [
        f"f1 = ({to_text(f1.component1)}, {to_text(f1.component2)})",
        f"f2 component 1 = {to_text(f2.component1)}",
        f"f2 component 2 = {to_text(f2.component2)}",
        f"map component 1 (degree {d1}, {n1} monomials):",
        f"  {to_text(fmap.component1)}",
        f"map component 2 (degree {d2}, {n2} monomials):",
        f"  {to_text(fmap.component2)}",
        f"total degree {d1 + d2}, total monomials {n1 + n2}",
        f"composition equals the glued map: {'yes' if equal else 'NO'}",
    ]
    return results, 0 if equal else 1, lines


def _run_preimage(args) -> tuple[dict, int, list[str]]:
    parts = args.target.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--target expects A,B with two decimals, got {args.target!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--target components must be decimals, got {args.target!r}")
    try:
        query = PreimageQuery(a, b)
        cfg = SolverConfig(residual_tol=args.tol)
    except ValueError as exc:
        raise _UsageError(str(exc))

    args.target = [a, b]  # params echo the parsed target, not the string
    try:
        result = preimage(query, cfg)
    except SolverFailure as exc:
        results = {"error": str(exc), "best_residual": exc.best_residual}
        return results, 3, [f"solver did not converge: {exc}"]
    lines = [
        f"target ({a!r}, {b!r})",
        f"witness x={result.x!r} y={result.y!r}",
        f"residual {result.residual:.3e} "
        f"({result.newton_iters} iterations, seed {result.seed_index})",
    ]
    return dataclasses.asdict(result), 0 if result.residual <= args.tol else 1, lines


def _dump_certify_points(path: str, loops, tubes, segments: int) -> None:
    curves = []
    for loop in loops:
        t = np.arange(segments) * (loop.t_max / segments)
        curves.append((loop.variant, t, _loop_points(loop, t)))
    for tube in tubes:
        s = np.arange(segments) * (math.tau / segments)
        curves.append((f"{tube.disc.variant}_boundary", s, _circle(tube.disc, s)[0]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("curve,param,x,y,z\n")
        for name, params, points in curves:
            for p, (x, y, z) in zip(params.tolist(), points.tolist()):
                handle.write(f"{name},{p!r},{x!r},{y!r},{z!r}\n")


# the paper's two certificates: each loop links its disc with this sign
_PAIRS = (("alpha1", "d1", ALPHA1_D1_SIGN), ("alpha2", "d2", ALPHA2_D2_SIGN))


def _linking_sum(args, *sum_args):
    """One linking sum of certify, its failures as usage errors: degenerate
    geometry, and a segment count whose arrays cannot be allocated."""
    try:
        return gauss_linking(*sum_args)
    except DegenerateGeometryError as exc:
        raise _UsageError(f"no linking certificate at A={args.A!r}, B={args.B!r}: {exc}")
    except MemoryError:
        raise _UsageError(f"out of memory: --segments {args.segments}")


def _run_certify(args) -> tuple[dict, int, list[str]]:
    if args.segments < MIN_SEGMENTS:
        raise _UsageError(f"--segments must be at least {MIN_SEGMENTS}, got {args.segments}")
    try:
        threads = thread_count()  # a bad QUADRANT_ATLAS_THREADS exits 2 before any work
        tubes = [make_tube(args.A, args.B, disc_name) for _, disc_name, _ in _PAIRS]
    except ValueError as exc:
        raise _UsageError(str(exc))
    loops = [BoundaryLoop(loop_name, tube.m) for (loop_name, _, _), tube in zip(_PAIRS, tubes)]

    crossings = [transversality_exact(loop, tube) for loop, tube in zip(loops, tubes)]
    sums = [(loop, tube.disc, args.segments, args.segments) for loop, tube in zip(loops, tubes)]
    # pair 2's sum runs on a worker while this thread runs pair 1's; when
    # both fail, pair 1's error is the one reported
    if threads > 1:
        with ThreadPoolExecutor(max_workers=1) as pool:
            second = pool.submit(_linking_sum, args, *sums[1])
            links = [_linking_sum(args, *sums[0]), second.result()]
    else:
        links = [_linking_sum(args, *pair) for pair in sums]

    passed = True
    pairs, pair_lines = [], []
    for (loop_name, disc_name, sign), trans, link in zip(_PAIRS, crossings, links):
        passed = passed and trans.ok and abs(link.value - sign) <= _LINKING_TOL
        fields = list(dataclasses.asdict(link).items())
        pairs.append(
            {
                "loop": loop_name,
                "disc": disc_name,
                "transversality": dataclasses.asdict(trans),
                # the expected linking number right after the rounded one
                "linking": dict([*fields[:2], ("expected", sign), *fields[2:]]),
            }
        )
        [(lo, hi)] = trans.hit_intervals
        name = f"{loop_name}/{disc_name}"
        pair_lines += [
            f"{name}: transversality {'ok' if trans.ok else 'FAILED'}, "
            f"hit interval ({lo:.6g}, {hi:.6g})",
            f"{name}: linking {link.value:+.6f} rounds to {link.rounded:+d} (expected {sign:+d})",
        ]

    if args.dump_points is not None:
        try:
            _dump_certify_points(args.dump_points, loops, tubes, args.segments)
        except OSError as exc:
            raise _UsageError(f"cannot write --dump-points file: {exc}")

    # the last tube's constants stand for both: they depend on A and B only
    tube = tubes[-1]
    results = {
        "tube": {"m0": tube.m0, "m": tube.m, "epsilon": tube.epsilon},
        "orientation_signs": {f"{loop}_{disc}": sign for loop, disc, sign in _PAIRS},
        "pairs": pairs,
    }
    lines = [
        f"discs at A={args.A!r}, B={args.B!r}: m0={tube.m0!r}, epsilon={tube.epsilon!r}",
        *pair_lines,
    ]
    if args.dump_points is not None:
        lines.append(f"curve samples written to {args.dump_points}")
    return results, 0 if passed else 1, lines


def _run_sample(args) -> tuple[dict, int, list[str]]:
    try:
        cfg = SamplerConfig(count=args.count, seed=args.seed, range=args.range)
        thread_count()  # a bad QUADRANT_ATLAS_THREADS exits 2 before the sweep
    except ValueError as exc:
        raise _UsageError(str(exc))
    try:
        report = check_positivity(cfg)
    except MemoryError:  # the sweep's task list for this count cannot be held
        raise _UsageError(f"out of memory: --count {args.count}")
    passed = report.failures == 0
    results = {"check": "positivity", **dataclasses.asdict(report)}
    lines = [
        f"positivity: checked {report.checked}, failures {report.failures}",
        f"component minima {report.min_component_1!r}, {report.min_component_2!r}",
    ]
    if report.first_failure_input is not None:
        lines.append(f"first failure at input {report.first_failure_input}")
    return results, 0 if passed else 1, lines


def _run_identities(args) -> tuple[dict, int, list[str]]:
    try:
        cfg = SamplerConfig(count=args.count, seed=args.seed)
        thread_count()  # a bad QUADRANT_ATLAS_THREADS exits 2 before the sweeps
    except ValueError as exc:
        raise _UsageError(str(exc))
    try:
        sweeps = check_identities(cfg)
    except MemoryError:  # the sweep's task list for this count cannot be held
        raise _UsageError(f"out of memory: --count {args.count}")
    names = ("f2_equals_h_g", "g_psi_equals_phi", "phi_bound", "mu_gluing")
    reports = dict(zip(names, [*sweeps, check_mu_gluing()]))
    passed = all(r.failures == 0 for r in reports.values())
    results = {
        "gluing_grid": GLUING_GRID,
        "checks": {name: dataclasses.asdict(r) for name, r in reports.items()},
    }
    lines = []
    for name, report in reports.items():
        verdict = "ok" if report.failures == 0 else "FAILED"
        lines.append(
            f"{name}: checked {report.checked}, failures {report.failures}, "
            f"max error {report.max_relative_error:.3e} [{verdict}]"
        )
    return results, 0 if passed else 1, lines


_HANDLERS = {
    "expand": _run_expand,
    "preimage": _run_preimage,
    "certify": _run_certify,
    "sample": _run_sample,
    "identities": _run_identities,
}


def _finite_or_null(value: Any) -> Any:
    """value with every non-finite float replaced by None: JSON has no NaN
    or infinities, so they are written as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _emit(doc: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(_finite_or_null(doc), indent=2, allow_nan=False))
    else:
        for line in lines:
            print(line)
        print("PASS" if doc["pass"] else "FAIL")


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, print one report; returns the exit code."""
    args = _build_parser().parse_args(argv)

    start = time.perf_counter()
    try:
        results, code, lines = _HANDLERS[args.subcommand](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = int(round((time.perf_counter() - start) * 1000.0))

    # the parsed arguments in parser order, so format comes last
    params = {k: v for k, v in vars(args).items() if k != "subcommand"}
    doc = {
        "subcommand": args.subcommand,
        "params": params,
        "results": {"version": __version__, **results},
        "pass": code == 0,
        "wall_time_ms": elapsed,
    }
    try:
        _emit(doc, args.format, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: the verdict stands, and stdout is pointed
        # at the null device so the flush at interpreter exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
