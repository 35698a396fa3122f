"""Independent checks of the JSON documents the command line prints.

Each checker takes the op's arguments and the parsed document and returns
None when the output is right, or one line saying what is wrong. A check
never trusts the program's own verdict alone: expansions are compared with
the closed-form maps evaluated in exact rationals, preimage witnesses are
pushed through the exact map again, and sweep reports must account for
every sample with finite extrema.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Bound to the original functions at import, before any tracing rebinds the
# package's names, so checking adds nothing to the traced counts.
from quadrant_atlas.polynomial import build_theorem_map, evaluate_exact

EXACT_GRID = 21 * 21  # rational grid check_positivity adds to every sweep
IDENTITY_TOL = 1e-10
LINKING_TOL = 0.01
_POINTS = [
    (Fraction(1, 3), Fraction(7, 5)),
    (Fraction(-2), Fraction(5, 7)),
    (Fraction(3, 2), Fraction(-1, 4)),
]


class NonFinite(ValueError):
    """The document holds NaN or an infinity, which is not valid JSON."""


def parse(text: str) -> dict:
    """Parse one JSON document; NaN, Infinity and overflowing numbers raise
    NonFinite, malformed text raises json.JSONDecodeError."""

    def reject(token: str):
        raise NonFinite(f"non-finite constant {token}")

    def number(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise NonFinite(f"number {token} overflows a double")
        return value

    doc = json.loads(text, parse_constant=reject, parse_float=number)
    if not isinstance(doc, dict):
        raise ValueError("document is not a JSON object")
    return doc


def _closed_forms(x: Fraction, y: Fraction) -> dict[str, tuple[Fraction, Fraction]]:
    tail2 = x**3 * y**2
    tail = x**6 * y**4
    return {
        "f1": (x * x, y * y),
        "f2": (
            (x * y * y + x * x * y - y - 1) ** 2 + tail2,
            (x**3 * y + x * y - x - 1) ** 2 + tail2,
        ),
        "theorem_map": (
            (x**2 * y**4 + x**4 * y**2 - y**2 - 1) ** 2 + tail,
            (x**6 * y**2 + x**2 * y**2 - x**2 - 1) ** 2 + tail,
        ),
    }


def _eval_triples(triples: list, x: Fraction, y: Fraction) -> Fraction:
    return sum((int(c) * x**a * y**b for a, b, c in triples), Fraction(0))


def check_expand(args: dict, doc: dict) -> str | None:
    res = doc["results"]
    if res["composition_equals_theorem_map"] is not True:
        return "composition differs from the theorem map"
    glued = res["theorem_map"]
    if sorted(glued["degrees"]) != [12, 16] or glued["monomials"] != [11, 11]:
        return f"theorem map degrees {glued['degrees']} monomials {glued['monomials']}"
    for x, y in _POINTS:
        expected = _closed_forms(x, y)
        for name, values in expected.items():
            got = (
                _eval_triples(res[name]["component_1"], x, y),
                _eval_triples(res[name]["component_2"], x, y),
            )
            if got != values:
                return f"{name} expansion differs from its closed form at ({x}, {y})"
    return None


_THEOREM_MAP = build_theorem_map()


def check_preimage(args: dict, doc: dict) -> str | None:
    res = doc["results"]
    a, b, tol = Fraction(args["a"]), Fraction(args["b"]), Fraction(args["tol"])
    x, y = res["x"], res["y"]
    if not (isinstance(x, float) and isinstance(y, float)):
        return f"witness ({x!r}, {y!r}) is not a pair of floats"
    fx, fy = Fraction(x), Fraction(y)
    fa = evaluate_exact(_THEOREM_MAP.component1, fx, fy)
    fb = evaluate_exact(_THEOREM_MAP.component2, fx, fy)
    residual = max(abs(fa - a), abs(fb - b)) / max(a, b, Fraction(1))
    if residual > tol:
        return f"exact relative residual {float(residual):.3e} exceeds tol {args['tol']}"
    if not res["residual"] <= args["tol"]:
        return f"reported residual {res['residual']!r} exceeds tol"
    return None


def _report_ok(name: str, report: dict, checked: int) -> str | None:
    if report["checked"] != checked:
        return f"{name}: checked {report['checked']}, expected {checked}"
    if report["failures"] != 0 or report["first_failure_input"] is not None:
        return f"{name}: {report['failures']} failures"
    for key in ("min_component_1", "min_component_2", "max_relative_error"):
        if not isinstance(report[key], (int, float)):
            return f"{name}: {key} is {report[key]!r}"
    return None


def check_sample(args: dict, doc: dict) -> str | None:
    res = doc["results"]
    problem = _report_ok("positivity", res, args["count"] + EXACT_GRID)
    if problem:
        return problem
    if not (res["min_component_1"] > 0 and res["min_component_2"] > 0):
        return f"non-positive minimum {res['min_component_1']!r}, {res['min_component_2']!r}"
    return None


def check_identities(args: dict, doc: dict) -> str | None:
    res = doc["results"]
    checks = res["checks"]
    expected = {
        "f2_equals_h_g": args["count"],
        "g_psi_equals_phi": args["count"],
        "phi_bound": args["count"],
        "mu_gluing": res["gluing_grid"],
    }
    if sorted(checks) != sorted(expected):
        return f"checks {sorted(checks)}"
    for name, count in expected.items():
        problem = _report_ok(name, checks[name], count)
        if problem:
            return problem
    for name in ("f2_equals_h_g", "g_psi_equals_phi"):
        if not checks[name]["max_relative_error"] <= IDENTITY_TOL:
            return f"{name}: relative error {checks[name]['max_relative_error']!r}"
    return None


def check_certify(args: dict, doc: dict) -> str | None:
    pairs = doc["results"]["pairs"]
    if [(p["loop"], p["disc"]) for p in pairs] != [("alpha1", "d1"), ("alpha2", "d2")]:
        return "certificate does not cover alpha1/d1 and alpha2/d2"
    for pair in pairs:
        trans, link = pair["transversality"], pair["linking"]
        name = f"{pair['loop']}/{pair['disc']}"
        if trans["ok"] is not True or len(trans["hit_intervals"]) != 1:
            return f"{name}: transversality {trans['ok']} with {len(trans['hit_intervals'])} hits"
        value = link["value"]
        if min(abs(value - 1.0), abs(value + 1.0)) > LINKING_TOL:
            return f"{name}: linking {value!r} not within {LINKING_TOL} of +-1"
        if link["rounded"] != link["expected"] or abs(link["rounded"]) != 1:
            return f"{name}: linking rounds to {link['rounded']}, expected {link['expected']}"
    return None


CHECKS = {
    "expand": check_expand,
    "preimage": check_preimage,
    "sample": check_sample,
    "identities": check_identities,
    "certify": check_certify,
}


def check(subcommand: str, args: dict, rc: int, text: str) -> str | None:
    """Verdict on one op: None if right, else why it failed."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = parse(text)
        if doc.get("subcommand") != subcommand or doc.get("pass") is not True:
            return f"subcommand {doc.get('subcommand')!r} pass {doc.get('pass')!r}"
        return CHECKS[subcommand](args, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc}"
