"""Command-line contract: JSON schema, exit codes, determinism.

Only the JSON output is asserted in detail; text mode is checked for the
final verdict line and nothing else, so the human summary can evolve.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest

import quadrant_atlas
import quadrant_atlas.cli as cli
from quadrant_atlas.solver import SolverFailure

_TOP_KEYS = ["subcommand", "params", "results", "pass", "wall_time_ms"]


def run_cli(args, capsys):
    try:
        code = cli.run(args)
    except SystemExit as exc:  # argparse's own rejections
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert err == ""
    doc = json.loads(out)
    assert list(doc.keys()) == _TOP_KEYS
    assert isinstance(doc["wall_time_ms"], int)
    return code, doc


def strip_wall_time(out: str) -> str:
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out)


def test_expand_json_contains_the_headline_numbers(capsys):
    code, doc = run_json(["expand", "--format", "json"], capsys)
    assert code == 0
    assert doc["pass"] is True
    glued = doc["results"]["theorem_map"]
    assert glued["total_degree"] == 28
    assert glued["total_monomials"] == 22
    assert glued["degrees"] == [12, 16]
    assert glued["monomials"] == [11, 11]
    assert doc["results"]["composition_equals_theorem_map"] is True
    # canonical order puts the leading monomial first; coefficients are
    # decimal strings
    assert glued["component_1"][0] == [8, 4, "1"]
    assert doc["results"]["f1"]["component_1"] == [[2, 0, "1"]]
    assert doc["results"]["version"] == cli.__version__


def test_expand_text_ends_with_pass(capsys):
    code, out, err = run_cli(["expand"], capsys)
    assert code == 0
    assert out.rstrip().endswith("PASS")


def test_preimage_json_solves_the_known_pair(capsys):
    code, doc = run_json(["preimage", "--target", "241,52", "--json"], capsys)
    assert code == 0
    assert doc["pass"] is True
    assert doc["params"]["target"] == [241.0, 52.0]
    res = doc["results"]
    assert res["residual"] <= 1e-9
    assert abs(res["x"] - 1.0) < 1e-6
    assert abs(res["y"] - 2.0) < 1e-6
    assert res["stage"] in ("surface-seeded", "direct-fallback")


def test_preimage_json_flag_matches_format_flag(capsys):
    _, out1, _ = run_cli(["preimage", "--target", "2,3", "--json"], capsys)
    _, out2, _ = run_cli(["preimage", "--target", "2,3", "--format", "json"], capsys)
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_preimage_rejects_bad_targets(capsys):
    for target in ("1", "1,2,3", "x,y", "0,1", "-1,2"):
        code, out, err = run_cli(["preimage", "--target", target], capsys)
        assert code == 2, target
        assert err != ""


def test_preimage_maps_solver_failure_to_exit_3(capsys, monkeypatch):
    def explode(query, cfg):
        raise SolverFailure("no convergence", best_residual=0.5, best_point=(1.0, 1.0))

    monkeypatch.setattr(cli, "preimage", explode)
    code, out, err = run_cli(
        ["preimage", "--target", "1,1", "--format", "json"], capsys
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["results"]["best_residual"] == 0.5


def test_certify_json_certificate_shape(capsys):
    code, doc = run_json(
        ["certify", "--A", "1", "--B", "2", "--segments", "512", "--grid", "2000",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert doc["pass"] is True
    res = doc["results"]
    assert res["orientation_signs"] == {"alpha1_d1": 1, "alpha2_d2": -1}
    assert res["tube"]["epsilon"] == 1.0
    pairs = res["pairs"]
    assert [p["loop"] for p in pairs] == ["alpha1", "alpha2"]
    for pair, sign in zip(pairs, (1, -1)):
        assert pair["transversality"]["ok"] is True
        assert pair["linking"]["rounded"] == sign
        assert abs(pair["linking"]["value"] - sign) <= 0.01
        lo, hi = pair["transversality"]["hit_intervals"][0]
        assert abs(lo - 1.0) < 0.05 and abs(hi - 3.0) < 0.05


def test_certify_rejects_flat_disc_order(capsys):
    code, out, err = run_cli(["certify", "--A", "2", "--B", "1"], capsys)
    assert code == 2
    assert err != ""


def test_certify_rejects_non_finite_and_overflowing_scales(capsys):
    for a, b in (("1", "inf"), ("1", "nan"), ("nan", "1"), ("1", "1e200")):
        code, out, err = run_cli(["certify", "--A", a, "--B", b], capsys)
        assert code == 2, (a, b)
        assert err.startswith("error: "), (a, b)


def test_certify_dump_points_writes_all_four_curves(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    code, out, err = run_cli(
        ["certify", "--A", "1", "--B", "2", "--segments", "512", "--grid", "2000",
         "--dump-points", str(target)],
        capsys,
    )
    assert code == 0
    with open(target, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["curve", "param", "x", "y", "z"]
    body = rows[1:]
    assert len(body) == 4 * 512
    curves = {row[0] for row in body}
    assert curves == {"alpha1", "alpha2", "d1_boundary", "d2_boundary"}
    # loop parameter zero sits at the origin corner of the first loop
    first = body[0]
    assert first[0] == "alpha1" and float(first[1]) == 0.0
    assert (float(first[2]), float(first[3]), float(first[4])) == (0.0, 0.0, 0.0)
    # disc boundary rows satisfy their quadric equations
    for row in body:
        x, y, z = float(row[2]), float(row[3]), float(row[4])
        if row[0] == "d1_boundary":
            assert abs(x * x + y * y - 1.0) < 1e-12
            assert abs(y * y + z * z - 4.0) < 1e-12
        elif row[0] == "d2_boundary":
            assert abs(y * y + z * z - 1.0) < 1e-12
            assert abs(x * x + y * y - 4.0) < 1e-12


def test_certify_unwritable_dump_points_exits_2(tmp_path, capsys):
    # the run has done all its work by the time it writes the file; a path
    # it cannot open is a usage error, not a failed check
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(
            ["certify", "--A", "1", "--B", "2", "--segments", "256", "--grid", "1000",
             "--dump-points", str(target), "--format", "json"],
            capsys,
        )
        assert code == 2, target
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_certify_rejects_underflowing_scales(capsys):
    # a*a + b*b underflows to 0 here, so m0 = 0 and epsilon < 0
    for scale in ("1e-200", "1e-170"):
        code, out, err = run_cli(["certify", "--A", scale, "--B", scale], capsys)
        assert code == 2, scale
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_sample_json_shape_and_exact_grid_contribution(capsys):
    code, doc = run_json(
        ["sample", "--count", "2000", "--seed", "42", "--format", "json"], capsys
    )
    assert code == 0
    assert doc["pass"] is True
    res = doc["results"]
    assert res["check"] == "positivity"
    assert res["checked"] == 2000 + 441
    assert res["failures"] == 0
    assert res["first_failure_input"] is None
    assert res["min_component_1"] > 0.0


def test_sample_rejects_bad_config(capsys):
    code, _, err = run_cli(["sample", "--count", "0", "--seed", "1"], capsys)
    assert code == 2 and err != ""
    code, _, err = run_cli(["sample", "--count", "10", "--seed", "-3"], capsys)
    assert code == 2 and err != ""


def test_identities_json_runs_all_four_checks(capsys):
    code, doc = run_json(
        ["identities", "--count", "1000", "--seed", "7", "--format", "json"], capsys
    )
    assert code == 0
    assert doc["pass"] is True
    checks = doc["results"]["checks"]
    assert list(checks.keys()) == [
        "f2_equals_h_g",
        "g_psi_equals_phi",
        "phi_bound",
        "mu_gluing",
    ]
    for name, payload in checks.items():
        assert payload["failures"] == 0, name
    assert checks["f2_equals_h_g"]["max_relative_error"] <= 1e-10
    assert checks["mu_gluing"]["checked"] == doc["results"]["gluing_grid"]


def test_unknown_subcommand_and_flag_exit_2(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2
    code, _, err = run_cli(["expand", "--bogus"], capsys)
    assert code == 2


def test_json_byte_identical_across_thread_counts(capsys, monkeypatch):
    outputs = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("QUADRANT_ATLAS_THREADS", threads)
        _, out, _ = run_cli(
            ["sample", "--count", "5000", "--seed", "42", "--format", "json"], capsys
        )
        outputs.append(strip_wall_time(out))
    assert outputs[0] == outputs[1] == outputs[2]

    outputs = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("QUADRANT_ATLAS_THREADS", threads)
        _, out, _ = run_cli(
            ["certify", "--A", "1", "--B", "2", "--segments", "512", "--grid", "2000",
             "--format", "json"],
            capsys,
        )
        outputs.append(strip_wall_time(out))
    assert outputs[0] == outputs[1] == outputs[2]


def test_certify_json_byte_identical_across_blas_threads():
    # the linking sum runs through BLAS, so its own thread setting must not
    # change a bit of the certificate either
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "quadrant_atlas.cli", "certify", "--A", "1", "--B", "2",
        "--segments", "512", "--grid", "2000", "--format", "json",
    ]
    outputs = []
    for blas_env in (dict(env, OPENBLAS_NUM_THREADS="1"), env):
        proc = subprocess.run(argv, capture_output=True, text=True, env=blas_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(strip_wall_time(proc.stdout))
    assert outputs[0] == outputs[1]


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(
        ["identities", "--count", "500", "--seed", "11", "--format", "json"], capsys
    )
    _, second, _ = run_cli(
        ["identities", "--count", "500", "--seed", "11", "--format", "json"], capsys
    )
    assert strip_wall_time(first) == strip_wall_time(second)


def test_sample_overflowing_range_fails_loudly(capsys):
    # samples of magnitude 1e30 overflow the map; they must count as failures
    code, out, _ = run_cli(
        ["sample", "--count", "1000", "--seed", "1", "--range", "1e30", "--format", "json"],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["results"]["failures"] > 0


def test_preimage_rejects_non_finite_target_and_tol(capsys):
    for argv in (
        ["--target", "inf,1"],
        ["--target", "1,nan"],
        ["--target", "1,1", "--tol", "nan"],
        ["--target", "1,1", "--tol", "inf"],
        ["--target", "1,1", "--tol", "0"],
    ):
        code, out, err = run_cli(["preimage", *argv, "--format", "json"], capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv


def test_certify_overflowing_loop_geometry_exits_2(capsys):
    # the tube constants are finite here but the loop coordinates overflow
    code, out, err = run_cli(
        ["certify", "--A", "1", "--B", "1e154", "--segments", "512", "--grid", "2000"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[-1]
    ]


def test_failed_preimage_prints_valid_json(capsys):
    # an edge target every seed fails on: no polished point, so the best
    # residual is infinite, which JSON cannot hold; it is written as null
    code, out, err = run_cli(
        ["preimage", "--target", "1.0,2.225531455441776e-07", "--format", "json"], capsys
    )
    assert code == 3 and err == ""

    def reject(token):
        raise ValueError(f"non-finite constant {token}")

    doc = json.loads(out, parse_constant=reject)
    assert doc["pass"] is False
    assert doc["results"]["best_residual"] is None
    assert doc["results"]["error"].endswith("no polished point was found")


def test_sample_reports_nonfinite_samples(capsys):
    code, out, _ = run_cli(
        ["sample", "--count", "1000", "--seed", "1", "--range", "1e30", "--format", "json"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["results"]["nonfinite"] == 1000
    code, doc = run_json(["sample", "--count", "1000", "--seed", "1", "--format", "json"], capsys)
    assert code == 0
    assert doc["results"]["nonfinite"] == 0


def test_certify_resolves_the_crossing_of_a_thin_tall_disc(capsys):
    # at B = 1000 a loop cell of the whole-loop midpoint rule (about 3.9) is
    # wider than the disc radius 1; the legs are integrated exactly instead
    code, doc = run_json(["certify", "--A", "1", "--B", "1000", "--format", "json"], capsys)
    assert code == 0
    for pair, sign in zip(doc["results"]["pairs"], (1, -1)):
        assert abs(pair["linking"]["value"] - sign) <= 1e-6


def test_certify_json_reports_what_the_linking_sum_covered(capsys):
    _, doc = run_json(
        ["certify", "--A", "1", "--B", "2", "--segments", "512", "--grid", "2000",
         "--format", "json"],
        capsys,
    )
    for pair in doc["results"]["pairs"]:
        link = pair["linking"]
        assert list(link)[-3:] == ["circle_segments", "arc_segments", "closest_approach"]
        assert link["loop_segments"] == 512
        # the arc [m, m + pi/2] of a loop of length 2m + pi/2, m = 8 sqrt(5)
        assert link["arc_segments"] == math.ceil(512 * (math.pi / 2) / (16 * math.sqrt(5) + math.pi / 2))
        # the disc boundary circle stays at its radius A = 1 from both axes
        assert abs(link["closest_approach"] - 1.0) <= 1e-12


def test_certify_overflow_prints_only_the_error_line():
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quadrant_atlas.cli", "certify", "--A", "1", "--B", "1e154",
         "--segments", "512", "--grid", "2000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_sample_overflow_is_counted_not_warned():
    # the overflowed samples are reported as failures and nonfinite; numpy's
    # own warnings must not reach stderr, in the pool's threads either
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env["QUADRANT_ATLAS_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "quadrant_atlas.cli", "sample", "--count", "100000",
             "--seed", "1", "--range", "1e30", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["results"]["nonfinite"] == 100000


def test_preimage_overflowing_target_fails_cleanly():
    # the outer factor of a huge target overflows to inf in the direct
    # stage; every seed then fails and the run ends in exit 3 with JSON
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quadrant_atlas.cli", "preimage", "--target", "1e150,1e150",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["pass"] is False
    assert doc["results"]["best_residual"] is None


def test_preimage_params_match_on_success_and_failure(capsys):
    code, solved = run_json(["preimage", "--target", "241,52", "--format", "json"], capsys)
    assert code == 0
    code, failed = run_json(["preimage", "--target", "1e150,1e150", "--format", "json"], capsys)
    assert code == 3
    assert list(failed["params"]) == list(solved["params"])
    for doc, target in ((solved, [241.0, 52.0]), (failed, [1e150, 1e150])):
        assert doc["params"]["target"] == target
        assert all(isinstance(c, float) for c in doc["params"]["target"])
