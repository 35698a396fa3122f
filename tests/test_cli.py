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
    code, doc = run_json(["preimage", "--target", "241,52", "--format", "json"], capsys)
    assert code == 0
    assert doc["pass"] is True
    assert doc["params"]["target"] == [241.0, 52.0]
    res = doc["results"]
    assert res["residual"] <= 1e-9
    assert abs(res["x"] - 1.0) < 1e-6
    assert abs(res["y"] - 2.0) < 1e-6


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


@pytest.mark.parametrize("flag, value", [("--segments", "255"), ("--grid", "999")])
def test_certify_rejects_sizes_below_the_limits(capsys, flag, value):
    code, out, err = run_cli(
        ["certify", "--A", "1", "--B", "2", flag, value, "--format", "json"], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert flag in lines[0]


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


@pytest.mark.parametrize("threads", ["0", "abc"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--count", "100000", "--seed", "1"],
        ["identities", "--count", "1000", "--seed", "1"],
    ],
)
def test_bad_thread_count_exits_2(capsys, monkeypatch, threads, argv):
    # the sweeps resolve QUADRANT_ATLAS_THREADS; a value that is not a
    # positive integer is a usage error, not a failed check
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", threads)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "QUADRANT_ATLAS_THREADS" in lines[0]


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
    # a target whose outer factor overflows at every seed: no polished
    # point, so the best residual is infinite, which JSON cannot hold; it
    # is written as null
    code, out, err = run_cli(["preimage", "--target", "1e300,1e300", "--format", "json"], capsys)
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
    signs = doc["results"]["orientation_signs"]
    assert signs == {"alpha1_d1": 1, "alpha2_d2": -1}
    for pair in doc["results"]["pairs"]:
        assert list(pair["transversality"]) == [
            "ok", "hit_intervals", "expected_interval", "max_lateral_deviation",
        ]
        link = pair["linking"]
        assert list(link) == [
            "value", "rounded", "expected", "loop_segments", "circle_segments",
            "arc_segments", "closest_approach",
        ]
        assert link["expected"] == signs[f"{pair['loop']}_{pair['disc']}"]
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
    # the outer factor of a huge target overflows to inf; every seed then
    # fails and the run ends in exit 3 with JSON
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quadrant_atlas.cli", "preimage", "--target", "1e300,1e300",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["pass"] is False
    assert doc["results"]["best_residual"] is None


@pytest.mark.parametrize(
    "args, expected",
    [(["expand"], 0), (["preimage", "--target", "1e300,1e300"], 3)],
)
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(args, expected):
    # a reader that stops early, as `| head -1` does: the pipe's read end is
    # closed before the report is written
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadrant_atlas.cli", *args, "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == expected


def test_preimage_params_match_on_success_and_failure(capsys):
    code, solved = run_json(["preimage", "--target", "241,52", "--format", "json"], capsys)
    assert code == 0
    code, failed = run_json(["preimage", "--target", "1e300,1e300", "--format", "json"], capsys)
    assert code == 3
    assert list(failed["params"]) == list(solved["params"])
    for doc, target in ((solved, [241.0, 52.0]), (failed, [1e300, 1e300])):
        assert doc["params"]["target"] == target
        assert all(isinstance(c, float) for c in doc["params"]["target"])


def test_params_echo_the_parsed_arguments_and_results_start_with_version(capsys):
    cases = [
        (["expand"], 0, ["format"]),
        (["preimage", "--target", "2,3"], 0, ["target", "tol", "format"]),
        (["preimage", "--target", "1e300,1e300"], 3, ["target", "tol", "format"]),
        (["certify", "--A", "1", "--B", "2", "--segments", "256", "--grid", "1000"], 0,
         ["A", "B", "segments", "grid", "dump_points", "format"]),
        (["sample", "--count", "1000", "--seed", "1"], 0, ["count", "seed", "range", "format"]),
        (["identities", "--count", "500", "--seed", "1"], 0, ["count", "seed", "format"]),
    ]
    for argv, expected_code, keys in cases:
        code, doc = run_json([*argv, "--format", "json"], capsys)
        assert code == expected_code, argv
        assert list(doc["params"]) == keys, argv
        assert doc["params"]["format"] == "json"
        assert next(iter(doc["results"])) == "version", argv
        assert doc["results"]["version"] == quadrant_atlas.__version__
    assert doc["params"] == {"count": 500, "seed": 1, "format": "json"}
    # a solved preimage and a failed one: every results key, in order
    for target, keys in (
        ("2,3", ["version", "x", "y", "residual", "newton_iters", "seed_index"]),
        ("1e300,1e300", ["version", "error", "best_residual"]),
    ):
        code, doc = run_json(["preimage", "--target", target, "--format", "json"], capsys)
        assert list(doc["results"]) == keys, target


def test_preimage_has_no_json_alias(capsys):
    code, out, err = run_cli(["preimage", "--target", "2,3", "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "--json" in err


# The parser is built once per process and reused by every run() call;
# these check that one call leaves nothing behind for the next.


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_json_flag_does_not_carry_over_to_the_next_call(capsys):
    code, doc = run_json(["preimage", "--target", "2,3", "--format", "json"], capsys)
    assert code == 0
    code, out, err = run_cli(["preimage", "--target", "2,3"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("target (2.0, 3.0)")
    assert out.rstrip().endswith("PASS")


def test_segments_default_returns_after_an_explicit_value(capsys):
    argv = ["certify", "--A", "1", "--B", "2", "--grid", "1000", "--format", "json"]
    _, doc = run_json(argv[:5] + ["--segments", "512"] + argv[5:], capsys)
    assert doc["params"]["segments"] == 512
    _, doc = run_json(argv, capsys)
    assert doc["params"]["segments"] == 4096


def test_rejected_call_leaves_the_next_output_unchanged(capsys):
    argv = ["preimage", "--target", "2,3"]
    _, before, _ = run_cli(argv, capsys)
    rejected_calls = (
        argv + ["--format", "json", "--bogus"],
        ["certify", "--A", "1", "--segments", "x"],
    )
    for rejected in rejected_calls:
        code, out, err = run_cli(rejected, capsys)
        assert code == 2 and out == "" and err != "", rejected
    _, after, _ = run_cli(argv, capsys)
    assert strip_wall_time(after) == strip_wall_time(before)
    assert not after.startswith("{")
