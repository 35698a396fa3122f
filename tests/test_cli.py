"""Command-line contract: JSON schema, exit codes, determinism.

Only the JSON output is asserted in detail; text mode is checked for the
final verdict line and nothing else, so the human summary can evolve.
"""

import csv
import json
import math
import os
import re
import random
import subprocess
import sys
import threading

import numpy as np
import pytest

import quadrant_atlas
import quadrant_atlas.cli as cli
import quadrant_atlas.sampler as sampler
import quadrant_atlas.topology as topology
from quadrant_atlas.maps import _phi_terms, _xi_terms
from quadrant_atlas.parallel import thread_count
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
        ["certify", "--A", "1", "--B", "2", "--segments", "512",
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
        ["certify", "--A", "1", "--B", "2", "--segments", "512",
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
            ["certify", "--A", "1", "--B", "2", "--segments", "256",
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


@pytest.mark.parametrize("flag, value", [("--segments", "255")])
def test_certify_rejects_sizes_below_the_limits(capsys, flag, value):
    code, out, err = run_cli(
        ["certify", "--A", "1", "--B", "2", flag, value, "--format", "json"], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert flag in lines[0]


@pytest.mark.parametrize("flag", ["--segments"])
def test_certify_unallocatable_size_exits_2(capsys, flag):
    # 10^15 doubles are 8 PB, beyond a 64-bit user address space, so the
    # first array of that size fails at once
    code, out, err = run_cli(
        ["certify", "--A", "1", "--B", "2", flag, str(10**15), "--format", "json"], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert flag in lines[0]


@pytest.mark.parametrize("command", ["sample", "identities"])
def test_sweep_that_cannot_be_allocated_exits_2(capsys, monkeypatch, command):
    # stands in for a --count whose task list does not fit in memory
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(sampler, "_sweep", no_memory)
    argv = [command, "--count", "1000", "--seed", "1", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "--count" in lines[0]


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


@pytest.mark.parametrize("threads", ["0", "abc", "257"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--count", "100000", "--seed", "1"],
        ["identities", "--count", "1000", "--seed", "1"],
    ],
)
def test_bad_thread_count_exits_2(capsys, monkeypatch, threads, argv):
    # the sweeps resolve QUADRANT_ATLAS_THREADS; a value that is not an
    # integer from 1 to 256 is a usage error, not a failed check, and exits
    # before a pool starts
    pools = []
    monkeypatch.setattr(sampler, "ThreadPoolExecutor", lambda *a, **k: pools.append(a))
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", threads)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and pools == []
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "QUADRANT_ATLAS_THREADS" in lines[0]


def test_thread_count_is_at_most_256(monkeypatch):
    # a sweep starts a thread per task up to the count, so the count is
    # bounded; resolved alone, without starting a pool
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", "256")
    assert thread_count() == 256
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", "257")
    with pytest.raises(ValueError, match="QUADRANT_ATLAS_THREADS must be from 1 to 256, got 257"):
        thread_count()


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
    for argv in (
        ["sample", "--count", "5000", "--seed", "42"],
        # three chunks per check, the last of 3 samples
        ["identities", "--count", "131075", "--seed", "3"],
        ["certify", "--A", "1", "--B", "2", "--segments", "512"],
    ):
        outputs = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("QUADRANT_ATLAS_THREADS", threads)
            _, out, _ = run_cli([*argv, "--format", "json"], capsys)
            outputs.append(strip_wall_time(out))
        assert outputs[0] == outputs[1] == outputs[2], argv


@pytest.mark.parametrize(
    "argv, tasks",
    [
        # one task a block: 4 + 3 blocks of 16384 rows, shared by the three
        # checks, and 15 * 2 + 1 blocks of 32768 rows
        (["identities", "--count", "100000", "--seed", "1"], 7),
        (["sample", "--count", "1000000", "--seed", "1"], 31),
    ],
)
def test_each_sweeping_command_starts_one_pool(capsys, monkeypatch, argv, tasks):
    pools = []

    class CountingPool(sampler.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(0)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            pools[-1] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(sampler, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", "2")
    code, _ = run_json([*argv, "--format", "json"], capsys)
    assert code == 0
    assert pools == [tasks]


@pytest.mark.parametrize(
    "threads, pools", [("1", []), ("2", []), ("8", []), ("0", [])]
)
def test_certify_runs_pair_2s_linking_sum_on_one_worker(capsys, monkeypatch, threads, pools):
    # certify counts crossings on the calling thread and ignores
    # QUADRANT_ATLAS_THREADS, even a value the sweeps refuse: at every
    # count it starts no thread
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", threads)
    argv = ["certify", "--A", "1", "--B", "2", "--segments", "256", "--format", "json"]
    code, _ = run_json(argv, capsys)
    assert code == 0
    assert started == pools


@pytest.mark.parametrize("threads", ["1", "2"])
def test_certify_reports_pair_1s_linking_error_first(capsys, monkeypatch, threads):
    real = cli.linking_count
    failing = set()

    def linking_count(loop, disc, circle, loop_segments):
        if disc.variant in failing:
            raise cli.DegenerateGeometryError(f"{disc.variant} fails")
        return real(loop, disc, circle, loop_segments)

    monkeypatch.setattr(cli, "linking_count", linking_count)
    monkeypatch.setenv("QUADRANT_ATLAS_THREADS", threads)
    argv = ["certify", "--A", "1", "--B", "2", "--segments", "256"]
    for fails, reported in ((("d2",), "d2"), (("d1", "d2"), "d1")):
        failing.update(fails)
        code, out, err = run_cli([*argv, "--format", "json"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: no linking certificate at A=1.0, B=2.0: {reported} fails"
        ]


def test_certify_json_byte_identical_across_blas_threads():
    # certify calls no BLAS routine that threads; its setting must not
    # change a bit of the certificate either
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "quadrant_atlas.cli", "certify", "--A", "1", "--B", "2",
        "--segments", "512", "--format", "json",
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
        ["certify", "--A", "1", "--B", "1e154", "--segments", "512"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[-1]
    ]


def test_certify_refuses_a_b_whose_square_is_subnormal(capsys):
    # B^2 = 1.44e-308 is subnormal: the disc's height sqrt(B^2) at its axis
    # need not give back B, and the closed form failed both crossings here
    code, out, err = run_cli(
        ["certify", "--A", "1.2e-154", "--B", "1.2e-154", "--segments", "256"], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "underflow" in lines[0] and "b^2=1.44e-308" in lines[0]


def test_certify_decides_an_underflowing_a_squared(capsys):
    # the circle lies A from the first leg; the count and the boxes use no
    # squared distance, and the quadric residual is scale-free, so A^2 may
    # underflow (to 0 at 1e-200, to a subnormal at 1.2e-154)
    for a in ("1e-200", "1e-300", "1.2e-154"):
        code, doc = run_json(
            ["certify", "--A", a, "--B", "1", "--segments", "256", "--format", "json"], capsys
        )
        assert code == 0 and doc["pass"] is True, a
        for pair, sign in zip(doc["results"]["pairs"], (1, -1)):
            assert pair["linking"]["value"] == sign
            assert 0.0 < pair["linking"]["closest_approach"] <= float(a)


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


@pytest.mark.parametrize(
    "a, b", [("1e-9", "2e-9"), ("1e-6", "2e-6"), ("1e80", "2e80"), ("1.31e150", "2.71e150")]
)
def test_certify_passes_far_from_unit_scale(capsys, a, b):
    # the crossing is decided in closed form, where a grid of loop samples
    # stepped over a tube 2e-6 wide; the leg integrals overflowed past a
    # scale of about 1e77; the near-contact guard was an absolute 1e-9
    code, doc = run_json(
        ["certify", "--A", a, "--B", b, "--segments", "256", "--format", "json"], capsys
    )
    assert code == 0
    for pair, sign in zip(doc["results"]["pairs"], (1, -1)):
        assert pair["transversality"]["ok"] is True
        assert abs(pair["linking"]["value"] - sign) <= 0.01


def scale_sweep():
    """300 (A, B) with B log-uniform on [1e-150, 1e150] and A = B 10^U(-3, 0),
    and the ends of the range: a thin tall disc, the small and large scales
    certify decides, and an A whose square underflows."""
    rng = random.Random(3)
    draws = []
    for _ in range(300):
        b = 10.0 ** rng.uniform(-150.0, 150.0)
        draws.append((b * 10.0 ** rng.uniform(-3.0, 0.0), b))
    return draws + [(1.0, 1000.0), (1e-153, 2e-153), (1e-154, 2e-154), (1e80, 2e80), (1e-200, 1.0)]


def test_certify_passes_at_every_scale(capsys):
    for a, b in scale_sweep():
        argv = ["certify", "--A", repr(a), "--B", repr(b), "--segments", "256", "--format", "json"]
        code, doc = run_json(argv, capsys)
        assert code == 0, (a, b)
        for pair, sign in zip(doc["results"]["pairs"], (1, -1)):
            link = pair["linking"]
            assert (link["value"], link["rounded"], link["crossings"]) == (sign, sign, 2), (a, b)
            assert link["closest_approach"] > 0.0


@pytest.mark.parametrize("a, b", [("1", "2"), ("0.5", "3"), ("1e-9", "2e-9")])
def test_certify_fails_a_circle_off_its_quadric(capsys, monkeypatch, a, b):
    # the circle's height sqrt(B^2 - A^2 sin^2 s) made sqrt(B^2 - A^2 sin^2 s / 2):
    # still linked once, but off y^2 + z^2 = B^2 by up to (A/B)^2 / 2
    def half_xi(y, b):
        return np.sqrt(b * b - 0.5 * np.minimum(y * y, b * b))

    monkeypatch.setattr(topology, "_xi_terms", half_xi)
    code, doc = run_json(
        ["certify", "--A", a, "--B", b, "--segments", "256", "--format", "json"], capsys
    )
    assert code == 1
    for pair, sign in zip(doc["results"]["pairs"], (1, -1)):
        assert pair["transversality"]["ok"] is True and pair["linking"]["value"] == sign
        assert pair["quadric_residual"] > topology.QUADRIC_TOL


@pytest.mark.parametrize("a, b", [("1", "2"), ("0.5", "3"), ("1e-9", "2e-9")])
def test_certify_fails_an_arc_that_enters_its_tube(capsys, monkeypatch, a, b):
    # phi3 shrunk by 4: at theta = pi/2 the arc's norm is m/4, below the
    # m/2 that keeps it out of the tube (criterion 5)
    def short_phi(rho, c, s, w):
        p1, p2, p3 = _phi_terms(rho, c, s, w)
        return p1, p2, 0.25 * p3

    monkeypatch.setattr(topology, "_phi_terms", short_phi)
    builds = count_circle_builds(monkeypatch)
    code, doc = run_json(
        ["certify", "--A", a, "--B", b, "--segments", "256", "--format", "json"], capsys
    )
    assert code == 1
    assert [pair["transversality"]["ok"] for pair in doc["results"]["pairs"]] == [False, False]
    # neither pair is counted, so no circle is built
    assert builds == []


def count_circle_builds(monkeypatch):
    """A list that gains "points" each time topology builds a disc boundary
    polygon and "boxes" each time it boxes one."""
    builds = []
    for name, label in (("_circle", "points"), ("_circle_boxes", "boxes")):
        real = getattr(topology, name)

        def counted(*args, real=real, label=label):
            builds.append(label)
            return real(*args)

        monkeypatch.setattr(topology, name, counted)
    return builds


def test_certify_builds_its_circle_once_an_op(capsys, monkeypatch):
    # both pairs count on one circle, and the next op builds its own
    builds = count_circle_builds(monkeypatch)
    argv = ["certify", "--A", "1", "--B", "2", "--segments", "256", "--format", "json"]
    for ops in (1, 2):
        code, _ = run_json(argv, capsys)
        assert code == 0
        assert builds == ["points", "boxes"] * ops


@pytest.mark.parametrize(
    "a, b, closest, arc_segments, residual",
    [
        ("1", "1", "0x1.ff9b6e3c77dc8p-1", 266, 2.220446049250313e-16),
        ("1", "2", "0x1.ff9b6e3c77dcap-1", 173, 2.220446049250313e-16),
        ("0.5", "3", "0x1.ff9b6e3c77dcap-2", 129, 3.3306690738754696e-16),
        ("2", "2.5", "0x1.ff9b6e3c77dcap+0", 122, 4.440892098500626e-16),
    ],
)
def test_certify_pins_the_benchmark_pairs(capsys, a, b, closest, arc_segments, residual):
    # the benchmark's four pairs at the default 4096 segments
    code, doc = run_json(["certify", "--A", a, "--B", b, "--format", "json"], capsys)
    assert code == 0
    for pair, sign in zip(doc["results"]["pairs"], (1, -1)):
        link = pair["linking"]
        assert (link["value"], link["rounded"], link["crossings"]) == (sign, sign, 2)
        assert (link["loop_segments"], link["circle_segments"]) == (4096, 4096)
        assert link["arc_segments"] == arc_segments
        assert link["closest_approach"].hex() == closest
        assert pair["quadric_residual"] == residual


def tube_rule(m0=None, epsilon=None, m=None):
    """make_tube with some of its three constant rules replaced."""
    m0_of = m0 or (lambda a, b: 2.0 * math.sqrt(a * a + b * b))
    epsilon_of = epsilon or (lambda b, m0: min(b, m0 - b) / 2.0)
    m_of = m or (lambda m0: 4.0 * m0)

    def make_tube(a, b, variant):
        disc = topology.WarpedDiscSpec(variant, a, b)
        m0 = m0_of(a, b)
        return topology.TubeSpec(disc, epsilon=epsilon_of(b, m0), m0=m0, m=m_of(m0))

    return make_tube


@pytest.mark.parametrize(
    "module, name, mutant",
    [
        (topology, "_zeta_terms", lambda x, y, z, b: (x, y, z - 0.9 * _xi_terms(y, b))),
        (cli, "make_tube", tube_rule(m=lambda m0: 0.3 * m0)),
        # epsilon on the bound it must stay strictly inside
        (cli, "make_tube", tube_rule(epsilon=lambda b, m0: min(b, m0 - b))),
        # m0 equal to the disc's sup norm, where it must dominate it; at
        # (1, 1) and (1, 2) the rounded root lies above the exact one, so
        # there m0 does dominate it and the construction holds
        (cli, "make_tube", tube_rule(m0=lambda a, b: math.sqrt(a * a + b * b))),
    ],
    ids=["zeta", "short-loop", "epsilon-on-bound", "m0-on-sup-norm"],
)
@pytest.mark.parametrize("a, b", [("0.5", "3"), ("3", "4")])
def test_certify_fails_a_wrong_construction(capsys, monkeypatch, module, name, mutant, a, b):
    monkeypatch.setattr(module, name, mutant)
    code, doc = run_json(
        ["certify", "--A", a, "--B", b, "--segments", "256", "--format", "json"], capsys
    )
    assert code == 1
    assert [pair["transversality"]["ok"] for pair in doc["results"]["pairs"]] == [False, False]


def test_certify_json_reports_what_the_linking_sum_covered(capsys):
    _, doc = run_json(
        ["certify", "--A", "1", "--B", "2", "--segments", "512",
         "--format", "json"],
        capsys,
    )
    signs = doc["results"]["orientation_signs"]
    assert signs == {"alpha1_d1": 1, "alpha2_d2": -1}
    for pair in doc["results"]["pairs"]:
        assert list(pair) == ["loop", "disc", "transversality", "linking", "quadric_residual"]
        assert list(pair["transversality"]) == [
            "ok", "hit_intervals", "expected_interval", "max_lateral_deviation", "basis",
        ]
        assert pair["transversality"]["basis"] == "exact"
        link = pair["linking"]
        assert list(link) == [
            "value", "rounded", "expected", "loop_segments", "circle_segments",
            "arc_segments", "closest_approach", "crossings",
        ]
        assert link["expected"] == signs[f"{pair['loop']}_{pair['disc']}"]
        assert link["value"] == link["rounded"] == link["expected"]
        assert link["loop_segments"] == 512
        # the arc [m, m + pi/2] of a loop of length 2m + pi/2, m = 8 sqrt(5)
        assert link["arc_segments"] == math.ceil(512 * (math.pi / 2) / (16 * math.sqrt(5) + math.pi / 2))
        # the disc boundary circle stays at its radius A = 1 from both axes;
        # its cell boxes reach in from there by at most a cell's sagitta
        assert 1.0 - 2.0 * (math.pi / 512) <= link["closest_approach"] < 1.0
        assert link["crossings"] == 2
        assert 0.0 <= pair["quadric_residual"] <= topology.QUADRIC_TOL


def test_certify_overflow_prints_only_the_error_line():
    src_dir = os.path.dirname(os.path.dirname(quadrant_atlas.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quadrant_atlas.cli", "certify", "--A", "1", "--B", "1e154",
         "--segments", "512"],
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
        (["certify", "--A", "1", "--B", "2", "--segments", "256"], 0,
         ["A", "B", "segments", "dump_points", "format"]),
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
    argv = ["certify", "--A", "1", "--B", "2", "--format", "json"]
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
