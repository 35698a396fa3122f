"""End-to-end acceptance gate.

Each test covers one shipping criterion, enforces its stated tolerance and
time budget, and prints a single PASS/FAIL line so the run log doubles as a
checklist. Budgets are wall-clock on the assumption of an unloaded machine.
"""

import math
import os
import random
import re
import subprocess
import sys
import time

import numpy as np

from quadrant_atlas.maps import HALF_PI
from quadrant_atlas.polynomial import (
    build_f1,
    build_f2,
    build_theorem_map,
    compose,
    evaluate_float,
    stats,
)
from quadrant_atlas.sampler import (
    SamplerConfig,
    check_identities,
    check_positivity,
)
from quadrant_atlas.solver import PreimageQuery, preimage
from quadrant_atlas.topology import (
    ALPHA1_D1_SIGN,
    ALPHA2_D2_SIGN,
    BoundaryLoop,
    gauss_linking,
    make_tube,
    transversality_exact,
)
from linking_oracle import _pair_sum, midpoint_linking
from scan_oracle import transversality_scan

AB_CHOICES = ((1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5))


def verdict(label: str, ok: bool):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_expansion_facts():
    t0 = time.perf_counter()
    fmap = build_theorem_map()
    d1, n1 = stats(fmap.component1)
    d2, n2 = stats(fmap.component2)
    elapsed = time.perf_counter() - t0
    ok = (
        sorted((d1, d2)) == [12, 16]
        and (n1, n2) == (11, 11)
        and d1 + d2 == 28
        and n1 + n2 == 22
        and elapsed < 1.0
    )
    verdict("criterion 1 expansion facts", ok)


def test_criterion_2_factorization():
    t0 = time.perf_counter()
    f1, f2 = build_f1(), build_f2()
    composed1 = compose(f2.component1, f1.component1, f1.component2)
    composed2 = compose(f2.component2, f1.component1, f1.component2)
    fmap = build_theorem_map()
    elapsed = time.perf_counter() - t0
    ok = (
        composed1.terms == fmap.component1.terms
        and composed2.terms == fmap.component2.terms
        and elapsed < 1.0
    )
    verdict("criterion 2 factorization", ok)


def test_criterion_3_image_inclusion():
    t0 = time.perf_counter()
    report = check_positivity(SamplerConfig(count=1_000_000, seed=42, range=50.0))
    elapsed = time.perf_counter() - t0
    ok = (
        report.failures == 0
        and report.checked == 1_000_000 + 21 * 21
        and report.min_component_1 > 0.0
        and report.min_component_2 > 0.0
        and elapsed < 30.0
    )
    verdict("criterion 3 image inclusion", ok)


def test_criterion_4_identities():
    t0 = time.perf_counter()
    cfg = SamplerConfig(count=10_000, seed=42, range=50.0)
    r1, r2, _ = check_identities(cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        r1.failures == 0
        and r2.failures == 0
        and r1.max_relative_error <= 1e-10
        and r2.max_relative_error <= 1e-10
        and elapsed < 5.0
    )
    verdict("criterion 4 identities", ok)


def test_criterion_5_parametrization_bound():
    t0 = time.perf_counter()
    report = check_identities(SamplerConfig(count=100_000, seed=42, range=50.0))[2]
    elapsed = time.perf_counter() - t0
    ok = report.failures == 0 and elapsed < 5.0
    verdict("criterion 5 parametrization bound", ok)


def test_criterion_6_preimage_surjectivity():
    ok = True
    for i in range(-3, 4):
        for j in range(-3, 4):
            t0 = time.perf_counter()
            res = preimage(PreimageQuery(10.0**i, 10.0**j))
            elapsed = time.perf_counter() - t0
            ok = ok and res.residual <= 1e-9 and elapsed < 5.0

    fmap = build_theorem_map()
    rng = random.Random(2024)
    for _ in range(200):
        x, y = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        a = evaluate_float(fmap.component1, x, y)
        b = evaluate_float(fmap.component2, x, y)
        res = preimage(PreimageQuery(a, b))
        ok = ok and res.residual <= 1e-9
    verdict("criterion 6 preimage surjectivity", ok)


def test_criterion_7_transversality():
    # the closed form certifies the crossing; the grid scan, which finds
    # the loop's runs inside the tube sample by sample, must agree with its
    # interval to one grid step
    grid = 100_000
    ok = True
    for a, b in AB_CHOICES:
        t0 = time.perf_counter()
        for variant, loop_name in (("d1", "alpha1"), ("d2", "alpha2")):
            tube = make_tube(a, b, variant)
            loop = BoundaryLoop(loop_name, tube.m)
            exact = transversality_exact(loop, tube)
            report = transversality_scan(loop, tube, grid)
            step = loop.t_max / (grid - 1)
            [(lo, hi)] = exact.hit_intervals
            ok = (
                ok
                and exact.ok
                and exact.expected_interval == (b - tube.epsilon, b + tube.epsilon)
                and report.ok
                and len(report.hit_intervals) == 1
                and abs(report.hit_intervals[0][0] - lo) <= step
                and abs(report.hit_intervals[0][1] - hi) <= step
            )
        ok = ok and (time.perf_counter() - t0) < 10.0
    verdict("criterion 7 transversality", ok)


def test_criterion_8_linking_certificate():
    # the exact count reads the pinned sign, with disjoint cell boxes, and
    # the midpoint quadrature of linking_oracle agrees with it to 0.01
    ok = True
    for a, b in AB_CHOICES:
        for variant, loop_name, sign in (
            ("d1", "alpha1", ALPHA1_D1_SIGN),
            ("d2", "alpha2", ALPHA2_D2_SIGN),
        ):
            t0 = time.perf_counter()
            tube = make_tube(a, b, variant)
            loop = BoundaryLoop(loop_name, tube.m)
            res = gauss_linking(loop, tube.disc, 4096, 4096)
            quadrature, _ = midpoint_linking(loop, tube.disc, 4096, 4096)
            elapsed = time.perf_counter() - t0
            ok = (
                ok
                and res.value == res.rounded == sign
                and res.closest_approach > 0.0
                and abs(quadrature - res.value) <= 0.01
                and elapsed < 60.0
            )

    # self-test: two far-apart unit circles must read as unlinked under the
    # midpoint Gauss sum; loops that stop short of their disc (m = 0.5 and
    # 1.0 at (1, 2)) count 0, and one that reaches it (m = 1.9) the linked
    # sign
    n = 512
    s = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    h = 2.0 * math.pi / n
    p1 = np.stack([np.cos(s), np.sin(s), np.zeros(n)], axis=-1)
    t1 = np.stack([-np.sin(s), np.cos(s), np.zeros(n)], axis=-1)
    p2 = p1 + np.array([10.0, 0.0, 5.0])
    unlinked = _pair_sum(p1, t1, p2, t1.copy())[0] * h * h / (4.0 * math.pi)
    ok = ok and abs(unlinked) <= 0.01
    disc = make_tube(1.0, 2.0, "d1").disc
    for m, count in ((0.5, 0), (1.0, 0), (1.9, ALPHA1_D1_SIGN)):
        res = gauss_linking(BoundaryLoop("alpha1", m), disc, 4096, 4096)
        ok = ok and res.value == res.rounded == count
    verdict("criterion 8 linking certificate", ok)


def test_criterion_9_cli_determinism():
    commands = [
        ["sample", "--count", "5000", "--seed", "42", "--format", "json"],
        ["identities", "--count", "1000", "--seed", "7", "--format", "json"],
        [
            "certify", "--A", "1", "--B", "2", "--segments", "512", "--format", "json",
        ],
    ]
    ok = True
    for argv in commands:
        outputs = set()
        for threads in ("1", "2", "8"):
            env = dict(os.environ, QUADRANT_ATLAS_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "quadrant_atlas.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            ok = ok and proc.returncode == 0
            outputs.add(re.sub(r'"wall_time_ms": \d+', "", proc.stdout))
        ok = ok and len(outputs) == 1
    verdict("criterion 9 cli determinism", ok)
