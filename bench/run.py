"""End-to-end benchmark of the quadrant-atlas command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the src/ directory next to
this one, never from an installed copy. Each operation is one in-process
call of quadrant_atlas.cli.run([...,"--format", "json"]) with stdout
captured, in a closed loop: one caller, the next op starts when the last
returns. A pass runs every op of the workload once; passes repeat until the
next op would end after --seconds (at least MIN_PASSES), so the last pass
may stop part way. Every output is checked independently (checks.py); an
op fails on a wrong or non-finite result, on an exit code other than 0, or
when its output differs from its output in the run's first pass
(wall_time_ms excepted). The setup probes count against --seconds too, so
a run lasts about --seconds plus the benchmark's own import.

Timing. On a shared host the CPU can run 1.6x slower for seconds to
minutes at a time because of load outside this machine, so wall_s,
op_p50_ms and op_tail_ms are host-calibrated: each op's measured time is
scaled by the calibration kernel's nominal time over the mean of the kernel
times taken just before and just after it (calib.py), which reads as the
time the op would have taken on the host the nominal time was taken on;
setup_s is scaled the same way.
Each op's time is the mean of its scaled times over the run's passes.
wall_s is the sum of those over one pass, op_p50_ms their median over the
ops of a pass, and op_tail_ms the highest of them with TAIL_BEYOND ops
beyond it (the slowest op when a pass has fewer; the report states the op
count and percentile). The unscaled pass time is reported beside them as
raw_wall_s, and every raw op time and kernel sample goes to the result
file. The benchmark's own objects are moved out of the collector's reach
(gc.freeze) before timing, so the program's garbage collections do not grow
with what the benchmark keeps. setup_s is the median, over SETUP_PROBES
fresh interpreters, of the time from spawning one to its having imported
the package and built the theorem map. peak_rss_mb is this
process's peak resident set, the calibration kernel's 2 MB included.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced passes for
half of --seconds, then one pass with every public layer function wrapped
(tracer.py), then the single-thread baselines, and prints per-layer metrics.
Spans and a context record go to .bench_out/ in the checkout.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. correct is false when any answer the program gave was
wrong; an op that gives no answer (the solver's exit 3) is failed but not
wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from calib import Calibrator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 2
SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

WHY = {
    "certify": "certify at 4096^2 segments and grid 1e5 for the four acceptance (A,B) pairs:"
    " the Gauss linking double sum dominates; solver and sampler do no work",
    "verify": "expand, a 1e6-sample positivity sweep and 1e5-sample identity sweeps:"
    " the vectorized sweep and the per-sample Python stream over scalar maps",
    "preimage": "49 decade targets and 64 round-trip targets on (0,5)^2: early surface seeds"
    " win, so scalar objective/Jacobian call overhead dominates",
    "preimage-edge": "targets with one coordinate in [1e-7.5,1e-6.5]: refined theta lattice,"
    " full seed scan and the direct-fallback stage, which end in solver failure",
}

_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import quadrant_atlas\n"
    "t1 = time.perf_counter()\n"
    "quadrant_atlas.build_theorem_map()\n"
    "print(t1 - t0, time.perf_counter() - t1, flush=True)\n"
)


@dataclass(frozen=True)
class Op:
    id: str
    subcommand: str
    argv: tuple[str, ...]
    args: dict  # the generated values the output check needs


# ---------------------------------------------------------------------------
# Workloads: each maps a seed to the op list of one pass.


def certify_ops(rng: random.Random) -> list[Op]:
    pairs = [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 2.5)]
    rng.shuffle(pairs)
    return [
        Op(f"certify {a!r},{b!r}", "certify", ("certify", "--A", repr(a), "--B", repr(b)), {})
        for a, b in pairs
    ]


def verify_ops(rng: random.Random) -> list[Op]:
    stream = str(rng.getrandbits(63))
    ops = [
        Op("expand", "expand", ("expand",), {}),
        Op(
            "sample",
            "sample",
            ("sample", "--count", "1000000", "--seed", stream),
            {"count": 1_000_000},
        ),
        Op(
            "identities",
            "identities",
            ("identities", "--count", "100000", "--seed", stream),
            {"count": 100_000},
        ),
    ]
    rng.shuffle(ops)
    return ops


def _preimage_op(a: float, b: float) -> Op:
    tol = 1e-9
    return Op(
        f"preimage {a!r},{b!r}",
        "preimage",
        ("preimage", "--target", f"{a!r},{b!r}", "--tol", repr(tol)),
        {"a": a, "b": b, "tol": tol},
    )


def preimage_ops(rng: random.Random) -> list[Op]:
    # Round-trip targets sit at the centres of an 8x8 grid of cells over
    # (0,5)^2, the same for every seed. Per-target cost is heavy-tailed
    # (on a 2-vCPU Xeon VM about 1.5% of uniform points took 0.9-3.7 s
    # against a median of 20 ms), so a fresh uniform draw per seed moved
    # the pass time by a third between seeds; the seed orders the targets
    # instead.
    from quadrant_atlas.polynomial import build_theorem_map, evaluate_exact

    fmap = build_theorem_map()
    targets = [(10.0**i, 10.0**j) for i in range(-3, 4) for j in range(-3, 4)]
    k = 8
    for i in range(k):
        for j in range(k):
            x, y = Fraction(5 * (2 * i + 1), 2 * k), Fraction(5 * (2 * j + 1), 2 * k)
            targets.append(
                (
                    float(evaluate_exact(fmap.component1, x, y)),
                    float(evaluate_exact(fmap.component2, x, y)),
                )
            )
    rng.shuffle(targets)
    return [_preimage_op(a, b) for a, b in targets]


def edge_ops(rng: random.Random) -> list[Op]:
    # The seed draws the small coordinate, log-uniform on [1e-7.5, 1e-6.5],
    # where the solver's work is flat (objective calls within 0.5%); at
    # 1e-6 it drops by up to 40%. Cost depends strongly on the other
    # coordinate (1-11 s per target across [1e-3, 1e3] on a 2-vCPU Xeon VM),
    # which is therefore fixed, one target per axis, at two of the cheapest
    # values, so that a run fits several passes.
    def small() -> float:
        return 10.0 ** rng.uniform(-7.5, -6.5)

    ops = [_preimage_op(small(), 1e-2), _preimage_op(1.0, small())]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certify": certify_ops,
    "verify": verify_ops,
    "preimage": preimage_ops,
    "preimage-edge": edge_ops,
}


# ---------------------------------------------------------------------------
# Running ops and passes.

_WALL_TIME = re.compile(r'"wall_time_ms": -?\d+')


def run_op(cli, op: Op, call=None) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one cli.run call; call, if given,
    is invoked as call(cli.run, argv) instead of cli.run(argv)."""
    argv = list(op.argv) + ["--format", "json"]
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = call(cli.run, argv) if call else cli.run(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op; the run goes on
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue(), perf_counter() - start


class Ledger:
    """Verdicts per op execution, against each op's first output."""

    def __init__(self, check) -> None:
        self._check = check
        self._first: dict[str, tuple[int, str, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: dict[str, str] = {}
        self.docs: dict[str, str] = {}  # op id -> first stdout

    def judge(self, op: Op, rc: int, text: str) -> None:
        key = _WALL_TIME.sub("", text)
        first = self._first.get(op.id)
        if first is None:
            problem = self._check(op.subcommand, op.args, rc, text)
            self._first[op.id] = (rc, key, problem)
            self.docs[op.id] = text
        elif (rc, key) != first[:2]:
            problem = "output differs from the first pass"
        else:
            problem = first[2]
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            # the solver's exit 3 is no answer, not a wrong one
            if not (op.subcommand == "preimage" and rc == 3 and problem == "exit code 3"):
                self.wrong += 1
            self.problems.setdefault(op.id, problem)


def run_passes(cli, ops, ledger, seconds, min_passes, calibrator):
    """Runs the ops in order, pass after pass, with calibration kernel
    samples between them, until min_passes passes are done and the next op
    would end after seconds; a last pass may stop part way. Returns the
    number of passes and, per op, its durations with the calibrator
    position each started at."""
    op_s: dict[str, list[tuple[float, int]]] = {op.id: [] for op in ops}
    start = perf_counter()
    done = 0
    while True:
        op = ops[done % len(ops)]
        position = calibrator.position()
        rc, text, dt = run_op(cli, op)
        calibrator.between_ops()
        op_s[op.id].append((dt, position))
        ledger.judge(op, rc, text)
        done += 1
        if done < min_passes * len(ops):
            continue
        after = op_s[ops[done % len(ops)].id][-1][0]  # the next op's last time
        if perf_counter() - start + after > seconds:
            calibrator.sample()
            return done / len(ops), op_s


# ---------------------------------------------------------------------------
# Measurements outside the op loop.


def setup_probes(n: int, calibrator: Calibrator) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import the package and build the map, with a
    calibration sample after each: (time from spawn to ready, scaled by the
    samples around it; time of the first build_theorem_map)."""
    ready, build = [], []
    for _ in range(n):
        position = calibrator.position()
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(SRC)], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            ready.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        build.append(float(line.split()[1]))
        calibrator.sample()
        ready[-1] *= calibrator.scale(position)
    return ready, build


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def context(workload: str, seed: int, modules: dict) -> dict:
    import numpy as np

    head = "unknown"
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_file = git / ref[5:]
            head = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            head = ref
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "quadrant_atlas").glob("*.py"))
    )
    return {
        "workload": workload,
        "why": WHY[workload],
        "seed": seed,
        "commit": head,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_count": modules["parallel"].thread_count(),
        "env": {
            k: os.environ.get(k)
            for k in ("QUADRANT_ATLAS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# The two modes.


def settle() -> None:
    """Collect, then freeze what survives, before timed passes."""
    gc.collect()
    gc.freeze()


def end_to_end(cli, ops, ledger, seconds) -> tuple[dict, dict, dict]:
    start = perf_counter()
    calibrator = Calibrator()
    ready, _ = setup_probes(SETUP_PROBES, calibrator)
    settle()
    left = seconds - (perf_counter() - start)
    passes, op_s = run_passes(cli, ops, ledger, left, MIN_PASSES, calibrator)
    per_op = [
        statistics.fmean(dt * calibrator.scale(position) for dt, position in v)
        for v in op_s.values()
    ]
    tail_s, pct = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(ready), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "passes": passes,
        "raw_wall_s": sum(statistics.fmean(dt for dt, _ in v) for v in op_s.values()),
        "calib_samples": len(calibrator.samples),
        "calib_median_s": statistics.median(sum(s) for s in calibrator.samples),
        "ops_per_pass": len(ops),
        "op_samples": len(per_op),
        "op_tail_percentile": round(pct, 2),
        "fail_frac": ledger.failed / ledger.attempted,
    }
    raw = {"op_s": op_s, "calib_s": calibrator.samples}
    return metrics, notes, raw


@contextlib.contextmanager
def threads(n: int):
    """Set QUADRANT_ATLAS_THREADS for the block, restoring it after."""
    old = os.environ.get("QUADRANT_ATLAS_THREADS")
    os.environ["QUADRANT_ATLAS_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["QUADRANT_ATLAS_THREADS"]
        else:
            os.environ["QUADRANT_ATLAS_THREADS"] = old


def _timed(fn, *args) -> tuple[float, object]:
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def _peak_alloc_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def baselines(modules: dict, seed: int) -> dict:
    """Single-thread and all-CPU timings of the two threaded kernels, at
    acceptance sizes, plus their peak traced allocation."""
    topo, samp = modules["topology"], modules["sampler"]
    nproc = len(os.sched_getaffinity(0))
    tube = topo.make_tube(1.0, 2.0, "d1")
    loop = topo.BoundaryLoop("alpha1", tube.m)
    link_args = (loop, tube.disc, 4096, 4096)
    cfg = samp.SamplerConfig(count=1_000_000, seed=seed)
    out = {}
    for name, fn, args in (
        ("topology.gauss_linking", topo.gauss_linking, link_args),
        ("sampler.check_positivity", samp.check_positivity, (cfg,)),
    ):
        peak_mb = _peak_alloc_mb(fn, *args)  # also warms the kernel up
        with threads(1):
            t1, result = _timed(fn, *args)
        with threads(nproc):
            tn, _ = _timed(fn, *args)
        out[name] = {"parallel_eff": t1 / (nproc * tn), "peak_alloc_mb": peak_mb, "result": result}
    return out


def traced(cli, ops, ledger, seconds, modules, seed) -> tuple[dict, dict, "Tracer"]:
    from tracer import Tracer

    _, build = setup_probes(SETUP_PROBES, Calibrator())
    settle()
    untraced_passes, op_s = run_passes(cli, ops, ledger, seconds / 2.0, 1, Calibrator())
    untraced_s = sum(statistics.fmean(dt for dt, _ in v) for v in op_s.values())

    tracer = Tracer()
    tracer.install(modules)
    try:

        def call(run, argv):
            return tracer.span("cli.run", run, argv)

        results = []
        t0 = perf_counter()
        for op in ops:
            tracer.op = op.id
            results.append(run_op(cli, op, call))
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    for op, (rc, text, _) in zip(ops, results):
        ledger.judge(op, rc, text)
    base = baselines(modules, seed)

    totals = tracer.totals()

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def rate(work, seconds_):
        return work / seconds_ if seconds_ > 0 else 0.0

    outputs = {}  # op id -> results of its first-pass document
    for op in ops:
        try:
            outputs[op.id] = json.loads(ledger.docs[op.id])["results"]
        except (ValueError, KeyError, TypeError):
            pass  # malformed output is already a failed op
    pre = [outputs[op.id] for op in ops if op.subcommand == "preimage" and op.id in outputs]
    solved = [r for r in pre if "seed_index" in r]
    fallback = sum(1 for r in pre if "error" in r or r.get("stage") == "direct-fallback")
    link = base["topology.gauss_linking"]
    link_err = [abs(link["result"].value - modules["topology"].ALPHA1_D1_SIGN)]
    for op in ops:
        if op.subcommand == "certify" and op.id not in ledger.problems:
            for pair in outputs[op.id]["pairs"]:
                link_err.append(abs(pair["linking"]["value"] - pair["linking"]["expected"]))

    jac = calls("maps.jacobian_F")
    pos = base["sampler.check_positivity"]
    m = {
        "polynomial.build_theorem_map.cold_s": (statistics.median(build), "s"),
        "polynomial.evaluate_float.calls": (calls("polynomial.evaluate_float"), "count"),
        "polynomial.evaluate_float.s": (busy("polynomial.evaluate_float"), "s"),
        "polynomial.evaluate_exact.calls": (calls("polynomial.evaluate_exact"), "count"),
        "polynomial.evaluate_exact.s": (busy("polynomial.evaluate_exact"), "s"),
        "polynomial.compose.s": (busy("polynomial.compose"), "s"),
        "maps.objective_F.calls": (calls("maps.objective_F"), "count"),
        "maps.objective_F.s": (busy("maps.objective_F"), "s"),
        "maps.jacobian_F.calls": (jac, "count"),
        "maps.jacobian_F.s": (busy("maps.jacobian_F"), "s"),
        "maps.eval_phi.calls": (calls("maps.eval_phi"), "count"),
        "maps.eval_phi.s": (busy("maps.eval_phi"), "s"),
        "maps.eval_psi.calls": (calls("maps.eval_psi"), "count"),
        "solver.preimage.s": (busy("solver.preimage"), "s"),
        "solver.lift_to_quadrant.calls": (calls("solver.lift_to_quadrant"), "count"),
        "solver.winning_seed_index": (
            statistics.median(r["seed_index"] for r in solved) if solved else 0,
            "index",
        ),
        "solver.newton_iters": (sum(r["newton_iters"] for r in solved), "count"),
        "solver.fallback_share": (fallback / len(pre) if pre else 0.0, "ratio"),
        "solver.objective_per_jacobian": (
            calls("maps.objective_F") / jac if jac else 0.0,
            "ratio",
        ),
        "solver.residual_max": (max((r["residual"] for r in solved), default=0.0), "ratio"),
        "sampler.check_positivity.s": (busy("sampler.check_positivity"), "s"),
        "sampler.check_positivity.samples_per_s": (
            rate(tracer.work("sampler.check_positivity"), busy("sampler.check_positivity")),
            "1/s",
        ),
        "sampler.check_positivity.parallel_eff": (pos["parallel_eff"], "ratio"),
        "sampler.check_positivity.peak_alloc_mb": (pos["peak_alloc_mb"], "MB"),
        "sampler.check_f2_equals_h_g.s": (busy("sampler.check_f2_equals_h_g"), "s"),
        "sampler.check_g_psi_equals_phi.s": (busy("sampler.check_g_psi_equals_phi"), "s"),
        "sampler.check_phi_bound.s": (busy("sampler.check_phi_bound"), "s"),
        "sampler.check_mu_gluing.s": (busy("sampler.check_mu_gluing"), "s"),
        "topology.gauss_linking.s": (busy("topology.gauss_linking"), "s"),
        "topology.gauss_linking.pairs": (tracer.work("topology.gauss_linking"), "count"),
        "topology.gauss_linking.pairs_per_s": (
            rate(tracer.work("topology.gauss_linking"), busy("topology.gauss_linking")),
            "1/s",
        ),
        "topology.gauss_linking.parallel_eff": (link["parallel_eff"], "ratio"),
        "topology.gauss_linking.peak_alloc_mb": (link["peak_alloc_mb"], "MB"),
        "topology.gauss_linking.max_abs_err": (max(link_err), "ratio"),
        "topology.transversality_scan.s": (busy("topology.transversality_scan"), "s"),
        "topology.transversality_scan.points_per_s": (
            rate(tracer.work("topology.transversality_scan"), busy("topology.transversality_scan")),
            "1/s",
        ),
        "cli.self_s": (totals.get("cli.run", [0, 0.0, 0.0])[2], "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    notes = {
        "untraced_passes": untraced_passes,
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "spans": len(tracer.spans),
        "fail_frac": ledger.failed / ledger.attempted,
    }
    return m, notes, tracer


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    package = SRC / "quadrant_atlas"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"quadrant_atlas.{name}")
        for name in ("polynomial", "maps", "solver", "sampler", "topology", "parallel", "cli")
    }
    if Path(modules["cli"].__file__).resolve().parent != package.resolve():
        print(f"error: imported {modules['cli'].__file__}, not {package}", file=sys.stderr)
        return 2
    from checks import check

    ops = WORKLOADS[args.workload](random.Random(args.seed))
    ledger = Ledger(check)
    cli = modules["cli"]
    if args.trace:
        metrics, notes, tracer = traced(cli, ops, ledger, args.seconds, modules, args.seed)
        raw = {}
    else:
        metrics, notes, raw = end_to_end(cli, ops, ledger, args.seconds)
        tracer = None

    record = context(args.workload, args.seed, modules)
    record.update(notes)
    record["problems"] = ledger.problems
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"context": record, "raw": raw, "result": result}, indent=2) + "\n",
        encoding="utf-8",
    )

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for name, value in notes.items():
        print(f"{name:42s} {value:>16.6g}")
    for op_id, problem in sorted(ledger.problems.items()):
        print(f"failed: {op_id}: {problem}")
    print("context " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
