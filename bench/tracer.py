"""Span recorder for the traced benchmark run.

The tracer wraps every public function of the working layers (polynomial,
maps, solver, sampler, topology) by rebinding the module-level names that
callers look up at call time, in every module of the package. Nothing in the
package source changes, and `uninstall` puts the original objects back.

Calls made once per sample or per Newton step (the HOT names) would produce
millions of spans, so they are aggregated per name: calls, inclusive time and
self time. Every other call becomes a span (id, name, start, end, parent,
op id, thread, self time) kept in memory until `write` dumps them as JSON
lines. Self time is the span's duration minus the time its child calls on
the same thread cover; calls on worker threads start a stack of their own and
name the main thread's innermost open span as their parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
from time import perf_counter

LAYERS = ("polynomial", "maps", "solver", "sampler", "topology")

# Per-sample or per-iteration entry points: aggregated, not stored as spans.
HOT = frozenset(
    {
        "polynomial.add",
        "polynomial.mul",
        "polynomial.neg",
        "polynomial.evaluate_float",
        "polynomial.evaluate_exact",
        "polynomial.stats",
        "polynomial.to_triples",
        "polynomial.to_text",
        "maps.eval_g",
        "maps.eval_h",
        "maps.eval_psi",
        "maps.eval_phi",
        "maps.eval_mu",
        "maps.eval_xi1",
        "maps.eval_xi2",
        "maps.eval_zeta1",
        "maps.eval_zeta2",
        "maps.objective_F",
        "maps.jacobian_F",
        "sampler.unit_double",
        "sampler.sample_pair",
        "solver.lift_to_quadrant",
        "topology.eval_loop",
        "topology.disc_boundary",
        "topology.tube_membership",
    }
)


# Work done by one call, read from its bound arguments: curve-sample pairs
# for the Gauss double sum, grid points for the transversality scan, stream
# samples for the positivity sweep.
WORK = {
    "topology.gauss_linking": lambda a: a["loop_segments"] * a["circle_segments"],
    "topology.transversality_scan": lambda a: a["grid"],
    "sampler.check_positivity": lambda a: a["cfg"].count,
}


class Tracer:
    """Records spans and per-name aggregates for the calls it wraps."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stacks: dict[int, list] = {}
        self._aggs: dict[int, dict[str, list]] = {}
        self._work: dict[str, int] = {}
        self._main = threading.get_ident()
        self._next_id = 0
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _frames(self) -> tuple[list, dict]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
            self._aggs[tid] = {}
        return stack, self._aggs[tid]

    def _parent_id(self, stack: list) -> int | None:
        for frame in reversed(stack):
            if frame[1] is not None:
                return frame[1]
        if threading.get_ident() != self._main:
            main = self._stacks.get(self._main, [])
            for frame in reversed(main):
                if frame[1] is not None:
                    return frame[1]
        return None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn as a stored span named name; returns its result."""
        stack, aggs = self._frames()
        parent = self._parent_id(stack)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            self_s = duration - frame[0]
            self._add(aggs, name, duration, self_s)
            self.spans.append(
                (span_id, name, start, end, parent, self.op, threading.get_ident(), self_s)
            )

    def _add(self, aggs: dict, name: str, duration: float, self_s: float) -> None:
        agg = aggs.get(name)
        if agg is None:
            aggs[name] = [1, duration, self_s]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_s

    def _wrap(self, name: str, fn):
        tracer = self
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        if name in HOT:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack, aggs = tracer._frames()
                frame = [0.0, None]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    tracer._add(aggs, name, duration, duration - frame[0])

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if work is not None:
                    amount = int(work(signature.bind(*args, **kwargs).arguments))
                    with tracer._lock:
                        tracer._work[name] = tracer._work.get(name, 0) + amount
                return tracer.span(name, fn, *args, **kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Rebind the layers' public functions in every module given.

        modules maps short module names ("cli", "solver", ...) to module
        objects; the LAYERS among them supply the functions to wrap.
        """
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds], all threads."""
        out: dict[str, list] = {}
        for aggs in list(self._aggs.values()):
            for name, (calls, total, self_s) in aggs.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def work(self, name: str) -> int:
        return self._work.get(name, 0)

    def write(self, path) -> None:
        """Spans first, then one aggregate line per name, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op, thread, self_s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "thread": thread,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )
            for name, (calls, total, self_s) in sorted(self.totals().items()):
                handle.write(
                    json.dumps(
                        {"aggregate": name, "calls": calls, "total_s": total, "self_s": self_s}
                    )
                    + "\n"
                )
