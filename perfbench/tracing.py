"""Outside-in tracing of the blaschke-lab CLI, and the per-layer metrics derived from it.

Run as a script, this imports ``blaschke_lab.cli``, replaces every
module binding of the traced functions and every class binding of the
traced methods with a span-recording wrapper, then calls
``cli.main(argv)`` with the same arguments as an untraced run:

    python perfbench/tracing.py SPANS_FILE SPAWNED_AT -- check --sequence s.json ...

SPAWNED_AT is the CLOCK_MONOTONIC time at which the caller spawned this
process.  Spans stay in memory and are written to SPANS_FILE at exit.
Nothing inside the package is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Functions wrapped wherever a module binds them: modules import by name,
# so ``pairwise_rho`` is a separate binding in five modules.
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "load_sequence_file"),
    ("cli", "validate_config"),
    ("cli", "run"),
    ("cli", "emit"),
    ("geometry", "pairwise_rho"),
    ("sequences", "perturb_sample"),
    ("criteria", "scan_circle"),
    ("criteria", "frostman_sum"),
    ("criteria", "cohn_sum"),
    ("criteria", "perturbation_report"),
    ("interpolation", "solve_kb"),
    ("interpolation", "sup_norm"),
    ("interpolation", "lebesgue_constant"),
)

# Methods wrapped on their class, under every name the class binds them
# to (``BlaschkeProduct.__call__`` is ``evaluate``).
METHODS = (
    ("blaschke", "ZeroSequence", "__init__", "init"),
    ("blaschke", "BlaschkeProduct", "carleson", "carleson"),
    ("blaschke", "BlaschkeProduct", "derivative", "derivative"),
    ("blaschke", "BlaschkeProduct", "evaluate", "evaluate"),
    ("interpolation", "InterpolantRep", "__call__", "call"),
)

MODULES = ("cli", "geometry", "blaschke", "sequences", "criteria", "interpolation")

# Spans whose per-thread CPU time is recorded: the two halves of a perturb trial.
TRIAL_SPANS = ("sequences.perturb_sample", "criteria.perturbation_report")

SCAN_F = "criteria.scan_circle.f"


class Tracer:
    """Records spans [id, name, parent id, start, end, thread CPU or None, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._local.sampling = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.sampling = None
        return stack

    def wrap(self, name, func, before=None, after=None, cpu=False):
        """A wrapper recording one span per call.

        before(args) returns the arguments to call with; after(args,
        kwargs, result) returns the span's attributes.  A call on a worker
        thread with no open span is parented to the innermost open span of
        the main thread, which is the one waiting on the worker.
        """
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            if before is not None:
                args = before(args)
            span_id = next(ids)
            stack.append(span_id)
            cpu0 = time.thread_time() if cpu else None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu_s = time.thread_time() - cpu0 if cpu else None
                stack.pop()
            attrs = after(args, kwargs, result) if after is not None else None
            spans.append([span_id, name, parent, start, end, cpu_s, attrs])
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _wrap_scanned(self, args):
        f = self.wrap(SCAN_F, args[0], after=lambda a, kw, r: {"points": _size(a[0])})
        return (f,) + tuple(args[1:])

    def _start_sampling(self, args):
        self._local.sampling = {"centers": args[0].values, "rounds": 0}
        return args

    def _end_sampling(self, args, kwargs, result):
        sampling, self._local.sampling = self._local.sampling, None
        return {"rounds": sampling["rounds"]}

    def _pairwise_after(self, args, kwargs, result):
        # perturb_sample compares the centers with each fresh draw exactly
        # once per rejection round.
        sampling = getattr(self._local, "sampling", None)
        if sampling is not None and args[0] is sampling["centers"] and args[1] is not args[0]:
            sampling["rounds"] += 1
        return {"entries": _size(args[0]) * _size(args[1])}


def _size(values) -> int:
    return int(np.size(values))


def install(tracer: Tracer) -> None:
    """Replace the traced functions and methods in the imported package."""
    package = importlib.import_module("blaschke_lab")
    modules = {name: importlib.import_module(f"blaschke_lab.{name}") for name in MODULES}
    hooks = {
        "cli.emit": {"after": lambda a, kw, r: {"bytes": os.path.getsize(kw["path"])}},
        "geometry.pairwise_rho": {"after": tracer._pairwise_after},
        "sequences.perturb_sample": {"before": tracer._start_sampling, "after": tracer._end_sampling},
        "criteria.scan_circle": {"before": tracer._wrap_scanned},
        "blaschke.BlaschkeProduct.carleson": {"after": lambda a, kw, r: {"N": a[0].degree}},
        "interpolation.InterpolantRep.call": {"after": lambda a, kw, r: {"points": _size(a[1])}},
    }
    for module_name, attr in FUNCTIONS:
        name = f"{module_name}.{attr}"
        original = getattr(modules[module_name], attr)
        traced = tracer.wrap(name, original, cpu=name in TRIAL_SPANS, **hooks.get(name, {}))
        for module in (package, *modules.values()):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for module_name, class_name, attr, label in METHODS:
        cls = getattr(modules[module_name], class_name)
        name = f"{module_name}.{class_name}.{label}"
        original = cls.__dict__[attr]
        traced = tracer.wrap(name, original, **hooks.get(name, {}))
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, traced)


# ---------------------------------------------------------------------------
# per-layer metrics from spans

CARLESON_SCHEDULE = (125, 250, 500)

# name -> unit, in the order they are reported.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.load_sequence_file.calls": "count",
    "cli.load_sequence_file.total_s": "s",
    "cli.validate_config.total_s": "s",
    "cli.run.self_s": "s",
    "cli.emit.total_s": "s",
    "cli.emit.bytes": "bytes",
    "geometry.pairwise_rho.calls": "count",
    "geometry.pairwise_rho.entries": "count",
    "geometry.pairwise_rho.total_s": "s",
    "blaschke.ZeroSequence.init.calls": "count",
    "blaschke.ZeroSequence.init.total_s": "s",
    **{f"blaschke.BlaschkeProduct.carleson.total_s.N{n}": "s" for n in CARLESON_SCHEDULE},
    "blaschke.carleson.slope": "1",
    "blaschke.BlaschkeProduct.derivative.calls": "count",
    "blaschke.BlaschkeProduct.evaluate.calls": "count",
    "criteria.scan_circle.calls": "count",
    "criteria.scan_circle.total_s": "s",
    "criteria.scan_circle.self_s": "s",
    "criteria.scan_circle.f_calls": "count",
    "criteria.scan_circle.f_points": "count",
    "criteria.scan_circle.f_s": "s",
    "criteria.frostman_sum.total_s": "s",
    "criteria.cohn_sum.total_s": "s",
    "criteria.perturbation_report.calls": "count",
    "criteria.perturbation_report.total_s": "s",
    "criteria.perturbation_report.cpu_s": "s",
    "cli.perturb.parallelism": "1",
    "sequences.perturb_sample.calls": "count",
    "sequences.perturb_sample.total_s": "s",
    "sequences.perturb_sample.rounds_per_sample": "1",
    "interpolation.solve_kb.total_s": "s",
    "interpolation.sup_norm.total_s": "s",
    "interpolation.lebesgue_constant.total_s": "s",
    "interpolation.InterpolantRep.call.calls": "count",
    "interpolation.InterpolantRep.call.points": "count",
}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced experiment (keys of LAYER_METRICS)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in trace["spans"]:
        by_name[span[1]].append(span)
        children[span[2]].append(span)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return math.fsum(s[4] - s[3] for s in by_name[name])

    def self_time(name):
        return math.fsum(
            (s[4] - s[3]) - _covered([(c[3], c[4]) for c in children[s[0]]], s[3], s[4])
            for s in by_name[name]
        )

    def attr_sum(name, key):
        return sum(s[6][key] for s in by_name[name])

    carleson_by_n = {n: 0.0 for n in CARLESON_SCHEDULE}
    for span in by_name["blaschke.BlaschkeProduct.carleson"]:
        if span[6]["N"] in carleson_by_n:
            carleson_by_n[span[6]["N"]] += span[4] - span[3]
    timed = [(n, t) for n, t in carleson_by_n.items() if t > 0.0]
    slope = _loglog_slope(timed) if len(timed) >= 2 else 0.0

    samples = calls("sequences.perturb_sample")
    trial_cpu = math.fsum(s[5] for name in TRIAL_SPANS for s in by_name[name])
    run_wall = total("cli.run")

    return {
        "cli.import_s": trace["import_s"],
        "cli.load_sequence_file.calls": calls("cli.load_sequence_file"),
        "cli.load_sequence_file.total_s": total("cli.load_sequence_file"),
        "cli.validate_config.total_s": total("cli.validate_config"),
        "cli.run.self_s": self_time("cli.run"),
        "cli.emit.total_s": total("cli.emit"),
        "cli.emit.bytes": attr_sum("cli.emit", "bytes"),
        "geometry.pairwise_rho.calls": calls("geometry.pairwise_rho"),
        "geometry.pairwise_rho.entries": attr_sum("geometry.pairwise_rho", "entries"),
        "geometry.pairwise_rho.total_s": total("geometry.pairwise_rho"),
        "blaschke.ZeroSequence.init.calls": calls("blaschke.ZeroSequence.init"),
        "blaschke.ZeroSequence.init.total_s": total("blaschke.ZeroSequence.init"),
        **{f"blaschke.BlaschkeProduct.carleson.total_s.N{n}": t for n, t in carleson_by_n.items()},
        "blaschke.carleson.slope": slope,
        # derivative and evaluate nest inside themselves through cofactors;
        # the counts include nested calls, so no total time is reported.
        "blaschke.BlaschkeProduct.derivative.calls": calls("blaschke.BlaschkeProduct.derivative"),
        "blaschke.BlaschkeProduct.evaluate.calls": calls("blaschke.BlaschkeProduct.evaluate"),
        "criteria.scan_circle.calls": calls("criteria.scan_circle"),
        "criteria.scan_circle.total_s": total("criteria.scan_circle"),
        "criteria.scan_circle.self_s": self_time("criteria.scan_circle"),
        "criteria.scan_circle.f_calls": calls(SCAN_F),
        "criteria.scan_circle.f_points": attr_sum(SCAN_F, "points"),
        "criteria.scan_circle.f_s": total(SCAN_F),
        "criteria.frostman_sum.total_s": total("criteria.frostman_sum"),
        "criteria.cohn_sum.total_s": total("criteria.cohn_sum"),
        "criteria.perturbation_report.calls": calls("criteria.perturbation_report"),
        "criteria.perturbation_report.total_s": total("criteria.perturbation_report"),
        "criteria.perturbation_report.cpu_s": math.fsum(
            s[5] for s in by_name["criteria.perturbation_report"]
        ),
        "cli.perturb.parallelism": trial_cpu / run_wall if samples and run_wall > 0.0 else 0.0,
        "sequences.perturb_sample.calls": samples,
        "sequences.perturb_sample.total_s": total("sequences.perturb_sample"),
        "sequences.perturb_sample.rounds_per_sample": (
            attr_sum("sequences.perturb_sample", "rounds") / samples if samples else 0.0
        ),
        "interpolation.solve_kb.total_s": total("interpolation.solve_kb"),
        "interpolation.sup_norm.total_s": total("interpolation.sup_norm"),
        "interpolation.lebesgue_constant.total_s": total("interpolation.lebesgue_constant"),
        "interpolation.InterpolantRep.call.calls": calls("interpolation.InterpolantRep.call"),
        "interpolation.InterpolantRep.call.points": attr_sum("interpolation.InterpolantRep.call", "points"),
    }


def _loglog_slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    return statistics.linear_regression(xs, ys).slope


# ---------------------------------------------------------------------------
# traced CLI entry point


def main(argv: list[str]) -> int:
    spans_path, spawned_at, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE SPAWNED_AT -- CLI ARGS...")
    import blaschke_lab.cli as cli  # here, so that import_s covers it

    import_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned_at)
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
