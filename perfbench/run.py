"""cubeconv benchmark: one closed-loop client in one thread.

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; cubeconv is imported from its
`src/` directory, never from an installed copy.  Each call starts when
the previous one returns.  With --trace 0 the last stdout line reports
the end-to-end metrics; with --trace 1 it reports the per-layer metrics
of traced passes, alternated with untraced ones to measure the tracing
overhead.  The line before it holds the run context (ungated).  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MODULES = ("cli", "core", "counting", "transform", "verifier")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """At most nproc BLAS/OpenMP threads; must run before numpy loads."""
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= NPROC):
            os.environ[var] = str(NPROC)


def import_cubeconv() -> SimpleNamespace:
    """A fresh import of cubeconv from SRC (previous copies are dropped)."""
    for name in [k for k in sys.modules if k == "cubeconv" or k.startswith("cubeconv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cubeconv")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"cubeconv imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"cubeconv.{m}") for m in MODULES})


def src_line_counts() -> dict[str, int]:
    pkg = os.path.join(SRC, "cubeconv")
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                counts[name[:-3]] = sum(1 for _ in fh)
    return counts


class Runner:
    """Runs passes over the op list and checks every output."""

    def __init__(self, cc, ops, expected):
        self.cc, self.ops, self.expected = cc, ops, expected
        self.attempted = 0
        self.failed = 0
        self.first_stdout: list[str] | None = None

    def run_pass(self, tracer=None) -> list[float]:
        """One pass; returns each call's wall time."""
        gc.collect()
        outputs, times = [], []
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call(self.cc)
                else:
                    out = tracer.call(f"op/{op.label}", op.call, self.cc)
            except Exception as exc:  # a failing call is counted, not fatal
                out = exc
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        self._check(outputs)
        return times

    def _check(self, outputs) -> None:
        stdout = [getattr(out, "stdout", "") for out in outputs]
        if self.first_stdout is None:
            self.first_stdout = stdout
        for op, out, exp, text, first in zip(self.ops, outputs, self.expected, stdout, self.first_stdout):
            self.attempted += 1
            # Identical invocations must print identical bytes on every pass.
            if isinstance(out, Exception) or text != first or not op.agrees(out, exp):
                self.failed += 1
                if isinstance(out, Exception):
                    detail = "".join(traceback.format_exception(out))
                else:
                    detail = repr(out)[:500]
                print(f"failed: {op.label}: {detail}", file=sys.stderr)

    def stdout_sha256(self) -> str:
        return hashlib.sha256("".join(self.first_stdout or []).encode()).hexdigest()


def typical_time(passes: list[list[float]], ops, selected=lambda op: True) -> float:
    """Sum over the selected calls of each call's median time across
    passes: one pass's wall time with a slow spell in any single pass
    filtered out."""
    return sum(statistics.median(p[i] for p in passes) for i, op in enumerate(ops) if selected(op))


def repeat_for(seconds: float, once) -> list:
    """Call once() until the next call would likely overrun `seconds`;
    at least one call."""
    start, results, durations = time.perf_counter(), [], []
    while True:
        t0 = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def layer_metrics(tracer, passes: int, overhead_s: float) -> dict:
    def per_pass(value):
        return value / passes

    def per_pass_count(value):
        return value // passes  # every pass makes the same calls

    busy = tracer.busy
    bcv = busy("transform.batch_corner_value")
    madds = tracer.counts.get("transform.batch_corner_value.nominal_madds", 0)
    values = {
        "cli.parse_family.s": (per_pass(busy("cli.parse_family")), "s"),
        "cli.parse_family.calls": (per_pass_count(tracer.calls("cli.parse_family")), "count"),
        "counting.bound_report.self_s": (per_pass(tracer.self_time("counting.bound_report")), "s"),
        "core.family_to_functions.s": (per_pass(busy("core.family_to_functions")), "s"),
        "transform.corner_convolution.s": (per_pass(busy("transform.corner_convolution")), "s"),
        "transform.corner_convolution.calls": (
            per_pass_count(tracer.calls("transform.corner_convolution")),
            "count",
        ),
        "transform.batch_corner_value.s": (per_pass(bcv), "s"),
        "transform.batch_corner_value.nominal_madds": (per_pass_count(madds), "count"),
        "transform.batch_corner_value.gmadds_per_s": (madds / bcv / 1e9 if bcv > 0 else 0.0, "Gmadd/s"),
        "transform.zeta.s": (per_pass(busy("transform.zeta")), "s"),
        "transform.moebius.s": (per_pass(busy("transform.moebius")), "s"),
        "transform.subset_convolve.s": (per_pass(busy("transform.subset_convolve")), "s"),
        "verifier.trial_uniforms.s": (per_pass(busy("verifier.trial_uniforms")), "s"),
        "verifier.trial_uniforms.draws": (
            per_pass_count(tracer.counts.get("verifier.trial_uniforms.draws", 0)),
            "count",
        ),
        "verifier.run_trials.self_s": (per_pass(tracer.self_time("verifier.run_trials")), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cubeconv benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cubeconv", "__init__.py")):
        print(f"error: no cubeconv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)
    import numpy as np  # noqa: E402  (after the BLAS thread pin)

    from spans import Tracer, install  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        def set_up():
            """A fresh import plus the workload's inputs: (seconds, modules, ops)."""
            t0 = time.perf_counter()
            cc = import_cubeconv()
            ops = build(cc, args.seed, workdir)
            return time.perf_counter() - t0, cc, ops

        first, cc, ops = set_up()
        setups = [first]
        expected = [op.expect() for op in ops]
        runner = Runner(cc, ops, expected)

        if args.trace:
            tracer = Tracer()

            def pair():
                untraced = runner.run_pass()
                patches = install(tracer, cc)
                try:
                    traced = runner.run_pass(tracer)
                finally:
                    patches.undo()
                return untraced, traced

            pairs = repeat_for(args.seconds, pair)
            overhead = typical_time([t for _, t in pairs], ops) - typical_time([u for u, _ in pairs], ops)
            metrics = layer_metrics(tracer, len(pairs), overhead)
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
            passes = [p for pair_passes in pairs for p in pair_passes]
        else:

            def pass_then_set_up():
                # One more set-up after each pass spreads the set-up samples
                # over the run, as the passes are, so one slow spell of the
                # host cannot decide setup_s.  The calls keep using the
                # first set-up's modules and inputs.
                times = runner.run_pass()
                setups.append(set_up()[0])
                return times

            passes = repeat_for(args.seconds, pass_then_set_up)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": typical_time(passes, ops), "unit": "s"},
                "largest_op_s": {"value": typical_time(passes, ops, lambda op: op.largest), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op_failure_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio"},
        "setup_runs_s": setups,
        "pass_wall_s": [sum(p) for p in passes],
        "ops_per_pass": len(ops),
        "stdout_sha256": runner.stdout_sha256(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "src_lines": src_line_counts(),
    }
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
