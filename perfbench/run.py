"""Run one workload of the nhlgi benchmark and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_pure --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: set-up time of a fresh
interpreter, then one untimed warm-up pass, then timed passes until
``--seconds`` have passed, reporting medians over passes.  With
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones.  Every operation is gated for
correctness.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  A JSON record of the run (environment,
per-pass raw and scaled times, gate problems) and, for traced runs, the
spans go to ``.perfbench_out/`` in the checkout.

Timings are scaled to a nominal host speed (see ``speedclock.py``).  The package
is imported from ``src/`` of the checkout and from nowhere else; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from speedclock import SENSITIVITY, SpeedClock

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scan_pure", "noise_series", "cli_sweep")
SETUP_PROBES = 3
# A fresh interpreter samples its own speed while it imports the package and
# builds one noisy engine, then prints its speed factor for the parent.
SETUP_CODE = (
    "import sys; sys.path.insert(0, {here!r}); import speedclock; "
    "clock = speedclock.SpeedClock.python(); clock.start(); "
    "sys.path.insert(0, 'src'); import nhlgi, nhlgi.cli; "
    "nhlgi.CorrelatorEngine(nhlgi.NHHamiltonian.canonical(1.2), 0.1); "
    "clock.stop(); print(clock.factor())"
)

# name -> (unit, better) of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "rows_per_s": ("1/s", "higher"),
    "k3_best": ("1", "higher"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def pin_environment() -> None:
    """Single-threaded BLAS and the library's default (serial) scan."""
    os.environ.pop("NHLGI_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def commit_of(root: Path) -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) == 2 and Path(top[0]).resolve() == root.resolve():
        return top[1]
    return None


def environment_record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_of(root),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(root: Path) -> list:
    """Raw and speed-scaled times of fresh interpreters importing the package.

    One untimed start first compiles the bytecode and fills the page cache.
    """
    cmd = [sys.executable, "-I", "-c", SETUP_CODE.format(here=str(HERE))]

    def start():
        return subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=120, check=True
        )

    start()
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = start()
        raw = time.perf_counter() - t0
        factor = float(proc.stdout.split()[-1])
        samples.append(
            {"raw_s": raw, "speed_factor": factor, "scaled_s": raw * factor ** SENSITIVITY}
        )
    return samples


def _capture(fn):
    try:
        return fn(), None
    except Exception as exc:  # an operation that raises is a counted failure
        return None, exc


class Runner:
    """Runs passes of one workload and keeps the failure tally."""

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.warning_messages: list = []

    def run_pass(self, warmup: bool = False, tracer=None) -> dict:
        from scipy.optimize import OptimizeWarning

        ops = self.workload.ops(warmup)
        first_sample = len(self.clock.samples)
        results, raw_s, scaled_s = [], 0.0, 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.install()
            try:
                for op in ops:
                    (out, exc), raw, scaled = self.clock.timed(lambda op=op: _capture(op.run))
                    results.append((op, out, exc))
                    raw_s += raw
                    scaled_s += scaled
            finally:
                if tracer is not None:
                    tracer.uninstall()
        optimize_warnings = sum(1 for w in caught if issubclass(w.category, OptimizeWarning))
        self.warning_messages.extend(str(w.message) for w in caught)

        outputs = {}
        for op, out, exc in results:
            if exc is None:
                outputs[op.label] = out
            if warmup and not self.workload.gate_warmup:
                continue
            self.attempted += 1
            if exc is not None:
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                problems, gate_exc = _capture(lambda op=op, out=out: op.check(out))
                if gate_exc is not None:
                    problems = [f"gate raised {type(gate_exc).__name__}: {gate_exc}"]
            if problems:
                self.failed += 1
                self.problems.append({"op": op.label, "problems": problems})
        return {
            "summary": self.workload.summarize(outputs),
            "raw_s": raw_s,
            "scaled_s": scaled_s,
            "speed_factor": self.clock.factor(first_sample),
            "optimize_warnings": optimize_warnings,
        }


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, setup: list, passes: list) -> dict:
    summaries = [p["summary"] for p in passes]
    return {
        "setup_s": _median([s["scaled_s"] for s in setup]),
        "wall_s": _median([p["scaled_s"] for p in passes]),
        "evals_per_s": _median([s.evals / p["scaled_s"] for s, p in zip(summaries, passes)]),
        "rows_per_s": _median([s.rows / p["scaled_s"] for s, p in zip(summaries, passes)]),
        "k3_best": _median([s.k3_best for s in summaries]),
        "ok_frac": 1.0 - runner.failed / max(1, runner.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced: list, traced: list, layer_passes: list) -> dict:
    from tracer import LAYER_METRICS

    out = {}
    for name, (unit, _better) in LAYER_METRICS.items():
        values = []
        for p, m in zip(traced, layer_passes):
            if name in m:
                # Span times are raw; scale them like the pass they belong to.
                scale = p["scaled_s"] / p["raw_s"] if unit in ("s", "us") else 1.0
                values.append(m[name] * scale)
        out[name] = _median(values)
    out["scan.optimize_warnings"] = _median([p["optimize_warnings"] for p in traced])
    ratios = [p["summary"].v_best_ratio for p in traced]
    out["scan.v_best_ratio"] = _median([r for r in ratios if r is not None])
    out["trace.overhead_frac"] = (
        _median([p["scaled_s"] for p in traced]) / _median([p["scaled_s"] for p in untraced])
        - 1.0
    )
    return out


def _pass_record(p: dict) -> dict:
    s = p["summary"]
    return {
        "raw_s": p["raw_s"],
        "speed_factor": p["speed_factor"],
        "scaled_s": p["scaled_s"],
        "evals": s.evals,
        "rows": s.rows,
        "k3_best": s.k3_best,
        "v_best_ratio": s.v_best_ratio,
        "optimize_warnings": p["optimize_warnings"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nhlgi" / "__init__.py").is_file():
        print(f"error: no nhlgi package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(src), str(HERE)]
    import nhlgi

    if Path(nhlgi.__file__).resolve().parent != (src / "nhlgi").resolve():
        print(f"error: imported nhlgi from {nhlgi.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import LAYER_METRICS, Tracer

    out_dir = root / ".perfbench_out"
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    clock = SpeedClock.numpy()
    workload = workloads.make(args.workload, args.seed, str(work_dir))
    runner = Runner(workload, clock)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workloads.WHY[args.workload],
              "environment": environment_record(root)}

    clock.start()
    try:
        if args.trace == 0:
            setup = measure_setup(root)
            runner.run_pass(warmup=True)
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(runner.run_pass())
            metrics = end_to_end(runner, setup, passes)
            units = END_TO_END
            record.update(setup=setup, passes=[_pass_record(p) for p in passes])
            # peak_rss_mb is one reading of the whole process.
            samples = {"setup_s": len(setup), "ok_frac": runner.attempted, "peak_rss_mb": 1}
            samples.update({name: len(passes) for name in units if name not in samples})
        else:
            runner.run_pass(warmup=True)
            untraced, traced, tracers = [], [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                untraced.append(runner.run_pass())
                tracers.append(Tracer())
                traced.append(runner.run_pass(tracer=tracers[-1]))
            # The sampler's handler runs inside whatever span is open; its
            # time is taken out of the spans it interrupted.
            pauses = clock.pauses()
            layer_passes = [t.layer_metrics(pauses) for t in tracers]
            metrics = per_layer(untraced, traced, layer_passes)
            units = LAYER_METRICS
            record.update(
                untraced=[_pass_record(p) for p in untraced],
                traced=[_pass_record(p) for p in traced],
                self_s_by_layer=[m["_self_s_by_layer"] for m in layer_passes],
                calls_by_layer=[m["_calls_by_layer"] for m in layer_passes],
            )
            samples = {name: len(traced) for name in units}
            for i, t in enumerate(tracers):
                t.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}-pass{i}.csv")
    finally:
        clock.stop()
        for leftover in work_dir.glob("*"):
            leftover.unlink()
        work_dir.rmdir()

    fail_frac = runner.failed / max(1, runner.attempted)
    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems,
                  warnings=sorted(set(runner.warning_messages)))
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workloads.WHY[args.workload]}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    for name, (unit, better) in units.items():
        print(f"{name:40s} {metrics[name]:>16.6g} {unit:6s} n={samples[name]} ({better} is better)")
    print(f"{'fail_frac':40s} {fail_frac:>16.6g} {'frac':6s} n={runner.attempted}")
    if args.trace == 0:
        ratios = [p["summary"].v_best_ratio for p in passes]
        ratios = [r for r in ratios if r is not None]
        shown = f"{_median(ratios):>16.9g}" if ratios else f"{'n/a':>16s}"
        print(f"{'v_best_ratio':40s} {shown} {'ratio':6s} n={len(ratios)}")
        print(f"{'wall_s_raw':40s} {_median([p['raw_s'] for p in passes]):>16.6g} "
              f"{'s':6s} n={len(passes)}")
    for problem in runner.problems:
        print(f"# FAILED {problem['op']}: {'; '.join(problem['problems'])}")
    if runner.warning_messages:
        print(f"# warnings recorded: {len(runner.warning_messages)}", file=sys.stderr)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # A failed run can leave a NaN, which is not valid JSON.
        "metrics": {name: {"value": float(metrics[name]) if math.isfinite(metrics[name]) else 0.0,
                           "unit": unit}
                    for name, (unit, _better) in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
