"""Outside-in tracing of the nhlgi layers.

The tracer wraps the public functions and methods of each package module
from the benchmark's side, so nothing under ``src/`` changes.  A wrapped
function is replaced in every ``nhlgi`` module that binds it (``nhlgi``,
``nhlgi.scan``, ``nhlgi.cli``, ...), because the package imports names
rather than modules.  Spans are kept in memory as
``(name, start, end, parent, tag)`` tuples and turned into per-layer
metrics after each traced pass.

``NHHamiltonian.propagator`` runs in about 4 us and is called hundreds of
thousands of times per pass; a span around every call inflates wall time by
about a quarter, so it is counted on every call and timed on every
``PROPAGATOR_SAMPLE_EVERY``-th call only.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

PROPAGATOR_SAMPLE_EVERY = 16

CLI_COMMANDS = ("lgi", "noise", "embed", "trajectory", "speed", "distance")

# (defining module, attribute) of every traced function.
_FUNCTIONS = (
    ("nhlgi.scan", "maximize_k3", "scan.maximize_k3"),
    ("nhlgi.scan", "maximize_speed", "scan.maximize_speed"),
    ("nhlgi.scan", "k3max_vs_noise", "scan.k3max_vs_noise"),
    ("nhlgi.scan", "minimize", "scan.restart"),
    ("nhlgi.dynamics", "speed", "dynamics.speed"),
    ("nhlgi.dynamics", "integrate_bloch", "dynamics.integrate_bloch"),
    ("nhlgi.embedding", "k3_via_embedding", "embedding.k3_via_embedding"),
    ("nhlgi.embedding", "evolve_and_postselect", "embedding.evolve_and_postselect"),
    ("nhlgi.embedding", "build_HT", "embedding.build_HT"),
    ("nhlgi.emit", "write_csv", "emit.write_csv"),
    ("nhlgi.qmat", "trace_distance", "qmat.trace_distance"),
    ("nhlgi.cli", "main", "cli.command"),
)

# (module, class, method, span name) of every traced method.
_METHODS = (
    ("nhlgi.lgi", "CorrelatorEngine", "k3", "lgi.k3"),
    ("nhlgi.lgi", "CorrelatorEngine", "__init__", "lgi.engine_init"),
    ("nhlgi.lgi", "JointTable", "__init__", "lgi.joint_table_init"),
    ("nhlgi.lgi", "Observable", "from_angles", "lgi.observable_from_angles"),
)

# name -> (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "scan.restarts": ("count", "lower"),
    "scan.restart_s_p50": ("s", "lower"),
    "scan.restart_s_p90": ("s", "lower"),
    "scan.restart_maxfev_frac": ("frac", "lower"),
    "scan.seed_pass_s": ("s", "lower"),
    "scan.infeasible_frac": ("frac", "lower"),
    "scan.self_s": ("s", "lower"),
    "scan.optimize_warnings": ("count", "lower"),
    "scan.v_best_ratio": ("ratio", "higher"),
    "lgi.k3_calls": ("count", "lower"),
    "lgi.k3_pure_us_p50": ("us", "lower"),
    "lgi.k3_pure_us_p99": ("us", "lower"),
    "lgi.k3_noisy_us_p50": ("us", "lower"),
    "lgi.k3_noisy_us_p99": ("us", "lower"),
    "lgi.k3_self_s": ("s", "lower"),
    "lgi.joint_table_init_us": ("us", "lower"),
    "lgi.joint_table_inits": ("count", "lower"),
    "lgi.observable_from_angles_us": ("us", "lower"),
    "lgi.engine_init_us": ("us", "lower"),
    "lgi.engine_inits": ("count", "lower"),
    "dynamics.propagator_calls": ("count", "lower"),
    "dynamics.propagator_us": ("us", "lower"),
    "dynamics.speed_calls": ("count", "lower"),
    "dynamics.speed_us": ("us", "lower"),
    "dynamics.integrate_bloch_s": ("s", "lower"),
    "embedding.k3_via_embedding_us": ("us", "lower"),
    "embedding.evolve_and_postselect_calls": ("count", "lower"),
    "embedding.build_HT_calls": ("count", "lower"),
    "emit.write_csv_s": ("s", "lower"),
    "emit.bytes": ("bytes", "lower"),
    **{f"cli.command_s.{cmd}": ("s", "lower") for cmd in CLI_COMMANDS},
    "qmat.trace_distance_calls": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def _bindings(original):
    """Every (namespace, attribute) in the loaded nhlgi modules bound to ``original``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "nhlgi" or mod_name.startswith("nhlgi.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
    return found


def _csv_bytes(args, kwargs) -> int:
    target = args[0] if args else kwargs.get("target")
    if isinstance(target, (str, os.PathLike)) and target != "-":
        return os.path.getsize(target)
    return 0


class Tracer:
    """Installs span-recording wrappers; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.propagator_calls = 0
        self.propagator_samples: list[float] = []
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, tag_of=None, name_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tag = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if tag_of is not None:
                    tag = tag_of(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                label = name_of(args) if name_of is not None else name
                spans[idx] = (label, t0, t1, parent, tag)

        return wrapper

    def _propagator(self, fn):
        clock = time.perf_counter
        samples = self.propagator_samples

        def wrapper(*args, **kwargs):
            self.propagator_calls += 1
            if self.propagator_calls % PROPAGATOR_SAMPLE_EVERY:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(clock() - t0)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import nhlgi.cli  # noqa: F401  (loads every module that binds a target)

        hooks = {
            "scan.restart": (lambda a, k, r: int(r.status), None),
            "scan.maximize_k3": (lambda a, k, r: int(r.evals), None),
            "emit.write_csv": (lambda a, k, r: _csv_bytes(a, k), None),
            "cli.command": (None, lambda a: f"cli.{(a[0] if a else ['?'])[0]}"),
        }
        for mod_name, attr, name in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            tag_of, name_of = hooks.get(name, (None, None))
            wrapper = self._span(name, original, tag_of, name_of)
            for namespace, bound in _bindings(original):
                self._restore.append((namespace, bound, original))
                setattr(namespace, bound, wrapper)

        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            self._restore.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._span(name, raw.__func__)))
            elif name == "lgi.k3":
                setattr(
                    cls, attr,
                    self._span(name, raw, tag_of=lambda a, k, r: r.kappa > 0.0),
                )
            else:
                setattr(cls, attr, self._span(name, raw))

        ham = sys.modules["nhlgi.dynamics"].NHHamiltonian
        raw = ham.__dict__["propagator"]
        self._restore.append((ham, "propagator", raw))
        ham.propagator = self._propagator(raw)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, pauses=((), ())) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in this pass.

        ``pauses`` are the start times and durations, in time order, of
        interruptions that ran inside spans but are not the package's work
        (the speed sampler's handler); a span's duration excludes those that
        started within it.  Self time of a span is its duration minus the
        durations of its direct children; spans of one thread nest, so
        children never overlap.  Distributions with no samples report 0.
        """
        spans = self.spans
        n = len(spans)
        starts = np.asarray(pauses[0], dtype=float)
        paused = np.concatenate(([0.0], np.cumsum(pauses[1])))
        bounds = np.array([(s[1], s[2]) for s in spans], dtype=float).reshape(-1, 2)
        lo, hi = np.searchsorted(starts, bounds[:, 0]), np.searchsorted(starts, bounds[:, 1])
        dur = (bounds[:, 1] - bounds[:, 0] - (paused[hi] - paused[lo])).tolist()
        child_sum = [0.0] * n
        k3_speed_child_sum = [0.0] * n
        in_maximize_k3 = [False] * n
        first_restart: dict[int, float] = {}
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, t0, _t1, parent, _tag) in enumerate(spans):
            by_name[name].append(i)
            if parent >= 0:
                child_sum[parent] += dur[i]
                if name in ("lgi.k3", "dynamics.speed"):
                    k3_speed_child_sum[parent] += dur[i]
                in_maximize_k3[i] = in_maximize_k3[parent]
                if name == "scan.restart" and parent not in first_restart:
                    first_restart[parent] = t0
            if name == "scan.maximize_k3":
                in_maximize_k3[i] = True

        def durations(name, scale=1.0):
            return np.array([dur[i] for i in by_name[name]]) * scale

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        def frac(num, den):
            return num / den if den else 0.0

        restarts = by_name["scan.restart"]
        restart_s = durations("scan.restart")
        maximize = by_name["scan.maximize_k3"] + by_name["scan.maximize_speed"]
        seed_pass = [first_restart[i] - spans[i][1] for i in maximize if i in first_restart]
        k3_evals = sum(spans[i][4] or 0 for i in by_name["scan.maximize_k3"])
        k3_in_scan = sum(1 for i in by_name["lgi.k3"] if in_maximize_k3[i])
        k3_pure = [dur[i] * 1e6 for i in by_name["lgi.k3"] if not spans[i][4]]
        k3_noisy = [dur[i] * 1e6 for i in by_name["lgi.k3"] if spans[i][4]]

        out = {
            "scan.restarts": float(len(restarts)),
            "scan.restart_s_p50": pct(restart_s, 50),
            "scan.restart_s_p90": pct(restart_s, 90),
            "scan.restart_maxfev_frac": frac(
                sum(1 for i in restarts if spans[i][4] == 1), len(restarts)
            ),
            "scan.seed_pass_s": pct(seed_pass, 50),
            "scan.infeasible_frac": 1.0 - frac(k3_in_scan, k3_evals) if k3_evals else 0.0,
            "scan.self_s": sum(dur[i] - k3_speed_child_sum[i] for i in restarts),
            "lgi.k3_calls": float(len(by_name["lgi.k3"])),
            "lgi.k3_pure_us_p50": pct(k3_pure, 50),
            "lgi.k3_pure_us_p99": pct(k3_pure, 99),
            "lgi.k3_noisy_us_p50": pct(k3_noisy, 50),
            "lgi.k3_noisy_us_p99": pct(k3_noisy, 99),
            "lgi.k3_self_s": sum(dur[i] - child_sum[i] for i in by_name["lgi.k3"]),
            "lgi.joint_table_init_us": pct(durations("lgi.joint_table_init", 1e6), 50),
            "lgi.joint_table_inits": float(len(by_name["lgi.joint_table_init"])),
            "lgi.observable_from_angles_us": pct(
                durations("lgi.observable_from_angles", 1e6), 50
            ),
            "lgi.engine_init_us": pct(durations("lgi.engine_init", 1e6), 50),
            "lgi.engine_inits": float(len(by_name["lgi.engine_init"])),
            "dynamics.propagator_calls": float(self.propagator_calls),
            "dynamics.propagator_us": pct(np.array(self.propagator_samples) * 1e6, 50),
            "dynamics.speed_calls": float(len(by_name["dynamics.speed"])),
            "dynamics.speed_us": pct(durations("dynamics.speed", 1e6), 50),
            "dynamics.integrate_bloch_s": float(durations("dynamics.integrate_bloch").sum()),
            "embedding.k3_via_embedding_us": pct(
                durations("embedding.k3_via_embedding", 1e6), 50
            ),
            "embedding.evolve_and_postselect_calls": float(
                len(by_name["embedding.evolve_and_postselect"])
            ),
            "embedding.build_HT_calls": float(len(by_name["embedding.build_HT"])),
            "emit.write_csv_s": float(durations("emit.write_csv").sum()),
            "emit.bytes": float(sum(spans[i][4] or 0 for i in by_name["emit.write_csv"])),
            "qmat.trace_distance_calls": float(len(by_name["qmat.trace_distance"])),
        }
        for cmd in CLI_COMMANDS:
            out[f"cli.command_s.{cmd}"] = float(durations(f"cli.{cmd}").sum())
        out["_self_s_by_layer"] = {
            name: sum(dur[i] - child_sum[i] for i in idx) for name, idx in by_name.items()
        }
        out["_calls_by_layer"] = {name: len(idx) for name, idx in by_name.items()}
        return out

    def write_spans(self, path) -> None:
        """Write the spans as CSV: name, start and end (ns from the first span), parent."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, t0, t1, parent, _tag in self.spans:
                fh.write(
                    f"{name},{int((t0 - origin) * 1e9)},{int((t1 - origin) * 1e9)},{parent}\n"
                )
