"""Tests of the benchmark itself: its gates and its tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import nhlgi  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_BUDGET = 640


def _run(ops, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        return {op.label: op.run() for op in ops}
    finally:
        if tracer is not None:
            tracer.uninstall()


def _small_ops(name, seed, workdir):
    """Operations of a short pass: the warm-up budget for the scans, a full CLI pass."""
    workload = workloads.make(name, seed, str(workdir))
    return workload.ops(warmup=workload.name != "cli_sweep")


def _comparable(value):
    if isinstance(value, list):
        return [_comparable(v) for v in value]
    if isinstance(value, workloads.CliOutput):
        return (value.command, value.exit_code, value.data)
    return value.to_dict()


# ---------------------------------------------------------------------------
# gates


def test_k3_gate_rejects_perturbed_maximum():
    res = nhlgi.maximize_k3(0.9, budget=SMALL_BUDGET, seed=3)
    assert workloads.check_k3_search(res) == []
    bumped = dataclasses.replace(res, objective=res.objective + 1e-9)
    assert any("re-evaluates" in p for p in workloads.check_k3_search(bumped))
    lowered = dataclasses.replace(res, objective=1.0)
    assert any("below closed form" in p for p in workloads.check_k3_search(lowered))


def test_speed_gate_rejects_perturbed_maximum():
    res = nhlgi.maximize_speed(0.9, budget=SMALL_BUDGET, seed=3)
    assert workloads.check_speed_search(res) == []
    short = dataclasses.replace(res, objective=res.objective * (1.0 - 1e-3))
    problems = workloads.check_speed_search(short)
    assert any("closed-form peak" in p for p in problems)
    assert any("re-evaluates" in p for p in problems)


def test_noise_gate_rejects_rise_and_perturbed_value():
    series = nhlgi.k3max_vs_noise(
        workloads.NOISE_THETA, workloads.NOISE_KAPPAS, budget=workloads.NOISE_BUDGET, seed=0
    )
    assert workloads.check_noise_series(series) == []
    risen = list(series)
    risen[2] = dataclasses.replace(series[2], objective=series[1].objective + 0.01)
    problems = workloads.check_noise_series(risen)
    assert any("rises" in p for p in problems)
    assert any("re-evaluates" in p for p in problems)
    high_tail = list(series)
    high_tail[-1] = dataclasses.replace(series[-1], objective=1.02)
    assert any("above 1.01" in p for p in workloads.check_noise_series(high_tail))


def test_cli_gate_rejects_corrupted_row(tmp_path):
    sweep = workloads.CliSweep(7, str(tmp_path))
    lgi, embed = sweep.ops()[0], sweep.ops()[2]
    first = lgi.run()
    assert sweep.check(first) == []
    assert sweep.check(lgi.run()) == []

    corrupted = _corrupt(first, "k3", lambda v: v + 1e-6)
    problems = sweep.check(corrupted)
    assert any("closed form" in p for p in problems)
    assert any("bytes differ" in p for p in problems)

    lines = first.data.decode().splitlines(keepends=True)
    dropped = workloads.CliOutput("lgi", 0, "".join(lines[:-1]).encode())
    assert any("rows, expected" in p for p in sweep.check(dropped))
    assert sweep.check(workloads.CliOutput("lgi", 2, b"")) == ["lgi: exit code 2"]

    out = embed.run()
    assert sweep.check(out) == []
    low = sweep.check(_corrupt(out, "fidelity", lambda v: v - 1e-9))
    assert any("fidelity" in p for p in low)
    apart = sweep.check(_corrupt(out, "k3_embedded", lambda v: v + 1e-9))
    assert any("k3_embedded" in p for p in apart)


def _corrupt(out, column, change):
    """Copy of a CLI output with ``change`` applied to one cell of ``column``."""
    lines = out.data.decode().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    j = lines[header].rstrip("\n").split(",").index(column)
    cells = lines[header + 1].rstrip("\n").split(",")
    cells[j] = repr(change(float(cells[j])))
    lines[header + 1] = ",".join(cells) + "\n"
    return workloads.CliOutput(out.command, out.exit_code, "".join(lines).encode())


# ---------------------------------------------------------------------------
# tracer


@pytest.mark.parametrize("name", ["scan_pure", "noise_series", "cli_sweep"])
def test_traced_pass_matches_untraced(name, tmp_path):
    plain = _run(_small_ops(name, 11, tmp_path))
    tracer = Tracer()
    traced = _run(_small_ops(name, 11, tmp_path), tracer)
    assert {k: _comparable(v) for k, v in traced.items()} == {
        k: _comparable(v) for k, v in plain.items()
    }
    metrics = tracer.layer_metrics()
    assert metrics["lgi.k3_calls"] > 0
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_tracer_restores_every_binding():
    import nhlgi.cli
    import nhlgi.lgi
    import nhlgi.scan

    before = (nhlgi.maximize_k3, nhlgi.scan.maximize_k3, nhlgi.scan.minimize,
              nhlgi.cli.speed, nhlgi.lgi.CorrelatorEngine.k3,
              nhlgi.lgi.Observable.__dict__["from_angles"],
              nhlgi.NHHamiltonian.propagator)
    tracer = Tracer()
    tracer.install()
    assert nhlgi.maximize_k3 is not before[0]
    assert nhlgi.maximize_k3 is nhlgi.scan.maximize_k3
    tracer.uninstall()
    after = (nhlgi.maximize_k3, nhlgi.scan.maximize_k3, nhlgi.scan.minimize,
             nhlgi.cli.speed, nhlgi.lgi.CorrelatorEngine.k3,
             nhlgi.lgi.Observable.__dict__["from_angles"],
             nhlgi.NHHamiltonian.propagator)
    assert all(a is b for a, b in zip(before, after))


def test_layer_metrics_self_time_and_scan_counts():
    tracer = Tracer()
    tracer.install()
    try:
        res = nhlgi.maximize_k3(1.0, budget=SMALL_BUDGET, seed=5)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["scan.restarts"] == res.restarts
    k3_in_scan = m["lgi.k3_calls"]
    assert m["scan.infeasible_frac"] == pytest.approx(1.0 - k3_in_scan / res.evals)
    assert 0.0 <= m["scan.restart_maxfev_frac"] <= 1.0
    assert m["scan.seed_pass_s"] > 0.0
    assert 0.0 < m["lgi.k3_self_s"] < sum(
        s[2] - s[1] for s in tracer.spans if s[0] == "lgi.k3"
    )
    assert m["dynamics.propagator_calls"] >= 6 * k3_in_scan


def test_layer_metrics_take_pauses_out_of_the_spans_they_interrupt():
    tracer = Tracer()
    # A restart from t=0 to 10 holding two K3 calls; pauses start inside the
    # first call (t=2), in the restart's own code (t=5) and after it (t=11).
    tracer.spans = [
        ("scan.restart", 0.0, 10.0, -1, 0),
        ("lgi.k3", 1.0, 4.0, 0, False),
        ("lgi.k3", 6.0, 7.0, 0, False),
    ]
    m = tracer.layer_metrics(([2.0, 5.0, 11.0], [0.5, 0.25, 3.0]))
    assert m["lgi.k3_self_s"] == pytest.approx(2.5 + 1.0)
    assert m["lgi.k3_pure_us_p50"] == pytest.approx(1.75e6)
    assert m["scan.restart_s_p50"] == pytest.approx(10.0 - 0.75)
    assert m["scan.self_s"] == pytest.approx(10.0 - 0.75 - 3.5)
    assert tracer.layer_metrics()["scan.restart_s_p50"] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_matches_the_runner():
    import importlib.util
    import json

    from tracer import LAYER_METRICS

    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in doc["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == LAYER_METRICS
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )
