"""The three workloads of the nhlgi benchmark and their correctness gates.

Each workload is a closed loop driven by one process: the next operation
starts when the previous one returns.  Inputs come only from the workload
seed; the library sees only the generated values, through its public API or
its CLI entry point, and with its default thread setting.

A workload yields a pass as a list of operations.  An operation is one
search, one noise series (a single ``k3max_vs_noise`` call), or one CLI
command; it is gated by
``check``, which returns the problems found (empty when correct).  An
operation that raises, or whose gate finds a problem, counts as failed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nhlgi
import nhlgi.cli

CORNER_THETA = math.pi / 2 - 0.1
SCAN_BUDGET = 20_000
NOISE_THETA = 1.2
NOISE_KAPPAS = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
NOISE_BUDGET = 4_000
# Smallest budget the scans accept with the default ScanConfig
# (512 hypercube points plus one 64-evaluation restart).
WARMUP_BUDGET = 576
# Seeded thetas per cli_sweep command that takes a theta list.
CLI_N_LGI = 6
CLI_N_SPEED = 3
CLI_N_DISTANCE = 3
# Data rows each cli_sweep command writes, so a truncated table fails its gate.
CLI_EXPECTED_ROWS = {
    "lgi": 157 * CLI_N_LGI,
    "noise": 157 * 4,
    "embed": 31,
    "trajectory": 315,
    "speed": 315 * CLI_N_SPEED,
    "distance": 315 * CLI_N_DISTANCE,
}

WHY = {
    "scan_pure": (
        "pure-state K3 and speed searches: the Nelder-Mead protocol loop and "
        "finite-difference speed, the hot path of every scan"
    ),
    "noise_series": (
        "K3 maximum versus kappa > 0: the same scan layer on the density-matrix "
        "lift and warm-start chain, with the pure path left out"
    ),
    "cli_sweep": (
        "in-process CLI sweeps writing CSV: many engines, dilation, RK45 and emit, "
        "no optimiser"
    ),
}


@dataclass
class Op:
    """One gated operation of a pass."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class PassResult:
    """What the end-to-end metrics need from one pass."""

    evals: int = 0
    rows: int = 0
    k3_best: float = float("nan")
    v_best_ratio: float | None = None


def _reevaluate_k3(theta: float, kappa: float, argmax: dict) -> float:
    engine = nhlgi.CorrelatorEngine(nhlgi.NHHamiltonian.canonical(theta), kappa)
    psi = nhlgi.state_from_bloch_angles(argmax["theta_s"], argmax["phi_s"])
    q = nhlgi.Observable.from_angles(argmax["theta_q"], argmax["phi_q"])
    return engine.k3(psi, q, argmax["t1"], argmax["t2"], argmax["t3"]).k3


def _speed_peak(theta: float) -> float:
    s = math.sin(theta)
    return (1.0 + s) / (1.0 - s)


# ---------------------------------------------------------------------------
# scan_pure


def check_k3_search(res) -> list:
    """K3 maximum at kappa = 0: dominates the closed form and re-evaluates."""
    problems = []
    s = math.sin(res.theta)
    floor = 1.0 + s + s * s
    if not res.objective >= floor - 1e-9:
        problems.append(f"K3 max {res.objective!r} below closed form {floor!r}")
    again = _reevaluate_k3(res.theta, res.kappa, res.argmax)
    if not abs(again - res.objective) <= 1e-12:
        problems.append(f"argmax re-evaluates to {again!r}, not {res.objective!r}")
    return problems


def check_speed_search(res) -> list:
    """Speed maximum: reaches the closed-form peak (theta <= 1.4) and re-evaluates."""
    problems = []
    ratio = res.objective / _speed_peak(res.theta)
    if res.theta <= 1.4 and not ratio >= 1.0 - 1e-4:
        problems.append(f"speed max / closed-form peak = {ratio!r} < 1 - 1e-4")
    a = res.argmax
    psi = nhlgi.state_from_bloch_angles(a["theta_s"], a["phi_s"])
    again = nhlgi.speed(nhlgi.NHHamiltonian.canonical(res.theta), psi, a["t"])
    if not abs(again - res.objective) <= 1e-12 * max(1.0, abs(res.objective)):
        problems.append(f"argmax re-evaluates to {again!r}, not {res.objective!r}")
    return problems


class ScanPure:
    name = "scan_pure"
    # The warm-up runs at WARMUP_BUDGET, where the gates are not promised.
    gate_warmup = False

    def __init__(self, seed: int):
        children = np.random.SeedSequence(seed).spawn(5)
        self.theta = float(np.random.default_rng(children[0]).uniform(0.3, 1.4))
        self.scan_seeds = [int(c.generate_state(1)[0]) for c in children[1:]]

    def ops(self, warmup: bool = False) -> list:
        budget = WARMUP_BUDGET if warmup else SCAN_BUDGET
        seeds = iter(self.scan_seeds)
        ops = []
        for theta in (self.theta, CORNER_THETA):
            seed = next(seeds)
            ops.append(Op(
                f"maximize_k3@{theta:.6f}",
                lambda theta=theta, seed=seed: nhlgi.maximize_k3(theta, budget=budget, seed=seed),
                check_k3_search,
            ))
        for theta in (self.theta, CORNER_THETA):
            seed = next(seeds)
            ops.append(Op(
                f"maximize_speed@{theta:.6f}",
                lambda theta=theta, seed=seed: nhlgi.maximize_speed(
                    theta, budget=budget, seed=seed
                ),
                check_speed_search,
            ))
        return ops

    def summarize(self, outputs: dict) -> PassResult:
        results = list(outputs.values())
        k3 = [r for r in results if r.kind == "k3"]
        speed = [r for r in results if r.kind == "speed"]
        corner = [r.objective for r in k3 if r.theta == CORNER_THETA]
        return PassResult(
            evals=sum(r.evals for r in results),
            rows=len({r.theta for r in results}),
            k3_best=float(np.mean(corner)) if corner else float("nan"),
            v_best_ratio=(
                float(np.mean([r.objective / _speed_peak(r.theta) for r in speed]))
                if speed else None
            ),
        )


# ---------------------------------------------------------------------------
# noise_series


def check_noise_series(series: list) -> list:
    """Monotone decay to the classical value, every argmax re-evaluating."""
    problems = []
    values = [r.objective for r in series]
    for before, after in zip(values, values[1:]):
        if after > before + 1e-3:
            problems.append(f"K3 max rises from {before!r} to {after!r}")
    if values and not values[-1] <= 1.01:
        problems.append(f"last K3 max {values[-1]!r} above 1.01")
    for r in series:
        again = _reevaluate_k3(r.theta, r.kappa, r.argmax)
        if not abs(again - r.objective) <= 1e-12:
            problems.append(
                f"kappa {r.kappa!r}: argmax re-evaluates to {again!r}, not {r.objective!r}"
            )
    return problems


class NoiseSeries:
    name = "noise_series"
    gate_warmup = False

    def __init__(self, seed: int):
        self.scan_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])

    def ops(self, warmup: bool = False) -> list:
        budget = WARMUP_BUDGET if warmup else NOISE_BUDGET
        return [Op(
            f"k3max_vs_noise@{NOISE_THETA}",
            lambda: nhlgi.k3max_vs_noise(
                NOISE_THETA, NOISE_KAPPAS, budget=budget, seed=self.scan_seed
            ),
            check_noise_series,
        )]

    def summarize(self, outputs: dict) -> PassResult:
        series = [r for value in outputs.values() for r in value]
        return PassResult(
            evals=sum(r.evals for r in series),
            rows=len(series),
            k3_best=float(np.mean([r.objective for r in series])) if series else float("nan"),
        )


# ---------------------------------------------------------------------------
# cli_sweep


def parse_csv(data: bytes) -> tuple[list, list]:
    """Header and float rows of a CSV written by the CLI, metadata skipped."""
    header, rows = None, []
    for line in data.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append([float(c) for c in cells])
    return header or [], rows


def _columns(header: list, rows: list) -> dict:
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def check_lgi_rows(cols: dict) -> list:
    problems = []
    for theta, t, *values in zip(
        cols["theta"], cols["t"], cols["c12"], cols["c23"], cols["c13"], cols["k3"]
    ):
        expected = nhlgi.k3_closed_form(theta, t)
        worst = max(abs(a - b) for a, b in zip(values, expected))
        if not worst <= 1e-8:
            problems.append(f"theta {theta!r} t {t!r}: off the closed form by {worst!r}")
            break
    return problems


def check_embed_rows(cols: dict) -> list:
    problems = []
    for t, fid, direct, embedded in zip(
        cols["t"], cols["fidelity"], cols["k3_direct"], cols["k3_embedded"]
    ):
        if not fid >= 1.0 - 1e-11:
            problems.append(f"t {t!r}: dilation fidelity {fid!r} below 1 - 1e-11")
        if not abs(direct - embedded) <= 1e-10:
            problems.append(f"t {t!r}: k3_embedded {embedded!r} != k3_direct {direct!r}")
        if problems:
            break
    return problems


_CONTENT_CHECKS = {"lgi": check_lgi_rows, "embed": check_embed_rows}


@dataclass
class CliOutput:
    command: str
    exit_code: int
    data: bytes


class CliSweep:
    name = "cli_sweep"
    # The warm-up is a full pass; gating it records the reference bytes.
    gate_warmup = True

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(np.random.SeedSequence(seed))

        def theta_list(n):
            return ",".join(repr(float(x)) for x in np.sort(rng.uniform(0.0, 1.4, n)))

        self.workdir = workdir
        self.reference: dict[str, bytes] = {}
        self.argvs = [
            ["lgi", "--theta", theta_list(CLI_N_LGI)],
            ["noise"],
            ["embed"],
            ["trajectory", "--theta", "1.2", "--kappa", "0.01"],
            ["speed", "--theta", theta_list(CLI_N_SPEED)],
            ["distance", "--rescaled", "--theta", theta_list(CLI_N_DISTANCE)],
        ]

    def _run(self, argv: list) -> CliOutput:
        path = os.path.join(self.workdir, f"{argv[0]}.csv")
        if os.path.exists(path):
            os.remove(path)
        code = nhlgi.cli.main(argv + ["--out", path])
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        return CliOutput(argv[0], int(code), data)

    def check(self, out: CliOutput) -> list:
        """Exit code, row count, finite cells, content gate and byte stability.

        The first output of a command in a run becomes its reference; every
        later run of the same command must reproduce it byte for byte.
        """
        if out.exit_code != 0:
            return [f"{out.command}: exit code {out.exit_code}"]
        header, rows = parse_csv(out.data)
        problems = []
        expected = CLI_EXPECTED_ROWS[out.command]
        if len(rows) != expected:
            problems.append(f"{out.command}: {len(rows)} rows, expected {expected}")
        if not all(math.isfinite(v) for row in rows for v in row):
            problems.append(f"{out.command}: non-finite cell")
        gate = _CONTENT_CHECKS.get(out.command)
        if gate is not None:
            problems.extend(gate(_columns(header, rows)))
        reference = self.reference.setdefault(out.command, out.data)
        if out.data != reference:
            problems.append(f"{out.command}: output bytes differ from the first run")
        return problems

    def ops(self, warmup: bool = False) -> list:
        return [
            Op(argv[0], lambda argv=argv: self._run(argv), self.check)
            for argv in self.argvs
        ]

    def summarize(self, outputs: dict) -> PassResult:
        rows = {label: len(parse_csv(out.data)[1]) for label, out in outputs.items()}
        embed = _columns(*parse_csv(outputs["embed"].data)) if "embed" in outputs else {}
        return PassResult(
            rows=sum(rows.values()),
            evals=(
                rows.get("lgi", 0) + rows.get("noise", 0) + 2 * rows.get("embed", 0)
                + rows.get("speed", 0)
            ),
            k3_best=max(embed["k3_direct"]) if embed.get("k3_direct") else float("nan"),
        )


def make(name: str, seed: int, workdir: str):
    if name == "scan_pure":
        return ScanPure(seed)
    if name == "noise_series":
        return NoiseSeries(seed)
    if name == "cli_sweep":
        return CliSweep(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
