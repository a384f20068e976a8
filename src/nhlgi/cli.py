"""Command-line interface.

Every subcommand emits a deterministic table (CSV with a ``# key = value``
metadata block, or JSON) so runs can be diffed byte for byte.  Exit codes:
0 success, 1 runtime failure inside a subsystem (named on stderr), 2 usage
or parameter errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .dynamics import (
    DegenerateEvolutionError,
    NHHamiltonian,
    StiffnessError,
    THETA_MAX,
    abn_frame,
    bloch_of_pure,
    down_y,
    down_z,
    evolve_pure,
    geodesic_distance,
    integrate_bloch,
    projector,
    speed,
    speed_closed_form,
    up_y,
    up_z,
)
from .embedding import (
    PostselectionStarvationError,
    evolve_and_postselect,
    k3_via_embedding,
    theta_from_delta,
)
from .emit import write_csv, write_json
from .lgi import CorrelatorEngine, Observable
from .qmat import trace_distance
from .scan import (
    DEFAULT_BUDGET,
    DEFAULT_KAPPA_GRID,
    DEFAULT_NOISE_BUDGET,
    DEFAULT_THETA_GRID,
    ScanConfigError,
    k3max_vs_noise,
    maximize_family,
)

__all__ = ["main", "build_parser"]

_DEFAULT_NOISE_KAPPAS = (0.0, 1e-4, 1e-3, 1e-2)


def _float_list(text: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _time_grid(tmax: float, step: float, include_zero: bool = True) -> np.ndarray:
    if not (np.isfinite(tmax) and np.isfinite(step)) or step <= 0.0 or tmax < 0.0:
        raise ValueError(f"need tmax >= 0 and step > 0, got tmax={tmax!r} step={step!r}")
    n = int(math.floor(tmax / step + 1e-9))
    start = 0 if include_zero else 1
    if n < start:
        raise ValueError("time grid is empty; increase --tmax or decrease --step")
    return np.arange(start, n + 1, dtype=float) * step


def _emit(args, metadata: dict, columns: dict) -> None:
    if args.format == "json":
        payload = {
            "metadata": metadata,
            "data": {k: np.asarray(v).tolist() for k, v in columns.items()},
        }
        write_json(args.out, payload)
    else:
        write_csv(args.out, columns, metadata)


def _resolve_theta(args) -> float:
    """One working point from either --theta or --delta (distance from pi/2)."""
    if getattr(args, "theta", None) is not None:
        return args.theta
    return theta_from_delta(args.delta)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_trajectory(args) -> int:
    h = NHHamiltonian.canonical(args.theta)
    grid = _time_grid(args.tmax, args.step)
    traj = integrate_bloch(bloch_of_pure(up_y()), h, kappa=args.kappa, t_grid=grid)
    abn = traj.abn()
    metadata = {
        "command": "trajectory",
        "version": __version__,
        "theta": args.theta,
        "kappa": args.kappa,
        "tmax": args.tmax,
        "step": args.step,
        "initial_state": "up_y",
        "method": "RK45",
        "rtol": traj.rtol,
        "atol": traj.atol,
    }
    columns = {
        "t": traj.times,
        "s_x": traj.bloch[:, 0],
        "s_y": traj.bloch[:, 1],
        "s_z": traj.bloch[:, 2],
        "s_a": abn[:, 0],
        "s_b": abn[:, 1],
        "s_n": abn[:, 2],
        "purity": traj.purity,
    }
    _emit(args, metadata, columns)
    return 0


def _cmd_distance(args) -> int:
    grid = _time_grid(args.tmax, args.step)
    rows_theta, rows_t = [], []
    if args.rescaled:
        # Compare family members at equal Hermitian-part strength: the scale
        # cos(theta) turns sec into 1, and the two basis states of the
        # measurement register are tracked instead of up_y.
        rows_delta, rows_dtr = [], []
        for theta in args.theta:
            h = NHHamiltonian.canonical(theta, scale=math.cos(theta))
            for t in grid:
                psi_a = evolve_pure(h, up_z(), t)
                psi_b = evolve_pure(h, down_z(), t)
                rows_theta.append(theta)
                rows_t.append(t)
                rows_delta.append(geodesic_distance(psi_a, psi_b))
                rows_dtr.append(trace_distance(projector(psi_a), projector(psi_b)))
        columns = {
            "theta": rows_theta,
            "t": rows_t,
            "delta": rows_delta,
            "trace_d": rows_dtr,
        }
        mode = "rescaled"
    else:
        rows_delta, rows_sn = [], []
        target = down_y()
        for theta in args.theta:
            h = NHHamiltonian.canonical(theta)
            n_hat = abn_frame(h)[2]
            for t in grid:
                psi_t = evolve_pure(h, up_y(), t)
                rows_theta.append(theta)
                rows_t.append(t)
                rows_delta.append(geodesic_distance(psi_t, target))
                rows_sn.append(float(bloch_of_pure(psi_t) @ n_hat))
        columns = {
            "theta": rows_theta,
            "t": rows_t,
            "delta": rows_delta,
            "s_n": rows_sn,
        }
        mode = "direct"
    metadata = {
        "command": "distance",
        "version": __version__,
        "mode": mode,
        "theta": ",".join(format(x, ".17g") for x in args.theta),
        "tmax": args.tmax,
        "step": args.step,
    }
    _emit(args, metadata, columns)
    return 0


def _cmd_speed(args) -> int:
    grid = _time_grid(args.tmax, args.step)
    rows_theta, rows_t, rows_v, rows_vcf = [], [], [], []
    for theta in args.theta:
        h = NHHamiltonian.canonical(theta)
        psi0 = up_y()
        vcf = speed_closed_form(theta, grid)
        for t, v_closed in zip(grid, np.atleast_1d(vcf)):
            rows_theta.append(theta)
            rows_t.append(t)
            rows_v.append(speed(h, psi0, t))
            rows_vcf.append(float(v_closed))
    metadata = {
        "command": "speed",
        "version": __version__,
        "theta": ",".join(format(x, ".17g") for x in args.theta),
        "tmax": args.tmax,
        "step": args.step,
        "initial_state": "up_y",
    }
    columns = {"theta": rows_theta, "t": rows_t, "v": rows_v, "v_closed": rows_vcf}
    _emit(args, metadata, columns)
    return 0


def _cmd_lgi(args) -> int:
    if args.t is not None:
        spacings = np.array([args.t], dtype=float)
    else:
        spacings = _time_grid(args.tmax, args.step, include_zero=False)
    if np.any(spacings <= 0.0):
        raise ValueError("measurement spacing must be positive")
    q = Observable.canonical()
    psi0 = up_y()
    rows = {name: [] for name in ("theta", "t", "c12", "c23", "c13", "k3")}
    for theta in args.theta:
        engine = CorrelatorEngine(NHHamiltonian.canonical(theta), kappa=args.kappa)
        for t in spacings:
            res = engine.k3(psi0, q, 0.0, t, 2.0 * t)
            rows["theta"].append(theta)
            rows["t"].append(t)
            rows["c12"].append(res.c12)
            rows["c23"].append(res.c23)
            rows["c13"].append(res.c13)
            rows["k3"].append(res.k3)
    metadata = {
        "command": "lgi",
        "version": __version__,
        "theta": ",".join(format(x, ".17g") for x in args.theta),
        "kappa": args.kappa,
        "times": "0,t,2t",
        "initial_state": "up_y",
        "observable": "-y",
    }
    _emit(args, metadata, rows)
    return 0


def _cmd_noise(args) -> int:
    theta = _resolve_theta(args)
    if not 0.0 <= theta <= THETA_MAX:
        raise ValueError(f"working point theta = {theta!r} outside [0, pi/2 - 1e-6]")
    spacings = _time_grid(args.tmax, args.step, include_zero=False)
    q = Observable.canonical()
    psi0 = up_y()
    h = NHHamiltonian.canonical(theta)
    rows = {name: [] for name in ("kappa", "t", "c12", "c23", "c13", "k3")}
    for kappa in args.kappa:
        engine = CorrelatorEngine(h, kappa=kappa)
        for t in spacings:
            res = engine.k3(psi0, q, 0.0, t, 2.0 * t)
            rows["kappa"].append(kappa)
            rows["t"].append(t)
            rows["c12"].append(res.c12)
            rows["c23"].append(res.c23)
            rows["c13"].append(res.c13)
            rows["k3"].append(res.k3)
    metadata = {
        "command": "noise",
        "version": __version__,
        "theta": theta,
        "kappa": ",".join(format(x, ".17g") for x in args.kappa),
        "times": "0,t,2t",
        "initial_state": "up_y",
        "observable": "-y",
    }
    _emit(args, metadata, rows)
    return 0


def _cmd_scan(args) -> int:
    thetas = args.theta
    k3_results, speed_results = maximize_family(thetas, budget=args.budget, seed=args.seed)
    metadata = {
        "command": "scan",
        "version": __version__,
        "theta": ",".join(format(x, ".17g") for x in thetas),
        "budget": args.budget,
        "seed": args.seed,
    }
    if args.format == "json":
        payload = {
            "metadata": metadata,
            "k3": [r.to_dict() for r in k3_results],
            "speed": [r.to_dict() for r in speed_results],
        }
        write_json(args.out, payload)
    else:
        columns = {
            "theta": thetas,
            "k3_max": [r.objective for r in k3_results],
            "v_max": [r.objective for r in speed_results],
            "k3_evals": [r.evals for r in k3_results],
            "v_evals": [r.evals for r in speed_results],
        }
        write_csv(args.out, columns, metadata)
    return 0


def _cmd_noisescan(args) -> int:
    theta = _resolve_theta(args)
    grid = tuple(args.kappa) if args.kappa is not None else None
    results = k3max_vs_noise(
        theta,
        kappa_grid=grid,
        budget=args.budget,
        seed=args.seed,
    )
    metadata = {
        "command": "noisescan",
        "version": __version__,
        "theta": theta,
        "budget": args.budget,
        "seed": args.seed,
    }
    if args.format == "json":
        payload = {"metadata": metadata, "results": [r.to_dict() for r in results]}
        write_json(args.out, payload)
    else:
        columns = {
            "kappa": [r.kappa for r in results],
            "kappa_scaled": [r.kappa * 1e5 for r in results],
            "k3_max": [r.objective for r in results],
            "evals": [r.evals for r in results],
        }
        write_csv(args.out, columns, metadata)
    return 0


def _cmd_embed(args) -> int:
    theta = _resolve_theta(args)
    if not 0.0 < theta <= THETA_MAX:
        raise ValueError(
            f"embedding needs theta in (0, pi/2 - 1e-6], got {theta!r}"
        )
    spacings = _time_grid(args.tmax, args.step, include_zero=False)
    h = NHHamiltonian.canonical(theta)
    engine = CorrelatorEngine(h)
    q = Observable.canonical()
    psi0 = up_y()
    rows = {name: [] for name in ("t", "fidelity", "p_select", "k3_direct", "k3_embedded")}
    for t in spacings:
        direct = evolve_pure(h, psi0, t)
        emb, p_sel = evolve_and_postselect(theta, psi0, t)
        rows["t"].append(t)
        rows["fidelity"].append(abs(complex(np.vdot(direct, emb))) ** 2)
        rows["p_select"].append(p_sel)
        rows["k3_direct"].append(engine.k3(psi0, q, 0.0, t, 2.0 * t).k3)
        rows["k3_embedded"].append(k3_via_embedding(theta, q, 0.0, t, 2.0 * t, psi0).k3)
    metadata = {
        "command": "embed",
        "version": __version__,
        "theta": theta,
        "tmax": args.tmax,
        "step": args.step,
        "initial_state": "up_y",
        "observable": "-y",
    }
    _emit(args, metadata, rows)
    return 0


def _cmd_check(args) -> int:
    from .acceptance import run_all

    results = run_all(budget=args.budget, seed=args.seed, only=args.only)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def _add_output_options(sub) -> None:
    sub.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhlgi",
        description=(
            "Renormalised two-level dynamics under real-spectrum non-Hermitian "
            "Hamiltonians: temporal correlators, Hermitian dilation, scans."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("trajectory", help="integrate the Bloch flow from up_y")
    sub.add_argument("--theta", type=float, required=True)
    sub.add_argument("--kappa", type=float, default=0.0)
    sub.add_argument("--tmax", type=float, default=math.pi)
    sub.add_argument("--step", type=float, default=0.01)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_trajectory)

    sub = subs.add_parser("distance", help="geodesic distance along the flow")
    sub.add_argument("--theta", type=_float_list, default=[0.0, math.pi / 4, 1.4])
    sub.add_argument("--tmax", type=float, default=math.pi)
    sub.add_argument("--step", type=float, default=0.01)
    sub.add_argument(
        "--rescaled",
        action="store_true",
        help="equal Hermitian-strength comparison of basis-state separation",
    )
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_distance)

    sub = subs.add_parser("speed", help="squared Bloch speed |dS/dt|^2 along the flow")
    sub.add_argument("--theta", type=_float_list, default=[0.0, math.pi / 4, 1.4])
    sub.add_argument("--tmax", type=float, default=math.pi)
    sub.add_argument("--step", type=float, default=0.01)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_speed)

    sub = subs.add_parser("lgi", help="three-time correlators at spacing t")
    sub.add_argument("--theta", type=_float_list, required=True)
    sub.add_argument("--t", type=float, default=None, help="single spacing")
    sub.add_argument("--tmax", type=float, default=math.pi / 2)
    sub.add_argument("--step", type=float, default=0.01)
    sub.add_argument("--kappa", type=float, default=0.0)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_lgi)

    sub = subs.add_parser("noise", help="correlators under depolarisation")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None)
    group.add_argument("--delta", type=float, default=1e-3,
                       help="distance of theta below pi/2")
    sub.add_argument("--kappa", type=_float_list, default=list(_DEFAULT_NOISE_KAPPAS))
    sub.add_argument("--tmax", type=float, default=math.pi / 2)
    sub.add_argument("--step", type=float, default=0.01)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_noise)

    sub = subs.add_parser("scan", help="maximise K3 and speed over the family")
    sub.add_argument("--theta", type=_float_list, default=list(DEFAULT_THETA_GRID))
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_scan)

    sub = subs.add_parser("noisescan", help="maximal K3 against noise strength")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None)
    group.add_argument("--delta", type=float, default=1e-3,
                       help="distance of theta below pi/2")
    sub.add_argument("--kappa", type=_float_list, default=None,
                     help=f"grid (default: {len(DEFAULT_KAPPA_GRID)} decades up to 1e5)")
    sub.add_argument("--budget", type=int, default=DEFAULT_NOISE_BUDGET)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_noisescan)

    sub = subs.add_parser("embed", help="Hermitian dilation versus direct flow")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None)
    group.add_argument("--delta", type=float, default=0.1,
                       help="distance of theta below pi/2")
    sub.add_argument("--tmax", type=float, default=math.pi / 2)
    sub.add_argument("--step", type=float, default=0.05)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_embed)

    sub = subs.add_parser("check", help="run the acceptance criteria")
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--only", type=_int_list, default=None,
                     help="comma-separated criterion numbers")
    sub.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except ScanConfigError as exc:
        print(f"error: scan: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (StiffnessError, DegenerateEvolutionError) as exc:
        print(f"error: dynamics: {exc}", file=sys.stderr)
        return 1
    except PostselectionStarvationError as exc:
        print(f"error: embedding: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
