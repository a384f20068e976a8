"""Command-line interface.

Every subcommand emits a deterministic table (CSV with a ``# key = value``
metadata block, or JSON) so runs can be diffed byte for byte.  Exit codes:
0 success, 1 runtime failure inside a subsystem (named on stderr), 2 usage
or parameter errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from ._numpy import np
from .dynamics import (
    DegenerateEvolutionError,
    NHHamiltonian,
    StiffnessError,
    Trajectory,
    _circle_flow,
    _circle_speed,
    _circle_state,
    _lift_propagator,
    down_y,
    down_z,
    pure_propagator,
    speed,  # not called here: perfbench's tracer test reads ``nhlgi.cli.speed``
    speed_closed_form,
    up_y,
    up_z,
    validate_pure,
)
from .embedding import (
    PostselectionStarvationError,
    _dilation,
    _embedded_run,
    theta_from_delta,
)
from .emit import write_csv, write_json
from .lgi import CorrelatorEngine, Observable, _check_values, _correlators, _pure_born
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
    """A comma-separated list of floats.  An empty one is refused (argparse
    names the option and exits 2): a sweep over it would write an empty table."""
    try:
        values = [float(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one float, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


# Largest time grid a command builds; a larger --tmax/--step ratio is refused
# before the grid is allocated.
MAX_GRID_POINTS = 10**7


def _time_grid(tmax: float, step: float, include_zero: bool = True) -> np.ndarray:
    if not (np.isfinite(tmax) and np.isfinite(step)) or step <= 0.0 or tmax < 0.0:
        raise ValueError(f"need tmax >= 0 and step > 0, got tmax={tmax!r} step={step!r}")
    ratio = tmax / step + 1e-9
    if not math.isfinite(ratio):
        raise ValueError(f"--tmax / --step = {tmax!r} / {step!r} overflows the time grid")
    n = int(math.floor(ratio))
    start = 0 if include_zero else 1
    if n < start:
        raise ValueError("time grid is empty; increase --tmax or decrease --step")
    if n + 1 - start > MAX_GRID_POINTS:
        raise ValueError(
            f"--tmax / --step = {tmax!r} / {step!r} asks for {n + 1 - start} time "
            f"points, more than {MAX_GRID_POINTS}"
        )
    return np.arange(start, n + 1, dtype=float) * step


def _spacings(args) -> list[float]:
    """Measurement spacings ``t`` of a sweep at times ``(0, t, 2t)``, as floats.

    ``--t`` gives one spacing, else the grid of ``--tmax``/``--step`` without
    zero.  Each must be positive with ``2t`` finite, which also orders the
    three times, so the rows need no further check.
    """
    if getattr(args, "t", None) is not None:
        spacings = [args.t]
    else:
        spacings = _time_grid(args.tmax, args.step, include_zero=False).tolist()
    for t in spacings:
        if not (t > 0.0 and math.isfinite(2.0 * t)):
            raise ValueError(
                f"measurement spacing t = {t!r} must be positive with 2t finite"
            )
    return spacings


def _circle_point(psi) -> tuple[float, float]:
    """``(p, m)`` of a validated start state on the invariant circle, the
    coordinates of :func:`nhlgi.dynamics._circle_flow`."""
    u, v = _circle_state(validate_pure(psi).tolist())
    return u + v, u - v


def _circle_bloch(p: float, m: float) -> tuple[float, float, float]:
    """The Bloch vector ``(0, (p^2 - m^2)/2n, p m/n)``, ``n = p^2 + m^2``, of
    a circle state ``(p, m)``."""
    n = p * p + m * m
    return 0.0, (p * p - m * m) / (2.0 * n), p * m / n


def _circle_angle(a, b) -> float:
    """Geodesic angle between circle states ``(p1, m1)`` and ``(p2, m2)``,
    from its sine and cosine up to one positive factor."""
    (p1, m1), (p2, m2) = a, b
    return math.atan2(abs(p1 * m2 - m1 * p2), abs(p1 * p2 + m1 * m2))


def _row(run, t: float) -> tuple[float, float, float, float]:
    """``(c12, c23, c13, k3)`` of the protocol ``run`` at times ``(0, t,
    2t)``, refused unless its eight numbers lie in [0, 1]: that check
    (:func:`nhlgi.lgi._check_values`) implies the range, sum and K3 checks of
    :class:`nhlgi.lgi.LgiResult`, which the sweeps skip."""
    values = run(0.0, t, 2.0 * t)
    _check_values(values)
    c12, c23, c13 = _correlators(values)
    return c12, c23, c13, c12 + c23 - c13


def _k3_sweep(label: str, points, engine_of, spacings: list[float]) -> dict:
    """Columns of the protocol at times ``(0, t, 2t)`` from ``up_y`` along ``-y``.

    ``engine_of(point)`` builds the engine of each working point, whose
    validated protocol run, set up once, then serves every spacing; each row
    is checked once, on its eight numbers (:func:`_row`).
    """
    q, psi0 = Observable.canonical(), up_y()
    labels, times, table = [], [], []
    for point in points:
        run = engine_of(point)._protocol_inputs(psi0, q)
        table += [_row(run, t) for t in spacings]
        labels += [point] * len(spacings)
        times += spacings
    c12, c23, c13, k3 = (list(column) for column in zip(*table))
    return {label: labels, "t": times, "c12": c12, "c23": c23, "c13": c13, "k3": k3}


# the metadata of the protocol every K3 sweep runs (:func:`_k3_sweep`)
_SWEEP_FIELDS = {"times": "0,t,2t", "initial_state": "up_y", "observable": "-y"}


def _header(args, **fields) -> dict:
    """Run metadata: the subcommand and the package version, then ``fields``."""
    return {"command": args.command, "version": __version__, **fields}


def _joined(values) -> str:
    """A list of floats as one metadata value, each at 17 significant digits."""
    return ",".join(format(x, ".17g") for x in values)


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
    """The Bloch trajectory from ``up_y``, each row from an exact propagator:
    the real circle flow at ``kappa = 0`` and the closed form of the noisy
    lift at ``kappa > 0`` (which refuses a negative or non-finite kappa)."""
    h = NHHamiltonian.canonical(args.theta)
    grid = _time_grid(args.tmax, args.step)
    if args.kappa == 0.0:
        _, propagate = _circle_flow(h)
        start = _circle_point(up_y())
        rows = [_circle_bloch(*propagate(t, start)) for t in grid.tolist()]
    else:
        propagate = _lift_propagator(h, args.kappa)
        # the exactly pure (0, -1, 0): the lift amplifies a purity deficit
        # near pi/2, and a rounded spinor's Bloch vector is an ulp short
        start = tuple(2.0 * s for s in _circle_bloch(*_circle_point(up_y())))
        rows = [[0.5 * r for r in propagate(t, start)] for t in grid.tolist()]
    # + 0.0 turns a -0.0 left by cancellation (in the invariant s_x) into 0
    traj = Trajectory(grid, np.array(rows) + 0.0)
    abn = traj.abn()
    metadata = _header(
        args,
        theta=args.theta,
        kappa=args.kappa,
        tmax=args.tmax,
        step=args.step,
        initial_state="up_y",
        method="exact propagator",
    )
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
    grid = _time_grid(args.tmax, args.step).tolist()
    rows_delta, rows_last = [], []
    if args.rescaled:
        # Compare family members at equal Hermitian-part strength: the scale
        # cos(theta) turns sec into 1, and the two basis states of the
        # measurement register are tracked instead of up_y.  For pure states
        # the trace distance 0.5 tr|rho_a - rho_b| is |S_a - S_b|.
        start_a, start_b = _circle_point(up_z()), _circle_point(down_z())
        for theta in args.theta:
            _, propagate = _circle_flow(
                NHHamiltonian.canonical(theta, scale=math.cos(theta))
            )
            for t in grid:
                a, b = propagate(t, start_a), propagate(t, start_b)
                rows_delta.append(_circle_angle(a, b))
                rows_last.append(min(1.0, math.dist(_circle_bloch(*a), _circle_bloch(*b))))
        last, mode = "trace_d", "rescaled"
    else:
        start, target = _circle_point(up_y()), _circle_point(down_y())
        for theta in args.theta:
            _, propagate = _circle_flow(NHHamiltonian.canonical(theta))
            for t in grid:
                state = propagate(t, start)
                rows_delta.append(_circle_angle(state, target))
                rows_last.append(_circle_bloch(*state)[1])  # the frame's n is y
        last, mode = "s_n", "direct"
    columns = {
        "theta": [theta for theta in args.theta for _ in grid],
        "t": grid * len(args.theta),
        "delta": rows_delta,
        last: rows_last,
    }
    metadata = _header(
        args, mode=mode, theta=_joined(args.theta), tmax=args.tmax, step=args.step
    )
    _emit(args, metadata, columns)
    return 0


def _cmd_speed(args) -> int:
    """``|dS/dt|^2`` along the circle flow, by :func:`nhlgi.dynamics._circle_speed`."""
    grid = _time_grid(args.tmax, args.step)
    times = grid.tolist()
    start = _circle_point(up_y())
    rows_theta, rows_t, rows_v, rows_vcf = [], [], [], []
    for theta in args.theta:
        (w, k, rk), propagate = _circle_flow(NHHamiltonian.canonical(theta))
        rows_v += [_circle_speed(w, k, rk, *propagate(t, start)) for t in times]
        rows_theta += [theta] * len(times)
        rows_t += times
        rows_vcf += np.atleast_1d(speed_closed_form(theta, grid)).tolist()
    metadata = _header(
        args, theta=_joined(args.theta), tmax=args.tmax, step=args.step, initial_state="up_y"
    )
    columns = {"theta": rows_theta, "t": rows_t, "v": rows_v, "v_closed": rows_vcf}
    _emit(args, metadata, columns)
    return 0


def _cmd_lgi(args) -> int:
    spacings = _spacings(args)
    rows = _k3_sweep(
        "theta",
        args.theta,
        lambda theta: CorrelatorEngine(NHHamiltonian.canonical(theta), kappa=args.kappa),
        spacings,
    )
    metadata = _header(args, theta=_joined(args.theta), kappa=args.kappa, **_SWEEP_FIELDS)
    _emit(args, metadata, rows)
    return 0


def _cmd_noise(args) -> int:
    theta = _resolve_theta(args)
    spacings = _spacings(args)
    h = NHHamiltonian.canonical(theta)
    rows = _k3_sweep(
        "kappa", args.kappa, lambda kappa: CorrelatorEngine(h, kappa=kappa), spacings
    )
    metadata = _header(args, theta=theta, kappa=_joined(args.kappa), **_SWEEP_FIELDS)
    _emit(args, metadata, rows)
    return 0


def _cmd_scan(args) -> int:
    thetas = args.theta
    k3_results, speed_results = maximize_family(thetas, budget=args.budget, seed=args.seed)
    metadata = _header(args, theta=_joined(thetas), budget=args.budget, seed=args.seed)
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
    metadata = _header(args, theta=theta, budget=args.budget, seed=args.seed)
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
    """The dilation against the direct flow from ``up_y`` along ``-y``.

    The state and the axis are validated once per command; each row then
    runs on unvalidated routes.  The direct state comes from
    :func:`nhlgi.dynamics.pure_propagator` and ``k3_direct`` from the
    engine's protocol run; the post-selected state, ``p_select`` and
    ``k3_embedded`` come from the dilation's kernel, the latter through
    :func:`nhlgi.lgi._propagating_frame`.  Each K3 is checked once, on its eight numbers
    (:func:`_row`).
    """
    theta = _resolve_theta(args)
    spacings = _spacings(args)
    h = NHHamiltonian.canonical(theta)
    propagate = pure_propagator(h)
    q, psi0 = Observable.canonical(), up_y()
    direct_run = CorrelatorEngine(h)._protocol_inputs(psi0, q)
    psi = psi0.tolist()
    postselect = _dilation(theta)[1]
    embedded_run = _embedded_run(theta, psi, q.direction)
    rows = {name: [] for name in ("t", "fidelity", "p_select", "k3_direct", "k3_embedded")}
    for t in spacings:
        direct, (emb, p_sel) = propagate(t, psi), postselect(t, psi)
        rows["t"].append(t)
        rows["fidelity"].append(_pure_born(direct, emb))
        rows["p_select"].append(p_sel)
        rows["k3_direct"].append(_row(direct_run, t)[3])
        rows["k3_embedded"].append(_row(embedded_run, t)[3])
    metadata = _header(
        args,
        theta=theta,
        tmax=args.tmax,
        step=args.step,
        initial_state="up_y",
        observable="-y",
    )
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


def _add_grid_options(sub, tmax: float, step: float) -> None:
    sub.add_argument("--tmax", type=float, default=tmax)
    sub.add_argument("--step", type=float, default=step)


def _add_working_point(sub, delta: float) -> None:
    """``--theta`` or ``--delta``, the distance below pi/2 (see :func:`_resolve_theta`)."""
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None)
    group.add_argument("--delta", type=float, default=delta,
                       help="distance of theta below pi/2")


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

    sub = subs.add_parser("trajectory", help="Bloch trajectory of the flow from up_y")
    sub.add_argument("--theta", type=float, required=True)
    sub.add_argument("--kappa", type=float, default=0.0)
    _add_grid_options(sub, math.pi, 0.01)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_trajectory)

    sub = subs.add_parser("distance", help="geodesic distance along the flow")
    sub.add_argument("--theta", type=_float_list, default=(0.0, math.pi / 4, 1.4))
    _add_grid_options(sub, math.pi, 0.01)
    sub.add_argument(
        "--rescaled",
        action="store_true",
        help="equal Hermitian-strength comparison of basis-state separation",
    )
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_distance)

    sub = subs.add_parser("speed", help="squared Bloch speed |dS/dt|^2 along the flow")
    sub.add_argument("--theta", type=_float_list, default=(0.0, math.pi / 4, 1.4))
    _add_grid_options(sub, math.pi, 0.01)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_speed)

    sub = subs.add_parser("lgi", help="three-time correlators at spacing t")
    sub.add_argument("--theta", type=_float_list, required=True)
    sub.add_argument("--t", type=float, default=None, help="single spacing")
    _add_grid_options(sub, math.pi / 2, 0.01)
    sub.add_argument("--kappa", type=float, default=0.0)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_lgi)

    sub = subs.add_parser("noise", help="correlators under depolarisation")
    _add_working_point(sub, 1e-3)
    sub.add_argument("--kappa", type=_float_list, default=_DEFAULT_NOISE_KAPPAS)
    _add_grid_options(sub, math.pi / 2, 0.01)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_noise)

    sub = subs.add_parser("scan", help="maximise K3 and speed over the family")
    sub.add_argument("--theta", type=_float_list, default=DEFAULT_THETA_GRID)
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_scan)

    sub = subs.add_parser("noisescan", help="maximal K3 against noise strength")
    _add_working_point(sub, 1e-3)
    sub.add_argument("--kappa", type=_float_list, default=None,
                     help=f"grid (default: {len(DEFAULT_KAPPA_GRID)} decades up to 1e5)")
    sub.add_argument("--budget", type=int, default=DEFAULT_NOISE_BUDGET)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_noisescan)

    sub = subs.add_parser("embed", help="Hermitian dilation versus direct flow")
    _add_working_point(sub, 0.1)
    _add_grid_options(sub, math.pi / 2, 0.05)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_embed)

    sub = subs.add_parser("check", help="run the acceptance criteria")
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--only", type=_int_list, default=None,
                     help="comma-separated criterion numbers")
    sub.set_defaults(func=_cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` runs: built by the first call of a process and
    kept, so a caller running many commands in one process builds it once.
    Its defaults are immutable (tuples, not lists), so no run changes the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
