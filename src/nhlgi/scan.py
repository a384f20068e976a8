"""Deterministic parameter-space maximisation of K3 and of the evolution speed.

Each search runs over only the coordinates that an exact symmetry leaves
free.  The y-z great circle of the Bloch sphere is invariant under the flow,
with and without noise, so the K3 search is four-dimensional: the state and
the measurement axis as angles on that circle (the axis on a half circle,
since reversing it leaves K3 unchanged) and the logarithms of the two gaps
after a first measurement at ``t = 0``.  Gaps whose sum would spill past
one period are scaled back onto it, so every point of the box is an ordered
configuration and no point is infeasible.  The speed depends on the time only
through the state, so its search runs over the initial state alone.

The optimiser is a multi-start Nelder-Mead simplex seeded from a Latin
hypercube sample plus the analytically known canonical configuration, so the
returned value never falls below the closed-form benchmark.  Both are
in-house and load no scipy: the hypercube repeats the draws of scipy's
``LatinHypercube`` for the same seed, and :func:`minimize` repeats the
arithmetic of scipy's bounded adaptive Nelder-Mead on lists of floats, with
vertices kept in stable order so tied values cannot reorder between runs or
machines.  Every reported objective is the re-evaluable value of an actually
visited point: the K3 objective calls the spinor route of
:class:`nhlgi.lgi.CorrelatorEngine` and the speed objective the route of
:func:`nhlgi.dynamics.speed`, which the public API validates and calls, so
an argmax re-evaluates through it to the reported float.  This module keeps
no copy of either.  Runs are reproducible: one master seed
drives the hypercube and all restarts, the per-restart evaluation budget is
fixed up front, and the restarts run one after another in a fixed order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .dynamics import NHHamiltonian, _bloch_axis, _bloch_state, _speed_route
from .lgi import CorrelatorEngine, protocol

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_NOISE_BUDGET",
    "DEFAULT_KAPPA_GRID",
    "DEFAULT_THETA_GRID",
    "TIME_WINDOW",
    "ScanConfigError",
    "ScanConfig",
    "ScanResult",
    "maximize_k3",
    "maximize_speed",
    "maximize_family",
    "k3max_vs_noise",
]

DEFAULT_BUDGET = 200_000
DEFAULT_NOISE_BUDGET = 60_000

# One period of the canonical family (unit spectral gap).
TIME_WINDOW = math.pi

# Depolarisation strengths for the degradation series.  The top of the grid
# must dominate the fastest Bloch rate of the default working point
# (theta = pi/2 - 1e-3, rates of order 1e3) so the maximum visibly saturates
# at the classical value.
DEFAULT_KAPPA_GRID = (
    0.0,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    1e1,
    1e2,
    1e3,
    1e4,
    1e5,
)

# Family members covering the Hermitian limit through the strongly amplifying
# regime; used by the default CLI scan and by the cross-observable checks.
DEFAULT_THETA_GRID = (0.0, 0.3, 0.6, 0.9, 1.2, math.pi / 2 - 0.1)


class ScanConfigError(ValueError):
    """Raised for scan configurations that cannot produce a meaningful result."""


# Simplex convergence tolerances on coordinates and on values.
XATOL = 1e-8
FATOL = 1e-8

# Lower bound on the time gaps of the K3 search, which searches their logarithms.
GAP_FLOOR = 1e-9


@dataclass(frozen=True)
class ScanConfig:
    restarts: int = 16          # Nelder-Mead restarts from the ranked seeds
    lhs_points: int = 512       # Latin hypercube size for the seeding pass


@dataclass
class ScanResult:
    """Outcome of one maximisation run."""

    kind: str                 # "k3" or "speed"
    theta: float
    kappa: float
    objective: float
    argmax: dict[str, float]
    evals: int
    restarts: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "theta": self.theta,
            "kappa": self.kappa,
            "objective": self.objective,
            "argmax": dict(self.argmax),
            "evals": self.evals,
            "restarts": self.restarts,
            "seed": self.seed,
        }


class SimplexResult(NamedTuple):
    """Outcome of one :func:`minimize` run."""

    x: list          # best vertex of the final simplex
    fun: float       # its value
    nfev: int        # objective evaluations made
    status: int      # 1 = stopped on ``maxfev``, 0 = converged


class _BudgetSpent(Exception):
    """The next evaluation would exceed ``maxfev``."""


def _clip(v: float, lo: float, hi: float) -> float:
    """``min(max(v, lo), hi)`` with numpy's clip semantics for signed zeros."""
    return (v if v < hi else hi) if v > lo else lo


def minimize(fun, x0, lower, upper, *, maxfev: int, xatol: float, fatol: float):
    """Minimise ``fun`` over the box ``[lower, upper]`` with the adaptive
    Nelder-Mead simplex of Gao and Han (Comput. Optim. Appl. 51, 2012).

    The arithmetic is that of scipy's bounded ``Nelder-Mead`` with
    ``adaptive=True``, written out on lists of floats: the same initial
    simplex, centroid, trial points, comparisons and clipping.  Vertices are
    kept in stable order of their values, so tied values keep their order and
    runs repeat exactly.  ``fun`` takes a sequence of floats and must not
    change it.  An evaluation happens only while fewer than ``maxfev`` have
    been made; the step that would exceed the budget ends the run and leaves
    the simplex as it was.  The run converges when all values lie within
    ``fatol`` and all vertices within ``xatol`` of the best one; a NaN value
    never converges.  Restarts call it through this module attribute, so
    tracing can wrap each restart by name.
    """
    n = len(x0)
    bounds = list(zip(lower, upper))
    if not all(lo <= v <= hi for v, (lo, hi) in zip(x0, bounds)):
        raise ValueError(f"start {list(x0)!r} lies outside the bounds")
    dim = float(n)
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x)

    # Initial simplex: a 5% step along each axis (0.00025 from zero); a
    # vertex past the upper bound is reflected back inside, then clipped.
    x0 = [_clip(v, lo, hi) for v, (lo, hi) in zip(x0, bounds)]
    sim = [x0]
    for k, (lo, hi) in enumerate(bounds):
        v = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        if v > hi:
            v = 2 * hi - v
        y = list(x0)
        y[k] = _clip(v, lo, hi)
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    try:
        for k, x in enumerate(sim):
            fsim[k] = f(x)
    except _BudgetSpent:
        pass

    def restore_order():
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    # Trial points are ``a * centroid + c * worst`` with scipy's coefficients
    # at rho = 1.  Adding ``c * worst`` for a negative ``c`` rounds exactly as
    # subtracting ``-c * worst`` does.
    def trial(a, c):
        return [
            (v if v < hi else hi) if (v := a * b + c * w) > lo else lo
            for b, w, lo, hi in zip(xbar, worst, lower, upper)
        ]

    restore_order()
    while nfev < maxfev:
        best = sim[0]
        fbest = fsim[0]
        if all(abs(fbest - v) <= fatol for v in fsim) and all(
            abs(b - v) <= xatol for x in sim for b, v in zip(best, x)
        ):
            break
        worst = sim[-1]
        # Summed in vertex order with plain ``+``, as numpy reduces rows.
        xbar = [reduce(add, column) / n for column in zip(*sim[:-1])]
        try:
            xr = trial(2, -1)
            fxr = f(xr)
            if fxr < fbest:
                xe = trial(1 + chi, -chi)
                fxe = f(xe)
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                new = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = trial(1 + psi, -psi)
                    fxc = f(xc)
                    new = (xc, fxc) if fxc <= fxr else None
                else:
                    xcc = trial(1 - psi, psi)
                    fxcc = f(xcc)
                    new = (xcc, fxcc) if fxcc < fsim[-1] else None
                if new is None:
                    shrunk = [
                        [_clip(b + sigma * (v - b), lo, hi)
                         for b, v, (lo, hi) in zip(best, x, bounds)]
                        for x in sim[1:]
                    ]
                    values = [f(x) for x in shrunk]
                    sim[1:] = shrunk
                    fsim[1:] = values
                    restore_order()
                    continue
        except _BudgetSpent:
            break
        # Only the worst vertex changed, so a stable sort re-inserts it
        # after every vertex of equal or lower value.
        del sim[-1], fsim[-1]
        i = bisect_right(fsim, new[1])
        sim.insert(i, new[0])
        fsim.insert(i, new[1])

    return SimplexResult(sim[0], fsim[0], nfev, 1 if nfev >= maxfev else 0)


def _latin_hypercube(n: int, d: int, seed) -> np.ndarray:
    """``n`` points of a ``d``-dimensional Latin hypercube in ``[0, 1)^d``.

    The same draws as ``scipy.stats.qmc.LatinHypercube(d=d, seed=seed).random(n)``:
    jitter inside each cell first, then one shuffled cell order per dimension.
    """
    rng = np.random.default_rng(seed)
    samples = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - samples) / n


def _multistart_maximize(objective, lower, upper, extra_starts, budget, seed, config):
    """Shared multi-start driver.

    ``objective(x) -> value``, defined on the whole box.  Returns
    ``(best_value, best_x, evals, restarts)``.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if budget < config.lhs_points + 64:
        raise ScanConfigError(
            f"budget {budget} cannot cover the seeding pass "
            f"({config.lhs_points} hypercube points) plus one simplex restart"
        )

    points = lower + _latin_hypercube(config.lhs_points, lower.size, seed) * (upper - lower)
    # A warm start rebuilt from an argmax may sit outside the bounds: an ulp
    # past them, or with a gap that was scaled back under the floor.
    candidates = [np.clip(x, lower, upper).tolist() for x in extra_starts]
    candidates.extend(points.tolist())

    evals = 0
    best_value = -math.inf
    best_x = None
    ranked = []
    for idx, x in enumerate(candidates):
        value = objective(x)
        evals += 1
        ranked.append((-value, idx, x))
        if value > best_value:
            best_value, best_x = value, x
    ranked.sort(key=lambda item: (item[0], item[1]))

    lower, upper = lower.tolist(), upper.tolist()
    n_restarts = min(config.restarts, len(ranked))
    per_restart = max(64, (budget - evals) // max(1, n_restarts))
    starts = [item[2] for item in ranked[:n_restarts]]

    # The simplex builds a new list for every point it visits, so the best
    # point is kept by reference.
    def negated(x):
        nonlocal evals, best_value, best_x
        value = objective(x)
        evals += 1
        if value > best_value:
            best_value, best_x = value, x
        return -value

    for x0 in starts:
        minimize(
            negated,
            x0,
            lower,
            upper,
            maxfev=per_restart,
            xatol=XATOL,
            fatol=FATOL,
        )

    return best_value, best_x, evals, len(starts)


# The K3 search runs on the y-z great circle, which the flow leaves invariant
# with and without noise (the mirror x -> -x fixes b, flips a and commutes
# with the Bloch equation): ``x = (alpha_s, alpha_q, log g1, log g2)``.  The
# state's Bloch direction is ``(0, sin alpha_s, cos alpha_s)``, the axis's
# ``(0, sin alpha_q, cos alpha_q)``; the axis needs only a half circle
# because ``n -> -n`` leaves K3 unchanged.  The first measurement is at
# ``t1 = 0``, exact at kappa = 0 where K3 depends on the state only through
# its value at ``t1``; under noise a seven-coordinate search warm-started
# from the planar argmax gains nothing measurable (see the tests).
_K3_LOWER = (-math.pi, 0.0, math.log(GAP_FLOOR), math.log(GAP_FLOOR))
_K3_UPPER = (math.pi, math.pi, math.log(TIME_WINDOW), math.log(TIME_WINDOW))

# Canonical protocol configuration: initial state up_y (Bloch direction -y),
# measurement axis +y (the same K3 as the canonical -y), quarter-period
# spacing from t = 0.
_CANONICAL_K3_START = (
    -math.pi / 2,
    math.pi / 2,
    math.log(math.pi / 4),
    math.log(math.pi / 4),
)
# Speed search: the state down_y (Bloch direction +y), where up_y arrives at
# the half period.
_CANONICAL_SPEED_START = (math.pi / 2, math.pi / 2)


def _planar_point(x) -> tuple:
    """The seven coordinates ``(theta_s, phi_s, theta_q, phi_q, t1, g1, g2)``
    of :func:`_k3_objective` at the planar search point ``x``.

    Gaps whose sum exceeds ``TIME_WINDOW`` are scaled back onto it, so every
    point of the box is an ordered configuration inside the window.
    """
    alpha_s, alpha_q, log_g1, log_g2 = x
    g1, g2 = math.exp(log_g1), math.exp(log_g2)
    total = g1 + g2
    if total > TIME_WINDOW:
        g1, g2 = g1 * (TIME_WINDOW / total), g2 * (TIME_WINDOW / total)
    phi_s = 0.5 * math.pi if alpha_s >= 0.0 else 1.5 * math.pi
    return abs(alpha_s), phi_s, alpha_q, 0.5 * math.pi, 0.0, g1, g2


def _k3_objective(theta: float, kappa: float):
    """``objective(x) -> K3`` over the seven coordinates
    ``x = (theta_s, phi_s, theta_q, phi_q, t1, g1, g2)``, with the times
    ``(t1, t1 + g1, t1 + g1 + g2)``.

    :func:`maximize_k3` evaluates it at :func:`_planar_point`; over all
    seven coordinates it is the reference the plane is tested against.
    Every point runs the spinor route of :class:`nhlgi.lgi.CorrelatorEngine`
    into :func:`nhlgi.lgi.protocol`, on the state and the axis the public
    API builds from the same angles, so ``engine.k3`` re-evaluates any point
    to the same float.  Near the corner K3 resolves the last ulp of the
    state and of the axis eigenbasis, so no other route would do.
    """
    route = CorrelatorEngine(NHHamiltonian.canonical(theta), kappa)._spinor_route

    def objective(x):
        theta_s, phi_s, theta_q, phi_q, t1, g1, g2 = x
        t2 = t1 + g1
        first, transfer = route(_bloch_state(theta_s, phi_s), _bloch_axis(theta_q, phi_q))
        c12, c23, c13 = protocol(first, transfer, t1, t2, t2 + g2)[:3]
        return c12 + c23 - c13

    return objective


def _speed_objective(theta: float):
    """``objective(x) -> speed`` over the initial state ``x = (theta_s, phi_s)``.

    The speed depends on the time only through the state, and the
    renormalised flow maps the sphere onto itself, so the search runs over
    states at ``t = 0``.  It calls the route that
    :func:`nhlgi.dynamics.speed` calls, so an argmax re-evaluates exactly.
    """
    route = _speed_route(NHHamiltonian.canonical(theta))

    def objective(x):
        theta_s, phi_s = x
        return route(0.0, _bloch_state(theta_s, phi_s))

    return objective


def maximize_k3(
    theta: float,
    kappa: float = 0.0,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    config: ScanConfig | None = None,
    extra_starts=(),
) -> ScanResult:
    """Maximise the three-time K3 over states and axes on the invariant y-z
    great circle and over the two time gaps from ``t1 = 0``.

    The search coordinates are ``(alpha_s, alpha_q, log g1, log g2)`` (see
    :func:`_planar_point`); ``extra_starts`` are points in them.  The
    canonical configuration is always among the evaluated seeds, so at
    ``kappa = 0`` the result dominates the closed-form value
    ``1 + sin(theta) + sin^2(theta)``.  The argmax keeps all seven keys, with
    ``t1 = 0``.  Deterministic for a fixed ``(theta, kappa, budget, seed,
    config)``.
    """
    config = config or ScanConfig()
    k3 = _k3_objective(theta, kappa)
    starts = [np.asarray(_CANONICAL_K3_START, dtype=float)]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    value, x, evals, restarts = _multistart_maximize(
        lambda x: k3(_planar_point(x)), _K3_LOWER, _K3_UPPER, starts, budget, seed, config
    )
    theta_s, phi_s, theta_q, phi_q, t1, g1, g2 = _planar_point(x)
    argmax = {
        "theta_s": theta_s,
        "phi_s": phi_s,
        "theta_q": theta_q,
        "phi_q": phi_q,
        "t1": t1,
        "t2": t1 + g1,
        "t3": t1 + g1 + g2,
    }
    return ScanResult(
        kind="k3",
        theta=theta,
        kappa=kappa,
        objective=value,
        argmax=argmax,
        evals=evals,
        restarts=restarts,
        seed=seed,
    )


def maximize_speed(
    theta: float,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    config: ScanConfig | None = None,
) -> ScanResult:
    """Maximise the squared Bloch speed :func:`nhlgi.dynamics.speed` over
    initial states, at ``t = 0``.

    Every state on the trajectory is itself an initial state, so the time
    adds nothing; the argmax reports ``t = 0``.  The maximum of the in-plane
    closed form, ``(1 + sin theta)/(1 - sin theta)``, is always reachable
    because the canonical start, ``down_y``, sits on it.
    """
    config = config or ScanConfig()
    starts = [np.asarray(_CANONICAL_SPEED_START, dtype=float)]
    value, x, evals, restarts = _multistart_maximize(
        _speed_objective(theta), (0.0, 0.0), (math.pi, 2 * math.pi), starts, budget, seed, config
    )
    argmax = {"theta_s": float(x[0]), "phi_s": float(x[1]), "t": 0.0}
    return ScanResult(
        kind="speed",
        theta=theta,
        kappa=0.0,
        objective=value,
        argmax=argmax,
        evals=evals,
        restarts=restarts,
        seed=seed,
    )


def maximize_family(
    thetas, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> tuple[list[ScanResult], list[ScanResult]]:
    """K3 and speed maxima for each family member, all from one master seed.

    The seed is spawned into ``2 len(thetas)`` children: child ``2i`` seeds
    the K3 search of ``thetas[i]`` and child ``2i + 1`` its speed search.
    Returns ``(k3_results, speed_results)``, aligned with ``thetas``.
    """
    children = np.random.SeedSequence(seed).spawn(2 * len(thetas))
    k3_results, speed_results = [], []
    for i, theta in enumerate(thetas):
        seed_k3 = int(children[2 * i].generate_state(1)[0])
        seed_v = int(children[2 * i + 1].generate_state(1)[0])
        k3_results.append(maximize_k3(theta, budget=budget, seed=seed_k3))
        speed_results.append(maximize_speed(theta, budget=budget, seed=seed_v))
    return k3_results, speed_results


def _start_from_argmax(argmax: dict[str, float]) -> np.ndarray:
    """The planar search point of a :func:`maximize_k3` argmax."""
    alpha_s = argmax["theta_s"] if argmax["phi_s"] < math.pi else -argmax["theta_s"]
    return np.array(
        [
            alpha_s,
            argmax["theta_q"],
            math.log(argmax["t2"] - argmax["t1"]),
            math.log(argmax["t3"] - argmax["t2"]),
        ]
    )


def k3max_vs_noise(
    theta: float,
    kappa_grid=None,
    budget: int = DEFAULT_NOISE_BUDGET,
    seed: int = 0,
    config: ScanConfig | None = None,
) -> list[ScanResult]:
    """Maximal K3 as a function of depolarisation strength.

    Runs one :func:`maximize_k3` per grid point, warm-starting each from the
    previous argmax (in addition to the canonical seed and the hypercube),
    which keeps the reported series from developing spurious optimisation
    dips.  Near the corner the noisy optimum sits at gaps of order 1e-3,
    which the log-gap coordinates reach, but a small budget can still stop
    short of it: a point whose maximum is beaten by the next, larger kappa
    is searched again from that argmax, back to front, and keeps the better
    result; its ``evals`` count both searches.  The default grid ends deep
    in the overdamped regime where the maximum saturates at the classical
    value 1.
    """
    grid = DEFAULT_KAPPA_GRID if kappa_grid is None else tuple(kappa_grid)
    if len(grid) == 0:
        raise ScanConfigError("kappa grid is empty")
    for kappa in grid:
        if not np.isfinite(kappa) or kappa < 0.0:
            raise ScanConfigError(f"invalid kappa {kappa!r} in grid")

    children = np.random.SeedSequence(seed).spawn(len(grid))
    seeds = [int(child.generate_state(1)[0]) for child in children]
    results: list[ScanResult] = []
    chain: list[np.ndarray] = []
    for kappa, child_seed in zip(grid, seeds):
        res = maximize_k3(
            theta,
            kappa=kappa,
            budget=budget,
            seed=child_seed,
            config=config,
            extra_starts=tuple(chain),
        )
        chain = [_start_from_argmax(res.argmax)]
        results.append(res)
    # Depolarisation lowers the reachable maximum, so a larger kappa that
    # beats its predecessor marks a search that missed the basin (near the
    # corner the noisy optimum sits at gaps of order 1e-3, a narrow target at
    # small budgets): search that kappa again from the later argmax, back to
    # front, and keep the better result with the evaluations of both.
    for i in range(len(grid) - 2, -1, -1):
        res, later = results[i], results[i + 1]
        if not (grid[i] < grid[i + 1] and later.objective > res.objective):
            continue
        retry = maximize_k3(
            theta,
            kappa=grid[i],
            budget=budget,
            seed=seeds[i],
            config=config,
            extra_starts=(_start_from_argmax(later.argmax),),
        )
        best = retry if retry.objective > res.objective else res
        results[i] = replace(best, evals=res.evals + retry.evals)
    return results
