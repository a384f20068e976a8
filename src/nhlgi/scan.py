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
returned value reaches the closed-form benchmark except at the corner.  Both are
in-house and load no scipy: the hypercube repeats the draws of scipy's
``LatinHypercube`` for the same seed, and :func:`minimize` repeats the
arithmetic of scipy's bounded adaptive Nelder-Mead on Python floats, one
coordinate at a time in a step loop written out per dimension, with
vertices kept in stable order so tied values cannot reorder between runs or
machines.  Every reported objective is the re-evaluable value of an actually
visited point: the K3 objective calls the route of
:class:`nhlgi.lgi.CorrelatorEngine` that the engine's public calls take for
the same state and axis, and the speed objective the route of
:func:`nhlgi.dynamics.speed`, which the public API validates and calls, so
an argmax re-evaluates through it to the reported float.  Every search
point lies on the invariant circle, so at every kappa that is the engine's
circle route, fed the same floats without building a spinor: the real
circle frame at ``kappa = 0``, the noisy frame on the state's Bloch vector
under noise.  The route is two plain functions on floats, one setting up
the state and axis and one evaluating the three times, and the objective
forms the three correlators without building a closure or a joint table
per point.  This module keeps no copy of any route's arithmetic.  Runs
are reproducible: one master seed drives the hypercube and all restarts,
the restarts share what the seeding pass leaves of the budget in equal
parts fixed up front, and they run one after another in a fixed order.  No
run spends more than its budget, which must be an integer, as the seed must
be a non-negative one; anything else is refused by name before any work.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from math import isnan
from typing import NamedTuple

from ._numpy import np
from .dynamics import NHHamiltonian, _bloch_state, _check_kappa, _speed_route
from .lgi import CorrelatorEngine, _correlators

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_NOISE_BUDGET",
    "DEFAULT_KAPPA_GRID",
    "DEFAULT_THETA_GRID",
    "TIME_WINDOW",
    "ScanConfigError",
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


def _check_run(budget, seed) -> None:
    """Refuse a budget that is not an integer, or a seed that is not a
    non-negative integer, naming the argument.

    A NaN or infinite budget would let every restart stop after its initial
    simplex, and numpy's refusal of a negative seed names no argument.  A
    ``bool`` is refused by name, although ``operator.index(True)`` is 1.
    Each search entry point calls this before any work.
    """
    for name, value in (("budget", budget), ("seed", seed)):
        if isinstance(value, bool):
            raise ScanConfigError(f"{name} must be an integer, not the bool {value!r}")
    try:
        operator.index(budget)
    except TypeError:
        raise ScanConfigError(f"budget must be an integer, got {budget!r}") from None
    try:
        valid_seed = operator.index(seed) >= 0
    except TypeError:
        valid_seed = False
    if not valid_seed:
        raise ScanConfigError(f"seed must be a non-negative integer, got {seed!r}")


# Simplex convergence tolerances on coordinates and on values.
XATOL = 1e-8
FATOL = 1e-8

# Lower bound on the time gaps of the K3 search, which searches their logarithms.
GAP_FLOOR = 1e-9

# Latin hypercube size for the seeding pass, the most Nelder-Mead restarts
# from the best seeds, and the evaluations below which a restart is not split.
_LHS_POINTS = 512
_RESTARTS = 16
_RESTART_EVALS = 64


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
        """The fields in declaration order, with a copy of the argmax."""
        return asdict(self)


class SimplexResult(NamedTuple):
    """Outcome of one :func:`minimize` run."""

    x: list          # best vertex of the final simplex
    fun: float       # its value
    nfev: int        # objective evaluations made
    status: int      # 1 = stopped on ``maxfev``, 0 = converged


def _clip(v: float, lo: float, hi: float) -> float:
    """``min(max(v, lo), hi)`` with numpy's clip semantics for signed zeros."""
    return (v if v < hi else hi) if v > lo else lo


def minimize(fun, x0, lower, upper, *, maxfev: int, xatol: float, fatol: float):
    """Minimise ``fun`` over the box ``[lower, upper]`` with the adaptive
    Nelder-Mead simplex of Gao and Han (Comput. Optim. Appl. 51, 2012).

    The arithmetic is that of scipy's bounded ``Nelder-Mead`` with
    ``adaptive=True``: the same initial simplex, centroid, trial points,
    comparisons and clipping.  Its steps run in a loop written out for the
    dimension, coordinate by coordinate, and compiled on the first call for
    that dimension.  Vertices are kept in stable order of their values, so
    tied values keep their order and runs repeat exactly.  ``fun`` takes a
    list of floats, a new one for every point, and must not change it; it is
    called directly, with no wrapper.  A start with no coordinates, of
    another length than the bounds or outside them is refused with a
    ``ValueError`` before any evaluation.  The budget is counted
    where each evaluation is made: one happens only while fewer than
    ``maxfev`` have been made, and the step that would exceed the budget ends
    the run and leaves the simplex as it was.  The run converges when all
    values lie within ``fatol`` and all vertices within ``xatol`` of the best
    one; a NaN value never converges.  Restarts call it through this module
    attribute, so tracing can wrap each restart by name.
    """
    n = len(x0)
    if n == 0:
        raise ValueError("start [] has no coordinates")
    if len(lower) != n or len(upper) != n:
        raise ValueError(
            f"start {list(x0)!r} has {n} coordinates, "
            f"but lower has {len(lower)} and upper {len(upper)}"
        )
    bounds = tuple(zip(lower, upper))
    if not all(lo <= v <= hi for v, (lo, hi) in zip(x0, bounds)):
        raise ValueError(f"start {list(x0)!r} lies outside the bounds")
    dim = float(n)
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim

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
    fsim = [fun(sim[k]) for k in range(min(n + 1, maxfev))]
    nfev = len(fsim)
    fsim += [math.inf] * (n + 1 - nfev)

    # NaN values go last, as numpy's argsort puts them, in a stable order
    def restore_order():
        order = sorted(range(n + 1), key=lambda i: (isnan(fsim[i]), fsim[i]))
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    restore_order()
    nfev = _step_loop(n)(
        fun, sim, fsim, nfev, maxfev, xatol, fatol, bounds, chi, psi, sigma, restore_order
    )
    return SimplexResult(sim[0], fsim[0], nfev, 1 if nfev >= maxfev else 0)


# The step loop of :func:`minimize`, written out for ``d`` coordinates.  Vertex
# ``i`` of the sorted simplex is held in the locals ``x{i}_{k}``, so the worst
# is ``x{d}_{k}``; the centroid of the others is ``m_{k}`` and the bounds are
# ``lo_{k}`` and ``hi_{k}``.  Trial points are ``a * centroid + c * worst``
# with scipy's coefficients at rho = 1.  Adding ``c * worst`` for a negative
# ``c`` rounds exactly as subtracting ``-c * worst`` does, so the reflection
# is written ``2 * centroid - worst``.
_STEP_LOOP = """\
def step_loop(fun, sim, fsim, nfev, maxfev, xatol, fatol, bounds, chi, psi, sigma, restore_order):
    {bounds}, = bounds
    expand_a, expand_c = 1 + chi, -chi
    outside_a, outside_c = 1 + psi, -psi
    inside_a, inside_c = 1 - psi, psi
    while nfev < maxfev:
        {vertices}, = sim
        fbest = fsim[0]
        # The values are sorted unless one is a NaN, which no comparison
        # orders: with none, a worst value within fatol of the best puts
        # every value within fatol of it.  The worst vertex is the likeliest
        # to lie far from the best, so the vertices are tested from it.
        if (
            fsim[-1] - fbest <= fatol
            and not any(map(isnan, fsim))
            and {spread}
        ):
            break
        # The centroid of all but the worst vertex, summed in vertex order
        # with plain ``+`` as numpy reduces rows; ``sum`` would round
        # differently (it compensates since Python 3.12).
        {centroid}
        {reflect}
        fxr = fun(xr)
        nfev += 1
        if fxr < fbest:
            if nfev >= maxfev:
                break
            {expand}
            fxe = fun(xe)
            nfev += 1
            new = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            new = xr, fxr
        else:
            if nfev >= maxfev:
                break
            nfev += 1
            if fxr < fsim[-1]:
                {outside}
                fxc = fun(xc)
                new = (xc, fxc) if fxc <= fxr else None
            else:
                {inside}
                fxcc = fun(xcc)
                new = (xcc, fxcc) if fxcc < fsim[-1] else None
            if new is None:
                best = sim[0]
                shrunk = [
                    [_clip(b + sigma * (v - b), lo, hi)
                     for b, v, (lo, hi) in zip(best, x, bounds)]
                    for x in sim[1:]
                ]
                values = [fun(x) for x in shrunk[: maxfev - nfev]]
                nfev += len(values)
                if len(values) < {d}:
                    break
                sim[1:] = shrunk
                fsim[1:] = values
                restore_order()
                continue
        # Only the worst vertex changed, so a stable sort re-inserts it
        # after every vertex of equal or lower value, and a value that is
        # not NaN before every NaN, which no comparison orders (v != v holds
        # for NaN alone).
        del sim[-1], fsim[-1]
        i = bisect_right(fsim, new[1])
        if i and fsim[i - 1] != fsim[i - 1] and new[1] == new[1]:
            i = bisect_right(fsim, new[1], 0, next(k for k, v in enumerate(fsim) if v != v))
        sim.insert(i, new[0])
        fsim.insert(i, new[1])
    return nfev
"""


@functools.cache
def _step_loop(d: int):
    """The step loop of :func:`minimize` for ``d`` coordinates, compiled from
    ``_STEP_LOOP`` on the first call for that ``d``."""
    ks = range(d)

    def clipped(name, value, indent):
        # the point ``value``, clipped coordinate by coordinate, as a new list
        lines = []
        for k in ks:
            lines.append("v = " + value.format(d=d, k=k))
            lines.append(f"{name}_{k} = (v if v < hi_{k} else hi_{k}) if v > lo_{k} else lo_{k}")
        lines.append(f"{name} = [{', '.join(f'{name}_{k}' for k in ks)}]")
        return ("\n" + " " * indent).join(lines)

    def spread(i):
        terms = [f"abs(x{i}_{k} - x0_{k})" for k in ks]
        return (f"max({', '.join(terms)})" if d > 1 else terms[0]) + " <= xatol"

    source = _STEP_LOOP.format(
        d=d,
        bounds=", ".join(f"(lo_{k}, hi_{k})" for k in ks),
        vertices=", ".join(f"({', '.join(f'x{i}_{k}' for k in ks)},)" for i in range(d + 1)),
        spread="\n            and ".join(spread(i) for i in range(d, -1, -1)),
        centroid="\n        ".join(
            f"m_{k} = ({' + '.join(f'x{i}_{k}' for i in range(d))}) / {d}" for k in ks
        ),
        reflect=clipped("xr", "2 * m_{k} - x{d}_{k}", 8),
        expand=clipped("xe", "expand_a * m_{k} + expand_c * x{d}_{k}", 12),
        outside=clipped("xc", "outside_a * m_{k} + outside_c * x{d}_{k}", 16),
        inside=clipped("xcc", "inside_a * m_{k} + inside_c * x{d}_{k}", 16),
    )
    namespace = {"_clip": _clip, "bisect_right": bisect_right, "isnan": isnan}
    exec(compile(source, f"<nhlgi.scan simplex d={d}>", "exec"), namespace)
    return namespace["step_loop"]


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


def _multistart_maximize(objective, lower, upper, extra_starts, budget, seed):
    """Shared multi-start driver over the box ``[lower, upper]`` (tuples).

    ``objective(x) -> value``, defined on the whole box.  The seeding pass
    evaluates ``extra_starts``, clipped into the box, and the hypercube; the
    restarts from the best of them share what it leaves of the budget: up to
    ``_RESTARTS`` of at least ``_RESTART_EVALS`` evaluations each, or a single
    one of what is left.  Returns ``(best_value, best_x, evals, restarts)``.
    """
    # A warm start rebuilt from an argmax may sit outside the bounds: an ulp
    # past them, or with a gap that was scaled back under the floor.  Clipping
    # would move a NaN onto the lower bound, so it is refused instead; so is a
    # start of the wrong length, which zip would truncate or leave short.
    for x in extra_starts:
        if len(x) != len(lower):
            raise ScanConfigError(
                f"start {list(x)!r} has {len(x)} coordinates, not {len(lower)}"
            )
        if any(math.isnan(v) for v in x):
            raise ValueError(f"start {list(x)!r} has a NaN coordinate")
    candidates = [
        [float(_clip(v, lo, hi)) for v, lo, hi in zip(x, lower, upper)] for x in extra_starts
    ]
    # The same elementwise float64 operations as on Python floats, unfused.
    lo, hi = np.array(lower), np.array(upper)
    candidates.extend((lo + _latin_hypercube(_LHS_POINTS, len(lower), seed) * (hi - lo)).tolist())
    if budget < max(_LHS_POINTS + _RESTART_EVALS, len(candidates) + 1):
        raise ScanConfigError(
            f"budget {budget} cannot cover the seeding pass "
            f"({_LHS_POINTS} hypercube points) plus one simplex restart"
        )

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

    left = budget - evals
    n_restarts = max(1, min(_RESTARTS, left // _RESTART_EVALS))
    per_restart = left // n_restarts

    # The simplex builds a new list for every point it visits, so the best
    # point is kept by reference.
    def negated(x):
        nonlocal evals, best_value, best_x
        value = objective(x)
        evals += 1
        if value > best_value:
            best_value, best_x = value, x
        return -value

    for _, _, x0 in ranked[:n_restarts]:
        minimize(
            negated,
            x0,
            lower,
            upper,
            maxfev=per_restart,
            xatol=XATOL,
            fatol=FATOL,
        )

    return best_value, best_x, evals, n_restarts


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
    """The state angles, axis angles, first time and gaps ``(theta_s, phi_s,
    theta_q, phi_q, t1, g1, g2)`` of the planar search point ``x``.

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
    """``objective(x) -> K3`` over the planar search point ``x``, at the
    configuration :func:`_planar_point` gives, with the times ``(0, g1,
    g1 + g2)``.

    Every point runs the route :class:`nhlgi.lgi.CorrelatorEngine` takes for
    the state and the axis the public API builds from the same angles, on
    the same floats, so ``engine.k3`` re-evaluates any point to the same
    float.  Both lie on the invariant circle, so at every kappa that is the
    engine's circle route: the state ``(cos(theta_s/2), +/- i
    sin(theta_s/2))`` enters as its two real parts and the axis ``(0, sin
    theta_q, cos theta_q)`` as its last two, with no complex spinor built.
    The route is two plain functions on floats, with no closure or joint
    table per point.  Near the corner K3 resolves the last ulp of the state
    and of the axis eigenbasis, so no other route would do.
    """
    setup, evaluate = CorrelatorEngine(NHHamiltonian.canonical(theta), kappa)._circle_route
    cos, sin, quarter = math.cos, math.sin, 0.5 * math.pi

    def objective(x):
        theta_s, phi_s, theta_q, _, _, g1, g2 = _planar_point(x)
        half = 0.5 * theta_s
        v = sin(half)
        # the axis of nhlgi.dynamics._bloch_axis, whose _cos_sin is exact at
        # theta_q = pi/2 (the canonical seed); theta_q never reaches 3 pi/2
        axis = (1.0, 0.0) if theta_q == quarter else (sin(theta_q), cos(theta_q))
        point = setup((cos(half), v if phi_s < math.pi else -v), axis)
        c12, c23, c13 = _correlators(evaluate(point, 0.0, g1, g1 + g2))
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
    extra_starts=(),
) -> ScanResult:
    """Maximise the three-time K3 over states and axes on the invariant y-z
    great circle and over the two time gaps from ``t1 = 0``.

    The search coordinates are ``(alpha_s, alpha_q, log g1, log g2)`` (see
    :func:`_planar_point`); ``extra_starts`` are points in them, each a
    sequence of four numbers, clipped into the box.  A start of another length
    is refused with :class:`ScanConfigError`, and one with a NaN coordinate
    with ``ValueError``.  The canonical configuration is always among the
    evaluated seeds, so at ``kappa = 0`` the result dominates the closed-form
    value ``1 + sin(theta) + sin^2(theta)``.  The seeding pass takes
    512 evaluations plus one per start, and the simplex restarts share the
    rest; ``evals`` never exceeds ``budget``, and ``restarts`` counts the
    restarts run.  The argmax keeps all seven keys, as floats, with ``t1 =
    0``.  Deterministic for a fixed ``(theta, kappa, budget, seed)``.
    """
    _check_run(budget, seed)
    starts = (_CANONICAL_K3_START, *extra_starts)
    value, x, evals, restarts = _multistart_maximize(
        _k3_objective(theta, kappa), _K3_LOWER, _K3_UPPER, starts, budget, seed
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
) -> ScanResult:
    """Maximise the squared Bloch speed :func:`nhlgi.dynamics.speed` over
    initial states, at ``t = 0``.

    Every state on the trajectory is itself an initial state, so the time
    adds nothing; the argmax reports ``t = 0``.  The maximum of the in-plane
    closed form, ``(1 + sin theta)/(1 - sin theta)``, is always reachable
    because the canonical start, ``down_y``, sits on it.
    """
    _check_run(budget, seed)
    starts = (_CANONICAL_SPEED_START,)
    value, x, evals, restarts = _multistart_maximize(
        _speed_objective(theta), (0.0, 0.0), (math.pi, 2 * math.pi), starts, budget, seed
    )
    argmax = {"theta_s": x[0], "phi_s": x[1], "t": 0.0}
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
    _check_run(budget, seed)
    children = np.random.SeedSequence(seed).spawn(2 * len(thetas))
    k3_results, speed_results = [], []
    for i, theta in enumerate(thetas):
        seed_k3 = int(children[2 * i].generate_state(1)[0])
        seed_v = int(children[2 * i + 1].generate_state(1)[0])
        k3_results.append(maximize_k3(theta, budget=budget, seed=seed_k3))
        speed_results.append(maximize_speed(theta, budget=budget, seed=seed_v))
    return k3_results, speed_results


def _start_from_argmax(argmax: dict[str, float]) -> tuple:
    """The planar search point of a :func:`maximize_k3` argmax."""
    alpha_s = argmax["theta_s"] if argmax["phi_s"] < math.pi else -argmax["theta_s"]
    return (
        alpha_s,
        argmax["theta_q"],
        math.log(argmax["t2"] - argmax["t1"]),
        math.log(argmax["t3"] - argmax["t2"]),
    )


def k3max_vs_noise(
    theta: float,
    kappa_grid=None,
    budget: int = DEFAULT_NOISE_BUDGET,
    seed: int = 0,
) -> list[ScanResult]:
    """Maximal K3 as a function of depolarisation strength.

    Runs one :func:`maximize_k3` per grid point, warm-starting each from the
    previous argmax (in addition to the canonical seed and the hypercube),
    which keeps the reported series from developing spurious optimisation
    dips.  Near the corner the noisy optimum sits at gaps of order 1e-3,
    which the log-gap coordinates reach, but a small budget can still stop
    short of it: a point whose maximum is beaten by the next, larger kappa
    is searched again from that argmax, back to front, and keeps the better
    result; its ``evals`` count the evaluations of both searches, so they
    can reach twice ``budget``, while each search stays within it.  The
    default grid ends deep in the overdamped regime where the maximum
    saturates at the classical value 1.
    """
    _check_run(budget, seed)
    grid = DEFAULT_KAPPA_GRID if kappa_grid is None else tuple(kappa_grid)
    if len(grid) == 0:
        raise ScanConfigError("kappa grid is empty")
    for kappa in grid:
        try:
            _check_kappa(kappa)
        except ValueError as exc:
            raise ScanConfigError(f"{exc} (grid entry {kappa!r})") from exc

    children = np.random.SeedSequence(seed).spawn(len(grid))
    seeds = [int(child.generate_state(1)[0]) for child in children]
    results: list[ScanResult] = []
    chain: list[tuple] = []
    for kappa, child_seed in zip(grid, seeds):
        res = maximize_k3(
            theta,
            kappa=kappa,
            budget=budget,
            seed=child_seed,
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
            extra_starts=(_start_from_argmax(later.argmax),),
        )
        best = retry if retry.objective > res.objective else res
        results[i] = replace(best, evals=res.evals + retry.evals)
    return results
