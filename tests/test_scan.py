import json
import math
import re

import numpy as np
import pytest

import nhlgi.scan
from nhlgi.dynamics import (
    NHHamiltonian,
    _bloch_axis,
    _bloch_state,
    projector,
    speed,
    state_from_bloch_angles,
)
from nhlgi.lgi import CorrelatorEngine, Observable, _correlators
from nhlgi.scan import (
    DEFAULT_KAPPA_GRID,
    DEFAULT_THETA_GRID,
    GAP_FLOOR,
    TIME_WINDOW,
    ScanConfigError,
    ScanResult,
    k3max_vs_noise,
    maximize_family,
    maximize_k3,
    maximize_speed,
    minimize,
)
from nhlgi.scan import (
    _CANONICAL_K3_START,
    _CANONICAL_SPEED_START,
    _K3_LOWER,
    _K3_UPPER,
    _k3_objective,
    _latin_hypercube,
    _planar_point,
    _speed_objective,
    _start_from_argmax,
)
from oracles import protocol


class TestScanConfig:
    def test_default_grids(self):
        assert all(b > a for a, b in zip(DEFAULT_KAPPA_GRID, DEFAULT_KAPPA_GRID[1:]))
        assert DEFAULT_KAPPA_GRID[0] == 0.0
        assert all(0.0 <= th < math.pi / 2 for th in DEFAULT_THETA_GRID)


@pytest.mark.parametrize("d", [3, 7])
@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("seed", [0, 7, 4294967291])
def test_latin_hypercube_repeats_scipy(d, n, seed):
    # The seeding pass draws the same points as scipy's LatinHypercube; this
    # identity is what keeps every scan result unchanged without scipy.stats.
    from scipy.stats import qmc

    expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
    got = _latin_hypercube(n, d, seed)
    assert got.shape == (n, d)
    assert np.array_equal(got, expected)


def _shifted_rosenbrock(x):
    y = [v - 0.1 * (i + 1) for i, v in enumerate(x)]
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(y, y[1:]))


def _shifted_ripple(x):
    # Wiggles on the scale of the initial simplex, so contractions fail and
    # the simplex shrinks early, before any two vertices tie.
    return sum(
        (v - 0.1 * (i + 1)) ** 2 + 0.1 * math.sin(250.0 * (1.0 + 0.1 * i) * v + i)
        for i, v in enumerate(x)
    )


def _scipy_simplex(fun, x0, lower, upper, maxfev, callback=None):
    """scipy's bounded adaptive Nelder-Mead with the scan's tolerances, and
    the points it evaluated."""
    from scipy.optimize import minimize as scipy_minimize

    points = []

    def recorded(x):
        points.append(x.tolist())
        return fun(points[-1])

    res = scipy_minimize(
        recorded,
        np.array(x0),
        method="Nelder-Mead",
        bounds=list(zip(lower, upper)),
        callback=callback,
        options={"maxfev": maxfev, "xatol": 1e-8, "fatol": 1e-8, "adaptive": True},
    )
    return res, points


def _scipy_steps(fun, x0, lower, upper):
    """``(first evaluation, kind)`` of each iteration of an unbounded-budget
    scipy run, told apart by the number of evaluations it made."""
    values, ends = [], []

    def counted(x):
        values.append(fun(x))
        return values[-1]

    _scipy_simplex(counted, x0, lower, upper, 10**6, callback=lambda *_: ends.append(len(values)))
    n = len(x0)
    steps, start = [], n + 1
    for end in ends:
        if end - start == 1:
            kind = "reflect"
        elif end - start == n + 2:
            kind = "shrink"
        else:
            # Every point better than the best vertex is accepted, so the
            # best vertex holds the lowest value seen so far.
            kind = "expand" if values[start] < min(values[:start]) else "contract"
        steps.append((start, kind))
        start = end
    return steps


class TestSimplex:
    """:func:`nhlgi.scan.minimize` against scipy's simplex, the oracle."""

    # d = 2 and 4 are the dimensions of the scans' own searches.
    @pytest.mark.parametrize(
        "fun, d, ending",
        [
            (fun, d, ending)
            for fun, ending in [
                (_shifted_rosenbrock, "converged"),
                (_shifted_rosenbrock, "expand"),
                (_shifted_ripple, "shrink"),
            ]
            for d in (2, 3, 4, 7)
        ],
    )
    def test_repeats_scipy_bit_for_bit(self, fun, d, ending):
        x0, lower, upper = [0.3] * d, [-2.0] * d, [2.0] * d
        if ending == "converged":
            maxfev = 10**6
        else:
            # Stop in the middle of the run, on the call of the given step
            # that would exceed the budget: the expansion after its
            # reflection, or the third vertex of a shrink (the second at
            # d = 2, whose shrink has two).
            starts = [s for s, kind in _scipy_steps(fun, x0, lower, upper) if kind == ending]
            start = starts[len(starts) // 2]
            maxfev = start + (1 if ending == "expand" else min(4, d + 1))
        expected, expected_points = _scipy_simplex(fun, x0, lower, upper, maxfev)
        points = []

        def recorded(x):
            points.append(list(x))
            return fun(x)

        res = minimize(recorded, x0, lower, upper, maxfev=maxfev, xatol=1e-8, fatol=1e-8)
        assert points == expected_points
        assert (res.status, res.nfev) == (expected.status, expected.nfev)
        assert res.status == (0 if ending == "converged" else 1)
        if ending == "converged":
            assert res.x == expected.x.tolist() and res.fun == expected.fun
        elif ending == "expand":
            # the reflection beat the best vertex, but the simplex was left
            # as it was before the step
            assert fun(points[-1]) < res.fun

    def test_tied_values_keep_their_order(self):
        # On a constant objective every vertex ties, so the start stays the
        # best vertex and the simplex shrinks onto it.
        res = minimize(lambda x: 1.0, [0.5, 0.25, 1.0], [0.0] * 3, [2.0] * 3,
                       maxfev=10**5, xatol=1e-8, fatol=1e-8)
        assert (res.x, res.fun, res.status) == ([0.5, 0.25, 1.0], 1.0, 0)

    def test_ties_follow_a_stable_sort(self, monkeypatch):
        # Values rounded to a coarse grid tie often.  Tied vertices keep the
        # order of a stable sort, so the run is scipy's simplex with a stable
        # argsort, on every machine.
        def coarse(x):
            return round(_shifted_rosenbrock(x), 1)

        x0, lower, upper = [0.3] * 7, [-2.0] * 7, [2.0] * 7
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a: argsort(a, kind="stable"))
        expected, expected_points = _scipy_simplex(coarse, x0, lower, upper, 3000)
        monkeypatch.undo()
        points = []

        def recorded(x):
            points.append(list(x))
            return coarse(x)

        res = minimize(recorded, x0, lower, upper, maxfev=3000, xatol=1e-8, fatol=1e-8)
        assert points == expected_points
        assert (res.status, res.nfev) == (expected.status, expected.nfev)
        values = [coarse(x) for x in points]
        assert len(set(values)) < len(values) / 2

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_nan_between_tied_values_does_not_converge(self, d):
        # The first simplex holds a NaN at vertex 1, which no comparison
        # orders, so it stays between the best and the worst vertex, whose
        # values and coordinates lie within the tolerances.  scipy sorts the
        # NaN last and does not converge either: both runs go on to the
        # reflection and stop on the budget.
        def fun(x):
            return math.nan if x[0] > 1e-9 else 1.0 + x[-1]

        x0, lower, upper = [1e-9] * d, [-1.0] * d, [1.0] * d
        expected, expected_points = _scipy_simplex(fun, x0, lower, upper, d + 2)
        points = []

        def recorded(x):
            points.append(list(x))
            return fun(x)

        res = minimize(recorded, x0, lower, upper, maxfev=d + 2, xatol=1e-8, fatol=1e-8)
        assert points[: d + 1] == expected_points[: d + 1]
        assert (res.status, res.nfev) == (expected.status, expected.nfev) == (1, d + 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    @pytest.mark.parametrize("maxfev", [50, 500])
    def test_nan_vertices_sort_last_as_in_scipy(self, d, maxfev):
        # The first simplex holds NaN at every vertex but the start.  scipy's
        # argsort puts them last, so the best vertex stays the start, whose
        # neighbours improve on it, and from d = 3 on the run converges after
        # d + 2 evaluations; at d = 2 both runs spend the budget.
        def fun(x):
            return math.nan if x[0] > 1e-9 else 1.0 + x[-1]

        x0, lower, upper = [1e-9] * d, [-1.0] * d, [1.0] * d
        expected, expected_points = _scipy_simplex(fun, x0, lower, upper, maxfev)
        points = []

        def recorded(x):
            points.append(list(x))
            return fun(x)

        res = minimize(recorded, x0, lower, upper, maxfev=maxfev, xatol=1e-8, fatol=1e-8)
        assert points == expected_points
        assert (res.status, res.nfev) == (expected.status, expected.nfev)
        assert (res.status, res.nfev) == ((1, maxfev) if d == 2 else (0, d + 2))
        # scipy reports the minimum of the values, NaN when one is
        assert res.x == expected.x.tolist() and res.fun == fun(res.x)

    def test_expansion_next_to_nan_vertices_is_scipys(self):
        # Two NaN vertices, and an expansion that beats the best vertex: the
        # new vertex goes first, not after the NaNs, which a bisection of the
        # whole list would do.
        def fun(x):
            phase = 7.553386540717286 * x[0] - 8.93165618655591 * x[1] + 8.433067543328761 * x[2]
            return math.nan if math.sin(phase) > 0.641500091111733 else _shifted_rosenbrock(x)

        x0 = [0.9616214044489055, -0.1531896552804879, -0.7751938333053154]
        lower, upper = [-2.0] * 3, [2.0] * 3
        expected, expected_points = _scipy_simplex(fun, x0, lower, upper, 400)
        points = []

        def recorded(x):
            points.append(list(x))
            return fun(x)

        res = minimize(recorded, x0, lower, upper, maxfev=400, xatol=1e-8, fatol=1e-8)
        assert points == expected_points
        assert (res.status, res.nfev) == (expected.status, expected.nfev)

    def test_nan_never_converges(self):
        res = minimize(lambda x: math.nan, [0.5, 0.5], [0.0, 0.0], [1.0, 1.0],
                       maxfev=200, xatol=1.0, fatol=1.0)
        assert (res.status, res.nfev) == (1, 200)

    @pytest.mark.parametrize("x0", [[1.5, 0.5], [0.5, -1e-300], [math.nan, 0.5]])
    def test_start_outside_bounds_is_refused(self, x0):
        with pytest.raises(ValueError, match="outside the bounds"):
            minimize(lambda x: 0.0, x0, [0.0, 0.0], [1.0, 1.0],
                     maxfev=100, xatol=1e-8, fatol=1e-8)


def _k3_reference(theta, kappa):
    """``objective(x) -> K3`` over the seven coordinates
    ``x = (theta_s, phi_s, theta_q, phi_q, t1, g1, g2)``, with the times
    ``(t1, t1 + g1, t1 + g1 + g2)``: the scan's planar objective without
    the plane, on the route the engine's public calls take for the state
    and the axis (the circle route on the plane and, off it, the Bloch
    route on the state's Bloch vector)."""
    engine = CorrelatorEngine(NHHamiltonian.canonical(theta), kappa)

    def objective(x):
        theta_s, phi_s, theta_q, phi_q, t1, g1, g2 = x
        t2 = t1 + g1
        evaluate, point = engine._pure_point(
            _bloch_state(theta_s, phi_s), _bloch_axis(theta_q, phi_q)
        )
        c12, c23, c13 = _correlators(evaluate(point, t1, t2, t2 + g2))
        return c12 + c23 - c13

    return objective


# Points of the planar search box with each log gap on one of its bounds.
_BOX_POINTS = [
    (-3.0, 2.0, math.log(GAP_FLOOR), math.log(GAP_FLOOR)),
    (0.0, 0.0, math.log(TIME_WINDOW), math.log(TIME_WINDOW)),
    (math.pi, math.pi, math.log(TIME_WINDOW), math.log(GAP_FLOOR)),
    (-0.5, 1.0, math.log(GAP_FLOOR), math.log(TIME_WINDOW)),
]


def _assert_objective_matches_engine(theta, kappa):
    """At the canonical start and at the argmax, the scan objective equals
    ``engine.k3`` on the validated state and observable, to the float."""
    res = maximize_k3(theta, kappa=kappa, budget=2000, seed=2)
    objective = _k3_reference(theta, kappa)
    engine = CorrelatorEngine(NHHamiltonian.canonical(theta), kappa)
    for x in (_CANONICAL_K3_START, _start_from_argmax(res.argmax)):
        x = _planar_point(x)
        t1 = x[4]
        expected = engine.k3(
            state_from_bloch_angles(x[0], x[1]),
            Observable.from_angles(x[2], x[3]),
            t1,
            t1 + x[5],
            t1 + x[5] + x[6],
        ).k3
        value = objective(x)
        assert type(value) is float
        assert value == expected
    assert objective(_planar_point(_start_from_argmax(res.argmax))) == res.objective


def _engine_k3(theta, res):
    """K3 of a K3 search's argmax, re-evaluated through the public engine."""
    am = res.argmax
    return CorrelatorEngine(NHHamiltonian.canonical(theta), res.kappa).k3(
        state_from_bloch_angles(am["theta_s"], am["phi_s"]),
        Observable.from_angles(am["theta_q"], am["phi_q"]),
        am["t1"],
        am["t2"],
        am["t3"],
    ).k3


class TestMaximizeK3:
    def test_hermitian_member_reaches_luder(self):
        res = maximize_k3(0.0, budget=2000, seed=0)
        assert res.objective == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.3, 0.9, 1.2])
    def test_dominates_equal_spacing_value(self, theta):
        # the canonical configuration is one of the evaluated seeds, so the
        # reported maximum can never fall below its closed-form value
        s = math.sin(theta)
        res = maximize_k3(theta, budget=2000, seed=1)
        assert res.objective >= 1.0 + s + s * s - 1e-9

    def test_deterministic(self):
        a = maximize_k3(0.9, budget=2000, seed=7)
        b = maximize_k3(0.9, budget=2000, seed=7)
        assert a.objective == b.objective
        assert a.evals == b.evals
        assert a.argmax == b.argmax

    def test_reported_point_reproduces_objective(self):
        # the scan result is a certified lower bound: re-running the
        # protocol at the argmax must give back the reported value
        res = maximize_k3(1.1, budget=2000, seed=2)
        assert _engine_k3(1.1, res) == pytest.approx(res.objective, abs=1e-12)

    def test_pure_objective_matches_engine(self):
        # at kappa = 0 the scan runs the engine's circle route on the floats
        # the engine takes from the same state and axis; near the corner K3
        # resolves their last ulp
        for theta in (1.1, math.pi / 2 - 1e-3, math.pi / 2 - 1e-5):
            _assert_objective_matches_engine(theta, 0.0)

    def test_noisy_objective_matches_engine(self):
        # under noise the circle route runs the noisy frame on Bloch vectors
        _assert_objective_matches_engine(1.1, 0.3)

    @pytest.mark.parametrize("theta", [1.2, math.pi / 2 - 1e-5])
    @pytest.mark.parametrize("seed", range(6))
    def test_pure_argmax_reevaluates_exactly(self, theta, seed):
        # the reported maximum is the engine's K3 at the argmax, bit for bit;
        # TestCircleFrame in test_lgi holds that route to the exact theta
        res = maximize_k3(theta, budget=2000, seed=seed)
        assert _engine_k3(theta, res) == res.objective

    @pytest.mark.filterwarnings("error")
    def test_warm_start_below_gap_floor_is_clipped(self):
        # a gap scaled back onto the window can fall under the gap floor, so
        # an argmax rebuilt as log(t3 - t2) can land under the floor's
        # logarithm; the start must be clipped into the bounds, which the
        # simplex refuses to leave
        x = np.array(_CANONICAL_K3_START)
        x[3] = math.log(GAP_FLOOR * (1.0 - 1e-12))
        assert x[3] < math.log(GAP_FLOOR)
        res = maximize_k3(1.2, budget=2000, extra_starts=[x])
        s = math.sin(1.2)
        assert res.objective >= 1.0 + s + s * s - 1e-9

    @pytest.mark.parametrize("x", _BOX_POINTS)
    def test_every_point_of_the_box_is_a_configuration(self, x):
        # no infeasible points: corners of the box map onto ordered times
        # from t1 = 0 inside the window, and onto the y-z circle
        theta_s, phi_s, theta_q, phi_q, t1, g1, g2 = _planar_point(x)
        assert t1 == 0.0 and g1 > 0.0 and g2 > 0.0
        assert t1 + g1 + g2 <= TIME_WINDOW * (1.0 + 1e-15)
        assert 0.0 <= theta_s <= math.pi and 0.0 <= theta_q <= math.pi
        assert math.cos(phi_s) == pytest.approx(0.0, abs=1e-15)
        assert phi_q == math.pi / 2
        assert theta_s == abs(x[0]) and (math.sin(phi_s) > 0.0) == (x[0] >= 0.0)

    @pytest.mark.parametrize("as_array", [True, False])
    def test_argmax_is_floats_from_any_warm_start(self, monkeypatch, as_array):
        # a warm start, numpy array or tuple, enters the search as floats,
        # clipped exactly onto the gap floor's logarithm, and the argmax it
        # leads to is made of floats
        evaluated = []

        def recording(theta, kappa):
            objective = _k3_objective(theta, kappa)

            def recorded(x):
                evaluated.append(x)
                return objective(x)

            return recorded

        monkeypatch.setattr(nhlgi.scan, "_k3_objective", recording)
        x = list(_CANONICAL_K3_START)
        x[3] = math.log(GAP_FLOOR * (1.0 - 1e-12))
        start = np.array(x) if as_array else tuple(x)
        res = maximize_k3(1.2, budget=2000, extra_starts=[start])
        warm = evaluated[1]
        assert warm[3] == math.log(GAP_FLOOR) and warm[:3] == x[:3]
        assert all(type(v) is float for v in warm)
        assert all(type(v) is float for v in res.argmax.values())

    def test_nan_warm_start_is_refused(self):
        # clipping would move the NaN onto the lower bound and search on
        with pytest.raises(ValueError, match="NaN"):
            maximize_k3(1.2, budget=2000, extra_starts=[(math.nan, 1.0, -1.0, -1.0)])

    @pytest.mark.parametrize(
        "start", [(0.1, 0.2, 0.3, 0.4, 99.0), (0.1, 0.2)], ids=["five", "two"]
    )
    def test_warm_start_of_wrong_length_is_refused(self, start):
        # zip would drop a fifth coordinate and search on, and a short start
        # would fail later with an unnamed unpacking error
        message = f"start {list(start)!r} has {len(start)} coordinates, not 4"
        with pytest.raises(ScanConfigError, match=re.escape(message)):
            maximize_k3(1.2, budget=600, extra_starts=[start])

    def test_times_stay_in_window(self):
        res = maximize_k3(1.2, budget=2000, seed=4)
        am = res.argmax
        assert 0.0 <= am["t1"] < am["t2"] < am["t3"] <= math.pi + 1e-9

    def test_result_serialises(self):
        res = maximize_k3(0.5, budget=2000, seed=0)
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["kind"] == "k3"
        assert payload["theta"] == pytest.approx(0.5)
        assert set(payload["argmax"]) == {
            "theta_s", "phi_s", "theta_q", "phi_q", "t1", "t2", "t3",
        }
        assert payload["argmax"]["t1"] == 0.0
        assert payload["argmax"]["phi_q"] == pytest.approx(math.pi / 2)
        assert payload["argmax"]["phi_s"] in (
            pytest.approx(math.pi / 2), pytest.approx(1.5 * math.pi)
        )
        assert isinstance(res, ScanResult)

    def test_budget_too_small(self):
        with pytest.raises(ScanConfigError):
            maximize_k3(0.5, budget=100, seed=0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            maximize_k3(math.pi / 2, budget=2000)
        with pytest.raises(ValueError):
            maximize_k3(0.5, kappa=-1.0, budget=2000)


class TestBudget:
    """A search spends at most its budget: the restarts share what the seeding
    pass leaves, and ``restarts`` counts those run."""

    @pytest.mark.parametrize("budget", [576, 600, 1000, 1536])
    @pytest.mark.parametrize("search", ["k3", "k3_warm", "speed"])
    def test_evals_stay_within_budget(self, monkeypatch, search, budget):
        runs = []

        def counted(*args, **kwargs):
            runs.append(minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(nhlgi.scan, "minimize", counted)
        if search == "speed":
            res = maximize_speed(1.2, budget=budget, seed=3)
        else:
            warm = [(0.4, 1.0, -1.0, -0.5)] if search == "k3_warm" else []
            res = maximize_k3(1.2, budget=budget, seed=3, extra_starts=warm)
        seeding = 512 + (2 if search == "k3_warm" else 1)
        assert res.evals <= budget
        assert res.restarts == len(runs) >= 1
        assert res.evals == seeding + sum(run.nfev for run in runs)

    def test_seeding_pass_past_the_budget_is_refused(self):
        starts = [_CANONICAL_K3_START] * 64
        with pytest.raises(ScanConfigError):
            maximize_k3(1.2, budget=576, extra_starts=starts)

    _SEARCHES = {
        "k3": lambda **kw: maximize_k3(1.2, **kw),
        "speed": lambda **kw: maximize_speed(1.2, **kw),
        "family": lambda **kw: maximize_family((0.3, 1.2), **kw),
        "noise": lambda **kw: k3max_vs_noise(1.2, (0.0, 0.1), **kw),
    }

    @pytest.fixture
    def no_search(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a search ran before its arguments were checked")

        monkeypatch.setattr(nhlgi.scan, "_multistart_maximize", refused)

    # A NaN or infinite budget used to stop every restart after its initial
    # simplex and report the best seed as the maximum.
    @pytest.mark.parametrize("budget", [math.nan, math.inf, 600.5, 2000.0, "2000", None])
    @pytest.mark.parametrize("search", sorted(_SEARCHES))
    def test_non_integer_budget_is_refused(self, no_search, search, budget):
        with pytest.raises(ScanConfigError, match="^budget must be an integer"):
            self._SEARCHES[search](budget=budget, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, "1", None])
    @pytest.mark.parametrize("search", sorted(_SEARCHES))
    def test_bad_seed_is_refused(self, no_search, search, seed):
        with pytest.raises(ScanConfigError, match="^seed must be a non-negative integer"):
            self._SEARCHES[search](budget=2000, seed=seed)

    # operator.index(True) is 1: seed=True used to run and come back as
    # ScanResult.seed True, and budget=True was refused only as too small
    @pytest.mark.parametrize("argument", ["budget", "seed"])
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("search", sorted(_SEARCHES))
    def test_bool_is_refused_by_name(self, no_search, search, argument, value):
        kwargs = {"budget": 2000, "seed": 0, argument: value}
        with pytest.raises(ScanConfigError, match=f"^{argument} must be an integer, not the bool"):
            self._SEARCHES[search](**kwargs)

    def test_numpy_integers_are_accepted(self):
        a = maximize_k3(1.2, budget=np.int64(600), seed=np.uint32(3))
        b = maximize_k3(1.2, budget=600, seed=3)
        assert (a.objective, a.evals, a.argmax) == (b.objective, b.evals, b.argmax)


class TestMaximizeSpeed:
    @pytest.mark.parametrize("theta", [*DEFAULT_THETA_GRID, 0.8])
    def test_reaches_half_period_peak(self, theta):
        # over the states alone the search finds the closed-form peak, and
        # the speed is exact, so it cannot overshoot it either
        s = math.sin(theta)
        target = (1.0 + s) / (1.0 - s)
        res = maximize_speed(theta, budget=2000, seed=0)
        assert res.objective == pytest.approx(target, rel=1e-12, abs=0.0)
        assert res.kind == "speed"

    def test_objective_matches_speed(self):
        # the search and the validated public route call the same kernels, so
        # at the canonical start and at the argmax they agree exactly
        theta = 1.2
        res = maximize_speed(theta, budget=2000, seed=3)
        objective = _speed_objective(theta)
        h = NHHamiltonian.canonical(theta)
        am = res.argmax
        assert am["t"] == 0.0
        argmax = (am["theta_s"], am["phi_s"])
        for x in (_CANONICAL_SPEED_START, argmax):
            assert objective(x) == speed(h, state_from_bloch_angles(*x), 0.0)
        assert objective(argmax) == res.objective
        assert speed(h, state_from_bloch_angles(am["theta_s"], am["phi_s"]), am["t"]) == (
            res.objective
        )

    def test_deterministic(self):
        a = maximize_speed(1.0, budget=2000, seed=5)
        b = maximize_speed(1.0, budget=2000, seed=5)
        assert a.objective == b.objective
        assert a.argmax == b.argmax


# Argmax entries that every K3 run below shares: the state at phi_s = 3 pi/2,
# the axis at phi_q = pi/2 and t1 = 0.
_K3_TAIL = {"phi_s": "0x1.2d97c7f3321d2p+2", "phi_q": "0x1.921fb54442d18p+0", "t1": "0x0.0p+0"}


class TestPinnedSearches:
    """Searches pinned to the float, so a change that moves a scan float
    shows here, and not only as two runs of one commit that disagree.

    A change that moves them on purpose records the new values and lists
    them in its notes."""

    @pytest.mark.parametrize(
        "run, expected",
        [
            (
                lambda: maximize_k3(1.2, budget=3000, seed=2),
                ("0x1.6c16a6fc6bc59p+1", 2993, 16, {
                    "theta_s": "0x1.764e64b86ee72p+0", "theta_q": "0x1.88a3571b6c5cep+0",
                    "t2": "0x1.6cd1f5f96173fp-1", "t3": "0x1.791950d561095p+0", **_K3_TAIL,
                }),
            ),
            (
                lambda: maximize_k3(1.5697963267948967, budget=3000, seed=2),
                ("0x1.7ffff3985cc6ep+1", 2993, 16, {
                    "theta_s": "0x1.91f9754fc818fp+0", "theta_q": "0x1.921fb5926182cp+0",
                    "t2": "0x1.921f03220614fp-1", "t3": "0x1.9220e986d6214p+0", **_K3_TAIL,
                }),
            ),
            (
                lambda: maximize_speed(1.2, budget=3000, seed=2),
                ("0x1.c6dbdfb08b2ffp+4", 2390, 16, {
                    "theta_s": "0x1.921fb5379cf23p+0", "phi_s": "0x1.921fb57e31d1ep+0",
                    "t": "0x0.0p+0",
                }),
            ),
            # two restarts, the second cut by the budget
            (
                lambda: maximize_k3(1.2, budget=700, seed=1, extra_starts=[(0.4, 1.0, -1.0, -0.5)]),
                ("0x1.6c0751fa306a0p+1", 700, 2, {
                    "theta_s": "0x1.6f9b4dca829e2p+0", "theta_q": "0x1.8e1c9c870692cp+0",
                    "t2": "0x1.7721b529f363ep-1", "t3": "0x1.86edc40d730cdp+0", **_K3_TAIL,
                }),
            ),
        ],
        ids=["k3", "k3-corner", "speed", "k3-warm-cut"],
    )
    def test_search_is_pinned(self, run, expected):
        res = run()
        argmax = {key: value.hex() for key, value in res.argmax.items()}
        assert (res.objective.hex(), res.evals, res.restarts, argmax) == expected


class TestNoiseSeries:
    def test_small_grid(self):
        grid = (0.0, 0.5)
        results = k3max_vs_noise(0.9, kappa_grid=grid, budget=2000, seed=0)
        assert [r.kappa for r in results] == list(grid)
        s = math.sin(0.9)
        assert results[0].objective >= 1.0 + s + s * s - 1e-9
        # depolarisation can only lower the reachable maximum
        assert results[1].objective <= results[0].objective + 1e-6

    def test_deterministic(self):
        grid = (0.0, 0.2)
        a = k3max_vs_noise(0.7, kappa_grid=grid, budget=2000, seed=11)
        b = k3max_vs_noise(0.7, kappa_grid=grid, budget=2000, seed=11)
        assert [r.objective for r in a] == [r.objective for r in b]
        assert [r.evals for r in a] == [r.evals for r in b]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_stronger_noise_never_beats_weaker(self, seed):
        # near the corner the optimum sits at gaps of order 1e-3, which the
        # log-gap search reaches, but at this small budget a search can still
        # stop short of it (without the retry, the series rises somewhere for
        # each of seeds 0-11); such a kappa is searched again from the next
        # kappa's argmax
        grid = (1e-5, 1e-4, 1e-3)
        results = k3max_vs_noise(
            math.pi / 2 - 1e-3, kappa_grid=grid, budget=2000, seed=seed
        )
        values = [r.objective for r in results]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), values

    def test_corner_argmax_reevaluates(self):
        # at the corner the lift has cond(V) of about 4e6, so the scan and the
        # engine must build the Bloch vector and the axis with the same
        # kernels for an argmax to re-evaluate to 1e-12
        theta = math.pi / 2 - 1e-3
        results = k3max_vs_noise(
            theta, (1e-5, 1e-4, 1e-3), budget=2000, seed=7
        )
        for res in results:
            assert _engine_k3(theta, res) == pytest.approx(res.objective, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_corner_argmax_reevaluates_exactly(self, seed):
        # the search feeds the engine's circle route the state's real parts,
        # which form its Bloch vector as the spinor route does, so the
        # re-evaluation is bit for bit; built from the Bloch angles it
        # differs in the last ulp, which moved K3 by up to 4.4e-16 in half of
        # these argmaxes
        theta = math.pi / 2 - 1e-3
        results = k3max_vs_noise(
            theta, (1e-5, 1e-4, 1e-3), budget=2000, seed=seed
        )
        for res in results:
            assert _engine_k3(theta, res) == res.objective

    def test_corner_series_reaches_the_60_digit_level(self):
        # at delta = 1e-3 a 60-digit lift of H(theta) puts the maxima near
        # 2.9834919, 2.9388207 and 2.5802234; each reported argmax
        # re-evaluates in 60 digits to the reported value, which the closed
        # form reads 5.1e-12, 9.0e-13 and 2.8e-14 high (the eigendecomposed
        # lift read it up to 5.3e-9 high at kappa = 1e-5)
        theta = math.pi / 2 - 1e-3
        results = k3max_vs_noise(theta, (1e-5, 1e-3, 1.0), budget=20000, seed=0)
        assert results[0].objective >= 2.98
        for res in results:
            am = res.argmax
            rho0 = projector(state_from_bloch_angles(am["theta_s"], am["phi_s"]))
            axis = Observable.from_angles(am["theta_q"], am["phi_q"]).direction
            times = (am["t1"], am["t2"], am["t3"])
            k3 = protocol(theta, rho0, axis, times, res.kappa, dps=60).correlators[3]
            assert abs(k3 - res.objective) <= 1e-11

    @pytest.mark.parametrize(
        "theta, expected",
        [
            (1.2, [(2.478774233415069, 1985), (1.9458199735424535, 1986)]),
            (math.pi / 2 - 1e-3, [(2.795524980764765, 1985), (2.776573218924497, 1986)]),
        ],
    )
    def test_noisy_series_is_pinned(self, theta, expected):
        # the floats of the closed-form lift; the eigendecomposed lift gave
        # 2.478774233415355, 1.94581997354247, 2.7955249807788958 and
        # 2.7765732189217083 with the same evaluation counts
        results = k3max_vs_noise(theta, (1e-3, 1e-1), budget=2000, seed=4)
        assert [(r.objective, r.evals) for r in results] == expected

    def test_grid_validation(self):
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(), budget=2000)
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(0.0, -1.0), budget=2000)
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(0.0, math.inf), budget=2000)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_kappa_is_refused_by_name(self, value):
        # True used to run at kappa = 1 and come back as ScanResult.kappa True
        with pytest.raises(ScanConfigError, match="^kappa must be a float, not the bool"):
            k3max_vs_noise(0.9, kappa_grid=(0.0, value), budget=2000)
        with pytest.raises(ValueError, match="^kappa must be a float, not the bool"):
            maximize_k3(0.9, kappa=value, budget=2000)


class TestPlane:
    """The y-z great circle with ``t1 = 0`` loses nothing: the seven-coordinate
    reference objective, searched from the planar argmax, gains at most
    rounding."""

    @pytest.mark.parametrize("theta", [1.2, math.pi / 2 - 1e-3])
    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    def test_planar_objective_is_the_reference_on_the_plane(self, theta, kappa):
        rng = np.random.default_rng(19)
        lower, upper = np.array(_K3_LOWER), np.array(_K3_UPPER)
        points = (lower + rng.uniform(size=(200, 4)) * (upper - lower)).tolist()
        planar = _k3_objective(theta, kappa)
        reference = _k3_reference(theta, kappa)
        for x in points + _BOX_POINTS:
            assert planar(x) == reference(_planar_point(x))

    @pytest.mark.parametrize(
        "theta, kappa, budget",
        [
            *(
                (theta, kappa, 20_000)
                for theta in (1.2, math.pi / 2 - 0.1, math.pi / 2 - 1e-3)
                for kappa in (0.0, 1e-3, 1.0)
            ),
            # at budget 20000 the planar search stops 4.5e-7 short here
            (math.pi / 2 - 1e-2, 0.0, 60_000),
        ],
    )
    def test_seven_coordinates_gain_nothing(self, theta, kappa, budget):
        res = maximize_k3(theta, kappa=kappa, budget=budget, seed=0)
        am = res.argmax
        x0 = [
            am["theta_s"], am["phi_s"], am["theta_q"], am["phi_q"],
            am["t1"], am["t2"] - am["t1"], am["t3"] - am["t2"],
        ]
        lower = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        upper = [math.pi, 2 * math.pi, math.pi, 2 * math.pi] + [TIME_WINDOW] * 3
        objective = _k3_reference(theta, kappa)
        out = minimize(lambda x: -objective(x), x0, lower, upper,
                       maxfev=40_000, xatol=1e-8, fatol=1e-8)
        assert -out.fun - res.objective <= 1e-9
