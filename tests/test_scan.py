import json
import math

import numpy as np
import pytest

from nhlgi.dynamics import NHHamiltonian, projector, speed, state_from_bloch_angles
from nhlgi.lgi import CorrelatorEngine, Observable
from nhlgi.scan import (
    DEFAULT_KAPPA_GRID,
    DEFAULT_THETA_GRID,
    GAP_FLOOR,
    TIME_WINDOW,
    ScanConfig,
    ScanConfigError,
    ScanResult,
    k3max_vs_noise,
    maximize_k3,
    maximize_speed,
    minimize,
)
from nhlgi.scan import (
    _CANONICAL_K3_START,
    _CANONICAL_SPEED_START,
    _k3_objective,
    _latin_hypercube,
    _planar_point,
    _speed_objective,
    _start_from_argmax,
)
from oracles import noisy_protocol_tables

SMALL = ScanConfig(restarts=4, lhs_points=64)


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

    @pytest.mark.parametrize(
        "fun, d, ending",
        [
            (_shifted_rosenbrock, 3, "converged"),
            (_shifted_rosenbrock, 7, "converged"),
            (_shifted_rosenbrock, 3, "expand"),
            (_shifted_rosenbrock, 7, "expand"),
            (_shifted_ripple, 3, "shrink"),
            (_shifted_ripple, 7, "shrink"),
        ],
    )
    def test_repeats_scipy_bit_for_bit(self, fun, d, ending):
        x0, lower, upper = [0.3] * d, [-2.0] * d, [2.0] * d
        if ending == "converged":
            maxfev = 10**6
        else:
            # Stop in the middle of the run, on the call of the given step
            # that would exceed the budget: the expansion after its
            # reflection, or the third vertex of a shrink.
            starts = [s for s, kind in _scipy_steps(fun, x0, lower, upper) if kind == ending]
            start = starts[len(starts) // 2]
            maxfev = start + (1 if ending == "expand" else 4)
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

    def test_nan_never_converges(self):
        res = minimize(lambda x: math.nan, [0.5, 0.5], [0.0, 0.0], [1.0, 1.0],
                       maxfev=200, xatol=1.0, fatol=1.0)
        assert (res.status, res.nfev) == (1, 200)

    @pytest.mark.parametrize("x0", [[1.5, 0.5], [0.5, -1e-300], [math.nan, 0.5]])
    def test_start_outside_bounds_is_refused(self, x0):
        with pytest.raises(ValueError, match="outside the bounds"):
            minimize(lambda x: 0.0, x0, [0.0, 0.0], [1.0, 1.0],
                     maxfev=100, xatol=1e-8, fatol=1e-8)


def _assert_objective_matches_engine(theta, kappa):
    """At the canonical start and at the argmax, the scan objective equals
    ``engine.k3`` on the validated state and observable, to the float."""
    res = maximize_k3(theta, kappa=kappa, budget=2000, seed=2, config=SMALL)
    objective = _k3_objective(theta, kappa)
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
        res = maximize_k3(0.0, budget=2000, seed=0, config=SMALL)
        assert res.objective == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.3, 0.9, 1.2])
    def test_dominates_equal_spacing_value(self, theta):
        # the canonical configuration is one of the evaluated seeds, so the
        # reported maximum can never fall below its closed-form value
        s = math.sin(theta)
        res = maximize_k3(theta, budget=2000, seed=1, config=SMALL)
        assert res.objective >= 1.0 + s + s * s - 1e-9

    def test_deterministic(self):
        a = maximize_k3(0.9, budget=2000, seed=7, config=SMALL)
        b = maximize_k3(0.9, budget=2000, seed=7, config=SMALL)
        assert a.objective == b.objective
        assert a.evals == b.evals
        assert a.argmax == b.argmax

    def test_reported_point_reproduces_objective(self):
        # the scan result is a certified lower bound: re-running the
        # protocol at the argmax must give back the reported value
        res = maximize_k3(1.1, budget=2000, seed=2, config=SMALL)
        assert _engine_k3(1.1, res) == pytest.approx(res.objective, abs=1e-12)

    def test_pure_objective_matches_engine(self):
        # at kappa = 0 the scan runs the engine's spinor route, in the same
        # axis eigenbasis; near the corner K3 resolves the last ulp of that
        # basis
        for theta in (1.1, math.pi / 2 - 1e-3, math.pi / 2 - 1e-5):
            _assert_objective_matches_engine(theta, 0.0)

    def test_noisy_objective_matches_engine(self):
        # under noise the spinor route runs the noisy frame on Bloch vectors
        _assert_objective_matches_engine(1.1, 0.3)

    @pytest.mark.parametrize("theta", [1.2, math.pi / 2 - 1e-5])
    @pytest.mark.parametrize("seed", range(6))
    def test_pure_argmax_reevaluates_exactly(self, theta, seed):
        # the reported maximum is the engine's K3 at the argmax, bit for bit.
        # At delta = 1e-5 this pins consistency, not accuracy: how far the
        # engine's float sits from the exact K3 there is still open
        res = maximize_k3(theta, budget=2000, seed=seed, config=SMALL)
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
        res = maximize_k3(1.2, budget=2000, config=SMALL, extra_starts=[x])
        s = math.sin(1.2)
        assert res.objective >= 1.0 + s + s * s - 1e-9

    @pytest.mark.parametrize("x", [
        (-3.0, 2.0, math.log(GAP_FLOOR), math.log(GAP_FLOOR)),
        (0.0, 0.0, math.log(TIME_WINDOW), math.log(TIME_WINDOW)),
        (math.pi, math.pi, math.log(TIME_WINDOW), math.log(GAP_FLOOR)),
        (-0.5, 1.0, math.log(GAP_FLOOR), math.log(TIME_WINDOW)),
    ])
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

    def test_times_stay_in_window(self):
        res = maximize_k3(1.2, budget=2000, seed=4, config=SMALL)
        am = res.argmax
        assert 0.0 <= am["t1"] < am["t2"] < am["t3"] <= math.pi + 1e-9

    def test_result_serialises(self):
        res = maximize_k3(0.5, budget=2000, seed=0, config=SMALL)
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
            maximize_k3(0.5, budget=100, seed=0, config=SMALL)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            maximize_k3(math.pi / 2, budget=2000, config=SMALL)
        with pytest.raises(ValueError):
            maximize_k3(0.5, kappa=-1.0, budget=2000, config=SMALL)


class TestMaximizeSpeed:
    @pytest.mark.parametrize("theta", [*DEFAULT_THETA_GRID, 0.8])
    def test_reaches_half_period_peak(self, theta):
        # over the states alone the search finds the closed-form peak, and
        # the speed is exact, so it cannot overshoot it either
        s = math.sin(theta)
        target = (1.0 + s) / (1.0 - s)
        res = maximize_speed(theta, budget=2000, seed=0, config=SMALL)
        assert res.objective == pytest.approx(target, rel=1e-12, abs=0.0)
        assert res.kind == "speed"

    def test_objective_matches_speed(self):
        # the search and the validated public route call the same kernels, so
        # at the canonical start and at the argmax they agree exactly
        theta = 1.2
        res = maximize_speed(theta, budget=2000, seed=3, config=SMALL)
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
        a = maximize_speed(1.0, budget=2000, seed=5, config=SMALL)
        b = maximize_speed(1.0, budget=2000, seed=5, config=SMALL)
        assert a.objective == b.objective
        assert a.argmax == b.argmax


class TestNoiseSeries:
    def test_small_grid(self):
        grid = (0.0, 0.5)
        results = k3max_vs_noise(0.9, kappa_grid=grid, budget=2000, seed=0, config=SMALL)
        assert [r.kappa for r in results] == list(grid)
        s = math.sin(0.9)
        assert results[0].objective >= 1.0 + s + s * s - 1e-9
        # depolarisation can only lower the reachable maximum
        assert results[1].objective <= results[0].objective + 1e-6

    def test_deterministic(self):
        grid = (0.0, 0.2)
        a = k3max_vs_noise(0.7, kappa_grid=grid, budget=2000, seed=11, config=SMALL)
        b = k3max_vs_noise(0.7, kappa_grid=grid, budget=2000, seed=11, config=SMALL)
        assert [r.objective for r in a] == [r.objective for r in b]
        assert [r.evals for r in a] == [r.evals for r in b]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_stronger_noise_never_beats_weaker(self, seed):
        # near the corner the optimum sits at gaps of order 1e-3, which the
        # log-gap search reaches, but at this small budget a search can still
        # stop short of it (without the retry, the series rises somewhere for
        # 6 of seeds 0-11); such a kappa is searched again from the next
        # kappa's argmax
        grid = (1e-5, 1e-4, 1e-3)
        results = k3max_vs_noise(
            math.pi / 2 - 1e-3, kappa_grid=grid, budget=2000, seed=seed, config=SMALL
        )
        values = [r.objective for r in results]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), values

    def test_corner_argmax_reevaluates(self):
        # at the corner the lift has cond(V) of about 4e6, so the scan and the
        # engine must build the Bloch vector and the axis with the same
        # kernels for an argmax to re-evaluate to 1e-12
        theta = math.pi / 2 - 1e-3
        results = k3max_vs_noise(
            theta, (1e-5, 1e-4, 1e-3), budget=2000, seed=7, config=SMALL
        )
        for res in results:
            assert _engine_k3(theta, res) == pytest.approx(res.objective, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_corner_argmax_reevaluates_exactly(self, seed):
        # the search builds the state's Bloch vector from its spinor, as the
        # engine does, so the re-evaluation is bit for bit; built from the
        # Bloch angles it differs in the last ulp, which moved K3 by up to
        # 4.4e-16 in half of these argmaxes
        theta = math.pi / 2 - 1e-3
        results = k3max_vs_noise(
            theta, (1e-5, 1e-4, 1e-3), budget=2000, seed=seed, config=SMALL
        )
        for res in results:
            assert _engine_k3(theta, res) == res.objective

    def test_corner_series_reaches_the_60_digit_level(self):
        # at delta = 1e-3 a 60-digit lift puts the maxima near 2.9834919,
        # 2.9388207 and 2.5802234; each reported argmax re-evaluates in 60
        # digits to the reported value, which the engine reads up to 5.3e-9
        # high at kappa = 1e-5
        pytest.importorskip("mpmath")
        theta = math.pi / 2 - 1e-3
        h = NHHamiltonian.canonical(theta)
        results = k3max_vs_noise(theta, (1e-5, 1e-3, 1.0), budget=20000, seed=0)
        assert results[0].objective >= 2.98
        for res in results:
            am = res.argmax
            rho0 = projector(state_from_bloch_angles(am["theta_s"], am["phi_s"]))
            axis = Observable.from_angles(am["theta_q"], am["phi_q"]).direction
            tables = noisy_protocol_tables(
                h.matrix, res.kappa, rho0, axis, (am["t1"], am["t2"], am["t3"]), dps=60
            )
            c12, c23, c13 = (p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1] for p in tables)
            assert abs(c12 + c23 - c13 - res.objective) <= 1e-8

    def test_grid_validation(self):
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(), budget=2000, config=SMALL)
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(0.0, -1.0), budget=2000, config=SMALL)
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(0.0, math.inf), budget=2000, config=SMALL)


class TestPlane:
    """The y-z great circle with ``t1 = 0`` loses nothing: the seven-coordinate
    reference objective, searched from the planar argmax, gains at most
    rounding."""

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
        objective = _k3_objective(theta, kappa)
        out = minimize(lambda x: -objective(x), x0, lower, upper,
                       maxfev=40_000, xatol=1e-8, fatol=1e-8)
        assert -out.fun - res.objective <= 1e-9
