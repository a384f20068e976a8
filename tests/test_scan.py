import json
import math

import numpy as np
import pytest

from nhlgi.dynamics import NHHamiltonian, speed, state_from_bloch_angles
from nhlgi.lgi import CorrelatorEngine, Observable
from nhlgi.scan import (
    DEFAULT_KAPPA_GRID,
    DEFAULT_THETA_GRID,
    ScanConfig,
    ScanConfigError,
    ScanResult,
    k3max_vs_noise,
    maximize_k3,
    maximize_speed,
)
from nhlgi.scan import (
    _CANONICAL_K3_START,
    _CANONICAL_SPEED_START,
    _k3_objective,
    _latin_hypercube,
    _speed_objective,
    _start_from_argmax,
)

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


def _assert_objective_matches_engine(theta, kappa):
    """At the canonical start and at the argmax, the scan objective equals
    ``engine.k3`` on the validated state and observable."""
    res = maximize_k3(theta, kappa=kappa, budget=2000, seed=2, config=SMALL)
    objective = _k3_objective(theta, kappa)
    engine = CorrelatorEngine(NHHamiltonian.canonical(theta), kappa)
    for x in (np.array(_CANONICAL_K3_START), _start_from_argmax(res.argmax)):
        value, feasible = objective(x)
        t1 = x[4]
        expected = engine.k3(
            state_from_bloch_angles(x[0], x[1]),
            Observable.from_angles(x[2], x[3]),
            t1,
            t1 + x[5],
            t1 + x[5] + x[6],
        ).k3
        assert feasible
        assert value == pytest.approx(expected, abs=1e-12)
    assert objective(_start_from_argmax(res.argmax))[0] == pytest.approx(
        res.objective, abs=1e-12
    )


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
        am = res.argmax
        engine = CorrelatorEngine(NHHamiltonian.canonical(1.1), res.kappa)
        value = engine.k3(
            state_from_bloch_angles(am["theta_s"], am["phi_s"]),
            Observable.from_angles(am["theta_q"], am["phi_q"]),
            am["t1"],
            am["t2"],
            am["t3"],
        ).k3
        assert value == pytest.approx(res.objective, abs=1e-12)

    def test_pure_objective_matches_engine(self):
        # at kappa = 0 the scan evaluates the protocol kernel on spinors
        _assert_objective_matches_engine(1.1, 0.0)

    def test_noisy_objective_matches_engine(self):
        # under noise the scan evaluates the protocol kernel on Bloch vectors
        _assert_objective_matches_engine(1.1, 0.3)

    @pytest.mark.filterwarnings("error")
    def test_warm_start_below_gap_floor_is_clipped(self):
        # an argmax rebuilt as t3 - t2 can land an ulp under the gap floor;
        # the start must be clipped into the bounds, not handed to scipy
        x = np.array(_CANONICAL_K3_START)
        x[6] = SMALL.gap_floor * (1.0 - 1e-12)
        res = maximize_k3(1.2, budget=2000, config=SMALL, extra_starts=[x])
        s = math.sin(1.2)
        assert res.objective >= 1.0 + s + s * s - 1e-9

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
    @pytest.mark.parametrize("theta", [0.0, 0.8])
    def test_reaches_half_period_peak(self, theta):
        s = math.sin(theta)
        target = (1.0 + s) / (1.0 - s)
        res = maximize_speed(theta, budget=2000, seed=0, config=SMALL)
        # the speed is exact, so the search cannot overshoot the closed form
        assert res.objective >= target - 1e-4
        assert res.objective <= target * (1.0 + 1e-12)
        assert res.kind == "speed"

    def test_objective_matches_speed(self):
        # the search evaluates the speed on plain scalars; at the canonical
        # start and at the argmax it must equal the validated public route
        theta = 1.2
        res = maximize_speed(theta, budget=2000, seed=3, config=SMALL)
        objective = _speed_objective(theta)
        h = NHHamiltonian.canonical(theta)
        argmax = (res.argmax["theta_s"], res.argmax["phi_s"], res.argmax["t"])
        for x in (_CANONICAL_SPEED_START, argmax):
            value, feasible = objective(np.array(x))
            expected = speed(h, state_from_bloch_angles(x[0], x[1]), x[2])
            assert feasible
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert objective(np.array(argmax))[0] == res.objective

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
        # near the corner the optimum sits at times of order 1e-4; a search
        # that misses it is searched again from the next kappa's argmax
        grid = (1e-5, 1e-4, 1e-3)
        results = k3max_vs_noise(
            math.pi / 2 - 1e-3, kappa_grid=grid, budget=2000, seed=seed, config=SMALL
        )
        values = [r.objective for r in results]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), values

    def test_grid_validation(self):
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(), budget=2000, config=SMALL)
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(0.0, -1.0), budget=2000, config=SMALL)
        with pytest.raises(ScanConfigError):
            k3max_vs_noise(0.9, kappa_grid=(0.0, math.inf), budget=2000, config=SMALL)
