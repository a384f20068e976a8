"""The in-house Dormand-Prince run against scipy's RK45, its reference.

``nhlgi.dynamics._rk45`` repeats scipy's ``RK45`` (tableau, dense output,
initial step, step control, error norm) on plain scalars; its one caller is
``integrate_bloch``.  Each test records the runs a public call makes and
repeats them with ``solve_ivp`` on the same right-hand side: the same number
of right-hand sides and the same values to 1e-12.  scipy is a test-only dependency, imported inside the tests.
"""

import math

import numpy as np
import pytest

import nhlgi.dynamics
from nhlgi.cli import _time_grid
from nhlgi.dynamics import NHHamiltonian, bloch_of_pure, integrate_bloch, up_y
from oracles import pure_bloch_trajectory

# ``nhlgi trajectory``'s default grid: 0 to pi in steps of 0.01
CLI_GRID = _time_grid(math.pi, 0.01)


def _recorded_runs(monkeypatch, call):
    """``(fun, y0, times, rtol, atol, states, evals)`` of each ``_rk45`` run of
    ``call()``, with the states it returned and the right-hand sides it spent."""
    real_rk45 = nhlgi.dynamics._rk45
    runs = []

    def recording(fun, y0, times, rtol, atol):
        evals = 0

        def counted(t, y):
            nonlocal evals
            evals += 1
            return fun(t, y)

        states = real_rk45(counted, y0, times, rtol, atol)
        runs.append((fun, y0, times, rtol, atol, np.array(states), evals))
        return states

    monkeypatch.setattr(nhlgi.dynamics, "_rk45", recording)
    call()
    return runs


def _scipy_rk45(fun, y0, times, rtol, atol):
    """scipy's RK45 on the same problem: the states at ``times`` and its count."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: np.array(fun(t, y.tolist())), (0.0, times[-1]), np.array(y0),
        method="RK45", t_eval=times, rtol=rtol, atol=atol,
    )
    assert sol.success, sol.message
    return sol.y.T, sol.nfev


def _assert_repeats_scipy(run):
    fun, y0, times, rtol, atol, states, evals = run
    want, nfev = _scipy_rk45(fun, y0, times, rtol, atol)
    assert evals == nfev
    np.testing.assert_allclose(states, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("theta", [0.3, 0.9, 1.2])
def test_bloch_flow_repeats_scipy(theta, kappa, monkeypatch):
    h = NHHamiltonian.canonical(theta)
    (run,) = _recorded_runs(
        monkeypatch,
        lambda: integrate_bloch(bloch_of_pure(up_y()), h, kappa=kappa, t_grid=CLI_GRID),
    )
    _assert_repeats_scipy(run)


def test_corner_error_is_scipys(monkeypatch):
    # At delta = 1e-3 both integrators are about 6e-4 off the exact flow on
    # the CLI grid (at t = 1.57, where the state turns fastest); the in-house
    # run is no further off than scipy's.
    h = NHHamiltonian.canonical(math.pi / 2 - 1e-3)
    (run,) = _recorded_runs(
        monkeypatch, lambda: integrate_bloch(bloch_of_pure(up_y()), h, t_grid=CLI_GRID)
    )
    fun, y0, times, rtol, atol, states, _ = run
    exact = pure_bloch_trajectory(h.matrix, up_y(), CLI_GRID)
    ours = float(np.max(np.abs(states - exact)))
    theirs = float(np.max(np.abs(_scipy_rk45(fun, y0, times, rtol, atol)[0] - exact)))
    assert ours <= 2.0 * theirs
