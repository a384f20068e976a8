"""Executable acceptance criteria for the whole library.

Each criterion checks one externally meaningful contract, states its
tolerance explicitly, and reports a single PASS/FAIL line.  Expected values
are re-derived from closed forms or from an independent computational route,
never read back from the code under test.  ``run_all`` is wired to the
``nhlgi check`` subcommand and to the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NHHamiltonian,
    analytic_SB_Sn,
    bloch_of_pure,
    down_y,
    evolve_density_noisy,
    evolve_pure,
    geodesic_distance,
    geodesic_distance_closed_form,
    integrate_bloch,
    projector,
    propagated_norm,
    speed,
    speed_closed_form,
    state_from_bloch_angles,
    up_y,
)
from .embedding import build_psi_T, evolve_and_postselect, k3_via_embedding, theta_from_delta
from .lgi import CorrelatorEngine, Observable, k3_closed_form
from .qmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, trace_distance
from .scan import (
    DEFAULT_NOISE_BUDGET,
    DEFAULT_THETA_GRID,
    ScanResult,
    k3max_vs_noise,
    maximize_family,
)

__all__ = [
    "ACCEPTANCE_THETAS",
    "CriterionResult",
    "run_all",
    "CRITERIA",
]

# Family members from the Hermitian limit to just below the degenerate
# corner; the last member stresses the strong-amplification regime.
ACCEPTANCE_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, 1.4, math.pi / 2 - 1e-3)

DEFAULT_SCAN_BUDGET = 60_000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> CriterionResult:
    """Protocol K3 at quarter-period spacing equals 1 + sin(theta) + sin^2(theta),
    as :func:`nhlgi.lgi.k3_closed_form` gives it at ``t = pi/4``."""
    tol = 1e-8
    q = Observable.canonical()
    psi0 = up_y()
    worst = 0.0
    for theta in ACCEPTANCE_THETAS:
        engine = CorrelatorEngine(NHHamiltonian.canonical(theta))
        res = engine.k3(psi0, q, 0.0, math.pi / 4, math.pi / 2)
        worst = max(worst, abs(res.k3 - k3_closed_form(theta, math.pi / 4)[3]))
    return CriterionResult(
        1,
        "quarter-period K3 matches 1 + sin + sin^2",
        worst <= tol,
        f"max|diff| = {worst:.3e} over {len(ACCEPTANCE_THETAS)} members (tol {tol:.0e})",
    )


def criterion_2() -> CriterionResult:
    """First-to-third correlator matches its closed form
    (:func:`nhlgi.lgi.k3_closed_form`) and pins to -1."""
    tol = 1e-8
    q = Observable.canonical()
    psi0 = up_y()
    thetas = np.linspace(0.0, math.pi / 2 - 1e-2, 20)
    ts = np.linspace(0.06, math.pi / 2, 20)
    worst_grid = 0.0
    worst_pin = 0.0
    for theta in thetas:
        engine = CorrelatorEngine(NHHamiltonian.canonical(float(theta)))
        for t in ts:
            closed = k3_closed_form(float(theta), float(t))[2]
            c13 = engine.correlator(psi0, q, 0.0, 2.0 * float(t))
            worst_grid = max(worst_grid, abs(c13 - closed))
        pin = engine.correlator(psi0, q, 0.0, math.pi / 2)
        worst_pin = max(worst_pin, abs(pin + 1.0))
    passed = worst_grid <= tol and worst_pin <= tol
    return CriterionResult(
        2,
        "C13 closed form on a 20x20 grid, pinned at -1 for quarter-period spacing",
        passed,
        f"max|grid diff| = {worst_grid:.3e}, max|C13 + 1| = {worst_pin:.3e} (tol {tol:.0e})",
    )


def criterion_3(family: tuple[list[ScanResult], list[ScanResult]]) -> CriterionResult:
    """Unconstrained K3 maximum: Lueder value at theta = 0, near-ceiling growth.

    ``family`` is the ``(k3_results, speed_results)`` pair of
    :func:`nhlgi.scan.maximize_family` on ``DEFAULT_THETA_GRID``.
    """
    tol_hermitian = 1e-3
    floor_strong = 2.98
    k3_results, _ = family
    val0 = k3_results[0].objective
    val_strong = k3_results[-1].objective
    passed = abs(val0 - 1.5) <= tol_hermitian and val_strong >= floor_strong
    return CriterionResult(
        3,
        "K3 maximisation reaches 1.5 at theta=0 and >= 2.98 near the corner",
        passed,
        f"max(0) = {val0:.6f} (|diff| <= {tol_hermitian}), "
        f"max({DEFAULT_THETA_GRID[-1]:.4f}) = {val_strong:.6f} (floor {floor_strong})",
    )


def criterion_4() -> CriterionResult:
    """Dilated-protocol K3 at the strong working point matches the direct value."""
    tol = 5e-3
    target = 2.985
    theta = theta_from_delta(0.1)
    res = k3_via_embedding(theta)
    passed = abs(res.k3 - target) <= tol
    return CriterionResult(
        4,
        "post-selected dilation reproduces K3 near the ceiling",
        passed,
        f"K3 = {res.k3:.6f} vs {target} (tol {tol})",
    )


def criterion_5() -> CriterionResult:
    """Dilated evolution equals the renormalised flow; selection weight identity."""
    tol_fid = 1e-10
    tol_weight = 1e-10
    states = (up_y(), state_from_bloch_angles(1.0, 0.7))
    worst_fid = 0.0
    worst_weight = 0.0
    for theta in (0.0, 0.5, 1.0, 1.4):
        h = NHHamiltonian.canonical(theta)
        for psi0 in states:
            n_t = build_psi_T(theta, psi0).n_t
            for t in np.linspace(0.0, math.pi, 26):
                direct = evolve_pure(h, psi0, float(t))
                emb, p_sel = evolve_and_postselect(theta, psi0, float(t))
                fid = abs(complex(np.vdot(direct, emb))) ** 2
                worst_fid = max(worst_fid, 1.0 - fid)
                norm = propagated_norm(h, psi0, float(t))
                worst_weight = max(worst_weight, abs(p_sel / norm**2 - n_t**2))
    passed = worst_fid <= tol_fid and worst_weight <= tol_weight
    return CriterionResult(
        5,
        "dilation equivalence and post-selection weight identity",
        passed,
        f"max(1 - fidelity) = {worst_fid:.3e}, max|weight defect| = {worst_weight:.3e} "
        f"(tol {tol_fid:.0e})",
    )


def criterion_6() -> CriterionResult:
    """Trajectory, geodesic-distance and speed closed forms."""
    tol_traj = 1e-6
    tol_geo = 1e-8
    tol_speed = 1e-4  # relative
    # trajectory components in the A-B-n frame
    h = NHHamiltonian.canonical(1.2)
    grid = np.linspace(0.0, math.pi, 201)
    traj = integrate_bloch(bloch_of_pure(up_y()), h, t_grid=grid)
    abn = traj.abn()
    sb_closed, sn_closed = analytic_SB_Sn(h.theta, grid)
    worst_traj = max(
        float(np.max(np.abs(np.abs(abn[:, 1]) - sb_closed))),
        float(np.max(np.abs(abn[:, 2] - sn_closed))),
    )
    # geodesic distance from the antipodal target
    worst_geo = 0.0
    target = down_y()
    for theta in (0.0, 0.7, 1.3, theta_from_delta(1e-6)):
        hh = NHHamiltonian.canonical(theta)
        closed = geodesic_distance_closed_form(theta, np.linspace(0.0, math.pi, 41))
        for t, d_closed in zip(np.linspace(0.0, math.pi, 41), np.atleast_1d(closed)):
            d_num = geodesic_distance(evolve_pure(hh, up_y(), float(t)), target)
            worst_geo = max(worst_geo, abs(d_num - float(d_closed)))
    # fidelity-decay coefficient
    worst_speed = 0.0
    for theta in (0.0, 0.5, 1.0, 1.4, theta_from_delta(1e-6)):
        hh = NHHamiltonian.canonical(theta)
        for t in np.linspace(0.0, math.pi, 25):
            v_num = speed(hh, up_y(), float(t))
            v_cf = float(speed_closed_form(theta, float(t)))
            worst_speed = max(worst_speed, abs(v_num - v_cf) / v_cf)
    passed = worst_traj <= tol_traj and worst_geo <= tol_geo and worst_speed <= tol_speed
    return CriterionResult(
        6,
        "closed forms: frame trajectory, geodesic distance, decay coefficient",
        passed,
        f"traj {worst_traj:.3e} (tol {tol_traj:.0e}), geo {worst_geo:.3e} "
        f"(tol {tol_geo:.0e}), speed rel {worst_speed:.3e} (tol {tol_speed:.0e})",
    )


def criterion_7() -> CriterionResult:
    """Conservation of |S|, invariance of S_A, and the pi period."""
    tol_norm = 1e-8
    tol_sa = 1e-8
    tol_period = 1e-6
    h = NHHamiltonian.canonical(1.2)
    grid = np.arange(0, 1001) * (math.pi / 100.0)
    traj = integrate_bloch(
        bloch_of_pure(up_y()), h, t_grid=grid, rtol=1e-12, atol=1e-14
    )
    radii = np.linalg.norm(traj.bloch, axis=1)
    drift = float(np.max(np.abs(radii - 0.5)))
    s_a = float(np.max(np.abs(traj.abn()[:, 0])))
    shift = 100  # grid step is pi/100, so one period is 100 samples
    period_defect = float(np.max(np.abs(traj.bloch[shift:] - traj.bloch[:-shift])))
    passed = drift <= tol_norm and s_a <= tol_sa and period_defect <= tol_period
    return CriterionResult(
        7,
        "norm conservation, invariant component, pi-periodic return",
        passed,
        f"|S| drift {drift:.3e} (tol {tol_norm:.0e}), S_A {s_a:.3e} (tol {tol_sa:.0e}), "
        f"period defect {period_defect:.3e} (tol {tol_period:.0e})",
    )


def criterion_8(budget: int | None = None, seed: int = 0) -> CriterionResult:
    """The noisy lift against RK45 on the Bloch flow; saturation of the series."""
    tol_flow = 1e-8
    tol_monotone = 1e-3
    saturation_cap = 1.01
    h = NHHamiltonian.canonical(0.9)
    rho0 = projector(up_y())
    times = (0.3, 0.9, 1.7, 2.8)
    worst_flow = 0.0
    for kappa in (0.0, 1e-3, 0.25, 10.0):
        traj = integrate_bloch(bloch_of_pure(up_y()), h, kappa, (0.0, *times))
        for t, (sx, sy, sz) in zip(times, traj.bloch[1:]):
            rk45 = 0.5 * ID2 + sx * SIGMA_X + sy * SIGMA_Y + sz * SIGMA_Z
            lift = evolve_density_noisy(h, rho0, kappa, t)
            worst_flow = max(worst_flow, float(np.max(np.abs(lift - rk45))))
    series = k3max_vs_noise(
        math.pi / 2 - 1e-3,
        budget=DEFAULT_NOISE_BUDGET if budget is None else budget,
        seed=seed,
    )
    values = np.array([r.objective for r in series])
    rise = float(np.max(np.diff(values))) if values.size > 1 else 0.0
    passed = (
        worst_flow <= tol_flow
        and rise <= tol_monotone
        and float(values[-1]) <= saturation_cap
    )
    return CriterionResult(
        8,
        "noisy lift meets RK45 on the Bloch flow; K3 max decays to the classical value",
        passed,
        f"lift vs RK45 {worst_flow:.3e} (tol {tol_flow:.0e}), max rise {rise:.3e} "
        f"(tol {tol_monotone:.0e}), first {values[0]:.4f}, "
        f"last {values[-1]:.4f} (cap {saturation_cap})",
    )


def criterion_9(family: tuple[list[ScanResult], list[ScanResult]]) -> CriterionResult:
    """K3 and speed maxima induce the same ordering of the family members
    (``family`` as in :func:`criterion_3`)."""
    k3_results, speed_results = family
    k3_vals = [r.objective for r in k3_results]
    v_vals = [r.objective for r in speed_results]
    rank_k3 = list(np.argsort(k3_vals))
    rank_v = list(np.argsort(v_vals))
    passed = rank_k3 == rank_v
    pairs = ", ".join(
        f"({t:.2f}: {k:.3f}/{v:.3f})" for t, k, v in zip(DEFAULT_THETA_GRID, k3_vals, v_vals)
    )
    return CriterionResult(
        9,
        "K3 maximum and speed maximum rank the family identically",
        passed,
        f"theta: K3max/vmax = {pairs}",
    )


def criterion_10(seed: int = 0) -> CriterionResult:
    """Trace distance between pure states equals the sine of the geodesic angle."""
    tol = 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi = raw[0] / np.linalg.norm(raw[0])
        phi = raw[1] / np.linalg.norm(raw[1])
        d_tr = trace_distance(projector(psi), projector(phi))
        angle = geodesic_distance(psi, phi)
        worst = max(worst, abs(d_tr - math.sin(angle)))
    return CriterionResult(
        10,
        "trace distance equals sin(geodesic angle) for pure states",
        worst <= tol,
        f"max|diff| = {worst:.3e} over 200 seeded pairs (tol {tol:.0e})",
    )


CRITERIA = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


def run_all(
    budget: int | None = None,
    seed: int = 0,
    stream=None,
    only=None,
) -> list[CriterionResult]:
    """Run the selected acceptance criteria, printing one line per criterion.

    ``budget`` caps the evaluation count of each underlying maximisation run
    (the family scan that criteria 3 and 9 share, and the noise series);
    ``None`` uses the module defaults.  ``only`` restricts to a subset of
    criterion numbers, each run once in the order given; an empty selection
    is refused.
    """
    stream = sys.stdout if stream is None else stream
    selected = tuple(CRITERIA) if only is None else tuple(dict.fromkeys(only))
    if not selected:
        raise ValueError("no criterion selected")
    for number in selected:
        if number not in CRITERIA:
            raise ValueError(f"unknown criterion number {number!r}")

    family = None
    if any(n in selected for n in (3, 9)):
        family = maximize_family(
            DEFAULT_THETA_GRID, DEFAULT_SCAN_BUDGET if budget is None else budget, seed
        )

    runners = {
        1: criterion_1,
        2: criterion_2,
        3: lambda: criterion_3(family),
        4: criterion_4,
        5: criterion_5,
        6: criterion_6,
        7: criterion_7,
        8: lambda: criterion_8(budget=budget, seed=seed),
        9: lambda: criterion_9(family),
        10: lambda: criterion_10(seed=seed),
    }
    results = []
    for number in selected:
        result = runners[number]()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(
            f"criterion {result.number:2d}: {status}  {result.name}  [{result.details}]",
            file=stream,
        )
        if hasattr(stream, "flush"):
            stream.flush()
    return results
