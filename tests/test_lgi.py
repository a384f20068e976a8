import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlgi.dynamics import (
    THETA_MAX,
    DegenerateEvolutionError,
    NHHamiltonian,
    density_from_bloch,
    evolve_density_noisy,
    projector,
    state_from_bloch_angles,
    up_y,
)
from nhlgi.lgi import (
    ALGEBRAIC_BOUND,
    LUDER_BOUND,
    CorrelatorEngine,
    JointTable,
    LgiResult,
    Observable,
    _bloch_born,
    _density_propagator,
    _pure_born,
    k3_closed_form,
    protocol,
    pure_propagator,
)
from oracles import axis_eigenstates, noisy_two_time_joint, two_time_joint

THETAS = [0.0, math.pi / 6, 1.0, 1.4]


def random_pure(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


class TestObservable:
    def test_canonical_axis(self):
        q = Observable.canonical()
        assert q.direction == (0.0, -1.0, 0.0)
        np.testing.assert_allclose(q.operator @ up_y(), up_y(), atol=1e-14)

    def test_eigen_decomposition(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            q = Observable.from_angles(
                rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            )
            op = q.operator
            np.testing.assert_allclose(op, op.conj().T, atol=1e-14)
            chi_p, chi_m = q.eigenstates
            np.testing.assert_allclose(op @ chi_p, chi_p, atol=1e-12)
            np.testing.assert_allclose(op @ chi_m, -chi_m, atol=1e-12)
            assert abs(np.vdot(chi_p, chi_m)) < 1e-12

    def test_projectors(self):
        q = Observable.from_angles(0.7, 2.1)
        p_plus, p_minus = q.projectors
        np.testing.assert_allclose(p_plus + p_minus, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(p_plus @ p_minus, 0.0, atol=1e-14)
        np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=1e-14)
        np.testing.assert_allclose(q.projector(+1), p_plus, atol=1e-15)
        np.testing.assert_allclose(q.projector(-1), p_minus, atol=1e-15)
        np.testing.assert_allclose(
            projector(q.eigenstate(+1)), p_plus, atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Observable((0.0, -2.0, 0.0))
        with pytest.raises(ValueError):
            Observable((1.0, 1.0))
        with pytest.raises(ValueError):
            Observable.canonical().projector(0)
        with pytest.raises(ValueError):
            Observable.canonical().eigenstate(2)


class TestJointTable:
    def test_correlator_formula(self):
        tab = JointTable(np.array([[0.4, 0.1], [0.2, 0.3]]), 0.0, 1.0)
        assert tab.correlator == pytest.approx(0.4 - 0.1 - 0.2 + 0.3, abs=1e-15)
        assert tab.prob(+1, -1) == pytest.approx(0.1, abs=1e-15)
        assert tab.prob(-1, +1) == pytest.approx(0.2, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            JointTable(np.array([[0.5, 0.1], [0.2, 0.3]]), 0.0, 1.0)  # sum 1.1
        with pytest.raises(ValueError):
            JointTable(np.array([[0.6, -0.1], [0.2, 0.3]]), 0.0, 1.0)
        with pytest.raises(ValueError):
            JointTable(np.ones(4) / 4.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            JointTable(np.array([[np.nan, 0.5], [0.25, 0.25]]), 0.0, 1.0)


class TestLgiResult:
    def _tables(self):
        tab = JointTable(np.full((2, 2), 0.25), 0.0, 1.0)
        return dict(table12=tab, table23=tab, table13=tab, times=(0.0, 1.0, 2.0), kappa=0.0)

    def test_identity_enforced(self):
        with pytest.raises(ValueError):
            LgiResult(c12=0.5, c23=0.5, c13=0.0, k3=0.7, **self._tables())

    def test_algebraic_range_enforced(self):
        with pytest.raises(ValueError):
            LgiResult(c12=2.0, c23=2.0, c13=-2.0, k3=6.0, **self._tables())

    def test_non_finite_k3_rejected(self):
        with pytest.raises(ValueError):
            LgiResult(c12=math.nan, c23=0.0, c13=0.0, k3=math.nan, **self._tables())


class TestProtocolAgainstOracle:
    """Branch-enumeration oracle with its own propagator and eigenbasis."""

    def test_joint_tables(self):
        rng = np.random.default_rng(43)
        engine_cache = {}
        for _ in range(250):
            theta = rng.uniform(0.0, 1.5)
            h = engine_cache.setdefault(theta, NHHamiltonian.canonical(theta))
            psi = random_pure(rng)
            q = Observable.from_angles(
                rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            )
            t_i = rng.uniform(0.0, 1.5)
            t_j = t_i + rng.uniform(1e-3, 1.5)
            got = CorrelatorEngine(h).joint_table(psi, q, t_i, t_j)
            expected = two_time_joint(h.matrix, psi, q.direction, t_i, t_j)
            np.testing.assert_allclose(got.probs, expected, atol=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi / 2 - 1e-3),
        angles=st.tuples(
            st.floats(0.0, math.pi),
            st.floats(0.0, 2.0 * math.pi),
            st.floats(0.0, math.pi),
            st.floats(0.0, 2.0 * math.pi),
        ),
        times=st.tuples(
            st.floats(0.0, 1.5), st.floats(1e-3, 1.5), st.floats(1e-3, 1.5)
        ),
    )
    def test_kernel_tables(self, theta, angles, times):
        theta_s, phi_s, theta_q, phi_q = angles
        h = NHHamiltonian.canonical(theta)
        psi = state_from_bloch_angles(theta_s, phi_s)
        direction = (
            math.sin(theta_q) * math.cos(phi_q),
            math.sin(theta_q) * math.sin(phi_q),
            math.cos(theta_q),
        )
        chi = tuple(tuple(e.tolist()) for e in axis_eigenstates(direction))
        t1 = times[0]
        t2 = t1 + times[1]
        t3 = t2 + times[2]
        out = protocol(
            tuple(psi.tolist()), chi, pure_propagator(h), _pure_born, t1, t2, t3
        )
        # Both routes lose about sec(theta)^2 ulps to the cancellation in the
        # renormalised propagator near the corner (measured error / sec^2
        # stays below 1e-13), so the per-entry tolerance scales with it.
        tol = 1e-12 / math.cos(theta) ** 2
        for table, (t_i, t_j) in zip(out[3:], ((t1, t2), (t2, t3), (t1, t3))):
            expected = two_time_joint(h.matrix, psi, direction, t_i, t_j)
            np.testing.assert_allclose(np.array(table), expected, rtol=0.0, atol=tol)
        for c, table in zip(out[:3], out[3:]):
            assert c == JointTable(table, 0.0, 1.0).correlator

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi / 2 - 1e-2),
        log_kappa=st.floats(-6.0, 3.0),
        state=st.tuples(
            st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0)
        ),
        axis=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
        times=st.tuples(
            st.floats(0.0, 1.5), st.floats(1e-3, 1.5), st.floats(1e-3, 1.5)
        ),
    )
    def test_noisy_kernel_tables(self, theta, log_kappa, state, axis, times):
        theta_s, phi_s, length = state
        kappa = 10.0**log_kappa
        h = NHHamiltonian.canonical(theta)
        r = tuple(
            length * c
            for c in (
                math.sin(theta_s) * math.cos(phi_s),
                math.sin(theta_s) * math.sin(phi_s),
                math.cos(theta_s),
            )
        )
        n = (
            math.sin(axis[0]) * math.cos(axis[1]),
            math.sin(axis[0]) * math.sin(axis[1]),
            math.cos(axis[0]),
        )
        t1 = times[0]
        t2 = t1 + times[1]
        t3 = t2 + times[2]
        out = protocol(
            r, (n, (-n[0], -n[1], -n[2])), _density_propagator(h, kappa), _bloch_born,
            t1, t2, t3,
        )
        rho0 = density_from_bloch(0.5 * np.array(r))
        # Against a 40-digit evaluation of the lift, the kernel's tables were
        # within 1.8e-15 sec^2(theta) and the stepped Taylor oracle's within
        # 8.3e-14 sec^2(theta) (1200 tables, theta up to pi/2 - 1e-2, where
        # the oracle is off by up to 2.9e-11); the oracle sets the tolerance.
        tol = 1e-12 / math.cos(theta) ** 2
        for table, (t_i, t_j) in zip(out[3:], ((t1, t2), (t2, t3), (t1, t3))):
            expected = noisy_two_time_joint(h.matrix, kappa, rho0, n, t_i, t_j)
            np.testing.assert_allclose(np.array(table), expected, rtol=0.0, atol=tol)
        for c, table in zip(out[:3], out[3:]):
            assert c == JointTable(table, 0.0, 1.0).correlator

    def test_pure_and_density_paths_agree(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            h = NHHamiltonian.canonical(rng.uniform(0.0, 1.4))
            engine = CorrelatorEngine(h)
            psi = random_pure(rng)
            q = Observable.from_angles(
                rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            )
            t_i, t_j = 0.4, 1.3
            pure = engine.joint_table(psi, q, t_i, t_j)
            dens = engine.joint_table(projector(psi), q, t_i, t_j)
            np.testing.assert_allclose(dens.probs, pure.probs, atol=1e-10)


class TestQuarterSpacing:
    """Equal spacing pi/4 with the canonical configuration."""

    @pytest.mark.parametrize("theta", THETAS)
    def test_first_table(self, theta):
        h = NHHamiltonian.canonical(theta)
        s = math.sin(theta)
        tab = CorrelatorEngine(h).joint_table(
            up_y(), Observable.canonical(), 0.0, math.pi / 4
        )
        expected = np.array([[(1.0 + s) / 2.0, (1.0 - s) / 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(tab.probs, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_antipodal_table(self, theta):
        h = NHHamiltonian.canonical(theta)
        tab = CorrelatorEngine(h).joint_table(
            up_y(), Observable.canonical(), 0.0, math.pi / 2
        )
        expected = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(tab.probs, expected, atol=1e-10)
        assert tab.correlator == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("theta", THETAS)
    def test_second_table(self, theta):
        h = NHHamiltonian.canonical(theta)
        s = math.sin(theta)
        tab = CorrelatorEngine(h).joint_table(
            up_y(), Observable.canonical(), math.pi / 4, math.pi / 2
        )
        expected = 0.25 * np.array(
            [
                [(1.0 + s) ** 2, 1.0 - s * s],
                [1.0 - s * s, (1.0 - s) ** 2],
            ]
        )
        np.testing.assert_allclose(tab.probs, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_k3_value(self, theta):
        h = NHHamiltonian.canonical(theta)
        s = math.sin(theta)
        res = CorrelatorEngine(h).k3(
            up_y(), Observable.canonical(), 0.0, math.pi / 4, math.pi / 2
        )
        assert res.k3 == pytest.approx(1.0 + s + s * s, abs=1e-12)
        assert res.c13 == pytest.approx(-1.0, abs=1e-10)


class TestClosedForm:
    @pytest.mark.parametrize("theta", [0.0, 0.4, 0.9, 1.3, math.pi / 2 - 1e-3])
    def test_matches_protocol(self, theta):
        h = NHHamiltonian.canonical(theta)
        engine = CorrelatorEngine(h)
        for t in np.linspace(0.05, math.pi / 2, 9):
            res = engine.k3(up_y(), Observable.canonical(), 0.0, t, 2.0 * t)
            c12, c23, c13, k3_val = k3_closed_form(theta, t)
            assert res.c12 == pytest.approx(c12, abs=1e-10)
            assert res.c23 == pytest.approx(c23, abs=1e-10)
            assert res.c13 == pytest.approx(c13, abs=1e-10)
            assert res.k3 == pytest.approx(k3_val, abs=1e-10)

    def test_hermitian_limit_is_precession(self):
        # theta = 0: C(t) = cos 2t, stationary two-time statistics
        for t in np.linspace(0.05, math.pi / 2, 11):
            c12, c23, c13, k3_val = k3_closed_form(0.0, t)
            assert c12 == pytest.approx(math.cos(2.0 * t), abs=1e-13)
            assert c23 == pytest.approx(math.cos(2.0 * t), abs=1e-13)
            assert c13 == pytest.approx(math.cos(4.0 * t), abs=1e-13)
            assert k3_val == pytest.approx(
                2.0 * math.cos(2.0 * t) - math.cos(4.0 * t), abs=1e-13
            )

    def test_hermitian_peak_is_luder(self):
        best = max(k3_closed_form(0.0, t)[3] for t in np.linspace(0.01, 1.5, 2000))
        assert best == pytest.approx(LUDER_BOUND, abs=1e-6)
        assert k3_closed_form(0.0, math.pi / 6)[3] == pytest.approx(1.5, abs=1e-12)

    def test_approaches_algebraic_bound(self):
        _, _, _, k3_val = k3_closed_form(math.pi / 2 - 1e-4, math.pi / 4)
        assert k3_val > 2.999
        assert k3_val < ALGEBRAIC_BOUND

    def test_domain(self):
        with pytest.raises(ValueError):
            k3_closed_form(-0.1, 0.4)
        with pytest.raises(ValueError):
            k3_closed_form(math.pi / 2, 0.4)
        with pytest.raises(ValueError):
            k3_closed_form(0.3, 0.0)
        with pytest.raises(ValueError):
            k3_closed_form(0.3, 2.0)


class TestLuderBoundUnderHermitianDynamics:
    def test_random_configurations(self):
        # invasive protocol with unitary dynamics never beats 1.5
        h = NHHamiltonian.canonical(0.0)
        engine = CorrelatorEngine(h)
        rng = np.random.default_rng(53)
        worst = -np.inf
        for _ in range(2000):
            psi = random_pure(rng)
            q = Observable.from_angles(
                rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            )
            t1 = rng.uniform(0.0, 1.0)
            t2 = t1 + rng.uniform(1e-3, 1.5)
            t3 = t2 + rng.uniform(1e-3, 1.5)
            worst = max(worst, engine.k3(psi, q, t1, t2, t3).k3)
        assert worst <= LUDER_BOUND + 1e-9


class TestNoisyProtocol:
    @pytest.mark.parametrize("theta", [0.0, 0.9, 1.4])
    @pytest.mark.parametrize("kappa", [1e-4, 0.3, 20.0])
    def test_against_direct_integration(self, theta, kappa):
        # same protocol rebuilt on the adaptive integrator instead of the
        # lifted propagator
        h = NHHamiltonian.canonical(theta)
        engine = CorrelatorEngine(h, kappa=kappa)
        q = Observable.from_angles(1.1, 0.6)
        rho0 = projector(state_from_bloch_angles(0.8, 2.5))
        t_i, t_j = 0.4, 1.7
        got = engine.joint_table(rho0, q, t_i, t_j)

        rho_i = evolve_density_noisy(h, rho0, kappa, t_i)
        probs = np.empty((2, 2))
        for row, outcome in enumerate((+1, -1)):
            p = q.projector(outcome)
            weight = float(np.trace(p @ rho_i).real)
            branch = p @ rho_i @ p / weight
            rho_j = evolve_density_noisy(h, branch, kappa, t_j - t_i)
            cond = float(np.trace(q.projector(+1) @ rho_j).real)
            probs[row, 0] = weight * cond
            probs[row, 1] = weight * (1.0 - cond)
        np.testing.assert_allclose(got.probs, probs, atol=1e-7)

    @pytest.mark.parametrize("theta", [math.pi / 2 - 1e-4, THETA_MAX])
    def test_corner_is_accurate_or_refused(self, theta):
        # faint noise at the corner: the lift is nearly defective, and the
        # engine must return the exact lift's table or refuse with a typed
        # error, never a silently wrong (or NaN) table; at THETA_MAX it
        # refuses (see the CLI test), at pi/2 - 1e-4 it is accurate
        mpmath = pytest.importorskip("mpmath")
        h = NHHamiltonian.canonical(theta)
        q = Observable.from_angles(1.1, 0.6)
        rho0 = projector(state_from_bloch_angles(0.8, 2.5))
        t_i, t_j, kappa = 0.4, 1.7, 1e-9
        try:
            got = CorrelatorEngine(h, kappa=kappa).joint_table(rho0, q, t_i, t_j)
        except DegenerateEvolutionError:
            return
        expected = _lift_joint_reference(mpmath, h, kappa, rho0, q, t_i, t_j)
        np.testing.assert_allclose(got.probs, expected, rtol=0.0, atol=1e-10)

    def test_weak_noise_limit(self):
        h = NHHamiltonian.canonical(1.2)
        q = Observable.canonical()
        clean = CorrelatorEngine(h).k3(up_y(), q, 0.0, 0.8, 1.6)
        faint = CorrelatorEngine(h, kappa=1e-9).k3(up_y(), q, 0.0, 0.8, 1.6)
        assert faint.k3 == pytest.approx(clean.k3, abs=1e-6)

    def test_strong_noise_washes_out_violations(self):
        h = NHHamiltonian.canonical(1.2)
        engine = CorrelatorEngine(h, kappa=50.0)
        rng = np.random.default_rng(59)
        for _ in range(200):
            psi = random_pure(rng)
            q = Observable.from_angles(
                rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            )
            t1 = rng.uniform(0.0, 1.0)
            t2 = t1 + rng.uniform(0.05, 1.0)
            t3 = t2 + rng.uniform(0.05, 1.0)
            res = engine.k3(psi, q, t1, t2, t3)
            assert abs(res.k3) <= 1.0


def _lift_joint_reference(mpmath, h, kappa, rho0, q, t_i, t_j, dps=60):
    """Noisy joint table from the complex vec(rho) lift, exponentiated in mpmath."""
    with mpmath.workdps(dps):
        hm = mpmath.matrix(h.matrix.tolist())
        eye = mpmath.eye(2)
        lift = mpmath.zeros(4, 4)
        for i, j, k, m in np.ndindex(2, 2, 2, 2):
            # d rho_ij/dt = -i H_ik rho_kj + i rho_im conj(H_jm) + kappa (...)
            entry = -1j * hm[i, k] * eye[j, m] + 1j * eye[i, k] * mpmath.conj(hm[j, m])
            entry += kappa * (eye[i, j] * eye[k, m] - 2 * eye[i, k] * eye[j, m])
            lift[2 * i + j, 2 * k + m] += entry

        def propagate(rho, t):
            vec = mpmath.expm(lift * t) * mpmath.matrix(list(rho.reshape(-1)))
            return [x / (vec[0] + vec[3]) for x in vec]

        def born(p, vec):
            return mpmath.re(sum(p[j, i] * vec[2 * i + j] for i, j in np.ndindex(2, 2)))

        p_plus, p_minus = q.projectors
        rho_i = propagate(rho0, t_i)
        first = [born(p, rho_i) for p in (p_plus, p_minus)]
        probs = np.empty((2, 2))
        for row, p in enumerate((p_plus, p_minus)):
            cond = born(p_plus, propagate(p, t_j - t_i))
            weight = first[row] / (first[0] + first[1])
            probs[row] = float(weight * cond), float(weight * (1 - cond))
        return probs


class TestValidation:
    def test_time_ordering(self):
        h = NHHamiltonian.canonical(0.5)
        engine = CorrelatorEngine(h)
        q = Observable.canonical()
        with pytest.raises(ValueError):
            engine.joint_table(up_y(), q, -0.1, 0.5)
        with pytest.raises(ValueError):
            engine.joint_table(up_y(), q, 0.5, 0.5)
        with pytest.raises(ValueError):
            engine.k3(up_y(), q, 0.0, 0.5, 0.5)

    def test_engine_parameters(self):
        h = NHHamiltonian.canonical(0.5)
        with pytest.raises(ValueError):
            CorrelatorEngine(h, kappa=-0.1)
        with pytest.raises(ValueError):
            CorrelatorEngine(h).joint_table([1.0, 1.0], Observable.canonical(), 0.0, 1.0)
