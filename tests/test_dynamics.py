import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhlgi.qmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, pauli_vector
from nhlgi.dynamics import (
    THETA_MAX,
    NHHamiltonian,
    StiffnessError,
    Trajectory,
    analytic_SB_Sn,
    abn_frame,
    bloch_of_density,
    bloch_of_pure,
    bloch_rhs,
    bloch_to_abn,
    density_from_bloch,
    down_y,
    down_z,
    evolve_density,
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
    up_z,
    validate_density,
    validate_pure,
)
from oracles import rk4, taylor_expm

THETAS = [0.0, math.pi / 6, 0.9, 1.2, 1.4]


class TestStates:
    def test_axis_states_orthonormal(self):
        for a, b in [(up_y(), down_y()), (up_z(), down_z())]:
            assert np.vdot(a, a) == pytest.approx(1.0, abs=1e-15)
            assert np.vdot(b, b) == pytest.approx(1.0, abs=1e-15)
            assert abs(np.vdot(a, b)) == pytest.approx(0.0, abs=1e-15)

    def test_y_states_are_sigma_y_eigenvectors(self):
        np.testing.assert_allclose(SIGMA_Y @ up_y(), -up_y(), atol=1e-15)
        np.testing.assert_allclose(SIGMA_Y @ down_y(), down_y(), atol=1e-15)

    def test_bloch_of_axis_states(self):
        np.testing.assert_allclose(bloch_of_pure(up_y()), [0.0, -0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(bloch_of_pure(down_y()), [0.0, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(bloch_of_pure(up_z()), [0.0, 0.0, 0.5], atol=1e-15)

    def test_angle_parameterisation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            th = rng.uniform(0.0, np.pi)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            # a global phase leaves the Bloch vector unchanged
            psi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * state_from_bloch_angles(th, ph)
            s = bloch_of_pure(psi)
            expected = 0.5 * np.array(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
            )
            np.testing.assert_allclose(s, expected, atol=1e-14)
            np.testing.assert_allclose(s, bloch_of_density(projector(psi)), atol=1e-15)

    def test_density_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = rng.normal(size=3)
            s = 0.5 * rng.uniform(0.0, 1.0) * s / np.linalg.norm(s)
            rho = density_from_bloch(s)
            validate_density(rho)
            np.testing.assert_allclose(bloch_of_density(rho), s, atol=1e-14)

    def test_projector(self):
        p = projector(up_y())
        np.testing.assert_allclose(p @ p, p, atol=1e-15)
        np.testing.assert_allclose(p, density_from_bloch([0.0, -0.5, 0.0]), atol=1e-15)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            validate_pure([1.0, 1.0])
        with pytest.raises(ValueError):
            validate_pure([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            validate_density(np.eye(2) * 0.7)
        with pytest.raises(ValueError):
            density_from_bloch([0.7, 0.0, 0.0])


class TestHamiltonian:
    @pytest.mark.parametrize("theta", THETAS)
    def test_canonical_matrix(self, theta):
        h = NHHamiltonian.canonical(theta)
        expected = SIGMA_X / math.cos(theta) + 1j * math.tan(theta) * SIGMA_Z
        np.testing.assert_allclose(h.matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("theta", THETAS)
    def test_unit_gap(self, theta):
        h = NHHamiltonian.canonical(theta)
        assert h.omega == pytest.approx(1.0, abs=1e-12)
        assert h.period == pytest.approx(math.pi, abs=1e-12)
        # H^2 = omega^2 * Id despite H not being Hermitian
        np.testing.assert_allclose(h.matrix @ h.matrix, ID2, atol=1e-12)

    def test_real_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=3)
            b = np.cross(a, rng.normal(size=3))
            b *= rng.uniform(0.0, 0.95) * np.linalg.norm(a) / max(
                np.linalg.norm(b), 1e-12
            )
            h = NHHamiltonian(a=a, b=b, scale=rng.uniform(0.1, 3.0))
            eigs = np.linalg.eigvals(h.matrix)
            np.testing.assert_allclose(eigs.imag, 0.0, atol=1e-10)
            np.testing.assert_allclose(
                np.sort(eigs.real), [-h.omega, h.omega], atol=1e-10
            )

    def test_propagator_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(0.0, 1.45)
            h = NHHamiltonian.canonical(theta, scale=rng.uniform(0.5, 2.0))
            t = rng.uniform(-math.pi, math.pi)
            np.testing.assert_allclose(
                h.propagator(t), taylor_expm(-1j * h.matrix, t), atol=1e-11
            )

    def test_propagator_group_property(self):
        h = NHHamiltonian.canonical(1.1)
        np.testing.assert_allclose(
            h.propagator(0.4) @ h.propagator(0.9), h.propagator(1.3), atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NHHamiltonian(a=[1.0, 0.0, 0.0], b=[0.5, 0.0, 0.0])  # not orthogonal
        with pytest.raises(ValueError):
            NHHamiltonian(a=[1.0, 0.0, 0.0], b=[0.0, 2.0, 0.0])  # |b| >= |a|
        with pytest.raises(ValueError):
            NHHamiltonian(a=[1.0, 0.0, 0.0], b=[0.0, 0.5, 0.0], scale=-1.0)
        with pytest.raises(ValueError):
            NHHamiltonian.canonical(math.pi / 2)
        with pytest.raises(ValueError):
            NHHamiltonian.canonical(-0.1)
        assert THETA_MAX < math.pi / 2


class TestPureEvolution:
    def test_hermitian_limit_rabi(self):
        # theta = 0 is plain sigma_x precession: flip probability sin^2 t
        h = NHHamiltonian.canonical(0.0)
        for t in np.linspace(0.0, math.pi, 13):
            psi = evolve_pure(h, up_y(), t)
            assert abs(np.vdot(down_y(), psi)) ** 2 == pytest.approx(
                math.sin(t) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("theta", THETAS)
    def test_half_period_reaches_down_y(self, theta):
        h = NHHamiltonian.canonical(theta)
        psi = evolve_pure(h, up_y(), math.pi / 2)
        assert abs(np.vdot(down_y(), psi)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_propagated_norm_closed_form(self, theta):
        h = NHHamiltonian.canonical(theta)
        s = math.sin(theta)
        for t in np.linspace(0.0, math.pi, 9):
            expected = math.sqrt((1.0 + math.cos(2.0 * t) * s) / (1.0 + s))
            assert propagated_norm(h, up_y(), t) == pytest.approx(expected, abs=1e-12)

    def test_density_follows_pure(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            theta = rng.uniform(0.0, 1.45)
            h = NHHamiltonian.canonical(theta)
            psi0 = state_from_bloch_angles(
                rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            )
            t = rng.uniform(0.0, math.pi)
            rho = evolve_density(h, projector(psi0), t)
            np.testing.assert_allclose(
                rho, projector(evolve_pure(h, psi0, t)), atol=1e-12
            )


class TestBlochFlow:
    def test_rhs_pinned_value(self):
        # canonical family at S = -y/2: the rate along z is tan - sec
        theta = 0.8
        h = NHHamiltonian.canonical(theta)
        rhs = bloch_rhs([0.0, -0.5, 0.0], h)
        np.testing.assert_allclose(
            rhs,
            [0.0, 0.0, math.tan(theta) - 1.0 / math.cos(theta)],
            atol=1e-14,
        )

    def test_rhs_matches_density_equation(self):
        # independent derivation: normalise rho-dot built from raw matrices
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.normal(size=3)
            b = np.cross(a, rng.normal(size=3))
            b *= rng.uniform(0.0, 0.9) * np.linalg.norm(a) / max(
                np.linalg.norm(b), 1e-12
            )
            h = NHHamiltonian(a=a, b=b, scale=rng.uniform(0.5, 2.0))
            kappa = rng.uniform(0.0, 2.0)
            s = rng.normal(size=3)
            s = 0.5 * s / np.linalg.norm(s) * rng.uniform(0.2, 1.0)
            rho = density_from_bloch(s)
            hm = h.matrix
            raw = -1j * (hm @ rho - rho @ hm.conj().T) + kappa * (
                np.trace(rho) * ID2 - 2.0 * rho
            )
            normalised = raw - np.trace(raw).real * rho
            expected = 0.5 * np.array(
                [
                    np.trace(SIGMA_X @ normalised).real,
                    np.trace(SIGMA_Y @ normalised).real,
                    np.trace(SIGMA_Z @ normalised).real,
                ]
            )
            np.testing.assert_allclose(bloch_rhs(s, h, kappa), expected, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.6, 1.2])
    def test_trajectory_matches_closed_form(self, theta):
        h = NHHamiltonian.canonical(theta)
        grid = np.linspace(0.0, math.pi, 41)
        traj = integrate_bloch(bloch_of_pure(up_y()), h, t_grid=grid)
        comps = traj.abn()
        sb, sn = analytic_SB_Sn(h.a_mag, h.b_mag, grid)
        np.testing.assert_allclose(np.abs(comps[:, 1]), sb, atol=1e-7)
        np.testing.assert_allclose(comps[:, 2], sn, atol=1e-7)
        np.testing.assert_allclose(comps[:, 0], 0.0, atol=1e-9)

    def test_purity_preserved_without_noise(self):
        h = NHHamiltonian.canonical(1.3)
        traj = integrate_bloch(
            bloch_of_pure(up_y()), h, t_grid=np.linspace(0.0, math.pi, 21)
        )
        np.testing.assert_allclose(traj.purity, 1.0, atol=1e-8)

    def test_against_fixed_step_oracle(self):
        # generic non-canonical member with noise, independent RK4 run
        h = NHHamiltonian(a=[0.0, 2.0, 0.0], b=[0.9, 0.0, 0.0])
        kappa = 0.4
        s0 = np.array([0.1, 0.15, -0.3])
        expected = rk4(lambda _t, y: bloch_rhs(y, h, kappa), s0, 2.0, 20000)
        traj = integrate_bloch(s0, h, kappa=kappa, t_grid=np.array([0.0, 2.0]))
        np.testing.assert_allclose(traj.bloch[-1], expected, atol=1e-7)

    def test_pure_depolarisation(self):
        # B = 0 and S parallel to A: only the isotropic decay acts
        h = NHHamiltonian.canonical(0.0)
        kappa = 0.7
        grid = np.linspace(0.0, 2.0, 9)
        traj = integrate_bloch([0.5, 0.0, 0.0], h, kappa=kappa, t_grid=grid)
        np.testing.assert_allclose(
            traj.bloch[:, 0], 0.5 * np.exp(-2.0 * kappa * grid), atol=1e-9
        )
        np.testing.assert_allclose(traj.bloch[:, 1:], 0.0, atol=1e-10)

    def test_frame(self):
        h = NHHamiltonian.canonical(0.9)
        a_hat, b_hat, n_hat = abn_frame(h)
        np.testing.assert_allclose(a_hat, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(b_hat, [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(n_hat, [0.0, 1.0, 0.0], atol=1e-15)
        # Hermitian member keeps the same frame by continuity
        h0 = NHHamiltonian.canonical(0.0)
        for got, want in zip(abn_frame(h0), (a_hat, b_hat, n_hat)):
            np.testing.assert_allclose(got, want, atol=1e-15)
        np.testing.assert_allclose(
            bloch_to_abn([0.0, -0.5, 0.0], h), [0.0, 0.0, -0.5], atol=1e-15
        )

    def test_validation(self):
        h = NHHamiltonian.canonical(0.3)
        with pytest.raises(ValueError):
            integrate_bloch([0.7, 0.0, 0.0], h, t_grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            integrate_bloch([0.1, 0.0, 0.0], h, t_grid=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            integrate_bloch([0.1, 0.0, 0.0], h, kappa=-1.0, t_grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)), h)
        with pytest.raises(ValueError):
            Trajectory(np.array([1.0, 0.0]), np.zeros((2, 3)), h)
        err = StiffnessError("stalled", time=1.5)
        assert err.time == 1.5
        with pytest.raises(ValueError):
            analytic_SB_Sn(1.0, 1.0, 0.3)


class TestNoisyDensity:
    @pytest.mark.parametrize("t", [0.3, 0.9, 1.7, 2.8])
    def test_zero_noise_reduction(self, t):
        h = NHHamiltonian.canonical(0.9)
        rho0 = projector(up_y())
        np.testing.assert_allclose(
            evolve_density_noisy(h, rho0, 0.0, t),
            evolve_density(h, rho0, t),
            atol=1e-8,
        )

    def test_density_and_bloch_routes_agree(self):
        h = NHHamiltonian.canonical(1.2)
        kappa = 0.25
        rho0 = density_from_bloch([0.1, -0.3, 0.2])
        grid = np.linspace(0.0, 2.5, 6)
        traj = integrate_bloch([0.1, -0.3, 0.2], h, kappa=kappa, t_grid=grid)
        for t, s in zip(grid[1:], traj.bloch[1:]):
            rho = evolve_density_noisy(h, rho0, kappa, t)
            np.testing.assert_allclose(bloch_of_density(rho), s, atol=1e-7)

    def test_strong_noise_contracts(self):
        h = NHHamiltonian.canonical(1.0)
        rho = evolve_density_noisy(h, projector(up_y()), 50.0, 1.0)
        s = bloch_of_density(rho)
        # steady state is pinned near B / (2 kappa)
        assert np.linalg.norm(s) < 0.02
        validate_density(rho)


class TestDistanceAndSpeed:
    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.3])
    def test_geodesic_closed_form(self, theta):
        h = NHHamiltonian.canonical(theta)
        for t in np.linspace(0.0, math.pi, 17):
            d = geodesic_distance(evolve_pure(h, up_y(), t), down_y())
            assert d == pytest.approx(
                geodesic_distance_closed_form(theta, t), abs=1e-8
            )

    def test_geodesic_vanishes_at_half_period(self):
        for theta in THETAS:
            assert geodesic_distance_closed_form(theta, math.pi / 2) == pytest.approx(
                0.0, abs=1e-7
            )

    def test_speed_hermitian_limit(self):
        h = NHHamiltonian.canonical(0.0)
        for t in [0.0, 0.4, 1.1]:
            assert speed(h, up_y(), t) == pytest.approx(1.0, rel=1e-6)

    def test_speed_pinned_peak(self):
        # theta = pi/3 at t = pi/2: (1 + sin) / (1 - sin) = 7 + 4 sqrt(3)
        h = NHHamiltonian.canonical(math.pi / 3)
        expected = 7.0 + 4.0 * math.sqrt(3.0)
        assert speed(h, up_y(), math.pi / 2) == pytest.approx(expected, rel=1e-6)
        assert speed_closed_form(math.pi / 3, math.pi / 2) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "theta",
        [0.0, 0.5, 1.0, 1.4, math.pi / 2 - 1e-2, math.pi / 2 - 1e-3, math.pi / 2 - 1e-4],
    )
    def test_speed_matches_closed_form(self, theta):
        h = NHHamiltonian.canonical(theta)
        # the propagator loses about sec^2(theta) ulps near the corner
        rel = 1e-12 / math.cos(theta) ** 2
        for t in np.linspace(0.1, 3.0, 7):
            assert speed(h, up_y(), t) == pytest.approx(
                speed_closed_form(theta, t), rel=rel
            )

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi / 2 - 1e-3),
        t=st.floats(0.0, math.pi),
        parts=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    )
    def test_speed_is_fubini_study_rate(self, theta, t, parts):
        # independent spinor route: ||H phi||^2 - |<phi|H phi>|^2 is the
        # squared projective velocity of the renormalised state phi
        psi = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
        norm = float(np.linalg.norm(psi))
        assume(norm > 0.1)
        h = NHHamiltonian.canonical(theta)
        phi = evolve_pure(h, psi / norm, t)
        h_phi = h.matrix @ phi
        h_phi_sq = float(np.vdot(h_phi, h_phi).real)
        expected = h_phi_sq - abs(complex(np.vdot(phi, h_phi))) ** 2
        # near an eigenstate of H the speed vanishes and the difference above
        # cancels to a few ulps of ||H phi||^2
        assert speed(h, psi / norm, t) == pytest.approx(
            expected, rel=1e-11 / math.cos(theta) ** 2, abs=1e-14 * h_phi_sq
        )

    def test_speed_validation(self):
        h = NHHamiltonian.canonical(0.2)
        with pytest.raises(ValueError):
            speed(h, [1.0, 1.0], 0.5)
        with pytest.raises(ValueError):
            speed_closed_form(2.0, 0.5)
        with pytest.raises(ValueError):
            geodesic_distance_closed_form(-0.2, 0.5)
