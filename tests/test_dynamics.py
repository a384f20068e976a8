import ast
import dataclasses
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nhlgi.dynamics
from nhlgi.qmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from nhlgi.dynamics import (
    THETA_MAX,
    NHHamiltonian,
    StiffnessError,
    Trajectory,
    _bloch_axis,
    _bloch_rhs,
    _bloch_state,
    _density_bloch,
    _lift_propagator,
    _spinor_bloch,
    analytic_SB_Sn,
    abn_frame,
    bloch_of_pure,
    bloch_to_abn,
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
    pure_propagator,
    speed,
    speed_closed_form,
    state_from_bloch_angles,
    up_y,
    up_z,
    validate_density,
    validate_pure,
)
from nhlgi.embedding import build_HT, build_metric, evolve_and_postselect, k3_via_embedding
from nhlgi.lgi import k3_closed_form
from oracles import (
    _hamiltonian,
    _propagator,
    bloch_of_density,
    density_from_bloch,
    geodesic,
    noisy_bloch_trajectory,
    pauli_vector,
    propagator,
    pure_bloch_trajectory,
    pure_flow,
    rk4,
)

THETAS = [0.0, math.pi / 6, 0.9, 1.2, 1.4]


def bloch_rhs(s, h, kappa=0.0):
    """The library's Bloch right-hand side ``_bloch_rhs`` of ``h`` at ``s``."""
    a, b = h._scaled
    return np.array(_bloch_rhs(a, b, kappa, np.asarray(s, dtype=float).tolist()))


def random_member(rng, theta_max=1.45):
    """A family member at random ``theta`` and ``scale``, ``scale != 1``."""
    return NHHamiltonian.canonical(rng.uniform(0.0, theta_max), scale=rng.uniform(0.1, 3.0))


def same_floats(got, want):
    """Equal as floats, sign bits of zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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

    @pytest.mark.parametrize("phi, sin_phi", [(0.5 * math.pi, 1.0), (1.5 * math.pi, -1.0)])
    def test_quarter_turns_have_no_x_part(self, phi, sin_phi):
        # math.cos leaves 6.1e-17 and -1.8e-16 here; exact zeros put the
        # states and axes of the planar search exactly on the y-z circle
        for theta in (0.0, 0.4, 1.7, math.pi):
            a, b = _bloch_state(theta, phi)
            assert (a.imag, b.real) == (0.0, 0.0)
            assert (a.real, b.imag) == (math.cos(0.5 * theta), sin_phi * math.sin(0.5 * theta))
            s = math.sin(theta)
            assert _bloch_axis(theta, phi) == (0.0, sin_phi * s, math.cos(theta))
            assert state_from_bloch_angles(theta, phi).tolist() == [a, b]

    def test_density_round_trip(self):
        # the engine's map from a density matrix to its Bloch vector
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = rng.normal(size=3)
            s = 0.5 * rng.uniform(0.0, 1.0) * s / np.linalg.norm(s)
            rho = density_from_bloch(s)
            validate_density(rho)
            r = _density_bloch(rho.tolist())
            np.testing.assert_allclose(0.5 * np.array(r), s, atol=1e-14)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_validate_pure_refuses_non_finite(self, slot, bad):
        parts = [0.6, 0.0, 0.0, 0.8]
        parts[slot] = bad
        psi = [complex(parts[0], parts[1]), complex(parts[2], parts[3])]
        with pytest.raises(ValueError, match=r"^non-finite state vector$"):
            validate_pure(psi)

    @pytest.mark.parametrize("eps", [2e-12, -2e-12])
    def test_validate_pure_refuses_norm_off_by(self, eps):
        psi = (1.0 + eps) * np.array([0.6, 0.8j])
        message = r"^state vector is not normalised \(norm (0\.99999999999|1\.0000000000)"
        with pytest.raises(ValueError, match=message):
            validate_pure(psi)

    @pytest.mark.parametrize("eps", [5e-13, -5e-13])
    def test_validate_pure_accepts_norm_within(self, eps):
        psi = (1.0 + eps) * np.array([0.6, 0.8j])
        np.testing.assert_array_equal(validate_pure(psi), psi)


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
        # H^2 = omega^2 * Id despite H not being Hermitian
        np.testing.assert_allclose(h.matrix @ h.matrix, ID2, atol=1e-12)

    def test_real_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = random_member(rng)
            eigs = np.linalg.eigvals(h.matrix)
            np.testing.assert_allclose(eigs.imag, 0.0, atol=1e-10)
            np.testing.assert_allclose(
                np.sort(eigs.real), [-h.omega, h.omega], atol=1e-10
            )

    def test_propagator_against_oracle(self):
        # the rounded matrix's propagator, within 8.9e-16 of exp(-i H t) of
        # the exact theta and scale over these draws
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(0.0, 1.45)
            h = NHHamiltonian.canonical(theta, scale=rng.uniform(0.5, 2.0))
            t = rng.uniform(-math.pi, math.pi)
            np.testing.assert_allclose(
                h.propagator(t), propagator(theta, t, h.scale), rtol=0.0, atol=1e-14
            )

    @pytest.mark.parametrize("theta", [0.0, 0.9, math.pi / 2 - 1e-3, THETA_MAX])
    def test_reference_propagator_is_the_exponential(self, theta):
        # the reference's cos t I - i sin t H against mpmath's expm of -i H t
        # at 50 digits: 8.1e-39 relative at THETA_MAX, 2.0e-50 at theta = 0.9
        with mpmath.workdps(50):
            hm = _hamiltonian(theta)
            for t in (0.3, 1.57, 3.0):
                closed = _propagator(hm, t)
                diff = closed - mpmath.expm(-1j * mpmath.mpf(t) * hm)
                assert mpmath.mnorm(diff, 1) <= mpmath.mpf(1e-37) * mpmath.mnorm(closed, 1)

    def test_propagator_group_property(self):
        h = NHHamiltonian.canonical(1.1)
        np.testing.assert_allclose(
            h.propagator(0.4) @ h.propagator(0.9), h.propagator(1.3), atol=1e-12
        )

    def test_validation(self):
        # both constructors refuse a working point off the domain and a scale
        # that is not positive and finite, naming which
        for build in (NHHamiltonian, NHHamiltonian.canonical):
            for theta in (-0.1, math.pi / 2, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=r"theta must lie in"):
                    build(theta, 1.0)
            for scale in (0.0, -1.0, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="scale must be positive and finite"):
                    build(0.3, scale)
        assert THETA_MAX < math.pi / 2

    @pytest.mark.parametrize("build", [NHHamiltonian, NHHamiltonian.canonical])
    def test_bool_refused(self, build):
        # operator-wise True is 1, a valid theta and scale; it is refused by name
        for value in (True, False, np.True_):
            with pytest.raises(ValueError, match="theta must be a float, not the bool"):
                build(value, 1.0)
            with pytest.raises(ValueError, match="scale must be a float, not the bool"):
                build(0.3, value)
        with pytest.raises(ValueError, match="theta must be a float, not the bool True"):
            k3_closed_form(True, 0.5)

    def test_two_fields(self):
        # the member is its working point and scale, and holds two more
        # floats, sec(theta) and tan(theta); no array, no general vectors
        h = NHHamiltonian(1.2, scale=0.5)
        assert [f.name for f in dataclasses.fields(h)] == ["theta", "scale"]
        assert h == NHHamiltonian.canonical(1.2, 0.5)
        assert vars(h) == {
            "theta": 1.2, "scale": 0.5, "_sec": 1.0 / math.cos(1.2), "_tan": math.tan(1.2)
        }
        for name in ("a", "b", "b_operator", "a_mag", "b_mag"):
            assert not hasattr(h, name)

    def test_views_repeat_the_vector_form(self):
        # matrix and _scaled are the floats of the general vector form fed a
        # = sec x and b = -tan z, sign bits included (theta = 0 has b_z =
        # -0.0 but a +0.0 imaginary part on the diagonal); omega is the scale,
        # since sec^2 - tan^2 = 1 for every member
        def vector_form(theta, scale):
            a = np.array([1.0 / math.cos(theta), 0.0, 0.0])
            b = np.array([0.0, 0.0, -math.tan(theta)])
            matrix = scale * (pauli_vector(a) - 1j * pauli_vector(b))
            scaled = (scale * a).tolist(), (scale * b).tolist()
            return matrix, scaled, float(scale)

        rng = np.random.default_rng(43)
        thetas = [0.0, 1e-300, 0.7, 1.2, THETA_MAX, *rng.uniform(0.0, THETA_MAX, 300).tolist()]
        for theta in thetas:
            for scale in (1.0, math.cos(theta), rng.uniform(0.1, 3.0)):
                h = NHHamiltonian.canonical(theta, scale)
                matrix, scaled, omega = vector_form(theta, scale)
                assert same_floats(h.matrix.real, matrix.real), (theta, scale)
                assert same_floats(h.matrix.imag, matrix.imag), (theta, scale)
                for got, want in zip(h._scaled, scaled):
                    assert same_floats(got, want), (theta, scale)
                assert same_floats(h.omega, omega), (theta, scale)


class TestPureEvolution:
    def test_hermitian_limit_rabi(self):
        # theta = 0 is plain sigma_x precession: flip probability sin^2 t
        h = NHHamiltonian.canonical(0.0)
        for t in np.linspace(0.0, math.pi, 13):
            psi = evolve_pure(h, up_y(), t)
            assert abs(np.vdot(down_y(), psi)) ** 2 == pytest.approx(
                math.sin(t) ** 2, abs=1e-12
            )

    def test_is_the_scalar_kernel(self):
        # the public state and flow are the scans' kernels as arrays, bit for bit
        rng = np.random.default_rng(19)
        for _ in range(50):
            h = NHHamiltonian.canonical(rng.uniform(0.0, 1.5))
            angles = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            t = rng.uniform(0.0, math.pi)
            psi0 = state_from_bloch_angles(*angles)
            assert psi0.tolist() == list(_bloch_state(*angles))
            expected = pure_propagator(h)(t, _bloch_state(*angles))
            assert evolve_pure(h, psi0, t).tolist() == list(expected)

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
        # The kernel takes raw triples, so it is checked on general generators
        # (a . b = 0, |a| > |b|), not only on the family's.
        for _ in range(200):
            a = rng.normal(size=3)
            b = np.cross(a, rng.normal(size=3))
            b *= rng.uniform(0.0, 0.9) * np.linalg.norm(a) / max(
                np.linalg.norm(b), 1e-12
            )
            scale = rng.uniform(0.5, 2.0)
            kappa = rng.uniform(0.0, 2.0)
            s = rng.normal(size=3)
            s = 0.5 * s / np.linalg.norm(s) * rng.uniform(0.2, 1.0)
            rho = density_from_bloch(s)
            hm = scale * (pauli_vector(a) - 1j * pauli_vector(b))
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
            got = _bloch_rhs((scale * a).tolist(), (scale * b).tolist(), kappa, s.tolist())
            np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.6, 1.2])
    def test_trajectory_matches_closed_form(self, theta):
        h = NHHamiltonian.canonical(theta)
        grid = np.linspace(0.0, math.pi, 41)
        traj = integrate_bloch(bloch_of_pure(up_y()), h, t_grid=grid)
        comps = traj.abn()
        sb, sn = analytic_SB_Sn(theta, grid)
        np.testing.assert_allclose(np.abs(comps[:, 1]), sb, atol=1e-7)
        np.testing.assert_allclose(comps[:, 2], sn, atol=1e-7)
        np.testing.assert_allclose(comps[:, 0], 0.0, atol=1e-9)

    @pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-6])
    def test_closed_form_components_against_50_digits(self, delta):
        # from cos theta and sin theta of the double theta, with no
        # cancellation: within 1.7e-16 of the exact-theta flow from up_y on t
        # = 0 to 3.14; formed from the rounded sec and tan, they were 1.4e-7
        # off at delta = 1e-3 and 2.0e-4 at THETA_MAX.  S_B is -S_z, S_n S_y.
        theta = math.pi / 2 - delta
        grid = np.arange(315) * 0.01
        sb, sn = analytic_SB_Sn(theta, grid)
        exact = pure_bloch_trajectory(theta, up_y(), grid)
        assert np.max(np.abs(sb - np.abs(exact[:, 2]))) <= 1e-15
        assert np.max(np.abs(sn - exact[:, 1])) <= 1e-15

    def test_purity_preserved_without_noise(self):
        h = NHHamiltonian.canonical(1.3)
        traj = integrate_bloch(
            bloch_of_pure(up_y()), h, t_grid=np.linspace(0.0, math.pi, 21)
        )
        np.testing.assert_allclose(traj.purity, 1.0, atol=1e-8)

    def test_against_fixed_step_oracle(self):
        # a member at scale != 1 with noise, independent RK4 run
        h = NHHamiltonian.canonical(0.45, scale=2.0)
        kappa = 0.4
        s0 = np.array([0.1, 0.15, -0.3])
        expected = rk4(lambda _t, y: bloch_rhs(y, h, kappa), s0, 2.0, 20000)
        traj = integrate_bloch(s0, h, kappa=kappa, t_grid=np.array([0.0, 2.0]))
        np.testing.assert_allclose(traj.bloch[-1], expected, atol=1e-7)

    def test_rk45_rhs_is_bloch_rhs(self, monkeypatch):
        # Every right-hand side RK45 evaluates equals bloch_rhs bit for bit,
        # at a Hamiltonian scale other than 1 and with noise.
        h = NHHamiltonian.canonical(1.1, scale=0.7)
        kappa = 0.3
        real_rk45 = nhlgi.dynamics._rk45
        calls = []

        def checked_rk45(fun, *args):
            def checked(t, s):
                got = fun(t, s)
                calls.append(np.array_equal(got, bloch_rhs(s, h, kappa)))
                return got

            return real_rk45(checked, *args)

        monkeypatch.setattr(nhlgi.dynamics, "_rk45", checked_rk45)
        integrate_bloch(bloch_of_pure(up_y()), h, kappa, np.linspace(0.0, 2.0, 5))
        assert len(calls) > 10 and all(calls)

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
        a_hat, b_hat, n_hat = abn_frame()
        np.testing.assert_allclose(a_hat, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(b_hat, [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(n_hat, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(np.cross(a_hat, b_hat), n_hat, atol=0.0)
        assert same_floats(bloch_to_abn([0.0, -0.5, 0.0]), [0.0, 0.0, -0.5])
        # a stack of vectors maps row by row
        s = np.array([[0.1, -0.2, 0.3], [0.0, 0.5, 0.0]])
        assert same_floats(bloch_to_abn(s), [[0.1, -0.3, -0.2], [0.0, 0.0, 0.5]])
        # each call returns its own arrays
        a_hat[0] = 2.0
        assert abn_frame()[0].tolist() == [1.0, 0.0, 0.0]

    def test_frame_is_every_members_frame(self):
        # The constant frame is the one each member's own vectors give, to the
        # float and the sign bit: a / |a|, b / |b| and their cross product,
        # with b's direction at theta = 0 (where b vanishes) the limit -z of
        # the rest of the family.
        pinned = ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (-0.0, 1.0, 0.0))
        frame = abn_frame()
        for got, want in zip(frame, pinned):
            assert same_floats(got, want)
        rng = np.random.default_rng(41)
        thetas = [0.0, 1e-300, 0.7, THETA_MAX, *rng.uniform(0.0, THETA_MAX, 500).tolist()]
        for theta in thetas:
            for scale in (1.0, math.cos(theta)):
                a, b = (np.array(v) for v in NHHamiltonian.canonical(theta, scale)._scaled)
                a_hat = a / math.hypot(*a)
                b_hat = b / math.hypot(*b) if theta > 0.0 else np.array(pinned[1])
                assert same_floats(a_hat, frame[0]), (theta, scale)
                assert same_floats(b_hat, frame[1]), (theta, scale)
                assert same_floats(np.cross(a_hat, b_hat), frame[2]), (theta, scale)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.03])
    def test_rk45_accuracy_floor(self, delta):
        # RK45 at its default tolerances against the exact pure flow, on the
        # CLI's default grid from up_y, within criterion 6's bound of 1e-6.
        # Measured: 1.6e-10 at delta = 0.5, 8.3e-9 at 0.1 and 1.3e-7 at 0.03;
        # below that it misses (1.9e-6 at 0.01, 6.0e-4 at 1e-3).
        h = NHHamiltonian.canonical(math.pi / 2 - delta)
        grid = np.arange(0, 315, dtype=float) * 0.01
        traj = integrate_bloch(bloch_of_pure(up_y()), h, t_grid=grid)
        propagate, psi = pure_propagator(h), tuple(up_y().tolist())
        exact = [_spinor_bloch(propagate(t, psi)) for t in grid.tolist()]
        np.testing.assert_allclose(traj.bloch, exact, rtol=0.0, atol=1e-6)

    def test_validation(self):
        h = NHHamiltonian.canonical(0.3)
        with pytest.raises(ValueError):
            integrate_bloch([0.7, 0.0, 0.0], h, t_grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            integrate_bloch([0.1, 0.0, 0.0], h, t_grid=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            integrate_bloch([0.1, 0.0, 0.0], h, kappa=-1.0, t_grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="outside the Bloch ball"):
            integrate_bloch([math.nan, 0.0, 0.0], h, t_grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Trajectory(np.array([1.0, 0.0]), np.zeros((2, 3)))
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["times", "bloch"]
        err = StiffnessError("stalled", time=1.5)
        assert err.time == 1.5


class TestNoisyDensity:
    @pytest.mark.parametrize("t", [0.3, 0.9, 1.7, 2.8])
    def test_zero_noise_reduction(self, t):
        # at kappa = 0 the noisy flow is evolve_density's lift, bit for bit
        h = NHHamiltonian.canonical(0.9)
        rho0 = projector(up_y())
        got, want = evolve_density_noisy(h, rho0, 0.0, t), evolve_density(h, rho0, t)
        assert same_floats(got.real, want.real) and same_floats(got.imag, want.imag)

    def test_runs_no_rk45(self, monkeypatch):
        # the closed-form lift at every kappa: no adaptive run, so nothing to
        # stall, and t = 0 returns a copy of the state
        def refused(*args):
            raise AssertionError("evolve_density_noisy ran RK45")

        monkeypatch.setattr(nhlgi.dynamics, "_rk45", refused)
        h = NHHamiltonian.canonical(THETA_MAX)
        rho0 = projector(up_y())
        for kappa in (0.0, 1e-3, 0.25, 10.0, 1e5):
            for t in (1.55, 2.8, 1e9):
                validate_density(evolve_density_noisy(h, rho0, kappa, t))
        rho = evolve_density_noisy(h, rho0, 0.25, 0.0)
        assert np.array_equal(rho, rho0) and rho is not rho0

    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_corner_against_50_digits(self, delta):
        # within 1.1e-16; the density-matrix RK45 this replaced was up to
        # 1.5e-9 off here at delta = 1e-3 and 1.3e-6 at THETA_MAX (kappa =
        # 0), and from up_y it stalled at THETA_MAX
        h = NHHamiltonian.canonical(math.pi / 2 - delta)
        r, times = (0.1, -0.6, 0.4), (0.3, 0.9, 1.55, 2.8)
        rho0 = density_from_bloch([0.5 * c for c in r])
        worst = 0.0
        for kappa in (0.0, 1e-3, 0.25, 10.0):
            exact = noisy_bloch_trajectory(h.theta, kappa, r, times, dps=50)
            for t, s in zip(times, exact):
                got = bloch_of_density(evolve_density_noisy(h, rho0, kappa, t))
                worst = max(worst, float(np.max(np.abs(got - s))))
        assert worst <= 1e-15

    @pytest.mark.parametrize(
        "delta, kappa, bound",
        [
            (1e-2, 0.0, 1.3e-11),
            (1e-3, 0.0, 5.5e-10),
            (1e-6, 0.0, 3.5e-10),
            (1e-2, 1e-12, 4.1e-11),
            (1e-3, 1e-12, 1.7e-10),
            (1e-6, 1e-12, 1.7e-15),
        ],
    )
    def test_lift_near_the_half_period(self, delta, kappa, bound):
        # from the pure (0, -1, 0) the propagated trace falls to about
        # delta^2/4 at t = pi/2, where the closed form's sum cancels; each
        # bound is 10x the worst on this grid, all at t = 1.570
        h = NHHamiltonian.canonical(math.pi / 2 - delta)
        times = [1.5 + 0.005 * k for k in range(31)]
        exact = noisy_bloch_trajectory(h.theta, kappa, (0.0, -1.0, 0.0), times)
        propagate = _lift_propagator(h, kappa)
        got = [[0.5 * c for c in propagate(t, (0.0, -1.0, 0.0))] for t in times]
        assert np.max(np.abs(np.array(got) - exact)) <= bound

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
    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.3, 1.5])
    def test_geodesic_closed_form(self, theta):
        # the grid passes within an ulp of t = pi/2, where the state reaches
        # down_y: an arccos of the overlap alone is off by about 1e-8 there
        h = NHHamiltonian.canonical(theta)
        grid = np.linspace(0.0, math.pi, 401)
        got = [geodesic_distance(evolve_pure(h, up_y(), t), down_y()) for t in grid]
        np.testing.assert_allclose(
            got,
            geodesic_distance_closed_form(theta, grid),
            rtol=0.0,
            atol=1e-13 / math.cos(theta) ** 2,
        )

    @pytest.mark.parametrize("delta", [0.37, 1e-3, 1e-6])
    def test_closed_forms_against_50_digits(self, delta):
        # on a 0.01 grid over one period; written with 1 - sin theta and
        # 1 + cos 2t sin theta as they stand, the forms were off by up to
        # 1.4e-10 relative (speed) and 2.8e-8 (distance) at delta = 1e-6,
        # while these stayed within 8.7e-16 relative and 2.2e-16 of the
        # exact-theta flow from up_y (its speed, and its angle to down_y)
        theta = math.pi / 2 - delta
        grid = np.arange(315) * 0.01
        speeds = speed_closed_form(theta, grid).tolist()
        distances = geodesic_distance_closed_form(theta, grid).tolist()
        for t, v, d in zip(grid.tolist(), speeds, distances):
            state, _, exact_v = pure_flow(theta, up_y(), t)
            assert abs(v - exact_v) <= 2e-15 * exact_v, t
            assert abs(d - geodesic(state, down_y())) <= 5e-16, t

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
        # a loose bound: TestPureRoutesAgainst50Digits holds the speed to
        # 1.1e-14 relative down to THETA_MAX
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


class TestPureRoutesAgainst50Digits:
    """``evolve_pure``, ``propagated_norm`` and ``speed`` against
    :func:`oracles.pure_flow` at the exact theta, down to ``THETA_MAX``.

    Each bound is 10x the worst measured over these points (CPython 3.11.7,
    numpy 2.4.6): 1.6e-16 for the Fubini-Study angle, 4.0e-16 relative for
    the norm and 1.1e-15 relative for the speed.  Run on the rounded sec and
    tan, the same routes were up to 1.3e-11, 4.7e-9 and 1.4e-3 off over these
    points.
    """

    @staticmethod
    def points(delta):
        rng = np.random.default_rng(int(round(-math.log10(delta))))
        yield from ((up_y(), 0.03 * i) for i in range(105))
        yield up_z(), 1.0
        for _ in range(30):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            yield psi / np.linalg.norm(psi), float(rng.uniform(-4.0, 4.0))

    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-6])
    def test_within_ten_times_the_measured_worst(self, delta):
        theta = THETA_MAX if delta == 1e-6 else math.pi / 2 - delta
        h = NHHamiltonian.canonical(theta)
        worst_angle = worst_norm = worst_speed = 0.0
        for psi, t in self.points(delta):
            state, norm, rate = pure_flow(theta, psi, t)
            worst_angle = max(worst_angle, geodesic(evolve_pure(h, psi, t), state))
            worst_norm = max(worst_norm, abs(propagated_norm(h, psi, t) - norm) / norm)
            worst_speed = max(worst_speed, abs(speed(h, psi, t) - rate) / rate)
        assert worst_angle <= 1.6e-15
        assert worst_norm <= 4.0e-15
        assert worst_speed <= 1.1e-14


_THETA_ENTRIES = {
    "NHHamiltonian.canonical": NHHamiltonian.canonical,
    "speed_closed_form": lambda theta: speed_closed_form(theta, 0.3),
    "geodesic_distance_closed_form": lambda theta: geodesic_distance_closed_form(theta, 0.3),
    "k3_closed_form": lambda theta: k3_closed_form(theta, math.pi / 4),
    "analytic_SB_Sn": lambda theta: analytic_SB_Sn(theta, 0.3),
    "build_metric": build_metric,
    "build_HT": build_HT,
    "evolve_and_postselect": lambda theta: evolve_and_postselect(theta, up_y(), 0.3),
    "k3_via_embedding": k3_via_embedding,
}


@pytest.mark.parametrize("theta", [-0.1, math.pi / 2 - 1e-9, math.nan])
@pytest.mark.parametrize("entry", sorted(_THETA_ENTRIES))
def test_theta_domain_is_one_contract(entry, theta):
    # every public entry taking a working point refuses the same way
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2 - 1e-6\]"):
        _THETA_ENTRIES[entry](theta)


_KAPPA_ENTRIES = {
    "_lift_propagator": lambda kappa: nhlgi.dynamics._lift_propagator(
        NHHamiltonian.canonical(0.3), kappa
    ),
    "evolve_density_noisy": lambda kappa: evolve_density_noisy(
        NHHamiltonian.canonical(0.3), projector(up_y()), kappa, 0.3
    ),
    "integrate_bloch": lambda kappa: integrate_bloch(
        bloch_of_pure(up_y()), NHHamiltonian.canonical(0.3), kappa, [0.0, 0.3]
    ),
}


@pytest.mark.parametrize("kappa", [True, False, np.True_])
@pytest.mark.parametrize("entry", sorted(_KAPPA_ENTRIES))
def test_bool_kappa_is_refused_by_name(entry, kappa):
    # operator-wise True is 1 and False 0, both valid rates
    with pytest.raises(ValueError, match="^kappa must be a float, not the bool"):
        _KAPPA_ENTRIES[entry](kappa)


# integrate_bloch is the one route that runs RK45
_RK45_ROUTES = ["integrate_bloch"]


@pytest.mark.parametrize("t, at", [([0.0, 0.3, 0.7], 0.7), ([], 0.0)])
@pytest.mark.parametrize("route", _RK45_ROUTES)
def test_failed_rk45_run_raises_stiffness_error(route, t, at, monkeypatch):
    # A right-hand side that is finite up to the last of the times t and NaN
    # past it (from the start when there is none): the run creeps up to that
    # time, then stalls there and says where.
    real_rk45 = nhlgi.dynamics._rk45
    finite_until = max(t, default=-math.inf)

    def poisoned_rk45(fun, *args):
        def poisoned(s, y):
            return fun(s, y) if s <= finite_until else [math.nan] * len(y)

        return real_rk45(poisoned, *args)

    monkeypatch.setattr(nhlgi.dynamics, "_rk45", poisoned_rk45)
    with pytest.raises(StiffnessError, match="stalled at t = ") as exc:
        _TIMED_ROUTES[route](1.0)
    assert at - 1e-12 < exc.value.time <= at
    assert f"stalled at t = {exc.value.time!r}:" in str(exc.value)


@pytest.mark.parametrize("route", _RK45_ROUTES)
def test_rk45_run_past_its_budget_is_refused(route, monkeypatch):
    # An end time of 1e9 needs about 1e11 right-hand sides.  The budget,
    # lowered here to keep the test fast, refuses the run where it got to.
    monkeypatch.setattr(nhlgi.dynamics, "_RK45_MAX_EVALS", 3000)
    with pytest.raises(StiffnessError, match="spent its budget of 3000 right-hand") as exc:
        _TIMED_ROUTES[route](1e9)
    assert 0.0 < exc.value.time < 1e9


def test_rk45_budget_admits_a_run_that_needs_all_of_it(monkeypatch):
    real_rk45 = nhlgi.dynamics._rk45
    evals = 0

    def counting_rk45(fun, *args):
        def counted(t, y):
            nonlocal evals
            evals += 1
            return fun(t, y)

        return real_rk45(counted, *args)

    monkeypatch.setattr(nhlgi.dynamics, "_rk45", counting_rk45)
    run = lambda: integrate_bloch(bloch_of_pure(up_y()), _H, t_grid=[0.0, 0.5, 3.0]).bloch
    want, need = run(), evals
    monkeypatch.setattr(nhlgi.dynamics, "_RK45_MAX_EVALS", need)
    np.testing.assert_array_equal(run(), want)
    monkeypatch.setattr(nhlgi.dynamics, "_RK45_MAX_EVALS", need - 1)
    with pytest.raises(StiffnessError, match=f"budget of {need - 1} right-hand"):
        run()


_H = NHHamiltonian.canonical(0.9)
_TIMED_ROUTES = {
    "evolve_pure": lambda t: evolve_pure(_H, up_y(), t),
    "propagated_norm": lambda t: propagated_norm(_H, up_y(), t),
    "evolve_density": lambda t: evolve_density(_H, projector(up_y()), t),
    "speed": lambda t: speed(_H, up_y(), t),
    "evolve_density_noisy": lambda t: evolve_density_noisy(_H, projector(up_y()), 0.1, t),
    "integrate_bloch": lambda t: integrate_bloch(
        bloch_of_pure(up_y()), _H, kappa=0.1, t_grid=[0.0, t]
    ),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("route", sorted(_TIMED_ROUTES))
def test_non_finite_time_refused(route, t):
    # NaN would come back as a NaN state, and the RK45 routes would never
    # reach an infinite or NaN end time
    name = "t_grid" if route == "integrate_bloch" else "t"
    with pytest.raises(ValueError, match=f"time {name} = {t!r} must be finite"):
        _TIMED_ROUTES[route](t)


_CLOSED_FORMS = {
    "speed_closed_form": speed_closed_form,
    "geodesic_distance_closed_form": geodesic_distance_closed_form,
    "analytic_SB_Sn": analytic_SB_Sn,
}


@pytest.mark.parametrize(
    "t, bad",
    [
        (math.nan, math.nan),
        (math.inf, math.inf),
        (-math.inf, -math.inf),
        # every element is checked: a largest time of 0.0 hides the -inf
        ([0.0, -math.inf], -math.inf),
        (np.array([[0.1, 0.2], [math.inf, math.nan]]), math.inf),
    ],
    ids=["nan", "inf", "-inf", "array-minus-inf", "array-inf-nan"],
)
@pytest.mark.parametrize("form", sorted(_CLOSED_FORMS))
def test_closed_forms_refuse_a_non_finite_time(form, t, bad):
    # refused by name before any numpy work, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"time t = {bad!r} must be finite"):
            _CLOSED_FORMS[form](1.2, t)


def _readers(names):
    """``{name: {"module:definition"}}``: where in ``src/nhlgi`` each attribute
    in ``names`` is read, or each function in ``names`` called.  The
    definition is the outermost function around the read, with its class if
    it is a method, such as ``dynamics:NHHamiltonian.matrix``."""
    found = {name: set() for name in names}

    def visit(node, module, stack):
        if isinstance(node, ast.ClassDef):
            stack = [*stack, (node.name, False)]
        elif isinstance(node, ast.FunctionDef):
            stack = [*stack, (node.name, True)]
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            name = None
        if name in found:
            outer = []
            for part, is_function in stack:
                outer.append(part)
                if is_function:
                    break
            found[name].add(f"{module}:{'.'.join(outer)}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, stack)

    for path in sorted(Path(nhlgi.dynamics.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


def test_rounded_sec_and_tan_have_only_their_readers():
    # the pure routes run the circle flow from the double theta; the rounded
    # sec and tan reach only RK45's right-hand side and the operator matrix,
    # whose readers are the kept propagator and the dilation's checks
    assert _readers(["_sec", "_tan", "_scaled", "matrix", "_bloch_rhs"]) == {
        "_sec": {"dynamics:NHHamiltonian._scaled"},
        "_tan": {"dynamics:NHHamiltonian._scaled"},
        "_scaled": {"dynamics:NHHamiltonian.matrix", "dynamics:integrate_bloch"},
        "matrix": {
            "dynamics:NHHamiltonian.propagator",
            "embedding:build_metric",
            "embedding:build_HT",
        },
        "_bloch_rhs": {"dynamics:integrate_bloch"},
    }
