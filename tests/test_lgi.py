import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhlgi import lgi
from nhlgi.dynamics import (
    THETA_MAX,
    DegenerateEvolutionError,
    NHHamiltonian,
    _axis_basis,
    _bloch_axis,
    _bloch_lift,
    _density_propagator,
    density_from_bloch,
    evolve_density_noisy,
    projector,
    pure_propagator,
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
    _noisy_frame,
    _propagating_frame,
    _pure_born,
    _spinor_frame,
    k3_closed_form,
    protocol,
)
from nhlgi.qmat import pauli_vector
from oracles import axis_eigenstates, noisy_protocol_tables, two_time_joint

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

    def test_from_angles_is_the_bloch_axis(self):
        # the scans build the axis with the same kernel, without renormalising
        rng = np.random.default_rng(37)
        for _ in range(100):
            angles = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            assert Observable.from_angles(*angles).direction == _bloch_axis(*angles)

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


def _basis_axes():
    """Random unit axes, both poles, points on and next to the equator."""
    rng = np.random.default_rng(53)
    axes = [
        _bloch_axis(t, p)
        for t, p in zip(rng.uniform(0.0, np.pi, 2000), rng.uniform(0.0, 2 * np.pi, 2000))
    ]
    axes += [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, -1.0, 0.0), (1.0, 0.0, 0.0)]
    axes += [_bloch_axis(math.pi / 2 + d, p) for d in (-1e-9, 0.0, 1e-9) for p in (0.3, 2.0, 4.5)]
    return axes


class TestAxisBasis:
    def test_eigen_equation(self):
        worst = 0.0
        for n in _basis_axes():
            op = pauli_vector(np.array(n))
            up, down = (np.array(chi) for chi in _axis_basis(n))
            worst = max(worst, *np.abs(op @ up - up), *np.abs(op @ down + down))
        assert worst <= 1e-15

    def test_orthonormal_with_the_larger_component_real_positive(self):
        for n in _basis_axes():
            up, down = (np.array(chi) for chi in _axis_basis(n))
            assert abs(np.vdot(up, up) - 1.0) <= 1e-15
            assert abs(np.vdot(down, down) - 1.0) <= 1e-15
            assert abs(np.vdot(up, down)) <= 1e-15
            # the 1 + |nz| component: first of +1 and second of -1 for nz >= 0
            big = (up[0], down[1]) if n[2] >= 0.0 else (up[1], down[0])
            for c, chi in zip(big, (up, down)):
                assert c.imag == 0.0 and c.real > 0.0
                assert abs(c) >= np.abs(chi).max()

    def test_poles(self):
        assert _axis_basis((0.0, 0.0, 1.0)) == ((1, 0), (0, 1))
        assert _axis_basis((0.0, 0.0, -1.0)) == ((0, 1), (1, 0))

    def test_matches_oracle_up_to_phase(self):
        for n in _basis_axes():
            for chi, ref in zip(_axis_basis(n), axis_eigenstates(np.array(n))):
                assert abs(abs(np.vdot(ref, chi)) - 1.0) <= 1e-15

    def test_observable_eigenstates_are_the_basis(self):
        for n in _basis_axes()[::50]:
            q = Observable(n)
            assert tuple(tuple(chi.tolist()) for chi in q.eigenstates) == _axis_basis(q.direction)


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


_GOOD = ((0.25, 0.25), (0.25, 0.25))

# (tables, (c12, c23, c13)) of rows that the shared check refuses; each row
# breaks exactly one of the range, sum and K3 checks.
BAD_TABLES = {
    "nan entry": ((math.nan, 0.5), (0.25, 0.25)),
    "entry -2e-10": ((0.5 + 2e-10, -2e-10), (0.25, 0.25)),
    "entry 1+2e-10": ((1.0 + 2e-10, -1e-10), (-1e-10, 0.0)),
    "sum off by 2e-10": ((0.25 + 2e-10, 0.25), (0.25, 0.25)),
}
REFUSED_ROWS = {
    **{name: ((bad, _GOOD, _GOOD), (0.0, 0.0, 0.0)) for name, bad in BAD_TABLES.items()},
    "K3 = 3+2e-9": ((_GOOD, _GOOD, _GOOD), (1.0, 1.0, -(1.0 + 2e-9))),
    "NaN K3": ((_GOOD, _GOOD, _GOOD), (0.0, 0.0, math.nan)),
}
# Every entry and K3 on the edge of its tolerance.
ACCEPTED_ROW = (
    (((1.0 + 1e-10, -1e-10), (0.0, 0.0)), _GOOD, _GOOD),
    (1.0, 1.0, -(1.0 + 5e-10)),
)


def _result(tables, correlators) -> LgiResult:
    c12, c23, c13 = correlators
    tab12, tab23, tab13 = (JointTable(np.array(t), 0.0, 1.0) for t in tables)
    return LgiResult(c12=c12, c23=c23, c13=c13, k3=c12 + c23 - c13, table12=tab12,
                     table23=tab23, table13=tab13, times=(0.0, 1.0, 2.0), kappa=0.0)


class TestRowChecks:
    """One range, sum and K3 check, reached through the classes and the CLI sweeps."""

    @pytest.mark.parametrize("case", sorted(REFUSED_ROWS))
    def test_classes_refuse(self, case):
        with pytest.raises(ValueError):
            _result(*REFUSED_ROWS[case])

    @pytest.mark.parametrize("command", ["lgi", "noise"])
    @pytest.mark.parametrize("case", sorted(REFUSED_ROWS))
    def test_sweeps_refuse(self, case, command, monkeypatch, capsys):
        from nhlgi import cli

        tables, correlators = REFUSED_ROWS[case]
        monkeypatch.setattr(cli, "protocol", lambda *args: correlators + tables)
        assert cli.main(self._argv(command)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid parameters" in captured.err

    @pytest.mark.parametrize("command", ["lgi", "noise"])
    def test_edge_values_accepted(self, command, monkeypatch, capsys):
        from nhlgi import cli

        _result(*ACCEPTED_ROW)
        tables, correlators = ACCEPTED_ROW
        monkeypatch.setattr(cli, "protocol", lambda *args: correlators + tables)
        assert cli.main(self._argv(command)) == 0
        capsys.readouterr()

    @staticmethod
    def _argv(command):
        if command == "lgi":
            return ["lgi", "--theta", "0.5", "--t", "0.3"]
        return ["noise", "--theta", "0.5", "--kappa", "0.1", "--tmax", "0.3", "--step", "0.3"]


def test_pure_propagator_norm_floor():
    with pytest.raises(DegenerateEvolutionError):
        pure_propagator(NHHamiltonian.canonical(0.5))(0.3, (0j, 0j))


def test_density_propagator_trace_floor():
    # a Bloch vector far outside the ball drives the propagated trace negative
    with pytest.raises(DegenerateEvolutionError):
        _density_propagator(NHHamiltonian.canonical(0.5))(0.1, (0.0, 0.0, -1e3))


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
        out = protocol(*_spinor_frame(h)(tuple(psi.tolist()), chi), t1, t2, t3)
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
        log_kappa=st.floats(-12.0, 5.0),
        state=st.tuples(
            st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0)
        ),
        axis=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
        times=st.tuples(
            st.floats(0.0, 1.5), st.floats(1e-3, 1.5), st.floats(1e-3, 1.5)
        ),
    )
    # a double-precision Taylor oracle was off by 5.6e-9 here, beyond the
    # tolerance, while the kernel is within 1.2e-13 of the exact lift
    @example(
        theta=1.546875,
        log_kappa=-6.0,
        state=(0.0, 0.0, 0.0),
        axis=(0.0, 0.0),
        times=(0.0, 1.5, 1.5),
    )
    def test_noisy_kernel_tables(self, theta, log_kappa, state, axis, times):
        pytest.importorskip("mpmath")
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
        out = protocol(*_noisy_frame(h, kappa)(r, n), t1, t2, t3)
        rho0 = density_from_bloch(0.5 * np.array(r))
        # The oracle exponentiates the lift at 30 digits, so it is exact to
        # double precision; the kernel's eigendecomposed lift loses about
        # sec^2(theta) ulps (within 1.2e-13 = 7e-17 sec^2 at the pinned
        # example), well inside the tolerance.
        tol = 1e-12 / math.cos(theta) ** 2
        expected = noisy_protocol_tables(h.matrix, kappa, rho0, n, (t1, t2, t3))
        for table, reference in zip(out[3:], expected):
            np.testing.assert_allclose(np.array(table), reference, rtol=0.0, atol=tol)
        for c, table in zip(out[:3], out[3:]):
            assert c == JointTable(table, 0.0, 1.0).correlator

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi / 2 - 1e-2),
        log_kappa=st.floats(-12.0, 5.0),
        state=st.tuples(
            st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0)
        ),
        axis=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
        times=st.tuples(
            st.floats(0.0, 1.5), st.floats(1e-3, 1.5), st.floats(1e-3, 1.5)
        ),
    )
    def test_frames_match_propagating_adapter(self, theta, log_kappa, state, axis, times):
        # the spinor and noisy frames never propagate a collapse branch; the
        # adapter propagates every branch (spinors with the same flow, Bloch
        # vectors with the eigendecomposed lift in numpy) and reads Born
        # probabilities, so the tables must agree
        theta_s, phi_s, length = state
        h = NHHamiltonian.canonical(theta)
        psi = tuple(state_from_bloch_angles(theta_s, phi_s).tolist())
        n = Observable.from_angles(*axis).direction
        chi = tuple(tuple(e.tolist()) for e in axis_eigenstates(n))
        t1 = times[0]
        t2 = t1 + times[1]
        t3 = t2 + times[2]
        spinor = protocol(*_spinor_frame(h)(psi, chi), t1, t2, t3)
        adapter = _propagating_frame(pure_propagator(h), _pure_born)
        expected = protocol(*adapter(psi, chi), t1, t2, t3)
        # measured over 3000 draws: spinor within 6.3e-16 sec^2(theta) of the
        # adapter, noisy within 9.8e-16 sec^2(theta); scipy's expm of the whole
        # lift is no reference here, it is off by 3.6e-8 at delta = 0.012 and
        # a gap of 2.5
        tol = 1e-12 / math.cos(theta) ** 2
        np.testing.assert_allclose(np.array(spinor[3:]), expected[3:], rtol=0.0, atol=tol)

        kappa = 10.0**log_kappa
        r = tuple(length * c for c in Observable.from_angles(theta_s, phi_s).direction)
        noisy = protocol(*_noisy_frame(h, kappa)(r, n), t1, t2, t3)
        adapter = _propagating_frame(_eig_propagator(h, kappa), _bloch_born)
        expected = protocol(*adapter(r, (n, (-n[0], -n[1], -n[2]))), t1, t2, t3)
        np.testing.assert_allclose(np.array(noisy[3:]), expected[3:], rtol=0.0, atol=tol)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3])
    def test_corner_tables_against_50_digits(self, delta):
        # near the corner the propagator loses about sec^2(theta) ulps; over
        # 300 such draws the engine's tables were within 8.1e-19 sec^2(theta)
        # of a 50-digit evaluation (the Taylor oracle of two_time_joint within
        # 9.1e-12 at delta = 1e-2 and 6.1e-10 at 1e-3), so allow 1e-17 sec^2
        mpmath = pytest.importorskip("mpmath")
        theta = math.pi / 2 - delta
        h = NHHamiltonian.canonical(theta)
        engine = CorrelatorEngine(h)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(40):
            psi = state_from_bloch_angles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
            q = Observable.from_angles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
            t_i = rng.uniform(0.0, 3.0)
            t_j = t_i + rng.uniform(1e-3, 3.0)
            got = engine.joint_table(psi, q, t_i, t_j).probs
            expected = _pure_joint_reference(mpmath, h, psi, q, t_i, t_j)
            worst = max(worst, float(np.max(np.abs(got - expected))))
        assert worst <= 1e-17 / math.cos(theta) ** 2

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


def _lift_spectrum(h, kappa):
    """Eigenvalues of the lift as ``_noisy_frame`` computes them."""
    lift = _bloch_lift(h, kappa)
    return np.linalg.eig(np.array([lift(*e) for e in np.eye(4).tolist()]).T)[0]


def _spectrum_shape(lam):
    """``(real eigenvalues, conjugate pairs)`` of a computed spectrum."""
    upper = lam[lam.imag > 0.0]
    pairs = sum(1 for z in upper.tolist() if z.conjugate() in lam.tolist())
    return int(np.sum(lam.imag == 0.0)), pairs


def _rotated_member(rng, theta):
    """Canonical member ``theta`` turned by a random rotation, at scale != 1."""
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    h = NHHamiltonian.canonical(theta)
    return NHHamiltonian(a=q @ h.a, b=q @ h.b, scale=rng.uniform(0.1, 3.0))


SPECTRUM_KAPPAS = [10.0 ** (0.5 * e) for e in range(-24, 11)]  # 1e-12 to 1e5


class TestNoisySpectrum:
    """The lift's spectrum shape, which the real modal form of ``_noisy_frame``
    relies on: two real eigenvalues and one conjugate pair for every
    ``kappa > 0``."""

    @pytest.mark.parametrize(
        "theta",
        [0.0, 0.4, 0.8, 1.2, 1.5]
        + [math.pi / 2 - d for d in (1e-2, 1e-3, 1e-4, 1e-5)]
        + [THETA_MAX],
    )
    def test_canonical_shape(self, theta):
        h = NHHamiltonian.canonical(theta)
        for kappa in SPECTRUM_KAPPAS:
            assert _spectrum_shape(_lift_spectrum(h, kappa)) == (2, 1), kappa

    def test_rotated_scaled_shape(self):
        rng = np.random.default_rng(29)
        for i in range(40):
            theta = rng.uniform(0.0, 1.5) if i % 2 else math.pi / 2 - 10.0 ** rng.uniform(-6, -2)
            h = _rotated_member(rng, theta)
            for kappa in SPECTRUM_KAPPAS:
                assert _spectrum_shape(_lift_spectrum(h, kappa)) == (2, 1), (theta, kappa)

    def test_decoupled_rate_and_cubic(self):
        # the spectrum is -2 kappa and the roots of
        # lam [(lam + 2 kappa)^2 + 4 omega^2] - 8 kappa b^2
        rng = np.random.default_rng(31)
        for _ in range(40):
            h = _rotated_member(rng, rng.uniform(0.0, 1.4))
            kappa = 10.0 ** rng.uniform(-2.0, 1.0)
            w, b = h.omega, h.b_mag
            cubic = np.roots([1.0, 4.0 * kappa, 4.0 * kappa**2 + 4.0 * w**2, -8.0 * kappa * b**2])
            expected = np.sort_complex(np.append(cubic, -2.0 * kappa))
            got = np.sort_complex(_lift_spectrum(h, kappa))
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)
            # the dominant eigenvalue is the cubic's real root
            top = got[np.argmax(got.real)]
            assert top.imag == 0.0 and top.real > -2.0 * kappa

    def test_no_real_eigenvalue_is_refused(self, monkeypatch):
        # a tiny imaginary part on each real eigenvalue keeps the residual
        # check passing, so only the shape check can refuse
        eig = np.linalg.eig

        def complexified(matrix):
            lam, v = eig(matrix)
            return np.where(lam.imag == 0.0, lam + 1e-13j, lam), v

        monkeypatch.setattr(np.linalg, "eig", complexified)
        with pytest.raises(DegenerateEvolutionError, match="conjugate pair"):
            _noisy_frame(NHHamiltonian.canonical(0.7), 0.1)

    def test_four_real_eigenvalues_are_refused(self, monkeypatch):
        def diagonal_lift(h, kappa):
            return lambda r0, x, y, z: (0.0, -kappa * x, -2.0 * kappa * y, -3.0 * kappa * z)

        monkeypatch.setattr(lgi, "_bloch_lift", diagonal_lift)
        with pytest.raises(DegenerateEvolutionError, match="conjugate pair"):
            _noisy_frame(NHHamiltonian.canonical(0.7), 0.1)


def test_noisy_kernel_runs_without_numpy(monkeypatch):
    # numpy is used once per engine; a point and its times run on floats
    frame = _noisy_frame(NHHamiltonian.canonical(1.2), 0.3)
    r, n = (0.3, -0.4, 0.5), Observable.from_angles(1.1, 0.6).direction
    expected = protocol(*frame(r, n), 0.0, 0.4, 1.1)

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"the noisy kernel used numpy.{name}")

    monkeypatch.setattr(lgi, "np", NoNumpy())
    first, transfer = frame(r, n)
    out = protocol(first, transfer, 0.0, 0.4, 1.1)
    assert out == expected
    c12, c23, c13, *tables = out
    entries = [p for table in tables for row in table for p in row]
    assert all(type(x) is float for x in [c12, c23, c13, first(0.7), *transfer(0.2), *entries])


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
        pytest.importorskip("mpmath")
        h = NHHamiltonian.canonical(theta)
        q = Observable.from_angles(1.1, 0.6)
        rho0 = projector(state_from_bloch_angles(0.8, 2.5))
        t_i, t_j, kappa = 0.4, 1.7, 1e-9
        try:
            got = CorrelatorEngine(h, kappa=kappa).joint_table(rho0, q, t_i, t_j)
        except DegenerateEvolutionError:
            return
        expected = noisy_protocol_tables(
            h.matrix, kappa, rho0, q.direction, (t_i, t_j, t_j), dps=60
        )[0]
        np.testing.assert_allclose(got.probs, expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("kappa", [1e-5, 1e-3])
    def test_corner_short_times_against_60_digits(self, kappa):
        # the corner optimum sits at times of order 1e-4, where the modes of
        # the lift (cond(V) 4.3e5 at kappa = 1e-5) cancel to a few digits;
        # over these draws the engine is within 1.3e-11 of a 60-digit
        # evaluation, while a pair row taken as twice one row of V^-1 is off
        # by 2.6e-6 at kappa = 1e-5 and 1.5e-9 at 1e-3
        pytest.importorskip("mpmath")
        h = NHHamiltonian.canonical(math.pi / 2 - 1e-3)
        engine = CorrelatorEngine(h, kappa=kappa)
        rng = np.random.default_rng(17)
        for _ in range(6):
            psi = state_from_bloch_angles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
            q = Observable.from_angles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
            rho0 = projector(psi)
            t1 = rng.uniform(0.0, 1e-3)
            t2 = t1 + rng.uniform(1e-4, 1e-3)
            t3 = t2 + rng.uniform(1e-4, 1e-3)
            got = engine.k3(rho0, q, t1, t2, t3)
            expected = noisy_protocol_tables(
                h.matrix, kappa, rho0, q.direction, (t1, t2, t3), dps=60
            )
            for table, reference in zip((got.table12, got.table23, got.table13), expected):
                np.testing.assert_allclose(table.probs, reference, rtol=0.0, atol=1e-9)

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


def _eig_propagator(h, kappa):
    """Renormalised noisy flow on Bloch vectors: the eigendecomposed lift
    applied to each state in numpy, spectrum shifted to non-positive real part."""
    lift = _bloch_lift(h, kappa)
    lam, v = np.linalg.eig(np.array([lift(*e) for e in np.eye(4).tolist()]).T)
    lam = lam - lam.real.max()
    v_inv = np.linalg.inv(v)

    def propagate(t, r):
        x = ((v * np.exp(lam * t)) @ (v_inv @ np.array((1.0,) + tuple(r)))).real
        return tuple((x[1:] / x[0]).tolist())

    return propagate


def _pure_joint_reference(mpmath, h, psi, q, t_i, t_j, dps=50):
    """Pure-state joint table with ``exp(-i H t)`` exponentiated in mpmath."""
    with mpmath.workdps(dps):
        hm = mpmath.matrix(h.matrix.tolist())

        def propagate(v, t):
            return mpmath.expm(-1j * t * hm) * mpmath.matrix(list(v))

        def born(chi, v):
            amp = sum(mpmath.conj(c) * x for c, x in zip(chi, v))
            return abs(amp) ** 2 / sum(abs(x) ** 2 for x in v)

        up, down = (mpmath.matrix(list(e)) for e in q.eigenstates)
        up, down = up / mpmath.norm(up), down / mpmath.norm(down)
        v_i = propagate(psi, t_i)
        first = [born(up, v_i), born(down, v_i)]
        probs = np.empty((2, 2))
        for row, chi in enumerate((up, down)):
            cond = born(up, propagate(chi, t_j - t_i))
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
