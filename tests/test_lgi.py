import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhlgi import dynamics, lgi
from nhlgi.dynamics import (
    THETA_MAX,
    DegenerateEvolutionError,
    NHHamiltonian,
    _axis_basis,
    _bloch_axis,
    _density_bloch,
    _lift_coefficients,
    _lift_propagator,
    _spinor_bloch,
    bloch_of_pure,
    integrate_bloch,
    projector,
    pure_propagator,
    state_from_bloch_angles,
    up_y,
)
from nhlgi.embedding import _dilation, _propagating_frame, _pure_born, k3_via_embedding
from nhlgi.lgi import (
    ALGEBRAIC_BOUND,
    LUDER_BOUND,
    CorrelatorEngine,
    JointTable,
    LgiResult,
    Observable,
    _correlators,
    _noisy_frame,
    _tables,
    k3_closed_form,
)
from nhlgi.scan import GAP_FLOOR
from oracles import axis_eigenstates, closed_form_k3, density_from_bloch, pauli_vector, protocol

THETAS = [0.0, math.pi / 6, 1.0, 1.4]


def random_pure(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


class TestObservable:
    def test_canonical_axis(self):
        # up_y is the +1 state of the canonical axis: the collapse state the
        # protocol takes for outcome +1, up to a phase
        q = Observable.canonical()
        assert q.direction == (0.0, -1.0, 0.0)
        op = pauli_vector(np.array(q.direction))
        np.testing.assert_allclose(op @ up_y(), up_y(), atol=1e-14)
        up, down = (np.array(chi) for chi in _axis_basis(q.direction))
        assert abs(np.vdot(up, up_y())) == pytest.approx(1.0, abs=1e-15)
        assert abs(np.vdot(down, up_y())) <= 1e-15

    def test_from_angles_is_the_bloch_axis(self):
        # the scans build the axis with the same kernel, without renormalising
        rng = np.random.default_rng(37)
        for _ in range(100):
            angles = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            assert Observable.from_angles(*angles).direction == _bloch_axis(*angles)

    def test_validation(self):
        with pytest.raises(ValueError):
            Observable((0.0, -2.0, 0.0))
        with pytest.raises(ValueError):
            Observable((1.0, 1.0))


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


class TestJointTable:
    def test_correlator_formula(self):
        tab = JointTable(np.array([[0.4, 0.1], [0.2, 0.3]]), 0.0, 1.0)
        assert tab.correlator == pytest.approx(0.4 - 0.1 - 0.2 + 0.3, abs=1e-15)

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


# Values the sweeps' row check refuses in any of the eight numbers.  The K3
# and sum cases of REFUSED_ROWS stay with the classes alone: their tables come
# from no eight numbers in [0, 1], which is what the sweeps check.
REFUSED_VALUES = {
    "nan entry": math.nan,
    "+inf entry": math.inf,
    "-inf entry": -math.inf,
    "entry -5e-324": -5e-324,
    "entry -2e-10": -2e-10,
    "entry 1+2.2e-16": 1.0 + 2.2e-16,
    "entry 1+2e-10": 1.0 + 2e-10,
}


class TestRowChecks:
    """One range, sum and K3 check for the classes; one range check on the
    eight numbers for the CLI sweeps, which implies it."""

    @pytest.mark.parametrize("case", sorted(REFUSED_ROWS))
    def test_classes_refuse(self, case):
        with pytest.raises(ValueError):
            _result(*REFUSED_ROWS[case])

    def test_classes_accept_edges(self):
        _result(*ACCEPTED_ROW)

    @pytest.mark.parametrize("command", ["lgi", "noise", "embed"])
    @pytest.mark.parametrize("case", sorted(REFUSED_VALUES))
    def test_sweeps_refuse(self, case, command, monkeypatch, capsys):
        from nhlgi import cli

        for route in self._routes(command):
            for slot in range(8):
                values = [0.5] * 8
                values[slot] = REFUSED_VALUES[case]
                with monkeypatch.context() as patch:
                    self._inject(patch, route, tuple(values))
                    assert cli.main(self._argv(command)) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "invalid parameters" in captured.err

    @pytest.mark.parametrize("command", ["lgi", "noise", "embed"])
    def test_edge_values_accepted(self, command, monkeypatch, capsys):
        from nhlgi import cli

        for route in self._routes(command):
            column = {"engine": "k3_direct" if command == "embed" else "k3",
                      "dilation": "k3_embedded"}[route]
            # exact 0 and 1 in every slot, giving K3 at the algebraic bounds
            for values, k3 in [((0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0), 3.0),
                               ((1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0), -3.0),
                               ((1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0), 3.0)]:
                with monkeypatch.context() as patch:
                    self._inject(patch, route, values)
                    assert cli.main([*self._argv(command), "--format", "json"]) == 0
                assert json.loads(capsys.readouterr().out)["data"][column] == [k3]

    @pytest.mark.parametrize("slot", range(4))
    def test_check_protocol_boundaries(self, slot):
        def table(value, others):
            # ``value`` in ``slot``, ``others`` in the three remaining entries.
            entries = [others] * 4
            entries[slot] = value
            return (tuple(entries[:2]), tuple(entries[2:]))

        # Each edge entry with the others at the opposite edge, summing to 1.
        edges = [table(-1e-10, (1.0 + 1e-10) / 3.0), table(1.0 + 1e-10, -1e-10 / 3.0)]
        lgi._check_protocol(edges, 3.0)
        for value in (math.nan, math.inf, -math.inf, -2e-10, 1.0 + 2e-10):
            # Only ``slot`` is out of range; the match excludes the sum check.
            with pytest.raises(ValueError, match="outside \\[0, 1\\] or not finite"):
                lgi._check_protocol([table(value, 0.25)])

    def test_values_in_range_pass_the_protocol_check(self):
        # the sweeps' check implies the classes': seeded eight numbers in [0,
        # 1], with exact 0 and 1 and their neighbours mixed in, never fail
        # the range, sum or K3 checks of their tables
        rng = np.random.default_rng(2024)
        edges = np.array([0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0])
        for _ in range(20000):
            values = rng.uniform(0.0, 1.0, 8)
            on_edge = rng.random(8) < 0.4
            values[on_edge] = rng.choice(edges, on_edge.sum())
            values = tuple(values.tolist())
            lgi._check_values(values)
            c12, c23, c13 = _correlators(values)
            lgi._check_protocol(_tables(values), c12 + c23 - c13)

    @staticmethod
    def _routes(command):
        return ("engine", "dilation") if command == "embed" else ("engine",)

    @staticmethod
    def _inject(patch, route, values):
        """Make every protocol run of one route return ``values``: the
        engine's (every row of lgi and noise, embed's direct column) or the
        dilation's (embed's embedded column)."""
        from nhlgi import cli

        if route == "engine":
            patch.setattr(
                CorrelatorEngine, "_protocol_inputs", lambda self, state, q: lambda *t: values
            )
        else:
            patch.setattr(cli, "_embedded_run", lambda theta, psi, n: lambda *t: values)

    @staticmethod
    def _argv(command):
        if command == "lgi":
            return ["lgi", "--theta", "0.5", "--t", "0.3"]
        if command == "embed":
            return ["embed", "--theta", "0.5", "--tmax", "0.3", "--step", "0.3"]
        return ["noise", "--theta", "0.5", "--kappa", "0.1", "--tmax", "0.3", "--step", "0.3"]


def _frame_draws(seed, n):
    """Seeded ``(theta, times, rng)`` draws: delta = pi/2 - theta log-uniform
    from 1e-6 (``THETA_MAX``) to pi/2, both ends included; half the draws
    have ``t1 = 0``, as every CLI row has.  ``rng`` draws the rest."""
    rng = np.random.default_rng(seed)
    deltas = [1e-6, math.pi / 2, *(10.0 ** rng.uniform(-6.0, math.log10(math.pi / 2), n - 2))]
    for delta in deltas:
        theta = THETA_MAX if delta == 1e-6 else math.pi / 2 - delta
        t1 = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 3.0)
        t2 = t1 + rng.uniform(1e-3, 3.0)
        yield theta, (t1, t2, t2 + rng.uniform(1e-3, 3.0)), rng


def _in_range(values):
    return len(values) == 8 and all(0.0 <= v <= 1.0 for v in values)


class TestFramesInRange:
    """Every frame returns its eight numbers in [0, 1], which the CLI sweeps'
    row check (:func:`nhlgi.lgi._check_values`) relies on."""

    KAPPAS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e5)

    def test_circle_frame(self):
        for theta, times, rng in _frame_draws(5, 300):
            setup, evaluate = CorrelatorEngine(NHHamiltonian.canonical(theta))._circle_route
            a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
            point = setup((math.cos(a), math.sin(a)), (math.cos(b), math.sin(b)))
            assert _in_range(evaluate(point, *times)), (theta, times, a, b)

    def test_noisy_frame(self):
        # Bloch vectors in the ball and on its surface, and spinors on and
        # off the invariant circle through the engine's dispatch
        for theta, times, rng in _frame_draws(6, 60):
            h = NHHamiltonian.canonical(theta)
            for kappa in self.KAPPAS:
                engine = CorrelatorEngine(h, kappa)
                setup, evaluate = engine._bloch_route
                n = _bloch_axis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
                r = np.array(_bloch_axis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)))
                for radius in (1.0, rng.uniform(0.0, 1.0)):
                    values = evaluate(setup(tuple((radius * r).tolist()), n), *times)
                    assert _in_range(values), (theta, kappa, times, radius)
                a = rng.uniform(0.0, 2.0 * math.pi)
                for psi, axis in (
                    ((complex(math.cos(a)), 1j * math.sin(a)), (0.0, n[1], n[2])),
                    (tuple(random_pure(rng).tolist()), n),
                ):
                    norm = math.hypot(*axis)
                    evaluate, point = engine._pure_point(psi, tuple(x / norm for x in axis))
                    assert _in_range(evaluate(point, *times)), (theta, kappa, times, psi)

    def test_propagating_frame(self):
        # the dilation's frame, on random spinors and axes
        for theta, times, rng in _frame_draws(7, 300):
            postselect = _dilation(theta)[1]
            setup, evaluate = _propagating_frame(lambda t, psi: postselect(t, psi)[0])
            n = _bloch_axis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            values = evaluate(setup(tuple(random_pure(rng).tolist()), n), *times)
            assert _in_range(values), (theta, times)


def test_pure_propagator_norm_floor():
    with pytest.raises(DegenerateEvolutionError):
        pure_propagator(NHHamiltonian.canonical(0.5))(0.3, (0j, 0j))


def test_density_propagator_trace_floor():
    # a Bloch vector far outside the ball drives the propagated trace negative
    for kappa in (0.0, 0.1):
        with pytest.raises(DegenerateEvolutionError, match="propagated trace"):
            _lift_propagator(NHHamiltonian.canonical(0.5), kappa)(0.1, (0.0, 0.0, -1e3))


class TestProtocolAgainstOracle:
    """The engine's tables against the exact-theta reference's protocol."""

    def test_joint_tables(self):
        # within 3.9e-16 over these draws
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
            expected = protocol(theta, psi, q.direction, (t_i, t_j, t_j)).tables[0]
            np.testing.assert_allclose(got.probs, expected, rtol=0.0, atol=4e-15)

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
        t1 = times[0]
        t2 = t1 + times[1]
        t3 = t2 + times[2]
        setup, evaluate = CorrelatorEngine(h)._spinor_route
        out = evaluate(setup(tuple(psi.tolist()), direction), t1, t2, t3)
        # The Bloch route loses up to about sec(theta)^2 ulps where the
        # propagated trace falls: 1.2e-15 sec^2(theta) at worst over 3000
        # such draws, and 1.9e-15 sec^2(theta) (2.2e-14, at delta = 0.3)
        # over 3500 seeded ones
        tol = 2e-14 / math.cos(theta) ** 2
        expected = protocol(theta, psi, direction, (t1, t2, t3)).tables
        for table, reference in zip(_tables(out), expected):
            np.testing.assert_allclose(np.array(table), reference, rtol=0.0, atol=tol)
        for c, table in zip(_correlators(out), _tables(out)):
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
    # tolerance; the eigendecomposed kernel was within 1.2e-13 of the exact
    # lift, and the closed form is within 1e-16
    @example(
        theta=1.546875,
        log_kappa=-6.0,
        state=(0.0, 0.0, 0.0),
        axis=(0.0, 0.0),
        times=(0.0, 1.5, 1.5),
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
        setup, evaluate = _noisy_frame(h, kappa)
        out = evaluate(setup(r, n), t1, t2, t3)
        rho0 = density_from_bloch(0.5 * np.array(r))
        # The oracle exponentiates the lift of H(theta) at 30 digits, so it
        # is exact to double precision.  The eigendecomposed lift lost about
        # sec^2(theta) ulps, so the bound was 1e-12 sec^2(theta); over 800
        # seeded draws of this domain the closed form was within 1.2e-15 at
        # every theta (6.0e-16 sec^2(theta)).
        tol = 1e-14
        expected = protocol(theta, rho0, n, (t1, t2, t3), kappa, dps=30).tables
        for table, reference in zip(_tables(out), expected):
            np.testing.assert_allclose(np.array(table), reference, rtol=0.0, atol=tol)
        for c, table in zip(_correlators(out), _tables(out)):
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
        # the engine's spinor route runs the lift's projected frame on the
        # spinor's Bloch vector at kappa = 0, and the noisy frame projects
        # the closed form before it combines it; the adapter propagates every
        # branch (spinors with the pure flow, Bloch vectors with the
        # eigendecomposed lift in numpy) and reads Born probabilities, so the
        # tables must agree
        theta_s, phi_s, length = state
        h = NHHamiltonian.canonical(theta)
        psi = tuple(state_from_bloch_angles(theta_s, phi_s).tolist())
        n = Observable.from_angles(*axis).direction
        t1 = times[0]
        t2 = t1 + times[1]
        t3 = t2 + times[2]
        setup, evaluate = CorrelatorEngine(h)._spinor_route
        spinor = evaluate(setup(psi, n), t1, t2, t3)
        adapter = _closure_propagating_frame(pure_propagator(h), _pure_born)
        expected = _closure_protocol(*adapter(psi, _oracle_basis(n)), t1, t2, t3)
        # measured over 3000 draws: spinor within 1.8e-15 sec^2(theta) of the
        # adapter, noisy within 9.8e-16 sec^2(theta); scipy's expm of the whole
        # lift is no reference here, it is off by 3.6e-8 at delta = 0.012 and
        # a gap of 2.5
        tol = 1e-12 / math.cos(theta) ** 2
        np.testing.assert_allclose(
            np.array(_tables(spinor)), _tables(expected), rtol=0.0, atol=tol
        )

        kappa = 10.0**log_kappa
        r = tuple(length * c for c in Observable.from_angles(theta_s, phi_s).direction)
        setup, evaluate = _noisy_frame(h, kappa)
        noisy = evaluate(setup(r, n), t1, t2, t3)
        adapter = _closure_propagating_frame(_eig_propagator(h, kappa), _bloch_born)
        expected = _closure_protocol(*adapter(r, (n, (-n[0], -n[1], -n[2]))), t1, t2, t3)
        np.testing.assert_allclose(
            np.array(_tables(noisy)), _tables(expected), rtol=0.0, atol=tol
        )

    @pytest.mark.parametrize("delta", [1e-2, 1e-3])
    def test_corner_tables_against_50_digits(self, delta):
        # within 2.2e-16 at delta = 1e-2 and 3.3e-16 at 1e-3; an omega formed
        # from the rounded sec and tan put them 2.1e-13 off at delta = 1e-2
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
            expected = protocol(theta, psi, q.direction, (t_i, t_j, t_j)).tables[0]
            worst = max(worst, float(np.max(np.abs(got - expected))))
        assert worst <= 3.3e-15

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


def _lift_matrix(h, kappa):
    """The lift of the density flow on ``(r0, x, y, z)`` as a numpy 4x4,
    from the rounded ``sec theta`` and ``tan theta`` of ``h``: ``d(r0,
    r)/dt = [[0, -2 B^T], [-2 B, 2 [A x] - 2 kappa]] (r0, r)``."""
    (ax, _, _), (_, _, bz) = h._scaled
    return np.array(
        [
            [0.0, 0.0, 0.0, -2.0 * bz],
            [0.0, -2.0 * kappa, 0.0, 0.0],
            [0.0, 0.0, -2.0 * kappa, -2.0 * ax],
            [-2.0 * bz, 0.0, 2.0 * ax, -2.0 * kappa],
        ]
    )


def _cubic_roots(h, kappa):
    """numpy's roots of the lift's cubic ``lam [(lam + 2 kappa)^2 + 4 w^2] -
    8 kappa b^2``: the real root, the pair's imaginary part and the largest
    modulus, the scale of ``np.roots``' backward error."""
    w, b = h.omega, h.scale * math.tan(h.theta)
    roots = np.roots([1.0, 4.0 * kappa, 4.0 * kappa**2 + 4.0 * w**2, -8.0 * kappa * b**2])
    real = roots[np.argmin(np.abs(roots.imag))].real
    return real, np.max(roots.imag), np.max(np.abs(roots))


SPECTRUM_KAPPAS = [10.0 ** (0.5 * e) for e in range(-24, 11)]  # 1e-12 to 1e5


class TestNoisySpectrum:
    """The real root ``r`` and the pair frequency ``beta`` that
    ``_lift_coefficients`` finds for every ``kappa >= 0``."""

    @pytest.mark.parametrize(
        "theta",
        [0.0, 0.4, 0.8, 1.2, 1.5]
        + [math.pi / 2 - d for d in (1e-2, 1e-3, 1e-4, 1e-5)]
        + [THETA_MAX],
    )
    def test_canonical_shape(self, theta):
        # np.roots is backward stable to about 1e-16 of the largest root, and
        # the pair -2 kappa +/- i beta nearly doubles at large kappa, where
        # its beta was up to 7.4e-11 of the largest root off; the 40-digit
        # roots of the cubic of the exact tan(theta) were within 7.3e-16 (r)
        # and 3.3e-16 (beta) relative of the Newton root over these points
        h = NHHamiltonian.canonical(theta)
        for kappa in [0.0] + SPECTRUM_KAPPAS:
            (r, m, beta, decay), _ = _lift_coefficients(h, kappa)
            real, pair, big = _cubic_roots(h, kappa)
            assert abs(r - real) <= 1e-14 * big, kappa
            assert abs(beta - pair) <= 1e-9 * big, kappa
            assert m == -2.0 * kappa - 1.5 * r and decay == -2.0 * kappa - r
            with mpmath.workdps(40):
                k, b = mpmath.mpf(kappa), mpmath.tan(mpmath.mpf(theta))
                roots = mpmath.polyroots([1, 4 * k, 4 * k * k + 4, -8 * k * b * b], extraprec=200)
                exact = min(roots, key=lambda z: abs(mpmath.im(z)))
                assert abs(r - mpmath.re(exact)) <= 4e-15 * mpmath.re(exact), kappa
                assert abs(beta / max(mpmath.im(z) for z in roots) - 1) <= 4e-15, kappa

    def test_scaled_shape(self):
        rng = np.random.default_rng(29)
        for i in range(40):
            theta = rng.uniform(0.0, 1.5) if i % 2 else math.pi / 2 - 10.0 ** rng.uniform(-6, -2)
            h = NHHamiltonian.canonical(theta, scale=rng.uniform(0.1, 3.0))
            for kappa in SPECTRUM_KAPPAS:
                (r, _, beta, _), _ = _lift_coefficients(h, kappa)
                real, pair, big = _cubic_roots(h, kappa)
                assert abs(r - real) <= 1e-14 * big, (theta, kappa)
                assert abs(beta - pair) <= 1e-9 * big, (theta, kappa)
                # the pair never nears the real root: beta >= 2 w
                assert r > 0.0 and beta >= 2.0 * h.omega

    def test_decoupled_rate_and_cubic(self):
        # the lift's spectrum is the x slot's -2 kappa, the real root r and
        # the pair r + m +/- i beta
        rng = np.random.default_rng(31)
        for _ in range(40):
            h = NHHamiltonian.canonical(rng.uniform(0.0, 1.4), scale=rng.uniform(0.1, 3.0))
            kappa = 10.0 ** rng.uniform(-2.0, 1.0)
            (r, m, beta, _), _ = _lift_coefficients(h, kappa)
            expected = np.sort_complex(np.array([r, -2.0 * kappa, r + m + 1j * beta, r + m - 1j * beta]))
            got = np.sort_complex(np.linalg.eigvals(_lift_matrix(h, kappa)))
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 1.2, THETA_MAX])
    def test_kappa_zero_is_the_noiseless_spectrum(self, theta):
        # at kappa = 0 the roots are exactly 0 and +/- 2 i w, with no special
        # case: B1 = -G^2/(4 w^2) and B2 = G/(2 w)
        for scale in (1.0, 0.5):
            (r, m, beta, decay), _ = _lift_coefficients(NHHamiltonian.canonical(theta, scale), 0.0)
            assert (r, m, beta, decay) == (0.0, 0.0, 2.0 * scale, 0.0)


def test_noisy_kernel_runs_without_numpy(monkeypatch):
    # the lift path builds the frame and the propagator, sets a point up and
    # evaluates its times on floats alone
    h = NHHamiltonian.canonical(1.2)
    r, n = (0.3, -0.4, 0.5), Observable.from_angles(1.1, 0.6).direction
    setup, evaluate = _noisy_frame(h, 0.3)
    expected = evaluate(setup(r, n), 0.0, 0.4, 1.1)
    propagated = _lift_propagator(h, 0.3)(0.4, r)

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"the noisy kernel used numpy.{name}")

    monkeypatch.setattr(lgi, "np", NoNumpy())
    monkeypatch.setattr(dynamics, "np", NoNumpy())
    setup, evaluate = _noisy_frame(h, 0.3)
    assert _lift_propagator(h, 0.3)(0.4, r) == propagated
    assert all(type(x) is float for x in propagated)
    point = setup(r, n)
    out = evaluate(point, 0.0, 0.4, 1.1)
    assert out == expected
    (c12, c23, c13), tables = _correlators(out), _tables(out)
    entries = [p for table in tables for row in table for p in row]
    later = evaluate(point, 0.7, 0.9, 1.1)
    assert all(type(x) is float for x in [c12, c23, c13, *out, *later, *entries])


def _closure_noisy_frame(h, kappa):
    """The noisy frame as one closure pair per point: the closed form of the
    lift and the arithmetic the ``(setup, evaluate)`` frame must repeat."""
    (_, m, beta, decay), (b1, b2) = _lift_coefficients(h, kappa)

    def clip(q):
        return q if 0.0 <= q <= 1.0 else (1.0 if q > 1.0 else 0.0)

    def frame(r, n):
        x, y, z = r
        nx, ny, nz = n
        # the trace row and the axis row (ny times the y row plus nz times
        # the z row) of B1 and B2, over (P, M, Z)
        rows = [(t, tuple(ny * a + nz * b for a, b in zip(yr, zr))) for t, yr, zr in (b1, b2)]

        def projected(vy, vz):
            # the axis part of v = (1, vy, vz), then the trace and axis parts
            # of B1 v and B2 v
            pmz = (1.0 + vy, 1.0 - vy, vz)
            (t1, a1), (t2, a2) = ([_dot(w, pmz) for w in pair] for pair in rows)
            return ny * vy + nz * vz, t1, a1, t2, a2

        def born(v, x_part, t):
            axis, t1, a1, t2, a2 = v
            ex, c, s = dynamics._lift_weights(m, beta, decay, t)
            return clip(0.5 * (1.0 + (axis + ex * x_part + c * a1 + s * a2) / (1.0 + c * t1 + s * t2)))

        state, plus, minus = projected(y, z), projected(ny, nz), projected(-ny, -nz)

        def first(t):
            if t == 0.0:
                return clip(0.5 * (1.0 + nx * x + ny * y + nz * z))
            return born(state, nx * x, t)

        def transfer(g):
            return born(plus, nx * nx, g), born(minus, -nx * nx, g)

        return first, transfer

    return frame


def _dot(row, v):
    """``row . v`` of two triples, summed left to right as the frames do."""
    (a, b, c), (p, q, r) = row, v
    return a * p + b * q + c * r


def _bloch_born(n, r):
    """Born probability ``(1 + n . r)/2`` of Bloch vectors ``n`` and ``r``."""
    return 0.5 * (1.0 + n[0] * r[0] + n[1] * r[1] + n[2] * r[2])


def _closure_propagating_frame(propagate, born):
    """The propagating frame as one closure pair per state and collapse pair:
    every collapse branch is propagated and its Born probability read off."""

    def frame(state, collapse):
        up, down = collapse

        def first(t):
            v = propagate(t, state)
            p = min(1.0, max(0.0, born(up, v)))
            m = min(1.0, max(0.0, born(down, v)))
            return p / (p + m)

        def transfer(g):
            return tuple(min(1.0, max(0.0, born(up, propagate(g, c)))) for c in collapse)

        return first, transfer

    return frame


def _closure_protocol(first, transfer, t1, t2, t3):
    """The eight numbers of a closure pair."""
    return (first(t1), first(t2), *transfer(t2 - t1), *transfer(t3 - t2), *transfer(t3 - t1))


def _closure_cases(rng, n):
    """Seeded ``(r, psi, q, times)``: Bloch vectors inside the ball, spinors,
    axes, ``t1 = 0`` and ``t1 > 0``, gaps from the scans' floor to pi, and
    the CLI rows' equal spacing ``(0, t, 2t)``."""
    log_floor = math.log(GAP_FLOOR)
    for k in range(n):
        length = rng.uniform(0.0, 1.0) if k % 5 else 0.0
        axis = _bloch_axis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
        r = tuple(length * c for c in axis)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = tuple((z / np.linalg.norm(z)).tolist())
        q = Observable.from_angles(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        t1 = 0.0 if k % 2 else math.exp(rng.uniform(log_floor, math.log(math.pi)))
        g1, g2 = np.exp(rng.uniform(log_floor, math.log(math.pi), size=2)).tolist()
        yield r, psi, q, (0.0, g1, 2.0 * g1) if k % 4 == 3 else (t1, t1 + g1, t1 + g1 + g2)


CLOSURE_THETAS = [0.0, 0.3, 1.2, math.pi / 2 - 1e-2, math.pi / 2 - 1e-3]


@pytest.mark.parametrize("theta", CLOSURE_THETAS)
def test_noisy_evaluator_is_the_closure_arithmetic(theta):
    # every route that reaches the noisy frame (the frame itself, the
    # engine's spinor route and its public calls on spinors and density
    # matrices) gives the closure pair's eight numbers, bit for bit, also at
    # t1 = 0, where the (1,2) gap shares the exponentials of t2, and for the
    # joint tables, whose third time repeats the second; at kappa = 0 too,
    # where it is the engine's one route for states off the circle
    h = NHHamiltonian.canonical(theta)
    rng = np.random.default_rng(2025)
    for kappa in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5):
        setup, evaluate = _noisy_frame(h, kappa)
        frame = _closure_noisy_frame(h, kappa)
        engine = CorrelatorEngine(h, kappa)
        spinor_setup, spinor_evaluate = engine._spinor_route
        for k, (r, psi, q, times) in enumerate(_closure_cases(rng, 60)):
            n = q.direction
            assert evaluate(setup(r, n), *times) == _closure_protocol(*frame(r, n), *times)
            # the spinor's Bloch vector r = 2 S over its squared norm
            (a, b), (x, y, z) = psi, _spinor_bloch(psi)
            norm = (a * a.conjugate()).real + (b * b.conjugate()).real
            r_psi = (2.0 * x / norm, 2.0 * y / norm, 2.0 * z / norm)
            expected = _closure_protocol(*frame(r_psi, n), *times)
            assert spinor_evaluate(spinor_setup(psi, n), *times) == expected
            if k % 6 == 0:
                res = engine.k3(np.array(psi), q, *times)
                assert (res.c12, res.c23, res.c13) == _correlators(expected)
                rho = density_from_bloch(0.5 * np.array(r))
                expected = _closure_protocol(*frame(_density_bloch(rho.tolist()), n), *times)
                res = engine.k3(rho, q, *times)
                assert (res.c12, res.c23, res.c13) == _correlators(expected)
                pair = (times[0], times[1], times[1])
                expected = _closure_protocol(*frame(_density_bloch(rho.tolist()), n), *pair)
                table = engine.joint_table(rho, q, times[0], times[1]).probs
                assert table.tolist() == [list(row) for row in _tables(expected)[0]]


@pytest.mark.parametrize("theta", CLOSURE_THETAS)
def test_dilation_is_the_closure_arithmetic(theta):
    # the dilation on spinors gives the closure pair's eight numbers, bit
    # for bit: it propagates every collapse branch through the 4d kernel
    postselect = _dilation(theta)[1]
    dilation = _closure_propagating_frame(lambda t, psi: postselect(t, psi)[0], _pure_born)
    rng = np.random.default_rng(2026)
    for _, psi, q, times in _closure_cases(rng, 120):
        n = q.direction
        expected = _closure_protocol(*dilation(psi, _axis_basis(n)), *times)
        res = k3_via_embedding(theta, q, *times, psi0=np.array(psi))
        assert (res.c12, res.c23, res.c13) == _correlators(expected)
        assert [t.probs.tolist() for t in (res.table12, res.table23, res.table13)] == [
            [list(row) for row in table] for table in _tables(expected)
        ]


def _dyadic(x):
    """``x`` on the 2^-30 grid: sums and differences of such times are exact,
    so a frame's gaps are the oracle's and only its arithmetic is compared."""
    return round(x * 2**30) / 2**30


class TestCircleFrame:
    """The real frame on the invariant y-z circle, against the exact-theta
    reference, and the engine's dispatch onto it."""

    @pytest.mark.parametrize("delta", [math.pi / 2, 0.37, 1e-1, 1e-3, 1e-6])
    @pytest.mark.parametrize("first_at_zero", [True, False])
    def test_against_exact_theta(self, delta, first_at_zero):
        # seeded planar points as the scan draws them: the state angle on the
        # full circle, the axis on the half circle, log gaps from e^-7 to e^0.4;
        # then up_y along the -y and +y axes, where one of a01 and a10 is
        # 1/K alone, at gaps up to the half period
        theta = math.pi / 2 - delta
        setup, evaluate = lgi._circle_frame(NHHamiltonian.canonical(theta))
        rng = np.random.default_rng(29)
        worst = 0.0
        for k in range(20):
            alpha_s, alpha_q = rng.uniform(-math.pi, math.pi), rng.uniform(0.0, math.pi)
            state = (math.cos(0.5 * alpha_s), math.sin(0.5 * alpha_s))
            axis = (math.sin(alpha_q), math.cos(alpha_q))
            g1, g2 = (_dyadic(g) for g in np.exp(rng.uniform(-7.0, 0.4, 2)).tolist())
            if k >= 16:
                state, axis = (math.sqrt(0.5), -math.sqrt(0.5)), (-1.0 if k % 2 else 1.0, 0.0)
                g1, g2 = _dyadic(rng.uniform(1.4, 1.5)), _dyadic(rng.uniform(1.4, 1.5))
            t1 = 0.0 if first_at_zero else _dyadic(rng.uniform(0.0, 1.5))
            times = (t1, t1 + g1, t1 + g1 + g2)
            got = evaluate(setup(state, axis), *times)
            expected = protocol(theta, (state[0], 1j * state[1]), (0.0, *axis), times).numbers
            worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
        assert worst <= 1e-14

    def test_dispatch(self):
        # circle inputs take the circle route: the search's states, up_y (the
        # form (i u, v)) and the canonical axis; a state or an axis an angle of
        # 1e-12 off the circle takes the Bloch route, at kappa = 0 and under
        # noise, where the circle route feeds the Bloch route's evaluate
        h = NHHamiltonian.canonical(1.2)
        engine, noisy = CorrelatorEngine(h), CorrelatorEngine(h, kappa=0.1)
        circle, bloch = engine._circle_route[1], engine._bloch_route[1]
        assert noisy._circle_route[1] is noisy._bloch_route[1]
        circle_setup, calls = noisy._circle_route[0], []
        noisy._circle_route = (
            lambda *args: calls.append(args) or circle_setup(*args),
            noisy._circle_route[1],
        )
        on = Observable.from_angles(0.7, 0.5 * math.pi)
        off = Observable.from_angles(0.7, 0.5 * math.pi + 1e-12)
        for psi, q, route in [
            (state_from_bloch_angles(1.1, 0.5 * math.pi), on, circle),
            (state_from_bloch_angles(1.1, 1.5 * math.pi), on, circle),
            (up_y(), Observable.canonical(), circle),
            (state_from_bloch_angles(1.1, 0.5 * math.pi + 1e-12), on, bloch),
            (state_from_bloch_angles(1.1, 0.5 * math.pi), off, bloch),
            (np.exp(0.3j) * up_y(), Observable.canonical(), bloch),
        ]:
            assert engine._protocol_inputs(psi, q).func is route
            calls.clear()
            assert noisy._protocol_inputs(psi, q).func is noisy._bloch_route[1]
            assert len(calls) == (route is circle)


CLOSURE_KAPPAS = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5]


@pytest.mark.parametrize("theta", CLOSURE_THETAS)
def test_lift_modes_decouple_x_exactly(theta):
    # a . b = 0, so x decays alone: the (trace, y, z) block of the closed
    # form never reads x, and x comes back as exp(decay t) x over the trace
    h = NHHamiltonian.canonical(theta)
    rng = np.random.default_rng(2028)
    for kappa in [0.0] + CLOSURE_KAPPAS:
        (_, m, beta, decay), (b1, b2) = _lift_coefficients(h, kappa)
        propagate = _lift_propagator(h, kappa)
        for _ in range(20):
            x, y, z = (0.5 * v for v in rng.uniform(-1.0, 1.0, 3).tolist())
            t = math.exp(rng.uniform(math.log(GAP_FLOOR), math.log(math.pi)))
            pmz = (1.0 + y, 1.0 - y, z)
            ex, c, s = dynamics._lift_weights(m, beta, decay, t)
            trace = 1.0 + c * _dot(b1[0], pmz) + s * _dot(b2[0], pmz)
            px, py, pz = propagate(t, (x, y, z))
            assert ex == math.exp(decay * t) and px == ex * x / trace
            assert propagate(t, (0.0, y, z)) == (0.0, py, pz)


@pytest.mark.parametrize("theta", CLOSURE_THETAS)
def test_noisy_circle_route_is_the_spinor_route(theta):
    # on the invariant circle the noisy engine's circle route gives the
    # spinor route's eight numbers bit for bit: both spinor forms (u, i v)
    # and (i u, v), both signs of u and v, the quarter turns (u or v zero, or
    # u = +/- v) and axes with ny = +/-1 or nz = +/-1
    h = NHHamiltonian.canonical(theta)
    rng = np.random.default_rng(2027)
    half = math.sqrt(0.5)
    states = [(1.0, 0.0), (0.0, 1.0), (half, half)] + [
        (math.cos(0.5 * a), math.sin(0.5 * a)) for a in rng.uniform(0.0, math.pi, 4).tolist()
    ]
    axes = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)] + [
        (math.sin(b), math.cos(b)) for b in rng.uniform(0.0, math.pi, 3).tolist()
    ]
    log_floor = math.log(GAP_FLOOR)
    for kappa in CLOSURE_KAPPAS:
        engine = CorrelatorEngine(h, kappa)
        circle_setup, evaluate = engine._circle_route
        spinor_setup, spinor_evaluate = engine._spinor_route
        for k, ((u0, v0), (ny, nz)) in enumerate(itertools.product(states, axes)):
            g1, g2 = np.exp(rng.uniform(log_floor, math.log(math.pi), size=2)).tolist()
            t1 = 0.0 if k % 2 else g2
            times = (t1, t1 + g1, t1 + g1 + g2)
            for u, v in itertools.product((u0, -u0), (v0, -v0)):
                got = [p.hex() for p in evaluate(circle_setup((u, v), (ny, nz)), *times)]
                forms = (complex(u, 0.0), complex(0.0, v)), (complex(0.0, u), complex(-v, 0.0))
                for psi in forms:
                    assert lgi._circle_coordinates(psi, (0.0, ny, nz)) == ((u, v), (ny, nz))
                    point = spinor_setup(psi, (0.0, ny, nz))
                    assert [p.hex() for p in spinor_evaluate(point, *times)] == got


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

    # the corner members take the circle frame, which the spinor frame's
    # rounded sec, tan and omega missed by -2.0 at THETA_MAX
    @pytest.mark.parametrize("theta", THETAS + [math.pi / 2 - 1e-3, THETA_MAX])
    def test_k3_value(self, theta):
        h = NHHamiltonian.canonical(theta)
        s = math.sin(theta)
        res = CorrelatorEngine(h).k3(
            up_y(), Observable.canonical(), 0.0, math.pi / 4, math.pi / 2
        )
        assert res.k3 == pytest.approx(1.0 + s + s * s, abs=1e-12)
        assert res.c13 == pytest.approx(-1.0, abs=1e-10)


class TestClosedForm:
    @pytest.mark.parametrize("delta", [0.37, 1e-3, 1e-6])
    def test_against_50_digits(self, delta):
        # on the CLI's 0.01 grid; written as 1 - sin theta and 1 + cos 2t sin
        # theta it was off by 3.1e-11 at delta = 1e-3 and 2.8e-10 at 1e-6
        theta = math.pi / 2 - delta
        worst = 0.0
        for t in (np.arange(1, 158) * 0.01).tolist():
            got, expected = k3_closed_form(theta, t), closed_form_k3(theta, t)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
        assert worst <= 2e-15

    @pytest.mark.parametrize("delta", [0.37, 1e-3, 1e-6])
    def test_reference_protocol_is_the_rational_forms(self, delta):
        # two routes at 50 digits, each rounded once: the exact-theta flow's
        # protocol and the textbook forms give the same floats.  At the float
        # time pi/4 the deficit is (1 - sin theta)(2 + sin theta) to 2.2e-16
        # relative at delta = 1e-3; at 1e-6 the time's rounding alone moves
        # it by 2.0e-8.
        theta = math.pi / 2 - delta
        for t in (0.1, 0.5, math.pi / 4, 1.2, 1.57):
            exact = protocol(theta, up_y(), (0.0, -1.0, 0.0), (0.0, t, 2.0 * t))
            assert exact.correlators == closed_form_k3(theta, t)
        s, c = math.sin(theta), math.cos(theta)
        exact = protocol(theta, up_y(), (0.0, -1.0, 0.0), (0.0, math.pi / 4, math.pi / 2))
        rel = 3e-8 if delta == 1e-6 else 1e-15
        assert exact.deficit == pytest.approx(c * c / (1.0 + s) * (2.0 + s), rel=rel)

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
        # sin(theta) rounds to 1 here, so 1 + cos(4t) sin(theta) would be 0
        with pytest.raises(ValueError):
            k3_closed_form(math.pi / 2 - 1e-9, math.pi / 4)
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
        # same protocol rebuilt on RK45 of the nonlinear Bloch equation
        # instead of the lift: the state's Bloch vector is propagated,
        # collapsed onto +/- n/2, and each branch propagated across the gap
        h = NHHamiltonian.canonical(theta)
        engine = CorrelatorEngine(h, kappa=kappa)
        q = Observable.from_angles(1.1, 0.6)
        psi0 = state_from_bloch_angles(0.8, 2.5)
        t_i, t_j = 0.4, 1.7
        got = engine.joint_table(projector(psi0), q, t_i, t_j)

        n = np.array(q.direction)
        s_i = integrate_bloch(bloch_of_pure(psi0), h, kappa, [0.0, t_i]).bloch[-1]
        probs = np.empty((2, 2))
        for row, sign in enumerate((1.0, -1.0)):
            weight = 0.5 + sign * float(n @ s_i)
            s_j = integrate_bloch(0.5 * sign * n, h, kappa, [0.0, t_j - t_i]).bloch[-1]
            cond = 0.5 + float(n @ s_j)
            probs[row] = weight * cond, weight * (1.0 - cond)
        np.testing.assert_allclose(got.probs, probs, atol=1e-7)

    @pytest.mark.parametrize("theta", [math.pi / 2 - 1e-4, THETA_MAX])
    def test_corner_is_accurate_or_refused(self, theta):
        # faint noise at the corner, where the eigendecomposed lift was
        # nearly defective and refused at THETA_MAX: the closed form returns
        # the exact lift's table at both, never a silently wrong (or NaN) one
        h = NHHamiltonian.canonical(theta)
        q = Observable.from_angles(1.1, 0.6)
        rho0 = projector(state_from_bloch_angles(0.8, 2.5))
        t_i, t_j, kappa = 0.4, 1.7, 1e-9
        got = CorrelatorEngine(h, kappa=kappa).joint_table(rho0, q, t_i, t_j)
        expected = protocol(theta, rho0, q.direction, (t_i, t_j, t_j), kappa, dps=60).tables[0]
        np.testing.assert_allclose(got.probs, expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("kappa", [1e-5, 1e-3])
    def test_corner_short_times_against_60_digits(self, kappa):
        # the corner optimum sits at times of order 1e-4, where the modes of
        # the lift (cond(V) 4.3e5 at kappa = 1e-5) cancel to a few digits;
        # over these draws the engine is within 1.3e-11 of a 60-digit
        # evaluation, while a pair row taken as twice one row of V^-1 is off
        # by 2.6e-6 at kappa = 1e-5 and 1.5e-9 at 1e-3
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
            expected = protocol(h.theta, rho0, q.direction, (t1, t2, t3), kappa, dps=60).tables
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


class TestLiftAccuracy:
    """The lift's closed form, against the 40-digit lift of H(theta) itself,
    over the advertised domain: accurate everywhere, refused nowhere."""

    DELTAS = [0.97, 0.37, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    KAPPAS = [0.0, 1e-12, 1e-8, 1e-5, 1e-2, 1.0, 1e2, 1e5]

    @pytest.mark.parametrize("delta", DELTAS)
    def test_k3_over_the_domain(self, delta):
        # one seeded draw per kappa and gap scale: a pure or mixed state, an
        # axis, t1 = 0 or not, gaps of 1e-4 to 1e-2 or of 0.1 to 1.5.  Over
        # 896 such draws the closed form was within 3.1e-13 at kappa > 0 and
        # 7.8e-16 at kappa = 0; the eigendecomposed lift was up to 1.6e-9
        # off and refused 70 of them.  A pure draw is evaluated as a density
        # matrix and as a spinor, which takes the Bloch route off the circle.
        # With the lift's projected frame at kappa = 0 these draws are within
        # 2.8e-16 there (density matrices and spinors alike), and 5.6e-16
        # over 128 wider kappa = 0 draws.
        theta = math.pi / 2 - delta
        h = NHHamiltonian.canonical(theta)
        rng = np.random.default_rng(round(-10 * math.log10(delta)))
        worst = [0.0, 0.0]  # at kappa = 0 and at kappa > 0
        for kappa in self.KAPPAS:
            engine = CorrelatorEngine(h, kappa)
            for lo, hi in ((1e-4, 1e-2), (0.1, 1.5)):
                length = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.0, 1.0)
                angles = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi)
                rho = density_from_bloch(0.5 * length * np.array(_bloch_axis(*angles)))
                q = Observable.from_angles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
                t1 = 0.0 if rng.uniform() < 0.5 else rng.uniform(lo, hi)
                t2 = t1 + rng.uniform(lo, hi)
                t3 = t2 + rng.uniform(lo, hi)
                k3 = protocol(theta, rho, q.direction, (t1, t2, t3), kappa, dps=40).correlators[3]
                states = [rho, state_from_bloch_angles(*angles)] if length == 1.0 else [rho]
                for state in states:
                    got = engine.k3(state, q, t1, t2, t3).k3
                    slot = kappa > 0.0
                    worst[slot] = max(worst[slot], abs(got - k3))
        assert worst[0] <= 1e-14 and worst[1] <= 1e-11

    def test_faint_noise_canonical_corner(self):
        # the eigendecomposed lift passed its residual check here and was
        # off by -4.1e-4; the closed form is -5.8e-11 off
        theta, kappa = math.pi / 2 - 1e-3, 1e-12
        times = (0.0, math.pi / 4, math.pi / 2)
        got = CorrelatorEngine(NHHamiltonian.canonical(theta), kappa).k3(
            up_y(), Observable.canonical(), *times
        )
        k3 = protocol(theta, projector(up_y()), (0.0, -1.0, 0.0), times, kappa).correlators[3]
        assert abs(got.k3 - k3) <= 1e-10

    def test_off_circle_probe_at_kappa_zero(self):
        # a state 1e-12 off the circle takes the lift's projected frame (the
        # Bloch route), which is -6.0e-14 off at THETA_MAX; the rounded sec
        # and tan were -2.0 off, then refused ("propagated trace -2.404e-04")
        psi = state_from_bloch_angles(math.pi / 2, 3 * math.pi / 2 + 1e-12)
        q = Observable.from_angles(math.pi / 2, math.pi / 2)
        times = (0.0, math.pi / 4, math.pi / 2)
        got = CorrelatorEngine(NHHamiltonian.canonical(THETA_MAX)).k3(psi, q, *times)
        k3 = protocol(THETA_MAX, projector(psi), q.direction, times, dps=60).correlators[3]
        assert abs(got.k3 - k3) <= 1e-12


def _oracle_basis(n):
    """The oracle's eigh eigenbasis of an axis, as pairs of scalars."""
    return tuple(tuple(e.tolist()) for e in axis_eigenstates(n))


def _eig_propagator(h, kappa):
    """Renormalised noisy flow on Bloch vectors: the eigendecomposed lift
    applied to each state in numpy, spectrum shifted to non-positive real part."""
    lam, v = np.linalg.eig(_lift_matrix(h, kappa))
    lam = lam - lam.real.max()
    v_inv = np.linalg.inv(v)

    def propagate(t, r):
        x = ((v * np.exp(lam * t)) @ (v_inv @ np.array((1.0,) + tuple(r)))).real
        return tuple((x[1:] / x[0]).tolist())

    return propagate


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

    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_times_named(self, kappa, t):
        engine = CorrelatorEngine(NHHamiltonian.canonical(0.5), kappa)
        q = Observable.canonical()
        with pytest.raises(ValueError, match=f"time t3 = {t!r} must be finite"):
            engine.k3(up_y(), q, 0.0, 0.5, t)
        with pytest.raises(ValueError, match=f"time t_j = {t!r} must be finite"):
            engine.joint_table(up_y(), q, 0.0, t)

    def test_engine_parameters(self):
        h = NHHamiltonian.canonical(0.5)
        with pytest.raises(ValueError):
            CorrelatorEngine(h, kappa=-0.1)
        # True used to run at kappa = 1 and False to build a pure engine
        for value in (True, False, np.True_):
            with pytest.raises(ValueError, match="^kappa must be a float, not the bool"):
                CorrelatorEngine(h, value)
        with pytest.raises(ValueError):
            CorrelatorEngine(h).joint_table([1.0, 1.0], Observable.canonical(), 0.0, 1.0)
