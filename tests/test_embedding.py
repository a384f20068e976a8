import math

import numpy as np
import pytest

from nhlgi.qmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger
from nhlgi.dynamics import (
    NHHamiltonian,
    down_y,
    evolve_pure,
    propagated_norm,
    state_from_bloch_angles,
    up_y,
)
from nhlgi.lgi import CorrelatorEngine, Observable
from nhlgi.embedding import (
    EmbeddedState,
    Metric,
    PostselectionStarvationError,
    build_HT,
    build_metric,
    build_psi_T,
    evolve_and_postselect,
    k3_via_embedding,
    theta_from_delta,
)
from nhlgi.embedding import _eta, _total_eig

THETAS = [0.0, 0.3, 1.0, 1.4, theta_from_delta(0.1)]


class TestThetaFromDelta:
    def test_mapping(self):
        assert theta_from_delta(0.1) == pytest.approx(math.pi / 2 - 0.1, abs=1e-15)
        assert theta_from_delta(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_corner_rejected(self):
        with pytest.raises(ValueError):
            theta_from_delta(0.0)
        with pytest.raises(ValueError):
            theta_from_delta(-0.2)
        with pytest.raises(ValueError):
            theta_from_delta(2.0)


class TestMetric:
    def test_pinned_form(self):
        theta = 0.7
        m = build_metric(theta)
        expected = ID2 / math.cos(theta) + math.tan(theta) * SIGMA_Y
        np.testing.assert_allclose(m.eta, expected, atol=1e-14)

    @pytest.mark.parametrize("theta", THETAS)
    def test_positive(self, theta):
        eigs = build_metric(theta).eigenvalues
        assert np.all(eigs > 0.0)
        s, c = math.sin(theta), math.cos(theta)
        np.testing.assert_allclose(
            np.sort(eigs), [(1.0 - s) / c, (1.0 + s) / c], atol=1e-12
        )

    @pytest.mark.parametrize("theta", THETAS)
    def test_intertwines_hamiltonian(self, theta):
        eta = build_metric(theta).eta
        h = NHHamiltonian.canonical(theta).matrix
        np.testing.assert_allclose(eta @ h, dagger(h) @ eta, atol=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            build_metric(-0.1)
        with pytest.raises(ValueError):
            build_metric(math.pi / 2)
        assert isinstance(build_metric(0.0), Metric)


class TestTotalHamiltonian:
    @pytest.mark.parametrize("theta", THETAS)
    def test_hermitian_with_unit_gap(self, theta):
        h_t = build_HT(theta)
        np.testing.assert_allclose(h_t, dagger(h_t), atol=1e-14)
        # the dilation preserves the +-1 spectrum, now doubly degenerate
        np.testing.assert_allclose(
            np.linalg.eigvalsh(h_t), [-1.0, -1.0, 1.0, 1.0], atol=1e-12
        )

    def test_block_structure(self):
        theta = 0.9
        h_t = build_HT(theta)
        h_s = math.cos(theta) * SIGMA_X
        v = -math.sin(theta) * SIGMA_Z
        np.testing.assert_allclose(h_t[:2, :2], h_s, atol=1e-14)
        np.testing.assert_allclose(h_t[2:, 2:], h_s, atol=1e-14)
        np.testing.assert_allclose(h_t[:2, 2:], -1j * v, atol=1e-14)
        np.testing.assert_allclose(h_t[2:, :2], 1j * v, atol=1e-14)

    def test_cached_arrays_are_read_only(self):
        # Every later dilation at this theta shares these arrays, so a write
        # must fail rather than corrupt them.
        theta = 0.9
        w, v = _total_eig(theta)
        for array in (w, v, _eta(theta)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        np.testing.assert_allclose(w, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


class TestEmbeddedState:
    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.4])
    def test_weights_for_axis_states(self, theta):
        s = math.sin(theta)
        c = math.cos(theta)
        st = build_psi_T(theta, up_y())
        assert np.linalg.norm(st.vector) == pytest.approx(1.0, abs=1e-14)
        assert st.n_t == pytest.approx(math.sqrt((1.0 + s) / 2.0), abs=1e-12)
        assert st.n_t == pytest.approx(c / math.sqrt(2.0 * (1.0 - s)), abs=1e-12)
        assert build_psi_T(theta, down_y()).n_t == pytest.approx(
            math.sqrt((1.0 - s) / 2.0), abs=1e-12
        )

    def test_lower_block_slaved(self):
        theta = 1.2
        eta = build_metric(theta).eta
        rng = np.random.default_rng(61)
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            st = build_psi_T(theta, v / np.linalg.norm(v))
            np.testing.assert_allclose(st.lower, eta @ st.upper, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddedState(
                vector=np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
                n_t=1.0,
                theta=0.9,
            )
        with pytest.raises(ValueError):
            EmbeddedState(
                vector=np.array([1.0, 0.0, 0.0], dtype=complex), n_t=1.0, theta=0.9
            )
        assert issubclass(PostselectionStarvationError, RuntimeError)


class TestEvolveAndPostselect:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.4])
    def test_reproduces_renormalised_flow(self, theta):
        h = NHHamiltonian.canonical(theta)
        for psi0 in (up_y(), state_from_bloch_angles(1.0, 0.7)):
            for t in np.linspace(0.0, math.pi, 13):
                psi_emb, _ = evolve_and_postselect(theta, psi0, t)
                fid = abs(np.vdot(evolve_pure(h, psi0, t), psi_emb)) ** 2
                assert fid == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("theta", [0.3, 1.0, theta_from_delta(0.1)])
    def test_selection_probability_identity(self, theta):
        h = NHHamiltonian.canonical(theta)
        psi0 = state_from_bloch_angles(2.0, 4.1)
        n_t2 = build_psi_T(theta, psi0).n_t ** 2
        for t in np.linspace(0.0, math.pi, 9):
            _, p = evolve_and_postselect(theta, psi0, t)
            n2 = propagated_norm(h, psi0, t) ** 2
            assert p == pytest.approx(n_t2 * n2, abs=1e-12)
            assert p <= 1.0 + 1e-12

    def test_selection_probability_closed_form(self):
        # for up_y the probability is (1 + cos 2t sin theta) / 2
        theta = 1.1
        s = math.sin(theta)
        for t in np.linspace(0.0, math.pi / 2, 9):
            _, p = evolve_and_postselect(theta, up_y(), t)
            assert p == pytest.approx((1.0 + math.cos(2.0 * t) * s) / 2.0, abs=1e-12)

    def test_probability_shrinks_towards_half_period(self):
        theta = theta_from_delta(0.2)
        probs = [
            evolve_and_postselect(theta, up_y(), t)[1]
            for t in np.linspace(0.0, math.pi / 2, 8)
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))


class TestK3ViaEmbedding:
    def test_default_protocol_near_corner(self):
        theta = theta_from_delta(0.1)
        s = math.sin(theta)
        res = k3_via_embedding(theta)
        assert res.k3 == pytest.approx(1.0 + s + s * s, abs=1e-9)
        assert res.times == (0.0, math.pi / 4, math.pi / 2)

    @pytest.mark.parametrize("theta", [0.4, 1.2])
    def test_matches_direct_protocol(self, theta):
        h = NHHamiltonian.canonical(theta)
        q = Observable.from_angles(1.3, 0.4)
        psi0 = state_from_bloch_angles(1.0, 0.7)
        direct = CorrelatorEngine(h).k3(psi0, q, 0.3, 0.8, 1.9)
        embedded = k3_via_embedding(theta, q=q, t1=0.3, t2=0.8, t3=1.9, psi0=psi0)
        assert embedded.k3 == pytest.approx(direct.k3, abs=1e-10)
        for got, want in (
            (embedded.table12, direct.table12),
            (embedded.table23, direct.table23),
            (embedded.table13, direct.table13),
        ):
            np.testing.assert_allclose(got.probs, want.probs, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            k3_via_embedding(1.0, t1=0.5, t2=0.5, t3=1.0)
        with pytest.raises(ValueError):
            k3_via_embedding(math.pi / 2)
