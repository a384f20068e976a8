import math

import numpy as np
import pytest

from nhlgi import embedding
from nhlgi.qmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger
from nhlgi.dynamics import (
    THETA_MAX,
    NHHamiltonian,
    down_y,
    evolve_pure,
    propagated_norm,
    state_from_bloch_angles,
    up_y,
)
from nhlgi.lgi import CorrelatorEngine, LgiResult, Observable, _correlators, _tables
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
from nhlgi.embedding import _dilation, _embedded_run
from nhlgi.lgi import _propagating_frame
from oracles import protocol

THETAS = [0.0, 0.3, 1.0, 1.4, theta_from_delta(0.1)]


class TestThetaFromDelta:
    def test_mapping(self):
        assert theta_from_delta(0.1) == pytest.approx(math.pi / 2 - 0.1, abs=1e-15)
        assert theta_from_delta(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert theta_from_delta(1e-6) == THETA_MAX

    def test_degenerate_corner_rejected(self):
        with pytest.raises(ValueError):
            theta_from_delta(0.0)
        with pytest.raises(ValueError):
            theta_from_delta(-0.2)
        with pytest.raises(ValueError):
            theta_from_delta(2.0)
        for delta in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
            with pytest.raises(ValueError, match="delta must be positive"):
                theta_from_delta(delta)
        # below 1e-6 theta would leave the domain: refused by its own name
        with pytest.raises(ValueError, match="delta must be at least 1e-6, got 1e-07"):
            theta_from_delta(1e-7)
        # a bool is no distance: True would read as delta = 1
        for delta in (True, np.True_):
            with pytest.raises(ValueError, match="^delta must be a float, not the bool"):
                theta_from_delta(delta)
        with pytest.raises(ValueError, match="^delta must be a float, not the bool True$"):
            theta_from_delta(True)


class TestMetric:
    def test_pinned_form(self):
        theta = 0.7
        m = build_metric(theta)
        expected = ID2 / math.cos(theta) + math.tan(theta) * SIGMA_Y
        np.testing.assert_allclose(m.eta, expected, atol=1e-14)

    @pytest.mark.parametrize("theta", THETAS)
    def test_positive(self, theta):
        eigs = np.linalg.eigvalsh(build_metric(theta).eta)
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
        # Every later dilation at this theta shares the metric, so a write
        # must fail rather than corrupt it.
        eta = _dilation(0.9)[0]
        with pytest.raises(ValueError, match="read-only"):
            eta[0, 0] = 0.0
        assert _dilation(0.9)[0] is eta
        np.testing.assert_array_equal(eta, build_metric(0.9).eta)


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
            np.testing.assert_allclose(st.vector[2:], eta @ st.vector[:2], atol=1e-12)

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

    @pytest.mark.parametrize(
        "times, named", [((0.0, 0.5, math.inf), "t3 = inf"), ((0.0, math.nan, 1.0), "t2 = nan")]
    )
    def test_non_finite_times_refused(self, times, named):
        with pytest.raises(ValueError, match=f"time {named} must be finite"):
            k3_via_embedding(1.0, None, *times)


class TestNonFinite:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_evolve_refuses_non_finite_time(self, t):
        with pytest.raises(ValueError, match=f"time t = {t!r} must be finite"):
            evolve_and_postselect(1.0, up_y(), t)

    def test_kernel_never_answers_from_nan(self):
        # a NaN selection probability fails the floor instead of passing it
        postselect = _dilation(1.0)[1]
        with pytest.raises(PostselectionStarvationError, match="nan below floor"):
            postselect(0.5, (complex(math.nan), 0j))


def _reference_postselect(theta, psi, t):
    """The eigendecomposition route through ``exp(-i H_T t)``, rebuilt on
    every call: ``(vec, n_t, upper, p_select)``."""
    eta = build_metric(theta).eta
    weight = float(np.real(np.vdot(psi, psi) + np.vdot(eta @ psi, eta @ psi)))
    n_t = 1.0 / math.sqrt(weight)
    vec = np.concatenate([n_t * psi, n_t * (eta @ psi)])
    w, v = np.linalg.eigh(build_HT(theta))
    evolved = ((v * np.exp(-1j * w * t)) @ v.conj().T) @ vec
    upper = evolved[:2]
    p_select = float(np.real(np.vdot(upper, upper)))
    return vec, n_t, upper / math.sqrt(p_select), p_select


def _reference_k3(theta, q, times, psi0):
    def propagate(t, psi):
        upper = _reference_postselect(theta, np.array(psi), t)[2]
        return complex(upper[0]), complex(upper[1])

    setup, evaluate = _propagating_frame(propagate)
    values = evaluate(setup(tuple(psi0.tolist()), q.direction), *times)
    return LgiResult.from_tables(_tables(values), times)


def _random_cases(n, seed=1414):
    """Seeded (theta, psi, q, times) with theta uniform up to the corner or
    within 1e-6..1 of pi/2, and times t1 < t2 < t3 from zero."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        if k == 0:
            theta = THETA_MAX
        elif k % 2:
            theta = rng.uniform(0.0, THETA_MAX)
        else:
            theta = theta_from_delta(10.0 ** rng.uniform(-6.0, 0.0))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = Observable.from_angles(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
        t1 = 0.0 if k % 3 == 0 else rng.uniform(0.0, 1.0)
        t2 = t1 + rng.uniform(0.05, 2.0)
        yield theta, z / np.linalg.norm(z), q, (t1, t2, t2 + rng.uniform(0.05, 2.0))


def _rebuilt_postselect(theta, psi, t):
    """The closed-form kernel, rebuilt and re-verified on every call."""
    return embedding._dilation.__wrapped__(theta)[1](t, tuple(complex(c) for c in psi))


class TestOneDilationPerWorkingPoint:
    def test_bit_identical_to_per_call_rebuild(self):
        for theta, psi, q, times in _random_cases(300):
            st = build_psi_T(theta, psi)
            vec, n_t = embedding._embed(build_metric(theta).eta.tolist(), psi.tolist())
            assert np.array_equal(st.vector, np.array(vec)) and st.n_t == n_t
            upper, p_select = _rebuilt_postselect(theta, psi, times[1])
            got, p = evolve_and_postselect(theta, psi, times[1])
            assert np.array_equal(got, np.array(upper)) and p == p_select
            setup, evaluate = _propagating_frame(lambda t, c: _rebuilt_postselect(theta, c, t)[0])
            values = evaluate(setup(tuple(psi.tolist()), q.direction), *times)
            want = LgiResult.from_tables(_tables(values), times)
            res = k3_via_embedding(theta, q, *times, psi0=psi)
            assert (res.c12, res.c23, res.c13, res.k3) == (want.c12, want.c23, want.c13, want.k3)

    def test_closed_form_matches_eigh_arithmetic(self):
        # The kernel and the eigendecomposition of H_T are two routes to
        # exp(-i H_T t); they agree to rounding down to THETA_MAX.  Within
        # 1e-5 of the corner single correlators amplify that rounding to
        # 1.8e-10 while K3 stays within 5.3e-14.
        for theta, psi, q, times in _random_cases(300):
            vec, n_t, upper, p_select = _reference_postselect(theta, psi, times[1])
            st = build_psi_T(theta, psi)
            np.testing.assert_allclose(st.vector, vec, rtol=0.0, atol=1e-15)
            assert st.n_t == pytest.approx(n_t, rel=1e-15)
            got, p = evolve_and_postselect(theta, psi, times[1])
            np.testing.assert_allclose(got, upper, rtol=0.0, atol=1e-13)
            assert abs(p - p_select) <= 1e-13 * p_select
            res = k3_via_embedding(theta, q, *times, psi0=psi)
            want = _reference_k3(theta, q, times, psi)
            np.testing.assert_allclose(
                (res.c12, res.c23, res.c13), (want.c12, want.c23, want.c13), rtol=0, atol=1e-9
            )
            assert abs(res.k3 - want.k3) <= 1e-13

    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_canonical_point_to_the_corner(self, delta):
        # K3 = 1 + s + s^2 with s = sin(theta) = cos(delta) at the canonical
        # point, with no sec/tan cancellation on the way.
        s = math.cos(delta)
        assert abs(k3_via_embedding(theta_from_delta(delta)).k3 - (1.0 + s + s * s)) <= 4e-15

    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6])
    def test_against_the_exact_theta_protocol(self, delta):
        # the dilation as the corner's second route: over these 40 seeded
        # draws per delta it was within 6.7e-16 of the reference's eight
        # numbers and 1.4e-15 of its K3; each bound is 10x that
        theta = theta_from_delta(delta)
        rng = np.random.default_rng(round(-math.log10(delta)))
        for _ in range(40):
            psi = state_from_bloch_angles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
            q = Observable.from_angles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
            n = q.direction
            t1 = rng.uniform(0.0, 1.5)
            t2 = t1 + rng.uniform(1e-3, 1.5)
            t3 = t2 + rng.uniform(1e-3, 1.5)
            got = _embedded_run(theta, psi.tolist(), n)(t1, t2, t3)
            exact = protocol(theta, psi, n, (t1, t2, t3))
            assert max(abs(a - b) for a, b in zip(got, exact.numbers)) <= 6.7e-15
            c12, c23, c13 = _correlators(got)
            assert abs(c12 + c23 - c13 - exact.correlators[3]) <= 1.4e-14

    def test_validates_once_per_public_call(self, monkeypatch):
        counts = {"validate_pure": 0, "EmbeddedState": 0}
        validate = embedding.validate_pure

        def counting_validate(psi):
            counts["validate_pure"] += 1
            return validate(psi)

        def counting_post_init(self):
            counts["EmbeddedState"] += 1

        monkeypatch.setattr(embedding, "validate_pure", counting_validate)
        monkeypatch.setattr(EmbeddedState, "__post_init__", counting_post_init)
        psi0 = state_from_bloch_angles(1.0, 0.7)
        for call in (
            lambda: k3_via_embedding(1.2, t1=0.1, t2=0.7, t3=1.6, psi0=psi0),
            lambda: evolve_and_postselect(1.2, psi0, 0.4),
        ):
            counts.update({"validate_pure": 0, "EmbeddedState": 0})
            call()
            assert counts == {"validate_pure": 1, "EmbeddedState": 0}
