import numpy as np
import pytest

import nhlgi
from nhlgi.embedding import build_HT, build_metric
from nhlgi.qmat import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    is_hermitian,
    trace_distance,
)


class TestPauliAlgebra:
    def test_pinned_entries(self):
        np.testing.assert_array_equal(SIGMA_Y, np.array([[0, -1j], [1j, 0]]))
        np.testing.assert_array_equal(SIGMA_X, np.array([[0, 1], [1, 0]]))
        np.testing.assert_array_equal(SIGMA_Z, np.array([[1, 0], [0, -1]]))

    @pytest.mark.parametrize("s", [SIGMA_X, SIGMA_Y, SIGMA_Z])
    def test_involutive(self, s):
        np.testing.assert_allclose(s @ s, ID2, atol=1e-15)

    def test_commutators(self):
        # [sigma_i, sigma_j] = 2 i eps_ijk sigma_k
        np.testing.assert_allclose(
            SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z, atol=1e-15
        )
        np.testing.assert_allclose(
            SIGMA_Y @ SIGMA_Z - SIGMA_Z @ SIGMA_Y, 2j * SIGMA_X, atol=1e-15
        )
        np.testing.assert_allclose(
            SIGMA_Z @ SIGMA_X - SIGMA_X @ SIGMA_Z, 2j * SIGMA_Y, atol=1e-15
        )

    def test_constants_are_read_only(self):
        # every caller shares them: a write would change every later metric
        # and H_T, while the dilation's per-theta cache kept the old ones
        eta, h_t = build_metric(0.7).eta, build_HT(0.7)
        for name in ("SIGMA_X", "SIGMA_Y", "SIGMA_Z", "ID2"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(nhlgi, name)[0, 1] = 0
        np.testing.assert_array_equal(build_metric(0.7).eta, eta)
        np.testing.assert_array_equal(build_HT(0.7), h_t)

    def test_dagger(self):
        m = np.array([[1.0 + 2j, 3.0], [0.5j, -1.0]])
        np.testing.assert_array_equal(dagger(m), m.conj().T)
        assert is_hermitian(SIGMA_Y)
        assert not is_hermitian(SIGMA_X + 1j * SIGMA_Z)


class TestTraceDistance:
    def _pure(self, v):
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())

    def test_extremes(self):
        up = self._pure([1.0, 0.0])
        down = self._pure([0.0, 1.0])
        assert trace_distance(up, up) == pytest.approx(0.0, abs=1e-14)
        assert trace_distance(up, down) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            r1 = self._pure(rng.normal(size=2) + 1j * rng.normal(size=2))
            r2 = self._pure(rng.normal(size=2) + 1j * rng.normal(size=2))
            d = trace_distance(r1, r2)
            assert 0.0 <= d <= 1.0 + 1e-14
            assert d == pytest.approx(trace_distance(r2, r1), abs=1e-14)

    def test_pure_state_overlap_identity(self):
        # D = sqrt(1 - |<a|b>|^2) for pure states
        rng = np.random.default_rng(37)
        for _ in range(100):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            a = a / np.linalg.norm(a)
            b = b / np.linalg.norm(b)
            expected = np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2))
            assert trace_distance(self._pure(a), self._pure(b)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex))
