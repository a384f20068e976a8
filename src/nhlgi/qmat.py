"""Fixed-size complex linear algebra used throughout the library.

Pauli matrices, small matrix helpers and the trace distance between
density matrices.

The Pauli representation is pinned once for the whole package:

    sigma_x = [[0, 1], [1, 0]]
    sigma_y = [[0, -i], [i, 0]]
    sigma_z = [[1, 0], [0, -1]]

with basis states ``|up_z> = (1, 0)`` and ``|down_z> = (0, 1)``.  Every sign
convention downstream (measurement labelling, Bloch-frame components) is
resolved against this choice.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
    "ID4",
    "pauli",
    "pauli_vector",
    "dagger",
    "is_hermitian",
    "trace_distance",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def pauli(axis: str) -> np.ndarray:
    """Return a copy of the Pauli matrix for ``axis`` in {'x', 'y', 'z'}."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'x', 'y' or 'z'") from None


def pauli_vector(v) -> np.ndarray:
    """Contract a real 3-vector with the Pauli vector, v . sigma."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return np.asarray(m).conj().T


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether ``m`` equals its Hermitian conjugate within ``tol`` (Frobenius)."""
    m = np.asarray(m)
    return float(np.linalg.norm(m - m.conj().T)) <= tol


def trace_distance(rho1, rho2) -> float:
    """Trace distance ``0.5 * tr |rho1 - rho2|`` between density matrices.

    Both arguments must be Hermitian with unit trace.  For a pair of pure
    states the value equals ``sin`` of their geodesic (Fubini-Study) angle.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        if rho.shape != (2, 2):
            raise ValueError(f"{name}: expected a 2x2 density matrix, got {rho.shape}")
        if not is_hermitian(rho, tol=1e-8):
            raise ValueError(f"{name} is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-8:
            raise ValueError(f"{name} does not have unit trace")
    eigs = np.linalg.eigvalsh(rho1 - rho2)
    return float(min(1.0, max(0.0, 0.5 * np.sum(np.abs(eigs)))))
