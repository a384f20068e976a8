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

``SIGMA_X``, ``SIGMA_Y``, ``SIGMA_Z`` and ``ID2`` are built on first access,
so importing the package loads no numpy, and are read-only: every caller
shares them, and a write would change every later metric and dilation.
"""

from __future__ import annotations

from ._numpy import np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
    "dagger",
    "is_hermitian",
    "trace_distance",
]

_CONSTANTS = ("SIGMA_X", "SIGMA_Y", "SIGMA_Z", "ID2")


def __getattr__(name):
    # PEP 562: the four constants are built together on the first access to
    # any of them, made read-only (they are shared) and cached as globals.
    if name not in _CONSTANTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    arrays = (
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
        np.eye(2, dtype=complex),
    )
    for key, array in zip(_CONSTANTS, arrays):
        array.flags.writeable = False
        globals()[key] = array
    return globals()[name]


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
