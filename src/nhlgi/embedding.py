"""Hermitian dilation of the canonical non-Hermitian family.

Each member ``H_theta`` of the canonical family admits a positive metric

    eta = sec(theta) I + tan(theta) sigma_y

intertwining it with its adjoint, ``eta H_theta = H_theta^dag eta``.  The
pair (system + one ancilla qubit) then evolves unitarily under the Hermitian
total Hamiltonian

    H_T = I (x) H_s + sigma_y (x) V,
    H_s = cos(theta) sigma_x,      V = -sin(theta) sigma_z,

whose blocks reproduce the non-Hermitian generator through
``H_s - i V eta = H_theta``.  States of the form

    Psi_T = N_T ( |up_z> (x) psi + |down_z> (x) eta psi ),
    N_T = 1 / sqrt( <psi| (I + eta^2) |psi> ),

keep that form under ``exp(-i H_T t)`` with the upper block following the
renormalised non-Hermitian trajectory of ``psi``.  Post-selecting the
ancilla on ``up_z`` therefore simulates the non-Hermitian dynamics inside a
closed Hermitian system, at the cost of the selection probability
``p = (N_T / N(t))^2`` where ``1/N(t)`` is the propagated norm.

Ordering convention: ancilla (x) system, ancilla ``up_z = (1, 0)``, so the
upper two components of a 4-vector carry the post-selected system state.

The useful corner is ``theta = pi/2 - delta`` for small positive ``delta``;
at ``delta = 0`` exactly the embedded state degenerates to a product state
and the construction is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import NHHamiltonian, THETA_MAX, _axis_basis, validate_pure
from .lgi import (
    LgiResult,
    Observable,
    _propagating_frame,
    _pure_born,
    protocol,
)
from .qmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger

__all__ = [
    "PostselectionStarvationError",
    "Metric",
    "EmbeddedState",
    "theta_from_delta",
    "build_metric",
    "build_HT",
    "build_psi_T",
    "evolve_and_postselect",
    "k3_via_embedding",
]

_P_SELECT_FLOOR = 1e-14


class PostselectionStarvationError(RuntimeError):
    """Raised when the ancilla post-selection probability is unresolvably small."""


def theta_from_delta(delta: float) -> float:
    """Map the distance ``delta`` from the degenerate corner to ``theta``.

    ``delta = 0`` is rejected: there ``eta`` is no longer defined
    (``sec`` and ``tan`` diverge) and the embedded state collapses onto a
    separable ``|up_z> (x) psi``, so post-selection no longer simulates any
    non-Hermitian flow.
    """
    if not np.isfinite(delta) or delta <= 0.0:
        raise ValueError(
            "delta must be positive: at delta = 0 the embedded state is "
            "separable and the dilation degenerates"
        )
    theta = math.pi / 2 - delta
    if theta < 0.0:
        raise ValueError(f"delta = {delta!r} exceeds pi/2")
    return theta


@dataclass(frozen=True)
class Metric:
    """Positive intertwining metric for one canonical family member."""

    theta: float
    eta: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.eta)


def build_metric(theta: float) -> Metric:
    """Construct ``eta = sec(theta) I + tan(theta) sigma_y`` and verify it.

    The constructor checks positivity and the intertwining relation
    ``eta H_theta = H_theta^dag eta``.  The residual tolerance scales with
    the product norm because near ``theta = pi/2`` the relation involves a
    cancellation of order ``sec^2(theta)`` down to order one.
    """
    if not (0.0 <= theta <= THETA_MAX):
        raise ValueError(f"theta must lie in [0, pi/2 - 1e-6], got {theta!r}")
    eta = (1.0 / math.cos(theta)) * ID2 + math.tan(theta) * SIGMA_Y
    eigs = np.linalg.eigvalsh(eta)
    if eigs.min() <= 0.0:
        raise RuntimeError("metric lost positivity; construction bug")
    h = NHHamiltonian.canonical(theta).matrix
    residual = float(np.linalg.norm(eta @ h - dagger(h) @ eta))
    cap = 1e-10 * max(1.0, float(np.linalg.norm(eta)) * float(np.linalg.norm(h)))
    if residual > cap:
        raise RuntimeError(
            f"metric does not intertwine the Hamiltonian (residual {residual:.3e})"
        )
    return Metric(theta=theta, eta=eta)


@lru_cache(maxsize=128)
def _eta(theta: float) -> np.ndarray:
    """The verified metric of ``theta``, built once and shared read-only."""
    eta = build_metric(theta).eta
    eta.flags.writeable = False
    return eta


def build_HT(theta: float) -> np.ndarray:
    """Hermitian total Hamiltonian on ancilla (x) system.

    Verifies Hermiticity and both block identities that make the dilation
    work: ``H_s - i V eta = H_theta`` (upper block drives the renormalised
    flow) and ``i V + H_s eta = eta H_theta`` (lower block stays slaved to
    ``eta`` times the upper one).
    """
    metric = build_metric(theta)
    h_s = math.cos(theta) * SIGMA_X
    v = -math.sin(theta) * SIGMA_Z
    h_t = np.kron(ID2, h_s) + np.kron(SIGMA_Y, v)
    if np.linalg.norm(h_t - dagger(h_t)) > 1e-12:
        raise RuntimeError("total Hamiltonian is not Hermitian; construction bug")
    h = NHHamiltonian.canonical(theta).matrix
    upper = h_s - 1j * v @ metric.eta - h
    lower = 1j * v + h_s @ metric.eta - metric.eta @ h
    cap = 1e-10 * max(1.0, float(np.linalg.norm(metric.eta)) * float(np.linalg.norm(h)))
    if float(np.linalg.norm(upper)) > cap or float(np.linalg.norm(lower)) > cap:
        raise RuntimeError("block identities violated; construction bug")
    return h_t


@dataclass
class EmbeddedState:
    """Normalised 4-component state ``N_T (psi, eta psi)`` with its weight."""

    vector: np.ndarray
    n_t: float
    theta: float

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex)
        if self.vector.shape != (4,):
            raise ValueError("embedded state must have 4 components")
        if abs(float(np.linalg.norm(self.vector)) - 1.0) > 1e-12:
            raise ValueError("embedded state must be normalised")
        slaved = _eta(self.theta) @ self.vector[:2]
        if float(np.linalg.norm(self.vector[2:] - slaved)) > 1e-8 * max(
            1.0, float(np.linalg.norm(slaved))
        ):
            raise ValueError("lower block is not eta times the upper block")

    @property
    def upper(self) -> np.ndarray:
        return self.vector[:2]

    @property
    def lower(self) -> np.ndarray:
        return self.vector[2:]


def build_psi_T(theta: float, psi) -> EmbeddedState:
    """Embed a normalised system state into the ancilla-extended space."""
    psi = validate_pure(psi)
    eta = _eta(theta)
    weight = float(np.real(np.vdot(psi, psi) + np.vdot(eta @ psi, eta @ psi)))
    n_t = 1.0 / math.sqrt(weight)
    vec = np.concatenate([n_t * psi, n_t * (eta @ psi)])
    return EmbeddedState(vector=vec, n_t=n_t, theta=theta)


@lru_cache(maxsize=128)
def _total_eig(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of :func:`build_HT`, built once and shared read-only."""
    w, v = np.linalg.eigh(build_HT(theta))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _total_propagator(theta: float, t: float) -> np.ndarray:
    w, v = _total_eig(theta)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def evolve_and_postselect(
    theta: float, psi0, t: float
) -> tuple[np.ndarray, float]:
    """Unitary 4d evolution followed by ancilla post-selection on ``up_z``.

    Returns the normalised post-selected system state and the selection
    probability.  The state equals the renormalised non-Hermitian evolution
    of ``psi0`` and the probability satisfies ``p * N(t)^2 = N_T^2``.
    """
    embedded = build_psi_T(theta, psi0)
    evolved = _total_propagator(theta, t) @ embedded.vector
    upper = evolved[:2]
    p_select = float(np.real(np.vdot(upper, upper)))
    if p_select < _P_SELECT_FLOOR:
        raise PostselectionStarvationError(
            f"post-selection probability {p_select:.3e} below floor at t = {t!r}"
        )
    return upper / math.sqrt(p_select), p_select


def k3_via_embedding(
    theta: float,
    q: Observable | None = None,
    t1: float = 0.0,
    t2: float = math.pi / 4,
    t3: float = math.pi / 2,
    psi0=None,
) -> LgiResult:
    """Three-time protocol carried out entirely inside the dilated space.

    Every propagation step runs the Hermitian total Hamiltonian and
    post-selects the ancilla; measurement collapse happens on the system
    qubit and the collapsed eigenstate is re-embedded before the next leg.
    Agrees with the direct protocol of :mod:`nhlgi.lgi` to numerical
    precision.
    """
    from .dynamics import up_y

    if q is None:
        q = Observable.canonical()
    if psi0 is None:
        psi0 = up_y()
    psi0 = validate_pure(psi0)
    if not 0.0 <= t1 < t2 < t3:
        raise ValueError("need 0 <= t1 < t2 < t3")

    def propagate(t, psi):
        # Re-embed, evolve unitarily and post-select; the upper block comes
        # back normalised.
        upper, _ = evolve_and_postselect(theta, np.array(psi), t)
        return complex(upper[0]), complex(upper[1])

    first, transfer = _propagating_frame(propagate, _pure_born)(
        tuple(psi0.tolist()), _axis_basis(q.direction)
    )
    tables = protocol(first, transfer, t1, t2, t3)[3:]
    return LgiResult.from_tables(tables, (t1, t2, t3))
