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

Since ``{H_s, V} = 0`` and ``H_s^2 + V^2 = I``, ``H_T^2 = I``; so on
``(x, y) = N_T (psi, eta psi)`` the post-selected block of ``exp(-i H_T t)``
is ``cos(t) x - i sin(t) H_s x - sin(t) V y``, free of the 2x2 ``sec``/``tan``.
Each ``theta`` caches this scalar kernel and the verified metric; public
calls validate once, the legs of :func:`k3_via_embedding` never.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

from . import qmat
from ._numpy import np
from .dynamics import (
    NHHamiltonian,
    _check_finite_times,
    _check_theta,
    _is_bool,
    up_y,
    validate_pure,
)
from .lgi import LgiResult, Observable, _k3_result, _propagating_frame
from .qmat import dagger

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
    non-Hermitian flow.  A ``delta`` below 1e-6 is refused by name too: its
    theta lies past ``THETA_MAX``, outside the library's domain;
    ``delta = 1e-6`` maps to ``THETA_MAX`` exactly.  A bool is refused by
    name, as every theta and kappa is.
    """
    if _is_bool(delta):
        raise ValueError(f"delta must be a float, not the bool {delta!r}")
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError(
            "delta must be positive: at delta = 0 the embedded state is "
            "separable and the dilation degenerates"
        )
    if delta < 1e-6:
        raise ValueError(f"delta must be at least 1e-6, got {delta!r}")
    theta = math.pi / 2 - delta
    if theta < 0.0:
        raise ValueError(f"delta = {delta!r} exceeds pi/2")
    return theta


@dataclass(frozen=True)
class Metric:
    """Positive intertwining metric for one canonical family member."""

    theta: float
    eta: np.ndarray


def build_metric(theta: float) -> Metric:
    """Construct ``eta = sec(theta) I + tan(theta) sigma_y`` and verify it.

    The constructor checks positivity and the intertwining relation
    ``eta H_theta = H_theta^dag eta``.  The residual tolerance scales with
    the product norm because near ``theta = pi/2`` the relation involves a
    cancellation of order ``sec^2(theta)`` down to order one.
    """
    _check_theta(theta)
    eta = (1.0 / math.cos(theta)) * qmat.ID2 + math.tan(theta) * qmat.SIGMA_Y
    if np.linalg.eigvalsh(eta).min() <= 0.0:
        raise RuntimeError("metric lost positivity; construction bug")
    h = NHHamiltonian.canonical(theta).matrix
    residual = float(np.linalg.norm(eta @ h - dagger(h) @ eta))
    cap = 1e-10 * max(1.0, float(np.linalg.norm(eta)) * float(np.linalg.norm(h)))
    if residual > cap:
        raise RuntimeError(f"eta does not intertwine H_theta (residual {residual:.3e})")
    return Metric(theta=theta, eta=eta)


def build_HT(theta: float) -> np.ndarray:
    """Hermitian total Hamiltonian on ancilla (x) system.

    Verifies Hermiticity, ``H_T^2 = I`` (the kernel of :func:`_dilation`
    rests on it) and both block identities that make the dilation work:
    ``H_s - i V eta = H_theta`` (upper block drives the renormalised flow)
    and ``i V + H_s eta = eta H_theta`` (lower block stays slaved to ``eta``
    times the upper one).
    """
    metric = build_metric(theta)
    h_s = math.cos(theta) * qmat.SIGMA_X
    v = -math.sin(theta) * qmat.SIGMA_Z
    h_t = np.kron(qmat.ID2, h_s) + np.kron(qmat.SIGMA_Y, v)
    square = np.linalg.norm(h_t @ h_t - np.eye(4))
    if max(np.linalg.norm(h_t - dagger(h_t)), square) > 1e-12:
        raise RuntimeError("H_T is not a Hermitian involution; construction bug")
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
        slaved = _dilation(self.theta)[0] @ self.vector[:2]
        cap = 1e-8 * max(1.0, np.linalg.norm(slaved))
        if np.linalg.norm(self.vector[2:] - slaved) > cap:
            raise ValueError("lower block is not eta times the upper block")


def _embed(eta, psi):
    """``((x0, x1, y0, y1), N_T)`` of ``N_T (psi, eta psi)`` for the rows of
    ``eta`` and a validated spinor pair ``psi``, all plain scalars."""
    (e00, e01), (e10, e11) = eta
    a, b = psi
    ya, yb = e00 * a + e01 * b, e10 * a + e11 * b
    n_t = 1.0 / math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(ya) ** 2 + abs(yb) ** 2)
    return (n_t * a, n_t * b, n_t * ya, n_t * yb), n_t


def build_psi_T(theta: float, psi) -> EmbeddedState:
    """Embed a normalised system state into the ancilla-extended space."""
    psi = validate_pure(psi)
    vec, n_t = _embed(_dilation(theta)[0].tolist(), psi.tolist())
    return EmbeddedState(vector=vec, n_t=n_t, theta=theta)


@lru_cache(maxsize=128)
def _dilation(theta: float):
    """``(eta, postselect)`` of ``theta``: the verified metric, read-only, and
    ``postselect(t, psi) -> ((u0, u1), p_select)`` on spinor pairs.  It embeds
    ``psi``, applies ``cos(t) I - i sin(t) H_T`` and post-selects, on scalars."""
    eta = build_metric(theta).eta
    eta.flags.writeable = False
    build_HT(theta)
    rows = eta.tolist()
    c, s = math.cos(theta), math.sin(theta)

    def postselect(t, psi):
        (x0, x1, y0, y1), _ = _embed(rows, psi)
        cos_t, sin_t = math.cos(t), math.sin(t)
        hop, vs = complex(0.0, -sin_t * c), sin_t * s
        u0, u1 = cos_t * x0 + hop * x1 + vs * y0, cos_t * x1 + hop * x0 - vs * y1
        p_select = abs(u0) ** 2 + abs(u1) ** 2
        if not p_select >= _P_SELECT_FLOOR:
            raise PostselectionStarvationError(
                f"post-selection probability {p_select:.3e} below floor at t = {t!r}"
            )
        r = math.sqrt(p_select)
        return (u0 / r, u1 / r), p_select

    return eta, postselect


def evolve_and_postselect(theta: float, psi0, t: float) -> tuple[np.ndarray, float]:
    """Unitary 4d evolution followed by ancilla post-selection on ``up_z``.

    Returns the normalised post-selected system state and the selection
    probability.  The state equals the renormalised non-Hermitian evolution
    of ``psi0`` and the probability satisfies ``p * N(t)^2 = N_T^2``.
    """
    psi0 = validate_pure(psi0)
    _check_finite_times(t=t)
    upper, p_select = _dilation(theta)[1](t, psi0.tolist())
    return np.array(upper), p_select


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
    if q is None:
        q = Observable.canonical()
    psi0 = validate_pure(up_y() if psi0 is None else psi0)
    return _k3_result(_embedded_run(theta, psi0.tolist(), q.direction), t1, t2, t3, 0.0)


def _embedded_run(theta: float, psi: list, n):
    """The unvalidated protocol run of the dilation from the spinor ``psi``
    (a list of two complex amplitudes) along the unit axis ``n``: a callable
    ``run(t1, t2, t3)`` returning the eight numbers of the protocol, from
    :func:`nhlgi.lgi._propagating_frame` over the post-selected flow."""
    postselect = _dilation(theta)[1]
    # each leg re-embeds, evolves, post-selects and returns the normalised upper block
    setup, evaluate = _propagating_frame(lambda t, chi: postselect(t, chi)[0])
    return partial(evaluate, setup(psi, n))
