"""Three-time temporal correlators and the K3 combination.

The dichotomic observable ``Q = q_hat . sigma`` is measured projectively at
two of three ordered times; each two-time joint distribution is built by the
invasive protocol

    propagate the state to the first time, read off the Born probability of
    the outcome, collapse onto the corresponding eigenprojector, propagate
    the collapsed state across the gap, read off the second Born
    probability,

and the correlators ``C_ij = sum_{q_i q_j} q_i q_j P(q_i, q_j)`` combine into

    K3 = C_12 + C_23 - C_13.

Projective measurements on a Hermitian two-level system bound K3 by 3/2; the
renormalised non-Hermitian flow of :mod:`nhlgi.dynamics` pushes it towards
the algebraic ceiling of 3 as the canonical family parameter approaches
pi/2.  With equal spacing ``t`` between the measurement times, the initial
state ``up_y`` and the canonical observable (axis ``-y``), all four joint
distributions have closed forms, exposed here as :func:`k3_closed_form`.

Noisy correlators (``kappa > 0``) propagate density matrices with the exact
solution of the linear lift of the depolarising flow; the independently
integrated :func:`nhlgi.dynamics.evolve_density_noisy` serves as the
cross-check, not the engine, so scans stay fast and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import NHHamiltonian, validate_density, validate_pure
from .qmat import ID2, ID4, pauli_vector

__all__ = [
    "LUDER_BOUND",
    "ALGEBRAIC_BOUND",
    "Observable",
    "JointTable",
    "LgiResult",
    "CorrelatorEngine",
    "pure_propagator",
    "pure_protocol",
    "k3_closed_form",
]

LUDER_BOUND = 1.5
ALGEBRAIC_BOUND = 3.0

_OUTCOMES = (+1, -1)


@dataclass(frozen=True)
class Observable:
    """Dichotomic spin observable along a unit axis.

    Outcome +1 collapses onto the eigenstate with ``q_hat . sigma = +1``.
    The canonical choice points along ``-y`` so that the reference state
    :func:`nhlgi.dynamics.up_y` is its +1 eigenstate under the pinned Pauli
    representation.
    """

    direction: tuple[float, float, float]

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or not np.all(np.isfinite(d)):
            raise ValueError("observable axis must be a finite 3-vector")
        if abs(float(np.linalg.norm(d)) - 1.0) > 1e-12:
            raise ValueError("observable axis must be a unit vector")
        object.__setattr__(self, "direction", (float(d[0]), float(d[1]), float(d[2])))

    @classmethod
    def from_angles(cls, theta_q: float, phi_q: float) -> "Observable":
        d = np.array(
            [
                math.sin(theta_q) * math.cos(phi_q),
                math.sin(theta_q) * math.sin(phi_q),
                math.cos(theta_q),
            ]
        )
        return cls(tuple(d / np.linalg.norm(d)))

    @classmethod
    def canonical(cls) -> "Observable":
        return cls((0.0, -1.0, 0.0))

    @cached_property
    def operator(self) -> np.ndarray:
        return pauli_vector(np.asarray(self.direction))

    @cached_property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank-1 projectors onto the (+1, -1) eigenspaces, in that order."""
        op = self.operator
        return 0.5 * (ID2 + op), 0.5 * (ID2 - op)

    @cached_property
    def eigenstates(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalised (+1, -1) eigenvectors with deterministic phases."""
        return self._eigenstate(0), self._eigenstate(1)

    def projector(self, outcome: int) -> np.ndarray:
        if outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
        return self.projectors[_OUTCOMES.index(outcome)]

    def eigenstate(self, outcome: int) -> np.ndarray:
        if outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
        return self.eigenstates[_OUTCOMES.index(outcome)]

    def _eigenstate(self, index: int) -> np.ndarray:
        p = self.projectors[index]
        j = int(np.argmax(np.diagonal(p).real))
        chi = p[:, j] / math.sqrt(max(p[j, j].real, 1e-300))
        k = int(np.argmax(np.abs(chi)))
        chi = chi * (chi[k].conj() / abs(chi[k]))
        return chi


@dataclass
class JointTable:
    """Two-time joint outcome distribution P(q_i, q_j).

    ``probs[i, j]`` indexes outcomes in the order (+1, -1) for the first and
    second measurement respectively.
    """

    probs: np.ndarray
    t_i: float
    t_j: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (2, 2):
            raise ValueError("joint table must be 2x2")
        if np.any(self.probs < -1e-10) or np.any(self.probs > 1.0 + 1e-10):
            raise ValueError("joint probabilities outside [0, 1]")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")

    def prob(self, q_i: int, q_j: int) -> float:
        return float(self.probs[_OUTCOMES.index(q_i), _OUTCOMES.index(q_j)])

    @property
    def correlator(self) -> float:
        p = self.probs
        return float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])


@dataclass
class LgiResult:
    """Correlators, joint tables and the K3 combination for one protocol run."""

    c12: float
    c23: float
    c13: float
    k3: float
    table12: JointTable
    table23: JointTable
    table13: JointTable
    times: tuple[float, float, float]
    kappa: float

    def __post_init__(self):
        if abs(self.k3 - (self.c12 + self.c23 - self.c13)) > 1e-12:
            raise ValueError("K3 must equal C12 + C23 - C13")
        if abs(self.k3) > ALGEBRAIC_BOUND + 1e-9:
            raise ValueError(f"K3 = {self.k3!r} outside the algebraic range")

    @classmethod
    def from_tables(cls, tables, times, kappa: float = 0.0) -> "LgiResult":
        """Validated result from the joint tables of the pairs (1,2), (2,3), (1,3)."""
        t1, t2, t3 = times
        tab12, tab23, tab13 = (
            JointTable(probs, t_i, t_j)
            for probs, (t_i, t_j) in zip(tables, ((t1, t2), (t2, t3), (t1, t3)))
        )
        c12, c23, c13 = tab12.correlator, tab23.correlator, tab13.correlator
        return cls(
            c12=c12,
            c23=c23,
            c13=c13,
            k3=c12 + c23 - c13,
            table12=tab12,
            table23=tab23,
            table13=tab13,
            times=(t1, t2, t3),
            kappa=kappa,
        )


def pure_propagator(h: NHHamiltonian):
    """Renormalised pure-state flow of ``h`` on plain complex scalars.

    Returns ``propagate(t, a, b) -> (a, b)``, the closed form
    ``exp(-i H t) = cos(w t) I - i sin(w t)/w M`` applied to the state
    ``(a, b)`` and normalised.  The entries of ``M`` are bound once, so the
    call does no numpy work and no validation; it is the propagator that
    :func:`pure_protocol` expects.
    """
    w = h.omega
    (m00, m01), (m10, m11) = h.matrix.tolist()

    def propagate(t, a, b):
        c = math.cos(w * t)
        s = -1j * (math.sin(w * t) / w)
        x = c * a + s * (m00 * a + m01 * b)
        y = c * b + s * (m10 * a + m11 * b)
        n = math.hypot(x.real, x.imag, y.real, y.imag)
        return x / n, y / n

    return propagate


def _pure_joint(v, chi, propagate, gap):
    """Joint table ``((p++, p+-), (p-+, p--))`` of one measurement pair.

    ``v`` is the normalised state just before the first measurement,
    ``chi`` the (+1, -1) eigenstates of the measured axis.  The first Born
    probabilities are clipped to [0, 1] and renormalised; each collapse
    branch is propagated across ``gap`` and its +1 probability capped at 1.
    """
    (p0, p1), (m0, m1) = chi
    p0, p1, m0, m1 = p0.conjugate(), p1.conjugate(), m0.conjugate(), m1.conjugate()
    a, b = v
    first_p = min(1.0, max(0.0, abs(p0 * a + p1 * b) ** 2))
    first_m = min(1.0, max(0.0, abs(m0 * a + m1 * b) ** 2))
    total = first_p + first_m
    rows = []
    for first, branch in ((first_p / total, chi[0]), (first_m / total, chi[1])):
        x, y = propagate(gap, *branch)
        cond_plus = min(1.0, abs(p0 * x + p1 * y) ** 2)
        rows.append((first * cond_plus, first * (1.0 - cond_plus)))
    return tuple(rows)


def pure_protocol(psi, chi, propagate, t1: float, t2: float, t3: float):
    """The invasive three-time protocol for a pure state, on complex scalars.

    ``psi = (a, b)`` is a normalised state, ``chi`` the pair of (+1, -1)
    eigenstates of the measured axis, ``propagate(t, a, b) -> (a, b)`` a
    renormalised flow (see :func:`pure_propagator`) and ``t1 < t2 < t3``.
    The state is propagated once to ``t1`` (shared by the pairs (1,2) and
    (1,3)) and once to ``t2``.  Nothing is validated: callers check their
    inputs once, outside any loop.

    Returns ``(c12, c23, c13, table12, table23, table13)`` with each table
    nested as ``((p++, p+-), (p-+, p--))``.
    """
    v1 = propagate(t1, *psi)
    tables = (
        _pure_joint(v1, chi, propagate, t2 - t1),
        _pure_joint(propagate(t2, *psi), chi, propagate, t3 - t2),
        _pure_joint(v1, chi, propagate, t3 - t1),
    )
    c12, c23, c13 = (p[0][0] - p[0][1] - p[1][0] + p[1][1] for p in tables)
    return (c12, c23, c13) + tables


class _LiftedPropagator:
    """Exact propagator for the linear lift of the noisy renormalised flow.

    The normalised solution of the depolarising equation of motion equals
    ``rho = rho_tilde / tr(rho_tilde)`` where the lift obeys the linear
    equation

        d(rho_tilde)/dt = -i H rho_tilde + i rho_tilde H^dag
                          + kappa (tr(rho_tilde) I - 2 rho_tilde),

    a fixed 4x4 system solved once by eigendecomposition.  Falls back to
    scaling-and-squaring per call if the lift happens to be numerically
    defective.

    The lift may hold a genuinely growing mode (the trace pump amplifies
    through the anti-Hermitian coupling when ``kappa`` is comparable to the
    amplification rate), so the exponential is evaluated with the spectrum
    shifted to non-positive real part; the scalar factor ``exp(mu tau)``
    cancels in the trace normalisation.
    """

    def __init__(self, h: NHHamiltonian, kappa: float):
        hm = h.matrix
        lift = -1j * np.kron(hm, ID2) + 1j * np.kron(ID2, hm.conj())
        trace_row = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
        lift = lift + kappa * (np.outer(ID2.reshape(-1), trace_row) - 2.0 * ID4)
        self._lift = lift
        w, v = np.linalg.eig(lift)
        self._shift = float(np.max(w.real))
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            v_inv = None
        self._diagonalisable = (
            v_inv is not None
            and float(np.linalg.norm((v * w) @ v_inv - lift))
            <= 1e-8 * max(1.0, float(np.linalg.norm(lift)))
        )
        self._w, self._v, self._v_inv = w, v, v_inv

    def __call__(self, rho: np.ndarray, tau: float) -> np.ndarray:
        if tau == 0.0:
            return rho
        if self._diagonalisable:
            coeff = self._v_inv @ rho.reshape(-1)
            decay = np.exp((self._w - self._shift) * tau)
            out = (self._v @ (decay * coeff)).reshape(2, 2)
        else:
            from scipy.linalg import expm

            out = (
                expm((self._lift - self._shift * ID4) * tau) @ rho.reshape(-1)
            ).reshape(2, 2)
        out = 0.5 * (out + out.conj().T)
        return out / out.trace().real


class CorrelatorEngine:
    """Protocol evaluator bound to one Hamiltonian and one noise strength.

    Building the engine once and reusing it amortises the propagator setup,
    which matters inside parameter scans.  For ``kappa = 0`` and a pure
    input the protocol runs in :func:`pure_protocol` on complex scalars;
    density matrices and noisy flows share a single density-matrix path.
    """

    def __init__(self, h: NHHamiltonian, kappa: float = 0.0):
        if kappa < 0.0 or not np.isfinite(kappa):
            raise ValueError("kappa must be a finite non-negative rate")
        self.hamiltonian = h
        self.kappa = float(kappa)
        self._lift = _LiftedPropagator(h, kappa) if kappa > 0.0 else None
        self._propagate = pure_propagator(h) if kappa == 0.0 else None

    # -- propagation helpers ------------------------------------------------

    def _propagate_density(self, rho: np.ndarray, tau: float) -> np.ndarray:
        if self._lift is not None:
            return self._lift(rho, tau)
        u = self.hamiltonian.propagator(tau)
        m = u @ rho @ u.conj().T
        return m / m.trace().real

    # -- joint distributions ------------------------------------------------

    def _table_density(self, rho, q: Observable, t_i: float, gap: float) -> np.ndarray:
        rho_i = self._propagate_density(rho, t_i)
        proj = q.projectors
        first = np.array(
            [np.trace(proj[0] @ rho_i).real, np.trace(proj[1] @ rho_i).real]
        )
        first = np.clip(first, 0.0, 1.0)
        first = first / first.sum()
        probs = np.empty((2, 2))
        for i in range(2):
            # The collapsed state is the projector itself (rank 1, unit trace).
            rho_f = self._propagate_density(proj[i], gap)
            cond_plus = min(1.0, max(0.0, np.trace(proj[0] @ rho_f).real))
            probs[i, 0] = first[i] * cond_plus
            probs[i, 1] = first[i] * (1.0 - cond_plus)
        return probs

    def joint_table(self, state, q: Observable, t_i: float, t_j: float) -> JointTable:
        """Joint distribution of outcomes at ``t_i < t_j`` from time zero."""
        state = _validate_state(state)
        if not 0.0 <= t_i < t_j:
            raise ValueError("need 0 <= t_i < t_j")
        if state.ndim == 1 and self.kappa == 0.0:
            v = self._propagate(t_i, *state.tolist())
            probs = _pure_joint(v, _eigenstates(q), self._propagate, t_j - t_i)
        else:
            probs = self._table_density(_density(state), q, t_i, t_j - t_i)
        return JointTable(probs, t_i, t_j)

    def correlator(self, state, q: Observable, t_i: float, t_j: float) -> float:
        return self.joint_table(state, q, t_i, t_j).correlator

    def k3(self, state, q: Observable, t1: float, t2: float, t3: float) -> LgiResult:
        """Full three-time protocol result at ordered times ``t1 < t2 < t3``."""
        state = _validate_state(state)
        if not 0.0 <= t1 < t2 < t3:
            raise ValueError("need 0 <= t1 < t2 < t3")
        if state.ndim == 1 and self.kappa == 0.0:
            tables = pure_protocol(
                tuple(state.tolist()), _eigenstates(q), self._propagate, t1, t2, t3
            )[3:]
        else:
            rho = _density(state)
            tables = [
                self._table_density(rho, q, t_i, t_j - t_i)
                for t_i, t_j in ((t1, t2), (t2, t3), (t1, t3))
            ]
        return LgiResult.from_tables(tables, (t1, t2, t3), self.kappa)


def _eigenstates(q: Observable):
    """The (+1, -1) eigenstates of ``q`` as pairs of complex scalars."""
    return tuple(tuple(chi.tolist()) for chi in q.eigenstates)


def _density(state: np.ndarray) -> np.ndarray:
    return state if state.ndim == 2 else np.outer(state, state.conj())


def _validate_state(state) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return validate_pure(state)
    if state.ndim == 2:
        return validate_density(state)
    raise ValueError("state must be a 2-vector or a 2x2 density matrix")


def k3_closed_form(theta: float, t: float) -> tuple[float, float, float, float]:
    """Closed-form ``(C12, C23, C13, K3)`` at equal spacing ``t``.

    Canonical configuration: Hamiltonian family member ``theta``, initial
    state ``up_y``, canonical observable, measurement times ``(0, t, 2t)``.
    The two-time distributions are rational in ``cos(2t)`` and
    ``sin(theta)``:

        C12 = (cos 2t + sin theta) / (1 + cos 2t sin theta)
        C13 = (cos 4t + sin theta) / (1 + cos 4t sin theta)

    and ``C23`` follows from its four joint probabilities.  At ``t = pi/4``
    the combination collapses to ``K3 = 1 + sin theta + sin^2 theta`` with
    ``C13 = -1`` pinned (the flow maps the initial state exactly onto its
    antipode over the half period).  Domain: ``theta in [0, pi/2)``,
    ``t in (0, pi/2]``.
    """
    if not (0.0 <= theta < math.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2), got {theta!r}")
    if not (0.0 < t <= math.pi / 2):
        raise ValueError(f"t must lie in (0, pi/2], got {t!r}")
    s = math.sin(theta)
    c2, c4 = math.cos(2.0 * t), math.cos(4.0 * t)
    ct2, st2 = math.cos(t) ** 2, math.sin(t) ** 2
    d2 = 1.0 + c2 * s
    d2m = 1.0 - c2 * s
    d4 = 1.0 + c4 * s

    c12 = (c2 + s) / d2
    c13 = (c4 + s) / d4
    p23_pp = ct2 * ct2 * (1.0 + s) ** 2 / (d2 * d2)
    p23_pm = ct2 * st2 * (1.0 - s) * (1.0 + s) / (d2 * d2)
    p23_mp = st2 * st2 * (1.0 - s) * (1.0 + s) / (d2 * d2m)
    p23_mm = st2 * ct2 * (1.0 - s) ** 2 / (d2 * d2m)
    c23 = p23_pp - p23_pm - p23_mp + p23_mm
    return c12, c23, c13, c12 + c23 - c13
