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

Every protocol run goes through one scalar kernel, :func:`protocol`: pure
states as spinors, density matrices and noisy flows (``kappa > 0``) as Bloch
vectors under the exact solution of the linear lift of the depolarising
flow.  The integrator :func:`nhlgi.dynamics.evolve_density_noisy` is the
cross-check, not the engine, so scans stay fast and deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import (
    DegenerateEvolutionError,
    NHHamiltonian,
    bloch_of_density,
    bloch_of_pure,
    validate_density,
    validate_pure,
)
from .qmat import ID2, pauli_vector

__all__ = [
    "LUDER_BOUND",
    "ALGEBRAIC_BOUND",
    "Observable",
    "JointTable",
    "LgiResult",
    "CorrelatorEngine",
    "pure_propagator",
    "protocol",
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
        if not np.all((self.probs >= -1e-10) & (self.probs <= 1.0 + 1e-10)):
            raise ValueError("joint probabilities outside [0, 1] or not finite")
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
        if not abs(self.k3) <= ALGEBRAIC_BOUND + 1e-9:  # NaN fails too
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

    Returns ``propagate(t, psi) -> psi`` for spinors ``psi = (a, b)``: the
    closed form ``exp(-i H t) = cos(w t) I - i sin(w t)/w M`` applied to
    ``psi`` and normalised.  The entries of ``M`` are bound once, so the call
    does no numpy work and no validation.
    """
    w = h.omega
    (m00, m01), (m10, m11) = h.matrix.tolist()

    def propagate(t, psi):
        a, b = psi
        c = math.cos(w * t)
        s = -1j * (math.sin(w * t) / w)
        x = c * a + s * (m00 * a + m01 * b)
        y = c * b + s * (m10 * a + m11 * b)
        n = math.hypot(x.real, x.imag, y.real, y.imag)
        return x / n, y / n

    return propagate


def _density_propagator(h: NHHamiltonian, kappa: float = 0.0):
    """Renormalised density flow of ``h`` at depolarising rate ``kappa``.

    Returns ``propagate(t, r) -> r`` on Bloch vectors ``r = tr(rho sigma)``
    as plain float triples.  The unnormalised state ``(r0 I + r . sigma)/2``
    obeys the linear lift ``d(r0, r)/dt = [[0, -2 B^T], [-2 B, 2 [A x] - 2
    kappa]] (r0, r)``.  At ``kappa = 0`` its spectrum ``{0, 0, +/- 2i w}``
    gives ``U rho U^dag`` in closed form; with noise its eigendecomposition
    is bound here once (spectrum shifted to non-positive real part, which
    cancels in the normalisation).  Raises ``DegenerateEvolutionError`` when
    ``V diag(lam) V^-1`` misses the lift by more than ``1e-8 ||L||``.  That
    checks the decomposition, not the propagated result: a lift that passes
    can still be inaccurate near the corner.
    """
    if kappa < 0.0 or not math.isfinite(kappa):
        raise ValueError("kappa must be a finite non-negative rate")
    (ax, ay, az), (bx, by, bz) = (h.scale * h.a).tolist(), (h.scale * h.b).tolist()

    def lift(r0, x, y, z):
        return (
            -2.0 * (bx * x + by * y + bz * z),
            2.0 * (ay * z - az * y - bx * r0 - kappa * x),
            2.0 * (az * x - ax * z - by * r0 - kappa * y),
            2.0 * (ax * y - ay * x - bz * r0 - kappa * z),
        )

    if kappa == 0.0:
        w = h.omega

        def propagate(t, r):
            # exp(L t) = 1 + sin(w t) cos(w t)/w L + sin(w t)^2/(2 w^2) L^2
            first = lift(1.0, *r)
            s = math.sin(w * t) / w
            f, g = s * math.cos(w * t), 0.5 * s * s
            terms = zip((1.0,) + r, first, lift(*first))
            r0, x, y, z = (a + f * b + g * c for a, b, c in terms)
            return x / r0, y / r0, z / r0

        return propagate

    matrix = np.array([lift(*e) for e in np.eye(4).tolist()]).T
    lam, v = np.linalg.eig(matrix)
    try:
        v_inv = np.linalg.inv(v)
        residual = float(np.linalg.norm((v * lam) @ v_inv - matrix))
    except np.linalg.LinAlgError:
        residual = math.inf
    if not residual <= 1e-8 * max(1.0, float(np.linalg.norm(matrix))):
        raise DegenerateEvolutionError(
            f"the noisy lift at kappa = {kappa!r} is numerically defective; "
            "its eigendecomposition cannot be trusted"
        )
    l0, l1, l2, l3 = (lam - float(np.max(lam.real))).tolist()
    (e00, e01, e02, e03, e10, e11, e12, e13,
     e20, e21, e22, e23, e30, e31, e32, e33) = v.ravel().tolist()
    (f00, f01, f02, f03, f10, f11, f12, f13,
     f20, f21, f22, f23, f30, f31, f32, f33) = v_inv.ravel().tolist()
    exp = cmath.exp

    def propagate(t, r):
        if t == 0.0:
            return r
        x, y, z = r
        c0 = exp(l0 * t) * (f00 + f01 * x + f02 * y + f03 * z)
        c1 = exp(l1 * t) * (f10 + f11 * x + f12 * y + f13 * z)
        c2 = exp(l2 * t) * (f20 + f21 * x + f22 * y + f23 * z)
        c3 = exp(l3 * t) * (f30 + f31 * x + f32 * y + f33 * z)
        r0 = (e00 * c0 + e01 * c1 + e02 * c2 + e03 * c3).real
        return (
            (e10 * c0 + e11 * c1 + e12 * c2 + e13 * c3).real / r0,
            (e20 * c0 + e21 * c1 + e22 * c2 + e23 * c3).real / r0,
            (e30 * c0 + e31 * c1 + e32 * c2 + e33 * c3).real / r0,
        )

    return propagate


def _pure_born(chi, psi) -> float:
    """Born probability ``|<chi|psi>|^2`` of two spinors."""
    return abs(chi[0].conjugate() * psi[0] + chi[1].conjugate() * psi[1]) ** 2


def _bloch_born(n, r) -> float:
    """Born probability ``(1 + n . r)/2`` of Bloch vectors ``n`` and ``r``."""
    return 0.5 * (1.0 + n[0] * r[0] + n[1] * r[1] + n[2] * r[2])


def _joint(v, collapse, propagate, born, gap):
    """Joint table ``((p++, p+-), (p-+, p--))`` of one measurement pair.

    ``v`` is the state just before the first measurement.  Born
    probabilities are clipped to [0, 1]; the first pair is renormalised.
    """
    up, down = collapse
    first_p = min(1.0, max(0.0, born(up, v)))
    first_m = min(1.0, max(0.0, born(down, v)))
    total = first_p + first_m
    rows = []
    for first, branch in ((first_p / total, up), (first_m / total, down)):
        cond_plus = min(1.0, max(0.0, born(up, propagate(gap, branch))))
        rows.append((first * cond_plus, first * (1.0 - cond_plus)))
    return tuple(rows)


def protocol(state, collapse, propagate, born, t1: float, t2: float, t3: float):
    """The invasive three-time protocol on plain scalars, for any representation.

    ``collapse`` holds the (+1, -1) collapse states of the measured axis,
    ``propagate(t, state)`` is a renormalised flow and ``born(c, state)`` the
    probability of collapsing onto ``c``: spinors with :func:`_pure_born`, or
    Bloch vectors (collapse states ``+/- n``) with :func:`_bloch_born`.  The
    state is propagated once to ``t1`` and once to ``t2``.  Nothing is
    validated: callers check their inputs once, outside any loop.

    Returns ``(c12, c23, c13, table12, table23, table13)`` with each table
    nested as ``((p++, p+-), (p-+, p--))``.
    """
    v1 = propagate(t1, state)
    tables = (
        _joint(v1, collapse, propagate, born, t2 - t1),
        _joint(propagate(t2, state), collapse, propagate, born, t3 - t2),
        _joint(v1, collapse, propagate, born, t3 - t1),
    )
    c12, c23, c13 = (p[0][0] - p[0][1] - p[1][0] + p[1][1] for p in tables)
    return (c12, c23, c13) + tables


class CorrelatorEngine:
    """Protocol evaluator bound to one Hamiltonian and one noise strength.

    Building the engine once amortises the propagator setup (with noise, the
    eigendecomposition of the lift).  Every call validates its inputs once
    and runs :func:`protocol`: on spinors for a pure input at ``kappa = 0``,
    on Bloch vectors for density matrices and noisy flows.
    """

    def __init__(self, h: NHHamiltonian, kappa: float = 0.0):
        self._density = None if kappa == 0.0 else _density_propagator(h, kappa)
        self._pure = pure_propagator(h) if kappa == 0.0 else None
        self.hamiltonian = h
        self.kappa = float(kappa)

    def _kernel_args(self, state, q: Observable):
        """Validated ``(state, collapse, propagate, born)`` for :func:`protocol`."""
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1 and self._pure is not None:
            psi = tuple(validate_pure(state).tolist())
            return psi, _eigenstates(q), self._pure, _pure_born
        if state.ndim == 1:
            s = bloch_of_pure(state)
        elif state.ndim == 2:
            s = bloch_of_density(validate_density(state))
        else:
            raise ValueError("state must be a 2-vector or a 2x2 density matrix")
        n = q.direction
        r = tuple((2.0 * s).tolist())
        propagate = self._density or _density_propagator(self.hamiltonian)
        return r, (n, (-n[0], -n[1], -n[2])), propagate, _bloch_born

    def joint_table(self, state, q: Observable, t_i: float, t_j: float) -> JointTable:
        """Joint distribution of outcomes at ``t_i < t_j`` from time zero."""
        state, collapse, propagate, born = self._kernel_args(state, q)
        if not 0.0 <= t_i < t_j:
            raise ValueError("need 0 <= t_i < t_j")
        probs = _joint(propagate(t_i, state), collapse, propagate, born, t_j - t_i)
        return JointTable(probs, t_i, t_j)

    def correlator(self, state, q: Observable, t_i: float, t_j: float) -> float:
        return self.joint_table(state, q, t_i, t_j).correlator

    def k3(self, state, q: Observable, t1: float, t2: float, t3: float) -> LgiResult:
        """Full three-time protocol result at ordered times ``t1 < t2 < t3``."""
        args = self._kernel_args(state, q)
        if not 0.0 <= t1 < t2 < t3:
            raise ValueError("need 0 <= t1 < t2 < t3")
        tables = protocol(*args, t1, t2, t3)[3:]
        return LgiResult.from_tables(tables, (t1, t2, t3), self.kappa)


def _eigenstates(q: Observable):
    """The (+1, -1) eigenstates of ``q`` as pairs of complex scalars."""
    return tuple(tuple(chi.tolist()) for chi in q.eigenstates)


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
