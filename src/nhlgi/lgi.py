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

Every protocol run goes through one scalar kernel, :func:`protocol`, which
takes two functions of one state and axis: ``first(t)``, the probability of
+1 at a pair's first measurement, and ``transfer(g)``, the probabilities of
+1 a gap ``g`` after collapsing onto +1 or -1.  Three builders supply them:

- pure states in the measured axis's eigenbasis (:func:`_spinor_frame`),
  where both conditionals are column ratios of the propagator, so no
  collapse branch is propagated;
- any state under noise (``kappa > 0``) as a Bloch vector, with the exact
  solution of the linear lift of the depolarising flow in its real modal
  form (two real eigenvalues and one rotating pair) projected onto the axis
  and the state, so each time costs two ``exp`` and one cos/sin pair
  (:func:`_noisy_frame`);
- the dilation and noiseless density matrices through an adapter that
  propagates each branch with a renormalised flow and reads Born
  probabilities (:func:`_propagating_frame`), which keeps the dilation an
  independent cross-check.

The flows, the lift, the Bloch-vector and Bloch-angle maps and the axis
eigenbasis these builders use are the scalar kernels of
:mod:`nhlgi.dynamics`; this module keeps no copy of them.

:class:`CorrelatorEngine` binds the builders once per Hamiltonian and noise
strength into two unvalidated routes: one from a spinor and an axis, one
from a Bloch vector and an axis.  Its public calls validate and take the
route of the state's shape; the K3 search of :mod:`nhlgi.scan` calls the
spinor route per point, so a search and the public API evaluate a point by
the same arithmetic.

The integrator :func:`nhlgi.dynamics.evolve_density_noisy` is the
cross-check, not the engine, so scans stay fast and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import (
    DegenerateEvolutionError,
    NHHamiltonian,
    _axis_basis,
    _bloch_axis,
    _bloch_lift,
    _density_bloch,
    _density_propagator,
    _spinor_bloch,
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
        """The axis ``(sin t cos p, sin t sin p, cos t)``."""
        return cls(_bloch_axis(theta_q, phi_q))

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
        """Normalised (+1, -1) eigenvectors in the closed form of
        :func:`nhlgi.dynamics._axis_basis`, which the protocol uses.

        Each has its larger component real and positive.  On the equator
        ``nz = 0``, where the two components tie in size, that is the first
        component of the +1 state and the second of the -1 state.
        """
        return tuple(np.array(chi) for chi in _axis_basis(self.direction))

    def projector(self, outcome: int) -> np.ndarray:
        if outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
        return self.projectors[_OUTCOMES.index(outcome)]

    def eigenstate(self, outcome: int) -> np.ndarray:
        if outcome not in _OUTCOMES:
            raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
        return self.eigenstates[_OUTCOMES.index(outcome)]


def _check_protocol(tables, k3: float | None = None) -> None:
    """Refuse nested joint tables or a K3 that no protocol run can produce.

    Each table ``((p++, p+-), (p-+, p--))`` needs every entry in [0, 1] and
    the four summing to 1, both within 1e-10; ``k3``, unless None, needs
    ``|K3| <= 3`` within 1e-9.  NaN fails every check.  This is the one copy
    of these checks: :class:`JointTable`, :class:`LgiResult` and the CLI
    sweeps, which skip both classes, all call it.
    """
    for (pp, pm), (mp, mm) in tables:
        if not all(-1e-10 <= p <= 1.0 + 1e-10 for p in (pp, pm, mp, mm)):
            raise ValueError("joint probabilities outside [0, 1] or not finite")
        total = pp + pm + mp + mm
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")
    if k3 is not None and not abs(k3) <= ALGEBRAIC_BOUND + 1e-9:
        raise ValueError(f"K3 = {k3!r} outside the algebraic range")


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
        _check_protocol((self.probs.tolist(),))

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
        _check_protocol((), self.k3)

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


def _spinor_frame(h: NHHamiltonian):
    """Pure-state protocol inputs of ``h``, in the measured axis's eigenbasis.

    Returns ``frame(psi, (up, down)) -> (first, transfer)`` for spinors.  Per
    point, the state and ``M`` are written once in the basis ``C = [up,
    down]``: ``psi' = C^dag psi`` and ``M' = C^dag M C``, where the
    propagator is ``U' = cos(w t) I - i sin(w t)/w M'``.  ``first(t)`` is
    ``|x|^2 / (|x|^2 + |y|^2)`` of ``(x, y) = U' psi'``, and ``transfer(g)``
    the column ratios ``|u00|^2 / (|u00|^2 + |u10|^2)`` and ``|u01|^2 /
    (|u01|^2 + |u11|^2)`` of ``U'``.  No branch is propagated or normalised;
    each time costs one cos/sin pair.
    """
    w = h.omega
    (m00, m01), (m10, m11) = h.matrix.tolist()
    cos, sin = math.cos, math.sin

    def frame(psi, collapse):
        a, b = psi
        (u0, u1), (d0, d1) = collapse
        uc0, uc1, dc0, dc1 = u0.conjugate(), u1.conjugate(), d0.conjugate(), d1.conjugate()
        mu0, mu1 = m00 * u0 + m01 * u1, m10 * u0 + m11 * u1
        md0, md1 = m00 * d0 + m01 * d1, m10 * d0 + m11 * d1
        # M is traceless, so M'_11 = -M'_00.
        n00, n01, n10 = uc0 * mu0 + uc1 * mu1, uc0 * md0 + uc1 * md1, dc0 * mu0 + dc1 * mu1
        p0, p1 = uc0 * a + uc1 * b, dc0 * a + dc1 * b
        q0, q1 = n00 * p0 + n01 * p1, n10 * p0 - n00 * p1
        p0r, p0i, p1r, p1i = p0.real, p0.imag, p1.real, p1.imag
        q0r, q0i, q1r, q1i = q0.real, q0.imag, q1.real, q1.imag
        n00r, n00i = n00.real, n00.imag
        n01_sq, n10_sq = abs(n01) ** 2, abs(n10) ** 2

        def first(t):
            # (x, y) = cos psi' - i sin/w M' psi'
            c, s = cos(w * t), sin(w * t) / w
            xr, xi = c * p0r + s * q0i, c * p0i - s * q0r
            yr, yi = c * p1r + s * q1i, c * p1i - s * q1r
            px = xr * xr + xi * xi
            return px / (px + yr * yr + yi * yi)

        def transfer(g):
            c, s = cos(w * g), sin(w * g) / w
            # |u00|^2 = |c - i s M'_00|^2 and |u11|^2 = |c + i s M'_00|^2
            im_sq = (s * n00r) ** 2
            u00, u11 = (c + s * n00i) ** 2 + im_sq, (c - s * n00i) ** 2 + im_sq
            u10, u01 = s * s * n10_sq, s * s * n01_sq
            return u00 / (u00 + u10), u01 / (u01 + u11)

        return first, transfer

    return frame


def _noisy_frame(h: NHHamiltonian, kappa: float):
    """Protocol inputs of ``h`` at depolarising rate ``kappa``, on Bloch vectors.

    Returns ``frame(r, n) -> (first, transfer)`` for a Bloch vector ``r`` and
    a unit axis ``n``.  The lift ``L`` of :func:`_bloch_lift` is
    eigendecomposed here once, ``L = V diag(lam) V^-1``, and written in its
    real modal form: four real slots, each a pair of real columns of ``V``
    and rows of ``V^-1``.  Per point, the columns are projected onto ``(1,
    0)`` and the axis, and the rows onto the state and the axis.  By
    linearity ``exp(L g) (1, +/- n) = exp(L g) e0 +/- exp(L g) (0, n)``, so
    both collapse branches share the exponentials of one time.

    The spectrum always has two real eigenvalues and one conjugate pair
    ``alpha +/- i beta`` for ``kappa > 0``.  Since ``a . b = 0``, the
    component along ``a`` decouples at rate ``-2 kappa``.  The remaining
    block has the characteristic cubic ``p(lam) = lam [(lam + 2 kappa)^2 +
    4 omega^2] - 8 kappa b^2``.  It is negative for ``lam < 0``, ``p(0) =
    -8 kappa b^2 <= 0``, and ``p' > 0`` for ``lam > 0`` (``omega > 0``).
    So it has exactly one real root, which is simple and non-negative (zero
    only when ``b = 0``), and one conjugate pair.  The real root dominates:
    the roots sum to ``-4 kappa``, so ``alpha = -2 kappa - root/2``.

    The slots are built as follows:

    - each real eigenvalue keeps its real column and row;
    - the pair's column ``u + i w`` and row ``z`` become the columns ``(u,
      w)`` and the rows ``(2 Re z, -2 Im z)``, whose modes evolve by the
      rotation ``exp(alpha t) (cos beta t, sin beta t)``.  ``2 z`` is the
      pair's row of ``V^-1`` plus the conjugate of its partner's row.  The
      computed inverse keeps ``V V^-1 = I`` to rounding only with both rows,
      which are conjugate only to about cond(V) ulps; twice one row alone
      is off by 2.6e-6 in a table at ``delta = 1e-3`` and times of 1e-4.

    The dominant real slot is shifted to rate 0, which cancels in the
    normalisation, so each time costs two ``exp`` and one cos/sin pair on
    floats, shared by both collapse branches.

    Raises ``DegenerateEvolutionError`` when ``V diag(lam) V^-1`` misses the
    lift by more than ``1e-8 ||L||``, or when the computed spectrum has any
    other shape.  The residual checks the decomposition, not the propagated
    result: a lift that passes can still be inaccurate near the corner.
    """
    if kappa < 0.0 or not math.isfinite(kappa):
        raise ValueError("kappa must be a finite non-negative rate")
    lift = _bloch_lift(h, kappa)
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
    lam = lam.tolist()
    real = sorted((k for k in range(4) if lam[k].imag == 0.0), key=lambda k: -lam[k].real)
    pair = [k for k in range(4) if lam[k].imag > 0.0]
    if len(real) != 2 or len(pair) != 1 or lam[pair[0]].conjugate() not in lam:
        raise DegenerateEvolutionError(
            f"the noisy lift at kappa = {kappa!r} has spectrum {lam!r}, not two "
            "real eigenvalues and one conjugate pair"
        )
    (a, b), p = real, pair[0]
    shift = lam[a].real
    rate_b, alpha, beta = lam[b].real - shift, lam[p].real - shift, lam[p].imag
    two_z = v_inv[p] + v_inv[lam.index(lam[p].conjugate())].conjugate()
    # columns (trace, x, y, z) and rows (trace, x, y, z) of the four slots
    (ta, xa, ya, za), (tb, xb, yb, zb) = v[:, a].real.tolist(), v[:, b].real.tolist()
    (tu, xu, yu, zu), (tw, xw, yw, zw) = v[:, p].real.tolist(), v[:, p].imag.tolist()
    (fa0, fax, fay, faz), (fb0, fbx, fby, fbz) = v_inv[a].real.tolist(), v_inv[b].real.tolist()
    (gu0, gux, guy, guz), (gw0, gwx, gwy, gwz) = two_z.real.tolist(), (-two_z.imag).tolist()
    exp, cos, sin = math.exp, math.cos, math.sin

    def frame(r, n):
        x, y, z = r
        nx, ny, nz = n
        # axis projections of the columns
        na, nb = nx * xa + ny * ya + nz * za, nx * xb + ny * yb + nz * zb
        nu, nw = nx * xu + ny * yu + nz * zu, nx * xw + ny * yw + nz * zw
        # row projections onto the state (k) and onto (0, n) (j)
        ka, kb = fa0 + fax * x + fay * y + faz * z, fb0 + fbx * x + fby * y + fbz * z
        ku, kw = gu0 + gux * x + guy * y + guz * z, gw0 + gwx * x + gwy * y + gwz * z
        ja, jb = fax * nx + fay * ny + faz * nz, fbx * nx + fby * ny + fbz * nz
        ju, jw = gux * nx + guy * ny + guz * nz, gwx * nx + gwy * ny + gwz * nz
        # rows onto the collapse branches (1, +n) and (1, -n)
        pa, pb, pu, pw = fa0 + ja, fb0 + jb, gu0 + ju, gw0 + jw
        ma, mb, mu, mw = fa0 - ja, fb0 - jb, gu0 - ju, gw0 - jw
        # (trace, axis) coefficients of the rates 0 and rate_b and of the
        # rotation's cos and sin: the state (s), the + branch (p), the - branch (m)
        s0, s1, sb0, sb1 = ta * ka, na * ka, tb * kb, nb * kb
        sc0, ss0 = tu * ku + tw * kw, tu * kw - tw * ku
        sc1, ss1 = nu * ku + nw * kw, nu * kw - nw * ku
        p0, p1, pb0, pb1 = ta * pa, na * pa, tb * pb, nb * pb
        pc0, ps0 = tu * pu + tw * pw, tu * pw - tw * pu
        pc1, ps1 = nu * pu + nw * pw, nu * pw - nw * pu
        m0, m1, mb0, mb1 = ta * ma, na * ma, tb * mb, nb * mb
        mc0, ms0 = tu * mu + tw * mw, tu * mw - tw * mu
        mc1, ms1 = nu * mu + nw * mw, nu * mw - nw * mu
        # V V^-1 reproduces the state only to about cond(V) ulps, so a first
        # measurement at t = 0 reads the state itself
        at_zero = 0.5 * (1.0 + nx * x + ny * y + nz * z)
        at_zero = at_zero if 0.0 <= at_zero <= 1.0 else (1.0 if at_zero > 1.0 else 0.0)

        def first(t):
            if t == 0.0:
                return at_zero
            eb, ea = exp(rate_b * t), exp(alpha * t)
            c, s = ea * cos(beta * t), ea * sin(beta * t)
            r0 = s0 + eb * sb0 + c * sc0 + s * ss0
            q = 0.5 * (1.0 + (s1 + eb * sb1 + c * sc1 + s * ss1) / r0)
            return q if 0.0 <= q <= 1.0 else (1.0 if q > 1.0 else 0.0)

        def transfer(g):
            eb, ea = exp(rate_b * g), exp(alpha * g)
            c, s = ea * cos(beta * g), ea * sin(beta * g)
            r_plus = p0 + eb * pb0 + c * pc0 + s * ps0
            r_minus = m0 + eb * mb0 + c * mc0 + s * ms0
            qp = 0.5 * (1.0 + (p1 + eb * pb1 + c * pc1 + s * ps1) / r_plus)
            qm = 0.5 * (1.0 + (m1 + eb * mb1 + c * mc1 + s * ms1) / r_minus)
            return (
                qp if 0.0 <= qp <= 1.0 else (1.0 if qp > 1.0 else 0.0),
                qm if 0.0 <= qm <= 1.0 else (1.0 if qm > 1.0 else 0.0),
            )

        return first, transfer

    return frame


def _pure_born(chi, psi) -> float:
    """Born probability ``|<chi|psi>|^2`` of two spinors."""
    return abs(chi[0].conjugate() * psi[0] + chi[1].conjugate() * psi[1]) ** 2


def _bloch_born(n, r) -> float:
    """Born probability ``(1 + n . r)/2`` of Bloch vectors ``n`` and ``r``."""
    return 0.5 * (1.0 + n[0] * r[0] + n[1] * r[1] + n[2] * r[2])


def _propagating_frame(propagate, born):
    """Protocol inputs from a renormalised flow and a Born rule.

    Returns ``frame(state, (up, down)) -> (first, transfer)``, where
    ``propagate(t, state)`` is a renormalised flow and ``born(c, state)`` the
    probability of collapsing onto ``c``: spinors with :func:`_pure_born`, or
    Bloch vectors (collapse states ``+/- n``) with :func:`_bloch_born`.  Each
    collapse branch is propagated across the gap.  Born probabilities are
    clipped to [0, 1]; the first measurement's pair is renormalised.
    """

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


def _table(p, conditionals):
    """Joint table ``((p++, p+-), (p-+, p--))`` of one measurement pair.

    ``p`` is P(+1) at the first measurement and ``conditionals`` the pair
    (P(+1 | +1), P(+1 | -1)) at the second.
    """
    plus, minus = conditionals
    q = 1.0 - p
    return (p * plus, p * (1.0 - plus)), (q * minus, q * (1.0 - minus))


def _correlator(table) -> float:
    """``C = p++ - p+- - p-+ + p--`` of a nested joint table."""
    (pp, pm), (mp, mm) = table
    return pp - pm - mp + mm


def protocol(first, transfer, t1: float, t2: float, t3: float):
    """The invasive three-time protocol on plain scalars, for any representation.

    ``first(t)`` is the probability of outcome +1 when the first measurement
    of a pair happens at ``t``; ``transfer(g)`` is the pair (P(+1 | collapsed
    onto +1), P(+1 | collapsed onto -1)) at a second measurement a gap ``g``
    later.  :func:`_spinor_frame`, :func:`_noisy_frame` and
    :func:`_propagating_frame` build them for one state and axis.  Nothing is
    validated: callers check their inputs once, outside any loop.

    Returns ``(c12, c23, c13, table12, table23, table13)`` with each table
    nested as ``((p++, p+-), (p-+, p--))``.
    """
    p1 = first(t1)
    tables = (
        _table(p1, transfer(t2 - t1)),
        _table(first(t2), transfer(t3 - t2)),
        _table(p1, transfer(t3 - t1)),
    )
    return tuple(map(_correlator, tables)) + tables


class CorrelatorEngine:
    """Protocol evaluator bound to one Hamiltonian and one noise strength.

    Building the engine binds its two routes to :func:`protocol` once, with
    the frame setup (with noise, the eigendecomposition of the lift and its
    real modal form).  Neither validates; the scans call them per point.

    - ``_spinor_route(psi, n) -> (first, transfer)`` for a spinor and a unit
      axis: the spinor frame in the axis eigenbasis of
      :func:`nhlgi.dynamics._axis_basis` at ``kappa = 0``, the noisy frame at
      the spinor's Bloch vector at ``kappa > 0``;
    - ``_bloch_route(r, n)`` for a Bloch vector ``r = tr(rho sigma)``: the
      noisy frame at ``kappa > 0``, and at ``kappa = 0`` the noiseless
      density flow propagating each collapse branch ``+/- n``.

    Every public call validates its inputs once and takes the route of the
    state's shape.
    """

    def __init__(self, h: NHHamiltonian, kappa: float = 0.0):
        if kappa == 0.0:
            spinor = _spinor_frame(h)
            density = _propagating_frame(_density_propagator(h), _bloch_born)

            def spinor_route(psi, n):
                return spinor(psi, _axis_basis(n))

            def bloch_route(r, n):
                return density(r, (n, (-n[0], -n[1], -n[2])))

        else:
            bloch_route = _noisy_frame(h, kappa)

            def spinor_route(psi, n):
                x, y, z = _spinor_bloch(psi)
                return bloch_route((2.0 * x, 2.0 * y, 2.0 * z), n)

        self._spinor_route, self._bloch_route = spinor_route, bloch_route
        self.hamiltonian = h
        self.kappa = float(kappa)

    def _protocol_inputs(self, state, q: Observable):
        """Validated ``(first, transfer)`` for :func:`protocol`."""
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            return self._spinor_route(tuple(validate_pure(state).tolist()), q.direction)
        if state.ndim == 2:
            r = _density_bloch(validate_density(state).tolist())
            return self._bloch_route(r, q.direction)
        raise ValueError("state must be a 2-vector or a 2x2 density matrix")

    def joint_table(self, state, q: Observable, t_i: float, t_j: float) -> JointTable:
        """Joint distribution of outcomes at ``t_i < t_j`` from time zero."""
        first, transfer = self._protocol_inputs(state, q)
        if not 0.0 <= t_i < t_j:
            raise ValueError("need 0 <= t_i < t_j")
        return JointTable(_table(first(t_i), transfer(t_j - t_i)), t_i, t_j)

    def correlator(self, state, q: Observable, t_i: float, t_j: float) -> float:
        return self.joint_table(state, q, t_i, t_j).correlator

    def k3(self, state, q: Observable, t1: float, t2: float, t3: float) -> LgiResult:
        """Full three-time protocol result at ordered times ``t1 < t2 < t3``."""
        first, transfer = self._protocol_inputs(state, q)
        if not 0.0 <= t1 < t2 < t3:
            raise ValueError("need 0 <= t1 < t2 < t3")
        tables = protocol(first, transfer, t1, t2, t3)[3:]
        return LgiResult.from_tables(tables, (t1, t2, t3), self.kappa)


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
