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

Every protocol run yields the same eight numbers ``(p1, p2, plus12,
minus12, plus23, minus23, plus13, minus13)``: P(+1) at the first and second
times, and the pair (P(+1 | +1), P(+1 | -1)) across each of the gaps (1,2),
(2,3) and (1,3).  :func:`_correlators` forms ``(C12, C23, C13)`` from
them and :func:`_tables` the joint tables, each the one copy of its
arithmetic.  :func:`_check_values` checks the eight numbers themselves, for
callers that build no table.

Every frame is a pair ``(setup, evaluate)`` on plain scalars: ``setup(state,
n)`` takes a state and a unit axis and returns the point's coefficients as
floats or tuples, and ``evaluate(point, t1, t2, t3)`` returns the eight
numbers.  No frame builds a function per point.  There are three:

- pure states at ``kappa = 0`` on the invariant y-z great circle, with an
  axis in its plane (:func:`_circle_frame`): the real circle flow of
  :func:`nhlgi.dynamics._circle_flow`, rotated into the axis eigenbasis, so
  the frame stays accurate at the corner.  ``evaluate`` runs the three times
  in straight-line code, where both conditionals are column ratios of the
  propagator, so no collapse branch is propagated;
- any other state at any ``kappa >= 0`` as a Bloch vector, with the closed
  form of the linear lift of the depolarising flow (its ``(trace, y, z)``
  block from the real root of the characteristic cubic, and x decaying
  alone) projected onto the axis for the state and for each collapse
  branch, so each time costs one ``expm1``, one ``exp`` and one cos/sin
  pair (:func:`_noisy_frame`);
- a spinor under any renormalised flow on spinors (:func:`_propagating_frame`):
  each collapse branch is propagated across the gap and its Born
  probability read off.  The dilation of :mod:`nhlgi.embedding` runs it
  over its post-selected flow, so it shares no arithmetic with the other
  two frames and stays an independent cross-check.

The first two share the cos/sin pair (and the exponentials) of ``t2`` with
the (1,2) gap when ``t1 = 0``, as every CLI row and search point has it.
This module alone turns a flow into the eight numbers: the clipping, the
renormalised first pair and the Born reads.  The flows, the lift's closed
form, the Bloch-vector and Bloch-angle maps and the axis eigenbasis the
frames use are the scalar kernels of :mod:`nhlgi.dynamics`; this module
keeps no copy of them and reads no rounded ``sec theta``, ``tan theta`` or
omega itself.

:class:`CorrelatorEngine` binds two unvalidated routes once per Hamiltonian
and noise strength: from a spinor and an axis on the circle (the circle
frame at ``kappa = 0``, the noisy frame fed the state's Bloch vector under
noise), and from a Bloch vector and an axis.  Its one entry validates the
inputs of every public call, sends any other spinor and every density
matrix to the second route as a Bloch vector, and sets the point up once
for all the call's times.  The K3 search of :mod:`nhlgi.scan` feeds the
circle route per point the floats the engine takes from the same state and
axis, at every kappa, so a search and the public API evaluate a point by
the same arithmetic and an argmax re-evaluates to the reported float.

The integrator :func:`nhlgi.dynamics.integrate_bloch` is the lift's
cross-check, not the engine, so scans stay fast and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from ._numpy import np
from .dynamics import (
    NHHamiltonian,
    _axis_basis,
    _bloch_axis,
    _check_finite_times,
    _check_kappa,
    _check_theta,
    _circle_flow,
    _circle_state,
    _density_bloch,
    _lift_coefficients,
    _lift_weights,
    _spinor_bloch,
    validate_density,
    validate_pure,
)

__all__ = [
    "LUDER_BOUND",
    "ALGEBRAIC_BOUND",
    "Observable",
    "JointTable",
    "LgiResult",
    "CorrelatorEngine",
    "k3_closed_form",
]

LUDER_BOUND = 1.5
ALGEBRAIC_BOUND = 3.0


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


def _check_protocol(tables, k3: float | None = None) -> None:
    """Refuse nested joint tables or a K3 that no protocol run can produce.

    Each table ``((p++, p+-), (p-+, p--))`` needs every entry in [0, 1] and
    the four summing to 1, both within 1e-10; ``k3``, unless None, needs
    ``|K3| <= 3`` within 1e-9.  NaN fails every check.  This is the one copy
    of these checks, which :class:`JointTable` and :class:`LgiResult` call;
    the CLI sweeps, which skip both classes, check each row's eight numbers
    with :func:`_check_values` instead.
    """
    lo, hi = -1e-10, 1.0 + 1e-10
    for (pp, pm), (mp, mm) in tables:
        if not (
            lo <= pp <= hi and lo <= pm <= hi and lo <= mp <= hi and lo <= mm <= hi
        ):
            raise ValueError("joint probabilities outside [0, 1] or not finite")
        total = pp + pm + mp + mm
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")
    if k3 is not None and not abs(k3) <= ALGEBRAIC_BOUND + 1e-9:
        raise ValueError(f"K3 = {k3!r} outside the algebraic range")


def _check_values(values) -> None:
    """Refuse the eight numbers of a protocol run unless each lies in [0, 1].

    NaN fails.  Every frame returns its numbers in [0, 1] by construction,
    and from such numbers every entry of :func:`_tables` lies in [0, 1],
    each table sums to 1 within a few ulp and ``|K3| <= 3``, so a row this
    check passes also passes :func:`_check_protocol`, at a fraction of its
    cost.
    """
    p1, p2, plus12, minus12, plus23, minus23, plus13, minus13 = values
    if not (
        0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
        and 0.0 <= plus12 <= 1.0 and 0.0 <= minus12 <= 1.0
        and 0.0 <= plus23 <= 1.0 and 0.0 <= minus23 <= 1.0
        and 0.0 <= plus13 <= 1.0 and 0.0 <= minus13 <= 1.0
    ):
        raise ValueError(f"protocol probabilities {values!r} outside [0, 1] or not finite")


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


def _circle_frame(h: NHHamiltonian):
    """Pure-state protocol of ``h`` on the invariant y-z great circle, in real
    arithmetic.

    Returns ``(setup, evaluate)`` on plain floats, with no complex number and
    no closure per point.  A spinor ``(u, i v)`` with real ``u`` and ``v``
    has its Bloch vector on the circle, and so has an axis ``(0, ny, nz)``.
    In ``p = u + v``, ``m = u - v`` the propagator is the real map ``cos(w t)
    I + sin(w t) [[0, -1/K], [K, 0]]`` of :func:`nhlgi.dynamics._circle_flow`,
    whose ``w``, ``K`` and ``1/K`` the frame reads.

    ``setup((u, v), (ny, nz))`` rotates the state and the generator into the
    axis eigenbasis, whose +1 state is ``(x, y) = (cos b, sin b)`` in ``(p,
    m)`` with ``(cos 2b, sin 2b) = (ny, nz)``.  The generator there has
    ``a00 = 2 (sin theta/cos theta) x y = -a11``, ``a01 = -(x^2/K + K y^2)``
    and ``a10 = y^2/K + K x^2``, each a product or a sum of like signs.
    ``evaluate(point, t1, t2, t3)`` returns the eight numbers: P(+1) is ``X^2
    / (X^2 + Y^2)`` of the state ``(X, Y)`` at ``t1`` and at ``t2``, and each
    gap's conditional pair the column ratios of ``U' = c I + s A``, so no
    collapse branch is propagated or normalised.  With ``t1 = 0`` the (1,2)
    gap is ``t2`` and shares its cos/sin pair.
    """
    (w, k, rk), _ = _circle_flow(h)
    tan2 = 2.0 * math.sin(h.theta) / math.cos(h.theta)
    sqrt, cos, sin = math.sqrt, math.cos, math.sin

    def setup(state, axis):
        u, v = state
        ny, nz = axis
        p, m = u + v, u - v
        # the +1 eigenstate (cos b, sin b), from the half-angle form without
        # cancellation on either side of ny = 0
        if ny >= 0.0:
            c = 1.0 / sqrt(2.0 * (1.0 + ny))
            x, y = c * (1.0 + ny), c * nz
        else:
            c = 1.0 / sqrt(2.0 * (1.0 - ny))
            x, y = c * nz, c * (1.0 - ny)
        xx, yy = x * x, y * y
        a00, a01, a10 = tan2 * x * y, -(xx * rk + k * yy), yy * rk + k * xx
        big, small = x * p + y * m, x * m - y * p
        return (
            big, small, a00 * big + a01 * small, a10 * big - a00 * small,
            a00, a01 * a01, a10 * a10,
        )

    def evaluate(point, t1, t2, t3):
        big, small, gen_big, gen_small, a00, a01_sq, a10_sq = point
        # P(+1) at t1 and t2, from (X, Y) = c (big, small) + s A (big, small)
        if t1 == 0.0:
            xx = big * big
            first1 = xx / (xx + small * small)
        else:
            c, s = cos(w * t1), sin(w * t1)
            x, y = c * big + s * gen_big, c * small + s * gen_small
            xx = x * x
            first1 = xx / (xx + y * y)
        c, s = cos(w * t2), sin(w * t2)
        x, y = c * big + s * gen_big, c * small + s * gen_small
        xx = x * x
        first2 = xx / (xx + y * y)
        # conditional pairs across each gap, from the columns (c + s a00, s
        # a10) and (s a01, c - s a00); with t1 = 0 the (1,2) gap is t2 and
        # keeps its cos/sin pair
        if t1 != 0.0:
            g = w * (t2 - t1)
            c, s = cos(g), sin(g)
        ss, u00, u11 = s * s, c + s * a00, c - s * a00
        u00, u11, u10, u01 = u00 * u00, u11 * u11, ss * a10_sq, ss * a01_sq
        plus12, minus12 = u00 / (u00 + u10), u01 / (u01 + u11)
        g = w * (t3 - t2)
        c, s = cos(g), sin(g)
        ss, u00, u11 = s * s, c + s * a00, c - s * a00
        u00, u11, u10, u01 = u00 * u00, u11 * u11, ss * a10_sq, ss * a01_sq
        plus23, minus23 = u00 / (u00 + u10), u01 / (u01 + u11)
        g = w * (t3 - t1)
        c, s = cos(g), sin(g)
        ss, u00, u11 = s * s, c + s * a00, c - s * a00
        u00, u11, u10, u01 = u00 * u00, u11 * u11, ss * a10_sq, ss * a01_sq
        plus13, minus13 = u00 / (u00 + u10), u01 / (u01 + u11)
        return first1, first2, plus12, minus12, plus23, minus23, plus13, minus13

    return setup, evaluate


def _noisy_frame(h: NHHamiltonian, kappa: float):
    """Protocol of ``h`` at depolarising rate ``kappa >= 0``, on Bloch vectors.

    Returns ``(setup, evaluate)`` on plain scalars, with no closure per point,
    from the closed form of the lift, :func:`nhlgi.dynamics._lift_coefficients`:
    a propagated vector ``v`` is ``v + C B1 v + S B2 v`` on ``(trace, y,
    z)``, with ``(C, S) = (E cos(beta t) - 1, E sin(beta t))``, and its x
    component alone decays by ``X = exp(decay t)`` and adds nothing to the
    trace.  ``setup(r, n)`` projects ``v``, ``B1 v`` and ``B2 v`` onto the
    trace and the unit axis ``n`` for the state ``(1, r)`` and for each
    collapse branch ``(1, +n)`` and ``(1, -n)``, each propagated whole, and
    returns them with P(+1) of ``r`` itself and the x parts ``nx x`` and
    ``nx^2``.  ``evaluate(point, t1, t2, t3)`` returns the eight numbers in
    straight-line code.  Both branches share the weights of one time, and
    with ``t1 = 0`` the (1,2) gap is ``t2`` and shares them with the second
    measurement.  Each time costs one ``expm1``, one ``exp`` and one cos/sin
    pair on floats.
    """
    (_, m, beta, decay), (b1, b2) = _lift_coefficients(h, kappa)
    (t1p, t1m, t1z), (y1p, y1m, y1z), (z1p, z1m, z1z) = b1
    (t2p, t2m, t2z), (y2p, y2m, y2z), (z2p, z2m, z2z) = b2
    weights = _lift_weights

    def setup(r, n):
        x, y, z = r
        nx, ny, nz = n
        # the axis rows of B1 and B2, then the trace and axis parts of B1 v
        # and B2 v for the state (s), the + branch (p) and the - branch (m),
        # each in (P, M, Z); the - branch swaps P and M and negates Z
        a1p, a1m, a1z = ny * y1p + nz * z1p, ny * y1m + nz * z1m, ny * y1z + nz * z1z
        a2p, a2m, a2z = ny * y2p + nz * z2p, ny * y2m + nz * z2m, ny * y2z + nz * z2z
        sp, sm, pp, pm = 1.0 + y, 1.0 - y, 1.0 + ny, 1.0 - ny
        first = 0.5 * (1.0 + nx * x + ny * y + nz * z)
        return (
            first if 0.0 <= first <= 1.0 else (1.0 if first > 1.0 else 0.0),
            nx * x, nx * nx, ny * y + nz * z, ny * ny + nz * nz,
            t1p * sp + t1m * sm + t1z * z, a1p * sp + a1m * sm + a1z * z,
            t2p * sp + t2m * sm + t2z * z, a2p * sp + a2m * sm + a2z * z,
            t1p * pp + t1m * pm + t1z * nz, a1p * pp + a1m * pm + a1z * nz,
            t2p * pp + t2m * pm + t2z * nz, a2p * pp + a2m * pm + a2z * nz,
            t1p * pm + t1m * pp - t1z * nz, a1p * pm + a1m * pp - a1z * nz,
            t2p * pm + t2m * pp - t2z * nz, a2p * pm + a2m * pp - a2z * nz,
        )

    def evaluate(point, t1, t2, t3):
        (
            first1, sx, xx, sv, nv, s0, s1, t0, u1,
            p0, p1, q0, q1, m0, m1, l0, l1,
        ) = point
        # P(+1) at t1 (the state itself at t1 = 0) and at t2, from the
        # weights (x, c, s) of each time
        if t1 != 0.0:
            x, c, s = weights(m, beta, decay, t1)
            q = 0.5 * (1.0 + (sv + x * sx + c * s1 + s * u1) / (1.0 + c * s0 + s * t0))
            first1 = q if 0.0 <= q <= 1.0 else (1.0 if q > 1.0 else 0.0)
        x, c, s = weights(m, beta, decay, t2)
        q = 0.5 * (1.0 + (sv + x * sx + c * s1 + s * u1) / (1.0 + c * s0 + s * t0))
        first2 = q if 0.0 <= q <= 1.0 else (1.0 if q > 1.0 else 0.0)
        # conditional pairs across each gap; with t1 = 0 the (1,2) gap is t2
        # and keeps its weights
        if t1 != 0.0:
            x, c, s = weights(m, beta, decay, t2 - t1)
        qp = 0.5 * (1.0 + (nv + x * xx + c * p1 + s * q1) / (1.0 + c * p0 + s * q0))
        qm = 0.5 * (1.0 + (-nv - x * xx + c * m1 + s * l1) / (1.0 + c * m0 + s * l0))
        plus12 = qp if 0.0 <= qp <= 1.0 else (1.0 if qp > 1.0 else 0.0)
        minus12 = qm if 0.0 <= qm <= 1.0 else (1.0 if qm > 1.0 else 0.0)
        x, c, s = weights(m, beta, decay, t3 - t2)
        qp = 0.5 * (1.0 + (nv + x * xx + c * p1 + s * q1) / (1.0 + c * p0 + s * q0))
        qm = 0.5 * (1.0 + (-nv - x * xx + c * m1 + s * l1) / (1.0 + c * m0 + s * l0))
        plus23 = qp if 0.0 <= qp <= 1.0 else (1.0 if qp > 1.0 else 0.0)
        minus23 = qm if 0.0 <= qm <= 1.0 else (1.0 if qm > 1.0 else 0.0)
        x, c, s = weights(m, beta, decay, t3 - t1)
        qp = 0.5 * (1.0 + (nv + x * xx + c * p1 + s * q1) / (1.0 + c * p0 + s * q0))
        qm = 0.5 * (1.0 + (-nv - x * xx + c * m1 + s * l1) / (1.0 + c * m0 + s * l0))
        plus13 = qp if 0.0 <= qp <= 1.0 else (1.0 if qp > 1.0 else 0.0)
        minus13 = qm if 0.0 <= qm <= 1.0 else (1.0 if qm > 1.0 else 0.0)
        return first1, first2, plus12, minus12, plus23, minus23, plus13, minus13

    return setup, evaluate


def _pure_born(chi, psi) -> float:
    """Born probability ``|<chi|psi>|^2`` of two spinors."""
    return abs(chi[0].conjugate() * psi[0] + chi[1].conjugate() * psi[1]) ** 2


def _propagating_frame(propagate):
    """Protocol from a renormalised flow on spinors, in the ``(setup,
    evaluate)`` shape of the other frames.

    ``propagate(t, psi)`` is a renormalised flow on spinor pairs.
    ``setup(psi, n)`` returns ``(psi, (up, down))``, the eigenbasis of the
    unit axis ``n`` from :func:`nhlgi.dynamics._axis_basis`.  Each collapse
    branch is propagated across the gap and its Born probability
    (:func:`_pure_born`) read off, so the dilation shares no arithmetic with
    the lift's projected frame.  Born probabilities are clipped to [0, 1];
    the first measurement's pair is renormalised.  ``evaluate`` validates
    nothing: callers check their inputs once, outside any loop.
    """

    def setup(state, n):
        return state, _axis_basis(n)

    def first(point, t):
        state, (up, down) = point
        v = propagate(t, state)
        p = min(1.0, max(0.0, _pure_born(up, v)))
        m = min(1.0, max(0.0, _pure_born(down, v)))
        return p / (p + m)

    def transfer(point, g):
        branches = point[1]
        up = branches[0]
        return tuple(min(1.0, max(0.0, _pure_born(up, propagate(g, c)))) for c in branches)

    def evaluate(point, t1, t2, t3):
        return (
            first(point, t1),
            first(point, t2),
            *transfer(point, t2 - t1),
            *transfer(point, t3 - t2),
            *transfer(point, t3 - t1),
        )

    return setup, evaluate


def _correlators(values) -> tuple[float, float, float]:
    """``(c12, c23, c13)`` of the eight numbers.

    Each is ``p++ - p+- - p-+ + p--`` of the pair's table in :func:`_tables`,
    with the same arithmetic, and no table built.
    """
    p1, p2, plus12, minus12, plus23, minus23, plus13, minus13 = values
    q1, q2 = 1.0 - p1, 1.0 - p2
    return (
        p1 * plus12 - p1 * (1.0 - plus12) - q1 * minus12 + q1 * (1.0 - minus12),
        p2 * plus23 - p2 * (1.0 - plus23) - q2 * minus23 + q2 * (1.0 - minus23),
        p1 * plus13 - p1 * (1.0 - plus13) - q1 * minus13 + q1 * (1.0 - minus13),
    )


def _tables(values):
    """Joint tables of the pairs (1,2), (2,3) and (1,3) from the eight
    numbers, each nested as ``((p++, p+-), (p-+, p--))``.

    A pair whose first measurement gives +1 with probability ``p`` and whose
    conditionals are ``(plus, minus)`` has the minus-row weight ``1 - p``.
    """
    p1, p2, plus12, minus12, plus23, minus23, plus13, minus13 = values
    q1, q2 = 1.0 - p1, 1.0 - p2
    return (
        ((p1 * plus12, p1 * (1.0 - plus12)), (q1 * minus12, q1 * (1.0 - minus12))),
        ((p2 * plus23, p2 * (1.0 - plus23)), (q2 * minus23, q2 * (1.0 - minus23))),
        ((p1 * plus13, p1 * (1.0 - plus13)), (q1 * minus13, q1 * (1.0 - minus13))),
    )


def _k3_result(run, t1: float, t2: float, t3: float, kappa: float) -> LgiResult:
    """The validated :class:`LgiResult` of ``run(t1, t2, t3)``, which returns
    the eight numbers, at ``t1 < t2 < t3``.

    The times are checked here, once per public K3 call: each must be finite
    and ``0 <= t1 < t2 < t3``.
    """
    _check_finite_times(t1=t1, t2=t2, t3=t3)
    if not 0.0 <= t1 < t2 < t3:
        raise ValueError("need 0 <= t1 < t2 < t3")
    return LgiResult.from_tables(_tables(run(t1, t2, t3)), (t1, t2, t3), kappa)


class CorrelatorEngine:
    """Protocol evaluator bound to one Hamiltonian and one noise strength.

    Building the engine refuses a kappa that :func:`nhlgi.dynamics._check_kappa`
    refuses, and binds two routes once, each the ``(setup, evaluate)`` pair
    of a frame, with the frame's own setup (the closed form of the lift, on
    floats).  Neither validates; the scans call them per point.

    - ``_circle_route`` for a spinor ``(u, i v)`` and an axis ``(0, ny,
      nz)`` on the invariant circle, given as the floats ``((u, v), (ny,
      nz))``: the circle frame at ``kappa = 0``, and under noise the Bloch
      route fed ``(0, 2 u v, u^2 - v^2)/(u^2 + v^2)`` and ``(0, ny, nz)``,
      the floats it is fed for ``(u, i v)`` off the circle;
    - ``_bloch_route`` for a Bloch vector and a unit axis: the noisy frame,
      at every ``kappa >= 0``.

    Every public call goes through one entry, :meth:`_protocol_inputs`,
    which validates once.  A spinor on the circle (``nx`` exactly zero and
    a spinor :func:`nhlgi.dynamics._circle_state` maps to ``(u, v)``) takes
    the circle route; any other spinor enters the Bloch route as ``2
    S/|psi|^2``, a density matrix as ``tr(rho sigma)``.

    README's accuracy figures for the Bloch route (seeded draws within
    3.1e-13 of 40 digits, and 5.6e-16 at ``kappa = 0``) leave out a
    collapse near the half period.  At ``kappa = 0`` a density matrix or an
    off-circle spinor whose branch collapses there loses digits:
    ``projector(up_y())`` on the canonical axis at times (0, 1.57, 3.14) is
    2.0e-4 off at delta = 1e-3 and 5.1e-4 at 1e-4, and 4.9e-3 off at
    ``THETA_MAX`` and times (0, 1.5707963, 3.1415926); off-circle spinors
    are up to 2.0e-10, 6.0e-8 and 6.0e-4 off at delta = 1e-3, 1e-4 and
    1e-6.  ``up_y`` as a spinor takes the circle frame and stays within
    8.9e-16 on those rows.  Item 24 of ROADMAP.md has the probes and the
    planned fix.
    """

    def __init__(self, h: NHHamiltonian, kappa: float = 0.0):
        _check_kappa(kappa)
        bloch_setup, evaluate = self._bloch_route = _noisy_frame(h, kappa)

        def noisy_circle_setup(state, axis):
            u, v = state
            ny, nz = axis
            norm = u * u + v * v
            r = (0.0, 2.0 * (u * v) / norm, (u * u - v * v) / norm)
            return bloch_setup(r, (0.0, ny, nz))

        self._circle_route = (
            _circle_frame(h) if kappa == 0.0 else (noisy_circle_setup, evaluate)
        )
        self.kappa = float(kappa)

    def _protocol_inputs(self, state, q: Observable):
        """Validated ``run(t1, t2, t3)`` -> the eight numbers, on the route
        the inputs select, with the state and axis set up once for any
        number of times."""
        state = np.asarray(state, dtype=complex)
        n = q.direction
        if state.ndim == 1:
            psi = tuple(validate_pure(state).tolist())
            pure = None if n[0] != 0.0 else _circle_state(psi)
            if pure is not None:
                setup, evaluate = self._circle_route
                return partial(evaluate, setup(pure, n[1:]))
            # 2 S over the squared norm, which rounds a few ulp off 1: a
            # deficit the lift amplifies near pi/2
            (a, b), (x, y, z) = psi, _spinor_bloch(psi)
            norm = (a * a.conjugate()).real + (b * b.conjugate()).real
            r = (2.0 * x / norm, 2.0 * y / norm, 2.0 * z / norm)
        elif state.ndim == 2:
            r = _density_bloch(validate_density(state).tolist())
        else:
            raise ValueError("state must be a 2-vector or a 2x2 density matrix")
        setup, evaluate = self._bloch_route
        return partial(evaluate, setup(r, n))

    def joint_table(self, state, q: Observable, t_i: float, t_j: float) -> JointTable:
        """Joint distribution of outcomes at ``t_i < t_j`` from time zero."""
        run = self._protocol_inputs(state, q)
        _check_finite_times(t_i=t_i, t_j=t_j)
        if not 0.0 <= t_i < t_j:
            raise ValueError("need 0 <= t_i < t_j")
        # the (1,2) table of a run whose third time repeats the second
        return JointTable(_tables(run(t_i, t_j, t_j))[0], t_i, t_j)

    def correlator(self, state, q: Observable, t_i: float, t_j: float) -> float:
        return self.joint_table(state, q, t_i, t_j).correlator

    def k3(self, state, q: Observable, t1: float, t2: float, t3: float) -> LgiResult:
        """Full three-time protocol result at ordered times ``t1 < t2 < t3``."""
        return _k3_result(self._protocol_inputs(state, q), t1, t2, t3, self.kappa)


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
    antipode over the half period).  Domain: ``theta in [0, pi/2 - 1e-6]``,
    the library's, and ``t in (0, pi/2]``.

    Near the corner ``1 - sin theta`` and ``1 + cos 2t sin theta`` are
    small, so they are evaluated without cancellation: ``1 - sin theta =
    cos^2 theta/(1 + sin theta)``, ``1 +/- cos 2t`` as ``2 cos^2 t`` and
    ``2 sin^2 t``, and ``1 + cos 4t`` as ``2 cos^2 2t``.
    """
    _check_theta(theta)
    if not (0.0 < t <= math.pi / 2):
        raise ValueError(f"t must lie in (0, pi/2], got {t!r}")
    s, c = math.sin(theta), math.cos(theta)
    cc, one_minus = c * c, c * c / (1.0 + s)
    ct2, st2, c2t2 = math.cos(t) ** 2, math.sin(t) ** 2, math.cos(2.0 * t) ** 2
    d2 = one_minus + 2.0 * s * ct2  # 1 + cos 2t sin theta
    d2m = one_minus + 2.0 * s * st2  # 1 - cos 2t sin theta
    d4 = one_minus + 2.0 * s * c2t2  # 1 + cos 4t sin theta

    c12 = (2.0 * ct2 - one_minus) / d2  # (cos 2t + sin theta)/d2
    c13 = (2.0 * c2t2 - one_minus) / d4  # (cos 4t + sin theta)/d4
    p23_pp = ct2 * ct2 * (1.0 + s) ** 2 / (d2 * d2)
    p23_pm = ct2 * st2 * cc / (d2 * d2)
    p23_mp = st2 * st2 * cc / (d2 * d2m)
    p23_mm = st2 * ct2 * one_minus * one_minus / (d2 * d2m)
    c23 = p23_pp - p23_pm - p23_mp + p23_mm
    return c12, c23, c13, c12 + c23 - c13
