"""Two-level dynamics generated by the canonical real-spectrum
non-Hermitian family

    H(theta) = s (sec(theta) sigma_x + i tan(theta) sigma_z),   theta in [0, pi/2)

with a positive overall scale ``s`` (1 except in ``nhlgi distance
--rescaled``).  :class:`NHHamiltonian` is this family, ``(theta, scale)``.
Written as ``s (A - iB) . sigma``, its vectors are ``A = sec(theta) x`` and
``B = -tan(theta) z``: orthogonal, with ``|A| > |B|``, so the spectrum is
the real ``+/- s sqrt(A^2 - B^2) = +/- s``.  A sensible quantum mechanics is
recovered by renormalising the state after each application of ``exp(-i H
t)``; on the Bloch sphere the renormalised flow obeys the nonlinear equation
of motion

    dS/dt = 2 A x S - B + 4 (B . S) S - 2 kappa S

where the last term models isotropic white-noise depolarisation of strength
``kappa >= 0`` (``A`` and ``B`` here include the scale).  At unit scale the
family has unit spectral gap, period pi, and interpolates from the Hermitian
limit at ``theta = 0`` to arbitrarily strong norm amplification as ``theta``
approaches ``pi/2``.

This module provides exact propagators, adaptive Runge-Kutta integration of
the Bloch flow (an in-house Dormand-Prince 5(4) run that repeats scipy's
RK45 on plain scalars, so numpy stays the only dependency, imported on
first use by ``nhlgi._numpy``; the independent route of the acceptance
checks and tests), closed-form trajectory components in the frame spanned
by ``A``, ``B`` and ``n = A x B`` (``x``, ``-z`` and ``y``, one constant
frame for every member), geodesic distances, and the local speed of state
evolution, ``|dS/dt|^2``.

Each formula is written once, as a kernel on plain scalars that the scans,
the protocol and the CLI call per point: one pure flow, the real map of
``_circle_flow`` on a spinor's ``(p, m) = (a - i b, a + i b)``
(``_circle_coordinates``, ``_circle_state``) from the double theta, which
:func:`pure_propagator`, :func:`propagated_norm` and the speed
(``_circle_speed``, ``_speed_route``) run; the density lift in closed form
at every ``kappa >= 0``, from the real root of its characteristic cubic
(``_lift_coefficients``, ``_lift_weights``, ``_lift_propagator``); RK45's
right-hand side (``_bloch_rhs``); the Bloch vectors of spinors and density
matrices (``_spinor_bloch``, ``_density_bloch``), the Bloch-angle maps
(``_bloch_state``, ``_bloch_axis``) and the eigenbasis of a measurement
axis (``_axis_basis``).  The public numpy functions validate once and call
them.

Each input contract that more than one public call makes is checked by one
private owner here, which every module calls: the working point
(``_check_theta``, theta in ``[0, pi/2 - 1e-6]``), the noise rate
(``_check_kappa``), finite times (``_check_finite_times``, and
``_finite_times`` for arrays) and the Bloch ball (``_check_bloch``).  The
adaptive Runge-Kutta run and its :class:`StiffnessError` live in ``_rk45``.
:class:`NHHamiltonian` is two floats, ``(theta, scale)``; its rounded sec and
tan reach only its matrix and RK45's scaled vectors ``(scale a, scale b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import qmat
from ._numpy import np

__all__ = [
    "THETA_MAX",
    "DegenerateEvolutionError",
    "StiffnessError",
    "NHHamiltonian",
    "Trajectory",
    "up_y",
    "down_y",
    "up_z",
    "down_z",
    "state_from_bloch_angles",
    "validate_pure",
    "validate_density",
    "projector",
    "bloch_of_pure",
    "abn_frame",
    "bloch_to_abn",
    "pure_propagator",
    "evolve_pure",
    "propagated_norm",
    "evolve_density_noisy",
    "integrate_bloch",
    "analytic_SB_Sn",
    "geodesic_distance",
    "geodesic_distance_closed_form",
    "speed",
    "speed_closed_form",
]

# The canonical family degenerates at theta = pi/2 (the spectrum gap stays
# finite but sec and tan diverge); cap the domain just below.
THETA_MAX = math.pi / 2 - 1e-6

_NORM_FLOOR = 1e-14
# Right-hand sides one RK45 run may spend before it is refused, so a huge
# finite end time cannot run without bound.  The largest need found is 4.9e4,
# for the long-horizon acceptance run; no CLI command runs RK45.
_RK45_MAX_EVALS = 2_000_000


class DegenerateEvolutionError(RuntimeError):
    """Raised when a propagated norm or trace collapses below the floor."""


class StiffnessError(RuntimeError):
    """Raised when the adaptive Runge-Kutta integrator fails to proceed."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


# ---------------------------------------------------------------------------
# states


def up_y() -> np.ndarray:
    """The state ``(i, 1)/sqrt(2)``, Bloch vector ``(0, -1/2, 0)``.

    With the pinned sigma_y representation this is the eigenvector with
    eigenvalue -1; the library labels it "up" along the y axis because it is
    the +1 eigenstate of the canonical measurement operator, whose axis is
    ``-y`` (see :mod:`nhlgi.lgi`).
    """
    return np.array([1j, 1.0], dtype=complex) / math.sqrt(2.0)


def down_y() -> np.ndarray:
    """The state ``(-i, 1)/sqrt(2)``, orthogonal to :func:`up_y`."""
    return np.array([-1j, 1.0], dtype=complex) / math.sqrt(2.0)


def up_z() -> np.ndarray:
    return np.array([1.0, 0.0], dtype=complex)


def down_z() -> np.ndarray:
    return np.array([0.0, 1.0], dtype=complex)


def state_from_bloch_angles(theta_s: float, phi_s: float) -> np.ndarray:
    """Pure state with Bloch direction (sin t cos p, sin t sin p, cos t)."""
    return np.array(_bloch_state(theta_s, phi_s))


def _cos_sin(phi: float) -> tuple[float, float]:
    """``(cos phi, sin phi)``, exact at the quarter turns ``phi = pi/2`` and
    ``3 pi/2``, where ``math.cos`` leaves 6.1e-17 and -1.8e-16.  Both Bloch
    angles of an axis go through it: in the azimuth the y-z great circle is
    then exactly the states and axes with no x part, and in the polar angle
    the axis ``theta = pi/2`` has no z part, as the K3 search's canonical
    axis needs."""
    if phi == 0.5 * math.pi:
        return 0.0, 1.0
    if phi == 1.5 * math.pi:
        return 0.0, -1.0
    return math.cos(phi), math.sin(phi)


def _bloch_state(theta: float, phi: float) -> tuple[complex, complex]:
    """``(cos theta/2, e^{i phi} sin theta/2)`` as plain scalars."""
    half = 0.5 * theta
    return complex(math.cos(half)), complex(*_cos_sin(phi)) * math.sin(half)


def _bloch_axis(theta: float, phi: float) -> tuple[float, float, float]:
    """``(sin theta cos phi, sin theta sin phi, cos theta)`` as plain scalars."""
    ct, st = _cos_sin(theta)
    c, si = _cos_sin(phi)
    return st * c, st * si, ct


def _axis_basis(n) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The (+1, -1) eigenstates of ``n . sigma`` for a unit axis ``n``, as
    pairs of scalars.

    Each state has its larger component real and positive, returned as a
    float.  For ``nz >= 0`` they are ``(1 + nz, nx + i ny)`` and ``(-(nx -
    i ny), 1 + nz)`` over ``sqrt(2 (1 + nz))``; for ``nz < 0`` the mirror
    images ``(nx - i ny, 1 - nz)`` and ``(1 - nz, -(nx + i ny))`` over
    ``sqrt(2 (1 - nz))``.
    """
    nx, ny, nz = n
    big = 1.0 + abs(nz)
    k = 1.0 / math.sqrt(2.0 * big)
    r, x, y = k * big, k * nx, k * ny
    if nz >= 0.0:
        return (r, complex(x, y)), (complex(-x, y), r)
    return (complex(x, -y), r), (r, complex(-x, -y))


def validate_pure(psi) -> np.ndarray:
    """Return ``psi`` as a complex 2-vector, insisting on unit norm."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"expected a 2-component state vector, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("non-finite state vector")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state vector is not normalised (norm {norm!r})")
    return psi


def _check_finite_times(**times) -> None:
    """Refuse any non-finite time, naming it: a NaN or infinite time would
    otherwise come back as NaN, or run an adaptive integrator forever."""
    for name, t in times.items():
        if not math.isfinite(t):
            raise ValueError(f"time {name} = {t!r} must be finite")


def _finite_times(t, name: str = "t") -> np.ndarray:
    """``t``, a time or an array of times, as a float array; refused like
    :func:`_check_finite_times` if any element is NaN or infinite."""
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"time {name} = {t[~finite][0].item()!r} must be finite")
    return t


def _is_bool(value) -> bool:
    """Whether ``value`` is Python's bool or numpy's, whose dtype is ``bool``
    (read without numpy, so the lift path runs on floats alone)."""
    return isinstance(value, bool) or getattr(value, "dtype", None) == bool


def _check_theta(theta: float) -> None:
    """Refuse a working point of the canonical family outside ``[0, THETA_MAX]``
    (NaN included), or a bool: every closed form, Hamiltonian and dilation of
    ``theta`` shares this domain."""
    if _is_bool(theta):
        raise ValueError(f"theta must be a float, not the bool {theta!r}")
    if not 0.0 <= theta <= THETA_MAX:
        raise ValueError(f"theta must lie in [0, pi/2 - 1e-6], got {theta!r}")


def _check_kappa(kappa: float) -> None:
    """Refuse a negative, NaN or infinite depolarising rate, or a bool by name."""
    if _is_bool(kappa):
        raise ValueError(f"kappa must be a float, not the bool {kappa!r}")
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise ValueError("kappa must be a finite non-negative rate")


def _check_bloch(s, what: str) -> np.ndarray:
    """``s`` as a float 3-vector inside the Bloch ball ``|S| <= 1/2`` (to 1e-8);
    ``what`` names it in the refusal.  A non-finite vector is refused too."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {s.shape}")
    if not np.linalg.norm(s) <= 0.5 + 1e-8:
        raise ValueError(f"{what} lies outside the Bloch ball |S| <= 1/2")
    return s


def validate_density(rho) -> np.ndarray:
    """Return ``rho`` as a 2x2 density matrix, checking the usual axioms."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("non-finite density matrix")
    if np.linalg.norm(rho - rho.conj().T) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("density matrix does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalised state."""
    psi = validate_pure(psi)
    return np.outer(psi, psi.conj())


def bloch_of_pure(psi) -> np.ndarray:
    """Bloch vector ``S = <sigma>/2`` of a normalised pure state (|S| = 1/2).

    For ``psi = (a, b)`` this is ``(Re(a* b), Im(a* b), (|a|^2 - |b|^2)/2)``.
    """
    return np.array(_spinor_bloch(validate_pure(psi).tolist()))


def _spinor_bloch(psi) -> tuple[float, float, float]:
    """:func:`bloch_of_pure` of a spinor ``(a, b)`` of plain complex scalars."""
    a, b = psi
    ab = a.conjugate() * b
    return ab.real, ab.imag, 0.5 * ((a * a.conjugate()).real - (b * b.conjugate()).real)


def _density_bloch(rho) -> tuple[float, float, float]:
    """``r = tr(rho sigma) = (2 Re rho01, -2 Im rho01, rho00 - rho11)`` of a
    Hermitian ``rho`` given as nested lists of complex scalars."""
    (p00, p01), (_, p11) = rho
    return 2.0 * p01.real, -2.0 * p01.imag, (p00 - p11).real


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass
class NHHamiltonian:
    """The canonical member ``scale * (sec(theta) sigma_x + i tan(theta)
    sigma_z)``, for ``0 <= theta <= pi/2 - 1e-6`` and a positive finite
    ``scale``; a bool for either is refused.

    The member is the two floats ``(theta, scale)``.  The rounded
    ``sec(theta)`` and ``tan(theta)`` are computed once for ``_scaled``
    (RK45's input) and ``matrix`` (the dilation's checks).  Matching against
    ``scale * (a - i b) . sigma`` gives ``a = sec(theta) x`` and ``b =
    -tan(theta) z``; ``a . b = 0`` and ``|a| > |b|``, so the spectrum is the
    real ``+/- omega`` with ``omega = scale * sqrt(sec^2 - tan^2) = scale``.
    ``scale`` is a plain multiplicative rescaling of the operator (``nhlgi
    distance --rescaled`` passes ``cos theta``, to compare members at equal
    Hermitian-part strength).
    """

    theta: float
    scale: float = 1.0

    def __post_init__(self):
        _check_theta(self.theta)
        if _is_bool(self.scale):
            raise ValueError(f"scale must be a float, not the bool {self.scale!r}")
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError("scale must be positive and finite")
        self._sec = 1.0 / math.cos(self.theta)
        self._tan = math.tan(self.theta)

    @classmethod
    def canonical(cls, theta: float, scale: float = 1.0) -> "NHHamiltonian":
        """The member ``theta`` at ``scale``: the constructor every caller uses."""
        return cls(theta, scale)

    @cached_property
    def _scaled(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """``(scale a, scale b)`` as plain float triples, for the scalar
        kernels.  ``b_z`` is ``-0.0`` at theta = 0."""
        scale = float(self.scale)
        return (scale * self._sec, 0.0, 0.0), (0.0, 0.0, scale * -self._tan)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 2x2 operator ``scale * (a - i b) . sigma``: ``scale sec(theta)``
        off the diagonal and ``+/- i scale tan(theta)`` on it, every zero
        ``+0.0`` (``0.0 + b_z`` turns theta = 0's ``-0.0`` into ``+0.0``)."""
        (ax, _, _), (_, _, bz) = self._scaled
        return np.array(
            [[complex(0.0, -bz), ax], [ax, complex(0.0, 0.0 + bz)]], dtype=complex
        )

    @cached_property
    def omega(self) -> float:
        """Half the (real) spectral gap: exactly ``scale``, since ``sec^2 -
        tan^2 = 1``, which the rounded sec and tan lose near the corner."""
        return float(self.scale)

    def propagator(self, t: float) -> np.ndarray:
        """``exp(-i H t) = cos(w t) I - i sin(w t)/w H`` of the rounded
        matrix, as ``H^2 = omega^2 I``.  No library route calls it; it stays
        while ``perfbench``'s tracer binds it."""
        w = self.omega
        return math.cos(w * t) * qmat.ID2 - (1j * math.sin(w * t) / w) * self.matrix


# The unit vectors along a and b and their cross product n, the same floats
# for every member: (1, 0, 0), (0, 0, -1) and (-0.0, 1, 0), the -0.0 being
# what the cross product of the first two gives.  At theta = 0, where b
# vanishes, the same B axis extends the family continuously.
_ABN_FRAME = ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (-0.0, 1.0, 0.0))


def abn_frame() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal frame (A_hat, B_hat, n_hat = A_hat x B_hat) of the family:
    ``(x, -z, y)`` for every member and scale."""
    return tuple(np.array(v) for v in _ABN_FRAME)


def bloch_to_abn(s) -> np.ndarray:
    """Components of a Cartesian Bloch vector in the (A, B, n) frame."""
    a_hat, b_hat, n_hat = abn_frame()
    s = np.asarray(s, dtype=float)
    return np.stack(
        [s @ a_hat, s @ b_hat, s @ n_hat], axis=-1
    )


# ---------------------------------------------------------------------------
# propagation


def pure_propagator(h: NHHamiltonian):
    """Renormalised pure-state flow of ``h`` on plain complex scalars.

    Returns ``propagate(t, psi) -> psi`` for spinors ``psi``: the map of
    :func:`_circle_flow` on :func:`_circle_coordinates`, carried back as
    ``((p + m)/2, i (p - m)/2)`` and normalised, with no numpy work and no
    validation.  A collapsed norm raises ``DegenerateEvolutionError``.
    """
    _, flow = _circle_flow(h)

    def propagate(t, psi):
        p, m = flow(t, _circle_coordinates(psi))
        x, y = 0.5 * (p + m), 0.5j * (p - m)
        n = math.hypot(x.real, x.imag, y.real, y.imag)
        if n < _NORM_FLOOR:
            raise DegenerateEvolutionError(
                f"propagated norm {n:.3e} below representable floor at t = {t!r}"
            )
        return x / n, y / n

    return propagate


def _circle_state(psi) -> tuple[float, float] | None:
    """``(u, v)`` of a spinor ``(u, i v)`` or ``(i u, v) = i (u, -i v)`` on
    the invariant y-z circle, or None.  Each component's other part must be
    exactly zero, as :func:`state_from_bloch_angles` leaves at ``phi = pi/2``
    and ``3 pi/2``."""
    a, b = psi
    if a.imag == 0.0 and b.real == 0.0:
        return a.real, b.imag
    if a.real == 0.0 and b.imag == 0.0:
        return a.imag, -b.real
    return None


def _circle_coordinates(psi) -> tuple[complex, complex]:
    """``(p, m) = (a - i b, a + i b)`` of a spinor ``(a, b)``: :func:`_circle_flow`'s."""
    a, b = psi
    return a - 1j * b, a + 1j * b


def _circle_flow(h: NHHamiltonian):
    """The pure flow of ``h``, ``((w, K, 1/K), propagate)``, with real coefficients.

    In ``p = u + v``, ``m = u - v`` of a state ``(u, i v)``, ``exp(-i H t)``
    is ``propagate(t, (p, m)) = (c p - s m/K, c m + s K p)``, ``c, s = cos(w
    t), sin(w t)``, with ``w = scale``, ``K = (1 + sin theta)/cos theta`` and
    ``1/K = cos theta/(1 + sin theta)`` from the double theta: no rounded
    sec, tan or omega, so the map stays exact at the corner.  It is
    complex-linear, so it carries any spinor's :func:`_circle_coordinates`
    too.  The state is not normalised."""
    w = float(h.scale)
    sin_t, cos_t = math.sin(h.theta), math.cos(h.theta)
    k, rk = (1.0 + sin_t) / cos_t, cos_t / (1.0 + sin_t)

    def propagate(t, pm):
        p, m = pm
        c, s = math.cos(w * t), math.sin(w * t)
        return c * p - s * (m * rk), c * m + s * (k * p)

    return (w, k, rk), propagate


def _circle_speed(w: float, k: float, rk: float, p, m) -> float:
    """``|dS/dt|^2 = (w |K p^2 + m^2/K| / (|p|^2 + |m|^2))^2``, ``<H^dag H> -
    |<H>|^2`` for :func:`_circle_flow`'s generator ``i w [[0, -1/K], [K, 0]]``
    at an unnormalised ``(p, m)``: no term is of size ``1/delta``."""
    pp, mm = (p * p.conjugate()).real, (m * m.conjugate()).real
    rate = w * abs(k * (p * p) + (m * m) * rk) / (pp + mm)
    return rate * rate


def _lift_coefficients(h: NHHamiltonian, kappa: float):
    """The linear lift of the density flow at ``kappa >= 0`` in closed form.

    The unnormalised state ``(r0 I + r . sigma)/2`` obeys ``d(r0, r)/dt =
    [[0, -2 B^T], [-2 B, 2 [A x] - 2 kappa]] (r0, r)``.  Its x component
    decays alone at ``-2 kappa``, since ``a . b = 0``.  In the circle frame's
    basis ``(P, M, Z) = (r0 + y, r0 - y, z)`` the ``(trace, y, z)`` block is

        L = [[-kappa, kappa, -2 e], [kappa, -kappa, 2 f], [f, -e, -2 kappa]]

    with ``e = w cos theta/(1 + sin theta)`` and ``f = w (1 + sin theta)/cos
    theta`` from :func:`_circle_flow` (``e f = w^2``): no rounded sec or tan.
    Its characteristic cubic ``lam [(lam + 2 kappa)^2 + 4 w^2] - 8 kappa b^2``,
    ``b = (f - e)/2 = w tan theta``, is negative for ``lam < 0`` and
    increasing and convex for ``lam >= 0``, so it has one real root ``r >=
    0`` (zero only when ``kappa b = 0``).  Newton's method from ``8 kappa
    b^2/(4 kappa^2 + 4 w^2)``, which lies right of the root, converges to it
    monotonically.  The roots sum to ``-4 kappa``, so the conjugate pair is
    ``r + m +/- i beta`` with ``m = -2 kappa - 3 r/2`` and ``beta = sqrt(4
    w^2 + 2 kappa r + 3 r^2/4) >= 2 w``: the roots never cluster.

    With ``G = L - r``, whose spectrum is ``{0, m +/- i beta}``, Putzer's
    form separated from the identity is

        e^{-r t} e^{L t} v = v + (E cos(beta t) - 1) B1 v + E sin(beta t) B2 v

    where ``E = e^{m t}``, ``B1 = (2 m G - G^2)/|mu|^2``, ``B2 = ((beta^2 -
    m^2) G + m G^2)/(beta |mu|^2)`` and ``|mu|^2 = m^2 + beta^2``; ``G^2`` is
    written out with ``e f = w^2`` exactly.  At ``kappa = 0`` this is ``B1 =
    -G^2/(4 w^2)`` and ``B2 = G/(2 w)``.  The factor ``e^{-r t}`` cancels in
    every renormalised quantity, and x decays relative to it at ``decay =
    -(2 kappa + r)``.

    Returns ``((r, m, beta, decay), (B1, B2))``: each ``B`` is three rows of
    floats, the trace, y and z of ``B v`` as functions of ``v`` in ``(P, M,
    Z)``, so a vector enters in that basis and leaves in ``(trace, y, z)``.
    A bool or a negative or non-finite kappa is refused.
    """
    _check_kappa(kappa)
    (w, k, rk), _ = _circle_flow(h)
    e, f, ww = w * rk, w * k, w * w
    # the real root, by Newton's method from the right
    c0 = 2.0 * kappa * (f - e) ** 2
    r = c0 / (4.0 * kappa * kappa + 4.0 * ww)
    while True:
        q = r + 2.0 * kappa
        qq = q * q + 4.0 * ww
        step = (r * qq - c0) / (qq + 2.0 * r * q)
        if not (step > 0.0 and r - step < r):
            break
        r -= step
    m = -2.0 * kappa - 1.5 * r
    beta_sq = 4.0 * ww + 2.0 * kappa * r + 0.75 * r * r
    beta = math.sqrt(beta_sq)
    mu_sq = m * m + beta_sq
    # G and G^2 row by row in (P, M, Z), then B1 = u1 G + u2 G^2 and B2 = v1
    # G + v2 G^2
    a, c = -kappa - r, -2.0 * kappa - r
    g = ((a, kappa, -2.0 * e), (kappa, a, 2.0 * f), (f, -e, c))
    d = a * a + kappa * kappa - 2.0 * ww
    g2 = (
        (d, 2.0 * (a * kappa + e * e), 2.0 * (kappa * f - e * (a + c))),
        (2.0 * (a * kappa + f * f), d, 2.0 * (f * (a + c) - e * kappa)),
        (f * (a + c) - e * kappa, f * kappa - e * (a + c), c * c - 4.0 * ww),
    )
    u1, u2 = 2.0 * m / mu_sq, -1.0 / mu_sq
    v1, v2 = (beta_sq - m * m) / (beta * mu_sq), m / (beta * mu_sq)
    modes = []
    for x, y in ((u1, u2), (v1, v2)):
        row_p, row_m, row_z = (
            [x * gj + y * hj for gj, hj in zip(row, row2)] for row, row2 in zip(g, g2)
        )
        # the trace and y rows: half the sum and half the difference of the
        # P and M rows
        modes.append((
            tuple(0.5 * (pj + mj) for pj, mj in zip(row_p, row_m)),
            tuple(0.5 * (pj - mj) for pj, mj in zip(row_p, row_m)),
            tuple(row_z),
        ))
    return (r, m, beta, -2.0 * kappa - r), tuple(modes)


def _lift_weights(m: float, beta: float, decay: float, t: float) -> tuple[float, float, float]:
    """The weights at ``t`` of :func:`_lift_coefficients`: ``(exp(decay t), E
    cos(beta t) - 1, E sin(beta t))`` with ``E = e^{m t}``, the middle one as
    ``expm1(m t) cos(beta t) + (cos(beta t) - 1)`` and its last term as
    ``-sin^2/(1 + cos)`` when the cosine is positive, so the two lift weights
    vanish exactly at ``t = 0`` and keep their digits for short times."""
    em1 = math.expm1(m * t)
    c, s = math.cos(beta * t), math.sin(beta * t)
    cm1 = -s * s / (1.0 + c) if c > 0.0 else c - 1.0
    return math.exp(decay * t), em1 * c + cm1, (1.0 + em1) * s


def _lift_propagator(h: NHHamiltonian, kappa: float):
    """Renormalised density flow of ``h`` at depolarising rate ``kappa >= 0``.

    Returns ``propagate(t, r) -> r`` on Bloch vectors ``r = tr(rho sigma)``
    as plain float triples: ``e^{-r t} e^{L t} (1, r)`` in the closed form of
    :func:`_lift_coefficients`, divided by its trace, so each time costs one
    ``expm1``, one ``exp`` and one cos/sin pair whatever ``kappa`` is.  ``t
    = 0`` returns ``r`` itself.  A collapsed trace raises
    ``DegenerateEvolutionError``.

    Near the half period the trace of a pure start falls to about
    ``delta^2/4`` (``delta = pi/2 - theta``) and the sums cancel: from ``(0,
    -1, 0)`` on t = 1.50 to 1.65 (step 0.005) this is within 1.3e-12, 5.5e-11
    and 3.5e-11 of the exact flow at delta = 1e-2, 1e-3 and 1e-6 (4.1e-12,
    1.7e-11 and 1.7e-16 at kappa = 1e-12), worst at t = 1.570; nearer pi/2
    it loses more (2.7e-4 at delta = 1e-6, t = pi/2 + 1e-8, kappa = 0).
    """
    (_, m, beta, decay), (b1, b2) = _lift_coefficients(h, kappa)
    (t1p, t1m, t1z), (y1p, y1m, y1z), (z1p, z1m, z1z) = b1
    (t2p, t2m, t2z), (y2p, y2m, y2z), (z2p, z2m, z2z) = b2

    def propagate(t, r):
        x, y, z = r
        p, q = 1.0 + y, 1.0 - y
        e, c, s = _lift_weights(m, beta, decay, t)
        r0 = 1.0 + c * (t1p * p + t1m * q + t1z * z) + s * (t2p * p + t2m * q + t2z * z)
        if r0 < _NORM_FLOOR:
            raise DegenerateEvolutionError(
                f"propagated trace {r0:.3e} below representable floor at t = {t!r}"
            )
        return (
            e * x / r0,
            (y + c * (y1p * p + y1m * q + y1z * z) + s * (y2p * p + y2m * q + y2z * z)) / r0,
            (z + c * (z1p * p + z1m * q + z1z * z) + s * (z2p * p + z2m * q + z2z * z)) / r0,
        )

    return propagate


def evolve_pure(h: NHHamiltonian, psi0, t: float) -> np.ndarray:
    """Renormalised pure-state evolution ``exp(-i H t) psi0 / ||...||``."""
    psi0 = validate_pure(psi0)
    _check_finite_times(t=t)
    return np.array(pure_propagator(h)(t, psi0.tolist()))


def propagated_norm(h: NHHamiltonian, psi0, t: float) -> float:
    """``||exp(-i H t) psi0||``: ``sqrt((|p|^2 + |m|^2)/2)`` of :func:`_circle_flow`."""
    psi0 = validate_pure(psi0)
    _check_finite_times(t=t)
    p, m = _circle_flow(h)[1](t, _circle_coordinates(psi0.tolist()))
    return math.sqrt(0.5 * ((p * p.conjugate()).real + (m * m.conjugate()).real))


def evolve_density_noisy(h: NHHamiltonian, rho0, kappa: float, t: float) -> np.ndarray:
    """Propagate the renormalised flow with depolarising noise to time ``t``.

    The flow of the density matrix,

        drho/dt = -i[A.sigma, rho] - {B.sigma, rho} + 2 tr(rho B.sigma) rho
                  + kappa (I - 2 rho),

    in the closed form of its linear lift, :func:`_lift_propagator`: exact to
    rounding at every ``kappa`` up to the corner, except near the half period
    where that function states its accuracy.  It is the library's one
    density flow: at ``kappa = 0``, ``U rho0 U^dag / tr(U rho0 U^dag)``.
    ``t < 0`` is refused; ``t = 0`` returns a copy of ``rho0``.
    """
    rho0 = validate_density(rho0)
    _check_kappa(kappa)
    _check_finite_times(t=t)
    if t == 0.0:
        return rho0.copy()
    if t < 0.0:
        raise ValueError("noisy evolution runs forward in time only")
    x, y, z = _lift_propagator(h, kappa)(t, _density_bloch(rho0.tolist()))
    return np.array(
        [[0.5 * (1.0 + z), 0.5 * complex(x, -y)], [0.5 * complex(x, y), 0.5 * (1.0 - z)]],
        dtype=complex,
    )


# The Dormand & Prince (1980) 5(4) pair as scipy's RK45 runs it: the nodes
# of stages 2-5 (stages 6 and 7 sit at the step's end; the seventh is the
# next step's first), the rows of stages 2-6, the fifth-order weights, the
# error weights over all seven stages, and the quartic dense-output matrix.
# Stage 2 has zero weight and no dense-output row, so those sums skip it.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _rms(v) -> float:
    """Root-mean-square of the non-negative reals ``v``."""
    return math.hypot(*v) / len(v) ** 0.5


def _rk45(fun, y0, times, rtol: float, atol: float) -> list[list]:
    """The states at ``times`` of ``dy/dt = fun(t, y)`` from ``y0`` at ``t = 0``:
    the adaptive run of :func:`integrate_bloch`.

    ``y0`` and the states are sequences of plain real scalars;
    ``times`` ascend, and the last of them, positive, is the end time.  The
    method is scipy's ``RK45``: the Dormand-Prince 5(4) pair with local
    extrapolation and its quartic dense output (Dormand & Prince, J. Comput.
    Appl. Math. 6, 1980), the initial step and step control of Hairer,
    Norsett & Wanner, *Solving ODEs I*, sec. II.4 (safety 0.9, factors 0.2
    and 10), the RMS error norm at ``rtol`` and ``atol``, and a step no
    shorter than ``10 ulp(t)``.  A run that needs a shorter (or NaN) step raises
    :class:`StiffnessError` carrying the last time
    reached (0.0 when no step was taken); so does a run whose next step would
    take it past ``_RK45_MAX_EVALS`` right-hand sides.
    """
    budget = _RK45_MAX_EVALS
    t_end = times[-1]
    c2, c3, c4, c5 = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), a6 = _DP_A
    a61, a62, a63, a64, a65 = a6
    b1, b3, b4, b5, b6 = _DP_B
    e1, e3, e4, e5, e6, e7 = _DP_E

    t, y = 0.0, list(y0)
    f = fun(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([abs(v) / s for v, s in zip(y, scale)])
    d1 = _rms([abs(k) / s for k, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    f1 = fun(h0, [v + h0 * k for v, k in zip(y, f)])
    d2 = _rms([abs(k1 - k) / s for k, k1, s in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_end)
    evals, out, i = 2, [], 0
    while True:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StiffnessError(
                    f"Bloch integration stalled at t = {t!r}: "
                    "Required step size is less than spacing between numbers.",
                    time=t,
                )
            if evals + 6 > budget:
                raise StiffnessError(
                    f"Bloch integration stopped at t = {t!r} of {t_end!r}: "
                    f"it spent its budget of {budget} right-hand sides",
                    time=t,
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            k1 = f
            k2 = fun(t + c2 * h, [v + (a21 * p) * h for v, p in zip(y, k1)])
            k3 = fun(t + c3 * h, [v + (a31 * p + a32 * q) * h for v, p, q in zip(y, k1, k2)])
            k4 = fun(t + c4 * h, [
                v + (a41 * p + a42 * q + a43 * r) * h for v, p, q, r in zip(y, k1, k2, k3)
            ])
            k5 = fun(t + c5 * h, [
                v + (a51 * p + a52 * q + a53 * r + a54 * s) * h
                for v, p, q, r, s in zip(y, k1, k2, k3, k4)
            ])
            k6 = fun(t + h, [
                v + (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u) * h
                for v, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)
            ])
            y_new = [
                v + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * w)
                for v, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)
            ]
            f_new = fun(t + h, y_new)
            evals += 6
            error_norm = _rms([
                abs((e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z) * h)
                / (atol + max(abs(v), abs(vn)) * rtol)
                for v, vn, p, r, s, u, w, z in zip(y, y_new, k1, k3, k4, k5, k6, f_new)
            ])
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm**-0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * error_norm**-0.2)
            rejected = True
        while i < len(times) and times[i] <= t_new:
            x = (times[i] - t) / h
            x2 = x * x
            x3 = x2 * x
            x4 = x3 * x
            w1, w3, w4, w5, w6, w7 = [
                pa * x + pb * x2 + pc * x3 + pd * x4 for pa, pb, pc, pd in _DP_P
            ]
            out.append([
                v + h * (w1 * p + w3 * r + w4 * s + w5 * u + w6 * w + w7 * z)
                for v, p, r, s, u, w, z in zip(y, k1, k3, k4, k5, k6, f_new)
            ])
            i += 1
        t, y, f = t_new, y_new, f_new
        if t >= t_end:
            return out


# ---------------------------------------------------------------------------
# Bloch flow


def _bloch_rhs(a, b, kappa: float, s) -> tuple[float, float, float]:
    """RK45's right-hand side ``2 A x S - B + 4 (B . S) S - 2 kappa S`` in
    :func:`integrate_bloch`, on plain float triples ``a``, ``b`` and ``s``.

    ``A`` and ``B`` include the scale (``NHHamiltonian._scaled``).  The flow
    preserves ``|S| = 1/2`` when ``kappa = 0`` and leaves the component along
    ``A`` invariant if it starts at zero.
    """
    ax, ay, az = a
    bx, by, bz = b
    sx, sy, sz = s
    pump = 4.0 * (bx * sx + by * sy + bz * sz)
    return (
        2.0 * (ay * sz - az * sy) - bx + pump * sx - 2.0 * kappa * sx,
        2.0 * (az * sx - ax * sz) - by + pump * sy - 2.0 * kappa * sy,
        2.0 * (ax * sy - ay * sx) - bz + pump * sz - 2.0 * kappa * sz,
    )


def _speed_route(h: NHHamiltonian):
    """``route(t, psi) -> |dS/dt|^2`` of ``h`` on plain scalars, at the state
    the flow carries the spinor ``psi`` to at ``t``: :func:`_circle_speed` on
    :func:`_circle_flow`'s map.  :func:`speed` and the speed search of
    :mod:`nhlgi.scan` both evaluate the speed here."""
    (w, k, rk), flow = _circle_flow(h)

    def route(t, psi):
        return _circle_speed(w, k, rk, *flow(t, _circle_coordinates(psi)))

    return route


@dataclass
class Trajectory:
    """Sampled Bloch trajectory: strictly increasing ``times`` and the
    Cartesian Bloch vectors ``bloch`` at them, shape ``(len(times), 3)``."""

    times: np.ndarray
    bloch: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.bloch = np.asarray(self.bloch, dtype=float)
        if self.bloch.shape != (self.times.size, 3):
            raise ValueError("bloch array must have shape (len(times), 3)")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def purity(self) -> np.ndarray:
        """``tr(rho^2) = 1/2 + 2 |S|^2`` along the trajectory."""
        return 0.5 + 2.0 * np.sum(self.bloch**2, axis=1)

    def abn(self) -> np.ndarray:
        """Trajectory components in the family's (A, B, n) frame."""
        return bloch_to_abn(self.bloch)


def integrate_bloch(
    s0,
    h: NHHamiltonian,
    kappa: float = 0.0,
    t_grid=None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the Bloch flow from ``t = 0`` over ``t_grid``.

    ``t_grid`` must be strictly increasing and start at zero.  Uses an
    adaptive embedded Runge-Kutta 4(5) pair at tight tolerances; failure to
    advance raises :class:`StiffnessError` carrying the failure time.  Run
    on the nonlinear equation, not the lift, it checks :func:`evolve_density_noisy`.

    ``rtol`` and ``atol`` bound the local error per step, not the global
    error, which grows towards the corner.  At the defaults, from ``up_y``
    over ``0 <= t <= 3.14`` in steps of 0.01 at ``kappa = 0``, the largest
    distance from the exact pure flow is 1.6e-10 at ``delta = pi/2 - theta =
    0.5``, 8.3e-9 at 0.1 and 1.3e-7 at 0.03, but 1.9e-6 at 0.01 and 6.0e-4
    at 1e-3: the 1e-6 accuracy floor is reached from ``delta = 0.03`` up.
    """
    s0 = _check_bloch(s0, "initial Bloch vector")
    _check_kappa(kappa)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array")
    _finite_times(t_grid, "t_grid")
    if abs(t_grid[0]) > 1e-12:
        raise ValueError("t_grid must start at 0")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("t_grid must be strictly increasing")

    if t_grid[-1] == 0.0:
        ys = np.repeat(s0[None, :], t_grid.size, axis=0)
        return Trajectory(t_grid, ys)

    a, b = h._scaled
    def rhs(_t, s):
        return _bloch_rhs(a, b, kappa, s)

    rows = _rk45(rhs, s0.tolist(), t_grid.tolist(), rtol, atol)
    return Trajectory(t_grid, rows)


def analytic_SB_Sn(theta: float, t):
    """Closed-form trajectory components of the canonical ``up_y`` trajectory
    of member ``theta`` at ``t``.

    The renormalised flow started from the Bloch vector ``-n/2`` stays in
    the B-n plane (its half gap is ``w = 1``) and satisfies

        |S_B(t)| = cos(theta) |sin 2t| / (2 D)
        S_n(t)   = -(sin(theta) + cos 2t) / (2 D),   D = 1 + sin(theta) cos 2t

    Returns the pair ``(|S_B|, S_n)``; the component along the B axis
    changes sign every half period, so only its magnitude has a closed form
    free of case analysis.  The signs above were fixed against the
    density-matrix propagator; they correspond to projecting onto the
    family's frame of :func:`abn_frame` (``B_hat = -z``, ``n_hat = +y``).
    ``D`` and ``sin(theta) + cos 2t``, small near the corner, are written with
    ``1 - sin theta = cos^2 theta/(1 + sin theta)`` and ``cos 2t = 2 cos^2 t - 1``.

    ``t`` may be a scalar or an array; a NaN or infinite time is refused.
    """
    _check_theta(theta)
    t = _finite_times(t)
    s, c = math.sin(theta), math.cos(theta)
    one_minus = c * c / (1.0 + s)  # 1 - sin theta
    ct2 = np.cos(t) ** 2
    denom = one_minus + 2.0 * s * ct2
    s_b = 0.5 * c * np.abs(np.sin(2.0 * t)) / denom
    s_n = -0.5 * (2.0 * ct2 - one_minus) / denom
    if t.ndim == 0:
        return float(s_b), float(s_n)
    return s_b, s_n


# ---------------------------------------------------------------------------
# distances and speed


def geodesic_distance(psi, phi) -> float:
    """Fubini-Study angle ``arccos |<psi|phi>|`` between normalised states.

    ``|<psi|phi>|`` and ``|psi0 phi1 - psi1 phi0|`` are the angle's cosine and
    sine; their ``atan2`` keeps the digits that ``arccos`` loses near 0.
    """
    (a, b), (c, d) = validate_pure(psi).tolist(), validate_pure(phi).tolist()
    overlap = a.conjugate() * c + b.conjugate() * d
    return math.atan2(abs(a * d - b * c), abs(overlap))


def geodesic_distance_closed_form(theta: float, t) -> float | np.ndarray:
    """Distance of the evolved ``up_y`` state from ``down_y`` at time ``t``,
    for the canonical family:

        arccos sqrt( sin^2 t (1 - sin theta) / (1 + cos 2t sin theta) ).

    Vanishes (modulo the pi periodicity of the flow) exactly at
    ``t = pi/2``, where every member of the family reaches ``down_y``.
    Evaluated as ``atan2(|cos t| (1 + sin theta), |sin t| cos theta)``,
    the angle's sine and cosine up to one positive factor, which has no
    cancellation near the corner or near either end of the angle.
    """
    _check_theta(theta)
    t = _finite_times(t)
    out = np.arctan2(
        np.abs(np.cos(t)) * (1.0 + math.sin(theta)), np.abs(np.sin(t)) * math.cos(theta)
    )
    return float(out) if out.ndim == 0 else out


def speed(h: NHHamiltonian, psi0, t: float) -> float:
    """Squared speed ``|dS/dt|^2`` of the Bloch vector at time ``t``.

    As the flow conserves ``|S| = 1/2``, the fidelity of neighbouring points
    expands as ``|<psi(t)|psi(t + dt)>|^2 = 1 - |dS/dt|^2 dt^2 + O(dt^3)``, so
    this is its decay coefficient ``<H^dag H> - |<H>|^2``: :func:`_circle_speed`
    at the state :func:`_circle_flow` carries ``psi0`` to, within 1.1e-15
    relative of 50 digits down to ``THETA_MAX``.  It is the quantity
    maximised by :func:`nhlgi.scan.maximize_speed`.
    """
    psi0 = validate_pure(psi0)
    _check_finite_times(t=t)
    return _speed_route(h)(t, psi0.tolist())


def speed_closed_form(theta: float, t) -> float | np.ndarray:
    """Closed form of the fidelity-decay coefficient along the canonical
    ``up_y`` trajectory: ``cos^2 theta / (1 + cos 2t sin theta)^2``.

    Equals 1 for all ``t`` in the Hermitian limit and peaks at ``t = pi/2``
    with value ``(1 + sin theta) / (1 - sin theta)``.  The denominator is
    evaluated as ``cos^2 theta/(1 + sin theta) + 2 sin theta cos^2 t``, a
    sum of like signs, so it keeps its digits near the corner.
    """
    _check_theta(theta)
    t = _finite_times(t)
    s, cc = math.sin(theta), math.cos(theta) ** 2
    out = cc / (cc / (1.0 + s) + 2.0 * s * np.cos(t) ** 2) ** 2
    return float(out) if out.ndim == 0 else out
