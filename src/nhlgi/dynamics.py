"""Two-level dynamics generated by real-spectrum non-Hermitian Hamiltonians.

Operators of the family ``H = s * (A - iB) . sigma`` with real 3-vectors
``A``, ``B`` satisfying ``A . B = 0`` and ``|A| > |B|`` (and a positive
overall scale ``s``) have the purely real spectrum ``+/- s sqrt(A^2 - B^2)``.
A sensible quantum mechanics is recovered by renormalising the state after
each application of ``exp(-i H t)``; on the Bloch sphere the renormalised
flow obeys the nonlinear equation of motion

    dS/dt = 2 A x S - B + 4 (B . S) S - 2 kappa S

where the last term models isotropic white-noise depolarisation of strength
``kappa >= 0`` (all vectors here include the overall scale).  The canonical
one-parameter family

    H_theta = sec(theta) sigma_x + i tan(theta) sigma_z,   theta in [0, pi/2)

has unit spectral gap, period pi, and interpolates from the Hermitian limit
at ``theta = 0`` to arbitrarily strong norm amplification as ``theta``
approaches ``pi/2``.

This module provides exact propagators, adaptive Runge-Kutta integration of
the Bloch flow (scipy's RK45, imported on first use), closed-form trajectory
components in the frame spanned by ``A``, ``B`` and ``n = A x B``, geodesic
distances, and the local speed of state evolution, ``|dS/dt|^2`` evaluated
exactly from the equation of motion above.

Each formula is written once, as a kernel on plain scalars that the scans
and the protocol call per point: the pure flow (:func:`pure_propagator`),
the density lift (``_bloch_lift``, ``_density_propagator``), the Bloch
equation (``_bloch_rhs``) and the speed bound to one Hamiltonian
(``_speed_route``), the geodesic angle (``_spinor_angle``), the Bloch
vectors of spinors and density matrices (``_spinor_bloch``,
``_density_bloch``), the Bloch-angle maps (``_bloch_state``,
``_bloch_axis``) and the eigenbasis of a measurement axis
(``_axis_basis``).  The public numpy functions validate once and call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qmat import ID2, pauli_vector

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
    "bloch_of_density",
    "density_from_bloch",
    "abn_frame",
    "bloch_to_abn",
    "pure_propagator",
    "evolve_pure",
    "propagated_norm",
    "evolve_density",
    "evolve_density_noisy",
    "bloch_rhs",
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


class DegenerateEvolutionError(RuntimeError):
    """Raised when a propagated norm collapses or a noisy lift is defective."""


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


def _bloch_state(theta: float, phi: float) -> tuple[complex, complex]:
    """``(cos theta/2, e^{i phi} sin theta/2)`` as plain scalars."""
    half = 0.5 * theta
    return (
        complex(math.cos(half)),
        complex(math.cos(phi), math.sin(phi)) * math.sin(half),
    )


def _bloch_axis(theta: float, phi: float) -> tuple[float, float, float]:
    """``(sin theta cos phi, sin theta sin phi, cos theta)`` as plain scalars."""
    s = math.sin(theta)
    return s * math.cos(phi), s * math.sin(phi), math.cos(theta)


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


def bloch_of_density(rho) -> np.ndarray:
    """Bloch vector ``S = tr(rho sigma)/2`` of a Hermitian 2x2 matrix."""
    return 0.5 * np.array(_density_bloch(np.asarray(rho, dtype=complex).tolist()))


def _density_bloch(rho) -> tuple[float, float, float]:
    """``r = tr(rho sigma) = (2 Re rho01, -2 Im rho01, rho00 - rho11)`` of a
    Hermitian ``rho`` given as nested lists of complex scalars."""
    (p00, p01), (_, p11) = rho
    return 2.0 * p01.real, -2.0 * p01.imag, (p00 - p11).real


def density_from_bloch(s) -> np.ndarray:
    """Density matrix ``I/2 + S . sigma`` of a Bloch vector with |S| <= 1/2."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"expected a Bloch 3-vector, got shape {s.shape}")
    if np.linalg.norm(s) > 0.5 + 1e-8:
        raise ValueError("Bloch vector lies outside the unit-radius ball (|S| > 1/2)")
    return 0.5 * ID2 + pauli_vector(s)


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass
class NHHamiltonian:
    """Non-Hermitian two-level generator ``scale * (a - i b) . sigma``.

    ``a`` and ``b`` are real 3-vectors with ``a . b = 0`` and ``|a| > |b|``,
    which guarantees the purely real spectrum ``+/- omega`` with
    ``omega = scale * sqrt(a^2 - b^2)``.  ``scale`` must be positive; it is a
    plain multiplicative rescaling of the operator (used e.g. to compare
    families at equal Hermitian-part strength).
    """

    a: np.ndarray
    b: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).copy()
        self.b = np.asarray(self.b, dtype=float).copy()
        if self.a.shape != (3,) or self.b.shape != (3,):
            raise ValueError("a and b must be real 3-vectors")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("non-finite Hamiltonian coefficients")
        if not np.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError("scale must be positive and finite")
        na, nb = np.linalg.norm(self.a), np.linalg.norm(self.b)
        if abs(float(np.dot(self.a, self.b))) > 1e-12 * max(1.0, na * nb):
            raise ValueError("a and b must be orthogonal for a real spectrum")
        if not na > nb:
            raise ValueError(
                "|a| must exceed |b|; otherwise the spectrum is not real "
                f"(|a| = {na!r}, |b| = {nb!r})"
            )

    @classmethod
    def canonical(cls, theta: float, scale: float = 1.0) -> "NHHamiltonian":
        """The family ``sec(theta) sigma_x + i tan(theta) sigma_z``.

        Matching against ``(a - i b) . sigma`` gives ``a = sec(theta) x`` and
        ``b = -tan(theta) z``.  Domain: ``0 <= theta <= pi/2 - 1e-6``.
        """
        if not np.isfinite(theta) or theta < 0.0 or theta > THETA_MAX:
            raise ValueError(
                f"theta must lie in [0, pi/2 - 1e-6], got {theta!r}"
            )
        return cls(
            a=np.array([1.0 / math.cos(theta), 0.0, 0.0]),
            b=np.array([0.0, 0.0, -math.tan(theta)]),
            scale=scale,
        )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The 2x2 operator ``scale * (a - i b) . sigma``."""
        return self.scale * (pauli_vector(self.a) - 1j * pauli_vector(self.b))

    @cached_property
    def a_operator(self) -> np.ndarray:
        """Hermitian part generator, ``scale * a . sigma``."""
        return self.scale * pauli_vector(self.a)

    @cached_property
    def b_operator(self) -> np.ndarray:
        """Anti-Hermitian part generator (without the -i), ``scale * b . sigma``."""
        return self.scale * pauli_vector(self.b)

    @cached_property
    def a_mag(self) -> float:
        return float(self.scale * np.linalg.norm(self.a))

    @cached_property
    def b_mag(self) -> float:
        return float(self.scale * np.linalg.norm(self.b))

    @cached_property
    def omega(self) -> float:
        """Half the (real) spectral gap, ``scale * sqrt(a^2 - b^2)``."""
        return float(
            self.scale
            * math.sqrt(float(np.dot(self.a, self.a) - np.dot(self.b, self.b)))
        )

    @property
    def period(self) -> float:
        """Period of the renormalised Bloch dynamics, pi / omega."""
        return math.pi / self.omega

    def propagator(self, t: float) -> np.ndarray:
        """Exact ``exp(-i H t)``.

        The square of the (traceless) operator is ``omega^2 I``, so the
        closed two-term form applies for every member of this class.
        """
        w = self.omega
        return math.cos(w * t) * ID2 - (1j * math.sin(w * t) / w) * self.matrix


def abn_frame(h: NHHamiltonian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal frame (A_hat, B_hat, n_hat = A_hat x B_hat).

    When ``|b| = 0`` (Hermitian member) the B axis is chosen to extend the
    canonical family continuously: the first of ``-z``, ``y``, ``x`` with a
    nonvanishing component orthogonal to ``a``.
    """
    a_hat = h.a / np.linalg.norm(h.a)
    nb = float(np.linalg.norm(h.b))
    if nb > 0.0:
        b_hat = h.b / nb
    else:
        b_hat = None
        for cand in (np.array([0.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0]),
                     np.array([1.0, 0.0, 0.0])):
            perp = cand - float(np.dot(cand, a_hat)) * a_hat
            norm = float(np.linalg.norm(perp))
            if norm > 1e-12:
                b_hat = perp / norm
                break
    n_hat = np.cross(a_hat, b_hat)
    return a_hat, b_hat, n_hat


def bloch_to_abn(s, h: NHHamiltonian) -> np.ndarray:
    """Components of a Cartesian Bloch vector in the (A, B, n) frame of ``h``."""
    a_hat, b_hat, n_hat = abn_frame(h)
    s = np.asarray(s, dtype=float)
    return np.stack(
        [s @ a_hat, s @ b_hat, s @ n_hat], axis=-1
    )


# ---------------------------------------------------------------------------
# propagation


def pure_propagator(h: NHHamiltonian):
    """Renormalised pure-state flow of ``h`` on plain complex scalars.

    Returns ``propagate(t, psi) -> psi`` for spinors ``psi = (a, b)``: the
    closed form ``exp(-i H t) = cos(w t) I - i sin(w t)/w M`` applied to
    ``psi`` and normalised.  The entries of ``M`` are bound once, so the call
    does no numpy work and no validation.  A collapsed norm raises
    ``DegenerateEvolutionError``.
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
        if n < _NORM_FLOOR:
            raise DegenerateEvolutionError(
                f"propagated norm {n:.3e} below representable floor at t = {t!r}"
            )
        return x / n, y / n

    return propagate


def _bloch_lift(h: NHHamiltonian, kappa: float):
    """The linear lift of the density flow on plain scalars.

    The unnormalised state ``(r0 I + r . sigma)/2`` obeys ``d(r0, r)/dt =
    [[0, -2 B^T], [-2 B, 2 [A x] - 2 kappa]] (r0, r)``; returns that map as
    ``lift(r0, x, y, z) -> (r0', x', y', z')``.
    """
    (ax, ay, az), (bx, by, bz) = (h.scale * h.a).tolist(), (h.scale * h.b).tolist()

    def lift(r0, x, y, z):
        return (
            -2.0 * (bx * x + by * y + bz * z),
            2.0 * (ay * z - az * y - bx * r0 - kappa * x),
            2.0 * (az * x - ax * z - by * r0 - kappa * y),
            2.0 * (ax * y - ay * x - bz * r0 - kappa * z),
        )

    return lift


def _density_propagator(h: NHHamiltonian):
    """Renormalised noiseless density flow of ``h`` on Bloch vectors.

    Returns ``propagate(t, r) -> r`` on Bloch vectors ``r = tr(rho sigma)``
    as plain float triples: ``U rho U^dag`` in closed form, because the
    spectrum ``{0, 0, +/- 2i w}`` of the noiseless lift gives ``exp(L t) = 1
    + sin(w t) cos(w t)/w L + sin(w t)^2/(2 w^2) L^2``.  A collapsed trace
    raises ``DegenerateEvolutionError``.
    """
    lift = _bloch_lift(h, 0.0)
    w = h.omega

    def propagate(t, r):
        first = lift(1.0, *r)
        s = math.sin(w * t) / w
        f, g = s * math.cos(w * t), 0.5 * s * s
        terms = zip((1.0,) + r, first, lift(*first))
        r0, x, y, z = (a + f * b + g * c for a, b, c in terms)
        if r0 < _NORM_FLOOR:
            raise DegenerateEvolutionError(
                f"propagated trace {r0:.3e} below representable floor at t = {t!r}"
            )
        return x / r0, y / r0, z / r0

    return propagate


def evolve_pure(h: NHHamiltonian, psi0, t: float) -> np.ndarray:
    """Renormalised pure-state evolution ``exp(-i H t) psi0 / ||...||``."""
    return np.array(pure_propagator(h)(t, validate_pure(psi0).tolist()))


def propagated_norm(h: NHHamiltonian, psi0, t: float) -> float:
    """Norm ``||exp(-i H t) psi0||`` of the unnormalised propagated state."""
    psi0 = validate_pure(psi0)
    return float(np.linalg.norm(h.propagator(t) @ psi0))


def evolve_density(h: NHHamiltonian, rho0, t: float) -> np.ndarray:
    """Renormalised density evolution ``U rho0 U^dag / tr(U rho0 U^dag)``,
    propagated on the Bloch vector of ``rho0``."""
    r = _density_bloch(validate_density(rho0).tolist())
    x, y, z = _density_propagator(h)(t, r)
    return np.array(
        [[0.5 * (1.0 + z), 0.5 * complex(x, -y)], [0.5 * complex(x, y), 0.5 * (1.0 - z)]],
        dtype=complex,
    )


def _noisy_rhs_matrix(h: NHHamiltonian, kappa: float, rho: np.ndarray) -> np.ndarray:
    a_op, b_op = h.a_operator, h.b_operator
    comm = a_op @ rho - rho @ a_op
    anti = b_op @ rho + rho @ b_op
    pump = 2.0 * np.trace(rho @ b_op).real * rho
    return -1j * comm - anti + pump + kappa * (ID2 - 2.0 * rho)


def evolve_density_noisy(
    h: NHHamiltonian,
    rho0,
    kappa: float,
    t: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Propagate the renormalised flow with depolarising noise to time ``t``.

    Integrates, directly in density-matrix form,

        drho/dt = -i[A.sigma, rho] - {B.sigma, rho} + 2 tr(rho B.sigma) rho
                  + kappa (I - 2 rho)

    with an adaptive embedded Runge-Kutta 4(5) pair.  At ``kappa = 0`` the
    result agrees with :func:`evolve_density` to integration tolerance.
    """
    rho0 = validate_density(rho0)
    if kappa < 0.0 or not np.isfinite(kappa):
        raise ValueError("kappa must be a finite non-negative rate")
    if t == 0.0:
        return rho0.copy()
    if t < 0.0:
        raise ValueError("noisy evolution runs forward in time only")

    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        rho = y.reshape(2, 2)
        return _noisy_rhs_matrix(h, kappa, rho).reshape(-1)

    sol = solve_ivp(
        rhs,
        (0.0, t),
        rho0.reshape(-1),
        method="RK45",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise StiffnessError(
            f"noisy density integration stalled at t = {sol.t[-1]!r}: {sol.message}",
            time=float(sol.t[-1]),
        )
    rho = sol.y[:, -1].reshape(2, 2)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Bloch flow


def bloch_rhs(s, h: NHHamiltonian, kappa: float = 0.0) -> np.ndarray:
    """Right-hand side ``2 A x S - B + 4 (B . S) S - 2 kappa S``.

    ``A`` and ``B`` here include the overall Hamiltonian scale.  The flow
    preserves ``|S| = 1/2`` when ``kappa = 0`` and leaves the component along
    ``A`` invariant if it starts at zero.
    """
    s = np.asarray(s, dtype=float)
    a, b = (h.scale * h.a).tolist(), (h.scale * h.b).tolist()
    return np.array(_bloch_rhs(a, b, kappa, s.tolist()))


def _bloch_rhs(a, b, kappa: float, s) -> tuple[float, float, float]:
    """:func:`bloch_rhs` on plain float triples ``a``, ``b`` and ``s``."""
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
    """Squared noiseless Bloch speed of ``h`` on plain scalars.

    Returns ``route(t, psi) -> |dS/dt|^2`` at the state the renormalised flow
    carries the normalised spinor ``psi`` to at ``t``, with the propagator
    and the scaled Hamiltonian vectors bound once.  :func:`speed` and the
    speed search of :mod:`nhlgi.scan` both evaluate the speed here.
    """
    propagate = pure_propagator(h)
    a, b = (h.scale * h.a).tolist(), (h.scale * h.b).tolist()

    def route(t, psi):
        dx, dy, dz = _bloch_rhs(a, b, 0.0, _spinor_bloch(propagate(t, psi)))
        return dx * dx + dy * dy + dz * dz

    return route


@dataclass
class Trajectory:
    """Sampled Bloch trajectory with its integration provenance."""

    times: np.ndarray
    bloch: np.ndarray  # (n, 3), Cartesian components
    hamiltonian: NHHamiltonian
    kappa: float = 0.0
    rtol: float = 1e-10
    atol: float = 1e-12

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
        """Trajectory components in the (A, B, n) frame of the Hamiltonian."""
        return bloch_to_abn(self.bloch, self.hamiltonian)


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
    advance raises :class:`StiffnessError` carrying the failure time.
    """
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (3,):
        raise ValueError("initial Bloch vector must be a 3-vector")
    if np.linalg.norm(s0) > 0.5 + 1e-8:
        raise ValueError("initial Bloch vector outside the physical ball")
    if kappa < 0.0 or not np.isfinite(kappa):
        raise ValueError("kappa must be a finite non-negative rate")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if abs(t_grid[0]) > 1e-12:
        raise ValueError("t_grid must start at 0")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("t_grid must be strictly increasing")

    if t_grid[-1] == 0.0:
        ys = np.repeat(s0[None, :], t_grid.size, axis=0)
        return Trajectory(t_grid, ys, h, kappa, rtol, atol)

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda _t, s: bloch_rhs(s, h, kappa),
        (0.0, float(t_grid[-1])),
        s0,
        method="RK45",
        t_eval=t_grid,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise StiffnessError(
            f"Bloch integration stalled at t = {sol.t[-1] if sol.t.size else 0.0!r}: "
            f"{sol.message}",
            time=float(sol.t[-1]) if sol.t.size else 0.0,
        )
    return Trajectory(t_grid, sol.y.T, h, kappa, rtol, atol)


def analytic_SB_Sn(a_mag: float, b_mag: float, t):
    """Closed-form trajectory components for the state ``up_y`` at ``t``.

    For magnitudes ``a > b >= 0`` (spectral gap ``2 w``, ``w = sqrt(a^2 -
    b^2)``) the renormalised flow started from the Bloch vector ``-n/2``
    stays in the B-n plane and satisfies

        |S_B(t)| = w |sin(2 w t)| / (2 (a + b cos(2 w t)))
        S_n(t)   = -(b + a cos(2 w t)) / (2 (a + b cos(2 w t)))

    Returns the pair ``(|S_B|, S_n)``; the component along the B axis
    changes sign every half period, so only its magnitude has a closed form
    free of case analysis.  The signs above were fixed against the
    density-matrix propagator; they correspond to projecting onto the frame
    built from the actual vectors ``A`` and ``B`` (for the canonical family:
    ``B_hat = -z``, ``n_hat = +y``).

    ``t`` may be a scalar or an array.
    """
    if not (np.isfinite(a_mag) and np.isfinite(b_mag)):
        raise ValueError("non-finite magnitudes")
    if not (a_mag > b_mag >= 0.0):
        raise ValueError("need a_mag > b_mag >= 0 for a real spectrum")
    t = np.asarray(t, dtype=float)
    w = math.sqrt(a_mag**2 - b_mag**2)
    c = np.cos(2.0 * w * t)
    denom = a_mag + b_mag * c
    s_b = 0.5 * w * np.abs(np.sin(2.0 * w * t)) / denom
    s_n = 0.5 * (-b_mag - a_mag * c) / denom
    if t.ndim == 0:
        return float(s_b), float(s_n)
    return s_b, s_n


# ---------------------------------------------------------------------------
# distances and speed


def geodesic_distance(psi, phi) -> float:
    """Fubini-Study angle ``arccos |<psi|phi>|`` between normalised states."""
    return _spinor_angle(validate_pure(psi).tolist(), validate_pure(phi).tolist())


def _spinor_angle(psi, phi) -> float:
    """:func:`geodesic_distance` of spinors of plain complex scalars.

    ``|<psi|phi>|`` and ``|psi0 phi1 - psi1 phi0|`` are the angle's cosine and
    sine; their ``atan2`` keeps the digits that ``arccos`` loses near 0.
    """
    (a, b), (c, d) = psi, phi
    overlap = a.conjugate() * c + b.conjugate() * d
    return math.atan2(abs(a * d - b * c), abs(overlap))


def geodesic_distance_closed_form(theta: float, t) -> float | np.ndarray:
    """Distance of the evolved ``up_y`` state from ``down_y`` at time ``t``,
    for the canonical family:

        arccos sqrt( sin^2 t (1 - sin theta) / (1 + cos 2t sin theta) ).

    Vanishes (modulo the pi periodicity of the flow) exactly at
    ``t = pi/2``, where every member of the family reaches ``down_y``.
    """
    if not (0.0 <= theta <= THETA_MAX):
        raise ValueError(f"theta must lie in [0, pi/2 - 1e-6], got {theta!r}")
    t = np.asarray(t, dtype=float)
    s = math.sin(theta)
    arg = np.sin(t) ** 2 * (1.0 - s) / (1.0 + np.cos(2.0 * t) * s)
    out = np.arccos(np.clip(np.sqrt(np.clip(arg, 0.0, None)), 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def speed(h: NHHamiltonian, psi0, t: float) -> float:
    """Squared speed ``|dS/dt|^2`` of the Bloch vector at time ``t``.

    ``dS/dt`` is the noiseless :func:`bloch_rhs` at the state evolved from
    ``psi0``.  Because the flow conserves ``|S| = 1/2``, the overlap fidelity
    of neighbouring points of the trajectory expands as
    ``|<psi(t)|psi(t + dt)>|^2 = 1 - |dS/dt|^2 dt^2 + O(dt^3)``, so this is the
    quadratic decay coefficient of the fidelity, computed exactly.  It is the
    quantity maximised by :func:`nhlgi.scan.maximize_speed`.
    """
    return _speed_route(h)(t, validate_pure(psi0).tolist())


def speed_closed_form(theta: float, t) -> float | np.ndarray:
    """Closed form of the fidelity-decay coefficient along the canonical
    ``up_y`` trajectory: ``cos^2 theta / (1 + cos 2t sin theta)^2``.

    Equals 1 for all ``t`` in the Hermitian limit and peaks at ``t = pi/2``
    with value ``(1 + sin theta) / (1 - sin theta)``.
    """
    if not (0.0 <= theta <= THETA_MAX):
        raise ValueError(f"theta must lie in [0, pi/2 - 1e-6], got {theta!r}")
    t = np.asarray(t, dtype=float)
    out = math.cos(theta) ** 2 / (1.0 + np.cos(2.0 * t) * math.sin(theta)) ** 2
    return float(out) if out.ndim == 0 else out
