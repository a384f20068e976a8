"""Reference implementations the tests check the library against.

**The exact-theta reference.**  Every high-precision check evaluates the
family member ``H(theta) = sec theta sigma_x + i tan theta sigma_z`` itself.
One builder, :func:`_hamiltonian`, forms ``sec theta`` and ``tan theta`` in
mpmath from the binary ``theta``, so ``H^2 = I`` holds at the working
precision (``dps`` digits, 50 unless a caller asks for more) and no rounded
float matrix enters.  It serves three flows:

- the pure flow ``exp(-i H t) = cos t I - i sin t H``, exact because ``H^2 =
  I``: :func:`pure_flow` (state, norm and speed), :func:`geodesic`,
  :func:`propagator` and :func:`pure_bloch_trajectory`;
- the noisy flow of ``vec(rho)`` under the complex 4x4 lift, exponentiated
  by ``mpmath.expm``: :func:`noisy_bloch_trajectory`, at any ``kappa``;
- the invasive protocol, :func:`protocol`: the eight numbers of a spinor or
  a density matrix, any axis and any times, and from them the joint tables,
  the correlators with K3 and the deficit ``(1 - C12) + (1 - C23) + (1 +
  C13)``, each formed at the working precision and rounded once.

Beside it, written from first principles so that agreement is evidence, not
circularity: the textbook rational forms of the canonical K3
(:func:`closed_form_k3`), the flow of a given float matrix (the matrix branch
of :func:`pure_bloch_trajectory`, the rounded matrix an integrator sees), a
fixed-step RK4, an axis's eigenstates by ``eigh``, float Pauli helpers and
the CSV reader the tests use to check what the CLI writes.
"""

from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli_vector(v):
    """``v . sigma`` of a real 3-vector, from the local Pauli matrices."""
    v = np.asarray(v, dtype=float)
    return v[0] * _SX + v[1] * _SY + v[2] * _SZ


def density_from_bloch(s):
    """Density matrix ``I/2 + S . sigma`` of a Bloch vector ``S = <sigma>/2``."""
    sx, sy, sz = s
    return 0.5 * np.eye(2, dtype=complex) + sx * _SX + sy * _SY + sz * _SZ


def bloch_of_density(rho):
    """Bloch vector ``S = tr(rho sigma)/2`` of a 2x2 matrix."""
    rho = np.asarray(rho, dtype=complex)
    return 0.5 * np.array([np.trace(rho @ p).real for p in (_SX, _SY, _SZ)])


def axis_eigenstates(direction):
    """(+1, -1) eigenvectors of ``direction . sigma`` via eigh."""
    op = direction[0] * _SX + direction[1] * _SY + direction[2] * _SZ
    w, v = np.linalg.eigh(op)
    return v[:, int(np.argmax(w))], v[:, int(np.argmin(w))]


# ---------------------------------------------------------------------------
# the exact-theta reference; the private helpers run at the caller's precision


def _hamiltonian(theta, scale=1.0):
    """``scale H(theta)`` as an mpmath matrix: ``theta`` and ``scale`` are
    taken as their binary values and ``sec theta`` and ``tan theta`` are
    formed in mpmath, so ``H^2 = scale^2 I`` to the working precision."""
    th, scale = mpmath.mpf(theta), mpmath.mpf(scale)
    sec, tan = scale / mpmath.cos(th), scale * mpmath.tan(th)
    return mpmath.matrix([[1j * tan, sec], [sec, -1j * tan]])


def _propagator(hm, t):
    """``exp(-i H t) = cos(w t) I - i sin(w t)/w H`` of a traceless ``H``
    with real ``H^2 = w^2 I``, exact to the working precision."""
    w = mpmath.sqrt(mpmath.re(hm[0, 0] ** 2 + hm[0, 1] * hm[1, 0]))
    wt = w * mpmath.mpf(t)
    # matrix first: a scalar times a matrix tries a slow conversion first
    return mpmath.eye(2) * mpmath.cos(wt) - hm * (1j * mpmath.sin(wt) / w)


def _lift(hm, kappa):
    """The complex 4x4 lift of the depolarised flow on row-major ``vec(rho)``,
    ``L = -i (H x I) + i (I x H^*) + kappa (vec(I) tr(.) - 2 I_4)``."""
    eye, lift = mpmath.eye(2), mpmath.zeros(4, 4)
    for i, j, k, m in np.ndindex(2, 2, 2, 2):
        # d rho_ij/dt = -i H_ik rho_kj + i rho_im conj(H_jm) + kappa (...)
        entry = -1j * hm[i, k] * eye[j, m] + 1j * eye[i, k] * mpmath.conj(hm[j, m])
        entry += kappa * (eye[i, j] * eye[k, m] - 2 * eye[i, k] * eye[j, m])
        lift[2 * i + j, 2 * k + m] = entry
    return lift


def _spinor(psi):
    """A spinor's two amplitudes, each its binary value, as an mpmath column."""
    return mpmath.matrix(np.asarray(psi, dtype=complex).tolist())


def _vec(rho):
    """Row-major ``vec(rho)`` of a 2x2 matrix, each entry its binary value."""
    return mpmath.matrix(np.asarray(rho, dtype=complex).reshape(-1).tolist())


def _outer(v):
    """Row-major ``vec(v v^dag)`` of a spinor column ``v``."""
    return mpmath.matrix([v[i] * mpmath.conj(v[j]) for i in (0, 1) for j in (0, 1)])


def _bloch(vec):
    """``S = tr(rho sigma)/(2 tr rho)`` of a row-major ``vec(rho)``, as floats."""
    r00, r01, r10, r11 = vec
    trace = 2 * mpmath.re(r00 + r11)
    return [float(mpmath.re(x) / trace) for x in (r01 + r10, 1j * (r01 - r10), r00 - r11)]


def propagator(theta, t, scale=1.0, dps=50):
    """``exp(-i H t)`` of ``scale H(theta)`` at ``dps`` digits, as a complex array."""
    with mpmath.workdps(dps):
        return np.array(_propagator(_hamiltonian(theta, scale), t).tolist(), dtype=complex)


def pure_flow(theta, psi, t, scale=1.0, dps=50):
    """``(state, norm, speed)`` of ``exp(-i H t) psi`` for ``scale H(theta)``,
    at ``dps`` digits.

    ``state`` is the propagated spinor over its ``norm``, as two mpmath
    complex numbers at the working precision (:func:`geodesic` reads them as
    they are, ``complex`` rounds them), and ``speed`` the fidelity-decay
    coefficient ``<H^dag H> - |<H>|^2`` of ``state``.  Near the corner both
    terms are of size ``sec^2 theta`` and cancel to the speed, which the extra
    digits absorb.
    """
    with mpmath.workdps(dps):
        hm = _hamiltonian(theta, scale)
        v = _propagator(hm, t) * _spinor(psi)
        norm = mpmath.norm(v)
        v = v / norm
        hv = hm * v
        spread = mpmath.norm(hv) ** 2 - abs((v.H * hv)[0]) ** 2
        return (v[0], v[1]), float(norm), float(spread)


def geodesic(u, v, dps=50):
    """The Fubini-Study angle between the rays of two spinors of any norm, at
    ``dps`` digits: ``atan2(|u0 v1 - u1 v0|, |<u|v>|)``, whose arguments are
    ``|u| |v|`` times its sine and cosine."""
    with mpmath.workdps(dps):
        (a, b), (c, d) = ([mpmath.mpc(x) for x in s] for s in (u, v))
        overlap = mpmath.conj(a) * c + mpmath.conj(b) * d
        return float(mpmath.atan2(abs(a * d - b * c), abs(overlap)))


def pure_bloch_trajectory(h, psi0, times, dps=50):
    """Bloch vectors ``<sigma>/2`` of ``exp(-i H t) psi0`` renormalised, at
    each of ``times``, at ``dps`` digits.

    ``h`` is either a family member's ``theta``, for ``H(theta)`` itself, or
    a traceless 2x2 matrix with real ``H^2 = w^2 I`` whose entries are taken
    as the binary values given (the rounded float matrix).
    """
    with mpmath.workdps(dps):
        hm = _hamiltonian(h) if np.ndim(h) == 0 else mpmath.matrix(np.asarray(h).tolist())
        psi = _spinor(psi0)
        return np.array([_bloch(_outer(_propagator(hm, t) * psi)) for t in times])


def noisy_bloch_trajectory(theta, kappa, r, times, dps=50):
    """Bloch vectors ``S = r/2`` of the renormalised depolarised flow of
    ``H(theta)`` from the Bloch vector ``r = tr(rho sigma)``, at each of
    ``times``, at ``dps`` digits.

    ``vec(rho)`` is carried by the lift from each time to the next, with one
    ``mpmath.expm`` per distinct gap, so an evenly spaced grid needs few.
    """
    with mpmath.workdps(dps):
        lift = _lift(_hamiltonian(theta), mpmath.mpf(kappa))
        x, y, z = (mpmath.mpf(c) for c in r)
        vec = mpmath.matrix([1 + z, x - 1j * y, x + 1j * y, 1 - z])
        steps, last, rows = {}, mpmath.mpf(0), []
        for t in map(mpmath.mpf, times):
            if t - last not in steps:
                steps[t - last] = mpmath.expm(lift * (t - last))
            vec, last = steps[t - last] * vec, t
            rows.append(_bloch(vec))
        return np.array(rows)


class Protocol(NamedTuple):
    """The invasive protocol's numbers, each rounded once from the working
    precision."""

    numbers: tuple  # (p1, p2, plus12, minus12, plus23, minus23, plus13, minus13)
    tables: tuple  # of the pairs (1, 2), (2, 3), (1, 3): 2x2 arrays, rows = first outcome
    correlators: tuple  # (C12, C23, C13, K3)
    deficit: float  # (1 - C12) + (1 - C23) + (1 + C13), that is 3 - K3


def protocol(theta, state, axis, times, kappa=0.0, dps=50):
    """The invasive three-time protocol of ``H(theta)`` at ``dps`` digits.

    ``state`` is a spinor or a density matrix, ``axis`` a 3-vector and
    ``times = (t1, t2, t3)``, each entry its binary value.  ``p1`` and ``p2``
    are the probabilities of +1 at ``t1`` and ``t2``; each pair ``(i, j)``
    collapses at ``t_i`` and gives the probabilities ``(plus, minus)`` of +1
    at ``t_j`` after each outcome.  Every probability is ``tr(P rho) /
    tr(rho)`` of the unnormalised propagated state.

    A spinor at ``kappa = 0`` runs the pure flow and collapses onto the
    eigenstates of ``n . sigma`` of the normalised axis.  A density matrix,
    or a spinor at ``kappa > 0``, runs the lift and collapses onto ``(I +/- n
    . sigma)/2`` of the axis as given, as the library's Bloch route does.
    The two differ only for an axis off unit length, but near the corner
    that can show: at ``THETA_MAX`` an axis 2e-33 off unit length moves a K3
    by 3e-8.  Only the propagators of ``t1``, ``t2 - t1`` and ``t3 - t2`` are
    formed; those of ``t2`` and ``t3 - t1`` are their products.
    """
    with mpmath.workdps(dps):
        hm = _hamiltonian(theta)
        nx, ny, nz = (mpmath.mpf(c) for c in axis)
        n_sigma = mpmath.matrix([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
        if np.ndim(state) == 1 and kappa == 0:
            n_sigma /= mpmath.sqrt(nx * nx + ny * ny + nz * nz)
            plus, minus = ((mpmath.eye(2) + sign * n_sigma) / 2 for sign in (1, -1))
            start = _spinor(state)
            # each outcome's eigenstate: its projector's larger column
            collapsed = [max((p[:, k] for k in (0, 1)), key=mpmath.norm) for p in (plus, minus)]

            def step(gap):
                return _propagator(hm, gap)

            def born(v):
                return mpmath.re((v.H * plus * v)[0]) / mpmath.norm(v) ** 2

        else:
            plus, minus = ((mpmath.eye(2) + sign * n_sigma) / 2 for sign in (1, -1))
            start = _outer(_spinor(state)) if np.ndim(state) == 1 else _vec(state)
            collapsed = [
                mpmath.matrix([p[0, 0], p[0, 1], p[1, 0], p[1, 1]]) for p in (plus, minus)
            ]
            lift = _lift(hm, mpmath.mpf(kappa))

            def step(gap):
                return mpmath.expm(lift * gap)

            def born(v):
                # tr(P rho) of the Hermitian P, both row-major vec
                return mpmath.re((collapsed[0].H * v)[0]) / mpmath.re(v[0] + v[3])

        t1, t2, t3 = (mpmath.mpf(t) for t in times)
        u1, g12, g23 = step(t1), step(t2 - t1), step(t3 - t2)
        values = [born(u1 * start), born(g12 * u1 * start)]
        values += [born(g * c) for g in (g12, g23, g23 * g12) for c in collapsed]
        return _rounded(values)


def _rounded(values):
    """:class:`Protocol` of the eight numbers at the working precision."""
    p1, p2, plus12, minus12, plus23, minus23, plus13, minus13 = values
    tables = [
        ((p * up, p * (1 - up)), ((1 - p) * down, (1 - p) * (1 - down)))
        for p, up, down in ((p1, plus12, minus12), (p2, plus23, minus23), (p1, plus13, minus13))
    ]
    c12, c23, c13 = ((a - b) - (c - d) for (a, b), (c, d) in tables)
    return Protocol(
        tuple(float(x) for x in values),
        tuple(np.array(table, dtype=float) for table in tables),
        tuple(float(x) for x in (c12, c23, c13, c12 + c23 - c13)),
        float((1 - c12) + (1 - c23) + (1 + c13)),
    )


def closed_form_k3(theta, t, dps=50):
    """``(C12, C23, C13, K3)`` of the canonical configuration at equal spacing
    ``t`` (state ``up_y``, axis ``-y``, times ``(0, t, 2t)``) for the family
    member ``theta`` itself, from the textbook rational forms in mpmath at
    ``dps`` digits, where their cancellations near the corner cost nothing."""
    with mpmath.workdps(dps):
        s, t = mpmath.sin(mpmath.mpf(theta)), mpmath.mpf(t)
        c2, c4 = mpmath.cos(2 * t), mpmath.cos(4 * t)
        ct2, st2 = mpmath.cos(t) ** 2, mpmath.sin(t) ** 2
        d2, d2m, d4 = 1 + c2 * s, 1 - c2 * s, 1 + c4 * s
        c12, c13 = (c2 + s) / d2, (c4 + s) / d4
        c23 = (
            (ct2 * ct2 * (1 + s) ** 2 - ct2 * st2 * (1 - s) * (1 + s)) / (d2 * d2)
            + (st2 * ct2 * (1 - s) ** 2 - st2 * st2 * (1 - s) * (1 + s)) / (d2 * d2m)
        )
        return tuple(float(x) for x in (c12, c23, c13, c12 + c23 - c13))


def rk4(rhs, y0, t_end, n_steps):
    """Classical fixed-step fourth-order Runge-Kutta from t = 0."""
    y = np.asarray(y0, dtype=float).copy()
    h = t_end / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def read_csv(source) -> tuple[dict, dict]:
    """Parse a file produced by :func:`nhlgi.emit.write_csv`.

    Returns ``(metadata, columns)``; column values come back as float arrays
    when every entry parses as a number, otherwise as lists of strings.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition("=")
            metadata[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(cells)
    if header is None:
        raise ValueError("no header row found")
    columns: dict = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in rows]
        try:
            columns[name] = np.array([float(cell) for cell in raw])
        except ValueError:
            columns[name] = raw
    return metadata, columns
