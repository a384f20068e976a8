"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles (plain Taylor
series, explicit branch enumeration, fixed-step integration, mpmath's matrix
exponential at extra precision) so that agreement with the library is
evidence, not circularity.  It also holds the
CSV reader the tests use to check what the CLI writes.
"""

from pathlib import Path

import numpy as np

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def taylor_expm(m, t=1.0):
    """Matrix exponential ``exp(m t)`` by scaling and squaring a Taylor sum."""
    a = np.asarray(m, dtype=complex) * t
    norm = float(np.linalg.norm(a))
    squarings = 0
    while norm > 0.25:
        norm *= 0.5
        squarings += 1
    a = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def pauli_vector(v):
    """``v . sigma`` of a real 3-vector, from the local Pauli matrices."""
    v = np.asarray(v, dtype=float)
    return v[0] * _SX + v[1] * _SY + v[2] * _SZ


def canonical_matrix(theta):
    """sec(theta) sigma_x + i tan(theta) sigma_z, built from local Paulis."""
    return _SX / np.cos(theta) + 1j * np.tan(theta) * _SZ


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


def two_time_joint(h_matrix, psi0, direction, t_i, t_j):
    """Joint outcome table of the invasive two-measurement protocol.

    Propagates with ``taylor_expm``, renormalises by hand, and enumerates
    both collapse branches explicitly.  Returns a 2x2 array indexed by
    outcomes (+1, -1) for the first and second measurement.
    """
    chi_p, chi_m = axis_eigenstates(np.asarray(direction, dtype=float))
    v = taylor_expm(-1j * h_matrix, t_i) @ np.asarray(psi0, dtype=complex)
    v = v / np.linalg.norm(v)
    first = np.array([abs(np.vdot(chi_p, v)) ** 2, abs(np.vdot(chi_m, v)) ** 2])
    first = first / first.sum()
    gap_u = taylor_expm(-1j * h_matrix, t_j - t_i)
    probs = np.empty((2, 2))
    for i, chi in enumerate((chi_p, chi_m)):
        w = gap_u @ chi
        w = w / np.linalg.norm(w)
        p_plus = abs(np.vdot(chi_p, w)) ** 2
        probs[i, 0] = first[i] * p_plus
        probs[i, 1] = first[i] * (1.0 - p_plus)
    return probs


def noisy_protocol_tables(theta, kappa, rho0, direction, times, dps=30):
    """Joint outcome tables of the invasive protocol under depolarising noise.

    For measurement times ``(t1, t2, t3)``, returns the tables of the pairs
    (1, 2), (2, 3) and (1, 3), each a 2x2 array indexed like
    :func:`two_time_joint`.  Propagates ``vec(rho)`` (row-major) with the
    complex 4x4 lift

        L = -i (H x I) + i (I x H^*) + kappa (vec(I) tr(.) - 2 I_4)

    built entry by entry in mpmath and exponentiated there at ``dps``
    significant digits, renormalising the trace after each propagation.
    ``theta`` is taken as its exact binary value and ``sec theta`` and ``tan
    theta`` are formed in mpmath, so ``H`` is ``H(theta)`` itself, not the
    rounded float matrix.  The lift is far from normal near the corner, where
    a double-precision exponential loses digits (5.6e-9 at theta =
    1.546875); the extra digits keep this one exact to double precision.
    Only ``exp(L t1)`` and the gap propagators ``exp(L (t2 - t1))`` and
    ``exp(L (t3 - t2))`` are exponentiated; the other two are their products.
    Collapses onto the projectors ``(I +/- n . sigma)/2`` and reads
    probabilities as their traces against ``rho``.
    """
    import mpmath

    t1, t2, t3 = times
    with mpmath.workdps(dps):
        th = mpmath.mpf(theta)
        sec, tan = 1 / mpmath.cos(th), mpmath.tan(th)
        hm = mpmath.matrix([[1j * tan, sec], [sec, -1j * tan]])
        eye = mpmath.eye(2)
        lift = mpmath.zeros(4, 4)
        for i, j, k, m in np.ndindex(2, 2, 2, 2):
            # d rho_ij/dt = -i H_ik rho_kj + i rho_im conj(H_jm) + kappa (...)
            entry = -1j * hm[i, k] * eye[j, m] + 1j * eye[i, k] * mpmath.conj(hm[j, m])
            entry += kappa * (eye[i, j] * eye[k, m] - 2 * eye[i, k] * eye[j, m])
            lift[2 * i + j, 2 * k + m] += entry

        def propagate(u, rho):
            vec = u * rho
            return vec / (vec[0] + vec[3])

        def born(p, vec):
            # tr(P rho) with P and rho both as row-major vec
            return mpmath.re(sum(mpmath.conj(a) * b for a, b in zip(p, vec)))

        nx, ny, nz = (mpmath.mpf(c) for c in direction)
        n_op = (nz, nx - 1j * ny, nx + 1j * ny, -nz)
        proj = [
            mpmath.matrix([(e + sign * c) / 2 for e, c in zip((1, 0, 0, 1), n_op)])
            for sign in (1, -1)
        ]
        rho0 = mpmath.matrix(np.asarray(rho0, dtype=complex).reshape(-1).tolist())

        def table(u_first, u_gap):
            rho = propagate(u_first, rho0)
            first = [born(p, rho) for p in proj]
            probs = np.empty((2, 2))
            for row, p in enumerate(proj):
                cond = born(proj[0], propagate(u_gap, p))
                weight = first[row] / (first[0] + first[1])
                probs[row] = float(weight * cond), float(weight * (1 - cond))
            return probs

        u1 = mpmath.expm(lift * t1)
        g12 = mpmath.expm(lift * (t2 - t1))
        g23 = mpmath.expm(lift * (t3 - t2))
        return table(u1, g12), table(g12 * u1, g23), table(u1, g23 * g12)


def noisy_bloch_trajectory(theta, kappa, r, times, dps=50):
    """Bloch vectors ``S = r/2`` of the renormalised depolarised flow from the
    Bloch vector ``r = tr(rho sigma)`` at each of ``times``, in mpmath at
    ``dps`` digits.

    ``theta`` is taken as its exact binary value and ``sec theta`` and ``tan
    theta`` are formed in mpmath.  The unnormalised ``(r0, r)`` obeys the
    real linear lift ``d r0/dt = 2 tan z``, ``dx/dt = -2 kappa x``, ``dy/dt =
    -2 sec z - 2 kappa y`` and ``dz/dt = 2 tan r0 + 2 sec y - 2 kappa z``,
    which mpmath exponentiates; each vector is divided by its trace.
    """
    import mpmath

    with mpmath.workdps(dps):
        th, k = mpmath.mpf(theta), mpmath.mpf(kappa)
        sec, tan = 1 / mpmath.cos(th), mpmath.tan(th)
        lift = mpmath.matrix(
            [
                [0, 0, 0, 2 * tan],
                [0, -2 * k, 0, 0],
                [0, 0, -2 * k, -2 * sec],
                [2 * tan, 0, 2 * sec, -2 * k],
            ]
        )
        v0 = mpmath.matrix([1] + [mpmath.mpf(c) for c in r])
        rows = []
        for t in times:
            v = mpmath.expm(lift * mpmath.mpf(t)) * v0
            rows.append([v[i] / (2 * v[0]) for i in (1, 2, 3)])
        return np.array(rows, dtype=float)


def pure_bloch_trajectory(h, psi0, times, dps=40):
    """Bloch vectors ``<sigma>/2`` of ``exp(-i H t) psi0`` renormalised, at
    each of ``times``, in mpmath at ``dps`` digits.

    ``h`` is either a family member's ``theta``, taken as its exact binary
    value with ``sec theta`` and ``tan theta`` formed in mpmath, so ``H`` is
    ``H(theta)`` itself, or a traceless 2x2 matrix whose entries are taken
    as the binary values given (the rounded float matrix).  Either has real
    ``H^2 = w^2 I`` (the family's real spectrum), so ``exp(-i H t) = cos(w t)
    I - i sin(w t)/w H`` holds exactly.
    """
    import mpmath

    with mpmath.workdps(dps):
        if np.ndim(h) == 0:
            th = mpmath.mpf(h)
            sec, tan = 1 / mpmath.cos(th), mpmath.tan(th)
            (m00, m01), (m10, m11) = (1j * tan, sec), (sec, -1j * tan)
        else:
            (m00, m01), (m10, m11) = (
                [mpmath.mpc(v) for v in row] for row in np.asarray(h, dtype=complex).tolist()
            )
        w = mpmath.sqrt(mpmath.re(m00 * m00 + m01 * m10))
        a0, b0 = (mpmath.mpc(v) for v in np.asarray(psi0, dtype=complex).tolist())
        rows = []
        for t in times:
            c, s = mpmath.cos(w * t), -1j * mpmath.sin(w * t) / w
            a = c * a0 + s * (m00 * a0 + m01 * b0)
            b = c * b0 + s * (m10 * a0 + m11 * b0)
            n2 = abs(a) ** 2 + abs(b) ** 2
            ab = mpmath.conj(a) * b / n2
            rows.append([ab.real, ab.imag, (abs(a) ** 2 - abs(b) ** 2) / (2 * n2)])
        return np.array(rows, dtype=float)


def pure_flow(theta, psi, t, dps=50):
    """``(state, norm, speed)`` of ``exp(-i H t) psi`` for the family member
    ``theta`` itself, in mpmath at ``dps`` digits.

    ``theta`` and the entries of ``psi`` are taken as their exact binary
    values, and ``sec theta`` and ``tan theta`` are formed in mpmath, so
    ``H^2 = I`` to the working precision and ``exp(-i H t) = cos t I - i sin
    t H``.  ``state`` is the propagated vector over its ``norm``, as a
    complex array, and ``speed`` the fidelity-decay coefficient ``<H^dag H>
    - |<H>|^2`` of ``state``.  Near the corner both terms are of size
    ``sec^2 theta`` and cancel to the speed, which the extra digits absorb.
    """
    import mpmath

    with mpmath.workdps(dps):
        th, t = mpmath.mpf(theta), mpmath.mpf(t)
        sec, tan = 1 / mpmath.cos(th), mpmath.tan(th)
        (m00, m01), (m10, m11) = (1j * tan, sec), (sec, -1j * tan)
        a0, b0 = (mpmath.mpc(v) for v in np.asarray(psi, dtype=complex).tolist())
        c, s = mpmath.cos(t), -1j * mpmath.sin(t)
        a = c * a0 + s * (m00 * a0 + m01 * b0)
        b = c * b0 + s * (m10 * a0 + m11 * b0)
        norm = mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        ha, hb = m00 * a + m01 * b, m10 * a + m11 * b
        mean = mpmath.conj(a) * ha + mpmath.conj(b) * hb
        spread = abs(ha) ** 2 + abs(hb) ** 2 - abs(mean) ** 2
        return np.array([complex(a), complex(b)]), float(norm), float(spread)


def planar_protocol(theta, state, axis, times, dps=50):
    """The eight numbers ``(p1, p2, plus12, minus12, plus23, minus23, plus13,
    minus13)`` of the pure protocol of the family member ``theta`` itself,
    in mpmath at ``dps`` digits.

    ``theta`` is taken as its exact binary value and ``sec theta`` and ``tan
    theta`` are formed in mpmath, so this is ``H(theta)``, not the rounded
    float matrix; ``exp(-i H t)`` is mpmath's matrix exponential.  ``state =
    (u, v)`` is the spinor ``(u, i v)`` and ``axis = (ny, nz)`` the axis ``(0,
    ny, nz)``, normalised here, each entry the binary value given.  The axis
    eigenstates are the normalised larger columns of the projectors ``(I +/-
    n . sigma)/2``; every Born probability is read on the unnormalised
    propagated vector and divided by its squared norm.
    """
    import mpmath

    with mpmath.workdps(dps):
        th = mpmath.mpf(theta)
        sec, tan = 1 / mpmath.cos(th), mpmath.tan(th)
        generator = -1j * mpmath.matrix([[1j * tan, sec], [sec, -1j * tan]])
        u, v = (mpmath.mpf(c) for c in state)
        psi = mpmath.matrix([u, 1j * v])
        ny, nz = (mpmath.mpf(c) for c in axis)
        norm = mpmath.sqrt(ny * ny + nz * nz)
        n_sigma = mpmath.matrix([[nz, -1j * ny], [1j * ny, -nz]]) / norm

        def eigenstate(sign):
            proj = (mpmath.eye(2) + sign * n_sigma) / 2
            cols = [proj[:, k] for k in range(2)]
            col = max(cols, key=mpmath.norm)
            return col / mpmath.norm(col)

        up, down = eigenstate(1), eigenstate(-1)

        def born(vec):
            amp = mpmath.conj(up[0]) * vec[0] + mpmath.conj(up[1]) * vec[1]
            return abs(amp) ** 2 / (abs(vec[0]) ** 2 + abs(vec[1]) ** 2)

        def propagator(t):
            return mpmath.expm(generator * mpmath.mpf(t))

        t1, t2, t3 = times
        out = [born(propagator(t1) * psi), born(propagator(t2) * psi)]
        for gap in (mpmath.mpf(t2) - t1, mpmath.mpf(t3) - t2, mpmath.mpf(t3) - t1):
            u_gap = mpmath.expm(generator * gap)
            out += [born(u_gap * up), born(u_gap * down)]
        return tuple(float(x) for x in out)


def closed_form_k3(theta, t, dps=50):
    """``(C12, C23, C13, K3)`` of the canonical configuration at equal spacing
    ``t`` (state ``up_y``, axis ``-y``, times ``(0, t, 2t)``) for the family
    member ``theta`` itself, from the textbook rational forms in mpmath at
    ``dps`` digits, where their cancellations near the corner cost nothing."""
    import mpmath

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
