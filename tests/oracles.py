"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles (plain Taylor
series, explicit branch enumeration, fixed-step integration) so that
agreement with the library is evidence, not circularity.  It also holds the
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


def canonical_matrix(theta):
    """sec(theta) sigma_x + i tan(theta) sigma_z, built from local Paulis."""
    return _SX / np.cos(theta) + 1j * np.tan(theta) * _SZ


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


def noisy_two_time_joint(h_matrix, kappa, rho0, direction, t_i, t_j, max_step=0.25):
    """Joint outcome table of the invasive protocol under depolarising noise.

    Propagates ``vec(rho)`` (row-major) with the complex 4x4 lift

        L = -i (H x I) + i (I x H^*) + kappa (vec(I) tr(.) - 2 I_4)

    exponentiated by ``taylor_expm`` over equal steps no longer than
    ``max_step``; the trace is renormalised after every step so that growing
    modes of the lift cannot overflow.  Collapses onto the projectors
    ``(I +/- n . sigma)/2`` and reads probabilities as their traces against
    ``rho``.  Returns a 2x2 array indexed like :func:`two_time_joint`.
    """
    h_matrix = np.asarray(h_matrix, dtype=complex)
    eye = np.eye(2, dtype=complex)
    lift = -1j * np.kron(h_matrix, eye) + 1j * np.kron(eye, h_matrix.conj())
    lift = lift + kappa * (
        np.outer(eye.reshape(-1), eye.reshape(-1)) - 2.0 * np.eye(4, dtype=complex)
    )

    def propagate(rho, t):
        n = max(1, int(np.ceil(t / max_step)))
        step = taylor_expm(lift, t / n)
        vec = np.asarray(rho, dtype=complex).reshape(-1)
        for _ in range(n):
            vec = step @ vec
            vec = vec / (vec[0] + vec[3]).real
        return vec.reshape(2, 2)

    n_op = sum(c * s for c, s in zip(direction, (_SX, _SY, _SZ)))
    proj = (0.5 * (eye + n_op), 0.5 * (eye - n_op))
    rho_i = propagate(rho0, t_i)
    first = np.array([np.trace(p @ rho_i).real for p in proj])
    first = first / first.sum()
    probs = np.empty((2, 2))
    for i, p in enumerate(proj):
        p_plus = np.trace(proj[0] @ propagate(p, t_j - t_i)).real
        probs[i, 0] = first[i] * p_plus
        probs[i, 1] = first[i] * (1.0 - p_plus)
    return probs


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
