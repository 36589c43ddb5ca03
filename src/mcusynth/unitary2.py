"""2x2 complex-unitary arithmetic: unitarity checks, powers and 2^k-th roots.

Matrices are plain ``numpy`` arrays of shape (2, 2), dtype complex128.
``unitary_root`` is the one nontrivial operation: it returns the principal
2^k-th root of a unitary in closed form from the axis-angle decomposition
u = e^(i mu) (cos d I + i sin d n.sigma), never from an iterative solver.
``NAMED_GATES`` is the one table of named gates; it and the identity ``I2``
are read-only arrays backed by immutable bytes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# every matrix checked here may come from a decimal file (circuit files, json
# gate specs) or be derived from one, and decimal serialization loses bits
INGEST_ATOL = 1e-9

# shared by every caller in the process, so each is read-only and backed by
# immutable bytes: neither it nor its base can be made writable again
NAMED_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * cmath.pi / 4)]], dtype=complex),
}
NAMED_GATES = {
    name: np.frombuffer(gate.tobytes(), dtype=complex).reshape(2, 2)
    for name, gate in NAMED_GATES.items()
}
I2 = NAMED_GATES["I"]


def require_unitary(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return m as a complex128 array, raising ValueError unless it is 2x2
    and finite with m @ m+ == I and |det m| == 1 within INGEST_ATOL."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
    # a NaN fails no tolerance test, and det would warn on it
    if (
        not np.isfinite(m).all()
        or np.max(np.abs(m @ m.conj().T - I2)) > INGEST_ATOL
        or abs(abs(np.linalg.det(m)) - 1.0) > INGEST_ATOL
    ):
        raise ValueError(f"{name} is not unitary within {INGEST_ATOL}")
    return m


def power(a: np.ndarray, e: int) -> np.ndarray:
    """a**e by repeated squaring; negative exponents use the adjoint."""
    a = np.asarray(a, dtype=complex)
    if e < 0:
        return power(a.conj().T, -e)
    result = I2.copy()
    while e:
        if e & 1:
            result = result @ a
        a = a @ a
        e >>= 1
    return result


def unitary_root(u: np.ndarray, k: int) -> np.ndarray:
    """Principal 2^k-th root: a unitary v with v**(2**k) == u.

    Write u = e^(i mu) (cos d I + i sin d n.sigma) with a real unit axis n.
    Its eigenphases mu +- d are taken on the principal branch (-pi, pi] and
    divided by 2^k, which fixes the root deterministically:

        v = e^(i mu/2^k) (cos(d/2^k) I + i sin(d/2^k)/sin d * sin d n.sigma)

    where sin d n.sigma is the Hermitian part of -i e^(-i mu) A and
    A = u - tr(u)/2 I is the traceless part.  |sin d| is read off its norm
    and is the ratio's denominator, so neither a small eigen-gap (d near 0)
    nor eigenphases straddling -1 (|d| near pi) lose digits to cancellation.
    The formula is even in d, so which eigenphase carries the + sign does
    not matter.

    k == 0 returns u unchanged, with no round trip.  Large k is fine: the
    result simply tends to the identity.
    """
    u = require_unitary(u)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return u.copy()

    half_trace = (u[0, 0] + u[1, 1]) / 2
    traceless = u - half_trace * I2
    # eigenvalues e^(i mu) (cos d +- i sin d); e^(i mu) = +-sqrt(det u), and
    # the sign only swaps the pair.  A = e^(i mu) i sin d n.sigma and
    # |n.sigma|_F = sqrt(2), so |sin d| is read off the norm of A
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    offset = 1j * cmath.sqrt(det) * np.linalg.norm(traceless) / np.sqrt(2)
    phases = np.angle([half_trace + offset, half_trace - offset])
    # np.angle returns -pi for a -0.0 imaginary part; the branch is (-pi, pi]
    phases[phases == -np.pi] = np.pi
    mu = (phases[0] + phases[1]) / 2
    d = (phases[0] - phases[1]) / 2

    # e^(-i mu) A = i sin d n.sigma.  Keep its Hermitian part, so n is real
    # and v exactly unitary: the ratio below grows like 1/|sin d| when the
    # eigenphases straddle -1 (|d| near pi), and would blow the rounding in
    # A's anti-Hermitian part up into a non-unitary v
    axis = -1j * cmath.exp(-1j * mu) * traceless
    axis = (axis + axis.conj().T) / 2
    sin_d = np.linalg.norm(axis) / np.sqrt(2)
    # ldexp scales by 2^-k exactly and takes every k: past k = 1023 the
    # result underflows toward the identity, where 2^k overflows a float
    mu_k, d_k = math.ldexp(mu, -k), math.ldexp(d, -k)
    # sin(d/2^k) / sin(d) is even in d, so its denominator is the accurate
    # |sin d| from the norm, not sin of the rounded d; a zero norm means a
    # zero axis, so any finite ratio will do
    ratio = np.sin(abs(d_k)) / sin_d if sin_d else 0.0
    return cmath.exp(1j * mu_k) * (np.cos(d_k) * I2 + 1j * ratio * axis)

