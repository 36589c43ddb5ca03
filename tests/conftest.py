import numpy as np

from mcusynth.circuit import CNOT_CODE, CV_CODE, CVDG_CODE


def basis_index(bits) -> int:
    """Basis index of |bits>, qubit 0 the most significant bit."""
    return int("".join(map(str, bits)), 2)


def basis_state(bits) -> np.ndarray:
    """The computational basis state |bits>."""
    state = np.zeros(1 << len(bits), dtype=complex)
    state[basis_index(bits)] = 1
    return state


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-style random 2x2 unitary: complex Gaussian matrix + QR."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def cnot(control: int, target: int) -> tuple[int, int, int]:
    return (CNOT_CODE, control, target)


def cv(control: int, target: int) -> tuple[int, int, int]:
    return (CV_CODE, control, target)


def cvdg(control: int, target: int) -> tuple[int, int, int]:
    return (CVDG_CODE, control, target)
