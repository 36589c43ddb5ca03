import numpy as np


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-style random 2x2 unitary: complex Gaussian matrix + QR."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
