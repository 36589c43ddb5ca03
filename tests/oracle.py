"""The definitions the tests compare the program against.

Each is the literal definition, in Python ints or plain numpy, and none
validates its input: every caller is a test.  Pytest does not collect this
module, since its name has no ``test_`` prefix.
"""

import itertools
import math

import numpy as np

from mcusynth import z2identity
from mcusynth.unitary2 import I2


def signed_parity_terms(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, subset) for every nonempty subset of range(n): size ascending,
    lexicographic within a size.  Odd-sized subsets enter the parity sum
    with +1, even-sized with -1."""
    return [
        (1 if k % 2 else -1, subset)
        for k in range(1, n + 1)
        for subset in itertools.combinations(range(n), k)
    ]


def parity_sum_direct(bits) -> int:
    """P(x) = sum_S sigma(S) * parity(x_S) of one bit vector, by subset
    enumeration in Python ints."""
    bits = [int(b) for b in bits]
    terms = signed_parity_terms(len(bits))
    return sum(sign * (sum(bits[i] for i in subset) % 2) for sign, subset in terms)


def parity_sum_recurrent(bits) -> np.ndarray:
    """P by the append recurrence s + b - xor_int(s, b), along the last axis
    of a bit table, as int64 of the table's leading shape.

    It calls ``z2identity.xor_int`` through the module at call time, so a
    test that patches that attribute gets the forms of the patched step."""
    table = np.asarray(bits).astype(np.int8, copy=False)
    total = table[..., 0].astype(np.int64)
    for j in range(1, table.shape[-1]):
        b = table[..., j]
        total = total + b - z2identity.xor_int(total, b)
    return np.asarray(total)


def parity_sum_closed_form(bits) -> np.ndarray:
    """The closed form 2^(n-1) * x_1 * ... * x_n, along the last axis."""
    return np.int64(1 << (np.shape(bits)[-1] - 1)) * np.all(bits, axis=-1)


def alternating_binomial_sides(n: int) -> tuple[int, int]:
    """Both sides of the alternating binomial identity, in Python ints:

    Left:  sum_{i=1}^{n-1} (-1)^i * (C(n, i) - 1)
    Right: -(1 + (-1)^n) / 2     (i.e. -1 for even n, 0 for odd n)
    """
    terms = [math.comb(n, i) - 1 for i in range(1, n)]  # i = 1, 2, ...
    return sum(terms[1::2]) - sum(terms[::2]), -((1 + (-1) ** n) // 2)


def power(a: np.ndarray, e: int) -> np.ndarray:
    """a**e by repeated squaring, each set bit's square multiplied into I2
    in ascending order; negative exponents use the adjoint."""
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
