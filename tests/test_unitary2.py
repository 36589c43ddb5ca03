import cmath
import warnings

import numpy as np
import pytest

from mcusynth import z2identity
from mcusynth.circuit import Circuit
from mcusynth.simulator import linear_trace
from mcusynth.textio import parse_gate_spec
from mcusynth.unitary2 import I2, NAMED_GATES, power, require_unitary, unitary_root

from conftest import cnot, random_unitary

X, Y, Z, H, S, T = (NAMED_GATES[name] for name in "XYZHST")

RNG = np.random.default_rng(20240811)

SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def max_err(a, b):
    return np.max(np.abs(a - b))


def unitarity_err(m):
    return max_err(m @ m.conj().T, I2)


def division_root(u, k):
    """``unitary_root`` as it scaled by 2^-k before it used ``math.ldexp``:
    by dividing by the int 2^k, which numpy makes a float, so that it
    overflows past k = 1023."""
    u = require_unitary(u)
    if k == 0:
        return u.copy()
    half_trace = (u[0, 0] + u[1, 1]) / 2
    traceless = u - half_trace * I2
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    offset = 1j * cmath.sqrt(det) * np.linalg.norm(traceless) / np.sqrt(2)
    phases = np.angle([half_trace + offset, half_trace - offset])
    phases[phases == -np.pi] = np.pi
    mu = (phases[0] + phases[1]) / 2
    d = (phases[0] - phases[1]) / 2
    axis = -1j * cmath.exp(-1j * mu) * traceless
    axis = (axis + axis.conj().T) / 2
    sin_d = np.linalg.norm(axis) / np.sqrt(2)
    scale = 1 << k
    ratio = np.sin(abs(d) / scale) / sin_d if sin_d else 0.0
    return cmath.exp(1j * mu / scale) * (np.cos(d / scale) * I2 + 1j * ratio * axis)


def test_named_gates_are_unitary():
    for name, gate in NAMED_GATES.items():
        assert require_unitary(gate) is gate, name
        assert unitarity_err(gate) < 1e-15, name


def test_power():
    v = unitary_root(X, 1)
    assert max_err(power(v, 2), X) < 1e-12
    u = random_unitary(RNG)
    assert max_err(power(u, 0), I2) == 0
    assert max_err(power(X, -1), X) < 1e-15
    assert max_err(power(u, -3), power(u.conj().T, 3)) < 1e-12
    # a negative exponent goes through the adjoint
    assert max_err(power(np.diag([1, 1j]), -1), np.diag([1, -1j])) == 0
    for _ in range(20):
        u = random_unitary(RNG)
        assert max_err(u @ power(u, -1), I2) < 1e-12
    assert max_err(power(u, 5), u @ u @ u @ u @ u) < 1e-12


class TestUnitaryRoot:
    def test_sqrt_x_principal_branch(self):
        assert max_err(unitary_root(X, 1), SQRT_X) < 1e-15

    def test_sqrt_z_principal_branch(self):
        # eigenphase pi stays on the principal branch, so the root is diag(1, i)
        assert max_err(unitary_root(Z, 1), np.diag([1, 1j])) < 1e-15

    def test_identity_root(self):
        for k in (0, 1, 3, 6):
            assert max_err(unitary_root(I2, k), I2) < 1e-15

    def test_zero_k_returns_input_exactly(self):
        u = random_unitary(RNG)
        assert np.array_equal(unitary_root(u, 0), u)

    def test_scalar_input(self):
        phi = 2.3
        u = cmath.exp(1j * phi) * I2
        for k in (1, 4):
            v = unitary_root(u, k)
            assert max_err(v, cmath.exp(1j * phi / 2**k) * I2) < 1e-14

    def test_near_scalar_input_stays_accurate(self):
        # eigenvalue gap 1e-10: the result must still be exactly unitary and
        # round-trip within the gap
        u = np.diag([1.0, cmath.exp(1e-10j)])
        v = unitary_root(u, 2)
        assert unitarity_err(v) < 1e-12
        assert max_err(power(v, 4), u) < 1e-9

    @pytest.mark.parametrize("name", sorted(NAMED_GATES))
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_squaring_oracle_named(self, name, k):
        u = NAMED_GATES[name]
        v = unitary_root(u, k)
        assert unitarity_err(v) < 1e-12
        assert max_err(power(v, 1 << k), u) < 1e-12

    def test_squaring_oracle_random(self):
        for _ in range(30):
            u = random_unitary(RNG)
            for k in range(1, 7):
                v = unitary_root(u, k)
                assert unitarity_err(v) < 1e-12
                assert max_err(power(v, 1 << k), u) < 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_eigen_gap_sweep(self, k):
        # gaps 1e-12..1e-6 in random eigenbases: eigenphases phi, phi + gap on
        # the same side of -1 (a scalar cutoff or an eigenvalue cancellation
        # once cost up to gap/2 here), and +-(pi - gap) on either side of -1,
        # where sin d is tiny while d is not, so sin of the rounded d or any
        # rounding left in the axis is blown up into a non-unitary root
        rng = np.random.default_rng(3000 + k)
        for gap in np.logspace(-12, -6, 13):
            for _ in range(4):
                q = random_unitary(rng)
                phi = rng.uniform(-3.0, 3.0)
                near = cmath.exp(1j * (np.pi - gap))
                for phases in ([cmath.exp(1j * phi), cmath.exp(1j * (phi + gap))], [near, near.conjugate()]):
                    u = q @ np.diag(phases) @ q.conj().T
                    v = unitary_root(u, k)
                    assert unitarity_err(v) < 1e-12, gap
                    assert max_err(power(v, 1 << k), u) < 1e-11, gap

    def test_large_k_tends_to_identity(self):
        u = random_unitary(RNG)
        assert max_err(unitary_root(u, 60), I2) < 1e-9

    @pytest.mark.parametrize("k", [1023, 1024, 5000])
    def test_huge_k_is_the_identity(self, k):
        # 2^1024 overflows a float, so a root that divides by it raises
        for u in [*NAMED_GATES.values(), random_unitary(RNG), random_unitary(RNG)]:
            v = unitary_root(u, k)
            assert unitarity_err(v) < 1e-15
            assert max_err(v, I2) < 1e-15

    def test_same_bits_as_dividing_by_two_to_the_k(self):
        # synthesized files bind these roots, so they stay byte-identical
        for u in [*NAMED_GATES.values(), *(random_unitary(RNG) for _ in range(5))]:
            for k in [*range(63), 1023]:
                assert unitary_root(u, k).tobytes() == division_root(u, k).tobytes(), k

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            unitary_root(np.array([[1, 0], [0, 2]]), 1)
        with pytest.raises(ValueError):
            unitary_root(X, -1)


def test_require_unitary():
    got = require_unitary([[0, 1], [1, 0]])
    assert got.dtype == complex
    with pytest.raises(ValueError, match=r"^matrix must be 2x2, got shape \(3, 3\)$"):
        require_unitary(np.eye(3))
    with pytest.raises(ValueError, match="^v binding is not unitary within 1e-09$"):
        require_unitary(1.0001 * X, name="v binding")


def test_is_unitary_refuses_non_finite_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, complex(0, np.nan)):
            with pytest.raises(ValueError, match="not unitary"):
                require_unitary(np.array([[bad, 0], [0, 1]]))


# every array these modules hand to more than one caller, and the base each
# is a view of: a caller holding the array can reach its base too
SHARED = {
    **{f"NAMED_GATES[{name}]": lambda name=name: NAMED_GATES[name] for name in NAMED_GATES},
    **{f"NAMED_GATES[{name}].base": lambda name=name: NAMED_GATES[name].base for name in NAMED_GATES},
    "I2": lambda: I2,
    "I2.base": lambda: I2.base,
    "cnot-only trace v": lambda: linear_trace(Circuit(3, [cnot(0, 1)])).v,
    "cnot-only trace v.base": lambda: linear_trace(Circuit(3, [cnot(0, 1)])).v.base,
    "_direct_sums(3)": lambda: z2identity._direct_sums(3),
    "_direct_sums(3).base": lambda: z2identity._direct_sums(3).base,
}


@pytest.mark.parametrize("name", list(SHARED))
def test_shared_arrays_cannot_be_made_writable(name):
    shared = SHARED[name]()
    # every array down the chain of bases refuses, and the chain ends in the
    # immutable bytes that hold the values
    while isinstance(shared, np.ndarray):
        with pytest.raises(ValueError):
            shared.setflags(write=True)
        with pytest.raises(ValueError):
            shared[(0,) * shared.ndim] = 2
        shared = shared.base
    assert isinstance(shared, bytes)
    assert np.array_equal(parse_gate_spec("X"), [[0, 1], [1, 0]])
    assert z2identity.verify_closed_form(3).passed


def test_random_unitary_is_unitary():
    for _ in range(50):
        assert unitarity_err(random_unitary(RNG)) < 1e-12


def test_phase_gates_compose():
    # T^2 == S and S^2 == Z, so the named set is internally consistent
    assert max_err(T @ T, S) < 1e-15
    assert max_err(S @ S, Z) < 1e-15
    assert max_err(H @ H, I2) < 1e-15
    assert max_err(Y @ Y, I2) < 1e-15
