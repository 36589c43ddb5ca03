"""Brute-force dense verification oracle.

State vectors are numpy arrays of length 2^m, operators are 2^m x 2^m
matrices.  Basis index convention, fixed globally: qubit 0 is the most
significant bit, so a basis label (x_0, ..., x_{m-1}) maps to the index
sum_i x_i * 2^(m-1-i).  Under this convention a single cnot with control 0
and target 1 on two qubits produces exactly

    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]]

Everything here is deliberately dense and direct: it exists to check the
synthesizer, not to scale.  ``reference_mcu`` builds the multi-controlled
operator straight from its definition and never from a circuit, so it is an
independent oracle for synthesized circuits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .circuit import CNOT, CV, Circuit, Gate
from .unitary2 import require_unitary

# 2^12 x 2^12 complex128 is a 256 MB operator; past that the oracle role
# stops making sense
MAX_WIDTH = 12

# cap for simulating one state.  A width-w state is 2^w * 16 B; per gate
# _apply also holds a full copy plus the gathered quarter blocks and their
# products (2.5 states on top of the input, by tracemalloc), and _gate_rows
# keeps two int64 index arrays of 2^(w-2) entries for each of up to w(w-1)
# (control, target) pairs.  At 16 that is 1 MiB per state, 3.5 MiB per gate
# and at most 60 MiB of indices; every further qubit doubles all three.
MAX_STATE_WIDTH = 16


def basis_index(bits: Sequence[int]) -> int:
    """Basis index of |bits>, qubit 0 most significant."""
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"expected a bit, got {b!r}")
        index = (index << 1) | b
    return index


def index_bits(index: int, width: int) -> tuple[int, ...]:
    """Inverse of basis_index."""
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def basis_state(bits: Sequence[int]) -> np.ndarray:
    """The computational basis state |bits>."""
    bits = tuple(bits)
    state = np.zeros(1 << len(bits), dtype=complex)
    state[basis_index(bits)] = 1.0
    return state


@lru_cache(maxsize=None)
def _gate_rows(width: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    # rows with control bit set, paired as (target bit 0, target bit 1)
    idx = np.arange(1 << width)
    cmask = 1 << (width - 1 - control)
    tmask = 1 << (width - 1 - target)
    rows0 = idx[((idx & cmask) != 0) & ((idx & tmask) == 0)]
    rows0.setflags(write=False)
    rows1 = rows0 | tmask
    rows1.setflags(write=False)
    return rows0, rows1


def _apply(arr: np.ndarray, gate: Gate, v: np.ndarray | None, width: int) -> np.ndarray:
    if gate.control >= width or gate.target >= width:
        raise ValueError(f"gate {gate} out of range for width {width}")
    rows0, rows1 = _gate_rows(width, gate.control, gate.target)
    out = arr.copy()
    if gate.kind == CNOT:
        out[rows0], out[rows1] = arr[rows1], arr[rows0]
        return out
    if v is None:
        raise ValueError(f"{gate.kind} gate needs a bound V matrix")
    m = v if gate.kind == CV else v.conj().T
    a0, a1 = arr[rows0], arr[rows1]
    out[rows0] = m[0, 0] * a0 + m[0, 1] * a1
    out[rows1] = m[1, 0] * a0 + m[1, 1] * a1
    return out


def apply_gate(state: np.ndarray, gate: Gate, v: np.ndarray | None = None) -> np.ndarray:
    """Apply one gate to a state vector, returning a new vector.

    Components with the control bit 0 pass through untouched; for control
    bit 1, cnot swaps the target-bit pair and cv/cvdg mix it with the 2x2
    matrix v (or its adjoint).
    """
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    width = dim.bit_length() - 1
    if state.ndim != 1 or dim != 1 << width:
        raise ValueError(f"state length must be a power of two, got {state.shape}")
    return _apply(state, gate, v, width)


def run_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run every gate of the circuit on the given state."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << circuit.width,):
        raise ValueError(
            f"state has dimension {state.shape}, circuit width {circuit.width}"
        )
    if circuit.needs_v and circuit.v_binding is None:
        raise ValueError("circuit contains cv/cvdg gates but no V binding")
    for gate in circuit.gates:
        state = _apply(state, gate, circuit.v_binding, circuit.width)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit: column j is the circuit run on basis j."""
    if circuit.width > MAX_WIDTH:
        raise ValueError(
            f"width {circuit.width} exceeds the dense-simulation cap {MAX_WIDTH}"
        )
    if circuit.needs_v and circuit.v_binding is None:
        raise ValueError("circuit contains cv/cvdg gates but no V binding")
    op = np.eye(1 << circuit.width, dtype=complex)
    for gate in circuit.gates:
        op = _apply(op, gate, circuit.v_binding, circuit.width)
    return op


def reference_mcu(n: int, u: np.ndarray) -> np.ndarray:
    """The n-controlled-U operator built directly from its definition.

    Identity on every basis state except the two whose n control bits are
    all 1, where the target qubit is acted on by u.  This is the oracle the
    synthesizer is checked against; it never goes through a circuit.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u = require_unitary(u)
    dim = 1 << (n + 1)
    op = np.eye(dim, dtype=complex)
    op[dim - 2 : dim, dim - 2 : dim] = u
    return op


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Maximum absolute entrywise difference."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))
