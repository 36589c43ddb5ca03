"""Verification oracles: an exact linear trace and a dense simulator.

Basis index convention, fixed globally: qubit 0 is the most significant bit,
so a basis label (x_0, ..., x_{m-1}) maps to the index
sum_i x_i * 2^(m-1-i).  Under this convention a single cnot with control 0
and target 1 on two qubits produces exactly

    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]]

Circuits of the synthesizer's shape (cnots among the first m - 1 wires,
cv/cvdg from one of them onto the last wire) are linear: on control input x
they put the controls in state y(x), an invertible GF(2) image of x, and
apply V^e(x) to the last wire (the phase-polynomial view of Amy, Maslov
and Mosca, arXiv:1303.2042).  ``linear_trace`` computes y and e for all
2^(m-1) inputs in one pass over the gates, e from the parity-sum engine in
``z2identity``.  ``run_circuit`` applies such a circuit from its trace, and
``trace_blocks`` gives the nonzero blocks of its operator and of the
reference, whose ``operator_distance`` is that of the full operators; no
2^m x 2^m matrix is built.

``circuit_unitary`` always builds the dense 2^m x 2^m operator gate by gate,
and ``run_circuit`` runs every other circuit gate by gate on a dense state
vector.  That path is deliberately direct, exists to check, not to scale,
and is the reference the trace is tested against.  ``reference_mcu`` builds
the multi-controlled operator straight from its definition and never from a
circuit, so it is an independent oracle for synthesized circuits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import CNOT, CV, Circuit, Gate
from .unitary2 import I2, power, require_unitary
from .z2identity import parity_sums

# 2^12 x 2^12 complex128 is a 256 MB operator; past that the oracle role
# stops making sense
MAX_WIDTH = 12

# cap for simulating one state.  A width-w state is 2^w * 16 B; per gate
# _apply also holds a full copy plus the gathered quarter blocks and their
# products (2.5 states on top of the input, by tracemalloc), and _gate_rows
# keeps two int64 index arrays of 2^(w-2) entries for each of up to w(w-1)
# (control, target) pairs, least recently used evicted first.  At 16 that is
# 1 MiB per state, 3.5 MiB per gate and at most 60 MiB of indices; every
# further qubit doubles all three.
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


class LinearTrace(NamedTuple):
    """What a linear circuit does to each control input.

    For control index x (the first width - 1 qubits, qubit 0 most
    significant), ``outputs[x]`` is the control index y(x) the input lands
    on and ``exponents[x]`` the net power of ``v`` applied to the last wire;
    both are int64 arrays of length 2^(width - 1).  ``v`` is the circuit's V
    binding, or the identity when the circuit has no cv-kind gate.
    """

    outputs: np.ndarray
    exponents: np.ndarray
    v: np.ndarray


def linear_trace(circuit: Circuit) -> LinearTrace | None:
    """Trace a cnot + controlled-V circuit exactly, for every control input.

    The last wire is the target, the others are controls.  Each control wire
    carries an xor of input bits, kept as a bitmask over the control index
    x: a cnot xors its control's mask into its target's, and a cv (cvdg)
    adds +1 (-1) to the coefficient c[S] of its control's current mask S.
    The target then collects V^e(x) with

        e(x) = sum_S c[S] * parity(S & x),

    exactly and for all x at once by ``z2identity.parity_sums``, O(n 2^n)
    for n controls.  Returns None when a gate leaves that class: a cnot that
    touches the last wire, or a cv-kind gate aimed at any other wire.
    """
    n = circuit.width - 1
    masks = [1 << (n - 1 - i) for i in range(n)]
    # sparse until the walk is done, so that a circuit outside the class
    # allocates nothing of size 2^n
    coeffs: dict[int, int] = {}
    for gate in circuit.gates:
        kind, control, target = gate.kind, gate.control, gate.target
        if kind == CNOT:
            if control == n or target == n:
                return None
            masks[target] ^= masks[control]
        elif target != n:
            return None
        else:
            mask = masks[control]
            coeffs[mask] = coeffs.get(mask, 0) + (1 if kind == CV else -1)
    v = circuit.v_binding
    if v is None:
        if circuit.needs_v:
            raise ValueError("circuit contains cv/cvdg gates but no V binding")
        v = I2
    # y is linear: for x < 2^j, y(x + 2^j) = y(x) ^ y(2^j), and y(2^j) has
    # output bit i set iff mask i contains input bit j
    outputs = np.zeros(1, dtype=np.int64)
    for j in range(n):
        column = sum(((mask >> j) & 1) << (n - 1 - i) for i, mask in enumerate(masks))
        outputs = np.concatenate((outputs, outputs ^ column))
    c = np.zeros(1 << n, dtype=np.int64)
    c[list(coeffs)] = list(coeffs.values())
    return LinearTrace(outputs, parity_sums(c), v)


def _v_powers(trace: LinearTrace) -> np.ndarray:
    # V^e(x) for every control index x, one matrix power per distinct e
    values, which = np.unique(trace.exponents, return_inverse=True)
    powers = np.array([power(trace.v, int(e)) for e in values])
    return powers[which.reshape(-1)]


def trace_blocks(trace: LinearTrace, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero blocks of a traced circuit's operator and of reference_mcu.

    Column block x of the circuit's operator holds V^e(x) in row block y(x)
    and zeros elsewhere; column block x of ``reference_mcu(n, u)`` holds R_x
    in row block x, with R_x = u for x all ones and I otherwise.  Entry x of
    each returned array is a 4 x 2 stack: rows 0-1 are row block y(x), rows
    2-3 row block x when that differs (zeros otherwise).  So
    ``operator_distance`` of the pair is exactly ``operator_distance`` of
    the two 2^m x 2^m operators, neither of which is built.
    """
    u = require_unitary(u)
    count = trace.outputs.shape[0]
    actual = np.zeros((count, 4, 2), dtype=complex)
    actual[:, :2] = _v_powers(trace)
    rows = 2 * (trace.outputs != np.arange(count))[:, None] + np.arange(2)
    reference = np.zeros((count, 4, 2), dtype=complex)
    reference[np.arange(count)[:, None], rows] = I2
    reference[-1, rows[-1]] = u
    return actual, reference


@lru_cache(maxsize=MAX_STATE_WIDTH * (MAX_STATE_WIDTH - 1))
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
    """The circuit applied to the given state.

    A circuit in ``linear_trace``'s class moves the target pair of each
    control index x to y(x) and applies V^e(x) to it; any other circuit is
    run gate by gate on the dense state.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << circuit.width,):
        raise ValueError(
            f"state has dimension {state.shape}, circuit width {circuit.width}"
        )
    trace = linear_trace(circuit)
    if trace is not None:
        out = np.zeros_like(state).reshape(-1, 2)
        out[trace.outputs] = (_v_powers(trace) @ state.reshape(-1, 2, 1))[..., 0]
        return out.reshape(-1)
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
