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
vector, both through one in-place loop.  That path is deliberately direct,
exists to check, not to scale, and is the reference the trace is tested
against.  ``reference_mcu`` builds the multi-controlled operator straight
from its definition and never from a circuit, so it is an independent
oracle for synthesized circuits.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .circuit import CNOT_CODE, CV_CODE, CVDG_CODE, Circuit
from .unitary2 import I2, power, require_unitary
from .z2identity import parity_sums

# dense cost is gates x 4^width: the synthesized 8- and 9-control H circuits
# (1,793 and 4,097 gates) take 0.63 s and 6.2 s through circuit_unitary at a
# 24 MiB tracemalloc peak, and width 11 runs at 11 ms a gate, about 100 s
# for its 9,217 at 96 MiB (2-core Xeon)
MAX_WIDTH = 10

# cap for simulating one state densely; ``simulate`` runs a circuit of
# linear_trace's class at every width synth emits.  A width-w state is
# 2^w * 16 B, 1 MiB at 16; the dense route holds one copy of it plus two
# quarter-size scratch buffers (1.5 MiB; 1.8 MiB tracemalloc peak) and runs
# a random 2,001-gate circuit in 0.39 s.  Every further qubit doubles both
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


def traceable(circuit: Circuit) -> bool:
    """Whether ``linear_trace`` takes the circuit: every cnot among the first
    width - 1 wires and every cv-kind gate onto the last wire.  Decided from
    the gate columns alone, before anything of size 2^width is allocated."""
    n = circuit.width - 1
    cnots = circuit.kind == CNOT_CODE
    return not (
        np.any(cnots & ((circuit.control == n) | (circuit.target == n)))
        or np.any(~cnots & (circuit.target != n))
    )


def linear_trace(circuit: Circuit) -> LinearTrace | None:
    """Trace a cnot + controlled-V circuit exactly, for every control input.

    The last wire is the target, the others are controls.  Each control wire
    carries an xor of input bits, kept as a bitmask over the control index
    x: a cnot xors its control's mask into its target's, and a cv (cvdg)
    adds +1 (-1) to the coefficient c[S] of its control's current mask S.
    The target then collects V^e(x) with

        e(x) = sum_S c[S] * parity(S & x),

    exactly and for all x at once by ``z2identity.parity_sums``, O(n 2^n)
    for n controls.  Returns None when a gate leaves that class (see
    ``traceable``): a cnot that touches the last wire, or a cv-kind gate
    aimed at any other wire.
    """
    if not traceable(circuit):
        return None
    n = circuit.width - 1
    cnots = circuit.kind == CNOT_CODE
    masks = [1 << (n - 1 - i) for i in range(n)]
    applied = []  # the mask each cv-kind gate reads, in gate order
    for kind, control, target in circuit.rows():
        if kind == CNOT_CODE:
            masks[target] ^= masks[control]
        else:
            applied.append(masks[control])
    # y is linear: for x < 2^j, y(x + 2^j) = y(x) ^ y(2^j), and y(2^j) has
    # output bit i set iff mask i contains input bit j
    outputs = np.zeros(1, dtype=np.int64)
    for j in range(n):
        column = sum(((mask >> j) & 1) << (n - 1 - i) for i, mask in enumerate(masks))
        outputs = np.concatenate((outputs, outputs ^ column))
    c = np.zeros(1 << n, dtype=np.int64)
    np.add.at(c, np.array(applied, dtype=np.int64), np.where(circuit.kind[~cnots] == CV_CODE, 1, -1))
    return LinearTrace(outputs, parity_sums(c), I2 if circuit.v_binding is None else circuit.v_binding)


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


def _run_dense(circuit: Circuit, arr: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates to ``arr`` in place and return it.

    ``arr`` is a C-contiguous complex state (2^m,) or operator (2^m, k),
    viewed with one axis of length 2 per qubit.  The entries a gate reads
    (control bit 1, target bit 0 or 1) are then two basic-indexing views,
    each a quarter of the array: cnot swaps them and cv/cvdg mix them with
    v or its adjoint, through two scratch buffers allocated once per call.
    """
    v = circuit.v_binding
    mix = {} if v is None else {CV_CODE: v.tolist(), CVDG_CODE: v.conj().T.tolist()}
    qubits = arr.reshape((2,) * circuit.width + arr.shape[1:])
    # every gate's quarter has the shape of the array less two qubit axes
    old, scratch = (np.empty(qubits.shape[2:], dtype=complex) for _ in range(2))
    for kind, control, target in circuit.rows():
        # the trailing Ellipsis keeps a 0-d quarter a view, not a scalar
        index = [slice(None)] * circuit.width + [...]
        index[control] = 1
        index[target] = 0
        low = qubits[tuple(index)]
        index[target] = 1
        high = qubits[tuple(index)]
        np.copyto(old, low)
        if kind == CNOT_CODE:
            # copyto from one view of qubits into another would stage the
            # source in a temporary of its own whenever their bounds overlap
            np.copyto(scratch, high)
            np.copyto(low, scratch)
            np.copyto(high, old)
            continue
        # low, high = a low + b high, c low + d high
        (a, b), (c, d) = mix[kind]
        low *= a
        np.multiply(high, b, out=scratch)
        low += scratch
        high *= d
        np.multiply(old, c, out=scratch)
        high += scratch
    return arr


def run_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """The circuit applied to the given state, as a new array.

    A circuit in ``linear_trace``'s class moves the target pair of each
    control index x to y(x) and applies V^e(x) to it; any other circuit is
    run gate by gate on a copy of the dense state.
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
    return _run_dense(circuit, state.copy())


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit: column j is the circuit run on basis j."""
    if circuit.width > MAX_WIDTH:
        raise ValueError(f"width {circuit.width} exceeds the simulation cap {MAX_WIDTH}")
    return _run_dense(circuit, np.eye(1 << circuit.width, dtype=complex))


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
