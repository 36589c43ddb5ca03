"""Verification oracles, and the dense route's caps.

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
``trace_operands`` gives a pair of 2 x 2 blocks per input, whose
``operator_distance`` is that of its operator from the reference; no
2^m x 2^m matrix is built.

``circuit_unitary`` always builds the dense 2^m x 2^m operator gate by gate,
and ``run_circuit`` runs every other circuit gate by gate on a dense state
vector, both through one in-place loop.  That path is deliberately direct,
exists to check, not to scale, and is the reference the trace is tested
against.  It raises ``DenseCapError`` before it runs: ``circuit_unitary``
past ``MAX_WIDTH`` or ``MAX_DENSE_WORK``, ``run_circuit`` past the latter.
``reference_mcu`` builds the multi-controlled operator from its definition,
never from a circuit: an independent oracle for synthesized circuits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import CNOT_CODE, CV_CODE, CVDG_CODE, Circuit
from .unitary2 import I2, require_unitary
from .z2identity import parity_sums

# the dense operator is 4^width * 16 B: `check` peaks at 86 MiB RSS at width
# 10 and at 254 MiB at width 11 (one gate, fresh process)
MAX_WIDTH = 10
# the dense loop does gates x 2^width amplitude updates per column, gates x
# 4^width for the operator.  The largest dense case the docs promise is the
# 9-control H circuit with one cnot aimed at the target wire, 4,097 gates at
# width 10; `check` runs it in 8.1 s (2-core sandbox)
MAX_DENSE_WORK = 4097 << 20


class DenseCapError(ValueError):
    """The dense route's refusal past a cap, raised before the route runs."""


def _require_dense_work(circuit: Circuit, base: int) -> None:
    if len(circuit) * base**circuit.width > MAX_DENSE_WORK:
        work = f"{len(circuit)} gates x {base}^{circuit.width}"
        raise DenseCapError(f"{work} exceed the dense work cap {MAX_DENSE_WORK}")


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
    touches the last wire, or a cv-kind gate aimed at any other wire, decided
    from the gate columns before anything of size 2^width is allocated.
    """
    n = circuit.width - 1
    kinds, controls, targets = circuit.gates.T
    cnots = kinds == CNOT_CODE
    if (cnots & ((controls == n) | (targets == n)) | ~cnots & (targets != n)).any():
        return None
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
    np.add.at(c, np.array(applied, dtype=np.int64), np.where(kinds[~cnots] == CV_CODE, 1, -1))
    return LinearTrace(outputs, parity_sums(c), I2 if circuit.v_binding is None else circuit.v_binding)


def _v_powers(trace: LinearTrace) -> np.ndarray:
    # V^e(x) for every control index x.  One squaring chain per sign (of V,
    # or of its adjoint view for e < 0) serves every distinct e, and each V^e
    # multiplies its set bits' squares into I2 in ascending order, so it is
    # bitwise the product that repeated squaring of V (or V+) returns
    values, which = np.unique(trace.exponents, return_inverse=True)
    powers = np.empty((len(values), 2, 2), dtype=complex)
    powers[:] = I2
    for signed, base in ((values > 0, trace.v), (values < 0, trace.v.conj().T)):
        e = np.abs(values[signed])
        if not len(e):
            continue
        group, bits = powers[signed], int(np.bitwise_or.reduce(e))
        for bit in range(bits.bit_length()):
            if bits >> bit & 1:
                on = (e >> bit) & 1 == 1
                group[on] = group[on] @ base
            base = base @ base
        powers[signed] = group
    return powers[which.reshape(-1)]


def trace_operands(trace: LinearTrace, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A pair whose ``operator_distance`` is that of the circuit and reference_mcu.

    Column block x holds V^e(x) in row block y(x) of the circuit's operator,
    and R_x (u for x all ones, else I) in row block x of the reference.
    Where y(x) = x, entry x of the pair is those two blocks.  Elsewhere each
    block faces zeros in the other operator, so entry x is the larger of
    their entry sizes against zeros.  Neither operator is built.
    """
    u = require_unitary(u)
    actual = _v_powers(trace)
    reference = np.broadcast_to(I2, actual.shape).copy()
    reference[-1] = u
    moved = trace.outputs != np.arange(len(actual))
    actual[moved] = np.maximum(np.abs(actual[moved]), np.abs(reference[moved]))
    reference[moved] = 0
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
    run gate by gate on a copy of the dense state, under ``MAX_DENSE_WORK``.
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
    _require_dense_work(circuit, 2)
    return _run_dense(circuit, state.copy())


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit: column j is the circuit run on basis j."""
    if circuit.width > MAX_WIDTH:
        raise DenseCapError(f"width {circuit.width} exceeds the simulation cap {MAX_WIDTH}")
    _require_dense_work(circuit, 4)
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
