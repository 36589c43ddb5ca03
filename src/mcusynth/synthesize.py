"""Decompose n-controlled single-qubit unitaries into cnot + controlled-V.

The construction: pick v with v^(2^(n-1)) = u.  For every nonempty subset of
the control wires, fold the subset's xor-parity onto its last wire with a
cnot chain, apply controlled-v (odd subsets) or controlled-v-adjoint (even
subsets) from that wire to the target, and uncompute the chain.  Powers of v
on the target commute, so for control bits x the target collects

    v ** (alternating parity sum of x)  ==  v ** (2^(n-1) * prod x)  ==  u ** (prod x)

i.e. u fires exactly when every control is 1.  The block list is the same
canonical subset enumeration the identity engine uses (size ascending,
lexicographic within size).  ``synth_mcu`` is the one entry point: n = 1 is
a single cv with v = u, and n = 2 is the five-gate sequence
cv(0,2), cv(1,2), cnot(0,1), cvdg(1,2), cnot(0,1) with v = sqrt(u)
(Barenco et al. 1995, Lemma 6.1).

The emitted circuits are naive compute/apply/uncompute blocks; adjacent
blocks often share cnots, which ``peephole_cancel`` removes as an explicit,
separate pass.  Gate totals grow exponentially by design: 2^n - 1 cv-kind
gates and 2*(n*2^(n-1) - 2^n + 1) cnots.  Checking a circuit against the
reference operator is the ``check`` command's job, not the synthesizer's.
"""

from __future__ import annotations

import numpy as np

from .circuit import CNOT, CV, CVDG, Circuit, Gate, cnot, cv, cvdg
from .unitary2 import unitary_root
from .z2identity import signed_parity_terms


def _block_gates(sign: int, subset: tuple[int, ...], target: int) -> list[Gate]:
    apply_gate = cv if sign > 0 else cvdg
    if len(subset) == 1:
        return [apply_gate(subset[0], target)]
    chain = [cnot(subset[i], subset[i + 1]) for i in range(len(subset) - 1)]
    return chain + [apply_gate(subset[-1], target)] + chain[::-1]


def synth_mcu(n: int, u: np.ndarray) -> Circuit:
    """Synthesize the n-controlled-u circuit on n + 1 qubits.

    Controls are qubits 0..n-1, the target is qubit n, and the circuit binds
    v = u^(1/2^(n-1)), the principal root from ``unitary_root``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 controls, got {n}")
    v = unitary_root(u, n - 1)
    gates: list[Gate] = []
    for sign, subset in signed_parity_terms(n):
        gates.extend(_block_gates(sign, subset, n))
    return Circuit(n + 1, gates, v)


def _cancels(a: Gate, b: Gate) -> bool:
    if a.control != b.control or a.target != b.target:
        return False
    kinds = {a.kind, b.kind}
    return kinds == {CNOT} or kinds == {CV, CVDG}


def peephole_cancel(circuit: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    Cancels (cnot, cnot) and (cv, cvdg) in either order on identical wires.
    The stack walk reaches the fixpoint in one pass, so the result is
    idempotent; the simulated operator is unchanged and the gate count never
    increases.
    """
    kept: list[Gate] = []
    for gate in circuit.gates:
        if kept and _cancels(kept[-1], gate):
            kept.pop()
        else:
            kept.append(gate)
    return Circuit(circuit.width, kept, circuit.v_binding)

