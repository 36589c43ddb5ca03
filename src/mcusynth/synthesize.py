"""Decompose n-controlled single-qubit unitaries into cnot + controlled-V.

The construction: pick v with v^(2^(n-1)) = u.  For every nonempty subset of
the control wires, fold the subset's xor-parity onto its last wire with a
cnot chain, apply controlled-v (odd subsets) or controlled-v-adjoint (even
subsets) from that wire to the target, and uncompute the chain.  Powers of v
on the target commute, so for control bits x the target collects

    v ** (alternating parity sum of x)  ==  v ** (2^(n-1) * prod x)  ==  u ** (prod x)

i.e. u fires exactly when every control is 1.  The block list is the same
canonical subset enumeration the identity engine uses (size ascending,
lexicographic within size), emitted one subset size at a time straight into
the circuit's int columns.  ``synth_mcu`` is the one entry point: n = 1 is
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

import itertools

import numpy as np

from .circuit import CNOT_CODE, CV_CODE, CVDG_CODE, GATE_KINDS, INVERSE_CODE, Circuit
from .unitary2 import unitary_root


def _blocks(n: int, k: int) -> np.ndarray:
    """The (3, C(n, k), 2k - 1) kind / control / target planes of the
    k-subset blocks, subsets in lexicographic order.

    Row i of each plane is the block of the i-th subset s: cnot(s[j],
    s[j + 1]) for j < k - 1, the cv (odd k) or cvdg (even k) from s[-1] onto
    the target n, then the chain reversed.
    """
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    apply = np.full((len(subsets), 1), n)
    control = np.concatenate((subsets[:, :-1], subsets[:, -1:], subsets[:, -2::-1]), axis=1)
    target = np.concatenate((subsets[:, 1:], apply, subsets[:, :0:-1]), axis=1)
    kind = np.full(2 * k - 1, CNOT_CODE)
    kind[k - 1] = CV_CODE if k % 2 else CVDG_CODE
    return np.stack((np.broadcast_to(kind, control.shape), control, target))


def synth_mcu(n: int, u: np.ndarray) -> Circuit:
    """Synthesize the n-controlled-u circuit on n + 1 qubits.

    Controls are qubits 0..n-1, the target is qubit n, and the circuit binds
    v = u^(1/2^(n-1)), the principal root from ``unitary_root``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 controls, got {n}")
    v = unitary_root(u, n - 1)
    table = np.concatenate([_blocks(n, k).reshape(3, -1) for k in range(1, n + 1)], axis=1)
    return Circuit(n + 1, table, v)


def peephole_cancel(circuit: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    Cancels (cnot, cnot) and (cv, cvdg) in either order on identical wires.
    The stack walk reaches the fixpoint in one pass, so the result is
    idempotent; the simulated operator is unchanged and the gate count never
    increases.
    """
    # a gate's key equals another's inverse key iff the two cancel
    pair = circuit.pair_ids() * len(GATE_KINDS)
    keys = (pair + circuit.kind).tolist()
    kept: list[int] = []
    for row, inverse in enumerate((pair + INVERSE_CODE[circuit.kind]).tolist()):
        if kept and keys[kept[-1]] == inverse:
            kept.pop()
        else:
            kept.append(row)
    return Circuit(circuit.width, circuit.table[:, kept], circuit.v_binding)
