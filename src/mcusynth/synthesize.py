"""Decompose n-controlled single-qubit unitaries into cnot + controlled-V.

The construction: pick v with v^(2^(n-1)) = u.  For every nonempty subset of
the control wires, bring the subset's xor-parity onto one wire with cnots,
apply controlled-v (odd subsets) or controlled-v-adjoint (even subsets) from
that wire to the target, and restore the wires.  Powers of v on the target
commute, so for control bits x the target collects

    v ** (alternating parity sum of x)  ==  v ** (2^(n-1) * prod x)  ==  u ** (prod x)

i.e. u fires exactly when every control is 1.  ``synth_mcu`` is the one
entry point, and it emits the subsets in one of two orders straight into the
circuit's int columns:

* canonical (the default): the subset enumeration the identity engine uses
  (size ascending, lexicographic within size), each subset a compute/apply/
  uncompute block of its own: 2^n - 1 cv-kind gates and
  2*(n*2^(n-1) - 2^n + 1) cnots.  n = 1 is a single cv with v = u, and
  n = 2 is the five-gate sequence cv(0,2), cv(1,2), cnot(0,1), cvdg(1,2),
  cnot(0,1) with v = sqrt(u) (Barenco et al. 1995, Lemma 6.1).
* Gray (``gray=True``): the subsets in reflected Gray-code order, so that
  consecutive subsets differ in one wire and each parity moves to the next
  with a single cnot (Barenco et al. 1995, Lemma 7.1): 2^n - 1 cv-kind
  gates and 2^n - 2 cnots, 2^(n+1) - 3 gates in all.

``peephole_cancel`` removes adjacent inverse pairs as a separate pass; on the
canonical order it keeps fewer gates than the canonical circuit but more than
the Gray one.  Gate totals grow exponentially in n either way.  Checking a
circuit against the reference operator is the ``check`` command's job, not
the synthesizer's.
"""

from __future__ import annotations

import itertools

import numpy as np

from .circuit import CNOT_CODE, CV_CODE, CVDG_CODE, GATE_KINDS, INVERSE_CODE, Circuit, GateCounts
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


def _gray(n: int) -> np.ndarray:
    """The (3, 2^(n+1) - 3) kind / control / target table of the Gray order.

    Code i = 1..2^n - 1 is the subset g(i) = i ^ (i >> 1) of control bits,
    bit b on wire b; the highest set bit t of g(i) is i's, and wire t is its
    top wire.  Wire t then holds the parity of g(i), and every wire below t
    its own bit, so code i applies cv (odd popcount, i.e. odd i) or cvdg
    (even) from wire t onto the target.  g(i + 1) flips the lowest set bit
    b of i + 1, and one cnot into the top wire t of i + 1 moves the parity:
    from wire b, or from wire t - 1 when b = t, i.e. when bit t itself turns
    on (g(i) is then the single bit t - 1).  The last code is the single bit
    n - 1, so every wire ends where it started.
    """
    top = np.repeat(np.arange(n), 1 << np.arange(n))  # top[i - 1] for i = 1..2^n - 1
    step = np.arange(2, 1 << n)
    flipped = top[(step & -step) - 1]
    into = top[1:]
    # code i's cv-kind gate in column 2(i - 1), the cnot to code i + 1 after it
    table = np.empty((3, 2 * top.shape[0] - 1), dtype=np.int64)
    table[0, ::2] = np.where(np.arange(top.shape[0]) % 2, CVDG_CODE, CV_CODE)
    table[1, ::2] = top
    table[2, ::2] = n
    table[0, 1::2] = CNOT_CODE
    table[1, 1::2] = flipped - (flipped == into)
    table[2, 1::2] = into
    return table


def canonical_counts(n: int) -> GateCounts:
    """``synth_mcu(n, u).counts()`` without building the circuit: a k-subset
    block is one cv (odd k) or cvdg (even k) and 2(k - 1) cnots."""
    half = 1 << (n - 1)
    return GateCounts(cnot=2 * (n * half - 2 * half + 1), cv=half, cvdg=half - 1)


def synth_mcu(n: int, u: np.ndarray, gray: bool = False) -> Circuit:
    """Synthesize the n-controlled-u circuit on n + 1 qubits.

    Controls are qubits 0..n-1, the target is qubit n, and the circuit binds
    v = u^(1/2^(n-1)), the principal root from ``unitary_root``.  The subsets
    come in canonical order, or in Gray-code order when ``gray`` is set.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 controls, got {n}")
    v = unitary_root(u, n - 1)
    if gray:
        table = _gray(n)
    else:
        blocks = [_blocks(n, k).reshape(3, -1) for k in range(1, n + 1)]
        table = np.concatenate(blocks, axis=1)
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
