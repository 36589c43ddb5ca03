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
  cnot(0,1) with v = sqrt(u) (Barenco et al. 1995, Lemma 6.1).  The
  table is allocated once and filled a subset size at a time: the
  k-subsets are the (k - 1)-subsets each grown by every higher wire, a
  repeat and an arange that keep lexicographic order, and their blocks are
  written whole through a (3, C(n, k), 2k - 1) view of the table.
* Gray (``gray=True``): the subsets in reflected Gray-code order, so that
  consecutive subsets differ in one wire and each parity moves to the next
  with a single cnot (Barenco et al. 1995, Lemma 7.1): 2^n - 1 cv-kind
  gates and 2^n - 2 cnots, 2^(n+1) - 3 gates in all.

No circuit of this shape needs fewer cv-kind gates when V has infinite
order, as for a generic u.  Such a circuit (cnots among the controls,
cv-kind gates from a control onto the target, one V) applies V^e(x) on
control input x, with e(x) = sum_S c[S] * parity(S & x) and c[S] the number
of cv minus cvdg gates applied while their control wire held the parity of
S (``simulator.linear_trace``).  The functions parity(S & x), S nonempty,
are linearly independent, since the Walsh-Hadamard transform in
``z2identity.parity_sums`` is invertible.  So e(x) = 2^(n-1) x_1 ... x_n
forces c[S] = +1 for odd |S| and -1 for even |S|, on every nonempty S.  Each
cv or cvdg moves one c[S] by one, so the circuit has at least 2^n - 1
cv-kind gates, and both orders use exactly that many.

Nor does one need fewer cnots than the Gray order's 2^n - 2.  The cnots
carry the controls' masks through invertible GF(2) matrices from the
identity back to it, and each nonempty mask S (c[S] != 0) sits on some wire
at some moment.  A cnot changes one wire, so it shows at most one new mask:
the 2^n - 1 - n non-unit masks take that many cnots.  Each wire that moves
takes one more, which shows nothing new, to return to its unit vector.  And
at least n - 1 wires move, since two unmoved wires u, v would force e_u +
e_v onto a third wire w, making rows u, v and w dependent.  That is
(2^n - 1 - n) + (n - 1) = 2^n - 2 cnots at least.

``peephole_cancel`` removes adjacent inverse pairs as a separate pass; on the
canonical order it keeps fewer gates than the canonical circuit but more than
the Gray one.  Gate totals grow exponentially in n either way.  Checking a
circuit against the reference operator is the ``check`` command's job, not
the synthesizer's.
"""

from __future__ import annotations

import numpy as np

from .circuit import CNOT_CODE, CV_CODE, CVDG_CODE, INVERSE_CODE, Circuit, GateCounts
from .unitary2 import unitary_root


def _canonical(n: int) -> np.ndarray:
    """The (3, m) kind / control / target table of the canonical order.

    The k-subsets come from the (k - 1)-subsets, each extended by every
    wire above its last, which keeps them in lexicographic order.  Row i of
    the (3, C(n, k), 2k - 1) view of size k's columns is the block of the
    i-th subset s: cnot(s[j], s[j + 1]) for j < k - 1, the cv (odd k) or
    cvdg (even k) from s[-1] onto the target n, then the chain reversed.
    """
    table = np.empty((3, canonical_counts(n).total), dtype=np.int64)
    table[0] = CNOT_CODE
    subsets = np.arange(n).reshape(n, 1)
    start = 0
    for k in range(1, n + 1):
        if k > 1:
            # subset s grows into a run of n - 1 - s[-1] subsets, whose j-th
            # adds wire s[-1] + 1 + j
            last = subsets[:, -1]
            grown = n - 1 - last
            run_start = np.cumsum(grown) - grown
            wire = np.arange(grown.sum()) + np.repeat(last + 1 - run_start, grown)
            subsets = np.column_stack((np.repeat(subsets, grown, axis=0), wire))
        end = start + subsets.shape[0] * (2 * k - 1)
        block = table[:, start:end].reshape(3, subsets.shape[0], 2 * k - 1)
        block[0, :, k - 1] = CV_CODE if k % 2 else CVDG_CODE
        block[1, :, :k] = subsets
        block[1, :, k:] = subsets[:, -2::-1]
        block[2, :, : k - 1] = subsets[:, 1:]
        block[2, :, k - 1] = n
        block[2, :, k:] = subsets[:, :0:-1]
        start = end
    return table


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
    table = _gray(n) if gray else _canonical(n)
    return Circuit(n + 1, table.T, v)


def peephole_cancel(circuit: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    Cancels (cnot, cnot) and (cv, cvdg) in either order on identical wires.
    The stack walk reaches the fixpoint in one pass, so the result is
    idempotent; the simulated operator is unchanged and the gate count never
    increases.
    """
    # a gate's key equals another's inverse key iff the two cancel.  Keys
    # past width 37,837 are uint64, which numpy mixes with int64 into float64
    keys = circuit.gate_keys().astype(np.int64)
    kinds = circuit.gates[:, 0]
    inverses = keys + (INVERSE_CODE[kinds] - kinds)
    keys = keys.tolist()
    kept: list[int] = []
    for row, inverse in enumerate(inverses.tolist()):
        if kept and keys[kept[-1]] == inverse:
            kept.pop()
        else:
            kept.append(row)
    return Circuit(circuit.width, circuit.gates[kept], circuit.v_binding)
