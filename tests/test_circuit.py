import numpy as np
import pytest

from mcusynth.circuit import CNOT, CV, CVDG, MAX_QUBITS, Circuit, Gate, GateError, cnot, cv, cvdg
from mcusynth.simulator import circuit_unitary, operator_distance
from mcusynth.unitary2 import X, random_unitary

RNG = np.random.default_rng(5)


def adjoint(circuit):
    """The dense operator's adjoint, the circuit's inverse."""
    return circuit_unitary(circuit).conj().T


class TestGate:
    def test_constructors(self):
        assert cnot(0, 1) == Gate(CNOT, 0, 1)
        assert cv(1, 2) == Gate(CV, 1, 2)
        assert cvdg(1, 2) == Gate(CVDG, 1, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            cnot(1, 1)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Gate("ccx", 0, 1)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            cv(-1, 0)

    def test_inverse(self):
        # cnot is its own inverse, and cv and cvdg are each other's
        v = random_unitary(RNG)
        for a, b in ((cnot, cnot), (cv, cvdg), (cvdg, cv)):
            product = circuit_unitary(Circuit(2, [a(0, 1), b(0, 1)], v))
            assert operator_distance(product, np.eye(4)) < 1e-15, (a, b)


class TestCircuit:
    def test_append_bounds(self):
        c = Circuit(2, [cnot(0, 1)])
        with pytest.raises(ValueError):
            Circuit(c.width, c.gates + (cnot(0, 2),))
        with pytest.raises(ValueError):
            Circuit(2, [cv(0, 5)])

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_width_bound(self):
        top = Circuit(MAX_QUBITS, [cnot(MAX_QUBITS - 1, MAX_QUBITS - 2)])
        assert top.pair_ids().tolist() == [(MAX_QUBITS - 1) * MAX_QUBITS + MAX_QUBITS - 2]
        with pytest.raises(ValueError, match=f"^need width <= {MAX_QUBITS}, got {MAX_QUBITS + 1}$"):
            Circuit(MAX_QUBITS + 1)

    def test_immutable(self):
        c = Circuit(2)
        with pytest.raises(AttributeError):
            c.width = 3

    def test_invert_single_gates(self):
        v = random_unitary(RNG)
        for gate, inverse in ((cnot(0, 1), cnot(0, 1)), (cv(0, 1), cvdg(0, 1))):
            assert np.array_equal(adjoint(Circuit(2, [gate], v)), circuit_unitary(Circuit(2, [inverse], v)))

    def test_invert_reverses_order(self):
        v = random_unitary(RNG)
        forward = Circuit(3, [cnot(0, 1), cv(1, 2)], v)
        backward = Circuit(3, [cvdg(1, 2), cnot(0, 1)], v)
        assert operator_distance(adjoint(forward), circuit_unitary(backward)) < 1e-15

    def test_invert_involution(self):
        # Lemma 6.1's circuit, then its gates reversed with cv and cvdg
        # swapped, is the identity
        gates = [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1)]
        undo = [cnot(0, 1), cv(1, 2), cnot(0, 1), cvdg(1, 2), cvdg(0, 2)]
        both = circuit_unitary(Circuit(3, gates + undo, random_unitary(RNG)))
        assert operator_distance(both, np.eye(8)) < 1e-14

    def test_counts(self):
        c = Circuit(3, [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1)])
        counts = c.counts()
        assert (counts.cnot, counts.cv, counts.cvdg) == (2, 2, 1)
        assert counts.total == 5

    def test_counts_empty(self):
        counts = Circuit(4).counts()
        assert (counts.cnot, counts.cv, counts.cvdg, counts.total) == (0, 0, 0, 0)

    def test_invert_swaps_cv_counts(self):
        # the inverse written out with the cv and cvdg counts swapped
        v = random_unitary(RNG)
        c = Circuit(3, [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2)], v)
        inv = Circuit(3, [cv(1, 2), cnot(0, 1), cvdg(1, 2), cvdg(0, 2)], v)
        assert (inv.counts().cv, inv.counts().cvdg) == (c.counts().cvdg, c.counts().cv)
        assert operator_distance(circuit_unitary(inv), adjoint(c)) < 1e-14

    def test_v_binding_validated(self):
        with pytest.raises(ValueError):
            Circuit(2, [], np.array([[1, 0], [0, 2]]))
        c = Circuit(2, [cv(0, 1)], X)
        assert np.array_equal(c.v_binding, X)
        unbound = Circuit(2, [cv(0, 1)])
        assert unbound.needs_v
        assert unbound.v_binding is None
        assert not Circuit(2, [cnot(0, 1)]).needs_v

    def test_binding_does_not_freeze_callers_array(self):
        mine = X.copy()
        c = Circuit(2, [cv(0, 1)], mine)
        mine[0, 0] = 123.0  # caller's array stays writable ...
        assert c.v_binding[0, 0] == 0  # ... and the circuit keeps its own copy
        with pytest.raises(ValueError):
            c.v_binding[0, 0] = 1.0

    def test_equality(self):
        a = Circuit(2, [cnot(0, 1)])
        b = Circuit(2, [cnot(0, 1)])
        assert a == b
        assert a != Circuit(2, [cnot(1, 0)])
        assert a != Circuit(3, [cnot(0, 1)])
        assert a != Circuit(2, [cnot(0, 1)], X)
        assert Circuit(2, [cnot(0, 1)], X) == Circuit(2, [cnot(0, 1)], X)


class TestGateTable:
    """The circuit's own form: a (3, m) int table, kind codes index GATE_KINDS."""

    GATES = [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1)]
    TABLE = np.array([[1, 1, 0, 2, 0], [0, 1, 0, 1, 0], [2, 2, 1, 2, 1]])

    def test_table_and_gates_build_the_same_circuit(self):
        a, b = Circuit(3, self.TABLE, X), Circuit(3, self.GATES, X)
        assert a == b
        assert np.array_equal(a.table, self.TABLE)
        assert [a.kind.tolist(), a.control.tolist(), a.target.tolist()] == self.TABLE.tolist()
        assert list(a.rows()) == [tuple(col) for col in self.TABLE.T.tolist()]

    def test_table_is_a_private_read_only_copy(self):
        mine = self.TABLE.copy()
        c = Circuit(3, mine)
        mine[1, 0] = 2  # caller's array stays writable, the circuit unchanged
        assert c.control[0] == 0
        with pytest.raises(ValueError):
            c.table[1, 0] = 2

    @pytest.mark.parametrize(
        "column, message",
        [
            ((5, 0, 1), "unknown gate kind 5"),
            ((0, -1, 1), "qubit indices must be nonnegative"),
            ((1, 2, 2), "control and target coincide on qubit 2"),
            ((2, 0, 3), "gate Gate(kind='cvdg', control=0, target=3) out of range for width 3"),
        ],
    )
    def test_first_bad_row_is_named(self, column, message):
        table = self.TABLE.copy()
        table[:, 3] = column
        table[:, 4] = (0, 0, 7)  # a later fault does not win
        with pytest.raises(GateError) as exc:
            Circuit(3, table)
        assert (exc.value.row, str(exc.value)) == (3, message)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Circuit(3, self.TABLE[:2])

    def test_gates_view(self):
        c = Circuit(3, self.GATES, X)
        assert len(c.gates) == len(c) == 5
        assert c.gates[2] == cnot(0, 1) and c.gates[-1] == cnot(0, 1)
        assert c.gates[1:3] == (cv(1, 2), cnot(0, 1))
        assert c.gates == tuple(self.GATES) and c.gates != self.GATES
        assert c.gates == Circuit(3, self.TABLE).gates
        assert c.gates + (cv(0, 2),) == (*self.GATES, cv(0, 2))
        assert list(c) == self.GATES
        assert cvdg(1, 2) in c.gates
