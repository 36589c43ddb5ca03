import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcusynth.circuit import (
    CNOT_CODE,
    CV_CODE,
    CVDG_CODE,
    GATE_KINDS,
    MAX_QUBITS,
    Circuit,
    GateError,
    _gate_problem,
)
from mcusynth.simulator import circuit_unitary, operator_distance
from mcusynth.synthesize import peephole_cancel, synth_mcu
from mcusynth.textio import format_circuit, parse_circuit
from mcusynth.unitary2 import NAMED_GATES

from conftest import cnot, cv, cvdg, random_unitary

X, H = NAMED_GATES["X"], NAMED_GATES["H"]

RNG = np.random.default_rng(5)


def adjoint(circuit):
    """The dense operator's adjoint, the circuit's inverse."""
    return circuit_unitary(circuit).conj().T


class TestGate:
    """A gate is a (kind code, control, target) row; the circuit checks it."""

    def test_constructors(self):
        assert cnot(0, 1) == (CNOT_CODE, 0, 1)
        assert cv(1, 2) == (CV_CODE, 1, 2)
        assert cvdg(1, 2) == (CVDG_CODE, 1, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(GateError, match="^control and target coincide on qubit 1$"):
            Circuit(2, [cnot(1, 1)])

    def test_rejects_bad_kind(self):
        with pytest.raises(GateError, match="^unknown gate kind 3$"):
            Circuit(2, [(3, 0, 1)])

    def test_rejects_negative_index(self):
        with pytest.raises(GateError, match="^qubit indices must be nonnegative$"):
            Circuit(2, [cv(-1, 0)])

    def test_inverse(self):
        # cnot is its own inverse, and cv and cvdg are each other's
        v = random_unitary(RNG)
        for a, b in ((cnot, cnot), (cv, cvdg), (cvdg, cv)):
            product = circuit_unitary(Circuit(2, [a(0, 1), b(0, 1)], v))
            assert operator_distance(product, np.eye(4)) < 1e-15, (a, b)


class TestCircuit:
    def test_append_bounds(self):
        c = Circuit(2, [cnot(0, 1)])
        with pytest.raises(GateError) as exc:
            Circuit(c.width, np.vstack((c.gates, [cnot(0, 2)])))
        assert exc.value.row == 1
        with pytest.raises(GateError):
            Circuit(2, [cv(0, 5)])

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_width_bound(self):
        # the top of the key range, 3 * MAX_QUBITS^2 - 4 < 3 * 2^60, is exact
        top = Circuit(MAX_QUBITS, [cvdg(MAX_QUBITS - 1, MAX_QUBITS - 2)], X)
        assert top.gate_keys().dtype == np.uint64
        assert top.gate_keys().tolist() == [3 * MAX_QUBITS**2 - 4]
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
        c = Circuit(3, [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1)], X)
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
        assert Circuit(2, [cnot(0, 1)]).v_binding is None

    @pytest.mark.parametrize(
        "rows, row, message",
        [
            ([cv(0, 1)], 0, "cv gate without a v binding"),
            ([cnot(0, 1), cvdg(1, 0), cv(0, 1)], 1, "cvdg gate without a v binding"),
            # a bad gate anywhere wins over the missing binding
            ([cv(0, 1), cnot(0, 5)], 1, "gate Gate(kind='cnot', control=0, target=5) out of range for width 2"),
        ],
    )
    def test_cv_kind_gate_needs_a_binding(self, rows, row, message):
        with pytest.raises(GateError) as exc:
            Circuit(2, rows)
        assert (exc.value.row, str(exc.value)) == (row, message)

    def test_binding_does_not_freeze_callers_array(self):
        mine = X.copy()
        c = Circuit(2, [cv(0, 1)], mine)
        mine[0, 0] = 123.0  # caller's array stays writable ...
        assert c.v_binding[0, 0] == 0  # ... and the circuit keeps its own copy
        with pytest.raises(ValueError):
            c.v_binding[0, 0] = 1.0
        with pytest.raises(ValueError):
            c.v_binding.setflags(write=True)
        with pytest.raises(ValueError):
            c.v_binding.base.setflags(write=True)

    def test_equality(self):
        a = Circuit(2, [cnot(0, 1)])
        b = Circuit(2, [cnot(0, 1)])
        assert a == b
        assert a != Circuit(2, [cnot(1, 0)])
        assert a != Circuit(3, [cnot(0, 1)])
        assert a != Circuit(2, [cnot(0, 1)], X)
        assert Circuit(2, [cnot(0, 1)], X) == Circuit(2, [cnot(0, 1)], X)


class TestGateTable:
    """The circuit's one gate field: the (m, 3) int rows it is built from,
    stored a column at a time; kind codes index GATE_KINDS."""

    GATES = [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1)]
    TABLE = np.array([[1, 1, 0, 2, 0], [0, 1, 0, 1, 0], [2, 2, 1, 2, 1]])

    def test_table_and_gates_build_the_same_circuit(self):
        a, b = Circuit(3, self.TABLE.T, X), Circuit(3, self.GATES, X)
        assert a == b
        assert np.array_equal(a.gates.T, self.TABLE)
        assert list(a.rows()) == self.GATES

    def test_table_is_a_private_read_only_copy(self):
        for mine in (self.TABLE.T.copy(), self.TABLE.copy().T):
            c = Circuit(3, mine, X)
            mine[0, 1] = 2  # caller's array stays writable, the circuit unchanged
            assert c.gates[0, 1] == 0
            with pytest.raises(ValueError):
                c.gates[0, 1] = 2
            # and stays read-only: the flag cannot be set again
            with pytest.raises(ValueError):
                c.gates.setflags(write=True)

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
        rows = self.TABLE.T.copy()
        rows[3] = column
        rows[4] = (0, 0, 7)  # a later fault does not win
        with pytest.raises(GateError) as exc:
            Circuit(3, rows)
        assert (exc.value.row, str(exc.value)) == (3, message)

    def test_rejects_bad_shape(self):
        # a (3, m) table where rows belong is refused unless m = 3
        for table in (self.TABLE, self.TABLE[:, :2], self.TABLE.T[:, :2], [1, 0, 2], [[[1, 0, 2]]]):
            with pytest.raises(ValueError, match="shape"):
                Circuit(3, table)

    @pytest.mark.parametrize(
        "width, rows",
        [
            (3, [(0, 0.9, 2)]),  # was cnot(0, 2): the cast truncated 0.9
            (2.0, [cnot(0, 1)]),  # was a circuit written as "qubits 2.0"
            (2, [(0, 2**64, 1)]),  # was an OverflowError
            (2, [(0, 2**63, 1)]),
            (2, np.array([[0, 2**63, 1]], dtype=np.uint64)),
            (2, [("0", "0", "1")]),
        ],
        ids=["float-row", "float-width", "past-uint64", "past-int64", "uint64-top-half", "strings"],
    )
    def test_refuses_non_integer_input(self, width, rows):
        with pytest.raises(ValueError, match="integer") as exc:
            Circuit(width, rows)
        assert not isinstance(exc.value, GateError)

    def test_takes_integers_of_any_dtype(self):
        want = Circuit(2, [cnot(0, 1)])
        for rows in (
            np.array([[0, 0, 1]], dtype=np.uint64),
            np.array([[0, 0, 1]], dtype=np.int32),
            np.array([[0, 0, 1]], dtype=np.uint8),
            [(np.int64(0), 0, 1)],
        ):
            assert Circuit(np.int64(2), rows) == want
        for empty in ((), [], np.empty((0, 3)), np.empty((0, 3), dtype=np.uint64)):
            assert Circuit(2, empty) == Circuit(2)
        assert type(Circuit(np.int64(2)).width) is int

    def test_gates_view(self):
        c = Circuit(3, self.GATES, X)
        assert len(c.gates) == len(c) == 5
        assert c.gates.shape == (5, 3)
        assert c.gates.tolist() == [list(row) for row in self.GATES]
        assert tuple(c.gates[2].tolist()) == cnot(0, 1) == tuple(c.gates[-1].tolist())
        assert c.gates[1:3].tolist() == [list(cv(1, 2)), list(cnot(0, 1))]
        assert Circuit(3, c.gates, c.v_binding) == c
        assert np.array_equal(c.gates, Circuit(3, self.TABLE.T, X).gates)
        with pytest.raises(ValueError):
            c.gates[0, 0] = 0
        with pytest.raises(ValueError):
            c.gates.setflags(write=True)

    def test_one_gate_field(self):
        # the gates are one field, not aliased under other names; each
        # column is contiguous, for the passes that read one at a time
        public = sorted(name for name in dir(Circuit) if not name.startswith("_"))
        assert public == ["counts", "gate_keys", "gates", "rows", "v_binding", "width"]
        for c in (Circuit(3, self.GATES, X), Circuit(3, self.TABLE.T, X), synth_mcu(3, H), Circuit(2)):
            assert c.gates.shape == (len(c), 3)
            assert c.gates.dtype == np.int64
            assert not c.gates.flags.writeable
            assert all(c.gates[:, j].flags.c_contiguous for j in range(3))

    def test_repr_names_each_gate(self):
        c = Circuit(3, self.GATES, X)
        assert repr(c) == "Circuit(width=3, [cv(0,2), cv(1,2), cnot(0,1), cvdg(1,2), cnot(0,1)], v bound)"
        assert repr(Circuit(1)) == "Circuit(width=1, [])"


def bases(array):
    """``array`` and every array behind it through ``.base``."""
    while isinstance(array, np.ndarray):
        yield array
        array = array.base


class TestFrozen:
    """No array reachable from a circuit can be made writable, whichever
    path built it."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Circuit(3, np.array(TestGateTable.GATES, dtype=np.int64), X),
            lambda: Circuit(3, TestGateTable.TABLE.T, X),
            lambda: Circuit(3, TestGateTable.GATES, X),
            lambda: Circuit(3, np.array(TestGateTable.GATES, dtype=np.uint8), X),
            lambda: parse_circuit("qubits 3\nvmatrix 0 0 1 0 1 0 0 0\ncv 0 2\ncnot 0 1\ncvdg 1 2\n"),
            lambda: synth_mcu(3, H),
            lambda: synth_mcu(3, H, gray=True),
            lambda: peephole_cancel(synth_mcu(3, H)),
        ],
        ids=["int64-rows", "table-T", "list", "uint8-rows", "parse_circuit", "synth", "synth-gray", "peephole"],
    )
    def test_no_base_can_be_made_writable(self, build):
        c = build()
        for array in (c.gates, c.v_binding):
            steps = list(bases(array))
            assert steps
            for step in steps:
                with pytest.raises(ValueError):
                    step.setflags(write=True)


@st.composite
def row_lists(draw):
    """(width, rows): gates on the width's wires, with up to two rows of
    small ints put in anywhere, which may be no gate at all: a kind outside
    0..2, a negative index, control = target, or an index past the width."""
    width = draw(st.integers(1, 6))
    pairs = [(c, t) for c in range(width) for t in range(width) if c != t]
    rows = []
    if pairs:
        rows = draw(st.lists(st.builds(lambda k, p: (k, *p), st.integers(0, 2), st.sampled_from(pairs))))
    wild = st.tuples(st.integers(-1, 3), st.integers(-1, 6), st.integers(-1, 6))
    for row in draw(st.lists(wild, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    return width, rows


class TestOneConstructor:
    """Circuit(width, rows, v) either refuses the first row a plain scan with
    _gate_problem flags, or without v the first cv-kind row, or builds a
    frozen circuit that reads back as its rows."""

    @settings(max_examples=300, deadline=None)
    @given(row_lists(), st.booleans())
    def test_refuses_the_first_bad_row_or_round_trips(self, case, bound):
        width, rows = case
        v = random_unitary(np.random.default_rng(len(rows))) if bound else None
        problems = [_gate_problem(*row, width) for row in rows]
        flagged = [(i, p) for i, p in enumerate(problems) if p is not None]
        if not flagged and v is None:
            unbound = [(i, GATE_KINDS[k]) for i, (k, _, _) in enumerate(rows) if k != CNOT_CODE]
            flagged = [(i, f"{kind} gate without a v binding") for i, kind in unbound]
        try:
            c = Circuit(width, rows, v)
        except GateError as exc:
            assert flagged, rows
            assert (exc.row, str(exc)) == flagged[0]
            return
        assert not flagged, rows
        assert list(c.rows()) == rows
        for frozen in (c.gates,) + (() if v is None else (c.v_binding,)):
            with pytest.raises(ValueError):
                frozen.setflags(write=True)
        assert Circuit(width, c.gates, c.v_binding) == c
        assert parse_circuit(format_circuit(c)) == c
