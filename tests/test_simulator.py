import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcusynth.circuit import GATE_KINDS, Circuit, GateError
from mcusynth.cli import CHECK_TOLERANCE
from mcusynth import simulator
from mcusynth.simulator import (
    MAX_DENSE_WORK,
    DenseCapError,
    _v_powers,
    circuit_unitary,
    linear_trace,
    operator_distance,
    reference_mcu,
    run_circuit,
    trace_operands,
)
from mcusynth.synthesize import peephole_cancel, synth_mcu
from mcusynth.textio import format_circuit, parse_circuit
from mcusynth.unitary2 import I2, NAMED_GATES, unitary_root

from conftest import basis_state, cnot, cv, cvdg, random_unitary
from oracle import power

H, T, X = (NAMED_GATES[name] for name in "HTX")

RNG = np.random.default_rng(77)

CNOT_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def random_state(width):
    v = RNG.normal(size=1 << width) + 1j * RNG.normal(size=1 << width)
    return v / np.linalg.norm(v)


class TestApplyGate:
    """One gate on a state: its dense operator applied, and run_circuit."""

    @staticmethod
    def apply(state, gate, v=None):
        return circuit_unitary(Circuit(2, [gate], v)) @ state

    def test_cnot_mapping_table(self):
        g = cnot(0, 1)
        for bits, want in (([0, 0], [0, 0]), ([0, 1], [0, 1]), ([1, 0], [1, 1]), ([1, 1], [1, 0])):
            assert np.array_equal(self.apply(basis_state(bits), g), basis_state(want))
            assert np.array_equal(run_circuit(Circuit(2, [g]), basis_state(bits)), basis_state(want))

    def test_cv_control_zero_untouched(self):
        v = random_unitary(RNG)
        state = np.kron(basis_state([0]), random_state(1))
        assert np.array_equal(self.apply(state, cv(0, 1), v), state)

    def test_cv_control_one_applies_v(self):
        v = random_unitary(RNG)
        psi = random_state(1)
        state = np.kron(basis_state([1]), psi)
        expected = np.kron(basis_state([1]), v @ psi)
        assert np.max(np.abs(self.apply(state, cv(0, 1), v) - expected)) < 1e-15

    def test_cvdg_applies_adjoint(self):
        v = random_unitary(RNG)
        psi = random_state(1)
        state = np.kron(basis_state([1]), psi)
        expected = np.kron(basis_state([1]), v.conj().T @ psi)
        assert np.max(np.abs(self.apply(state, cvdg(0, 1), v) - expected)) < 1e-15

    def test_missing_v_raises(self):
        # refused when built, so no simulator meets a cv gate without v
        with pytest.raises(GateError, match="^cv gate without a v binding$"):
            Circuit(2, [cv(0, 1)])

    def test_out_of_range_gate(self):
        with pytest.raises(ValueError, match="out of range for width 2$"):
            Circuit(2, [cnot(0, 3)])

    def test_norm_preserved(self):
        # run_circuit traces the first two and runs cvdg(0, 2) densely
        v = random_unitary(RNG)
        for gate in (cnot(2, 0), cv(1, 3), cvdg(0, 2)):
            out = run_circuit(Circuit(4, [gate], v), random_state(4))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_does_not_mutate_input(self):
        s = basis_state([1, 0])
        before = s.copy()
        run_circuit(Circuit(2, [cnot(1, 0)]), s)
        assert np.array_equal(s, before)


class TestCircuitUnitary:
    def test_single_cnot_matrix(self):
        op = circuit_unitary(Circuit(2, [cnot(0, 1)]))
        assert np.array_equal(op, CNOT_MATRIX)

    def test_empty_circuit_is_identity(self):
        for m in (1, 3):
            assert np.array_equal(circuit_unitary(Circuit(m)), np.eye(1 << m))

    def test_matches_gate_application_per_column(self):
        # cnot(1, 0) and cvdg(1, 0) leave the trace's class, cv(0, 1) does not
        v = random_unitary(RNG)
        for gate in (cnot(1, 0), cv(0, 1), cvdg(1, 0)):
            c = Circuit(2, [gate], v)
            op = circuit_unitary(c)
            for j in range(4):
                e = np.zeros(4, dtype=complex)
                e[j] = 1.0
                assert np.max(np.abs(op @ e - run_circuit(c, e))) < 1e-12

    def test_compose_with_inverse_is_identity(self):
        v = random_unitary(RNG)
        c = Circuit(3, [cv(0, 2), cnot(0, 1), cvdg(1, 2), cnot(1, 2)], v)
        # the gates reversed, cv and cvdg swapped
        inverse = Circuit(3, [cnot(1, 2), cv(1, 2), cnot(0, 1), cvdg(0, 2)], v)
        both = Circuit(3, np.vstack((c.gates, inverse.gates)), v)
        assert operator_distance(circuit_unitary(both), np.eye(8)) < 1e-10
        product = circuit_unitary(inverse) @ circuit_unitary(c)
        assert operator_distance(product, np.eye(8)) < 1e-10

    def test_produces_unitary(self):
        v = random_unitary(RNG)
        c = Circuit(3, [cv(0, 2), cnot(0, 1), cv(1, 2), cvdg(0, 2)], v)
        op = circuit_unitary(c)
        assert operator_distance(op @ op.conj().T, np.eye(8)) < 1e-10

    def test_width_cap(self):
        with pytest.raises(ValueError, match="^width 13 exceeds the simulation cap 10$"):
            circuit_unitary(Circuit(13))

    def test_missing_binding_rejected(self):
        # a circuit outside the trace's class, bound for the dense route
        with pytest.raises(GateError, match="^cvdg gate without a v binding$"):
            Circuit(2, [cnot(1, 0), cvdg(1, 0)])

    def test_returns_a_new_array_each_call(self):
        v = random_unitary(RNG)
        c = Circuit(3, [cv(0, 2), cnot(2, 1), cvdg(1, 0)], v)
        first = circuit_unitary(c)
        expected = first.copy()
        first[:] = 0
        second = circuit_unitary(c)
        assert not np.shares_memory(first, second)
        assert np.array_equal(second, expected)
        assert np.array_equal(c.v_binding, v)


def kron_operator(width, gate, v):
    """The gate's operator from projectors on the control: P0 x I + P1 x G."""
    kind, control, target = gate
    g = (X, v, v.conj().T)[kind]

    def term(on_control, on_target):
        op = np.eye(1)
        for q in range(width):
            factor = on_control if q == control else on_target if q == target else I2
            op = np.kron(op, factor)
        return op

    return term(np.diag([1, 0]), I2) + term(np.diag([0, 1]), g)


@pytest.mark.parametrize("width", [3, 4])
def test_dense_kernel_matches_kron_construction(width):
    v = random_unitary(RNG)
    dim = 1 << width
    for control in range(width):
        for target in range(width):
            if control == target:
                continue
            for make in (cnot, cv, cvdg):
                gate = make(control, target)
                expected = kron_operator(width, gate, v)
                c = Circuit(width, [gate], v)
                op = circuit_unitary(c)
                assert np.max(np.abs(op - expected)) < 1e-15, gate
                for j in range(dim):
                    column = run_circuit(c, np.eye(dim)[j])
                    assert np.max(np.abs(column - expected[:, j])) < 1e-15, (gate, j)


class TestRunCircuit:
    def test_runs_gates_in_order(self):
        c = Circuit(2, [cnot(0, 1), cnot(1, 0)])
        out = run_circuit(c, basis_state([1, 0]))
        # |10> -> |11> -> |01>
        assert np.array_equal(out, basis_state([0, 1]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(2), basis_state([0, 0, 0]))

    def test_missing_binding(self):
        with pytest.raises(GateError) as exc:
            Circuit(3, [cnot(0, 1), cnot(0, 2), cv(1, 2)])
        assert (exc.value.row, str(exc.value)) == (2, "cv gate without a v binding")

    @pytest.mark.parametrize(
        "gates, dense",
        # the cnot onto the target leaves the trace's class
        [([cv(0, 2), cnot(0, 2), cvdg(1, 0)], True), ([cv(0, 2), cnot(0, 1), cvdg(1, 2)], False)],
        ids=["dense", "trace"],
    )
    def test_does_not_mutate_input(self, gates, dense):
        c = Circuit(3, gates, random_unitary(RNG))
        assert (linear_trace(c) is None) == dense
        state = random_state(3)
        before = state.copy()
        out = run_circuit(c, state)
        assert not np.shares_memory(out, state)
        assert np.array_equal(state, before)
        assert np.max(np.abs(out - circuit_unitary(c) @ before)) < 1e-12


class TestDenseCaps:
    """Past a cap, circuit_unitary and run_circuit's dense route raise
    DenseCapError before the dense loop runs."""

    @pytest.fixture(autouse=True)
    def ran(self, monkeypatch):
        ran = []
        monkeypatch.setattr(simulator, "_run_dense", lambda c, arr: ran.append(len(c)) or arr)
        return ran

    def test_is_a_value_error(self):
        assert issubclass(DenseCapError, ValueError)

    @pytest.mark.parametrize(
        "dense, width, gates, message",
        [
            (False, 11, 1, "width 11 exceeds the simulation cap 10"),
            (False, 10, 4098, "4098 gates x 4^10 exceed the dense work cap 4296015872"),
            (True, 17, 32777, "32777 gates x 2^17 exceed the dense work cap 4296015872"),
        ],
        ids=["width", "operator-work", "state-work"],
    )
    def test_refused_before_the_dense_loop(self, dense, width, gates, message, ran):
        # the cnot onto the last wire keeps the circuit off the trace route
        circuit = Circuit(width, [cnot(0, width - 1)] * gates)
        with pytest.raises(DenseCapError) as info:
            if dense:
                run_circuit(circuit, basis_state([1] * width))
            else:
                circuit_unitary(circuit)
        assert str(info.value) == message
        assert ran == []

    def test_runs_at_the_work_cap(self, ran):
        circuit_unitary(Circuit(10, [cnot(0, 9)] * 4097))
        run_circuit(Circuit(17, [cnot(0, 16)] * 32776), basis_state([1] * 17))
        assert ran == [4097, 32776]

    def test_in_class_circuit_past_the_work_cap_takes_the_trace(self, ran):
        # the 16-control Gray circuit, 131,069 gates at width 17
        circuit = synth_mcu(16, H, gray=True)
        assert len(circuit) << circuit.width > MAX_DENSE_WORK
        out = run_circuit(circuit, basis_state([1] * 16 + [0]))
        assert ran == []
        assert np.flatnonzero(out).tolist() == [(1 << 17) - 2, (1 << 17) - 1]
        assert np.max(np.abs(out[-2:] - H[:, 0])) < 1e-9


class TestReferenceMcu:
    def test_single_control_x_is_cnot_matrix(self):
        assert np.array_equal(reference_mcu(1, X), CNOT_MATRIX)

    def test_two_controls_x_swaps_last_two(self):
        expected = np.eye(8, dtype=complex)
        expected[[6, 7]] = expected[[7, 6]]
        assert np.array_equal(reference_mcu(2, X), expected)

    def test_identity_gate_any_n(self):
        for n in (1, 3, 5):
            assert np.array_equal(reference_mcu(n, I2), np.eye(1 << (n + 1)))

    def test_differs_from_identity_in_at_most_four_entries(self):
        for n in (1, 2, 4):
            for u in (H, T, random_unitary(RNG)):
                diff = reference_mcu(n, u) - np.eye(1 << (n + 1))
                assert np.count_nonzero(np.abs(diff) > 1e-15) <= 4

    def test_is_unitary(self):
        for n in (1, 2, 3):
            op = reference_mcu(n, random_unitary(RNG))
            assert operator_distance(op @ op.conj().T, np.eye(1 << (n + 1))) < 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            reference_mcu(0, X)
        with pytest.raises(ValueError):
            reference_mcu(1, np.eye(3))


class TestOperatorDistance:
    def test_zero_for_equal(self):
        m = random_unitary(RNG)
        assert operator_distance(m, m) == 0.0

    def test_one_for_identity_vs_x(self):
        assert operator_distance(I2, X) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            operator_distance(np.eye(2), np.eye(4))


@pytest.mark.parametrize(
    "entry, width, rows",
    [
        (linear_trace, 2, [cv(0, 1)]),
        # the cnot onto the target keeps run_circuit off the trace route
        (lambda c: run_circuit(c, basis_state([1, 1, 1])), 3, [cv(0, 2), cnot(0, 2)]),
        # cancelling cv gates are refused all the same
        (circuit_unitary, 2, [cvdg(0, 1), cv(0, 1)]),
    ],
    ids=["linear_trace", "run_circuit_dense", "circuit_unitary"],
)
def test_missing_binding_message(entry, width, rows):
    # an unbound circuit of each route's shape never reaches the route:
    # building it is refused at its first cv-kind row
    with pytest.raises(GateError) as info:
        entry(Circuit(width, rows))
    assert (info.value.row, str(info.value)) == (0, f"{GATE_KINDS[rows[0][0]]} gate without a v binding")


def test_root_circuit_reproduces_controlled_gate():
    # controlled-sqrt(X) twice == controlled-X, end to end through the simulator
    v = unitary_root(X, 1)
    c = Circuit(2, [cv(0, 1), cv(0, 1)], v)
    assert operator_distance(circuit_unitary(c), CNOT_MATRIX) < 1e-12


@st.composite
def linear_circuits(draw):
    """(circuit, u) in the trace's class, on 2..7 qubits.

    Either random cnots among the controls plus cv/cvdg onto the target
    under a Haar-random V, or a synthesized circuit for a Haar-random u,
    plain, peephole-cancelled or with one gate deleted.
    """
    width = draw(st.integers(2, 7))
    n = width - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng)
    if draw(st.booleans()):
        circuit = synth_mcu(n, u)
        form = draw(st.sampled_from(["plain", "peephole", "mutant"]))
        if form == "peephole":
            circuit = peephole_cancel(circuit)
        elif form == "mutant":
            gates = np.delete(circuit.gates, draw(st.integers(0, len(circuit) - 1)), axis=0)
            circuit = Circuit(width, gates, circuit.v_binding)
        return circuit, u
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    gate = st.builds(cv, st.integers(0, n - 1), st.just(n)) | st.builds(
        cvdg, st.integers(0, n - 1), st.just(n)
    )
    if pairs:
        gate |= st.sampled_from(pairs).map(lambda p: cnot(*p))
    gates = draw(st.lists(gate, max_size=40))
    return Circuit(width, gates, random_unitary(rng)), u


class TestLinearTrace:
    @settings(max_examples=80, deadline=None)
    @given(linear_circuits())
    def test_matches_dense_oracle(self, case):
        circuit, u = case
        n = circuit.width - 1
        trace = linear_trace(circuit)
        assert trace is not None
        traced = operator_distance(*trace_operands(trace, u))
        dense_op = circuit_unitary(circuit)
        dense = operator_distance(dense_op, reference_mcu(n, u))
        assert abs(traced - dense) < 1e-12
        assert (traced < CHECK_TOLERANCE) == (dense < CHECK_TOLERANCE)
        # run_circuit takes the trace route; the dense operator's columns
        # are the reference
        if circuit.width <= 6:
            for index in range(1 << circuit.width):
                state = np.eye(1 << circuit.width)[index]
                assert np.max(np.abs(run_circuit(circuit, state) - dense_op[:, index])) < 1e-12
        state = random_state(circuit.width)
        assert np.max(np.abs(run_circuit(circuit, state) - dense_op @ state)) < 1e-12

    def test_cnot_only_circuit_needs_no_binding(self):
        trace = linear_trace(Circuit(3, [cnot(0, 1)]))
        # |x0 x1> -> |x0, x0 ^ x1>
        assert list(trace.outputs) == [0, 1, 3, 2]
        assert not trace.exponents.any()
        assert operator_distance(*trace_operands(trace, I2)) == 1.0
        # the all-ones block moves too, so its gap is max(1, max|H|)
        assert operator_distance(*trace_operands(trace, H)) == 1.0

    @pytest.mark.parametrize("signs", [[1] * 10, [-1] * 10, [1, -1] * 5], ids=["cv", "cvdg", "mixed"])
    def test_powers_are_bitwise_those_of_power(self, signs):
        # 10 controls with 2^(9-i) cv (sign 1) or cvdg (sign -1) gates on wire
        # i: e(x) takes 1,024 distinct values, all served by the shared chains
        shifts = np.arange(9, -1, -1)
        gates = "".join(
            f"{'cv' if sign > 0 else 'cvdg'} {i} 10\n" * (1 << int(shift))
            for i, (sign, shift) in enumerate(zip(signs, shifts))
        )
        trace = linear_trace(parse_circuit(format_circuit(Circuit(11, [], random_unitary(RNG))) + gates))
        bits = np.arange(1024)[:, None] >> shifts & 1
        assert np.array_equal(trace.exponents, bits @ (np.array(signs) << shifts))
        for e, got in zip(trace.exponents.tolist(), _v_powers(trace)):
            assert got.tobytes() == power(trace.v, e).tobytes(), e

    def test_missing_binding_rejected(self):
        # even when the cv-kind gates cancel
        with pytest.raises(GateError, match="^cv gate without a v binding$"):
            Circuit(3, [cv(0, 2), cvdg(0, 2)])
