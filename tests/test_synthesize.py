import itertools

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mcusynth.circuit import CNOT_CODE, CV_CODE, CVDG_CODE, MAX_QUBITS, Circuit
from mcusynth.simulator import (
    circuit_unitary,
    linear_trace,
    operator_distance,
    reference_mcu,
    trace_operands,
)
from mcusynth.synthesize import canonical_counts, peephole_cancel, synth_mcu
from mcusynth.unitary2 import I2, NAMED_GATES, unitary_root

from conftest import basis_index, cnot, cv, cvdg, random_unitary
from oracle import parity_sum_direct, power, signed_parity_terms

H, T, X = (NAMED_GATES[name] for name in "HTX")

RNG = np.random.default_rng(4242)

# the paper's doubly controlled sequence (Barenco et al. 1995, Lemma 6.1)
FIVE_GATES = (cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1))


def gate_rows(circuit):
    return tuple(circuit.rows())


def cnot_count_formula(n):
    return 2 * (n * (1 << (n - 1)) - (1 << n) + 1)


class TestSingleControl:
    def test_structure(self):
        c = synth_mcu(1, X)
        assert c.width == 2
        assert gate_rows(c) == (cv(0, 1),)
        assert np.array_equal(c.v_binding, X)

    def test_x_gives_cnot_matrix(self):
        assert operator_distance(circuit_unitary(synth_mcu(1, X)), reference_mcu(1, X)) == 0

    def test_identity_gives_identity(self):
        assert operator_distance(circuit_unitary(synth_mcu(1, I2)), np.eye(4)) == 0

    def test_random_matches_reference(self):
        u = random_unitary(RNG)
        assert operator_distance(circuit_unitary(synth_mcu(1, u)), reference_mcu(1, u)) < 1e-12


class TestDoubleControl:
    def test_exact_gate_sequence(self):
        c = synth_mcu(2, X)
        assert c.width == 3
        assert gate_rows(c) == FIVE_GATES

    def test_toffoli_permutation(self):
        op = circuit_unitary(synth_mcu(2, X))
        expected = np.eye(8)
        expected[[6, 7]] = expected[[7, 6]]
        assert operator_distance(op, expected) < 1e-12

    def test_identity_input(self):
        assert operator_distance(circuit_unitary(synth_mcu(2, I2)), np.eye(8)) < 1e-12

    def test_counts(self):
        counts = synth_mcu(2, H).counts()
        assert (counts.cnot, counts.cv, counts.cvdg) == (2, 2, 1)
        assert counts.total == 5

    def test_same_as_general_form(self):
        # every u gives the same five gates, bound to the square root of u
        for u in (X, H, random_unitary(RNG)):
            c = synth_mcu(2, u)
            assert gate_rows(c) == FIVE_GATES
            assert np.array_equal(c.v_binding, unitary_root(u, 1))

    def test_random_matches_reference(self):
        for _ in range(5):
            u = random_unitary(RNG)
            d = operator_distance(circuit_unitary(synth_mcu(2, u)), reference_mcu(2, u))
            assert d < 1e-12


class TestTripleControl:
    def test_binds_fourth_root(self):
        u = random_unitary(RNG)
        assert np.array_equal(synth_mcu(3, u).v_binding, unitary_root(u, 2))

    def test_x_permutation(self):
        op = circuit_unitary(synth_mcu(3, X))
        expected = np.eye(16)
        expected[[14, 15]] = expected[[15, 14]]
        assert operator_distance(op, expected) < 1e-12

    def test_counts(self):
        assert synth_mcu(3, T).counts().total == 17


class TestPlan:
    """The root synth_mcu binds and the block list it walks."""

    def test_root_property(self):
        for n in range(1, 6):
            u = random_unitary(RNG)
            v = synth_mcu(n, u).v_binding
            assert np.max(np.abs(power(v, 1 << (n - 1)) - u)) < 1e-11

    def test_blocks_cover_subsets_once(self):
        # one cv-kind gate per subset of the definition's list, which holds
        # each nonempty subset once, applied from the subset's last wire
        applied = [(c, kind) for kind, c, _ in synth_mcu(4, H).rows() if kind != CNOT_CODE]
        terms = signed_parity_terms(4)
        assert applied == [(subset[-1], CV_CODE if sign > 0 else CVDG_CODE) for sign, subset in terms]

    def test_single_control_uses_u_itself(self):
        u = random_unitary(RNG)
        assert np.array_equal(synth_mcu(1, u).v_binding, u)

    def test_small_eigen_gap_survives_check_tolerance(self):
        # a gap of 5e-9 once fell under a scalar cutoff in the root and left
        # synth_mcu(4, u) off by ~gap/2, outside check's 1e-9
        rng = np.random.default_rng(5009)
        for _ in range(10):
            q = random_unitary(rng)
            phi = rng.uniform(-3.0, 3.0)
            u = q @ np.diag([np.exp(1j * phi), np.exp(1j * (phi + 5e-9))]) @ q.conj().T
            d = operator_distance(circuit_unitary(synth_mcu(4, u)), reference_mcu(4, u))
            assert d < 1e-9


class TestGeneralSynthesis:
    def test_rejects_zero_controls(self):
        with pytest.raises(ValueError):
            synth_mcu(0, X)

    @pytest.mark.parametrize("n,total", [(1, 1), (2, 5), (3, 17), (4, 49)])
    def test_known_totals(self, n, total):
        assert synth_mcu(n, X).counts().total == total

    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_formulas(self, n):
        counts = synth_mcu(n, H).counts()
        assert counts.cv + counts.cvdg == (1 << n) - 1
        assert counts.cnot == cnot_count_formula(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_canonical_counts_closed_form(self, n):
        assert canonical_counts(n) == synth_mcu(n, H).counts()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_reference_random(self, n):
        for _ in range(3):
            u = random_unitary(RNG)
            d = operator_distance(circuit_unitary(synth_mcu(n, u)), reference_mcu(n, u))
            assert d < 1e-9

    def test_named_gates_small_n(self):
        for name in ("X", "H", "S", "T"):
            u = NAMED_GATES[name]
            for n in (1, 2, 3):
                d = operator_distance(circuit_unitary(synth_mcu(n, u)), reference_mcu(n, u))
                assert d < 1e-10, (name, n)

    def test_structure_is_blockwise(self):
        # n=3 block list spelled out gate by gate
        c = synth_mcu(3, X)
        assert gate_rows(c) == (
            cv(0, 3),
            cv(1, 3),
            cv(2, 3),
            cnot(0, 1), cvdg(1, 3), cnot(0, 1),
            cnot(0, 2), cvdg(2, 3), cnot(0, 2),
            cnot(1, 2), cvdg(2, 3), cnot(1, 2),
            cnot(0, 1), cnot(1, 2), cv(2, 3), cnot(1, 2), cnot(0, 1),
        )


class TestExponentTrace:
    # the linear trace of a synthesized circuit: every input comes back
    # unchanged and collects V to the alternating parity sum of its bits
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_identity_engine(self, n):
        trace = linear_trace(synth_mcu(n, H))
        assert np.array_equal(trace.outputs, np.arange(1 << n))
        for bits in itertools.product((0, 1), repeat=n):
            assert trace.exponents[basis_index(bits)] == parity_sum_direct(bits)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_gray_order_matches_identity_engine(self, n):
        trace = linear_trace(synth_mcu(n, H, gray=True))
        assert np.array_equal(trace.outputs, np.arange(1 << n))
        for bits in itertools.product((0, 1), repeat=n):
            assert trace.exponents[basis_index(bits)] == parity_sum_direct(bits)

    def test_survives_peephole(self):
        trace = linear_trace(peephole_cancel(synth_mcu(4, H)))
        assert np.array_equal(trace.outputs, np.arange(16))
        for bits in itertools.product((0, 1), repeat=4):
            assert trace.exponents[basis_index(bits)] == parity_sum_direct(bits)

    def test_rejects_cnot_on_target_wire(self):
        assert linear_trace(Circuit(3, [cnot(0, 2)])) is None
        assert linear_trace(Circuit(3, [cnot(2, 0)])) is None

    def test_rejects_cv_off_target_wire(self):
        assert linear_trace(Circuit(3, [cv(0, 1)], X)) is None


class TestPeephole:
    def test_cancels_cnot_pair(self):
        c = Circuit(2, [cnot(0, 1), cnot(0, 1)])
        assert gate_rows(peephole_cancel(c)) == ()

    def test_cancels_cv_pairs_either_order(self):
        assert gate_rows(peephole_cancel(Circuit(3, [cv(0, 2), cvdg(0, 2)], X))) == ()
        assert gate_rows(peephole_cancel(Circuit(3, [cvdg(0, 2), cv(0, 2)], X))) == ()

    def test_keeps_non_inverse_neighbors(self):
        c = Circuit(3, [cv(0, 2), cv(0, 2)], X)
        assert gate_rows(peephole_cancel(c)) == gate_rows(c)

    def test_keeps_different_wires(self):
        c = Circuit(3, [cnot(0, 1), cnot(1, 2)])
        assert gate_rows(peephole_cancel(c)) == gate_rows(c)

    def test_cascading_cancellation(self):
        c = Circuit(3, [cnot(0, 1), cv(1, 2), cvdg(1, 2), cnot(0, 1)], X)
        assert gate_rows(peephole_cancel(c)) == ()

    def test_idempotent(self):
        for n in (3, 4, 5):
            once = peephole_cancel(synth_mcu(n, H))
            twice = peephole_cancel(once)
            assert once == twice

    def test_never_increases_and_preserves_operator(self):
        for n in (2, 3, 4):
            u = random_unitary(RNG)
            c = synth_mcu(n, u)
            slim = peephole_cancel(c)
            assert slim.counts().total <= c.counts().total
            assert operator_distance(circuit_unitary(slim), circuit_unitary(c)) < 1e-11

    def test_triple_control_stays_within_drawn_count(self):
        c = peephole_cancel(synth_mcu(3, H))
        assert c.counts().total <= 17


def block_reference(n):
    """The synthesizer's gate list written out block by block from the
    definition's subset list: chain, apply, reversed chain."""
    gates = []
    for sign, subset in signed_parity_terms(n):
        chain = [cnot(a, b) for a, b in zip(subset, subset[1:])]
        gates += chain + [(cv if sign > 0 else cvdg)(subset[-1], n)] + chain[::-1]
    return tuple(gates)


def combinations_table(n):
    """The canonical (3, m) table as synth_mcu once built it: the k-subsets
    from itertools.combinations as rows, each widened into its block, one
    stack per size and the sizes concatenated."""
    planes = []
    for k in range(1, n + 1):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        apply = np.full((len(subsets), 1), n)
        control = np.concatenate((subsets[:, :-1], subsets[:, -1:], subsets[:, -2::-1]), axis=1)
        target = np.concatenate((subsets[:, 1:], apply, subsets[:, :0:-1]), axis=1)
        kind = np.full(control.shape, CNOT_CODE)
        kind[:, k - 1] = CV_CODE if k % 2 else CVDG_CODE
        planes.append(np.stack((kind, control, target)).reshape(3, -1))
    return np.concatenate(planes, axis=1)


def stack_walk(gates):
    # the peephole pass spelled out over (kind, control, target) rows
    inverse = {CNOT_CODE: CNOT_CODE, CV_CODE: CVDG_CODE, CVDG_CODE: CV_CODE}
    kept = []
    for kind, control, target in gates:
        if kept and kept[-1] == (inverse[kind], control, target):
            kept.pop()
        else:
            kept.append((kind, control, target))
    return tuple(kept)


def gray_reference(n):
    """The Gray order written out code by code: code i's cv-kind gate from
    the top wire of g(i) = i ^ (i >> 1), then the cnot that moves that
    wire's parity to g(i + 1)."""
    codes = [i ^ (i >> 1) for i in range(1 << n)]
    gates = []
    for i in range(1, 1 << n):
        top = codes[i].bit_length() - 1
        gates.append((cv if bin(codes[i]).count("1") % 2 else cvdg)(top, n))
        if i + 1 < 1 << n:
            flipped = (codes[i] ^ codes[i + 1]).bit_length() - 1
            new_top = codes[i + 1].bit_length() - 1
            gates.append(cnot(new_top - 1 if flipped == new_top else flipped, new_top))
    return tuple(gates)


class TestGrayOrder:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_gray_reference(self, n):
        assert gate_rows(synth_mcu(n, H, gray=True)) == gray_reference(n)

    @pytest.mark.parametrize("n, gates", [(1, 1), (2, 5), (3, 13), (4, 29)])
    def test_every_gate_is_needed(self, n, gates):
        # deleting any one gate moves the traced operator away from the
        # reference, so check refuses every one-gate mutant
        circuit = synth_mcu(n, T, gray=True)
        assert len(circuit) == gates
        for row in range(gates):
            mutant = Circuit(n + 1, np.delete(circuit.gates, row, axis=0), circuit.v_binding)
            distance = operator_distance(*trace_operands(linear_trace(mutant), T))
            assert distance >= 1e-9, (n, row, distance)


def shown_and_away(masks, shown, moved):
    """Cnots a walk still needs, at least: a cnot (c, t) sets mask[t] ^=
    mask[c], so it shows at most one new mask, and one that puts a wire
    back on its bit shows none.  So the masks not yet shown plus the wires
    off their own bit bound the rest."""
    every = (1 << (1 << len(masks))) - 2  # bit m set for every nonempty mask m
    away = sum(m != 1 << i for i, m in enumerate(masks))
    return bin(every & ~shown).count("1") + away


def with_unmoved_wires(masks, shown, moved):
    """``shown_and_away`` plus the wires not yet moved, less one.  At most
    one wire never moves (synthesize's docstring has the argument), and each
    that moves must come back to its bit, by a cnot that shows no new mask."""
    unmoved = len(masks) - bin(moved).count("1")
    return shown_and_away(masks, shown, moved) + max(unmoved - 1, 0)


def min_cnot_walk(n, bound=shown_and_away):
    """The fewest cnots among n wires that put every nonempty parity mask on
    some wire and end with each wire back on its own bit, by iterative
    deepening.  ``bound(masks, shown, moved)`` is a lower bound on the cnots
    still needed, which prunes the search; ``moved`` has bit t set once a
    cnot has targeted wire t."""
    home = tuple(1 << i for i in range(n))
    every = (1 << (1 << n)) - 2  # bit m set for every nonempty mask m
    moves = [(c, t) for c in range(n) for t in range(n) if c != t]

    def walk(masks, shown, moved, budget, failed):
        if shown == every and masks == home:
            return True
        if bound(masks, shown, moved) > budget:
            return False
        if failed.get((masks, shown), -1) >= budget:
            return False
        failed[masks, shown] = budget
        for c, t in moves:
            step = list(masks)
            step[t] ^= masks[c]
            if walk(tuple(step), shown | (1 << step[t]), moved | (1 << t), budget - 1, failed):
                return True
        return False

    budget = 0
    while not walk(home, sum(1 << h for h in home), 0, budget, {}):
        budget += 1
    return budget


class TestLowerBounds:
    """Within linear_trace's class the Gray order has the fewest gates of
    each kind (the argument is in synthesize's docstring)."""

    @pytest.mark.parametrize("gray", [False, True], ids=["canonical", "gray"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cv_kind_gates_meet_the_bound(self, n, gray):
        # invert e = (sum c - W c) / 2, W the Walsh-Hadamard matrix with
        # W W = 2^n; c[empty] = 0 fixes sum c = 2 sum e / 2^n
        circuit = synth_mcu(n, X, gray=gray)
        e = linear_trace(circuit).exponents
        x = np.arange(1 << n)
        parity = np.zeros((1 << n, 1 << n), dtype=np.int64)
        for b in range(n):
            parity ^= ((x[:, None] & x) >> b) & 1
        total, rest = divmod(2 * int(e.sum()), 1 << n)
        coeffs, rest2 = np.divmod((1 - 2 * parity) @ (total - 2 * e), 1 << n)
        assert rest == 0 and not rest2.any()
        want = np.zeros(1 << n, dtype=np.int64)
        for sign, subset in signed_parity_terms(n):
            want[sum(1 << (n - 1 - i) for i in subset)] = sign
        assert coeffs.tolist() == want.tolist()
        cv_kind = np.count_nonzero(circuit.gates[:, 0] != CNOT_CODE)
        assert cv_kind == np.abs(coeffs).sum() == (1 << n) - 1

    @pytest.mark.parametrize("n, fewest", [(1, 0), (2, 2), (3, 6), (4, 14)])
    def test_gray_order_has_the_fewest_cnots(self, n, fewest):
        assert min_cnot_walk(n) == fewest == synth_mcu(n, X, gray=True).counts().cnot

    @pytest.mark.parametrize("n", range(1, 17))
    def test_unmoved_wires_make_the_start_bound_tight(self, n):
        # at the start every wire is on its own bit and no cnot has run: the
        # 2^n - 1 - n non-unit masks plus n - 1 wires that must move and
        # return are 2^n - 2, the Gray order's cnot count
        home = tuple(1 << i for i in range(n))
        shown = sum(1 << h for h in home)
        assert shown_and_away(home, shown, 0) == (1 << n) - 1 - n
        assert with_unmoved_wires(home, shown, 0) == (1 << n) - 2
        assert synth_mcu(n, X, gray=True).counts().cnot == (1 << n) - 2

    @pytest.mark.parametrize("n", range(1, 5))
    def test_unmoved_wires_keep_the_minima(self, n):
        # an admissible term prunes the search but finds the same fewest
        assert min_cnot_walk(n, with_unmoved_wires) == min_cnot_walk(n)


class TestArrayEmitter:
    """synth_mcu and peephole_cancel work on int columns; these pin them to
    the per-gate definitions."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_block_reference(self, n):
        assert gate_rows(synth_mcu(n, H)) == block_reference(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_combinations_table(self, n):
        gates = synth_mcu(n, H).gates
        assert gates.shape == (canonical_counts(n).total, 3)
        assert np.array_equal(gates.T, combinations_table(n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_peephole_matches_stack_walk(self, n):
        c = synth_mcu(n, H)
        assert gate_rows(peephole_cancel(c)) == stack_walk(block_reference(n))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)).filter(
                lambda g: g[1] != g[2]
            ),
            max_size=40,
        )
    )
    def test_peephole_matches_stack_walk_on_hand_built(self, rows):
        slim = peephole_cancel(Circuit(4, rows, X))
        assert gate_rows(slim) == stack_walk(rows)
        assert np.array_equal(slim.v_binding, X)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)).filter(
                lambda g: g[1] != g[2]
            ),
            max_size=40,
        )
    )
    def test_peephole_at_the_top_of_the_key_range(self, rows):
        # qubits 0..3 stand for the widest circuit's top indices, where
        # control * width + target is largest
        top = (MAX_QUBITS - 1, MAX_QUBITS - 2, 0, 1)
        gates = [(kind, top[c], top[t]) for kind, c, t in rows]
        slim = peephole_cancel(Circuit(MAX_QUBITS, gates, X))
        assert slim.width == MAX_QUBITS
        assert gate_rows(slim) == stack_walk(gates)
