"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import time

import numpy as np

from mcusynth.cli import main
from mcusynth.simulator import (
    circuit_unitary,
    linear_trace,
    operator_distance,
    reference_mcu,
    run_circuit,
)
from mcusynth.synthesize import synth_mcu
from mcusynth.unitary2 import I2, NAMED_GATES, unitary_root
from mcusynth.z2identity import (
    verify_append_recurrence,
    verify_closed_form,
    verify_sum_shift_laws,
    verify_xor_int_laws,
    xor_int,
)

from conftest import basis_index, random_unitary
from oracle import alternating_binomial_sides, parity_sum_direct, power

X = NAMED_GATES["X"]


def report(name, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nacceptance {name}: PASS{suffix}")


def random_states(rng, width, count):
    dim = 1 << width
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        yield v / np.linalg.norm(v)


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    for n in range(1, 13):
        assert verify_closed_form(n).passed, n
    for n in range(2, 13):
        assert verify_append_recurrence(n).passed, n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("1 identity suite (n=1..12, exact)", elapsed)


def test_criterion_2_law_suite():
    start = time.perf_counter()
    assert verify_xor_int_laws().passed
    for n in range(1, 11):
        # both shift identities on every (x, z) in {0,1}^(n+1), each side from xor_int
        signs = [(-1) ** i for i in range(n)]
        for *xs, z in itertools.product((0, 1), repeat=n + 1):
            flipped = [xor_int(x, z) for x in xs]
            assert sum(flipped) == xor_int(sum(xs), z) + (n - 1) * z, (xs, z)
            left = sum(s * f for s, f in zip(signs, flipped))
            right = xor_int(sum(s * x for s, x in zip(signs, xs)), z) - ((1 + (-1) ** n) // 2) * z
            assert left == right, (xs, z)
        assert all(r.passed for r in verify_sum_shift_laws(n)), n
    for n in range(2, 61):
        lhs, rhs = alternating_binomial_sides(n)
        assert lhs == rhs, n
    report("2 integer-law suite (exact; shift laws on every (x, z), n <= 10)", time.perf_counter() - start)


def test_criterion_3_root_oracle():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    for _ in range(200):
        u = random_unitary(rng)
        for k in range(1, 7):
            v = unitary_root(u, k)
            assert np.max(np.abs(v @ v.conj().T - I2)) < 1e-12
            assert np.max(np.abs(power(v, 1 << k) - u)) < 1e-11
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("3 root oracle (200 unitaries, k=1..6)", elapsed)


def test_criterion_4_synthesis_equivalence():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    for n in range(1, 6):
        for _ in range(20):
            u = random_unitary(rng)
            d = operator_distance(circuit_unitary(synth_mcu(n, u)), reference_mcu(n, u))
            assert d < 1e-9, (n, d)
    for n in range(6, 9):
        for _ in range(20):
            u = random_unitary(rng)
            circuit = synth_mcu(n, u)
            ref = reference_mcu(n, u)
            for state in random_states(rng, n + 1, 50):
                diff = np.max(np.abs(run_circuit(circuit, state) - ref @ state))
                assert diff < 1e-9, (n, diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("4 synthesis equivalence (n=1..5 matrices, n=6..8 states)", elapsed)


def test_criterion_5_toffoli_reproduction():
    op = circuit_unitary(synth_mcu(2, X))
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.max(np.abs(op - expected)) < 1e-12
    report("5 toffoli permutation (indices 6 and 7)")


def test_criterion_6_gate_counts():
    totals = {}
    for n in range(1, 11):
        counts = synth_mcu(n, X).counts()
        assert counts.cv + counts.cvdg == (1 << n) - 1, n
        assert counts.cnot == 2 * (n * (1 << (n - 1)) - (1 << n) + 1), n
        totals[n] = counts.total
    assert totals[2] == 5
    assert totals[3] == 17
    assert totals[4] == 49
    # exponential growth: each extra control more than doubles the circuit
    for n in range(2, 11):
        assert totals[n] > 2 * totals[n - 1]
    # the Gray order: the same cv-kind gates, one cnot between neighbours
    for n in range(1, 17):
        counts = synth_mcu(n, X, gray=True).counts()
        assert (counts.cv, counts.cvdg) == (1 << (n - 1), (1 << (n - 1)) - 1), n
        assert counts.cnot == (1 << n) - 2, n
    report("6 gate-count formulas (n=1..10, Gray order n=1..16)")


def test_criterion_7_symbolic_exponent_trace():
    for n in range(1, 9):
        trace = linear_trace(synth_mcu(n, X))
        assert np.array_equal(trace.outputs, np.arange(1 << n)), n
        for bits in itertools.product((0, 1), repeat=n):
            assert trace.exponents[basis_index(bits)] == parity_sum_direct(bits), (n, bits)
    report("7 symbolic exponent trace (n=1..8, all settings)")


def test_criterion_8_optimizer_safety():
    # the optimized circuit is the Gray order; it must be the same operator
    rng = np.random.default_rng(1008)
    gates = [NAMED_GATES["X"], NAMED_GATES["H"], NAMED_GATES["T"], random_unitary(rng)]
    for n in range(1, 6):
        for u in gates:
            circuit = synth_mcu(n, u)
            slim = synth_mcu(n, u, gray=True)
            assert slim.counts().total <= circuit.counts().total
            d = operator_distance(circuit_unitary(slim), circuit_unitary(circuit))
            assert d < 1e-11, (n, d)
    report("8 optimizer safety (Gray order, n=1..5)")


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    for controls in range(1, 6):
        for gate in ("X", "H", "T"):
            path = tmp_path / f"c{controls}{gate}.circ"
            args = ["synth", "--controls", str(controls), "--gate", gate, "--out", str(path)]
            assert main(args) == 0
            args = ["check", "--circuit", str(path), "--controls", str(controls), "--gate", gate]
            assert main(args) == 0, (controls, gate)

    # deleting any single gate must break the check
    path = tmp_path / "c2X.circ"
    lines = path.read_text().splitlines()
    kinds = ("cnot", "cv", "cvdg")
    gate_line = next(i for i, l in enumerate(lines) if l.split() and l.split()[0] in kinds)
    mutated = lines[:gate_line] + lines[gate_line + 1 :]
    path.write_text("\n".join(mutated) + "\n")
    assert main(["check", "--circuit", str(path), "--controls", "2", "--gate", "X"]) == 1
    capsys.readouterr()
    report("9 cli synth/check round trip (controls 1..5 x {X,H,T})")
