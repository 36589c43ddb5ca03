import numpy as np
import pytest

from mcusynth.circuit import CNOT, CV, CVDG, Circuit, Gate, cnot, cv, cvdg
from mcusynth.unitary2 import X


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
        assert cnot(0, 1).inverse() == cnot(0, 1)
        assert cv(0, 1).inverse() == cvdg(0, 1)
        assert cvdg(0, 1).inverse() == cv(0, 1)


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

    def test_immutable(self):
        c = Circuit(2)
        with pytest.raises(AttributeError):
            c.width = 3

    def test_invert_single_gates(self):
        assert Circuit(2, [cnot(0, 1)]).inverted().gates == (cnot(0, 1),)
        assert Circuit(2, [cv(0, 1)]).inverted().gates == (cvdg(0, 1),)

    def test_invert_reverses_order(self):
        c = Circuit(3, [cnot(0, 1), cv(1, 2)])
        assert c.inverted().gates == (cvdg(1, 2), cnot(0, 1))

    def test_invert_involution(self):
        c = Circuit(3, [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1)], X)
        assert c.inverted().inverted() == c

    def test_counts(self):
        c = Circuit(3, [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2), cnot(0, 1)])
        counts = c.counts()
        assert (counts.cnot, counts.cv, counts.cvdg) == (2, 2, 1)
        assert counts.total == 5

    def test_counts_empty(self):
        counts = Circuit(4).counts()
        assert (counts.cnot, counts.cv, counts.cvdg, counts.total) == (0, 0, 0, 0)

    def test_invert_swaps_cv_counts(self):
        c = Circuit(3, [cv(0, 2), cv(1, 2), cnot(0, 1), cvdg(1, 2)])
        inv = c.inverted().counts()
        fwd = c.counts()
        assert inv.total == fwd.total
        assert (inv.cv, inv.cvdg) == (fwd.cvdg, fwd.cv)

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
