"""Circuit intermediate representation: gates, circuits, counts.

Gates carry symbolic labels rather than matrices: a circuit has at most one
controlled-V matrix, bound once at the circuit level (``v_binding``).  That
keeps peephole cancellation exact, since cv and cvdg are inverses by
construction.  Circuits are immutable.

A circuit is a struct of arrays: ``table`` is one read-only (3, m) int64
array whose rows ``kind`` (an index into ``GATE_KINDS``), ``control`` and
``target`` hold the m gates in application order.  The synthesizer, the
peephole pass, the text format and both simulators read and write those
columns; the constructor validates every gate in one vectorized pass.
``Gate`` is the element type for hand-built circuits and for ``gates``,
a sequence view that builds each one only when it is reached.

Qubit index convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of a basis index.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .unitary2 import require_unitary

CNOT = "cnot"
CV = "cv"
CVDG = "cvdg"
GATE_KINDS = (CNOT, CV, CVDG)
# the kind column holds each gate's index in GATE_KINDS
CNOT_CODE, CV_CODE, CVDG_CODE = range(len(GATE_KINDS))
INVERSE_CODE = np.array([CNOT_CODE, CVDG_CODE, CV_CODE])
# the widest circuit, so that gate keys stay in int64 (Circuit.pair_ids)
MAX_QUBITS = 2**30


def _gate_problem(kind, control: int, target: int, width: int | None = None) -> str | None:
    """Why (kind, control, target) is no gate on ``width`` qubits, or None.

    The one rule set for gates: ``Gate`` applies it without a width, and
    ``Circuit._check_gate`` words its first bad row with it.
    """
    if kind not in GATE_KINDS:
        return f"unknown gate kind {kind!r}"
    if control < 0 or target < 0:
        return "qubit indices must be nonnegative"
    if control == target:
        return f"control and target coincide on qubit {control}"
    if width is not None and (control >= width or target >= width):
        return f"gate {Gate(kind, control, target)} out of range for width {width}"
    return None


class Gate(namedtuple("Gate", "kind control target")):
    """One circuit element: cnot, or a controlled V / V-adjoint."""

    __slots__ = ()

    def __new__(cls, kind: str, control: int, target: int):
        if problem := _gate_problem(kind, control, target):
            raise ValueError(problem)
        return super().__new__(cls, kind, control, target)


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, control, target)


def cv(control: int, target: int) -> Gate:
    return Gate(CV, control, target)


def cvdg(control: int, target: int) -> Gate:
    return Gate(CVDG, control, target)


@dataclass(frozen=True)
class GateCounts:
    cnot: int
    cv: int
    cvdg: int

    @property
    def total(self) -> int:
        return self.cnot + self.cv + self.cvdg


class GateSequence(Sequence):
    """A circuit's gates as a read-only sequence of ``Gate``, each built when
    it is reached, so ``len`` costs nothing.  Equal to the tuple of the same
    gates, and ``+`` gives that tuple plus the other operand's gates."""

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        self._table = table

    def __len__(self) -> int:
        return self._table.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        kind, control, target = self._table[:, index].tolist()
        return Gate._make((GATE_KINDS[kind], control, target))

    def __iter__(self) -> Iterator[Gate]:
        # rows of a checked table skip the per-gate check: _make is tuple.__new__
        names = map(GATE_KINDS.__getitem__, self._table[0].tolist())
        return map(Gate._make, zip(names, *self._table[1:].tolist()))

    def __eq__(self, other) -> bool:
        if isinstance(other, GateSequence):
            return np.array_equal(self._table, other._table)
        return isinstance(other, tuple) and tuple(self) == other

    def __add__(self, other) -> tuple[Gate, ...]:
        return tuple(self) + tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


class GateError(ValueError):
    """A gate that does not fit its circuit; ``row`` is its position."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class Circuit:
    """Qubit count plus an ordered gate table, with an optional V binding.

    ``gates`` is either a (3, m) integer array, rows kind / control /
    target, or an iterable of ``Gate``; both become the same table and go
    through the same check.  Gate order is application order (leftmost gate
    acts first).
    """

    __slots__ = ("width", "table", "v_binding")

    def __init__(
        self,
        width: int,
        gates: np.ndarray | Iterable[Gate] = (),
        v_binding: np.ndarray | None = None,
    ):
        if width < 1:
            raise ValueError(f"need width >= 1, got {width}")
        if width > MAX_QUBITS:
            raise ValueError(f"need width <= {MAX_QUBITS}, got {width}")
        if isinstance(gates, np.ndarray):
            table = np.array(gates, dtype=np.int64)
        else:
            rows = [(GATE_KINDS.index(g.kind), g.control, g.target) for g in gates]
            table = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
        if table.ndim != 2 or table.shape[0] != 3:
            raise ValueError(f"gate table must have shape (3, m), got {table.shape}")
        self._check_gate(width, table)
        table.setflags(write=False)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "table", table)
        if v_binding is not None:
            # private copy so freezing never touches the caller's array
            v_binding = require_unitary(v_binding, name="v binding").copy()
            v_binding.setflags(write=False)
        object.__setattr__(self, "v_binding", v_binding)

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    @staticmethod
    def _check_gate(width: int, table: np.ndarray) -> None:
        """Raise GateError for the first row of ``table`` that is no gate on
        ``width`` qubits, in ``_gate_problem``'s words."""
        kind, control, target = table
        bad = (
            (kind < 0)
            | (kind >= len(GATE_KINDS))
            | (control < 0)
            | (target < 0)
            | (control == target)
            | (control >= width)
            | (target >= width)
        )
        if bad.any():
            row = int(bad.argmax())
            code, c, t = (int(x) for x in table[:, row])
            name = GATE_KINDS[code] if 0 <= code < len(GATE_KINDS) else code
            raise GateError(row, _gate_problem(name, c, t, width))

    @property
    def kind(self) -> np.ndarray:
        return self.table[0]

    @property
    def control(self) -> np.ndarray:
        return self.table[1]

    @property
    def target(self) -> np.ndarray:
        return self.table[2]

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """(kind code, control, target) of each gate, as Python ints."""
        return zip(*self.table.tolist())

    def pair_ids(self) -> np.ndarray:
        """One int64 per gate, equal for two gates iff they share both wires:
        control * width + target < 2^60 at width <= MAX_QUBITS = 2^30, so a
        key id * len(GATE_KINDS) + kind stays below 2^62, inside int64."""
        return self.control * self.width + self.target

    @property
    def gates(self) -> GateSequence:
        return GateSequence(self.table)

    @property
    def needs_v(self) -> bool:
        return bool(np.any(self.kind != CNOT_CODE))

    def counts(self) -> GateCounts:
        cnot, cv, cvdg = np.bincount(self.kind, minlength=len(GATE_KINDS)).tolist()
        return GateCounts(cnot=cnot, cv=cv, cvdg=cvdg)

    def __len__(self) -> int:
        return self.table.shape[1]

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.width != other.width or not np.array_equal(self.table, other.table):
            return False
        if (self.v_binding is None) != (other.v_binding is None):
            return False
        if self.v_binding is None:
            return True
        return np.array_equal(self.v_binding, other.v_binding)

    def __repr__(self) -> str:
        body = ", ".join(f"{g.kind}({g.control},{g.target})" for g in self.gates)
        bound = ", v bound" if self.v_binding is not None else ""
        return f"Circuit(width={self.width}, [{body}]{bound})"
