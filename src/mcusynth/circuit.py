"""Circuit intermediate representation: gates, circuits, counts.

Gates carry symbolic labels rather than matrices: a circuit has at most one
controlled-V matrix, bound once at the circuit level (``v_binding``), and it
has one whenever it has a cv or cvdg gate.  That keeps peephole cancellation
exact, since cv and cvdg are inverses by construction.  Circuits are
immutable, and their arrays are views that cannot be made writable again.

A gate is one row (kind, control, target) of ints, kind an index into
``GATE_KINDS``; ``cnot``, ``cv`` and ``cvdg`` build such rows.  A circuit
is built from an (m, 3) array-like of rows and stores them as a struct of
arrays: ``table`` is one read-only (3, m) int64 array whose rows ``kind``,
``control`` and ``target`` hold the m gates in application order, and
``gates`` is its (m, 3) transpose, the rows again.  The synthesizer, the
peephole pass, the text format and both simulators read and write those
columns; the constructor validates every gate in one vectorized pass.

Qubit index convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of a basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .unitary2 import require_unitary

GATE_KINDS = ("cnot", "cv", "cvdg")
# the kind column holds each gate's index in GATE_KINDS
CNOT_CODE, CV_CODE, CVDG_CODE = range(len(GATE_KINDS))
INVERSE_CODE = np.array([CNOT_CODE, CVDG_CODE, CV_CODE])
# the widest circuit, so that gate keys stay in int64 (Circuit.pair_ids)
MAX_QUBITS = 2**30


def _gate_problem(code: int, control: int, target: int, width: int) -> str | None:
    """Why the row (code, control, target) is no gate on ``width`` qubits,
    or None: the one rule set, which ``Circuit._check_gate`` words its
    first bad row with."""
    if not 0 <= code < len(GATE_KINDS):
        return f"unknown gate kind {code}"
    if control < 0 or target < 0:
        return "qubit indices must be nonnegative"
    if control == target:
        return f"control and target coincide on qubit {control}"
    if control >= width or target >= width:
        gate = f"Gate(kind={GATE_KINDS[code]!r}, control={control}, target={target})"
        return f"gate {gate} out of range for width {width}"
    return None


def cnot(control: int, target: int) -> tuple[int, int, int]:
    return (CNOT_CODE, control, target)


def cv(control: int, target: int) -> tuple[int, int, int]:
    return (CV_CODE, control, target)


def cvdg(control: int, target: int) -> tuple[int, int, int]:
    return (CVDG_CODE, control, target)


@dataclass(frozen=True)
class GateCounts:
    cnot: int
    cv: int
    cvdg: int

    @property
    def total(self) -> int:
        return self.cnot + self.cv + self.cvdg


class GateError(ValueError):
    """A gate that does not fit its circuit; ``row`` is its position."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class Circuit:
    """Qubit count plus an ordered gate table, with an optional V binding.

    ``width`` is an int and ``gates`` an (m, 3) array-like of integer
    (kind, control, target) rows within int64, ``()`` for no gates; other
    input raises ValueError.  The rows are copied once into ``table`` and
    checked there; without ``v_binding`` the first cv-kind row is refused
    after the gate checks, and a (3, m) table is refused unless m = 3, where
    the two shapes cannot be told apart.  Gates apply left to right.
    """

    __slots__ = ("width", "table", "v_binding")

    def __init__(self, width: int, gates=(), v_binding: np.ndarray | None = None):
        if not isinstance(width, (int, np.integer)) or width < 1:
            raise ValueError(f"need an integer width >= 1, got {width!r}")
        if width > MAX_QUBITS:
            raise ValueError(f"need width <= {MAX_QUBITS}, got {width}")
        rows = np.asarray(gates)
        if rows.shape == (0,):
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"gate rows must have shape (m, 3), got {rows.shape}")
        # int64 holds the values of every integer dtype but the top half of uint64's
        exact = np.can_cast(rows.dtype, np.int64) or rows.dtype == np.uint64 and not (rows >> 63).any()
        if rows.size and not exact:
            raise ValueError(f"gate rows must be integers within int64, got {rows.dtype}")
        table = rows.T.astype(np.int64, order="C")
        self._check_gate(width, table)
        # frozen behind views: numpy keeps a view of a read-only base read-only
        table.setflags(write=False)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "table", table.view())
        if v_binding is not None:
            # private copy so freezing never touches the caller's array
            v_binding = require_unitary(v_binding, name="v binding").copy()
            v_binding.setflags(write=False)
            v_binding = v_binding.view()
        elif (unbound := table[0] != CNOT_CODE).any():
            row = int(unbound.argmax())
            raise GateError(row, f"{GATE_KINDS[table[0, row]]} gate without a v binding")
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
            raise GateError(row, _gate_problem(*table[:, row].tolist(), width))

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
    def gates(self) -> np.ndarray:
        """The (m, 3) rows, a read-only view of ``table``."""
        return self.table.T

    def counts(self) -> GateCounts:
        cnot, cv, cvdg = np.bincount(self.kind, minlength=len(GATE_KINDS)).tolist()
        return GateCounts(cnot=cnot, cv=cv, cvdg=cvdg)

    def __len__(self) -> int:
        return self.table.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.width != other.width or not np.array_equal(self.table, other.table):
            return False
        if self.v_binding is None or other.v_binding is None:
            return self.v_binding is other.v_binding
        return np.array_equal(self.v_binding, other.v_binding)

    def __repr__(self) -> str:
        body = ", ".join(f"{GATE_KINDS[k]}({c},{t})" for k, c, t in self.rows())
        bound = ", v bound" if self.v_binding is not None else ""
        return f"Circuit(width={self.width}, [{body}]{bound})"
