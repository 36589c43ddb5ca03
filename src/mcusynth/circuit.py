"""Circuit intermediate representation: gates, circuits, counts.

Gates carry symbolic labels rather than matrices: a circuit has at most one
controlled-V matrix, bound once at the circuit level (``v_binding``), and it
has one whenever it has a cv or cvdg gate.  That keeps peephole cancellation
exact, since cv and cvdg are inverses by construction.  Circuits are
immutable, and their arrays lie over immutable bytes: the gates and
``v_binding`` are copied once into ``bytes``, so no array reachable from a
circuit, through ``.base`` or not, can be made writable.

A gate is one row (kind, control, target) of ints, kind an index into
``GATE_KINDS``.  A circuit is built from an (m, 3) array-like of rows and
stores them in one field, ``gates``: the read-only (m, 3) int64 rows in
application order, the transpose view of one (3, m) C-order copy, so each
column ``gates[:, j]`` (kind, control, target) is contiguous.  The
synthesizer, the peephole pass, the text format and both simulators read
those columns; the constructor validates every gate in one vectorized pass.

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
# the widest circuit, so that gate keys stay below 3 * 2^60 < 2^63 (Circuit.gate_keys)
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
    """Qubit count plus its ordered gates, with an optional V binding.

    ``width`` is an int and ``gates`` an (m, 3) array-like of integer
    (kind, control, target) rows within int64, ``()`` for no gates; other
    input raises ValueError.  The rows are copied once, a column at a time,
    into the bytes behind the ``gates`` field and checked there, and
    ``v_binding`` is copied the same way, so neither nor any ``.base`` can
    be made writable.  Without ``v_binding`` the first cv-kind row is
    refused after the gate checks, and a (3, m) table is refused unless
    m = 3, where the two shapes cannot be told apart.  Gates apply left to
    right.
    """

    __slots__ = ("width", "gates", "v_binding")

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
        # tobytes writes C order from any layout, so this is the one copy
        table = np.frombuffer(rows.T.astype(np.int64, copy=False).tobytes(), dtype=np.int64).reshape(3, -1)
        self._check_gate(width, table)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "gates", table.T)
        if v_binding is not None:
            v_binding = require_unitary(v_binding, name="v binding")
            v_binding = np.frombuffer(v_binding.tobytes(), dtype=complex).reshape(2, 2)
        elif (unbound := table[0] != CNOT_CODE).any():
            row = int(unbound.argmax())
            raise GateError(row, f"{GATE_KINDS[table[0, row]]} gate without a v binding")
        object.__setattr__(self, "v_binding", v_binding)

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    @staticmethod
    def _check_gate(width: int, table: np.ndarray) -> None:
        """Raise GateError for the first column of the (3, m) ``table`` that
        is no gate on ``width`` qubits, in ``_gate_problem``'s words."""
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

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """(kind code, control, target) of each gate, as Python ints."""
        return zip(*self.gates.T.tolist())

    def gate_keys(self) -> np.ndarray:
        """One key per gate, equal for two gates iff they are the same gate:
        (control * width + target) * 3 + kind, below 3 * width^2, in the
        smallest unsigned dtype that holds that bound (16 bits, which numpy
        sorts by radix, up to width 147).  At width <= MAX_QUBITS = 2^30
        the bound is 3 * 2^60 < 2^63, so the int64 arithmetic is exact."""
        kind, control, target = self.gates.T
        keys = (control * self.width + target) * len(GATE_KINDS) + kind
        return keys.astype(np.min_scalar_type(len(GATE_KINDS) * self.width**2))

    def counts(self) -> GateCounts:
        cnot, cv, cvdg = np.bincount(self.gates[:, 0], minlength=len(GATE_KINDS)).tolist()
        return GateCounts(cnot=cnot, cv=cv, cvdg=cvdg)

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.width != other.width or not np.array_equal(self.gates, other.gates):
            return False
        if self.v_binding is None or other.v_binding is None:
            return self.v_binding is other.v_binding
        return np.array_equal(self.v_binding, other.v_binding)

    def __repr__(self) -> str:
        body = ", ".join(f"{GATE_KINDS[k]}({c},{t})" for k, c, t in self.rows())
        bound = ", v bound" if self.v_binding is not None else ""
        return f"Circuit(width={self.width}, [{body}]{bound})"
