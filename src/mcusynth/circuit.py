"""Circuit intermediate representation: gates, circuits, inversion, counts.

Gates carry symbolic labels rather than matrices: a circuit has at most one
controlled-V matrix, bound once at the circuit level (``v_binding``).  That
keeps inversion and peephole cancellation exact, since cv and cvdg are
inverses by construction.  Circuits are immutable.

Qubit index convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of a basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .unitary2 import require_unitary

CNOT = "cnot"
CV = "cv"
CVDG = "cvdg"
GATE_KINDS = (CNOT, CV, CVDG)


@dataclass(frozen=True)
class Gate:
    """One circuit element: cnot, or a controlled V / V-adjoint."""

    kind: str
    control: int
    target: int

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.control < 0 or self.target < 0:
            raise ValueError("qubit indices must be nonnegative")
        if self.control == self.target:
            raise ValueError(f"control and target coincide on qubit {self.control}")

    def inverse(self) -> "Gate":
        if self.kind == CV:
            return Gate(CVDG, self.control, self.target)
        if self.kind == CVDG:
            return Gate(CV, self.control, self.target)
        return self


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


class Circuit:
    """Qubit count plus an ordered gate sequence, with an optional V binding.

    Gate order is application order (leftmost gate acts first).
    """

    __slots__ = ("width", "gates", "v_binding")

    def __init__(
        self,
        width: int,
        gates: Iterable[Gate] = (),
        v_binding: np.ndarray | None = None,
    ):
        if width < 1:
            raise ValueError(f"need width >= 1, got {width}")
        gates = tuple(gates)
        for g in gates:
            self._check_gate(width, g)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "gates", gates)
        if v_binding is not None:
            # private copy so freezing never touches the caller's array
            v_binding = require_unitary(v_binding, name="v binding").copy()
            v_binding.setflags(write=False)
        object.__setattr__(self, "v_binding", v_binding)

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    @staticmethod
    def _check_gate(width: int, gate: Gate) -> None:
        if gate.control >= width or gate.target >= width:
            raise ValueError(f"gate {gate} out of range for width {width}")

    @property
    def needs_v(self) -> bool:
        return any(g.kind != CNOT for g in self.gates)

    def inverted(self) -> "Circuit":
        """Gates reversed, cv and cvdg swapped; composes with self to identity."""
        return Circuit(
            self.width,
            tuple(g.inverse() for g in reversed(self.gates)),
            self.v_binding,
        )

    def counts(self) -> GateCounts:
        tally = {CNOT: 0, CV: 0, CVDG: 0}
        for g in self.gates:
            tally[g.kind] += 1
        return GateCounts(cnot=tally[CNOT], cv=tally[CV], cvdg=tally[CVDG])

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if self.width != other.width or self.gates != other.gates:
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
