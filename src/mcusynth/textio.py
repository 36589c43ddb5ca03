"""Line-oriented circuit files and gate-matrix ingestion.

Circuit file format ('#' starts a comment, blank lines ignored):

    qubits 3
    vmatrix 0.5 0.5 0.5 -0.5 0.5 -0.5 0.5 0.5
    cv 0 2
    cv 1 2
    cnot 0 1
    cvdg 1 2
    cnot 0 1

``qubits`` must come first.  ``vmatrix`` is optional and gives the bound V
matrix as eight floats, row-major (re, im) pairs, written with full repr
precision so files round-trip bit-exactly.  Gate lines are one of
``cnot c t``, ``cv c t``, ``cvdg c t``.

Gate matrices on the command line are either a named gate (I, X, Y, Z, H, S,
T) or ``@file.json`` pointing at ``{"matrix": [[[re,im],[re,im]],
[[re,im],[re,im]]]}``; explicit matrices must be unitary within 1e-9.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .circuit import Circuit, Gate, GATE_KINDS
from .unitary2 import NAMED_GATES, require_unitary


class CircuitFormatError(ValueError):
    """A circuit file or gate spec that cannot be parsed."""


def format_circuit(circuit: Circuit, header: str | None = None) -> str:
    """Render a circuit in the text format."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(f"qubits {circuit.width}")
    if circuit.v_binding is not None:
        flat = []
        for entry in circuit.v_binding.reshape(-1):
            flat.append(repr(float(entry.real)))
            flat.append(repr(float(entry.imag)))
        lines.append("vmatrix " + " ".join(flat))
    for g in circuit.gates:
        lines.append(f"{g.kind} {g.control} {g.target}")
    return "\n".join(lines) + "\n"


def write_circuit(circuit: Circuit, path: str | Path, header: str | None = None) -> None:
    Path(path).write_text(format_circuit(circuit, header=header))


def parse_circuit(text: str) -> Circuit:
    """Parse the text format back into a Circuit.

    Raises CircuitFormatError with a line number on any malformed input,
    including gates that do not fit the declared width.
    """
    width = None
    v = None
    gates: list[Gate] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]

        if keyword == "qubits":
            if width is not None:
                raise CircuitFormatError(f"line {lineno}: duplicate qubits line")
            width = _parse_int(args, 1, lineno, "qubits")[0]
            if width < 1:
                raise CircuitFormatError(f"line {lineno}: need at least 1 qubit")
        elif width is None:
            raise CircuitFormatError(f"line {lineno}: 'qubits' must come first")
        elif keyword == "vmatrix":
            if v is not None:
                raise CircuitFormatError(f"line {lineno}: duplicate vmatrix line")
            if len(args) != 8:
                raise CircuitFormatError(
                    f"line {lineno}: vmatrix needs 8 numbers, got {len(args)}"
                )
            try:
                values = [float(a) for a in args]
            except ValueError:
                raise CircuitFormatError(f"line {lineno}: bad number in vmatrix") from None
            v = np.array(
                [
                    [complex(values[0], values[1]), complex(values[2], values[3])],
                    [complex(values[4], values[5]), complex(values[6], values[7])],
                ]
            )
        elif keyword in GATE_KINDS:
            control, target = _parse_int(args, 2, lineno, keyword)
            try:
                gate = Gate(keyword, control, target)
                Circuit._check_gate(width, gate)
            except ValueError as exc:
                raise CircuitFormatError(f"line {lineno}: {exc}") from None
            gates.append(gate)
        else:
            raise CircuitFormatError(f"line {lineno}: unknown keyword {keyword!r}")

    if width is None:
        raise CircuitFormatError("missing 'qubits' line")
    try:
        return Circuit(width, gates, v)
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None


def _parse_int(args: list[str], count: int, lineno: int, keyword: str) -> list[int]:
    if len(args) != count:
        raise CircuitFormatError(
            f"line {lineno}: {keyword} takes {count} argument(s), got {len(args)}"
        )
    try:
        return [int(a) for a in args]
    except ValueError:
        raise CircuitFormatError(f"line {lineno}: {keyword} arguments must be integers") from None


def read_circuit(path: str | Path) -> Circuit:
    return parse_circuit(Path(path).read_text())


def parse_gate_spec(spec: str) -> np.ndarray:
    """Resolve a --gate argument: a named gate or @file.json matrix."""
    if spec.startswith("@"):
        return load_gate_json(spec[1:])
    if spec in NAMED_GATES:
        return NAMED_GATES[spec].copy()
    names = ", ".join(sorted(NAMED_GATES))
    raise CircuitFormatError(f"unknown gate {spec!r} (named gates: {names})")


def load_gate_json(path: str | Path) -> np.ndarray:
    """Read an explicit 2x2 matrix from JSON; must be unitary within 1e-9."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CircuitFormatError(f"cannot read gate file {path}: {exc}") from None
    rows = payload.get("matrix") if isinstance(payload, dict) else None
    if (
        not isinstance(rows, list)
        or len(rows) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in rows)
        or any(not isinstance(e, list) or len(e) != 2 for r in rows for e in r)
    ):
        raise CircuitFormatError(
            f"{path}: expected {{\"matrix\": [[[re,im],[re,im]],[[re,im],[re,im]]]}}"
        )
    try:
        m = np.array(
            [[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex
        )
    except TypeError:
        raise CircuitFormatError(f"{path}: matrix entries must be numbers") from None
    try:
        return require_unitary(m, name=f"matrix from {path}")
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None
