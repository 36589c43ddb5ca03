"""Line-oriented circuit files and gate-matrix ingestion.

Circuit file format ('#' starts a comment, blank lines ignored):

    qubits 3
    vmatrix 0.5 0.5 0.5 -0.5 0.5 -0.5 0.5 0.5
    cv 0 2
    cv 1 2
    cnot 0 1
    cvdg 1 2
    cnot 0 1

``qubits`` must come first.  ``vmatrix`` gives the bound V matrix as eight
floats, row-major (re, im) pairs, written with full repr precision so files
round-trip bit-exactly; it must be unitary within 1e-9.  Gate lines are one
of ``cnot c t``, ``cv c t``, ``cvdg c t``, one gate per line.  A file with a
cv or cvdg gate needs a ``vmatrix``; a missing one is reported last, at the
first cv-kind gate.

Files are read and written as UTF-8, whatever the locale.  Both
directions work on distinct lines, not per gate: ``format_circuit``
numbers the gates by sorting ``Circuit.gate_keys()`` (16 bits, so a radix
sort, up to 147 qubits), renders each distinct gate once and gathers the
lines, and
``parse_circuit`` reads each distinct line once.  It cuts the text into
slices of about 1 MiB, each ending just after a "\n", splits each slice
with ``str.splitlines``, numbers the slice's distinct lines, reads each
with ``str.split`` and ``int``, and gathers the gate columns by those
numbers.  The few other lines (``qubits``, ``vmatrix``, faults) are handled
in file order, and the gate checks are left to ``Circuit``.  An error names
the line of the first bad gate or header line, whatever kind of fault it
is.  Text whose UTF-8 encoding, comments included, is past the byte cap
is refused before it is parsed.

So reading costs a few C passes over the text plus one Python parse per
distinct line of each slice.  The 983,041-gate 16-control file has 154
distinct lines and parses in 0.16-0.26 s.  A file whose lines never repeat
pays the parse on every line, and the byte cap bounds that: 16 MiB of
891,657 distinct gate lines parses in 2.4-3.0 s, and 16 MiB of 2.2 M
distinct comment lines in about 3.6 s (2-core Xeon, in-process).

Gate matrices on the command line are either a named gate (I, X, Y, Z, H, S,
T) or ``@file.json`` pointing at ``{"matrix": [[[re,im],[re,im]],
[[re,im],[re,im]]]}``; explicit matrices must be unitary within 1e-9.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .circuit import GATE_KINDS, MAX_QUBITS, Circuit, GateError, _gate_problem
from .unitary2 import NAMED_GATES, require_unitary


# in a fresh interpreter (2-core Xeon), `check` takes 0.48-0.50 s at 98 MiB
# peak RSS on the 9.6 MB 16-control canonical file (0.70 s in the first of
# eight runs), and 0.71-0.78 s at 154-155 MiB on that file padded to this
# cap with cancelling cnot pairs (1.78 M gates).  On 16 MiB of 891,657 gate
# lines that never repeat it reads for 3.1-3.4 s at 139 MiB before it
# refuses the width.  CI fails the padded run above 200 MiB
MAX_CIRCUIT_BYTES = 16 << 20
MAX_GATE_BYTES = 1 << 16  # a gate file is one 2x2 matrix, a few hundred bytes


class CircuitFormatError(ValueError):
    """A circuit file or gate spec that cannot be parsed."""


def _read_text(path: str | Path, cap: int, what: str) -> str:
    # at most cap bytes, read as cap + 1.  read(n) allocates n bytes up
    # front, so the first read takes the stated size
    with Path(path).open("rb") as f:
        size = min(os.fstat(f.fileno()).st_size, cap) + 1
        data = f.read(size)
        if len(data) == size:  # past its stated size: /dev/zero, a pipe
            data += f.read(cap + 1 - size)
    if len(data) > cap:
        raise CircuitFormatError(f"{path}: {what} exceeds the cap of {cap} bytes")
    # UTF-8 whatever the locale, with Path.read_text's universal newlines
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CircuitFormatError(
            f"{path}: {what} does not decode as {exc.encoding} at byte {exc.start} ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def format_circuit(circuit: Circuit, header: str | None = None) -> str:
    """Render a circuit in the text format."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(f"qubits {circuit.width}")
    if circuit.v_binding is not None:
        flat = map(repr, circuit.v_binding.reshape(-1).view(float).tolist())
        lines.append("vmatrix " + " ".join(flat))
    # a circuit repeats few distinct gates: render each once, then gather
    _, first, which = np.unique(circuit.gate_keys(), return_index=True, return_inverse=True)
    distinct = [f"{GATE_KINDS[k]} {c} {t}" for k, c, t in circuit.gates[first].tolist()]
    lines.extend(np.array(distinct, dtype=object)[which.reshape(-1)].tolist())
    return "\n".join(lines) + "\n"


def write_circuit(circuit: Circuit, path: str | Path, header: str | None = None) -> None:
    Path(path).write_text(format_circuit(circuit, header=header), encoding="utf-8")


# characters the reader splits at once; each slice ends just after a "\n",
# which no line break straddles, so its lines are the text's own
_SLICE = 1 << 20
# the kind of a line that is no gate row: blank, or read in file order
_BLANK, _OTHER = -1, -2
_KIND_CODE = {kind: code for code, kind in enumerate(GATE_KINDS)}
_INT64 = range(-(1 << 63), 1 << 63)


class _LineIds(dict):
    """Numbers each distinct line in the order first seen."""

    def __missing__(self, line: str) -> int:
        self[line] = len(self)
        return self[line]


def _gate_row(line: str) -> tuple[int, int, int]:
    """The (kind, control, target) gate row of one line, or (_BLANK or
    _OTHER, 0, 0) for a line that holds none."""
    words = line.split("#", 1)[0].split()
    if not words:
        return _BLANK, 0, 0
    if len(words) == 3 and words[0] in _KIND_CODE:
        try:
            control, target = int(words[1]), int(words[2])
        except ValueError:
            return _OTHER, 0, 0
        if control in _INT64 and target in _INT64:
            return _KIND_CODE[words[0]], control, target
    return _OTHER, 0, 0


def parse_circuit(text: str) -> Circuit:
    """Parse the text format back into a Circuit.

    Raises CircuitFormatError with a line number on any malformed input,
    including gates that do not fit the declared width.
    """
    # the UTF-8 length, as read_circuit caps the file; a lone surrogate
    # counts as the three bytes it takes there
    if len(text) > MAX_CIRCUIT_BYTES or (
        not text.isascii() and len(text.encode("utf-8", "surrogatepass")) > MAX_CIRCUIT_BYTES
    ):
        raise CircuitFormatError(f"circuit text exceeds the cap of {MAX_CIRCUIT_BYTES} bytes")
    width, v, table, gate_lines, error = _read(text)
    # the gate checks are Circuit's; a bad gate above the first error wins
    try:
        if error is None:
            return Circuit(width, table.T, v)
        Circuit._check_gate(width, table)
    except GateError as exc:
        raise CircuitFormatError(f"line {gate_lines[exc.row]}: {exc}") from None
    raise CircuitFormatError(f"line {error[0]}: {error[1]}")


def _read(text: str):
    """(width, v, table, gate_lines, error): the gate table, each gate's
    line, and the first (line, message) fault other than a gate check.  The
    table holds the gates above that fault, or all of them."""
    width = v = error = None
    rows, gate_ids, gate_lines = [], [], []  # per slice
    start = lineno = seen = 0  # where the slice starts, the lines and distinct rows above it
    while start < len(text) and error is None:
        # just past the first "\n" that leaves _SLICE characters, or the end
        end = text.find("\n", start + _SLICE - 1) + 1 or len(text)
        # a circuit repeats few distinct lines: read each once, then gather
        ids = _LineIds()
        index = np.fromiter(map(ids.__getitem__, text[start:end].splitlines()), dtype=np.int32)
        lines = list(ids)
        distinct = np.array([_gate_row(line) for line in lines], dtype=np.int64).T
        kind = distinct[0, index]
        if width is None and (kind != _BLANK).any():
            first = int((kind != _BLANK).argmax())
            if lines[index[first]].split("#", 1)[0].split()[0] != "qubits":
                raise CircuitFormatError(f"line {lineno + first + 1}: 'qubits' must come first")
        # the few other lines one by one; the first of them is the qubits line
        for i in np.flatnonzero(kind == _OTHER).tolist():
            keyword, *args = lines[index[i]].split("#", 1)[0].split()
            try:
                width, v = _other_line(keyword, args, width, v)
            except CircuitFormatError as exc:
                if width is None:
                    raise CircuitFormatError(f"line {lineno + i + 1}: {exc}") from None
                error = (lineno + i + 1, str(exc))
                kind = kind[:i]
                break
        gates = np.flatnonzero(kind >= 0)
        # the slice's distinct rows, numbered on from those of the slices above
        rows.append(distinct)
        gate_ids.append(index[gates] + seen)
        gate_lines.append((gates + lineno + 1).astype(np.int32))
        start, lineno, seen = end, lineno + index.shape[0], seen + len(lines)
    if width is None:
        raise CircuitFormatError("missing 'qubits' line")
    table = np.concatenate(rows, axis=1)[:, np.concatenate(gate_ids)]
    return width, v, table, np.concatenate(gate_lines), error


def _other_line(keyword: str, args: list[str], width, v):
    """(width, v) after one line that is no gate row; CircuitFormatError
    says why not."""
    if keyword in _KIND_CODE:
        # why _gate_row refused a gate line: its arity, int(), or past int64 the gate checks
        if len(args) != 2:
            raise CircuitFormatError(f"{keyword} takes 2 argument(s), got {len(args)}")
        try:
            control, target = map(int, args)
        except ValueError:
            raise CircuitFormatError(f"{keyword} arguments must be integers") from None
        raise CircuitFormatError(_gate_problem(_KIND_CODE[keyword], control, target, width))
    if keyword == "qubits":
        if width is not None:
            raise CircuitFormatError("duplicate qubits line")
        if len(args) != 1:
            raise CircuitFormatError(f"qubits takes 1 argument(s), got {len(args)}")
        try:
            width = int(args[0])
        except ValueError:
            raise CircuitFormatError("qubits arguments must be integers") from None
        if width < 1:
            raise CircuitFormatError("need at least 1 qubit")
        if width > MAX_QUBITS:
            raise CircuitFormatError(f"need at most {MAX_QUBITS} qubits")
        return width, v
    if keyword != "vmatrix":
        raise CircuitFormatError(f"unknown keyword {keyword!r}")
    if v is not None:
        raise CircuitFormatError("duplicate vmatrix line")
    if len(args) != 8:
        raise CircuitFormatError(f"vmatrix needs 8 numbers, got {len(args)}")
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise CircuitFormatError("bad number in vmatrix") from None
    v = np.array(values).view(complex).reshape(2, 2)
    try:
        return width, require_unitary(v, name="v binding")
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None


def read_circuit(path: str | Path) -> Circuit:
    return parse_circuit(_read_text(path, MAX_CIRCUIT_BYTES, "circuit file"))


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
        payload = json.loads(_read_text(path, MAX_GATE_BYTES, "gate file"))
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
    # JSON true and false decode to bool, which complex() takes as 1 and 0
    if any(type(x) not in (int, float) for r in rows for e in r for x in e):
        raise CircuitFormatError(f"{path}: matrix entries must be numbers")
    try:
        m = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except OverflowError:
        raise CircuitFormatError(f"{path}: matrix entries must fit in a float") from None
    try:
        return require_unitary(m, name=f"matrix from {path}")
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None
