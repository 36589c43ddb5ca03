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

Both directions work on the circuit's int columns, not per gate:
``format_circuit`` renders each distinct gate once and gathers the lines,
and ``parse_circuit`` tokenizes the whole file as one byte array, handles
the few non-gate lines (``qubits``, ``vmatrix``) one by one, converts the
gate arguments column-wise and leaves the gate checks to ``Circuit``.
Lines, tokens and integers are read exactly as ``str.splitlines``,
``str.split`` and ``int`` read them, and an error names the line of the
first bad gate or header line, whatever kind of fault it is.  Input past
its byte cap is refused before it is parsed.

Gate matrices on the command line are either a named gate (I, X, Y, Z, H, S,
T) or ``@file.json`` pointing at ``{"matrix": [[[re,im],[re,im]],
[[re,im],[re,im]]]}``; explicit matrices must be unitary within 1e-9.
"""

from __future__ import annotations

import io
import json
import os
import re
from pathlib import Path

import numpy as np

from .circuit import GATE_KINDS, MAX_QUBITS, Circuit, GateError, _gate_problem
from .unitary2 import NAMED_GATES, require_unitary


# the 16-control canonical file is 9.6 MB; padded to this cap with cancelling
# cnot pairs (1.78 M gates), `check` takes 1.5 s at 222 MiB peak RSS (2-core Xeon)
MAX_CIRCUIT_BYTES = 16 << 20
MAX_GATE_BYTES = 1 << 16  # a gate file is one 2x2 matrix, a few hundred bytes


class CircuitFormatError(ValueError):
    """A circuit file or gate spec that cannot be parsed."""


def _read_text(path: str | Path, cap: int, what: str) -> str:
    # Path.read_text's decoding of at most cap bytes, read as cap + 1.  read(n)
    # allocates n bytes up front, so the first read takes the stated size
    with Path(path).open("rb") as f:
        size = min(os.fstat(f.fileno()).st_size, cap) + 1
        data = f.read(size)
        if len(data) == size:  # past its stated size: /dev/zero, a pipe
            data += f.read(cap + 1 - size)
    if len(data) > cap:
        raise CircuitFormatError(f"{path}: {what} exceeds the cap of {cap} bytes")
    try:
        return io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise CircuitFormatError(
            f"{path}: {what} does not decode as {exc.encoding} at byte {exc.start} ({exc.reason})"
        ) from None


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
    # a circuit repeats few distinct gates: render each once, then gather
    keys = circuit.pair_ids() * len(GATE_KINDS) + circuit.kind
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    distinct = [f"{GATE_KINDS[k]} {c} {t}" for k, c, t in circuit.table[:, first].T.tolist()]
    lines.extend(np.array(distinct, dtype=object)[which.reshape(-1)].tolist())
    return "\n".join(lines) + "\n"


def write_circuit(circuit: Circuit, path: str | Path, header: str | None = None) -> None:
    Path(path).write_text(format_circuit(circuit, header=header))


# str.split whitespace and str.splitlines breaks outside ASCII, mapped onto
# ASCII so that one byte table classifies every separator. The breaks map to
# "\x1e", not "\n", so that "\r" before one stays two line breaks
_WIDE_WHITESPACE = str.maketrans(
    dict.fromkeys("\x85\u2028\u2029", "\x1e")
    | dict.fromkeys("\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                    "\u2008\u2009\u200a\u202f\u205f\u3000", " ")
)
_SPACE, _BREAK = 1, 2
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[[0x09, 0x1F, 0x20]] = _SPACE
_BYTE_CLASS[[0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E]] = _BREAK
# a comment runs from '#' to the end of its line
_COMMENT = re.compile("#[^\n\v\f\r\x1c\x1d\x1e]*")
# the most digits a token may have to be converted in int64 arithmetic
_DIGITS = 18
# bytes the tokenizer takes per pass
_CHUNK = 1 << 20


class _Tokens:
    """The whitespace-separated tokens of a text, grouped by line.

    ``starts`` and ``ends`` bound every token in the padded bytes ``data``;
    per nonblank line, ``heads`` is its first token, ``fields`` its token
    count and ``lineno`` its 1-based number.
    """

    def __init__(self, text: str):
        if not text.isascii():
            text = text.translate(_WIDE_WHITESPACE)
        # a comment becomes a space, so that "\r#...\n" stays two line breaks
        raw = _COMMENT.sub(" ", text).encode()
        if len(raw) > MAX_CIRCUIT_BYTES:
            raise CircuitFormatError(f"circuit text exceeds the cap of {MAX_CIRCUIT_BYTES} bytes")
        # space padding lets a column read _DIGITS bytes past any token start
        data = np.full(len(raw) + _DIGITS, ord(" "), dtype=np.uint8)
        data[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        del raw
        byte_class = _BYTE_CLASS[data]
        # "\r\n" is one line break
        cr = np.flatnonzero(data == 0x0D)
        byte_class[cr[data[cr + 1] == 0x0A]] = _SPACE
        # +1 where a token starts, -1 just past its end
        edges = np.diff((byte_class == 0).view(np.int8), prepend=np.int8(0))
        breaks = byte_class == _BREAK
        del byte_class
        # positions and line numbers in int32, which the cap leaves room
        # for.  A pass per _CHUNK bytes keeps every int64 temporary that small
        count = np.count_nonzero(edges > 0)
        self.starts, self.ends, lines = (np.empty(count, dtype=np.int32) for _ in range(3))
        started = ended = above = 0  # tokens started and ended, breaks seen
        for lo in range(0, data.shape[0], _CHUNK):
            edge = edges[lo : lo + _CHUNK]
            start, end = np.flatnonzero(edge > 0), np.flatnonzero(edge < 0)
            self.starts[started : started + start.shape[0]] = start + lo
            self.ends[ended : ended + end.shape[0]] = end + lo
            # inclusive counts: a token's first byte is no break
            breaks_to = np.cumsum(breaks[lo : lo + _CHUNK], dtype=np.int32)
            lines[started : started + start.shape[0]] = breaks_to[start] + above
            started, ended, above = started + start.shape[0], ended + end.shape[0], above + int(breaks_to[-1])
        self.data = data
        del edges, breaks
        # a head is a token on another line than the token before it
        head = np.ones(count, dtype=bool)
        np.not_equal(lines[1:], lines[:-1], out=head[1:])
        self.heads = np.flatnonzero(head)
        self.fields = np.diff(self.heads, append=count)
        self.lineno = lines[self.heads] + 1

    def word(self, i: int) -> str:
        return self.data[self.starts[i] : self.ends[i]].tobytes().decode()

    def lookup(self, index: np.ndarray, words: tuple[str, ...]) -> np.ndarray:
        """Each token's position in ``words``, or -1; words of at most four
        bytes, compared as one packed int of length and bytes."""
        first = self.starts[index]
        length = self.ends[index] - first
        packed = length.astype(np.int64) << 32
        for j in range(4):
            byte = np.where(j < length, self.data[first + j], 0)
            packed |= byte.astype(np.int64) << (8 * j)
        out = np.full(index.shape[0], -1, dtype=np.int8)
        for code, word in enumerate(words):
            out[packed == (len(word) << 32 | int.from_bytes(word.encode(), "little"))] = code
        return out

    def integers(self, index: np.ndarray) -> tuple[np.ndarray, int | None]:
        """int() of each token in ``index`` as int64, plus the position of
        the first one int() refuses or int64 cannot hold (None if none).

        Plain digit strings are converted column-wise; anything else
        (signs, underscores, non-ASCII digits) goes through int() itself.
        """
        first = self.starts[index]
        length = self.ends[index] - first
        digits = length <= _DIGITS
        values = np.zeros(index.shape[0], dtype=np.int64)
        for j in range(min(int(length.max(initial=0)), _DIGITS)):
            live = j < length
            byte = self.data[first + j]
            digits &= ~live | ((byte >= ord("0")) & (byte <= ord("9")))
            # a non-digit byte wraps here, but its token goes through int()
            np.multiply(values, 10, out=values, where=live)
            np.add(values, byte - ord("0"), out=values, where=live)
        for k in np.flatnonzero(~digits).tolist():
            try:
                values[k] = int(self.word(index[k]))
            except (ValueError, OverflowError):
                return values, k
        return values, None


def parse_circuit(text: str) -> Circuit:
    """Parse the text format back into a Circuit.

    Raises CircuitFormatError with a line number on any malformed input,
    including gates that do not fit the declared width.
    """
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
    tokens = _Tokens(text)
    # one row per nonblank line
    heads, fields, lineno = tokens.heads, tokens.fields, tokens.lineno
    if heads.shape[0] == 0:
        raise CircuitFormatError("missing 'qubits' line")
    kind = tokens.lookup(heads, GATE_KINDS)
    if kind[0] >= 0:
        raise CircuitFormatError(f"line {lineno[0]}: 'qubits' must come first")

    # the few other lines one by one; the first of them is the qubits line
    width = v = error = None
    for row in np.flatnonzero(kind < 0).tolist():
        keyword, *args = map(tokens.word, range(heads[row], heads[row] + fields[row]))
        try:
            width, v = _header_line(keyword, args, width, v)
        except CircuitFormatError as exc:
            if width is None:
                raise CircuitFormatError(f"line {lineno[row]}: {exc}") from None
            error = (lineno[row], str(exc))
            break
    gates = np.flatnonzero(kind >= 0)
    if error is not None:
        gates = gates[lineno[gates] < error[0]]

    # the gates read end at the first line that is not a gate and two ints
    short = np.flatnonzero(fields[gates] != 3)
    if short.size:
        row = gates[short[0]]
        error = (lineno[row], f"{GATE_KINDS[kind[row]]} takes 2 argument(s), got {fields[row] - 1}")
        gates = gates[: short[0]]
    control, refused = tokens.integers(heads[gates] + 1)
    target, refused_target = tokens.integers(heads[gates] + 2)
    refused = min((k for k in (refused, refused_target) if k is not None), default=None)
    if refused is not None:
        row = gates[refused]
        error = (lineno[row], _integer_problem(tokens, heads[row], GATE_KINDS[kind[row]], width))
        gates = gates[:refused]
    del tokens  # before the table is built: the largest arrays here
    count = gates.shape[0]
    table = np.stack((kind[gates], control[:count], target[:count]))
    return width, v, table, lineno[gates], error


def _header_line(keyword: str, args: list[str], width, v):
    """(width, v) after one non-gate line; CircuitFormatError says why not."""
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
    if width is None:
        raise CircuitFormatError("'qubits' must come first")
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
    v = np.array(
        [
            [complex(values[0], values[1]), complex(values[2], values[3])],
            [complex(values[4], values[5]), complex(values[6], values[7])],
        ]
    )
    try:
        return width, require_unitary(v, name="v binding")
    except ValueError as exc:
        raise CircuitFormatError(str(exc)) from None


def _integer_problem(tokens: _Tokens, head: int, keyword: str, width: int) -> str:
    # why int() refuses a gate line's arguments, or past int64 the gate checks
    try:
        control, target = (int(tokens.word(head + i)) for i in (1, 2))
    except ValueError:
        return f"{keyword} arguments must be integers"
    return _gate_problem(GATE_KINDS.index(keyword), control, target, width)


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
