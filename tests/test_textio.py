import codecs
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcusynth import textio
from mcusynth.circuit import CNOT_CODE, GATE_KINDS, MAX_QUBITS, Circuit
from mcusynth.synthesize import synth_mcu
from mcusynth.textio import (
    CircuitFormatError,
    format_circuit,
    load_gate_json,
    parse_circuit,
    parse_gate_spec,
    read_circuit,
    write_circuit,
)
from mcusynth.unitary2 import NAMED_GATES, require_unitary

from conftest import cnot, cv, random_unitary

H, T, X = (NAMED_GATES[name] for name in "HTX")

RNG = np.random.default_rng(99)


def reference_parse(text):
    """The file format read line by line, one gate row at a time: the
    outcome as ("ok", width, rows, v) or ("error", message).  The row rules
    are checked per line; a missing vmatrix only once the file is read,
    at the first cv-kind gate."""

    def fail(message):
        raise CircuitFormatError(message)

    def ints(args, count, lineno, keyword):
        if len(args) != count:
            fail(f"line {lineno}: {keyword} takes {count} argument(s), got {len(args)}")
        try:
            return [int(a) for a in args]
        except ValueError:
            fail(f"line {lineno}: {keyword} arguments must be integers")

    try:
        width = v = None
        gates, gate_lines = [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            keyword, args = fields[0], fields[1:]
            if keyword == "qubits":
                if width is not None:
                    fail(f"line {lineno}: duplicate qubits line")
                width = ints(args, 1, lineno, "qubits")[0]
                if width < 1:
                    fail(f"line {lineno}: need at least 1 qubit")
                if width > MAX_QUBITS:
                    fail(f"line {lineno}: need at most {MAX_QUBITS} qubits")
            elif width is None:
                fail(f"line {lineno}: 'qubits' must come first")
            elif keyword == "vmatrix":
                if v is not None:
                    fail(f"line {lineno}: duplicate vmatrix line")
                if len(args) != 8:
                    fail(f"line {lineno}: vmatrix needs 8 numbers, got {len(args)}")
                try:
                    re_im = [float(a) for a in args]
                except ValueError:
                    fail(f"line {lineno}: bad number in vmatrix")
                v = (np.array(re_im[0::2]) + 1j * np.array(re_im[1::2])).reshape(2, 2)
                try:
                    require_unitary(v, name="v binding")
                except ValueError as exc:
                    fail(f"line {lineno}: {exc}")
            elif keyword in GATE_KINDS:
                control, target = ints(args, 2, lineno, keyword)
                # in Python ints, so an index past int64 is worded too; the
                # keyword names a kind, so no kind code can be unknown here
                if control < 0 or target < 0:
                    fail(f"line {lineno}: qubit indices must be nonnegative")
                if control == target:
                    fail(f"line {lineno}: control and target coincide on qubit {control}")
                if control >= width or target >= width:
                    gate = f"Gate(kind={keyword!r}, control={control}, target={target})"
                    fail(f"line {lineno}: gate {gate} out of range for width {width}")
                gates.append((GATE_KINDS.index(keyword), control, target))
                gate_lines.append(lineno)
            else:
                fail(f"line {lineno}: unknown keyword {keyword!r}")
        if width is None:
            fail("missing 'qubits' line")
        unbound = [(n, kind) for n, (kind, _, _) in zip(gate_lines, gates) if kind != CNOT_CODE]
        if v is None and unbound:
            fail(f"line {unbound[0][0]}: {GATE_KINDS[unbound[0][1]]} gate without a v binding")
    except CircuitFormatError as exc:
        return ("error", str(exc))
    return ("ok", width, tuple(gates), v)


def outcome(text):
    # parse_circuit's result in reference_parse's terms
    try:
        c = parse_circuit(text)
    except CircuitFormatError as exc:
        return ("error", str(exc))
    return ("ok", c.width, tuple(c.rows()), c.v_binding)


def sliced(size):
    """parse_circuit reading its text in slices of about ``size`` characters."""
    return mock.patch.object(textio, "_SLICE", size)


def same_outcome(a, b):
    if a[0] == "error" or b[0] == "error":
        return a == b
    if a[:3] != b[:3] or (a[3] is None) != (b[3] is None):
        return False
    return a[3] is None or np.array_equal(a[3], b[3])


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_synthesized_circuits(self, n, tmp_path):
        original = synth_mcu(n, random_unitary(RNG))
        path = tmp_path / "c.circ"
        write_circuit(original, path)
        assert read_circuit(path) == original

    def test_no_binding(self):
        c = Circuit(2, [cnot(0, 1), cnot(1, 0)])
        assert parse_circuit(format_circuit(c)) == c

    def test_header_is_commented(self):
        text = format_circuit(Circuit(1), header="hello\nworld")
        assert text.startswith("# hello\n# world\n")
        assert parse_circuit(text) == Circuit(1)


class TestParse:
    def test_comments_and_blanks(self):
        text = """
        # a full-line comment
        qubits 2

        cnot 0 1   # trailing comment
        """
        c = parse_circuit(text)
        assert c.width == 2
        assert list(c.rows()) == [cnot(0, 1)]

    def test_vmatrix(self):
        text = "qubits 2\nvmatrix 0 0 1 0 1 0 0 0\ncv 0 1\n"
        c = parse_circuit(text)
        assert np.array_equal(c.v_binding, X)

    @pytest.mark.parametrize(
        "text",
        [
            "cnot 0 1\n",                           # gate before qubits
            "qubits 2\nqubits 2\n",                 # duplicate header
            "qubits 0\n",                           # no qubits
            "qubits 2\nhadamard 0 1\n",             # unknown keyword
            "qubits 2\ncnot 0\n",                   # missing argument
            "qubits 2\ncnot 0 1 2\n",               # extra argument
            "qubits 2\ncnot a b\n",                 # non-integer
            "qubits 2\ncnot 1 1\n",                 # self-loop
            "qubits 2\ncnot 0 2\n",                 # out of range
            "qubits two\n",                         # bad width
            "qubits 2\nvmatrix 1 2 3\n",            # wrong vmatrix arity
            "qubits 2\nvmatrix 1 0 0 0 0 0 1 x\n",  # bad vmatrix number
            "qubits 2\nvmatrix 1 0 0 0 0 0 2 0\n",  # non-unitary vmatrix
            "",                                     # empty file
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(CircuitFormatError):
            parse_circuit(text)

    def test_duplicate_vmatrix(self):
        text = "qubits 2\nvmatrix 0 0 1 0 1 0 0 0\nvmatrix 0 0 1 0 1 0 0 0\n"
        with pytest.raises(CircuitFormatError):
            parse_circuit(text)

    def test_error_carries_line_number(self):
        with pytest.raises(CircuitFormatError, match="line 3"):
            parse_circuit("qubits 2\ncnot 0 1\nbogus 1 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # the vmatrix line is the first fault: a gate below it does not win
            ("qubits 2\nvmatrix 1 0 0 0 0 0 2 0\ncv 0 1\ncnot 0 5\n", "line 2: v binding is not unitary within 1e-09"),
            ("qubits 2\nvmatrix 1 0 0 0 0 0 2 0\ncv 0 1\n", "line 2: v binding is not unitary within 1e-09"),
            ("qubits 2\nvmatrix nan 0 0 0 0 0 1 0\n", "line 2: v binding is not unitary within 1e-09"),
            # a gate fault above it does
            ("qubits 2\ncnot 0 5\nvmatrix 1 0 0 0 0 0 2 0\n",
             "line 2: gate Gate(kind='cnot', control=0, target=5) out of range for width 2"),
        ],
    )
    def test_non_unitary_vmatrix_names_its_line(self, text, message):
        with pytest.raises(CircuitFormatError) as exc:
            parse_circuit(text)
        assert str(exc.value) == message
        assert reference_parse(text) == ("error", message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("qubits 2\ncv 0 1\n", "line 2: cv gate without a v binding"),
            ("qubits 3\ncnot 0 1\ncvdg 1 2\ncv 0 2\n", "line 3: cvdg gate without a v binding"),
            # every other fault, above or below, wins over the missing vmatrix
            ("qubits 2\ncv 0 1\ncnot 0 5\n",
             "line 3: gate Gate(kind='cnot', control=0, target=5) out of range for width 2"),
            ("qubits 2\ncv 0 1\ncnot 0\n", "line 3: cnot takes 2 argument(s), got 1"),
            ("qubits 2\ncv 0 1\nbogus\n", "line 3: unknown keyword 'bogus'"),
        ],
    )
    def test_missing_vmatrix_is_reported_last(self, text, message):
        with pytest.raises(CircuitFormatError) as exc:
            parse_circuit(text)
        assert str(exc.value) == message
        assert reference_parse(text) == ("error", message)

    def test_vmatrix_below_the_gates_binds_them(self):
        text = "qubits 2\ncv 0 1\nvmatrix 0 0 1 0 1 0 0 0\n"
        assert same_outcome(outcome(text), ("ok", 2, (cv(0, 1),), X))
        assert same_outcome(reference_parse(text), outcome(text))


class TestGateSpec:
    @pytest.mark.parametrize("name", sorted(NAMED_GATES))
    def test_named(self, name):
        assert np.array_equal(parse_gate_spec(name), NAMED_GATES[name])

    def test_named_gates_are_read_only(self):
        # shared by every caller: one write would change every later --gate X
        with pytest.raises(ValueError):
            NAMED_GATES["X"][0, 0] = 7
        assert np.array_equal(parse_gate_spec("X"), [[0, 1], [1, 0]])
        assert parse_gate_spec("X").flags.writeable

    def test_unknown_name(self):
        with pytest.raises(CircuitFormatError):
            parse_gate_spec("Q")

    def test_lowercase_is_not_a_name(self):
        with pytest.raises(CircuitFormatError):
            parse_gate_spec("x")

    def test_json_matrix(self, tmp_path):
        path = tmp_path / "h.json"
        payload = {
            "matrix": [
                [[float(H[r, c].real), float(H[r, c].imag)] for c in range(2)]
                for r in range(2)
            ]
        }
        path.write_text(json.dumps(payload))
        assert np.max(np.abs(parse_gate_spec(f"@{path}") - H)) < 1e-15

    def test_json_missing_file(self, tmp_path):
        with pytest.raises(CircuitFormatError):
            parse_gate_spec(f"@{tmp_path / 'nope.json'}")

    def test_json_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
        with pytest.raises(CircuitFormatError):
            load_gate_json(path)

    def test_json_non_unitary(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(CircuitFormatError):
            load_gate_json(path)

    def test_json_not_an_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CircuitFormatError):
            load_gate_json(path)


def test_written_file_is_line_oriented(tmp_path):
    c = synth_mcu(2, X)
    path = tmp_path / "t.circ"
    write_circuit(c, path, header="controls=2 gate=X")
    lines = path.read_text().splitlines()
    assert lines[0] == "# controls=2 gate=X"
    assert lines[1] == "qubits 3"
    assert lines[2].startswith("vmatrix ")
    assert lines[3:] == ["cv 0 2", "cv 1 2", "cnot 0 1", "cvdg 1 2", "cnot 0 1"]


@st.composite
def hand_built_circuits(draw):
    width = draw(st.integers(1, 6))
    pairs = [(c, t) for c in range(width) for t in range(width) if c != t]
    gates = []
    if pairs:
        rows = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(pairs))))
        gates = [(kind, c, t) for kind, (c, t) in rows]
    v = None
    # a cv-kind gate needs a binding; a circuit of cnots may have one
    if draw(st.booleans()) or any(kind != CNOT_CODE for kind, _, _ in gates):
        v = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return Circuit(width, gates, v)


class TestColumnTextIO:
    """format_circuit and parse_circuit work on whole columns; these pin
    them to the line-by-line definition of the format."""

    @settings(max_examples=150, deadline=None)
    @given(hand_built_circuits(), st.data())
    def test_round_trip_with_comments_and_blanks(self, circuit, data):
        text = format_circuit(circuit)
        noisy = []
        for line in text.splitlines():
            noisy.append(line + data.draw(st.sampled_from(["", "  # note", "\t#", " "])))
            noisy += data.draw(st.lists(st.sampled_from(["", "  ", "# comment", "\t# cnot 9 9"]), max_size=2))
        parsed = parse_circuit("\n".join(noisy) + data.draw(st.sampled_from(["", "\n", "\r\n"])))
        assert parsed == circuit
        assert format_circuit(parsed) == text

    @settings(max_examples=800, deadline=None)
    @given(
        st.sampled_from(
            [
                "qubits 2\r\n\r\ncnot 0 1\r\n",
                "qubits 3\nvmatrix 0 0 1 0 1 0 0 0\ncv 0 2\ncv 1 2\ncnot 0 1\ncvdg 1 2\ncnot 0 1\n",
                "# header\nqubits 4\ncnot 0 1 # c\n\ncv 1 3\ncvdg 2 3\ncnot 2 1\n",
            ]
        ),
        st.lists(
            st.tuples(
                st.integers(0, 200),
                st.sampled_from(
                    list("0123456789 -+_#x\t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u0663")
                    + ["cnot ", "cv ", "cvdg ", "qubits ", "vmatrix ", "\r\n", "", "", ""]
                ),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=6,
        ),
        # slices of a few characters put line breaks, blank lines and faults
        # at their cuts
        st.sampled_from([textio._SLICE, 1, 7, 64]),
    )
    # "\r" before a non-ASCII line break is two line breaks, not one "\r\n"
    @example("qubits 3\nvmatrix 0 0 1 0 1 0 0 0\ncv 0 2\ncv 1 2\ncnot 0 1\ncvdg 1 2\ncnot 0 1\n", [(0, "0", 0), (0, "\r", 0), (1, "\x85", 0)], 1)
    @example("qubits 3\nvmatrix 0 0 1 0 1 0 0 0\ncv 0 2\ncv 1 2\ncnot 0 1\ncvdg 1 2\ncnot 0 1\n", [(0, "\r", 0), (1, "\u2028", 0)], 7)
    # a "\r\n" and a blank line at a cut
    @example("qubits 2\r\n\r\ncnot 0 1\r\n", [], 1)
    @example("qubits 2\r\n\r\ncnot 0 1\r\n", [], 9)
    def test_matches_line_by_line_reference(self, base, edits, slice_size):
        # each edit deletes up to 3 characters at a position and inserts a piece
        text = base
        for at, piece, cut in edits:
            at %= len(text) + 1
            text = text[:at] + piece + text[at + cut :]
        with sliced(slice_size):
            assert same_outcome(outcome(text), reference_parse(text))

    def test_separators_and_line_breaks_match_str(self):
        # every code point str.split separates words at or str.splitlines
        # breaks lines at, as each, and as a break after "\r"
        special = [
            chr(code)
            for code in range(0x110000)
            if chr(code).isspace() or len(f"a{chr(code)}b".splitlines()) == 2
        ]
        for ch in special:
            for text in (
                f"qubits{ch}3{ch}\ncnot{ch}0{ch}{ch}2\n",
                f"qubits 3{ch}cnot 0 2{ch}{ch}cv 1 2 #{ch}vmatrix 0 0 1 0 1 0 0 0{ch}",
                f"qubits 3\r{ch}cnot 0 2\r{ch}",
            ):
                assert same_outcome(outcome(text), reference_parse(text)), (hex(ord(ch)), text)

    @pytest.mark.parametrize(
        "width, key_type", [(147, np.uint16), (148, np.uint32), ((1 << 16) + 1, np.uint64)]
    )
    def test_gate_keys_at_each_dtype_boundary(self, width, key_type):
        # format_circuit numbers gates by Circuit.gate_keys(), (control *
        # width + target) * 3 + kind, below 3 * width^2, in the smallest
        # unsigned dtype; the top wires give the largest keys
        assert np.min_scalar_type(len(GATE_KINDS) * width**2) == key_type
        top, below = width - 1, width - 2
        pairs = [(top, below), (below, top), (top, 0), (0, top)]
        rows = [(kind, c, t) for c, t in pairs for kind in range(len(GATE_KINDS))]
        # and the gates whose keys a dtype half as wide would wrap those onto
        wrap = 1 << (4 * np.dtype(key_type).itemsize)
        for kind, c, t in list(rows):
            pair, alias_kind = divmod(((c * width + t) * 3 + kind) % wrap, 3)
            if pair // width != pair % width:
                rows.append((alias_kind, *divmod(pair, width)))
        gates = [rows[i] for i in RNG.permutation(np.arange(100) % len(rows))]
        circuit = Circuit(width, gates, X)
        assert circuit.gate_keys().dtype == key_type
        body = "".join(f"{GATE_KINDS[kind]} {c} {t}\n" for kind, c, t in gates)
        text = format_circuit(circuit)
        assert text.split("\n", 2)[2] == body
        assert parse_circuit(text) == circuit

    def test_all_distinct_lines_round_trip(self):
        # no line repeats, so every line is read on its own, over several slices
        width = 1 << 20
        pairs = RNG.choice(width, size=(30_000, 2), replace=False)
        kinds = RNG.integers(0, len(GATE_KINDS), size=len(pairs))
        circuit = Circuit(width, np.column_stack((kinds, pairs)), X)
        text = format_circuit(circuit)
        assert len(set(text.splitlines())) == len(text.splitlines())
        for size in (textio._SLICE, 1 << 16):
            with sliced(size):
                assert parse_circuit(text) == circuit
        assert same_outcome(outcome(text), reference_parse(text))


@pytest.fixture(scope="module")
def twelve_control_lines():
    return format_circuit(synth_mcu(12, T), header="controls=12 gate=T").splitlines()


class TestDeepParseErrors:
    """A fault deep in a 45,060-line file names its own line, in the words
    the line-by-line reader uses."""

    LINE = 40_123

    def read_in_slices(self, lines):
        """parse_circuit's error on the lines, the same at each slice size:
        the default, 64 characters, and the cuts just above and below LINE."""
        text = "\n".join(lines) + "\n"
        above = len("\n".join(lines[: self.LINE - 1])) + 1
        messages = set()
        for size in (textio._SLICE, 64, above, above + len(lines[self.LINE - 1]) + 1):
            with sliced(size), pytest.raises(CircuitFormatError) as exc:
                parse_circuit(text)
            messages.add(str(exc.value))
        assert len(messages) == 1
        return messages.pop()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("cnot 0 13", "gate Gate(kind='cnot', control=0, target=13) out of range for width 13"),
            ("cv 12 12", "control and target coincide on qubit 12"),
            ("cvdg -1 12", "qubit indices must be nonnegative"),
            ("cnot 0 one", "cnot arguments must be integers"),
            ("cnot 0 1.5", "cnot arguments must be integers"),
            ("cvdg 3", "cvdg takes 2 argument(s), got 1"),
            ("cnot 1 2 3", "cnot takes 2 argument(s), got 3"),
            ("ccx 0 1", "unknown keyword 'ccx'"),
            ("qubits 13", "duplicate qubits line"),
        ],
    )
    def test_names_the_line(self, twelve_control_lines, bad, message):
        lines = list(twelve_control_lines)
        lines[self.LINE - 1] = bad
        # a later fault of another kind must not win
        lines[self.LINE + 500] = "cnot 0"
        assert self.read_in_slices(lines) == f"line {self.LINE}: {message}"
        assert reference_parse("\n".join(lines) + "\n") == ("error", f"line {self.LINE}: {message}")

    def test_two_fields_then_four_do_not_realign(self, twelve_control_lines):
        # "cv 0" + "12 cnot 0 1" would read as two valid gates if the tokens
        # were dealt out three per row regardless of lines
        lines = list(twelve_control_lines)
        lines[self.LINE - 1 : self.LINE + 1] = ["cv 0", "12 cnot 0 1"]
        assert self.read_in_slices(lines) == f"line {self.LINE}: cv takes 2 argument(s), got 1"

    def test_first_of_two_gate_faults_wins(self, twelve_control_lines):
        lines = list(twelve_control_lines)
        lines[self.LINE - 1] = "cnot 0 99"
        lines[self.LINE + 10] = "cnot 0 x"
        assert self.read_in_slices(lines).startswith(f"line {self.LINE}: gate ")


@pytest.mark.parametrize(
    "qubits, message",
    [
        # int() reads the index, int64 cannot hold it: the gate check words it
        ("3", "line 2: gate Gate(kind='cnot', control=0, target=99999999999999999999) out of range for width 3"),
        # a width past int64 is past the qubit bound, so no gate is read
        ("999999999999999999999", f"line 1: need at most {MAX_QUBITS} qubits"),
    ],
    ids=["out_of_range", "past_int64"],
)
def test_index_past_int64(qubits, message):
    text = f"qubits {qubits}\ncnot 0 99999999999999999999\n"
    with pytest.raises(CircuitFormatError) as exc:
        parse_circuit(text)
    assert str(exc.value) == message
    assert reference_parse(text) == ("error", message)


class TestQubitBound:
    """Gate keys are control * width + target in int64, so widths stop at
    MAX_QUBITS; the top of that range reads and writes like any other."""

    TOP = (MAX_QUBITS - 1, MAX_QUBITS - 2, 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(TOP), st.sampled_from(TOP)).filter(
                lambda g: g[1] != g[2]
            ),
            max_size=30,
        )
    )
    def test_round_trip_at_the_top_of_the_key_range(self, rows):
        circuit = Circuit(MAX_QUBITS, rows, X)
        text = format_circuit(circuit)
        gate_lines = text.splitlines()[2:]
        assert gate_lines == [f"{GATE_KINDS[kind]} {control} {target}" for kind, control, target in rows]
        assert parse_circuit(text) == circuit

    def test_widest_circuit_parses(self):
        text = f"qubits {MAX_QUBITS}\ncnot {MAX_QUBITS - 1} {MAX_QUBITS - 2}\n"
        assert parse_circuit(text) == Circuit(MAX_QUBITS, [cnot(MAX_QUBITS - 1, MAX_QUBITS - 2)])

    def test_wider_is_refused_with_its_line(self):
        text = "# header\nqubits 1073741825\ncnot 0 1\n"
        message = "line 2: need at most 1073741824 qubits"
        with pytest.raises(CircuitFormatError) as exc:
            parse_circuit(text)
        assert str(exc.value) == message
        assert reference_parse(text) == ("error", message)


class TestReadCaps:
    """Files are read up to a byte cap plus one, so an endless or huge file
    is refused before it fills memory."""

    def test_circuit_file_at_the_cap_is_read(self, tmp_path):
        path = tmp_path / "c.circ"
        head = b"qubits 1\n"
        path.write_bytes(head + b"#" * (textio.MAX_CIRCUIT_BYTES - len(head) - 1) + b"\n")
        assert read_circuit(path) == Circuit(1)

    def test_circuit_text_past_the_cap_is_refused(self):
        text = "qubits 1\n" + " " * textio.MAX_CIRCUIT_BYTES
        with pytest.raises(CircuitFormatError, match="^circuit text exceeds the cap of 16777216 bytes$"):
            parse_circuit(text)

    @pytest.mark.parametrize("char", ["x", "é"], ids=["one_byte", "two_byte"])
    def test_comment_counts_toward_the_cap(self, char):
        # the cap is on the UTF-8 bytes of the text as given, as read_circuit
        # caps the file, so a comment counts like any other text
        text = f"qubits 1\n#{char * (textio.MAX_CIRCUIT_BYTES // len(char.encode()))}\n"
        with pytest.raises(CircuitFormatError, match="^circuit text exceeds the cap of 16777216 bytes$"):
            parse_circuit(text)

    def test_gate_file_cap(self, tmp_path):
        path = tmp_path / "g.json"
        body = json.dumps({"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}).encode()
        path.write_bytes(body + b" " * (textio.MAX_GATE_BYTES - len(body)))
        assert np.array_equal(load_gate_json(path), X)
        path.write_bytes(body + b" " * (textio.MAX_GATE_BYTES + 1 - len(body)))
        with pytest.raises(CircuitFormatError) as exc:
            load_gate_json(path)
        assert str(exc.value) == f"{path}: gate file exceeds the cap of {textio.MAX_GATE_BYTES} bytes"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read_past_its_stated_size(self):
        # a pipe states size 0, so its text comes from the second read
        read, write = os.pipe()
        os.write(write, b"qubits 2\ncnot 0 1\n")
        os.close(write)
        try:
            assert read_circuit(f"/dev/fd/{read}") == Circuit(2, [cnot(0, 1)])
        finally:
            os.close(read)

    def test_decoded_as_read_text(self, tmp_path):
        # universal newlines, as Path.read_text reads them
        path = tmp_path / "c.circ"
        path.write_bytes(b"qubits 2\r\ncnot 0 1\rcnot 1 0\n")
        assert read_circuit(path) == parse_circuit(path.read_text())


BOM = codecs.BOM_UTF8
GATE_BYTES = json.dumps({"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}).encode()


class TestByteOrderMark:
    """One leading UTF-8 byte order mark is skipped; a U+FEFF anywhere else
    is text like any other."""

    def test_marked_files_read_as_unmarked(self, tmp_path):
        circuit, gate = tmp_path / "c.circ", tmp_path / "g.json"
        circuit.write_bytes(BOM + b"qubits 2\ncnot 0 1\n")
        gate.write_bytes(BOM + GATE_BYTES)
        assert read_circuit(circuit) == Circuit(2, [cnot(0, 1)])
        assert np.array_equal(load_gate_json(gate), X)

    @pytest.mark.parametrize(
        "body, line",
        [(BOM + b"qubits 2\n", 1), (b"qubits 2\n" + BOM + b"cnot 0 1\n", 2)],
        ids=["second_mark", "later_line"],
    )
    def test_other_marks_are_errors(self, tmp_path, body, line):
        path = tmp_path / "c.circ"
        path.write_bytes(BOM + body)
        with pytest.raises(CircuitFormatError, match=f"^line {line}: "):
            read_circuit(path)

    def test_other_marks_in_a_gate_file_are_errors(self, tmp_path):
        path = tmp_path / "g.json"
        for body in (BOM + BOM + GATE_BYTES, GATE_BYTES[:1] + BOM + GATE_BYTES[1:]):
            path.write_bytes(body)
            with pytest.raises(CircuitFormatError, match="^cannot read gate file "):
                load_gate_json(path)

    def test_decode_error_names_the_file_offset(self, tmp_path):
        # the bad byte's offset counts the mark's 3 bytes
        path = tmp_path / "c.circ"
        path.write_bytes(BOM + b"qubits 2\n#\xff\n")
        with pytest.raises(CircuitFormatError) as exc:
            read_circuit(path)
        assert str(exc.value) == (
            f"{path}: circuit file does not decode as utf-8 at byte 13 (invalid start byte)"
        )
