"""Command-line surface tying the identity engine, synthesizer and simulator.

Subcommands:

    verify-identity --n N [--recurrent-only --samples K]
    synth --controls N --gate SPEC [--optimize] --out PATH
    check --circuit PATH --controls N --gate SPEC
    simulate --circuit PATH --input BITS

``cmd_check`` takes the exact linear trace when ``linear_trace`` returns
one, as it does for the synthesizer's shape at every width ``synth``
emits, and falls back to the dense ``circuit_unitary`` when it returns
None; ``run_circuit`` makes the same choice for ``simulate``.  The dense
route runs under its caps, whose ``DenseCapError`` exits 2 here before
the dense loop runs.  ``simulate`` refuses past ``MAX_CONTROLS`` + 1
qubits before it allocates the state.

Exit codes are a stable contract: 0 success / all checks pass, 1 a
verification failed, 2 usage or parse error.

Circuit and gate files are UTF-8 whatever the locale, and so is the output:
``main`` sets stdout to UTF-8 when it is a text stream over bytes.

The argument parser is built once, at import; ``main(argv)`` only parses
into a fresh namespace, so it may be called repeatedly in one process.  A
usage error or ``--help`` raises ``SystemExit`` (2 or 0) as argparse does
and leaves the next call unaffected.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

import numpy as np

from . import z2identity
from .simulator import (
    DenseCapError,
    circuit_unitary,
    linear_trace,
    operator_distance,
    reference_mcu,
    run_circuit,
    trace_operands,
)
# unused here: the benchmark's traced run wraps cli.peephole_cancel by name
# until ROADMAP item A lets that hook go
from .synthesize import canonical_counts, peephole_cancel, synth_mcu
from .textio import CircuitFormatError, parse_gate_spec, read_circuit, write_circuit

RECURRENT_LIMIT = 24
# the sampled verifier holds one samples x n int8 table, 24 MB at this cap
# and n = 24, plus int64 temporaries of z2identity._FOLD_ROWS rows per pass.
# There `verify-identity --n 24 --recurrent-only` takes 0.37-0.45 s and peaks
# at 58 MiB RSS in a fresh interpreter (2-core Xeon).  CI fails it above 100 MiB
MAX_SAMPLES = 1_000_000
# synth_mcu emits 2^n - 1 + 2*(n*2^(n-1) - 2^n + 1) gates: 983,041 at n=16,
# a 9.6 MB file; `synth` takes 0.29-0.44 s there at 102 MiB peak RSS (15
# fresh interpreters, 2-core Xeon), and each further control more than
# doubles the gate count.  CI fails that synth above 140 MiB.  `check` of
# that file takes the time and memory stated at textio.MAX_CIRCUIT_BYTES:
# its reader parses the file's 154 distinct lines once each, and its linear
# trace is one pass over the gates plus a few arrays of 2^n entries
MAX_CONTROLS = 16
CHECK_TOLERANCE = 1e-9
AMPLITUDE_FLOOR = 1e-12


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fmt_number(x: float) -> str:
    out = f"{x:.12g}"
    if "." not in out and "e" not in out and "inf" not in out and "nan" not in out:
        out += ".0"
    return out


def _fmt_amplitude(z: complex) -> str:
    re, im = z.real, z.imag
    if abs(im) <= AMPLITUDE_FLOOR:
        return _fmt_number(re)
    if abs(re) <= AMPLITUDE_FLOOR:
        return f"{_fmt_number(im)}j"
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_number(re)}{sign}{_fmt_number(abs(im))}j"


def cmd_verify_identity(args: argparse.Namespace) -> int:
    n = args.n
    if args.recurrent_only:
        samples = 1000 if args.samples is None else args.samples
        if not 1 <= n <= RECURRENT_LIMIT:
            return _usage_error(f"--recurrent-only supports 1 <= n <= {RECURRENT_LIMIT}")
        if samples < 1:
            return _usage_error("--samples must be at least 1")
        if samples > MAX_SAMPLES:
            return _usage_error(f"--samples must be at most {MAX_SAMPLES}")
    elif args.samples is not None:
        return _usage_error("--samples needs --recurrent-only")
    elif not 1 <= n <= z2identity.EXHAUSTIVE_LIMIT:
        return _usage_error(
            f"full mode supports 1 <= n <= {z2identity.EXHAUSTIVE_LIMIT}"
            " (use --recurrent-only beyond that)"
        )

    if args.recurrent_only:
        reports = z2identity.verify_closed_form_sampled_prefixes(n, samples)
    else:
        reports = z2identity.verify_exhaustive(n)
    reports.append(z2identity.verify_xor_int_laws())
    reports += z2identity.verify_sum_shift_laws(n)
    reports.append(z2identity.verify_alternating_binomial())

    for report in reports:
        print(report.summary())
    if all(r.passed for r in reports):
        print("all checks passed")
        return 0
    return 1


def _counts_line(c) -> str:
    return f"cnot={c.cnot} cv={c.cv} cvdg={c.cvdg} total={c.total}"


def _controls_error(controls: int) -> str | None:
    if controls < 1:
        return "--controls must be at least 1"
    if controls > MAX_CONTROLS:
        return f"--controls must be at most {MAX_CONTROLS}"
    return None


def cmd_synth(args: argparse.Namespace) -> int:
    if error := _controls_error(args.controls):
        return _usage_error(error)
    try:
        u = parse_gate_spec(args.gate)
    except CircuitFormatError as exc:
        return _usage_error(str(exc))

    circuit = synth_mcu(args.controls, u, gray=args.optimize)
    # written before anything is printed, so a failed write prints only its error
    # the spec as UTF-8 text of the bytes it was given as, so a locale that
    # cannot decode them leaves no surrogate that the UTF-8 file cannot hold
    gate = os.fsencode(args.gate).decode("utf-8", "backslashreplace")
    header = f"controls={args.controls} gate={gate}"
    try:
        write_circuit(circuit, args.out, header=header)
    except OSError as exc:
        return _usage_error(f"cannot write {args.out}: {exc}")
    if args.optimize:
        print(f"before: {_counts_line(canonical_counts(args.controls))}")
        print(f"after:  {_counts_line(circuit.counts())}")
    else:
        print(_counts_line(circuit.counts()))
    print(f"wrote {args.out}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if error := _controls_error(args.controls):
        return _usage_error(error)
    try:
        u = parse_gate_spec(args.gate)
        circuit = read_circuit(args.circuit)
    except (CircuitFormatError, OSError) as exc:
        return _usage_error(str(exc))

    if circuit.width != args.controls + 1:
        return _usage_error(
            f"circuit width {circuit.width} does not match controls+1 = {args.controls + 1}"
        )
    if (trace := linear_trace(circuit)) is not None:
        actual, reference = trace_operands(trace, u)
    else:
        try:
            actual = circuit_unitary(circuit)
        except DenseCapError as exc:
            return _usage_error(str(exc))
        reference = reference_mcu(args.controls, u)

    distance = operator_distance(actual, reference)
    # a round-off residual prints as 0.0, so the output does not move with it
    print(f"distance {_fmt_number(distance if distance >= AMPLITUDE_FLOOR else 0.0)}")
    if distance < CHECK_TOLERANCE:
        print("PASS")
        return 0
    print(f"FAIL (tolerance {CHECK_TOLERANCE})")
    return 1


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        circuit = read_circuit(args.circuit)
    except (CircuitFormatError, OSError) as exc:
        return _usage_error(str(exc))

    # a dense state of MAX_CONTROLS + 1 qubits is 2 MiB plus 1 MiB of scratch,
    # and the trace route takes every width synth emits
    if circuit.width > MAX_CONTROLS + 1:
        return _usage_error(f"width {circuit.width} exceeds the state-vector cap {MAX_CONTROLS + 1}")
    if any(ch not in "01" for ch in args.input) or not args.input:
        return _usage_error(f"--input must be a nonempty bitstring, got {args.input!r}")
    if len(args.input) != circuit.width:
        return _usage_error(
            f"input has {len(args.input)} bits, circuit width is {circuit.width}"
        )
    # qubit 0 is the most significant bit of a basis index
    state = np.zeros(1 << circuit.width, dtype=complex)
    state[int(args.input, 2)] = 1
    try:
        final = run_circuit(circuit, state)
    except DenseCapError as exc:
        return _usage_error(str(exc))

    for index in np.flatnonzero(np.abs(final) > AMPLITUDE_FLOOR).tolist():
        print(f"|{index:0{circuit.width}b}⟩: {_fmt_amplitude(final[index])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcusynth",
        description="Synthesize n-controlled single-qubit unitaries from cnot and "
        "controlled-V gates, and verify them against the n-controlled-U definition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-identity",
        help="exhaustively check the parity-sum identities the synthesis rests on",
    )
    p.add_argument("--n", type=int, required=True, help="largest bit-vector width to check")
    p.add_argument(
        "--recurrent-only",
        action="store_true",
        help="skip direct enumeration; sample the recurrent form instead",
    )
    p.add_argument("--samples", type=int, help="samples per n in recurrent mode")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("synth", help="synthesize an n-controlled gate to a circuit file")
    p.add_argument("--controls", type=int, required=True)
    p.add_argument("--gate", required=True, help="named gate (I X Y Z H S T) or @matrix.json")
    p.add_argument(
        "--optimize",
        action="store_true",
        help="emit the subsets in Gray-code order: 2^(n+1) - 3 gates",
    )
    p.add_argument("--out", required=True, help="output circuit file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("check", help="compare a circuit file against the reference operator")
    p.add_argument("--circuit", required=True)
    p.add_argument("--controls", type=int, required=True)
    p.add_argument("--gate", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run a circuit file on a basis state")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="bitstring, one bit per qubit")
    p.set_defaults(func=cmd_simulate)

    return parser


# built once: parsing leaves the parser unchanged, and a build takes about
# 0.45 ms, half of an 8-control check request in-process (2-core Xeon)
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    # stdout is UTF-8 like the files, whatever the locale: simulate prints
    # "⟩", and a path from the command line goes back out as its own bytes
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
