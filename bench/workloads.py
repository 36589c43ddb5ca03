"""Request mixes and known answers for the benchmark workloads.

A workload is a sequence of rounds.  A round is a fixed mix of CLI requests
(one request = one user action at a terminal); the seed picks the order of
the mix and every input in it, never its composition, so the latency
distribution has the same shape for every seed.

Every request carries the answer it must produce.  The answers are derived
here from the construction and from the gate matrix U alone; nothing in this
file imports mcusynth.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# the CLI's own pass/fail tolerance for `check`
CHECK_TOLERANCE = 1e-9
# printed amplitudes carry 12 significant digits
AMPLITUDE_TOLERANCE = 1e-9
# a mutant whose deleted gate is a cv/cvdg is off by a factor V^(+-1) on some
# control assignment; its distance is at least ||V - I|| / 2, so a mutant is
# only drawn from a file whose V is this far from the identity
MUTANT_MIN_V_DISTANCE = 1e-6

_S2 = 1 / math.sqrt(2)
NAMED_GATES = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}
GATE_KEYWORDS = ("cnot", "cv", "cvdg")

Check = Callable[[int, str], "str | None"]


@dataclass
class Request:
    """One CLI invocation plus the known answer it is judged against."""

    kind: str
    argv: list[str]
    check: Check
    # client-side step run before the request and outside its timing
    prepare: Callable[[], None] | None = None
    mutant: bool = False
    # request class, e.g. "check w9 mutant"; latencies are also reported per class
    label: str = ""


@dataclass
class Workload:
    name: str
    why: str
    make_round: Callable[[np.random.Generator, Path, int], list[Request]]
    # percentile reported as latency_tail_s; see README "Tail percentile"
    tail_percentile: float
    # layer -> predicted share of request time, from the baseline numbers
    predicted_share: dict[str, float]


# ---------------------------------------------------------------- answers


def plain_counts(n: int) -> tuple[int, int, int]:
    """(cnot, cv, cvdg) of the unoptimized n-control circuit.

    One block per nonempty subset of the controls: odd subsets apply cv,
    even ones cvdg, and a k-subset costs 2(k - 1) cnots, so the cnots sum to
    2 * (n 2^(n-1) - 2^n + 1).
    """
    return 2 * (n * 2 ** (n - 1) - 2**n + 1), 2 ** (n - 1), 2 ** (n - 1) - 1


def peephole_counts(n: int) -> tuple[int, int, int]:
    """(cnot, cv, cvdg) after cancelling adjacent inverse pairs.

    Blocks come in canonical order (size ascending, lexicographic).  Block S
    ends with its cnot chain reversed, cnot(s1, s2) last; the next block S'
    starts with cnot(s'1, s'2).  The links cancel outward while they agree,
    i.e. (common prefix of S and S') - 1 pairs, and stop at the cv-kind gate.
    No cv-kind gate ever meets its inverse, so those counts are unchanged.
    """
    cnot, cv, cvdg = plain_counts(n)
    for k in range(3, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        for a, b in zip(subsets, subsets[1:]):
            prefix = 0
            while a[prefix] == b[prefix]:
                prefix += 1
            cnot -= 2 * max(0, prefix - 1)
    return cnot, cv, cvdg


def counts_line(counts: tuple[int, int, int]) -> str:
    cnot, cv, cvdg = counts
    return f"cnot={cnot} cv={cv} cvdg={cvdg} total={cnot + cv + cvdg}"


def root_distance_from_identity(u: np.ndarray, k: int) -> float:
    """||V - I|| (spectral) for V the principal 2^k-th root of u."""
    phases = np.angle(np.linalg.eigvals(u))
    return float(np.max(np.abs(np.exp(1j * phases / 2**k) - 1)))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def expected_amplitudes(u: np.ndarray, bits: str) -> dict[str, complex]:
    """Output of the n-controlled-U on basis input |bits>, from U alone."""
    controls, target = bits[:-1], int(bits[-1])
    if set(controls) != {"1"}:
        return {bits: 1.0}
    return {controls + str(t): complex(u[t, target]) for t in (0, 1)}


def identity_report(n: int, samples: int | None) -> list[str]:
    """The exact lines `verify-identity` prints when every identity holds.

    Case counts follow from the definitions: 2^k assignments of k bits,
    17^3 triples on [-8, 8], 500 sum-shift trials per width and the
    alternating binomial identity for n = 2..60.
    """
    if samples is None:
        lines = [f"closed-form n={k}: PASS ({2**k} assignments)" for k in range(1, n + 1)]
        lines += [f"recurrence n={k}: PASS ({2**k} cases)" for k in range(2, n + 1)]
    else:
        lines = [
            f"closed-form (sampled) n={k}: PASS ({samples} samples)" for k in range(1, n + 1)
        ]
    lines.append(f"xor-int-laws [-8,8]: PASS ({17**3} triples)")
    lines += [f"sum-shift-laws n={k}: PASS (500 samples)" for k in range(1, n + 1)]
    lines.append("alternating-binomial n=2..60: PASS (59 values)")
    lines.append("all checks passed")
    return lines


# ------------------------------------------------------------- validators


def gate_lines(path: Path) -> tuple[int | None, int]:
    width, gates = None, 0
    for line in path.read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields and fields[0] == "qubits":
            width = int(fields[1])
        elif fields and fields[0] in GATE_KEYWORDS:
            gates += 1
    return width, gates


def check_synth(n: int, optimize: bool, path: Path) -> Check:
    plain = counts_line(plain_counts(n))

    def check(rc: int, out: str) -> str | None:
        lines = out.splitlines()
        if rc != 0:
            return f"synth exit {rc}"
        if lines[-1:] != [f"wrote {path}"]:
            return f"synth did not report writing {path}"
        if not optimize:
            if lines != [plain, f"wrote {path}"]:
                return f"synth counts {lines[:-1]} != {plain!r}"
            total = sum(plain_counts(n))
        else:
            # the optimizer may improve; it may never grow the circuit
            if len(lines) != 3 or lines[0] != f"before: {plain}":
                return f"synth --optimize before-line {lines[:1]} != {plain!r}"
            after = dict(kv.split("=") for kv in lines[1].removeprefix("after:").split())
            total = int(after["total"])
            if total > sum(plain_counts(n)):
                return f"peephole grew the circuit to {total} gates"
        width, gates = gate_lines(path)
        if width != n + 1 or gates != total:
            return f"{path.name}: qubits {width}, {gates} gate lines; want {n + 1}, {total}"
        return None

    return check


def check_verdict(should_pass: bool) -> Check:
    def check(rc: int, out: str) -> str | None:
        lines = out.splitlines()
        verdict = lines[-1].split()[0] if lines and lines[-1].split() else ""
        distances = [float(l.split()[1]) for l in lines if l.startswith("distance ")]
        if should_pass:
            if rc != 0 or verdict != "PASS":
                return f"correct circuit got exit {rc}, verdict {verdict!r}"
            if any(d >= CHECK_TOLERANCE for d in distances):
                return f"PASS with distance {distances}"
        else:
            if rc != 1 or verdict != "FAIL":
                return f"mutant got exit {rc}, verdict {verdict!r}"
            if any(d < CHECK_TOLERANCE for d in distances):
                return f"FAIL with distance {distances}"
        return None

    return check


def check_simulate(u: np.ndarray, bits: str) -> Check:
    want = expected_amplitudes(u, bits)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"simulate exit {rc}"
        got: dict[str, complex] = {}
        for line in out.splitlines():
            label, _, amp = line.partition("⟩: ")
            if not label.startswith("|") or not amp:
                return f"unparsable simulate line {line!r}"
            got[label[1:]] = complex(amp)
        for label in set(want) | set(got):
            w, g = want.get(label, 0), got.get(label, 0)
            if abs(w - g) > AMPLITUDE_TOLERANCE:
                return f"amplitude of |{label}> is {g}, want {w}"
        return None

    return check


def check_identity(n: int, samples: int | None) -> Check:
    want = identity_report(n, samples)

    def check(rc: int, out: str) -> str | None:
        lines = out.splitlines()
        if rc != 0 or lines != want:
            bad = next((l for l in lines if "FAIL" in l), None)
            return f"verify-identity exit {rc}; " + (bad or f"{len(lines)} lines != expected")
        return None

    return check


# -------------------------------------------------------------- inputs


def gate_spec(rng: np.random.Generator, workdir: Path, tag: str, min_v_distance_k: int | None):
    """Half named gates, half Haar-random @json matrices; returns (spec, U).

    With ``min_v_distance_k`` set, U is redrawn until its 2^k-th root is far
    from the identity, so a deleted cv-kind gate is visible to `check`.
    """
    while True:
        if rng.random() < 0.5:
            name = str(rng.choice(sorted(NAMED_GATES)))
            spec, u = name, NAMED_GATES[name]
        else:
            u = haar_unitary(rng)
            path = workdir / f"{tag}.json"
            rows = [[[float(e.real), float(e.imag)] for e in row] for row in u]
            path.write_text(json.dumps({"matrix": rows}))
            spec = f"@{path}"
        if (
            min_v_distance_k is None
            or root_distance_from_identity(u, min_v_distance_k) > MUTANT_MIN_V_DISTANCE
        ):
            return spec, u


def delete_gate(src: Path, dst: Path, fraction: float) -> Callable[[], None]:
    """Client-side step: copy src to dst without one gate line."""

    def prepare() -> None:
        lines = src.read_text().splitlines(keepends=True)
        gate_rows = [i for i, l in enumerate(lines) if l.split()[:1] and l.split()[0] in GATE_KEYWORDS]
        drop = gate_rows[int(fraction * len(gate_rows))]
        dst.write_text("".join(l for i, l in enumerate(lines) if i != drop))

    return prepare


def _shuffled_units(rng: np.random.Generator, units: list[list[Request]]) -> list[Request]:
    order = rng.permutation(len(units))
    return [req for i in order for req in units[i]]


# ------------------------------------------------------------- workloads


def check_dense_round(
    rng: np.random.Generator, workdir: Path, index: int, sizes=(7, 8)
) -> list[Request]:
    """synth (plain and --optimize) then check, for each control count.

    Mutants: both files at the smallest size, the optimized file elsewhere,
    which makes 3 of 11 requests at the default sizes.  The composition puts
    the median inside the width-8 checks and p75 inside the optimized
    width-9 checks; smaller widths would put the median on millisecond
    requests, whose latency is mostly scheduling jitter on a shared host.
    """
    units = []
    for n in sizes:
        for optimize in (False, True):
            mutant = optimize or n == sizes[0]
            tag = f"cd{index}_{n}_{'opt' if optimize else 'raw'}"
            spec, u = gate_spec(rng, workdir, tag, n - 1 if mutant else None)
            path = workdir / f"{tag}.txt"
            synth = ["synth", "--controls", str(n), "--gate", spec, "--out", str(path)]
            kind = "opt" if optimize else "raw"
            unit = [
                Request(
                    "synth",
                    synth + ["--optimize"] * optimize,
                    check_synth(n, optimize, path),
                    label=f"synth n={n} {kind}",
                ),
                Request(
                    "check",
                    ["check", "--circuit", str(path), "--controls", str(n), "--gate", spec],
                    check_verdict(True),
                    label=f"check w{n + 1} {kind}",
                ),
            ]
            if mutant:
                bad = workdir / f"{tag}_mutant.txt"
                unit.append(
                    Request(
                        "check",
                        ["check", "--circuit", str(bad), "--controls", str(n), "--gate", spec],
                        check_verdict(False),
                        prepare=delete_gate(path, bad, rng.random()),
                        mutant=True,
                        label=f"check w{n + 1} {kind} mutant",
                    )
                )
            units.append(unit)
    return _shuffled_units(rng, units)


def _basis_input(rng: np.random.Generator, n: int, hot: bool) -> str:
    """n control bits plus a target bit; ``hot`` sets every control."""
    controls = np.ones(n, dtype=int)
    while not hot and controls.all():
        controls = rng.integers(2, size=n)
    return "".join(map(str, controls)) + str(rng.integers(2))


def emit_simulate_round(
    rng: np.random.Generator, workdir: Path, index: int, sizes=(10, 11, 12)
) -> list[Request]:
    """synth (plain and --optimize) then simulate basis inputs.

    The optimized file is simulated twice: once with every control set, so
    the target must carry U's column, and once without, so the state must
    come back unchanged.  The plain file gets one input of either kind.
    Five requests per size keep the round odd, so the median falls inside
    one request class instead of between two.
    """
    units = []
    for n in sizes:
        for optimize in (False, True):
            tag = f"es{index}_{n}_{'opt' if optimize else 'raw'}"
            spec, u = gate_spec(rng, workdir, tag, None)
            path = workdir / f"{tag}.txt"
            synth = ["synth", "--controls", str(n), "--gate", spec, "--out", str(path)]
            kind = "opt" if optimize else "raw"
            unit = [
                Request(
                    "synth",
                    synth + ["--optimize"] * optimize,
                    check_synth(n, optimize, path),
                    label=f"synth n={n} {kind}",
                )
            ]
            for hot in (True, False) if optimize else (bool(rng.integers(2)),):
                bits = _basis_input(rng, n, hot)
                unit.append(
                    Request(
                        "simulate",
                        ["simulate", "--circuit", str(path), "--input", bits],
                        check_simulate(u, bits),
                        label=f"simulate w{n + 1} {kind}",
                    )
                )
            units.append(unit)
    return _shuffled_units(rng, units)


def identity_round(
    rng: np.random.Generator,
    workdir: Path,
    index: int,
    full=(10, 11, 12),
    recurrent=(20, 21, 22, 23, 24),
    samples=(250, 1000),
) -> list[Request]:
    """verify-identity in full mode and in --recurrent-only mode.

    Each recurrent width runs once per sample count, which keeps the round
    at 13 requests so that p75 has at least 10 requests beyond it.
    """
    units = [
        [
            Request(
                "identity",
                ["verify-identity", "--n", str(n)],
                check_identity(n, None),
                label=f"verify-identity n={n}",
            )
        ]
        for n in full
    ]
    for n in recurrent:
        for k in samples:
            argv = ["verify-identity", "--n", str(n), "--recurrent-only", "--samples", str(k)]
            label = f"verify-identity n={n} recurrent samples={k}"
            units.append([Request("identity", argv, check_identity(n, k), label=label)])
    return _shuffled_units(rng, units)


WORKLOADS = {
    "check_dense": Workload(
        "check_dense",
        "synth then dense check at 7-8 controls, one request in four a one-gate mutant;"
        " the paper's core loop, ~95% in circuit_unitary",
        check_dense_round,
        tail_percentile=75,
        predicted_share={"simulator": 0.95, "synthesize": 0.02},
    ),
    "emit_simulate": Workload(
        "emit_simulate",
        "synth at 10-12 controls (up to 45k gates) then simulate one basis state;"
        " emission, peephole, textio and run_circuit, no dense operator",
        emit_simulate_round,
        tail_percentile=90,
        predicted_share={"simulator": 0.88, "synthesize": 0.06, "textio": 0.06},
    ),
    "identity": Workload(
        "identity",
        "verify-identity full at N=10-12 and recurrent-only at N=20-24;"
        " only the z2identity engine works",
        identity_round,
        tail_percentile=75,
        predicted_share={"z2identity": 0.98},
    ),
}
