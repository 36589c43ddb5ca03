"""In-memory span recorder wrapped around each mcusynth layer's entry points.

The wrappers are installed from here, at the module attributes the package
looks up at call time (``mcusynth.cli.circuit_unitary``,
``mcusynth.textio.parse_circuit``, ``Circuit.__init__`` ...), so no source
file changes.  Spans stay in a list until the run ends; counters are
recorded at the same boundaries, after the span has closed, so that their
bookkeeping is not billed to the layer.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass

COMPLEX_BYTES = 16
LAYERS = ("cli", "z2identity", "unitary2", "circuit", "synthesize", "textio", "simulator")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; ``count(tracer, args, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.request)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


# ------------------------------------------------------------ counters


def _simulator_work(tracer: Tracer, circuit, columns: int) -> None:
    rows = 1 << circuit.width
    gates = len(circuit.gates)
    tracer.counters["simulator.gate_applications"] += gates * columns
    # computed, not measured: per gate the simulator copies the whole array
    # (read + write) and gathers/scatters the two quarter blocks whose
    # control bit is set (read + write); index arrays are not counted
    tracer.counters["simulator.bytes_moved_computed"] += gates * 3 * rows * columns * COMPLEX_BYTES


def _count_unitary(tracer, args, result):
    _simulator_work(tracer, args[0], 1 << args[0].width)


def _count_run(tracer, args, result):
    _simulator_work(tracer, args[0], 1)


def _count_synth(tracer, args, result):
    tracer.counters["synthesize.gates_emitted"] += len(result.gates)


def _count_peephole(tracer, args, result):
    tracer.counters["synthesize.peephole_gates_in"] += len(args[0].gates)
    tracer.counters["synthesize.peephole_gates_out"] += len(result.gates)


def _count_write(tracer, args, result):
    tracer.counters["textio.bytes_written"] += os.path.getsize(args[1])


def _count_read(tracer, args, result):
    tracer.counters["textio.bytes_read"] += os.path.getsize(args[0])


def _count_parse(tracer, args, result):
    tracer.counters["textio.gates_parsed"] += len(result.gates)


def _count_cases(tracer, args, result):
    tracer.counters["z2identity.cases_checked"] += result.checked


# (module attribute holder, attribute, span name, counter)
def _targets(mcusynth):
    cli, textio, synthesize, z2 = (
        mcusynth.cli,
        mcusynth.textio,
        mcusynth.synthesize,
        mcusynth.z2identity,
    )
    return [
        (cli, "main", "cli.main", None),
        (cli, "circuit_unitary", "simulator.circuit_unitary", _count_unitary),
        (cli, "run_circuit", "simulator.run_circuit", _count_run),
        (cli, "reference_mcu", "simulator.reference_mcu", None),
        (cli, "operator_distance", "simulator.operator_distance", None),
        (cli, "synth_mcu", "synthesize.synth_mcu", _count_synth),
        (cli, "peephole_cancel", "synthesize.peephole_cancel", _count_peephole),
        (cli, "parse_gate_spec", "textio.parse_gate_spec", None),
        (cli, "write_circuit", "textio.write_circuit", _count_write),
        (cli, "read_circuit", "textio.read_circuit", _count_read),
        (textio, "format_circuit", "textio.format_circuit", None),
        (textio, "parse_circuit", "textio.parse_circuit", _count_parse),
        (synthesize, "unitary_root", "unitary2.unitary_root", None),
        (mcusynth.circuit.Circuit, "__init__", "circuit.Circuit.init", None),
        (z2, "verify_closed_form", "z2identity.verify_closed_form", _count_cases),
        (z2, "verify_append_recurrence", "z2identity.verify_append_recurrence", _count_cases),
        (z2, "verify_closed_form_sampled", "z2identity.verify_closed_form_sampled", _count_cases),
        (z2, "verify_xor_int_laws", "z2identity.laws", None),
        (z2, "verify_sum_shift_laws", "z2identity.laws", None),
        (z2, "verify_alternating_binomial", "z2identity.laws", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, mcusynth):
    """The tracer's wrappers are in place inside this block."""
    saved = []
    for holder, attr, name, count in _targets(mcusynth):
        original = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
        saved.append((holder, attr, original))
        setattr(holder, attr, tracer.wrap(name, original, count))
    circuit_cls = mcusynth.circuit.Circuit
    check = circuit_cls.__dict__["_check_gate"]
    saved.append((circuit_cls, "_check_gate", check))

    def counted(width, gate):
        tracer.counters["circuit.gates_validated"] += 1
        return check.__func__(width, gate)

    circuit_cls._check_gate = staticmethod(counted)
    try:
        yield tracer
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


# ------------------------------------------------------------- report


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_report(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics, counts and times per round of the workload."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        total_s[span.name] += span.end - span.start
    c = tracer.counters
    per = 1 / rounds
    out: dict[str, float] = {}
    for name in (
        "simulator.circuit_unitary",
        "simulator.run_circuit",
        "synthesize.synth_mcu",
        "circuit.Circuit.init",
        "unitary2.unitary_root",
        "z2identity.verify_closed_form",
        "z2identity.verify_append_recurrence",
        "z2identity.verify_closed_form_sampled",
        "cli.main",
    ):
        out[f"{name}.calls"] = calls[name] * per
    for name in (
        "simulator.circuit_unitary",
        "simulator.reference_mcu",
        "simulator.operator_distance",
        "simulator.run_circuit",
        "synthesize.synth_mcu",
        "synthesize.peephole_cancel",
        "circuit.Circuit.init",
        "textio.write_circuit",
        "textio.read_circuit",
        "textio.parse_gate_spec",
        "textio.format_circuit",
        "textio.parse_circuit",
        "unitary2.unitary_root",
        "z2identity.verify_closed_form",
        "z2identity.verify_append_recurrence",
        "z2identity.verify_closed_form_sampled",
        "z2identity.laws",
        "cli.main",
    ):
        out[f"{name}.self_s"] = self_s[name] * per
    for name in (
        "simulator.gate_applications",
        "simulator.bytes_moved_computed",
        "synthesize.gates_emitted",
        "circuit.gates_validated",
        "textio.bytes_written",
        "textio.bytes_read",
        "z2identity.cases_checked",
    ):
        out[name] = c[name] * per
    out["synthesize.peephole_kept_ratio"] = _ratio(
        c["synthesize.peephole_gates_out"], c["synthesize.peephole_gates_in"]
    )
    out["textio.parse_gates_per_s"] = _ratio(c["textio.gates_parsed"], total_s["textio.parse_circuit"])
    verify_s = sum(
        total_s[f"z2identity.{v}"]
        for v in ("verify_closed_form", "verify_append_recurrence", "verify_closed_form_sampled")
    )
    out["z2identity.cases_per_s"] = _ratio(c["z2identity.cases_checked"], verify_s)
    request_s = total_s["cli.main"]
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"share.{layer}"] = _ratio(layer_self, request_s)
    return out
