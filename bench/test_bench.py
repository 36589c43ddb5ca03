"""Tests of the benchmark itself: tiny smoke runs, the span arithmetic, and
proof that a wrong answer from the program is counted as a failure.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

mcusynth = bench.load_program()

TINY = {
    "check_dense": {"sizes": (2, 3)},
    "emit_simulate": {"sizes": (2, 3)},
    "identity": {"full": (2, 3), "recurrent": (4,), "samples": (10,)},
}


def tiny_run(name, workdir, trace=False, seed=0):
    return bench.run_workload(mcusynth, name, seed, 0, trace, workdir, **TINY[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    result = tiny_run(name, tmp_path, trace=trace)
    assert result["errors"] == []
    assert len(result["latencies"]) >= bench.min_samples(workloads.WORKLOADS[name].tail_percentile)
    assert result["attempted"] == len(result["latencies"]) * (2 if trace else 1)
    if trace:
        report = spans.layer_report(result["tracer"], result["rounds"])
        assert report["cli.main.calls"] == result["requests_per_round"]
        assert sum(report[f"share.{layer}"] for layer in spans.LAYERS) == pytest.approx(1)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.check_dense_round(np.random.default_rng(7), tmp_path, 0)
    b = workloads.check_dense_round(np.random.default_rng(7), tmp_path, 0)
    c = workloads.check_dense_round(np.random.default_rng(8), tmp_path, 0)
    assert [r.argv for r in a] == [r.argv for r in b]
    assert [r.argv for r in a] != [r.argv for r in c]


def test_check_dense_round_is_one_mutant_in_four(tmp_path):
    requests = workloads.check_dense_round(np.random.default_rng(0), tmp_path, 0)
    assert len(requests) == 11
    assert sum(r.mutant for r in requests) == 3


def test_gate_count_formulas_match_the_program():
    # 45,057 and 20,295 gates at n=12 are the baseline's measured counts
    assert sum(workloads.plain_counts(12)) == 45057
    assert sum(workloads.peephole_counts(12)) == 20295
    for n in range(1, 9):
        u = workloads.NAMED_GATES["H"]
        raw = mcusynth.synth_mcu(n, u)
        opt = mcusynth.peephole_cancel(raw)
        for circuit, want in ((raw, workloads.plain_counts(n)), (opt, workloads.peephole_counts(n))):
            c = circuit.counts()
            assert (c.cnot, c.cv, c.cvdg) == want


def test_expected_amplitudes_come_from_the_column_of_u():
    u = workloads.NAMED_GATES["H"]
    assert workloads.expected_amplitudes(u, "110") == {"110": u[0, 0], "111": u[1, 0]}
    assert workloads.expected_amplitudes(u, "101") == {"101": 1.0}


def test_self_time_on_a_hand_built_tree():
    s = spans.Span
    tree = [
        s("cli.main", 0.0, 10.0, None, 1),
        s("textio.read_circuit", 1.0, 4.0, 0, 1),
        s("textio.parse_circuit", 2.0, 3.0, 1, 1),
        s("simulator.circuit_unitary", 5.0, 9.0, 0, 1),
        # overlaps its sibling and runs past its parent: counted once, clipped
        s("simulator.operator_distance", 8.0, 11.0, 0, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 5, 2, 1, 4, 3])
    tracer = spans.Tracer()
    tracer.spans = tree
    report = spans.layer_report(tracer, rounds=2)
    assert report["cli.main.self_s"] == pytest.approx(1.0)
    assert report["share.textio"] == pytest.approx(0.3)
    assert report["share.simulator"] == pytest.approx(0.7)


def test_runs_until_ten_requests_lie_beyond_the_tail():
    assert bench.min_samples(90) == 100
    assert bench.min_samples(75) == 40


# ---- the checks bite: each wrong answer below must be counted as failed


def test_mutant_reported_as_pass_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(mcusynth.cli, "operator_distance", lambda a, b: 0.0)
    result = tiny_run("check_dense", tmp_path)
    mutants = sum(
        r.mutant for r in workloads.check_dense_round(np.random.default_rng(0), tmp_path, 0, (2, 3))
    ) * result["rounds"]
    assert len(result["errors"]) == mutants > 0
    assert all("mutant got exit 0" in e for e in result["errors"])
    metrics, _ = bench.end_to_end(result, [0.1], workloads.WORKLOADS["check_dense"])
    assert metrics["failed_ratio"] == mutants / result["attempted"]


def test_wrong_amplitude_is_a_failure(tmp_path, monkeypatch):
    run_circuit = mcusynth.cli.run_circuit
    monkeypatch.setattr(
        mcusynth.cli, "run_circuit", lambda c, s: run_circuit(c, s) * np.exp(1e-6j)
    )
    result = tiny_run("emit_simulate", tmp_path)
    simulates = result["rounds"] * sum(1 for r in workloads.emit_simulate_round(
        np.random.default_rng(0), tmp_path, 0, (2, 3)) if r.kind == "simulate")
    assert len(result["errors"]) == simulates > 0
    assert all("amplitude of" in e for e in result["errors"])


def test_fail_line_in_identity_report_is_a_failure(tmp_path, monkeypatch):
    verify = mcusynth.z2identity.verify_closed_form

    def broken(n, *args, **kwargs):
        report = verify(n, *args, **kwargs)
        if n != 3:
            return report
        return mcusynth.z2identity.CheckReport(report.name, False, 1, report.unit, ((1, 1, 1), 0, 0, 4))

    monkeypatch.setattr(mcusynth.z2identity, "verify_closed_form", broken)
    result = tiny_run("identity", tmp_path)
    assert len(result["errors"]) == result["rounds"] > 0
    assert all("closed-form n=3: FAIL" in e for e in result["errors"])


def test_fail_line_is_caught_even_with_exit_zero():
    lines = workloads.identity_report(2, None)
    lines[0] = lines[0].replace("PASS", "FAIL")
    assert workloads.check_identity(2, None)(0, "\n".join(lines) + "\n") is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
