import argparse
import cmath
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mcusynth
from mcusynth import cli, simulator, z2identity
from mcusynth.cli import MAX_SAMPLES, main
from mcusynth.simulator import MAX_WIDTH
from mcusynth.textio import MAX_CIRCUIT_BYTES, MAX_GATE_BYTES, read_circuit
from mcusynth.unitary2 import NAMED_GATES
from mcusynth.z2identity import EXHAUSTIVE_LIMIT

H = NAMED_GATES["H"]


class TestVerifyIdentity:
    def test_small_n_passes(self, capsys):
        assert main(["verify-identity", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "closed-form n=3: PASS (8 assignments)" in out
        assert "recurrence n=3: PASS" in out
        assert "xor-int-laws [-8,8]: PASS (4913 triples)" in out
        assert "sum-shift-laws n=3: PASS" in out
        assert "alternating-binomial n=2..60: PASS (59 values)" in out
        assert "all checks passed" in out

    def test_full_mode_builds_each_width_once(self, monkeypatch, capsys):
        # one parity_sums call per width, smallest first; the lines keep
        # their order: every closed-form line before every recurrence line
        widths = []
        real = z2identity.parity_sums
        monkeypatch.setattr(
            z2identity, "parity_sums", lambda c: widths.append(len(c).bit_length() - 1) or real(c)
        )
        z2identity._direct_sums.cache_clear()
        assert main(["verify-identity", "--n", "12"]) == 0
        assert widths == list(range(1, 13))
        lines = capsys.readouterr().out.splitlines()
        assert lines[:12] == [f"closed-form n={k}: PASS ({2**k} assignments)" for k in range(1, 13)]
        assert lines[12:23] == [f"recurrence n={k}: PASS ({2**k} cases)" for k in range(2, 13)]

    def test_out_of_range(self, capsys):
        assert main(["verify-identity", "--n", "0"]) == 2
        assert main(["verify-identity", "--n", str(EXHAUSTIVE_LIMIT + 1)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_recurrent_only(self, capsys):
        assert main(["verify-identity", "--n", "20", "--recurrent-only", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        assert "closed-form (sampled) n=20: PASS (200 samples)" in out

    def test_recurrent_only_whole_output(self, capsys):
        n, samples = 24, 1000
        assert main(["verify-identity", "--n", str(n), "--recurrent-only", "--samples", str(samples)]) == 0
        triples = (z2identity.XOR_LAW_HI - z2identity.XOR_LAW_LO + 1) ** 3
        lo, hi = z2identity.BINOMIAL_LO, z2identity.BINOMIAL_HI
        assert capsys.readouterr().out.splitlines() == [
            *(f"closed-form (sampled) n={k}: PASS ({samples} samples)" for k in range(1, n + 1)),
            f"xor-int-laws [{z2identity.XOR_LAW_LO},{z2identity.XOR_LAW_HI}]: PASS ({triples} triples)",
            *(
                f"sum-shift-laws n={k}: PASS ({z2identity.SUM_SHIFT_TRIALS} samples)"
                for k in range(1, n + 1)
            ),
            f"alternating-binomial n={lo}..{hi}: PASS ({hi - lo + 1} values)",
            "all checks passed",
        ]

    def test_recurrent_only_failure(self, monkeypatch, capsys):
        # an xor_int wrong at (4, 1) breaks the fold of a row whose first
        # four bits are ones; each width k's line is rebuilt here in Python
        # ints from the k-bit prefixes of the rows seeded with n, and the
        # exit code is 1
        real = z2identity.xor_int

        def wrong(x, y):
            return real(x, y) + ((x == 4) & (y == 1))

        monkeypatch.setattr(z2identity, "xor_int", wrong)
        n, samples = 24, 1000
        assert main(["verify-identity", "--n", str(n), "--recurrent-only", "--samples", str(samples)]) == 1
        want = []
        table = np.random.default_rng(n).integers(0, 2, size=(samples, n), dtype=np.int8)
        for k in range(1, n + 1):
            line = f"closed-form (sampled) n={k}: PASS ({samples} samples)"
            for i, bits in enumerate(table[:, :k].tolist()):
                s = bits[0]
                for b in bits[1:]:
                    s = s + b - int(wrong(s, b))
                closed = 2 ** (k - 1) * all(bits)
                if s != closed:
                    line = (
                        f"closed-form (sampled) n={k}: FAIL ({i + 1} samples)"
                        f" counterexample={(tuple(bits), s, closed)!r}"
                    )
                    break
            want.append(line)
        out = capsys.readouterr().out.splitlines()
        assert out[:n] == want
        assert sum("FAIL" in line for line in want) > 1
        assert "all checks passed" not in out

    def test_recurrent_only_out_of_range(self):
        assert main(["verify-identity", "--n", "25", "--recurrent-only"]) == 2

    def test_samples_needs_recurrent_only(self, capsys):
        # full mode takes no samples, so the flag would be silently ignored
        assert main(["verify-identity", "--n", "3", "--samples", "5"]) == 2
        assert capsys.readouterr() == ("", "error: --samples needs --recurrent-only\n")

    def test_zero_samples(self):
        assert main(["verify-identity", "--n", "5", "--recurrent-only", "--samples", "0"]) == 2

    def test_too_many_samples(self, capsys):
        # the sampled verifier holds one --samples x n int8 table whole, so
        # memory grows with --samples
        args = ["verify-identity", "--n", "5", "--recurrent-only", "--samples"]
        assert main(args + [str(MAX_SAMPLES + 1)]) == 2
        assert f"at most {MAX_SAMPLES}" in capsys.readouterr().err


class TestSynth:
    def test_writes_circuit_and_counts(self, tmp_path, capsys):
        out_file = tmp_path / "toffoli.circ"
        assert main(["synth", "--controls", "2", "--gate", "X", "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert "cnot=2 cv=2 cvdg=1 total=5" in printed
        circuit = read_circuit(out_file)
        assert circuit.width == 3
        assert len(circuit) == 5

    def test_three_controls_total(self, tmp_path, capsys):
        out_file = tmp_path / "c3x.circ"
        assert main(["synth", "--controls", "3", "--gate", "X", "--out", str(out_file)]) == 0
        assert "total=17" in capsys.readouterr().out

    def test_single_control_identity(self, tmp_path, capsys):
        out_file = tmp_path / "ci.circ"
        assert main(["synth", "--controls", "1", "--gate", "I", "--out", str(out_file)]) == 0
        assert len(read_circuit(out_file)) == 1
        assert main(["check", "--circuit", str(out_file), "--controls", "1", "--gate", "I"]) == 0

    def test_optimize_prints_before_after(self, tmp_path, capsys):
        out_file = tmp_path / "c.circ"
        args = ["synth", "--controls", "4", "--gate", "H", "--optimize", "--out", str(out_file)]
        assert main(args) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:2] == [
            "before: cnot=34 cv=8 cvdg=7 total=49",
            "after:  cnot=14 cv=8 cvdg=7 total=29",
        ]
        assert len(read_circuit(out_file)) == 29

    def test_bad_gate_name(self, tmp_path):
        assert main(["synth", "--controls", "2", "--gate", "Q", "--out", str(tmp_path / "x")]) == 2

    def test_zero_controls(self, tmp_path):
        assert main(["synth", "--controls", "0", "--gate", "X", "--out", str(tmp_path / "x")]) == 2

    def test_too_many_controls(self, tmp_path, capsys):
        # refused before any subset list is built, so both return at once
        for controls in ("17", "40"):
            args = ["synth", "--controls", controls, "--gate", "X", "--out", str(tmp_path / "x")]
            assert main(args) == 2
            assert "at most 16" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unwritable_path(self, tmp_path, capsys):
        # the file is written before the counts are printed, so a failed
        # write prints only its error
        target = tmp_path / "missing-dir" / "c.circ"
        for optimize in ([], ["--optimize"]):
            assert main(["synth", "--controls", "2", "--gate", "X", "--out", str(target)] + optimize) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith(f"error: cannot write {target}: ")

    def test_explicit_matrix_gate(self, tmp_path, capsys):
        gate_file = tmp_path / "h.json"
        payload = {
            "matrix": [
                [[float(H[r, c].real), float(H[r, c].imag)] for c in range(2)]
                for r in range(2)
            ]
        }
        gate_file.write_text(json.dumps(payload))
        out_file = tmp_path / "ch.circ"
        spec = f"@{gate_file}"
        assert main(["synth", "--controls", "2", "--gate", spec, "--out", str(out_file)]) == 0
        assert main(["check", "--circuit", str(out_file), "--controls", "2", "--gate", spec]) == 0

    def test_rounded_matrix_survives_full_pipeline(self, tmp_path):
        # decimals truncated to 10 digits: unitary only to ~1e-10, which the
        # ingest tolerance admits and the whole synth/check path must accept.
        # The x rotation by 2(pi - 1e-8) has eigenphases on either side of
        # -1, where the root is most sensitive
        phase = cmath.exp(1j * (cmath.pi - 1e-8))
        for name, u in [("h", H), ("rx", H @ np.diag([phase, phase.conjugate()]) @ H)]:
            gate_file = tmp_path / f"{name}.json"
            payload = {
                "matrix": [
                    [[round(float(u[r, c].real), 10), round(float(u[r, c].imag), 10)] for c in range(2)]
                    for r in range(2)
                ]
            }
            gate_file.write_text(json.dumps(payload))
            out_file = tmp_path / f"{name}.circ"
            spec = f"@{gate_file}"
            assert main(["synth", "--controls", "3", "--gate", spec, "--out", str(out_file)]) == 0, name
            assert main(["check", "--circuit", str(out_file), "--controls", "3", "--gate", spec]) == 0, name


class TestCheck:
    def synth(self, tmp_path, controls, gate):
        out_file = tmp_path / f"c{controls}{gate}.circ"
        assert main(["synth", "--controls", str(controls), "--gate", gate, "--out", str(out_file)]) == 0
        return out_file

    def test_passes_on_fresh_synthesis(self, tmp_path, capsys):
        path = self.synth(tmp_path, 2, "X")
        capsys.readouterr()
        assert main(["check", "--circuit", str(path), "--controls", "2", "--gate", "X"]) == 0
        # the round-off residual (about 1e-16) is printed as 0.0
        assert capsys.readouterr().out == "distance 0.0\nPASS\n"

    def test_fails_after_deleting_a_gate(self, tmp_path, capsys):
        path = self.synth(tmp_path, 2, "X")
        lines = path.read_text().splitlines()
        gate_lines = [l for l in lines if l.split() and l.split()[0] in ("cnot", "cv", "cvdg")]
        lines.remove(gate_lines[-1])
        path.write_text("\n".join(lines) + "\n")
        assert main(["check", "--circuit", str(path), "--controls", "2", "--gate", "X"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("optimize", [False, True], ids=["canonical", "gray"])
    @pytest.mark.parametrize(
        "controls, drop, code, out",
        [
            (4, None, 0, "distance 0.0\nPASS\n"),
            (8, None, 0, "distance 0.0\nPASS\n"),
            # the controls no longer come back to x, so blocks move
            (4, "cnot", 1, "distance 1\nFAIL (tolerance 1e-09)\n"),
            (8, "cnot", 1, "distance 1\nFAIL (tolerance 1e-09)\n"),
            # the first cv-kind gate is cv 0 n in both orders, so deleting it
            # leaves the same V^-1 on every input with x_0 = 1
            (4, "cv", 1, "distance 0.333040011658\nFAIL (tolerance 1e-09)\n"),
            (8, "cv", 1, "distance 0.0209488262231\nFAIL (tolerance 1e-09)\n"),
        ],
        ids=["4-whole", "8-whole", "4-no-cnot", "8-no-cnot", "4-no-cv", "8-no-cv"],
    )
    def test_whole_output(self, optimize, controls, drop, code, out, tmp_path, capsys):
        path = tmp_path / "c.circ"
        args = ["synth", "--controls", str(controls), "--gate", "H", "--out", str(path)]
        assert main(args + ["--optimize"] * optimize) == 0
        lines = path.read_text().splitlines(keepends=True)
        if drop:
            del lines[next(i for i, l in enumerate(lines) if l.split()[:1] == [drop])]
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["check", "--circuit", str(path), "--controls", str(controls), "--gate", "H"]) == code
        assert capsys.readouterr().out == out

    def test_distance_comes_from_operator_distance(self, tmp_path, monkeypatch, capsys):
        # a mutant passes once cli.operator_distance says 0.0, on either
        # route, so check measures no distance of its own
        path = self.synth(tmp_path, 3, "H")
        lines = path.read_text().splitlines(keepends=True)
        del lines[next(i for i, l in enumerate(lines) if l.split()[:1] == ["cv"])]
        trace, dense = tmp_path / "trace.circ", tmp_path / "dense.circ"
        trace.write_text("".join(lines))
        # aimed at the target wire, this cnot leaves the trace's class
        dense.write_text("".join(lines) + "cnot 0 3\n")
        assert simulator.linear_trace(read_circuit(trace)) is not None
        assert simulator.linear_trace(read_circuit(dense)) is None
        runs = [["check", "--circuit", str(path), "--controls", "3", "--gate", "H"] for path in (trace, dense)]
        capsys.readouterr()
        for args in runs:
            assert main(args) == 1
            assert capsys.readouterr().out.endswith("\nFAIL (tolerance 1e-09)\n")
        monkeypatch.setattr(cli, "operator_distance", lambda a, b: 0.0)
        for args in runs:
            assert main(args) == 0
            assert capsys.readouterr().out == "distance 0.0\nPASS\n"

    def test_cv_only_file_passes_for_the_identity(self, tmp_path, capsys):
        # V = X has order 2 and every wire applies it twice: the operator is
        # the identity, though its coefficients are not the synthesizer's
        path = tmp_path / "cvonly.circ"
        path.write_text("qubits 3\nvmatrix 0 0 1 0 1 0 0 0\ncv 0 2\ncv 0 2\ncv 1 2\ncv 1 2\n")
        assert main(["check", "--circuit", str(path), "--controls", "2", "--gate", "I"]) == 0
        assert capsys.readouterr().out == "distance 0.0\nPASS\n"

    def test_width_mismatch(self, tmp_path):
        path = self.synth(tmp_path, 2, "X")
        assert main(["check", "--circuit", str(path), "--controls", "3", "--gate", "X"]) == 2

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "garbage.circ"
        path.write_text("this is not a circuit\n")
        assert main(["check", "--circuit", str(path), "--controls", "2", "--gate", "X"]) == 2

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "none.circ"
        assert main(["check", "--circuit", str(missing), "--controls", "2", "--gate", "X"]) == 2

    def test_missing_binding(self, tmp_path, capsys):
        # a parse error at the first cv-kind gate, for check and simulate alike
        path = tmp_path / "nobind.circ"
        path.write_text("qubits 2\ncnot 0 1\ncvdg 0 1\n")
        for args in (
            ["check", "--circuit", str(path), "--controls", "1", "--gate", "X"],
            ["simulate", "--circuit", str(path), "--input", "11"],
        ):
            assert main(args) == 2
            assert capsys.readouterr() == ("", "error: line 3: cvdg gate without a v binding\n")

    def test_missing_binding_past_the_dense_cap(self, tmp_path, capsys):
        # width 14 is only reachable through the linear trace
        path = tmp_path / "nobind.circ"
        path.write_text("qubits 14\ncv 0 13\n")
        assert main(["check", "--circuit", str(path), "--controls", "13", "--gate", "X"]) == 2
        assert capsys.readouterr().err == "error: line 2: cv gate without a v binding\n"

    def test_oracle_errors_are_not_usage_errors(self, tmp_path, monkeypatch):
        # a fault inside an oracle is a bug, not exit 2
        path = self.synth(tmp_path, 2, "X")

        def broken(circuit):
            raise ValueError("oracle bug")

        monkeypatch.setattr(cli, "linear_trace", broken)
        with pytest.raises(ValueError, match="^oracle bug$"):
            main(["check", "--circuit", str(path), "--controls", "2", "--gate", "X"])

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_dense_oracle_errors_are_not_usage_errors(self, command, tmp_path, monkeypatch):
        # only DenseCapError exits 2 around the dense call
        def broken(circuit, arr):
            raise ValueError("oracle bug")

        monkeypatch.setattr(simulator, "_run_dense", broken)
        path = tmp_path / "offclass.circ"
        path.write_text("qubits 2\ncnot 0 1\ncnot 1 0\n")
        args = ["--controls", "1", "--gate", "X"] if command == "check" else ["--input", "10"]
        with pytest.raises(ValueError, match="^oracle bug$"):
            main([command, "--circuit", str(path), *args])

    @pytest.mark.parametrize("controls", [13, 16])
    def test_passes_past_the_dense_cap(self, controls, tmp_path, capsys):
        path = self.synth(tmp_path, controls, "H")
        args = ["check", "--circuit", str(path), "--controls", str(controls), "--gate", "H"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    def test_optimized_passes_at_16_controls(self, tmp_path, capsys):
        path = tmp_path / "c16.circ"
        args = ["synth", "--controls", "16", "--gate", "H", "--optimize", "--out", str(path)]
        assert main(args) == 0
        assert "after:  cnot=65534 cv=32768 cvdg=32767 total=131069" in capsys.readouterr().out
        assert main(["check", "--circuit", str(path), "--controls", "16", "--gate", "H"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    def test_mutant_past_the_dense_cap_fails(self, tmp_path, capsys):
        # dropping the first gate, cv 0 13, leaves V^-1 on every input with
        # x_0 = 1; V = X^(1/4096) is about 4e-4 away from I
        path = self.synth(tmp_path, 13, "X")
        lines = path.read_text().splitlines()
        first = next(i for i, l in enumerate(lines) if l.split()[:1] == ["cv"])
        del lines[first]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", "--circuit", str(path), "--controls", "13", "--gate", "X"]) == 1
        distance, verdict = capsys.readouterr().out.splitlines()
        assert float(distance.split()[1]) > 1e-4
        assert verdict.startswith("FAIL")

    def test_too_many_controls(self, tmp_path, capsys):
        # refused before the file is read: the missing file is not reported
        missing = tmp_path / "none.circ"
        assert main(["check", "--circuit", str(missing), "--controls", "17", "--gate", "X"]) == 2
        assert "at most 16" in capsys.readouterr().err
        wide = tmp_path / "wide.circ"
        wide.write_text("qubits 40\ncnot 0 39\n")
        for controls, message in (("39", "at most 16"), ("2", "does not match")):
            args = ["check", "--circuit", str(wide), "--controls", controls, "--gate", "X"]
            assert main(args) == 2
            assert message in capsys.readouterr().err

    def test_out_of_class_file_keeps_the_dense_cap(self, tmp_path, capsys):
        path = tmp_path / "offclass.circ"
        width = MAX_WIDTH + 1
        path.write_text(f"qubits {width}\ncnot 0 {width - 1}\n")
        args = ["check", "--circuit", str(path), "--controls", str(width - 1), "--gate", "X"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: width {width} exceeds the simulation cap {MAX_WIDTH}\n"

    def test_out_of_class_file_at_the_work_cap(self, tmp_path, capsys, monkeypatch):
        # 4,097 gates x 4^10 is the cap, the size of the 9-control H circuit
        # with one cnot aimed at the target wire; one gate more is refused
        # before the dense loop runs
        ran = []
        monkeypatch.setattr(simulator, "_run_dense", lambda c, arr: ran.append(len(c)) or arr)
        path = tmp_path / "offclass.circ"
        for gates, code in ((4097, 1), (4098, 2)):
            path.write_text("qubits 10\n" + "cnot 0 9\n" * gates)
            assert main(["check", "--circuit", str(path), "--controls", "9", "--gate", "X"]) == code
        assert ran == [4097]
        assert capsys.readouterr().err == "error: 4098 gates x 4^10 exceed the dense work cap 4296015872\n"

    @pytest.mark.parametrize("gate", sorted(NAMED_GATES))
    def test_all_named_gates_round_trip(self, gate, tmp_path):
        for controls in range(1, 6):
            path = self.synth(tmp_path, controls, gate)
            args = ["check", "--circuit", str(path), "--controls", str(controls), "--gate", gate]
            assert main(args) == 0, (controls, gate)


class TestSimulate:
    def test_single_cnot(self, tmp_path, capsys):
        path = tmp_path / "cx.circ"
        path.write_text("qubits 2\ncnot 0 1\n")
        assert main(["simulate", "--circuit", str(path), "--input", "10"]) == 0
        assert capsys.readouterr().out == "|11⟩: 1.0\n"

    def test_empty_circuit(self, tmp_path, capsys):
        path = tmp_path / "idle.circ"
        path.write_text("qubits 4\n")
        assert main(["simulate", "--circuit", str(path), "--input", "0110"]) == 0
        assert capsys.readouterr().out == "|0110⟩: 1.0\n"

    def test_toffoli_flip(self, tmp_path, capsys):
        out_file = tmp_path / "t.circ"
        assert main(["synth", "--controls", "2", "--gate", "X", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--circuit", str(out_file), "--input", "110"]) == 0
        assert capsys.readouterr().out.strip() == "|111⟩: 1.0"

    def test_superposition_amplitudes(self, tmp_path, capsys):
        out_file = tmp_path / "ch.circ"
        assert main(["synth", "--controls", "1", "--gate", "H", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--circuit", str(out_file), "--input", "10"]) == 0
        out = capsys.readouterr().out
        assert "|10⟩: 0.707106781187" in out
        assert "|11⟩: 0.707106781187" in out

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "cx.circ"
        path.write_text("qubits 2\ncnot 0 1\n")
        assert main(["simulate", "--circuit", str(path), "--input", "101"]) == 2

    def test_width_cap(self, tmp_path, capsys):
        # refused before the 2^40-entry state is allocated
        path = tmp_path / "wide.circ"
        path.write_text("qubits 40\ncnot 0 39\n")
        assert main(["simulate", "--circuit", str(path), "--input", "1" * 40]) == 2
        assert capsys.readouterr().err == "error: width 40 exceeds the state-vector cap 17\n"

    def test_trace_route_runs_every_synthesized_width(self, tmp_path, capsys):
        # 16 controls is 17 qubits; 131,069 gates x 2^17 is past the dense
        # work cap, and the file runs on the trace route
        path = tmp_path / "c16.circ"
        assert main(["synth", "--controls", "16", "--gate", "H", "--optimize", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--circuit", str(path), "--input", "1" * 16 + "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [line.split(": ")[0] for line in lines]
        assert labels == [f"|{'1' * 16}{b}⟩" for b in "01"]
        column = [complex(line.split(": ")[1]) for line in lines]
        assert np.max(np.abs(np.array(column) - H[:, 0])) < 1e-9

    @pytest.mark.parametrize(
        "text",
        [
            "qubits 18\ncnot 0 17\n",
            "qubits 18\ncnot 0 1\n",
            "qubits 40\ncnot 0 39\n",
            "qubits 40\ncnot 0 1\n",
        ],
        ids=["off-class-18", "in-class-18", "off-class-40", "in-class-40"],
    )
    def test_other_widths_keep_the_state_cap(self, text, tmp_path, capsys, monkeypatch):
        # one cap on both routes, refused before anything of size 2^width is
        # run or allocated
        monkeypatch.setattr(cli, "run_circuit", None)
        path = tmp_path / "wide.circ"
        path.write_text(text)
        width = int(text.split()[1])
        assert main(["simulate", "--circuit", str(path), "--input", "1" * width]) == 2
        assert capsys.readouterr().err == f"error: width {width} exceeds the state-vector cap 17\n"

    def test_out_of_class_width_17_runs(self, tmp_path, capsys):
        path = tmp_path / "offclass.circ"
        path.write_text("qubits 17\ncnot 0 16\n")
        assert main(["simulate", "--circuit", str(path), "--input", "1" + "0" * 16]) == 0
        assert capsys.readouterr().out == f"|1{'0' * 15}1⟩: 1.0\n"

    def test_dense_route_at_the_state_cap(self, tmp_path, capsys):
        # the cnot onto the last wire keeps the file off the trace route; the
        # cv puts H on the middle wire 7 once the flipped wire 1 is set
        h = 2**-0.5
        path = tmp_path / "wide.circ"
        path.write_text(
            f"qubits 17\nvmatrix {h!r} 0 {h!r} 0 {h!r} 0 {-h!r} 0\n"
            "cnot 0 16\ncnot 0 1\ncv 1 7\n"
        )
        assert main(["simulate", "--circuit", str(path), "--input", "1" + "0" * 16]) == 0
        assert capsys.readouterr().out == (
            "|11000000000000001⟩: 0.707106781187\n|11000001000000001⟩: 0.707106781187\n"
        )

    def test_out_of_class_file_at_the_work_cap(self, tmp_path, capsys, monkeypatch):
        # 32,776 gates x 2^17 is the cap; one gate more is refused before
        # the dense loop runs
        ran = []
        monkeypatch.setattr(simulator, "_run_dense", lambda c, arr: ran.append(len(c)) or arr)
        path = tmp_path / "offclass.circ"
        for gates, code in ((32776, 0), (32777, 2)):
            path.write_text("qubits 17\n" + "cnot 0 16\n" * gates)
            assert main(["simulate", "--circuit", str(path), "--input", "1" * 17]) == code
        assert ran == [32776]
        assert capsys.readouterr() == (
            f"|{'1' * 17}⟩: 1.0\n",
            "error: 32777 gates x 2^17 exceed the dense work cap 4296015872\n",
        )

    def test_non_bit_input(self, tmp_path):
        path = tmp_path / "cx.circ"
        path.write_text("qubits 2\ncnot 0 1\n")
        assert main(["simulate", "--circuit", str(path), "--input", "1a"]) == 2

    @pytest.mark.parametrize(
        "gate, bits, line",
        [
            ("Y", "10", "|11⟩: 1.0j"),
            ("Y", "11", "|10⟩: -1.0j"),
            ("T", "11", "|11⟩: 0.707106781187+0.707106781187j"),
            ("Tdg", "11", "|11⟩: 0.707106781187-0.707106781187j"),
        ],
    )
    def test_complex_amplitudes(self, gate, bits, line, tmp_path, capsys):
        # an imaginary-only amplitude prints its imaginary part alone, a mixed
        # one both parts with the sign between them
        if gate == "Tdg":
            adjoint = NAMED_GATES["T"].conj().T
            spec = tmp_path / "tdg.json"
            spec.write_text(json.dumps({"matrix": np.stack((adjoint.real, adjoint.imag), -1).tolist()}))
            gate = f"@{spec}"
        path = tmp_path / "c1.circ"
        assert main(["synth", "--controls", "1", "--gate", gate, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--circuit", str(path), "--input", bits]) == 0
        assert capsys.readouterr().out == line + "\n"


class TestIngest:
    """A NaN, a JSON boolean or a number past float range where a matrix
    entry belongs is refused with exit 2 and one error line on stderr,
    with no numpy warning before it."""

    def run(self, capsys, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ("[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]", "matrix from {} is not unitary within 1e-09"),
            ("[[[true, 0], [0, 0]], [[0, 0], [true, 0]]]", "{}: matrix entries must be numbers"),
            (f"[[[1{'0' * 400}, 0], [0, 0]], [[0, 0], [1, 0]]]", "{}: matrix entries must fit in a float"),
        ],
        ids=["nan", "boolean", "past-float-range"],
    )
    def test_gate_json(self, matrix, message, tmp_path, capsys):
        gate = tmp_path / "gate.json"
        gate.write_text(f'{{"matrix": {matrix}}}')
        out = tmp_path / "c.circ"
        code, err = self.run(capsys, ["synth", "--controls", "2", "--gate", f"@{gate}", "--out", str(out)])
        assert (code, err) == (2, f"error: {message.format(gate)}\n")
        assert not out.exists()

    def test_nan_on_vmatrix_line(self, tmp_path, capsys):
        path = tmp_path / "nan.circ"
        path.write_text("qubits 2\nvmatrix nan 0 0 0 0 0 1 0\ncv 0 1\n")
        for args in (
            ["check", "--circuit", str(path), "--controls", "1", "--gate", "X"],
            ["simulate", "--circuit", str(path), "--input", "11"],
        ):
            code, err = self.run(capsys, args)
            assert (code, err) == (2, "error: line 2: v binding is not unitary within 1e-09\n")

    def test_non_unitary_vmatrix_before_a_bad_gate(self, tmp_path, capsys):
        # the vmatrix line comes first, so its fault is the one reported
        path = tmp_path / "two-faults.circ"
        path.write_text("qubits 2\nvmatrix 1 0 0 0 0 0 2 0\ncv 0 1\ncnot 0 5\n")
        for args in (
            ["check", "--circuit", str(path), "--controls", "1", "--gate", "X"],
            ["simulate", "--circuit", str(path), "--input", "11"],
        ):
            code, err = self.run(capsys, args)
            assert (code, err) == (2, "error: line 2: v binding is not unitary within 1e-09\n")


class TestReadCaps:
    """An endless or oversized input file is refused with exit 2 after
    reading at most its cap plus one byte."""

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_dev_zero_circuit(self, capsys):
        args = ["check", "--circuit", "/dev/zero", "--controls", "2", "--gate", "X"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: /dev/zero: circuit file exceeds the cap of {MAX_CIRCUIT_BYTES} bytes\n"
        )
        assert main(["simulate", "--circuit", "/dev/zero", "--input", "00"]) == 2

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_dev_zero_gate(self, tmp_path, capsys):
        out = tmp_path / "c.circ"
        assert main(["synth", "--controls", "2", "--gate", "@/dev/zero", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: /dev/zero: gate file exceeds the cap of {MAX_GATE_BYTES} bytes\n"
        )
        assert not out.exists()

    def test_circuit_file_one_byte_past_the_cap(self, tmp_path, capsys):
        path = tmp_path / "big.circ"
        path.write_bytes(b"qubits 3\n" + b"#" * (MAX_CIRCUIT_BYTES - 9) + b"\n")
        assert main(["check", "--circuit", str(path), "--controls", "2", "--gate", "X"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: circuit file exceeds the cap of {MAX_CIRCUIT_BYTES} bytes\n"
        )


class TestUndecodable:
    """A circuit or gate file whose bytes do not decode is refused with
    exit 2 and one error line naming the file and the first bad byte."""

    def test_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "bad.circ"
        path.write_bytes(b"qubits 2\ncnot 0 1 # \xff\n")
        message = f"error: {path}: circuit file does not decode as utf-8 at byte 20 (invalid start byte)\n"
        for args in (
            ["check", "--circuit", str(path), "--controls", "1", "--gate", "X"],
            ["simulate", "--circuit", str(path), "--input", "00"],
        ):
            assert main(args) == 2
            assert capsys.readouterr() == ("", message)

    def test_gate_file(self, tmp_path, capsys):
        gate = tmp_path / "gate.json"
        gate.write_bytes(b'{"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]} \xff')
        out = tmp_path / "c.circ"
        assert main(["synth", "--controls", "2", "--gate", f"@{gate}", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {gate}: gate file does not decode as utf-8 at byte 49 (invalid start byte)\n",
        )
        assert not out.exists()


class TestCLocale:
    """Circuit files, gate files and stdout are UTF-8 whatever the locale:
    under the C locale with UTF-8 mode off, a run reads and writes the
    bytes it does in this process."""

    ENV = {"LC_ALL": "C", "PYTHONUTF8": "0"}

    def test_synth_names_a_non_ascii_gate_file(self, tmp_path, capsys):
        gate = tmp_path / "ж.json"
        gate.write_text(json.dumps({"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}), encoding="utf-8")
        out = tmp_path / "c.circ"
        argv = ["synth", "--controls", "2", "--gate", f"@{gate}", "--out", str(out)]
        expected = run_in_process(argv, capsys)
        written = out.read_bytes()
        out.unlink()
        assert expected == (0, f"cnot=2 cv=2 cvdg=1 total=5\nwrote {out}\n", "")
        assert written.startswith(f"# controls=2 gate=@{gate}\n".encode("utf-8"))
        assert run_fresh(argv, tmp_path, **self.ENV) == expected
        assert out.read_bytes() == written

    def test_simulate_reads_a_non_ascii_comment(self, tmp_path, capsys):
        path = tmp_path / "c.circ"
        path.write_text("qubits 2\n# café\ncnot 0 1\n", encoding="utf-8")
        argv = ["simulate", "--circuit", str(path), "--input", "10"]
        expected = (0, "|11⟩: 1.0\n", "")
        assert run_in_process(argv, capsys) == expected
        assert run_fresh(argv, tmp_path, **self.ENV) == expected


def run_in_process(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_fresh(argv, cwd, **env):
    """(exit code, stdout, stderr) of the same command in a new interpreter,
    with ``env`` added to its environment."""
    src = str(Path(mcusynth.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mcusynth.cli", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        encoding="utf-8",
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSharedParser:
    """``main`` parses with one parser built at import.  A call leaves
    nothing behind for the next: each call's exit code and output equal
    those of a fresh process."""

    SAMPLES = ["verify-identity", "--n", "3", "--recurrent-only"]
    SYNTH = ["synth", "--controls", "3", "--gate", "H", "--out", "c.circ"]
    VALID = ["verify-identity", "--n", "2"]

    @pytest.mark.parametrize(
        "first, first_code, first_shows, second, second_shows",
        [
            (["check", "--controls", "12"], 2, "required: --circuit, --gate", VALID, "all checks passed"),
            (["synth", "--help"], 0, "usage: mcusynth synth", VALID, "all checks passed"),
            (SAMPLES + ["--samples", "7"], 0, "n=3: PASS (7 samples)", SAMPLES, "n=3: PASS (1000 samples)"),
            (SYNTH + ["--optimize"], 0, "before:", SYNTH, "total=17"),
        ],
        ids=["usage-error", "help", "samples-default", "optimize-then-plain"],
    )
    def test_second_call_matches_a_fresh_process(
        self, first, first_code, first_shows, second, second_shows, tmp_path, monkeypatch, capsys
    ):
        # argparse wraps --help and usage lines at the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        results = []
        for argv in (first, second):
            result = run_in_process(argv, capsys)
            assert result == run_fresh(argv, tmp_path), argv
            results.append(result)
        (code, out, err), (code2, out2, _) = results
        assert code == first_code and first_shows in out + err
        assert code2 == 0 and second_shows in out2 and "before:" not in out2

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(3):
            assert main(self.VALID) == 0
        assert built == []
        assert capsys.readouterr().out.count("all checks passed") == 3


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--controls", "2"])
    assert exc.value.code == 2
