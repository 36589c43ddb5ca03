"""List the stdout and exit code of every command over a fixed sweep.

Run from a checkout, with the mcusynth to list on the import path:

    PYTHONPATH=src python tools/cli_outputs.py > outputs.txt

``sweep(main)`` runs the sweep through any tree's ``cli.main``, which is how
``tools/ab.py --outputs`` compares two trees in one interpreter.

The sweep runs all four commands: ``synth``, ``check``, ``simulate`` and
``verify-identity``.  At n = 1..7 controls, canonical and Gray order,
``synth`` runs for the named gates X, Z, H, S and T and for one explicit
matrix, and lists the SHA-256 of each file it writes.  Each named gate's
file is kept whole and with one of up to six evenly spaced gates deleted;
these files take the linear-trace route.  At n = 1..4 the whole file is
also kept with ``cnot 0 n`` appended (aimed at the target) and with
``cnot n 0`` appended (the target used as a control); these take the dense
route.  Every such file is checked under four ``--gate`` specs (its own
gate, I, Y and the explicit matrix) and simulated on four basis inputs.
``verify-identity`` runs in full mode at n = 1..20, and with
``--recurrent-only`` at N = 20..24 with 250, 1000 and the default samples.
Last, a copy of the 2-control H file and of the explicit matrix, each
behind a UTF-8 byte order mark, are simulated and synthesized from.  That
is 4,201 cases, which take about 3.1 s (2-core Xeon, Python 3.11).  Each
case prints one JSON line: the argv, the exit code, the stdout and, for a
``synth`` that wrote its file, the file's SHA-256.  The files live under
relative names in a temporary directory, so the listing names no path of
its own, and two checkouts give the same outputs when ``diff`` of their
listings is empty.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import json
import os
import tempfile

CONTROLS = range(1, 8)
GATES = ("X", "Z", "H", "S", "T")
DELETIONS = 6
# controls whose kept files are also listed with a cnot on the target wire
# appended, which sends them down the dense route
DENSE_CONTROLS = range(1, 5)
# a unitary that is no named gate
MATRIX = {"matrix": [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]]}
FULL_WIDTHS = range(1, 21)  # 1..z2identity.EXHAUSTIVE_LIMIT, every width full mode takes
SAMPLED_WIDTHS = range(20, 25)
SAMPLES = (250, 1000, None)


def run(main, argv: list[str], written: str | None = None) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    case = [argv, code, out.getvalue()]
    if written is not None and os.path.exists(written):
        with open(written, "rb") as f:
            case.append(hashlib.sha256(f.read()).hexdigest())
    print(json.dumps(case))


def sweep(main) -> None:
    with open("matrix.json", "w", encoding="utf-8") as f:
        json.dump(MATRIX, f)
    for n in CONTROLS:
        inputs = ["1" * n + "0", "1" * n + "1", "0" * (n + 1), ("10" * n)[: n + 1]]
        for optimize in (False, True):
            for gate in GATES + ("@matrix.json",):
                name = f"c{n}{'g' if optimize else ''}{gate.lstrip('@').split('.')[0]}.circ"
                synth = ["synth", "--controls", str(n), "--gate", gate, "--out", name]
                run(main, synth + ["--optimize"] * optimize, written=name)
                if gate not in GATES:
                    continue
                with open(name, encoding="utf-8") as f:
                    lines = f.read().splitlines(keepends=True)
                rows = [i for i, line in enumerate(lines) if line.split()[:1] in (["cnot"], ["cv"], ["cvdg"])]
                files = [name]
                for k in sorted({len(rows) * i // DELETIONS for i in range(DELETIONS)}):
                    mutant = f"{name[:-5]}-{k}.circ"
                    with open(mutant, "w", encoding="utf-8") as f:
                        f.write("".join(line for i, line in enumerate(lines) if i != rows[k]))
                    files.append(mutant)
                if n in DENSE_CONTROLS:
                    for control, target in ((0, n), (n, 0)):
                        dense = f"{name[:-5]}+{control}{target}.circ"
                        with open(dense, "w", encoding="utf-8") as f:
                            f.write("".join(lines) + f"cnot {control} {target}\n")
                        files.append(dense)
                for path in files:
                    for spec in (gate, "I", "Y", "@matrix.json"):
                        run(main, ["check", "--circuit", path, "--controls", str(n), "--gate", spec])
                    for bits in inputs:
                        run(main, ["simulate", "--circuit", path, "--input", bits])
    for n in FULL_WIDTHS:
        run(main, ["verify-identity", "--n", str(n)])
    for n in SAMPLED_WIDTHS:
        for samples in SAMPLES:
            given = [] if samples is None else ["--samples", str(samples)]
            run(main, ["verify-identity", "--n", str(n), "--recurrent-only"] + given)
    for source, marked in (("c2H.circ", "bom.circ"), ("matrix.json", "bom.json")):
        with open(source, "rb") as f, open(marked, "wb") as out:
            out.write(codecs.BOM_UTF8 + f.read())
    run(main, ["simulate", "--circuit", "bom.circ", "--input", "110"])
    synth = ["synth", "--controls", "2", "--gate", "@bom.json", "--out", "bom-synth.circ"]
    run(main, synth, written="bom-synth.circ")


if __name__ == "__main__":
    from mcusynth.cli import main

    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        sweep(main)
