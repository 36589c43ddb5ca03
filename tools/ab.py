"""Time two mcusynth trees side by side in one interpreter.

Run from a checkout:

    python tools/ab.py REV [--rounds N] [--name NAME]
    python tools/ab.py REV --outputs

``git archive`` extracts REV's ``src/mcusynth`` into a temporary directory.
That tree ("base") and this checkout's ``src/mcusynth`` ("change") are
imported as two packages, each under its own name, so each tree's relative
imports stay inside it.  The requests are the bench's own: each round takes
one round of every workload in ``bench/workloads.py``, its inputs drawn
from one generator seeded with 0, so the request classes are those that
``bench/run.py`` runs, with inputs drawn the same way.  Each request runs
once per tree, in a shuffled tree order, through that tree's ``cli.main``,
with ``gc.collect()`` before it.  Its client-side prepare step runs once,
before both and outside the timing, and each tree's answer is judged by
the request's known answer.

The result goes to ``BENCH_ab_<NAME>.json`` in the current directory.  It
holds the host, both revisions, each request class's median time per tree,
and per command the round-level ratios (the base tree's time over the
change's, so above 1 is faster) with their median and a bootstrap 95%
interval.  A ratio of per-round time sums is used, not a median of
per-request ratios: a ``synth`` request writes a file, so its single times
are bimodal.  This measures in-process request time only; fresh-process
metrics (``setup_s``, peak RSS) stay with ``bench/run.py``.

``--outputs`` runs ``tools/cli_outputs.py``'s sweep through both trees.
It prints one line per case whose output differs: the case's argv and its
first stdout line that differs, ``-`` for REV and ``+`` for the change.
Then it prints how many cases differ and exits 1; if none does, it exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TREES = ("base", "change")
BOOTSTRAP_RESAMPLES = 2000


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, into: Path) -> Path:
    """REV's src/mcusynth, unpacked under ``into``."""
    # the "data" filter refuses links and paths that leave ``into``; a
    # Python older than the extraction filters takes no such keyword
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src/mcusynth"))) as archive:
        archive.extractall(into, **safe)
    return into / "src" / "mcusynth"


def load(alias: str, package: Path):
    """The ``cli`` module of the package at ``package``, imported as ``alias``."""
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    for name in [m for m in sys.modules if m == alias or m.startswith(alias + ".")]:
        del sys.modules[name]  # an earlier load's modules
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def round_makers() -> list:
    """The round function of every bench workload, from bench/workloads.py,
    which imports nothing of mcusynth."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [workload.make_round for workload in workloads.WORKLOADS.values()]


def call(main, request) -> float:
    """Seconds that one request takes; a wrong answer is an error."""
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(request.argv)
        elapsed = time.perf_counter() - start
    error = request.check(code, out.getvalue())
    if error is not None:
        raise RuntimeError(f"{' '.join(request.argv)}: {error}")
    return elapsed


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def bootstrap(ratios: list[float], rng: np.random.Generator) -> list[float]:
    """95% interval of the median round ratio, over rounds drawn with replacement."""
    draws = rng.choice(np.array(ratios), size=(BOOTSTRAP_RESAMPLES, len(ratios)))
    return np.percentile(np.median(draws, axis=1), [2.5, 97.5]).tolist()


def compare(rev: str, rounds: int) -> dict:
    """Both trees' times over ``rounds`` interleaved rounds, as the JSON record."""
    times = {tree: {} for tree in TREES}  # label -> every request's time
    sums = {tree: {} for tree in TREES}  # command -> each round's total time
    commands = {}  # label -> command
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mains = {
            "base": load("mcusynth_ab_base", extract(rev, tmp / "base")).main,
            "change": load("mcusynth_ab_change", ROOT / "src" / "mcusynth").main,
        }
        workdir = tmp / "work"
        workdir.mkdir()
        makers, inputs, order = round_makers(), np.random.default_rng(0), random.Random(0)
        for index in range(rounds):
            for request in [r for make in makers for r in make(inputs, workdir, index)]:
                commands[request.label] = request.argv[0]
                if request.prepare is not None:
                    request.prepare()
                for tree in order.sample(TREES, 2):
                    elapsed = call(mains[tree], request)
                    times[tree].setdefault(request.label, []).append(elapsed)
                    per_round = sums[tree].setdefault(request.argv[0], [0.0] * rounds)
                    per_round[index] += elapsed

    rng = np.random.default_rng(0)
    groups = {}
    for command, base in sums["base"].items():
        ratios = [b / c for b, c in zip(base, sums["change"][command])]
        groups[command] = {
            "classes": sorted(label for label, c in commands.items() if c == command),
            "per_round_ratio": ratios,
            "median_ratio": statistics.median(ratios),
            "ci95": bootstrap(ratios, rng),
        }
    return {
        "what": "in-process request time of two trees interleaved in one interpreter;"
        " ratio = base time / change time, so above 1 the change is faster",
        "host": {
            "machine": platform.machine(),
            "cpu_model": cpu_model(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "revisions": {
            "base": git("rev-parse", f"{rev}^{{commit}}").decode().strip(),
            "change": git("rev-parse", "HEAD").decode().strip()
            + ("+dirty" if git("status", "--porcelain", "--", "src").strip() else ""),
        },
        "rounds": rounds,
        "class_median_s": {
            label: {tree: statistics.median(times[tree][label]) for tree in TREES}
            for label in sorted(commands)
        },
        "groups": groups,
    }


def listing(main) -> list[str]:
    """tools/cli_outputs.py's listing through ``main``, one JSON line per case."""
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    here, out = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(out):
        os.chdir(workdir)
        try:
            outputs.sweep(main)
        finally:
            os.chdir(here)
    return out.getvalue().splitlines()


def difference(rev: str, before: str | None, after: str | None) -> str:
    """The line for one case that REV's listing (``before``) and the
    change's (``after``) differ on: its argv, then the first stdout line
    that differs, as JSON (null where one stdout has no such line).  The
    argv, if it differs, stands in for the line, and so do the exit code
    and the file digest where the stdout agrees."""
    if before is None or after is None:
        argv = json.loads(before or after)[0]
        return f"{' '.join(argv)}: only in {rev if after is None else 'the change'}"
    (argv, code, out, *digest), (argv2, code2, out2, *digest2) = map(json.loads, (before, after))
    pairs = [
        (argv, argv2),
        *itertools.zip_longest(out.splitlines(), out2.splitlines()),
        (code, code2),
        (digest, digest2),
    ]
    old, new = next(pair for pair in pairs if pair[0] != pair[1])
    return f"{' '.join(argv)}: -{json.dumps(old)} +{json.dumps(new)}"


def same_outputs(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = listing(load("mcusynth_ab_base", extract(rev, Path(tmp))).main)
    change = listing(load("mcusynth_ab_change", ROOT / "src" / "mcusynth").main)
    cases = list(itertools.zip_longest(base, change))
    differ = [difference(rev, before, after) for before, after in cases if before != after]
    if not differ:
        print(f"{len(change)} cases, all outputs equal")
        return 0
    print(*differ, sep="\n")
    print(f"{len(differ)} of {len(cases)} cases differ")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare this checkout's src/ against")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--name", help="writes BENCH_ab_NAME.json (default: the short REV)")
    parser.add_argument("--outputs", action="store_true", help="compare outputs, not times")
    args = parser.parse_args(argv)
    if args.outputs:
        return same_outputs(args.rev)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    record = compare(args.rev, args.rounds)
    name = args.name or git("rev-parse", "--short", args.rev).decode().strip()
    path = Path(f"BENCH_ab_{name}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    for command, group in record["groups"].items():
        lo, hi = group["ci95"]
        print(f"{command}: base/change {group['median_ratio']:.3f} (95% {lo:.3f}-{hi:.3f})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
