"""End-to-end benchmark of the mcusynth CLI: synthesize, verify, simulate.

Usage, from the repository root:

    python3 bench/run.py --workload check_dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process, one closed-loop client: each request is a call to
``mcusynth.cli.main`` in this process, and the next request is sent only
after the previous one returns.  Every output is checked against a known
answer (see workloads.py).  With ``--trace 1`` the same requests run
alternately untraced and traced and the per-layer metrics are reported
instead of the end-to-end ones.  ``--workload all`` runs each workload in a
fresh process and prints one row per workload.

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the full
result, with seed, machine info and the metrics that do not go in the
contract line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# capped before numpy is imported, here and in every child process
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Request, gate_lines  # noqa: E402

SETUP_PROBES = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "failed_ratio": "ratio",
    "gate_count": "count",
    "peak_rss_mb": "MiB",
}
# failed_ratio is carried by attempted/failed; gate_count is zero on identity
CONTRACT_METRICS = ("setup_s", "latency_p50_s", "latency_tail_s", "throughput_rps", "peak_rss_mb")


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import mcusynth from this checkout's src/, never from elsewhere."""
    if not (SRC / "mcusynth" / "cli.py").is_file():
        raise ProgramMissing(f"no mcusynth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcusynth
    import mcusynth.cli

    if Path(mcusynth.__file__).resolve().parent != SRC / "mcusynth":
        raise ProgramMissing(f"imported mcusynth from {mcusynth.__file__}, not {SRC}")
    return mcusynth


def machine_info() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


# ------------------------------------------------------------- requests


def execute(mcusynth, req: Request) -> tuple[float, str | None]:
    """Run one request in-process; returns (latency, error or None)."""
    if req.prepare is not None:
        req.prepare()
    # start each request from a collected heap, as a fresh CLI process would
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mcusynth.cli.main(req.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raised request is a failed request, not a dead run
        raised = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if raised is not None:
        return latency, raised
    error = req.check(rc, out.getvalue())
    if error is not None and err.getvalue():
        error += f" (stderr: {err.getvalue().strip()[:200]})"
    return latency, error


def min_samples(percentile: float) -> int:
    """Requests needed for ten of them to lie beyond the percentile."""
    return math.ceil(1000 / (100 - percentile))


def run_workload(mcusynth, name: str, seed: int, seconds: float, trace: bool, workdir: Path, **sizes):
    """Closed loop over whole rounds until ``seconds`` have passed and at
    least ten requests lie beyond the workload's tail percentile.

    Returns a dict with latencies, failures, gate counts and, when traced,
    the tracer plus the traced/untraced request seconds.
    """
    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    latencies: list[float] = []
    by_label: dict[str, list[float]] = {}
    errors: list[str] = []
    gate_counts: list[int] = []
    tracer = spans.Tracer()
    paired = {"untraced": 0.0, "traced": 0.0}
    rounds = attempted = 0
    floor = min_samples(workload.tail_percentile)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < floor:
        requests = workload.make_round(rng, workdir, rounds, **sizes)
        passes = [False]
        if trace:
            passes = [False, True] if rounds % 2 == 0 else [True, False]
        for traced in passes:
            round_gates = 0
            for req in requests:
                if traced:
                    tracer.request += 1
                    with spans.installed(tracer, mcusynth):
                        latency, error = execute(mcusynth, req)
                else:
                    latency, error = execute(mcusynth, req)
                    latencies.append(latency)
                    by_label.setdefault(req.label, []).append(latency)
                attempted += 1
                paired["traced" if traced else "untraced"] += latency
                if error is not None:
                    errors.append(f"{' '.join(req.argv[:3])}: {error}")
                elif req.kind == "synth":
                    round_gates += gate_lines(Path(req.argv[req.argv.index("--out") + 1]))[1]
            if not traced:
                gate_counts.append(round_gates)
        rounds += 1
    return {
        "latencies": latencies,
        "by_label": by_label,
        "attempted": attempted,
        "errors": errors,
        "rounds": rounds,
        "gate_count": gate_counts[0] if gate_counts else 0,
        "tracer": tracer,
        "paired": paired,
        "requests_per_round": len(latencies) // rounds,
    }


# --------------------------------------------------------------- setup


def setup_probe(name: str, seed: int) -> None:
    """Child side of setup_s: import the program, build the first round."""
    load_program()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        WORKLOADS[name].make_round(np.random.default_rng(seed), workdir, 0)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> list[float]:
    """Process start to first request ready, in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit {child.returncode}")
    return times


# ------------------------------------------------------------- report


def end_to_end(result: dict, setup: list[float], workload) -> tuple[dict, dict]:
    lat = result["latencies"]
    p = workload.tail_percentile
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": float(np.percentile(lat, 50)),
        "latency_tail_s": float(np.percentile(lat, p)),
        # one closed-loop client: requests per second of program time
        "throughput_rps": len(lat) / sum(lat),
        "failed_ratio": len(result["errors"]) / result["attempted"],
        "gate_count": result["gate_count"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "tail_percentile": p,
        "samples": len(lat),
        "samples_beyond_tail": sum(x > metrics["latency_tail_s"] for x in lat),
        "rounds": result["rounds"],
        "requests_per_round": result["requests_per_round"],
        "gate_count_scope": "gates in the files synthesized by one round",
        "setup_samples_s": setup,
        "median_s_by_request": {k: statistics.median(v) for k, v in sorted(result["by_label"].items())},
    }
    return metrics, notes


def trace_report(result: dict, workload) -> tuple[dict, dict]:
    rounds = result["rounds"]
    metrics = spans.layer_report(result["tracer"], rounds)
    untraced, traced = result["paired"]["untraced"], result["paired"]["traced"]
    metrics["trace.overhead_s"] = (traced - untraced) / rounds
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    notes = {
        "per": "round (one fixed request mix); ratios and shares are not per round",
        "rounds": rounds,
        "predicted_share": workload.predicted_share,
        "untraced_request_s": untraced,
        "traced_request_s": traced,
    }
    return metrics, notes


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("share.") or metric.endswith("ratio"):
        return "ratio"
    if "bytes" in metric:
        return "bytes"
    return "count"


def run_one(args) -> int:
    try:
        mcusynth = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run_workload(mcusynth, args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if args.trace:
        metrics, notes = trace_report(result, workload)
        contract = metrics
    else:
        metrics, notes = end_to_end(result, setup, workload)
        contract = {k: metrics[k] for k in CONTRACT_METRICS}
        print(format_row(args.workload, metrics, notes))
    for err in result["errors"][:20]:
        print(f"FAILED {err}", file=sys.stderr)
    attempted, failed = result["attempted"], len(result["errors"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine_info(),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "notes": notes,
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in contract.items()},
            }
        )
    )
    return 0


def format_row(name: str, metrics: dict, notes: dict) -> str:
    cells = [f"{name:<14}"]
    for k, unit in END_TO_END_UNITS.items():
        label = f"{k}(p{notes['tail_percentile']:g})" if k == "latency_tail_s" else k
        cells.append(f"{label}={metrics[k]:.6g} {unit}")
    cells.append(f"n={notes['samples']}")
    return "  ".join(cells)


def run_all(args) -> int:
    """Each workload in its own fresh process; one row per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        detail, contract = json.loads(lines[-2]), json.loads(lines[-1])
        if args.trace:
            print(f"{name}: " + "  ".join(
                f"{k}={v['value']:.6g} {v['unit']}" for k, v in detail["metrics"].items()))
            print(f"{name}: predicted shares {detail['notes']['predicted_share']}")
        else:
            print(lines[-3])
        if not contract["correct"]:
            print(f"{name}: {contract['failed']} of {contract['attempted']} requests failed")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
