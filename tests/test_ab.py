"""tools/ab.py times this checkout against a git revision and records it."""

import functools
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_a_a_record(tmp_path, monkeypatch, capsys):
    # HEAD against this checkout, two rounds of two bench workloads at
    # their smallest sizes
    try:
        subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout")
    ab = load_ab()
    check_dense, _, identity = ab.round_makers()
    tiny = [
        functools.partial(check_dense, sizes=(2,)),
        functools.partial(identity, full=(3,), recurrent=(4,), samples=(10,)),
    ]
    monkeypatch.setattr(ab, "round_makers", lambda: tiny)
    monkeypatch.chdir(tmp_path)
    assert ab.main(["HEAD", "--rounds", "2", "--name", "aa"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote BENCH_ab_aa.json"
    record = json.loads((tmp_path / "BENCH_ab_aa.json").read_text())
    assert set(record) == {"what", "host", "revisions", "rounds", "class_median_s", "groups"}
    assert set(record["host"]) == {"machine", "cpu_model", "cpus", "python", "numpy"}
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    assert record["revisions"]["base"] == head
    assert record["revisions"]["change"].removesuffix("+dirty") == head
    assert record["rounds"] == 2
    assert list(record["class_median_s"]) == [
        "check w3 opt", "check w3 opt mutant", "check w3 raw", "check w3 raw mutant",
        "synth n=2 opt", "synth n=2 raw",
        "verify-identity n=3", "verify-identity n=4 recurrent samples=10",
    ]
    for medians in record["class_median_s"].values():
        assert set(medians) == {"base", "change"} and all(t > 0 for t in medians.values())
    assert sorted(record["groups"]) == ["check", "synth", "verify-identity"]
    for command, group in record["groups"].items():
        assert group["classes"] == [label for label in record["class_median_s"] if label.startswith(command)]
        assert len(group["per_round_ratio"]) == 2
        lo, hi = group["ci95"]
        assert 0 < lo <= group["median_ratio"] <= hi
