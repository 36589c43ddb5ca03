"""tools/ab.py times this checkout against a git revision and records it."""

import functools
import importlib.util
import json
import subprocess
import types
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



def case(argv, code, out, *digest):
    """One line of tools/cli_outputs.py's listing."""
    return json.dumps([argv.split(), code, out, *digest])


SYNTH = "synth --controls 1 --gate X --out c.circ", 0, "cnot=0 cv=1 cvdg=0 total=1\n", "ab12"
CHECK = "check --circuit c.circ --controls 1 --gate Y", 1, "distance 1\nFAIL (tolerance 1e-09)\n"
SIMULATE = "simulate --circuit c.circ --input 10", 0, "|11>: 1.0\n"
LISTING = [case(*SYNTH), case(*CHECK), case(*SIMULATE)]


def compare_outputs(monkeypatch, base, change):
    """``tools/ab.py REV --outputs`` over two given listings, with no tree
    extracted or imported."""
    ab = load_ab()
    listings = {"mcusynth_ab_base": base, "mcusynth_ab_change": change}
    monkeypatch.setattr(ab, "extract", lambda rev, into: into)
    monkeypatch.setattr(ab, "load", lambda alias, package: types.SimpleNamespace(main=alias))
    monkeypatch.setattr(ab, "listing", lambda main: listings[main])
    return ab.main(["REV", "--outputs"])


def test_outputs_equal(monkeypatch, capsys):
    assert compare_outputs(monkeypatch, LISTING, list(LISTING)) == 0
    assert capsys.readouterr().out == "3 cases, all outputs equal\n"


def test_outputs_differ(monkeypatch, capsys):
    # one line per differing case: its first differing stdout line (null
    # where it has none), else its exit code or file digest
    change = [
        case(*SYNTH[:3], "cd34"),
        case(*CHECK[:2], "distance 1.0\nFAIL (tolerance 1e-09)\n"),
        case(*SIMULATE[:2], SIMULATE[2] + "|10>: 0.0\n"),
    ]
    assert compare_outputs(monkeypatch, LISTING + [case(*CHECK)], change + [case(*CHECK)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'synth --controls 1 --gate X --out c.circ: -["ab12"] +["cd34"]',
        'check --circuit c.circ --controls 1 --gate Y: -"distance 1" +"distance 1.0"',
        'simulate --circuit c.circ --input 10: -null +"|10>: 0.0"',
        "3 of 4 cases differ",
    ]
    # the same stdout under another exit code
    assert compare_outputs(monkeypatch, LISTING[:2], [LISTING[0], case(CHECK[0], 0, CHECK[2])]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{CHECK[0]}: -1 +0", "1 of 2 cases differ"]


@pytest.mark.parametrize("longer", ["base", "change"])
def test_outputs_of_different_lengths(monkeypatch, capsys, longer):
    # a case that one listing lacks differs
    base, change = (LISTING, LISTING[:2]) if longer == "base" else (LISTING[:2], LISTING)
    assert compare_outputs(monkeypatch, base, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{SIMULATE[0]}: only in {'REV' if longer == 'base' else 'the change'}",
        "1 of 3 cases differ",
    ]
