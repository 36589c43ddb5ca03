"""README's library example and CLI block run as written, and the library
example imports only the package's public names."""

import ast
import re
import shlex
from pathlib import Path

import mcusynth
from mcusynth.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert block is not None, f"README's {heading} section has no {language} block"
    return block.group(1)


def test_library_example_runs():
    exec(compile(section_block("Library", "python"), "README.md (Library)", "exec"), {})


def test_public_names():
    # every name the package exports resolves, and README's example imports
    # from the package only what it exports
    assert sorted(mcusynth.__all__) == (
        "NAMED_GATES circuit_unitary linear_trace operator_distance peephole_cancel"
        " reference_mcu synth_mcu unitary_root"
    ).split()
    assert [name for name in mcusynth.__all__ if not hasattr(mcusynth, name)] == []
    tree = ast.parse(section_block("Library", "python"))
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported and set(imported) <= set(mcusynth.__all__)


def test_cli_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [line for line in section_block("CLI", "sh").splitlines() if line.startswith("mcusynth ")]
    assert len(commands) == 6
    for line in commands:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if "--optimize" in argv:
            # the comment above it promises 13 gates
            assert "total=13\n" in out, out
