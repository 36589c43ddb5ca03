"""tools/loc.py counts the lines that hold code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''"""A module docstring,
two lines long."""

import os  # a comment on a code line counts

# a comment line does not


class Thing:
    """A class docstring."""

    def method(self):
        """A method docstring."""
        text = """a string that is
not a docstring"""
        return text


def function():
    "a one-line docstring"
    return {
        "key": os.sep,
    }
'''


def test_counts_a_fixture_tree(tmp_path, capsys):
    # the module's code lines: the import, the class line, the def line,
    # the two lines of the string, the return, the def line and the three
    # lines of the return statement
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    package, tests = tmp_path / "src" / "mcusynth", tmp_path / "tests"
    package.mkdir(parents=True)
    tests.mkdir()
    (package / "thing.py").write_text(MODULE, encoding="utf-8")
    (package / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    (tests / "test_thing.py").write_text("def test_it():\n    assert True\n", encoding="utf-8")
    loc.main(tmp_path)
    assert capsys.readouterr().out == (
        "src/mcusynth/empty.py\t0\nsrc/mcusynth/thing.py\t10\nsrc/\t10\ntests/\t2\n"
    )
