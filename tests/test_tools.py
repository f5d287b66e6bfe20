"""The code-line counter in ``tools/``: which lines count as code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment on a code line: the line counts


# a comment line does not count
def f(x):
    """A function docstring."""
    text = """a string that is
    not a docstring"""
    return (x +
            len(text))


class C:
    "A class docstring."
    y = os.sep
'''


def test_only_lines_with_code_outside_docstrings_count(tmp_path, capsys):
    # import, def, the two lines of the string, the two lines of the return, class, y
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 8
    code_lines.main([str(tmp_path), str(path)])
    assert capsys.readouterr().out.splitlines()[-1].split() == ["8", "total"]  # counted once
