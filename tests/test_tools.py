"""The scripts in ``tools/``: which lines the code-line counter counts, and what the solver audit reports."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)
_SPEC = importlib.util.spec_from_file_location("solver_audit", ROOT / "tools" / "solver_audit.py")
solver_audit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(solver_audit)

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


SRC = ROOT / "src" / "symtomo"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; ``from __future__`` imports are not names."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_of_the_package_is_used():
    # __init__.py imports to re-export, so it is the one module exempt
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    assert [fault for path in modules for fault in unused_imports(path)] == []


def test_the_import_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                    "from typing import NamedTuple, Optional\nx: Optional[int] = np.pi\n")
    assert unused_imports(path) == ["sample.py:2: os", "sample.py:4: NamedTuple"]


def test_the_solver_audit_solves_each_data_set_five_ways():
    audit = solver_audit.solves(ns=(2,), seeds=(1000,))
    assert sorted(audit) == [f"n=2 seed=1000 {name}" for name in
                             ("cvqt gamma=0", "cvqt gamma=0.001", "git gamma=0", "git gamma=0.001", "maxlik")]
    assert all(set(s) == {"objective", "converged", "iterations", "least_eigenvalue"} for s in audit.values())
    assert any(line.startswith("total ") for line in solver_audit.report(audit))


def test_the_solver_audit_counts_converged_solves_above_the_lower_objective():
    def solve(objective, converged=True):
        return {"objective": objective, "converged": converged, "iterations": 1, "least_eigenvalue": 0.0}

    mine = {"a": solve(1.0 + 2e-8), "b": solve(-30.0 + 1e-7), "c": solve(5.0, False), "d": solve(2.0)}
    other = {"a": solve(1.0), "b": solve(-30.0), "c": solve(1.0), "d": solve(2.0 + 1e-6)}
    # b lies 1e-7 above -30, which is under 1e-8 * 30; c did not converge
    assert solver_audit.above_lower(mine, other) == ["a"]
    assert solver_audit.above_lower(other, mine) == ["d"]
