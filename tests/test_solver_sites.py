"""Every dense eigensolve goes through ``prolate._eigh``.

The real-symmetric reduction lives there, so a direct ``eigh``/``eigvalsh``
call anywhere else in the package would silently bypass it.
"""

import ast
from pathlib import Path

import mdprolate

SOLVERS = {"eigh", "eigvalsh"}
PACKAGE = Path(mdprolate.__file__).parent


def solver_references(source: str) -> list[str]:
    """``function:line`` of every reference to a solver name in ``source``,
    as an attribute (``np.linalg.eigh``), a bare name or an import."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        hit = ((isinstance(node, ast.Attribute) and node.attr in SOLVERS)
               or (isinstance(node, ast.Name) and node.id in SOLVERS)
               or (isinstance(node, ast.ImportFrom)
                   and any(alias.name in SOLVERS for alias in node.names)))
        if hit:
            found.append(f"{scope or '<module>'}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_finder_sees_every_spelling():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigvalsh\n"
              "def f(a):\n"
              "    return np.linalg.eigh(a), eigvalsh(a)\n")
    assert solver_references(source) == ["<module>:2", "f:4", "f:4"]


def test_only_the_reducing_entry_point_calls_a_solver():
    stray = {}
    for path in sorted(PACKAGE.glob("*.py")):
        refs = solver_references(path.read_text())
        if path.name == "prolate.py":
            assert refs, "prolate._eigh no longer calls a solver"
            refs = [r for r in refs if not r.startswith("_eigh:")]
        if refs:
            stray[path.name] = refs
    assert stray == {}
