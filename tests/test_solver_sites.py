"""Every dense eigensolve goes through ``prolate._eigh`` and reads only the
lower triangle, only the dense references gather a matrix, only
``verify.max_workers`` reads the environment, ``verify`` builds no
configuration beyond its default and one single-box spec, and no code
outside two row choices asks which geometry a spec has.

The real-symmetric reduction lives there, so a direct ``eigh``/``eigvalsh``
call anywhere else in the package would silently bypass it.  Its real
forms hold nothing but their lower triangles, so every solver call passes
``UPLO="L"``.  Table-backed covariances are solved from their tables, so
a ``.matrix`` read or a ``_gather`` call is allowed only where a dense
matrix is the point: the hand-built covariance and the public dense
kernels.  The translation rows move the solved band set itself, so
``verify`` constructs no band union or spec for them and calls no
``.shifted``.  Every spec builds its own band set, so a dispatch on the
spec's type is allowed only where the rows differ by geometry: the gap
bound proved for boxes and verify's choice of closing rows.  Only
``spectrum --vectors`` writes every eigenvector, so ``cli.cmd_spectrum``
is the one caller of the full-vector ``spectrum()``: the draws solve
through ``operator._draw_spectrum`` and phi through ``build_phi``'s cut.
"""

import ast
from pathlib import Path

import mdprolate

SOLVERS = {"eigh", "eigvalsh"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
BUILDERS = {"CubicBandUnion", "OperatorSpec", "PPOperatorSpec", "shifted"}
SPECS = {"OperatorSpec", "PPOperatorSpec"}
PACKAGE = Path(mdprolate.__file__).parent


def _references(source: str, hit) -> list[str]:
    """``function:line`` of every node of ``source`` that ``hit`` accepts."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if hit(node):
            found.append(f"{scope or '<module>'}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def solver_references(source: str) -> list[str]:
    """``function:line`` of every reference to a solver name in ``source``,
    as an attribute (``np.linalg.eigh``), a bare name or an import."""
    return _references(source, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr in SOLVERS)
        or (isinstance(node, ast.Name) and node.id in SOLVERS)
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in SOLVERS for alias in node.names))))


def upper_solves(source: str) -> list[str]:
    """``function:line`` of every solver call in ``source`` that does not
    pass ``UPLO="L"`` as a keyword."""
    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in SOLVERS and not any(
            k.arg == "UPLO" and isinstance(k.value, ast.Constant) and k.value.value == "L"
            for k in node.keywords)
    return _references(source, hit)


def dense_references(source: str) -> list[str]:
    """``function:line`` of every ``.matrix`` read and every ``_gather``
    call (bare or as an attribute) in ``source``."""
    def hit(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "matrix" and isinstance(node.ctx, ast.Load)
        if isinstance(node, ast.Call):
            f = node.func
            return ((isinstance(f, ast.Name) and f.id == "_gather")
                    or (isinstance(f, ast.Attribute) and f.attr == "_gather"))
        return False
    return _references(source, hit)


def environment_references(source: str) -> list[str]:
    """``function:line`` of every reference to ``os.environ`` or
    ``os.getenv`` (and their bytes forms) in ``source``, as an attribute, a
    bare name or an import."""
    return _references(source, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
        or (isinstance(node, ast.Name) and node.id in ENVIRONMENT)
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in ENVIRONMENT for alias in node.names))))


def builder_calls(source: str) -> list[str]:
    """``function:line`` of every call in ``source`` to a band-union or spec
    constructor, or to ``.shifted``, bare or as an attribute."""
    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in BUILDERS
    return _references(source, hit)


def spec_dispatches(source: str) -> list[str]:
    """``function:line`` of every ``isinstance`` call in ``source`` whose
    class argument names a spec class, bare, as an attribute, or inside a
    tuple or a ``|`` union."""
    def hit(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return False
        named = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(node.args[1])
                 if isinstance(n, (ast.Name, ast.Attribute))}
        return bool(named & SPECS)
    return _references(source, hit)


def spectrum_references(source: str) -> list[str]:
    """``function:line`` of every read of the name ``spectrum``, bare or as
    an attribute (``operator.spectrum``): a call, or the function passed
    on.  ``spectrum_values`` and other names containing it do not count."""
    return _references(source, lambda node: (
        (isinstance(node, ast.Name) and node.id == "spectrum"
         and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "spectrum"
            and isinstance(node.ctx, ast.Load))))


# Where the package may read a dense matrix: (module, function) -> count.
DENSE_ALLOWED = {
    # The covariance itself: the gather and the hand-built trace and norm.
    ("operator.py", "DenseCovariance.matrix"): 1,
    ("operator.py", "DenseCovariance.trace"): 1,
    ("operator.py", "DenseCovariance.frobenius_sq"): 2,
    # A hand-built covariance is read from its matrix.
    ("operator.py", "_decompose"): 1,
    # The public dense kernels.
    ("prolate.py", "sinc_kernel"): 1,
    ("prolate.py", "multiband_kernel"): 1,
}


# Where the package may ask a spec's geometry: (module, function) -> count.
DISPATCH_ALLOWED = {
    # The closed-form gap bound is proved for boxes only.
    ("operator.py", "trace_frobenius_gap"): 1,
    # The closing rows: 2-D boxes or the parallelogram's Hermitian row.
    ("verify.py", "_suite"): 1,
}


# Where verify may build a configuration: function -> count.
VERIFY_BUILDS_ALLOWED = {
    # The built-in configuration's box union.
    "default_config": 1,
    # The first box alone, for the separable route.
    "_suite": 1,
}


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


def test_upper_finder_sees_every_spelling():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigvalsh\n"
              "def f(a):\n"
              "    np.linalg.eigh(a, UPLO='L'), eigvalsh(a, UPLO='L')\n"
              "    return np.linalg.eigh(a), eigvalsh(a, 'L'), eigvalsh(a, UPLO='U')\n")
    assert upper_solves(source) == ["f:5", "f:5", "f:5"]


def test_every_solve_reads_the_lower_triangle():
    found = {path.name: upper_solves(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(solver_references(path.read_text()))
               for path in PACKAGE.glob("*.py")) >= 2
    assert {name: refs for name, refs in found.items() if refs} == {}


def test_dense_finder_sees_every_spelling():
    source = ("from .prolate import _gather\n"
              "def f(cov, t):\n"
              "    cov.matrix = None\n"
              "    return cov.matrix @ prolate._gather(t), _gather(t)\n")
    assert dense_references(source) == ["f:4", "f:4", "f:4"]


def test_only_the_dense_references_read_a_matrix():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for ref in dense_references(path.read_text()):
            key = (path.name, ref.rsplit(":", 1)[0])
            found[key] = found.get(key, 0) + 1
    stray = {key: count for key, count in found.items()
             if count > DENSE_ALLOWED.get(key, 0)}
    assert stray == {}


def test_environment_finder_sees_every_spelling():
    source = ("import os\n"
              "from os import environ, getenv\n"
              "def f():\n"
              "    return os.environ.get('A'), os.getenv('B'), environ['C'], getenv('D')\n")
    assert environment_references(source) == ["<module>:2", "f:4", "f:4", "f:4", "f:4"]


def test_only_the_worker_cap_reads_the_environment():
    """The package's one environment knob is ``MDPROLATE_THREADS``, read
    by ``verify.max_workers``; no test or debug switch hides in the code."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for ref in environment_references(path.read_text()):
            key = (path.name, ref.rsplit(":", 1)[0])
            found[key] = found.get(key, 0) + 1
    assert found == {("verify.py", "max_workers"): 1}


def test_builder_finder_sees_every_spelling():
    source = ("from .bands import CubicBandUnion\n"
              "def f(spec, u, c, w, band):\n"
              "    bands.CubicBandUnion(c, w), OperatorSpec(spec.grid, u)\n"
              "    return PPOperatorSpec(spec.grid, ()), band.shifted((0.0, 0.0))\n")
    assert builder_calls(source) == ["f:3", "f:3", "f:4", "f:4"]


def test_verify_builds_no_configuration_for_the_translation_rows():
    found = {}
    for ref in builder_calls((PACKAGE / "verify.py").read_text()):
        scope = ref.rsplit(":", 1)[0]
        found[scope] = found.get(scope, 0) + 1
    stray = {scope: count for scope, count in found.items()
             if count > VERIFY_BUILDS_ALLOWED.get(scope, 0)}
    assert stray == {}


def test_dispatch_finder_sees_every_spelling():
    source = ("from . import operator\n"
              "def f(spec, x):\n"
              "    isinstance(spec, OperatorSpec), isinstance(x, int)\n"
              "    return (isinstance(spec, (int, operator.OperatorSpec)),\n"
              "            isinstance(spec, PPOperatorSpec | OperatorSpec))\n")
    assert spec_dispatches(source) == ["f:3", "f:4", "f:5"]


def test_only_the_row_choices_ask_a_spec_its_geometry():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for ref in spec_dispatches(path.read_text()):
            key = (path.name, ref.rsplit(":", 1)[0])
            found[key] = found.get(key, 0) + 1
    stray = {key: count for key, count in found.items()
             if count > DISPATCH_ALLOWED.get(key, 0)}
    assert stray == {}


def test_spectrum_finder_sees_every_spelling():
    source = ("from .operator import spectrum, spectrum_values\n"
              "def f(cov, covs, spec_spectrum):\n"
              "    spectrum_values(cov), spec_spectrum, operator.spectrum(cov)\n"
              "    return spectrum(cov), list(map(spectrum, covs))\n")
    assert spectrum_references(source) == ["f:3", "f:4", "f:4"]


def test_only_cmd_spectrum_solves_for_every_eigenvector():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for ref in spectrum_references(path.read_text()):
            key = (path.name, ref.rsplit(":", 1)[0])
            found[key] = found.get(key, 0) + 1
    assert found == {("cli.py", "cmd_spectrum.run"): 1}
