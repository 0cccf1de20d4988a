"""Mutated configurations end in an exit code, never a traceback.

Each example takes one of three small configurations (the README union
with its parallelogram at 8 x 8, a 1-D union at n = 32 and a 3-D two-box
union at 4 x 4 x 4), deletes one key or replaces one value anywhere in it
(None, a bool, a string, +-0, NaN, +-inf, +-1e308, a subnormal, 2**63, a
list of the wrong length or an object), and runs it through ``cli.main``:
``bands validate``, ``spectrum`` and one of ``verify``, ``approx`` and
``dict``.  The oracle:

* every command exits 0, 1 or 2, and only ``verify``, ``approx`` and
  ``bands validate`` may exit 1;
* an exit 2 writes one JSON line to stderr;
* no exception escapes ``main``;
* ``bands validate`` exits 0 exactly when ``spectrum`` does.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mdprolate.cli import main

import pinned

CONFIGS = [
    {"dim": 2,
     "cubic": [{"center": list(c), "half_widths": list(w)}
               for c, w in zip(pinned.REF_2D_CENTERS, pinned.REF_2D_HALF_WIDTHS)],
     "parallelepiped": [{"a": 1.0, "b": 0.4, "c": 0.0, "d": 1.0,
                         "half_widths": [0.1, 0.1], "center": [0.0, 0.0]}],
     "grid": [8, 8]},
    {"dim": 1,
     "cubic": [{"center": [-0.10], "half_widths": [0.05]},
               {"center": [0.20], "half_widths": [0.05]}],
     "grid": [32]},
    {"dim": 3,
     "cubic": [{"center": [-0.15, -0.10, -0.10], "half_widths": [0.10, 0.10, 0.10]},
               {"center": [0.20, 0.15, 0.15], "half_widths": [0.10, 0.10, 0.10]}],
     "grid": [4, 4, 4]},
]
VALUES = [None, True, False, "x", 0, 0.0, -0.0, float("nan"), float("inf"),
          float("-inf"), 1e308, -1e308, 5e-324, 2**63, [], [0.1], [0.1, 0.1, 0.1], {}]
DELETE = object()
# The commands that report a failed check with exit 1.
MAY_FAIL = {"verify", "approx", "bands validate"}
ARGV = {
    "bands validate": ["bands", "validate"],
    "spectrum": ["spectrum"],
    "verify": ["verify"],
    "approx": ["approx", "--trials", "20"],
    "dict": ["dict"],
}


def _paths(node, path=()):
    """Every path into ``node``: each mapping key and list index."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    *parents, last = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from([DELETE] + VALUES))
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def _run(command: str, config: str, out: Path) -> int:
    """Exit code of one command, checked against the per-run oracle."""
    argv = ARGV[command] + ["--config", config]
    if command != "bands validate":
        argv += ["--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (command, code)
    assert code != 1 or command in MAY_FAIL, command
    if code == 2:
        [line] = err.getvalue().splitlines()
        assert json.loads(line)["error"]
    return code


@given(mutated(), st.sampled_from(["verify", "approx", "dict"]))
@settings(max_examples=150, deadline=None)
def test_a_mutated_config_exits_cleanly(doc, third):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "bands.json"
        config.write_text(json.dumps(doc))
        validated = _run("bands validate", str(config), Path(tmp) / "o")
        solved = _run("spectrum", str(config), Path(tmp) / "o")
        assert (validated == 0) == (solved == 0), (validated, solved)
        _run(third, str(config), Path(tmp) / "o")
