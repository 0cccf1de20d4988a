"""The README's CLI section names every row ``verify`` writes, and no
retired row name is left in the package or the README."""

from pathlib import Path

import pytest

import mdprolate
from mdprolate import verify_config

from test_verify_mutations import CONFIGS

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(mdprolate.__file__).parent

# Row names that were renamed or dropped.
RETIRED = ("modulation_invariance_max_err",)


def _cli_section() -> str:
    text = README.read_text()
    return text[text.index("\n## CLI\n"):text.index("\n## Tests\n")]


@pytest.mark.parametrize("config", list(CONFIGS))
def test_readme_names_every_verify_row(config):
    section = _cli_section()
    metrics = {r.metric for r in verify_config(CONFIGS[config]())}
    assert {m for m in metrics if f"`{m}`" not in section} == set()


def test_no_retired_row_name_is_left():
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    texts["README.md"] = README.read_text()
    assert {(name, retired) for name, text in texts.items()
            for retired in RETIRED if retired in text} == set()
