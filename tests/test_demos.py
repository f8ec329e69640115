"""The demo scripts print exactly the bytes they printed when pinned, and
the package re-exports exactly the names they and the README example use."""

import ast
import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

import qlab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# SHA-256 of each demo's stdout; any change to a printed byte fails here.
DIGESTS = {
    "character_heads.py": "bf806cfa69ad857a419840ec95f7a6cd0c03baa52c1af4a87540e13cdb1e6c25",
    "grading_walkthrough.py": "dab6719e48caaa4d6ed0abd2050025a4181874f82f157586d7554eebb43a955f",
    "identity_tour.py": "b1911e292d7a41e19814f1fc9a8e0f33dc14cc586c571a75ae996fa8b49490f0",
    "path_census.py": "9b9a31c8e14be4dde93ca926a4a17cc25decaeaabf4f701a106855805505274e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[name]


def _qlab_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "qlab"
            for alias in node.names}


def test_package_exports_what_demos_and_readme_import():
    readme = (ROOT / "README.md").read_text()
    blocks = [b.split("\n", 1)[1] for b in readme.split("```")[1::2]
              if b.startswith("python\n")]
    assert blocks
    used = set().union(*(_qlab_imports(s) for s in blocks),
                       *(_qlab_imports(p.read_text()) for p in DEMOS.glob("*.py")))
    assert used == set(qlab.__all__)
