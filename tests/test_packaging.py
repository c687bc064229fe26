"""The package stays standard-library only, its public names resolve, every
name it defines has a caller, the reference evening ships as package data,
and the README's library example runs."""

import ast
import importlib
import importlib.resources
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pemsim

ROOT = Path(__file__).resolve().parent.parent


def test_no_declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_imports_are_stdlib_or_relative():
    foreign = []
    for path in sorted((ROOT / "src" / "pemsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


# Registers the package without running its __init__, so the module named
# on the command line is the first one imported and pulls in its own
# dependencies in its own order.
IMPORT_FIRST = """
import importlib, importlib.util, sys
sys.modules["pemsim"] = importlib.util.module_from_spec(importlib.util.find_spec("pemsim"))
importlib.import_module(sys.argv[1])
"""


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in (ROOT / "src" / "pemsim").glob("*.py"))
)
def test_module_imports_on_its_own(module):
    """Each module imports first in a fresh interpreter. Importing the
    package loads its modules in the order of __init__, which can hide an
    import cycle that a module imported first trips over."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if module == "__init__":
        argv = [sys.executable, "-c", "import pemsim"]
    else:
        argv = [sys.executable, "-c", IMPORT_FIRST, f"pemsim.{module}"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_reference_evening_ships_as_package_data():
    """The evening that three_household_scenario loads is the repository's
    scenarios/three_household.json byte for byte, importlib.resources finds
    it in the package, and the packaging config lists it, so an installed
    package carries it too."""
    shipped = ROOT / "src" / "pemsim" / "three_household.json"
    assert shipped.read_bytes() == (ROOT / "scenarios" / "three_household.json").read_bytes()
    resource = importlib.resources.files("pemsim") / "three_household.json"
    assert resource.is_file() and resource.read_bytes() == shipped.read_bytes()
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(
        r"^\[tool\.setuptools\.package-data\]\n((?:[^\[\n].*\n?)*)", text, re.MULTILINE
    )
    assert section is not None
    assert re.search(r'^pemsim = \[.*"three_household\.json".*\]$', section.group(1), re.MULTILINE)


def test_public_names_resolve():
    assert [name for name in pemsim.__all__ if not hasattr(pemsim, name)] == []


def _loaded_names(node) -> Counter:
    """How often each name is read under `node`, as a Name or as an
    attribute: `x`, `obj.x` and `mod.x` all count for x."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_name_has_a_caller():
    """Each module-level function, class and assigned name in src/pemsim,
    and each method, is named in src/pemsim outside its own definition, or
    is public in pemsim.__all__. An import alone is no use; a dunder is
    called by Python itself. Names match by spelling only, so a method
    passes when any attribute of that name is read."""
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "pemsim").glob("*.py"))
    }
    everywhere = sum(map(_loaded_names, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(t.id, node) for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    defined += [
                        (f.name, f) for f in node.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ]
            else:
                continue
            unused += [
                f"{module}: {name}"
                for name, definition in defined
                if not (name.startswith("__") and name.endswith("__"))
                and name not in pemsim.__all__
                and everywhere[name] == _loaded_names(definition)[name]
            ]
    assert unused == []


def test_readme_library_example_runs(tmp_path):
    """The fenced Python block under "## Library use" runs as written, in a
    fresh interpreter with src on the path, so it cannot go stale as public
    names change."""
    section = (ROOT / "README.md").read_text().partition("\n## Library use\n")[2]
    block = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-W", "error", "-c", block.group(1)]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_console_script_resolves_to_a_callable():
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n?)*)", text, re.MULTILINE)
    assert section is not None
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', section.group(1), re.MULTILINE))
    assert scripts == {"pemsim": "pemsim.cli:entrypoint"}
    module, _, attr = scripts["pemsim"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
