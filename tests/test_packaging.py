"""The package stays standard-library only, and its public names resolve."""

import ast
import importlib
import re
import sys
from pathlib import Path

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


def test_public_names_resolve():
    assert [name for name in pemsim.__all__ if not hasattr(pemsim, name)] == []


def test_console_script_resolves_to_a_callable():
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n?)*)", text, re.MULTILINE)
    assert section is not None
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', section.group(1), re.MULTILINE))
    assert scripts == {"pemsim": "pemsim.cli:entrypoint"}
    module, _, attr = scripts["pemsim"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
