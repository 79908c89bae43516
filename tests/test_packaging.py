"""Declared dependencies match what the code imports."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(requirements: list[str]) -> set[str]:
    return {re.split(r"[<>=!~\[; ]", req.strip(), maxsplit=1)[0] for req in requirements}


def test_cli_import_loads_no_scipy():
    """scipy is a test-only dependency: the CLI (and every worker that
    imports the library) must start without it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert _names(project["dependencies"]) == {"numpy"}
    lines = (ROOT / "requirements.txt").read_text("utf-8").splitlines()
    assert _names([ln for ln in lines if ln.strip() and not ln.startswith("#")]) == {"numpy"}


def test_test_extra_and_console_script():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert _names(project["optional-dependencies"]["test"]) == {
        "pytest",
        "pytest-benchmark",
        "hypothesis",
        "scipy",
    }
    assert project["scripts"] == {"repro-sched": "repro.cli:main"}


def _top_level_imports(package: Path) -> dict[str, str]:
    """Top-level module of every absolute import under *package*, mapped
    to one file that imports it (for the failure message)."""
    found: dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    """Installing the declared dependencies is enough to import every
    module of the library: no undeclared third-party import hides in an
    optional path."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    declared = _names(project["dependencies"])
    third_party = {
        name: where
        for name, where in _top_level_imports(ROOT / "src" / "repro").items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    undeclared = {n: w for n, w in third_party.items() if n not in declared}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"
    assert "numpy" in third_party  # the scan does see real imports
