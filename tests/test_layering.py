"""Modules use each other's public names only, the package's two halves,
the encoders and the model, import nothing from each other, every
command path runs on arrays, and every module is Python 3.10 grammar."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "momhal"
HALVES = {"encoders": {"kernel", "moments", "odf", "sdf"},
          "model": {"pn", "sketch", "fusion", "halluc"}}
SHARED = {"atomic", "keyvalue"}    # used by both halves
JOINERS = {"synthgen", "cli"}      # the only modules that use both halves


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list[str]:
    """`from <momhal module> import _name` statements and `<momhal module>._name`
    attribute uses in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("momhal."))
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("momhal"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: {node.module or '.'}.{alias.name}")
            elif node.module in (None, "momhal") and (SRC / f"{alias.name}.py").is_file():
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []


def momhal_imports(path: Path) -> set[str]:
    """The names of the momhal modules that one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("momhal."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "momhal"
                                                   or (node.module or "").startswith("momhal.")):
            module = (node.module or "").removeprefix("momhal").lstrip(".")
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
    return found


def test_every_module_has_one_side():
    sides = [*HALVES.values(), SHARED, JOINERS]
    assert sorted(m for side in sides for m in side) == sorted(
        p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem not in JOINERS),
                         ids=lambda p: p.name)
def test_halves_import_nothing_of_each_other(path):
    """A module of a half imports its own half and the shared modules, a
    shared module only shared ones, and the package itself re-exports
    nothing, so imports nothing."""
    own = next((half for half in HALVES.values() if path.stem in half), set())
    allowed = set() if path.stem == "__init__" else own | SHARED
    assert momhal_imports(path) - allowed == set()


@pytest.mark.parametrize("half", sorted(HALVES))
def test_importing_a_half_loads_no_other_module(half):
    """In a fresh interpreter, importing every module of one half (the model
    half is what serving a checkpoint imports) loads no module of the other
    half and neither joiner."""
    code = ("import sys\n" + "".join(f"import momhal.{m}\n" for m in sorted(HALVES[half]))
            + "print(' '.join(sorted(m for m in sys.modules if m.startswith('momhal.'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = {name.removeprefix("momhal.") for name in out.split()}
    assert HALVES[half] <= loaded <= HALVES[half] | SHARED


LIST_FORM = {"SyntheticVideo", "evaluate", "predict_scores"}   # kept in halluc for outside callers


def names_used(path: Path) -> set[str]:
    """Every name, attribute and imported name in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_command_paths_run_on_arrays(path):
    """Only ``halluc`` names the per-video list form, and no module has a
    function that turns a video list into training arrays."""
    banned = {"video_arrays"} | (set() if path.stem == "halluc" else LIST_FORM)
    assert names_used(path) & banned == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_grammar_of_the_oldest_supported_python(path):
    """pyproject.toml says ``requires-python = ">=3.10"``: no module uses
    syntax that came later, such as ``except*`` or ``type`` statements.
    This checks the grammar only, not the library calls."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
