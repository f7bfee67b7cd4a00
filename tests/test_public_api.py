"""Every public name that callers outside the package look up exists."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, function) for each entry of the benchmark tracer's PUBLIC
    table, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "PUBLIC" for t in node.targets))
    return [(module, func) for module, funcs in table.items() for func in funcs]


def test_traced_names_resolve():
    missing = [f"{module}.{func}" for module, func in traced_names()
               if not callable(getattr(importlib.import_module(f"momhal.{module}"), func, None))]
    assert missing == []
