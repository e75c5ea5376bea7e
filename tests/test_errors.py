"""Layout rules behind the exit codes: one module of error classes, one run-directory maker."""

import ast
from pathlib import Path

from signl import errors

SRC = Path(errors.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_only_errors_py_defines_exception_classes():
    found = [(module, node.name) for module, tree in _modules().items() if module != "errors.py"
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             if any((_name(base) or "").endswith(("Error", "Exception")) for base in node.bases)]
    assert found == []


def test_run_dir_is_called_only_by_cli_main():
    callers = [(module, fn.name) for module, tree in _modules().items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and _name(node.func) == "_run_dir"]
    assert callers == [("cli.py", "main")]

