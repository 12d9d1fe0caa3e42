"""The solver packages import nothing from the serving stack.

``repro.sat``, ``repro.smt`` and ``repro.core`` report to
:mod:`repro.probe`; deadlines, faults, tracing and telemetry subscribe
there.  This scan covers every module of the three packages, including
imports inside functions.
"""

import ast
from pathlib import Path

import pytest

import repro

SOLVER_PACKAGES = ("sat", "smt", "core")
FORBIDDEN = ("trace", "telemetry", "resilience", "server", "service", "cluster", "api")

_ROOT = Path(repro.__file__).parent
_MODULES = sorted(path for package in SOLVER_PACKAGES
                  for path in (_ROOT / package).rglob("*.py"))


def _imported_modules(tree: ast.AST):
    """Every absolute module name an import statement in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def _forbidden(module: str) -> bool:
    parts = module.split(".")
    return len(parts) > 1 and parts[0] == "repro" and parts[1] in FORBIDDEN


def test_the_scan_sees_every_solver_package():
    for package in SOLVER_PACKAGES:
        assert any(path.parent.name == package for path in _MODULES)


def test_the_scan_catches_function_level_and_from_imports():
    source = ("def f():\n    from repro.trace.tracer import current_tracer\n"
              "from repro import telemetry\nimport repro.api\nimport repro.probe\n")
    found = {module for _, module in _imported_modules(ast.parse(source))
             if _forbidden(module)}
    assert found == {"repro.trace.tracer", "repro.trace.tracer.current_tracer",
                     "repro.telemetry", "repro.api"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_solver_module_imports_no_serving_layer(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = [f"line {line}: {module}" for line, module in _imported_modules(tree)
                 if _forbidden(module)]
    assert offending == []
