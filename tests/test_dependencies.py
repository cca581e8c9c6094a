"""partreg runs on the standard library alone; sympy is a test oracle only."""

import ast
import os
import subprocess
import sys

import partreg

SRC = os.path.dirname(os.path.dirname(partreg.__file__))
PACKAGE = os.path.dirname(partreg.__file__)


def test_import_does_not_load_sympy():
    # a fresh interpreter: this test process has sympy loaded already
    code = "import partreg, partreg.cli, sys; print('sympy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_every_import_is_stdlib_or_partreg():
    foreign = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports are partreg's own
            for module in modules:
                top = module.split(".")[0]
                if top != "partreg" and top not in sys.stdlib_module_names:
                    foreign.append(f"{name}: {module}")
    assert foreign == []
