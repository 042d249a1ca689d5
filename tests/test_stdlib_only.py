"""The runtime package imports nothing outside the standard library."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "pqnet")


def test_runtime_imports_are_stdlib_only():
    paths = sorted(
        os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py")
    )
    assert paths
    outside = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names:
                    outside.append(f"{os.path.basename(path)}: {module}")
    assert outside == []
