"""numpy is the only runtime dependency: every import in the package
names the standard library, numpy or heismin itself."""
import ast
import pathlib
import sys

import heismin

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "heismin"}


def imported_modules(path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(pathlib.Path(heismin.__file__).parent.rglob("*.py"))
    assert len(files) > 10
    outside = [f"{f.name}:{line}: {name}" for f in files
               for line, name in imported_modules(f) if name not in ALLOWED]
    assert outside == []
