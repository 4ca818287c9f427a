"""numpy is the only runtime dependency: every import in the package
names the standard library, numpy or heismin itself.  And no module of
the package, its tests or the benchmark imports a name it never reads,
none of the package names numpy's platform-wide long double types, the
Lienard operator and its RK4 sweep take no power at all, no module
maps one of math's functions over an array by pointwise, and no two
modules of the package import each other, directly or through others."""
import ast
import pathlib
import sys

import heismin

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "heismin"}
ROOT = pathlib.Path(__file__).resolve().parents[1]


def parse(path):
    return ast.parse(path.read_text(), str(path))


def imports(tree):
    """(line, top-level module, names bound) of every import in the tree; the
    module is None for a relative import, and __future__ binds no name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                yield node.lineno, top, [a.asname or top]
        elif isinstance(node, ast.ImportFrom):
            yield (node.lineno, node.module.split(".")[0] if node.level == 0 else None,
                   [] if node.module == "__future__" else [a.asname or a.name for a in node.names])


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(pathlib.Path(heismin.__file__).parent.rglob("*.py"))
    assert len(files) > 10
    outside = [f"{f.name}:{line}: {name}" for f in files
               for line, name, _ in imports(parse(f)) if name not in ALLOWED | {None}]
    assert outside == []


def test_no_module_imports_a_name_it_never_reads():
    # a package's __init__ imports to re-export, so it is left out
    files = [f for d in ("src/heismin", "tests", "bench") for f in sorted((ROOT / d).rglob("*.py"))
             if f.name != "__init__.py"]
    assert len(files) > 25
    unused = []
    for f in files:
        tree = parse(f)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{f.relative_to(ROOT)}:{line}: {name}" for line, _, names in imports(tree)
                   for name in names if name not in read]
    assert unused == []


def named(banned):
    """file:line: word for each name, attribute, import or string constant
    of the package that is in banned."""
    found = []
    for f in sorted(pathlib.Path(heismin.__file__).parent.rglob("*.py")):
        for node in ast.walk(parse(f)):
            words = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [node.value] if isinstance(node, ast.Constant) else [])
            found += [f"{f.name}:{node.lineno}: {w}" for w in words if w in banned]
    return found


def test_no_module_names_a_platform_long_double():
    # the width of numpy's long double depends on the platform, so output
    # bytes computed through it could too; names and dtype strings both count
    assert named({"longdouble", "clongdouble", "float96", "float128", "complex192",
                  "complex256"}) == []


POWERS = {"pow", "power", "float_power", "square"}   # functions that raise to a power


def test_the_lienard_operator_and_the_rk4_loop_take_no_power_of_the_state():
    # + and * are the arithmetic on which numpy and float agree bit for bit,
    # so one formula gives a float and an array the same bits: _rhs and
    # _sweep take no power at all, c^2 = H_const * H_const included, and no
    # module names float_power or a _pow helper that would loop over an array
    funcs = {f.name: f for f in parse(ROOT / "src/heismin/lienard.py").body
             if isinstance(f, ast.FunctionDef)}
    found = named({"float_power", "_pow"})
    for where in ("_rhs", "_sweep"):
        for node in ast.walk(funcs[where]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                found.append(f"{where}:{node.lineno}: **")
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in POWERS:
                found.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_no_module_hands_a_math_function_to_pointwise():
    # exp, log, tan, power and hypot are defined once, on numpy, for a float
    # and an array alike (expr), so no module maps one of math's functions
    # over an array's elements one at a time
    found = []
    for f in sorted(pathlib.Path(heismin.__file__).parent.rglob("*.py")):
        tree = parse(f)
        from_math = {n for line, top, names in imports(tree) if top == "math" for n in names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "pointwise":
                found += [f"{f.name}:{node.lineno}: {ast.unparse(node)}"
                          for a in [*node.args, *(k.value for k in node.keywords)]
                          if getattr(a, "id", None) in from_math
                          or getattr(getattr(a, "value", None), "id", None) == "math"]
    assert found == []


def package_imports(tree):
    """The modules of the package that the tree imports, in a function
    body too: from .m import ..., from . import m, and their absolute forms."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "heismin":
                    continue
                parts = parts[1:] or [""]
            found |= {parts[0]} if parts[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("heismin.")}
    return found


def test_the_package_import_graph_has_no_cycle():
    # every path of imports from a module ends without coming back to it,
    # so each module can be read, and loaded, after the ones it imports
    package = pathlib.Path(heismin.__file__).parent
    graph = {f.stem: package_imports(parse(f)) for f in sorted(package.glob("*.py"))}
    assert len(graph) > 10 and graph["cli"] >= {"lienard", "verify"}
    cycles = []
    for start in graph:
        paths, seen = [[start, m] for m in sorted(graph[start])], set()
        while paths:
            path = paths.pop()
            if path[-1] == start:
                cycles.append(" -> ".join(path))
                break
            if path[-1] not in seen:
                seen.add(path[-1])
                paths += [path + [m] for m in sorted(graph.get(path[-1], ()))]
    assert cycles == []
