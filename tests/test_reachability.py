"""Every library function earns its place: each public top-level def or
class in the package has a reader.  A reader is another module of the
package (the exports of __init__ do not count), the definition's own
module outside its own body, or one of the two test files that use the
library as an oracle: the acceptance verifiers and the rigid-motion
properties."""
import ast
import pathlib

import heismin

PACKAGE = pathlib.Path(heismin.__file__).parent
ORACLES = [pathlib.Path(__file__).parent / name
           for name in ("test_acceptance.py", "test_motion_invariance.py")]


def names_in(nodes):
    """Every identifier the nodes read, import or reach as an attribute."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def parse(path):
    return ast.parse(path.read_text(), str(path)).body


def test_every_public_definition_has_a_reader():
    modules = {p: parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert len(modules) > 8
    oracle_names = names_in(node for p in ORACLES for node in parse(p))
    unread = []
    for path, body in modules.items():
        others = names_in(node for p, b in modules.items() if p != path for node in b)
        for defn in body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) \
                    or defn.name.startswith("_"):
                continue
            own = names_in(node for node in body if node is not defn)
            if defn.name not in others | own | oracle_names:
                unread.append(f"{path.stem}.{defn.name}")
    assert unread == []
