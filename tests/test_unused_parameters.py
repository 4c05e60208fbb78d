"""Every parameter of a package function is read by its body, and every
private definition of the package is used.

No linter is a dependency of the project, so this scans the source with
``ast``: a parameter other than ``self`` and ``cls`` that no expression
in its function (nested functions included) loads is dead weight for
every caller, and so is a private function, method or class whose name
no expression in the package loads."""

import ast
from pathlib import Path

import anaprop

SOURCE = Path(anaprop.__file__).resolve().parent


def unused_parameters(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter never read."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p)
                for p in params if p not in ("self", "cls") and p not in read]
    return out


def orphaned_private_definitions(modules: dict[str, ast.AST]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each private function, method or class (a
    leading underscore, not a dunder) whose name no expression in any of
    ``modules`` loads, as a name or as an attribute."""
    loaded = {n.id if isinstance(n, ast.Name) else n.attr
              for tree in modules.values() for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return [(module, node.lineno, node.name)
            for module, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in loaded]


def test_the_scan_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d, **e):\n    return a + d\n"
                     "g = lambda x, y: y\n")
    assert unused_parameters(tree) == [(1, "f", "b"), (1, "f", "c"),
                                       (1, "f", "e"), (3, "<lambda>", "x")]


def test_no_package_function_has_an_unread_parameter():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) > 1
    found = [(path.name, *hit) for path in modules
             for hit in unused_parameters(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_scan_finds_an_orphaned_private_definition():
    modules = {"a.py": ast.parse("def _used(): pass\ndef _orphan(): pass\n"
                                 "class _C:\n    def __init__(self): pass\n"
                                 "    def _m(self): pass\n"),
               "b.py": ast.parse("from a import _used\n_used()\nx._m\n")}
    assert orphaned_private_definitions(modules) == [("a.py", 2, "_orphan"),
                                                     ("a.py", 3, "_C")]


def test_no_private_package_definition_is_orphaned():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SOURCE.glob("*.py"))}
    assert len(modules) > 1
    assert orphaned_private_definitions(modules) == []
