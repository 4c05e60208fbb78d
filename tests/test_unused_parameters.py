"""Every parameter of a package function is read by its body.

No linter is a dependency of the project, so this scans the source with
``ast``: a parameter other than ``self`` and ``cls`` that no expression
in its function (nested functions included) loads is dead weight for
every caller."""

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
