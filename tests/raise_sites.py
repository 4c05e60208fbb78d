"""List the ``raise`` statements of ``src/anaprop`` that no test runs.

Runs the tier-1 suite in this process under ``sys.settrace``, recording
each line run in a package frame, and then prints every ``raise``
statement none of whose lines ran, as ``file:line``.  The CLI tests'
``run_subprocess`` helper is replaced by an in-process call of
``cli.main``, so the lines those tests run are recorded too.

    python tests/raise_sites.py [PYTEST_ARGS ...]

Extra arguments go to pytest.  ``test_c5_table2_baseline_window`` is
left out: it is the known failure and the slowest test under the
tracer.  The sites are parsed before the run, from the source the run
imports.  Exits 0 when every raise site ran, 1 when some did not, and 2
when a test failed (a failing test may stop short of a site) or a
package file was modified during the run (the lines run no longer match
the sites).  The full run takes a few minutes.  Not collected by
pytest, as ``mutate.py``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anaprop"
SLOW = "tests/test_acceptance.py::test_c5_table2_baseline_window"


def raise_sites() -> dict[tuple[str, int], range]:
    """(package file name, first line) -> the lines of each raise statement."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                sites[path.name, node.lineno] = range(node.lineno, node.end_lineno + 1)
    return sites


def _run_in_process(argv, **_env_vars):
    """``test_cli.run_subprocess`` without the subprocess; the environment
    variables it would set (a hash seed) cannot change this process."""
    from anaprop.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class _InProcessCli:
    """A pytest plugin that patches each collected test module's
    ``run_subprocess`` helper."""

    def pytest_collection_finish(self, session):
        for item in session.items:
            module = getattr(item, "module", None)
            if module is not None and hasattr(module, "run_subprocess"):
                module.run_subprocess = _run_in_process


def lines_run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """The pytest exit code and the (file name, line) pairs run in the
    package while the suite ran."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()

    def local(frame, event, _arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", SLOW,
                            *pytest_args], plugins=[_InProcessCli()])
    finally:
        sys.settrace(None)
    return int(code), {(Path(name).name, line) for name, line in seen}


def _mtimes() -> dict[str, int]:
    """Package file name -> its modification time in ns."""
    return {path.name: path.stat().st_mtime_ns for path in PACKAGE.glob("*.py")}


def main(pytest_args: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    before, sites = _mtimes(), raise_sites()
    code, seen = lines_run(pytest_args)
    changed = sorted({name for name, _ in _mtimes().items() ^ before.items()})
    if changed:
        print(f"package files modified during the run: {', '.join(changed)}; "
              "rerun on a tree left alone")
        return 2
    unrun = [site for site, lines in sorted(sites.items())
             if not any((site[0], line) in seen for line in lines)]
    for name, line in unrun:
        print(f"src/anaprop/{name}:{line}")
    print(f"{len(unrun)} of {len(sites)} raise sites ran in no test")
    if code != 0:
        print(f"pytest exited {code}; a failing test may stop short of a site")
        return 2
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
