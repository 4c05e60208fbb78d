"""List the ``raise`` statements of ``src/anaprop`` that no test runs, or
with ``--functions`` the package functions that only unit tests enter.

    python tests/raise_sites.py [PYTEST_ARGS ...]
    python tests/raise_sites.py --functions

The raise mode runs the tier-1 suite in this process under
``sys.settrace``, recording each line run in a package frame, and then
prints every ``raise`` statement none of whose lines ran, as
``file:line``.  Extra arguments go to pytest.

The functions mode runs what the program is for, and no unit test: the
pinned digest cells (``payload_digests.digests`` and ``cli_digests``),
the acceptance tests and one round of each bench workload, under a
``sys.setprofile`` call hook.  It prints every package function that
none of them entered and that ``KEPT`` does not name, as
``file:line qualified.name``, and then every function that ``KEPT``
names and that one of them did enter, since its reason no longer holds.

In both modes the test helpers that start a CLI process
(``run_subprocess`` of the CLI tests, ``run_cli`` of the acceptance
tests) are replaced by an in-process call of ``cli.main``, so what those
tests run is recorded too, and ``test_c5_table2_baseline_window`` is
left out: it is the known failure and the slowest test under the tracer.

The sites or functions are parsed before the run, from the source the
run imports.  Exits 0 when the lists are empty, 1 when one is not, and 2
when a run failed (a failing test or bench round may stop short of a
site or function) or a package file was modified during the run (the
lines run no longer match the source).  Each full run takes a few
minutes.  Not collected by pytest, as ``mutate.py``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anaprop"
SLOW = "tests/test_acceptance.py::test_c5_table2_baseline_window"

#: The functions that no command, acceptance test or bench round enters,
#: kept for a reason: "module.function" or "module.Class.method" -> why.
KEPT = {
    # Reference oracles that tests compare against.
    "classify.extract_competent_pairs":
        "lists the pairs whose counts SelectedTripletModel.mined copies in whole",
    "classify.PairKeys.change_key":
        "keys a listed CompetentPair, the listed-pairs path that mined replaces",
    "classify.CompetentPair.tilt":
        "a listed pair's label behaviour, the listed-pairs path that mined replaces",
    "classify.bongard_separation":
        "the separation on listed pairs that BongardModel reads from its counts",
    "core.hamming": "the distance that _PairCounts.ranked reads from the pair keys",
    "relational.is_trivial_mvd": "the literal triviality test behind the discovery masks",
    "relational.ap_witness": "the full-scan witness that _first_exchange finds by keys",
    "relational.unnest": "the inverse of nest_rewrite, which checks a rewrite is lossless",
    # Wrap points of bench/tracing.py, until the bench reads a package trace.
    "classify.BongardModel.classify": "a span wrap point of bench/tracing.py",
    "classify.KnnModel.classify": "a span wrap point of bench/tracing.py",
    # Checks on outside input that no digest cell sends.
    "core._check_domain": "refuses a value outside `ap --domain`",
    "cli._Parser.error": "turns a usage error into exit code 1",
    # Features that README names.
    "explain.rule_candidate": "README's abductive rule candidates",
    "explain.relevant_attributes": "README's attribute-relevance ranking",
    "relational.nest_rewrite": "README's compact (nested) rewriting, the paper's MVD thread",
    "relational.NestedRelation.exact": "whether a nested rewrite keeps its relation",
}


def raise_sites() -> dict[tuple[str, int], range]:
    """(package file name, first line) -> the lines of each raise statement."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                sites[path.name, node.lineno] = range(node.lineno, node.end_lineno + 1)
    return sites


def function_defs() -> dict[tuple[str, int], str]:
    """(package file name, first line of its code object: the first
    decorator's, if any) -> "module.qualified.name" of each function."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[path.name, first] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return defs


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
    ``run_subprocess`` helper, and its ``run_cli`` helper, which returns
    the exit code and stdout."""

    def pytest_collection_finish(self, session):
        for item in session.items:
            module = getattr(item, "module", None)
            if module is not None and hasattr(module, "run_subprocess"):
                module.run_subprocess = _run_in_process
            if module is not None and hasattr(module, "run_cli"):
                module.run_cli = lambda argv: _run_in_process(argv)[:2]


def _pytest(args: list[str]) -> int:
    import pytest
    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", SLOW, *args],
                           plugins=[_InProcessCli()]))


def lines_run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """The pytest exit code and the (file name, line) pairs run in the
    package while the suite ran."""
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
        code = _pytest(pytest_args)
    finally:
        sys.settrace(None)
    return code, {(Path(name).name, line) for name, line in seen}


def _bench_rounds() -> int:
    """Run one round of each bench workload; the number that failed."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    import workloads
    failed = 0
    for workload in workloads.WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seconds", "0"])
        failed += code != 0 or not json.loads(out.getvalue().splitlines()[-1])["correct"]
    return failed


def functions_entered() -> tuple[int, set[tuple[str, int]]]:
    """Nonzero if the acceptance tests or a bench round failed, and the
    (file name, first line) of each package function entered by the
    digest cells, the acceptance tests or the bench rounds."""
    import payload_digests
    prefix = str(PACKAGE) + os.sep
    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        payload_digests.digests()
        payload_digests.cli_digests()
        tests, rounds = _pytest(["tests/test_acceptance.py"]), _bench_rounds()
    finally:
        sys.setprofile(None)
    return tests or rounds, {(Path(code.co_filename).name, code.co_firstlineno)
                             for code in entered if code.co_filename.startswith(prefix)}


def functions_report(defs: dict[tuple[str, int], str],
                     entered: set[tuple[str, int]]) -> tuple[list[str], list[str]]:
    """The labels of the functions of ``defs`` (see ``function_defs``)
    that ``KEPT`` does not name and that were not ``entered``, and of
    those that it names and that were."""
    unentered, stale = [], []
    for (name, line), qualname in defs.items():
        kept = qualname in KEPT
        if kept == ((name, line) in entered):
            (stale if kept else unentered).append(f"src/anaprop/{name}:{line} {qualname}")
    return unentered, stale


def _mtimes() -> dict[str, int]:
    """Package file name -> its modification time in ns."""
    return {path.name: path.stat().st_mtime_ns for path in PACKAGE.glob("*.py")}


def main(args: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    before = _mtimes()
    stale: list[str] = []
    if args[:1] == ["--functions"]:
        defs = function_defs()
        code, seen = functions_entered()
        unrun, stale = functions_report(defs, seen)
        summary = (f"of {sum(name not in KEPT for name in defs.values())} functions "
                   "outside the allowlist ran in no digest cell, acceptance test or "
                   "bench round")
        failed = "a run failed; it may stop short of a function"
    else:
        targets = {f"src/anaprop/{name}:{line}": [(name, step) for step in lines]
                   for (name, line), lines in sorted(raise_sites().items())}
        code, seen = lines_run(args)
        unrun = [label for label, keys in targets.items()
                 if not any(k in seen for k in keys)]
        summary = f"of {len(targets)} raise sites ran in no test"
        failed = f"pytest exited {code}; a failing test may stop short of a site"
    changed = sorted({name for name, _ in _mtimes().items() ^ before.items()})
    if changed:
        print(f"package files modified during the run: {', '.join(changed)}; "
              "rerun on a tree left alone")
        return 2
    for label in unrun:
        print(label)
    print(f"{len(unrun)} {summary}")
    if stale:
        print("\n".join(stale))
        print(f"{len(stale)} of {len(KEPT)} allowlisted functions ran; "
              "take them off KEPT")
    if code != 0:
        print(failed)
        return 2
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
