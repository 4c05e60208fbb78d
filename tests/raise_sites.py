"""List the ``raise`` statements of ``src/anaprop`` that no test runs, or
with ``--functions`` the package functions that only unit tests enter,
or with ``--lines`` the lines of package functions that only unit tests
run.

    python tests/raise_sites.py [PYTEST_ARGS ...]
    python tests/raise_sites.py --functions
    python tests/raise_sites.py --lines

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

The lines mode runs the same, under the line hook of the raise mode.  It
prints every line of a function body that has code (``co_lines``) and
that none of them ran, as ``file:line qualified.name: text``, unless it
is an error path (a ``raise`` statement, an ``if`` block that ends in
one, an ``except`` handler), lies in a function ``KEPT`` names, or
``KEPT_LINES`` lists it; and then every entry of ``KEPT_LINES`` none of
whose lines stayed unrun.  A line belongs to the innermost ``def``
around it: the lines of a lambda or a comprehension are its lines.

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
import inspect
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
    "cli._Parser.error": "turns a usage error into exit code 1",
    # Features that README names.
    "relational.nest_rewrite": "README's compact (nested) rewriting, the paper's MVD thread",
    "relational.NestedRelation.exact": "whether a nested rewrite keeps its relation",
}


#: The lines of function bodies that no command, acceptance test or bench
#: round runs, kept for a reason: ("module.function", stripped line text)
#: -> why.  Keyed by text, not number, so an edit elsewhere in the file
#: leaves the entry valid; an entry covers every line of that function
#: with that text.
KEPT_LINES: dict[tuple[str, str], str] = {
    # A value outside its domain: every command's query is a row of its table.
    ("classify.PairKeys._keys", "outside += 1"):
        "keys a library query with a value outside its domain",
    ("classify.PairKeys._keys", "continue"):
        "keys a library query with a value outside its domain",
    ("classify.SelectedTripletModel.classify", "return self.vote(query)"):
        "the dense vote for a library query that is no row; every fold's "
        "query is a row of the run's table",
    ("classify.analogical_suitability", "abstained += 1"):
        "a row whose leave-one-out vote finds no triplet; suitability has no "
        "command, and the bench's Monk rows all find one",
    # The general JSON writer: no command's payload holds these values.
    ("data.canonical_json.<locals>.text", 'return "{}"'):
        "an empty object, as json.dumps writes it",
    ("data.canonical_json.<locals>.text", "parts.append(_LITERALS[item])"):
        "a literal inside an array, as json.dumps writes it",
    ("data.canonical_json.<locals>.text", "return encode_basestring_ascii(value)"):
        "a string as the whole payload, as json.dumps writes it",
    ("data.canonical_json.<locals>.text", "if kind is bool or value is None:"):
        "a literal as the whole payload, as json.dumps writes it",
    ("data.canonical_json.<locals>.text", "return _LITERALS[value]"):
        "a literal as the whole payload, as json.dumps writes it",
    # Error paths that raise in a callee, not in a raise statement here.
    ("data._validate_rows", "for row in rows:"):
        "finds the bad cell of library rows; the loaders check each column first",
    ("data._validate_rows", "schema.validate_item(row)"):
        "finds the bad cell of library rows; the loaders check each column first",
    # Answers no command asks for.
    ("relational.mvd_witness", "return None"):
        "an MVD that holds; deps asks for a witness only of one that fails",
    ("relational.weak_mvd_witness", "return None"):
        "a weak MVD that holds; deps asks for a witness only of one that fails",
    ("relational.mvd_ap_correspondence",
     "and _proj(t1, rest_idx) == _proj(t3, rest_idx))"):
        "the second layout test; acceptance C8's strong-exchange quadruple "
        "fails the first",
    # A failed inference rule: only a wrong verdict table reaches these, as
    # test_a_false_mvd_verdict_breaks_complementation makes one.
    ("relational.mvd_inference_check",
     'violations.append(("fd_implies_mvd", f"X={x_names} Y={y_names}"))'):
        "reports an FD whose MVD verdict fails",
    ("relational.mvd_inference_check",
     'violations.append(("complementation", f"X={x_names} Y={y_names}"))'):
        "reports an MVD whose complement's verdict fails",
    ("relational.mvd_inference_check", 'violations.append(("augmentation", f"X={x_names} "'):
        "reports a failed augmentation",
    ("relational.mvd_inference_check", 'f"Y={y_names} U={u_names} Z={z_names}"))'):
        "reports a failed augmentation",
    ("relational.mvd_inference_check", 'violations.append(("transitivity",'):
        "reports a failed transitivity",
    ("relational.mvd_inference_check", 'f"X={x_names} Y={y_names} Z={z_names}"))'):
        "reports a failed transitivity",
}


def raise_sites() -> dict[tuple[str, int], range]:
    """(package file name, first line) -> the lines of each raise statement."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                sites[path.name, node.lineno] = range(node.lineno, node.end_lineno + 1)
    return sites


def _spans(path: Path) -> list[tuple[int, int, str]]:
    """(first line of its code object: the first decorator's, if any,
    last line, "module.qualified.name") of each function in ``path``,
    each before the functions inside it."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                spans.append((first, child.end_lineno, f"{prefix}{child.name}"))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return spans


def function_defs() -> dict[tuple[str, int], str]:
    """(package file name, first line of its code object) ->
    "module.qualified.name" of each function (see ``_spans``)."""
    return {(path.name, first): name for path in sorted(PACKAGE.glob("*.py"))
            for first, _, name in _spans(path)}


def _code_lines(code) -> set[int]:
    """The lines that have code in ``code``, less a ``def``'s first line
    (its ``def`` or first decorator), on which no line event fires."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    if not code.co_name.startswith("<"):
        lines.discard(code.co_firstlineno)
    return lines


def executable_lines() -> dict[tuple[str, int], str]:
    """(package file name, line) -> the innermost function around it, for
    each line of a function body that has code (``_code_lines`` of the
    functions, lambdas and comprehensions): a lambda or comprehension
    belongs to the function it lies in."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        owner = {}
        for first, last, name in _spans(path):
            owner.update(dict.fromkeys(range(first, last + 1), name))
        todo = [compile(path.read_text(encoding="utf-8"), path.name, "exec")]
        while todo:
            code = todo.pop()
            todo += filter(inspect.iscode, code.co_consts)
            if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
                out.update({(path.name, line): owner[line]
                            for line in _code_lines(code) if line in owner})
    return out


def error_paths(tree: ast.AST) -> set[int]:
    """The lines of ``tree`` that lie on an error path: a ``raise``
    statement, a block of an ``if`` that ends in one, an ``except``
    handler."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            spans.append((node.lineno, node.end_lineno))
        elif isinstance(node, ast.If):
            spans += [(block[0].lineno, block[-1].end_lineno)
                      for block in (node.body, node.orelse)
                      if block and isinstance(block[-1], ast.Raise)]
    return {line for first, last in spans for line in range(first, last + 1)}


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


def _traced(run) -> tuple[int, set[tuple[str, int]]]:
    """What ``run()`` returns and the (file name, line) pairs it ran in
    the package, under a line hook.  A code object is no longer traced
    once all its lines (``_code_lines``) have run."""
    prefix = str(PACKAGE) + os.sep
    left: dict = {}  # code object -> its lines not run yet

    def local(frame, event, _arg):
        todo = left[frame.f_code]
        if event == "line":
            todo.discard(frame.f_lineno)
        return local if todo else None

    def calls(frame, _event, _arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in left:
            left[code] = _code_lines(code)
        return local if left[code] else None

    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, {(Path(code.co_filename).name, line)
                    for code, todo in left.items() for line in _code_lines(code) - todo}


def lines_run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """The pytest exit code and the (file name, line) pairs run in the
    package while the suite ran."""
    return _traced(lambda: _pytest(pytest_args))


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


def _command_runs() -> int:
    """Run the digest cells, the acceptance tests and one round of each
    bench workload; nonzero if the tests or a round failed."""
    import payload_digests
    payload_digests.digests()
    payload_digests.cli_digests()
    return _pytest(["tests/test_acceptance.py"]) or _bench_rounds()


def functions_entered() -> tuple[int, set[tuple[str, int]]]:
    """Nonzero if the acceptance tests or a bench round failed, and the
    (file name, first line) of each package function entered by the
    digest cells, the acceptance tests or the bench rounds."""
    prefix = str(PACKAGE) + os.sep
    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        code = _command_runs()
    finally:
        sys.setprofile(None)
    return code, {(Path(code.co_filename).name, code.co_firstlineno)
                  for code in entered if code.co_filename.startswith(prefix)}


def command_lines() -> tuple[int, set[tuple[str, int]]]:
    """Nonzero if a run failed, and the (file name, line) pairs run in
    the package by the digest cells, the acceptance tests or the bench
    rounds."""
    return _traced(_command_runs)


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


def _kept(owner: str) -> bool:
    """Whether ``KEPT`` names the function ``owner`` or one it lies in."""
    return owner.split(".<locals>.")[0] in KEPT


def lines_report(lines: dict[tuple[str, int], str],
                 ran: set[tuple[str, int]]) -> tuple[list[str], list[str]]:
    """The labels of the lines of ``lines`` (see ``executable_lines``)
    that did not run, lie on no error path and in no ``KEPT`` function,
    and that ``KEPT_LINES`` does not list, and of the ``KEPT_LINES``
    entries that list no such line."""
    texts = {path.name: path.read_text(encoding="utf-8").splitlines()
             for path in PACKAGE.glob("*.py")}
    exempt = {(name, line) for name, text in texts.items()
              for line in error_paths(ast.parse("\n".join(text)))}
    unrun, listed = [], set()
    for (name, line), owner in sorted(lines.items()):
        if (name, line) in ran or (name, line) in exempt or _kept(owner):
            continue
        key = owner, texts[name][line - 1].strip()
        if key in KEPT_LINES:
            listed.add(key)
        else:
            unrun.append(f"src/anaprop/{name}:{line} {key[0]}: {key[1]}")
    return unrun, [f"{owner}: {text}" for owner, text in KEPT_LINES
                   if (owner, text) not in listed]


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
        retire = f"of {len(KEPT)} allowlisted functions ran; take them off KEPT"
        failed = "a run failed; it may stop short of a function"
    elif args[:1] == ["--lines"]:
        lines = executable_lines()
        code, seen = command_lines()
        unrun, stale = lines_report(lines, seen)
        summary = (f"of {len(lines)} function lines ran in no digest cell, acceptance "
                   "test or bench round and are neither exempt nor allowlisted")
        retire = (f"of {len(KEPT_LINES)} allowlisted lines have no unrun line; "
                  "take them off KEPT_LINES")
        failed = "a run failed; it may stop short of a line"
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
        print(f"{len(stale)} {retire}")
    if code != 0:
        print(failed)
        return 2
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
