"""``raise_sites.py`` refuses a run during which a package file changed:
the lines it traced would no longer be those of the sites it parsed.  Its
allowlists of functions (``KEPT``) and of lines (``KEPT_LINES``) cannot
rot silently: each entry names a package function (and a line of it) and
gives a reason, as ``test_mutants.py`` checks the mutation list, and the
functions and lines modes list an entry that their run did reach.  The
traced runs themselves stay outside tier-1."""

import ast
import importlib
import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import raise_sites
from raise_sites import KEPT, KEPT_LINES, error_paths, executable_lines, function_defs

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path, test_body):
    # A copy of the project with one test of its own, run under the tracer.
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests" / "test_probe.py").write_text(
        "import os\nfrom pathlib import Path\n\n\ndef test_probe():\n" + test_body)
    return subprocess.run(
        [sys.executable, str(tmp_path / "tests" / "raise_sites.py"), "tests/test_probe.py"],
        capture_output=True, text=True, timeout=120)


def test_a_package_file_touched_during_the_run_exits_2(tmp_path):
    proc = _run(tmp_path, "    os.utime(Path('src/anaprop/data.py'))\n")
    assert proc.returncode == 2
    assert "package files modified during the run: data.py" in proc.stdout
    assert "raise sites ran in no test" not in proc.stdout


def test_an_untouched_run_lists_the_sites_it_did_not_reach(tmp_path):
    proc = _run(tmp_path, "    pass\n")
    assert proc.returncode == 1
    assert "src/anaprop/data.py:" in proc.stdout


def test_every_kept_function_exists_and_has_a_reason():
    defined = set(function_defs().values())
    for name, reason in KEPT.items():
        assert 2 <= len(name.split(".")) <= 3, name  # module, optional class, name
        assert name in defined, name
        assert isinstance(reason, str) and reason.strip(), name


def test_functions_are_keyed_by_the_first_line_of_their_code():
    # The call hook sees a code object's file and first line, the first
    # decorator's for a decorated function; each parsed key must match.
    for (file, line), name in function_defs().items():
        module, *path = name.split(".")
        if "<locals>" in path:
            continue
        owner = importlib.import_module(f"anaprop.{module}")
        for part in path:
            owner = inspect.getattr_static(owner, part)
        for attr in ("fget", "func", "__func__"):  # property, cached_property, classmethod
            owner = getattr(owner, attr, owner)
        code = inspect.unwrap(owner).__code__  # the function a functools.cache wraps
        assert (Path(code.co_filename).name, code.co_firstlineno) == (file, line), name


def test_a_kept_function_that_ran_is_listed_and_exits_1(monkeypatch, capsys):
    # A fake run that entered every function outside KEPT, and then one
    # that also entered one kept function: only the second is refused.
    monkeypatch.chdir(ROOT)
    defs = function_defs()
    others = {key for key, name in defs.items() if name not in KEPT}
    (file, line), = [key for key, name in defs.items() if name == "core.hamming"]
    for entered, code in ((others, 0), (others | {(file, line)}, 1)):
        monkeypatch.setattr(raise_sites, "functions_entered", lambda: (0, entered))
        assert raise_sites.main(["--functions"]) == code
        out = capsys.readouterr().out
        assert out.startswith("0 of ")
        assert (f"src/anaprop/{file}:{line} core.hamming" in out) == bool(code)
    assert f"1 of {len(KEPT)} allowlisted functions ran; take them off KEPT" in out


def _texts() -> dict[str, list[str]]:
    return {path.name: path.read_text(encoding="utf-8").splitlines()
            for path in raise_sites.PACKAGE.glob("*.py")}


def test_every_kept_line_is_a_line_of_its_function_and_has_a_reason():
    texts = _texts()
    held = {(owner, texts[file][line - 1].strip())
            for (file, line), owner in executable_lines().items()}
    defined = set(function_defs().values())
    for (owner, text), reason in KEPT_LINES.items():
        assert owner in defined, owner
        assert (owner, text) in held, (owner, text)
        assert isinstance(reason, str) and reason.strip(), (owner, text)


def test_a_kept_line_that_ran_is_listed_and_exits_1(monkeypatch, capsys):
    # A fake run that ran every line but the allowlisted ones, and then
    # one that also ran every line of one entry: only the second is refused.
    monkeypatch.chdir(ROOT)
    lines, texts = executable_lines(), _texts()
    listed = {key: owner for key, owner in lines.items()
              if (owner, texts[key[0]][key[1] - 1].strip()) in KEPT_LINES}
    entry = next(iter(KEPT_LINES))
    entry_lines = {key for key, owner in listed.items()
                   if (owner, texts[key[0]][key[1] - 1].strip()) == entry}
    others = set(lines) - set(listed)
    for ran, code in ((others, 0), (others | entry_lines, 1)):
        monkeypatch.setattr(raise_sites, "command_lines", lambda: (0, ran))
        assert raise_sites.main(["--lines"]) == code
        out = capsys.readouterr().out
        assert out.startswith("0 of ")
        assert (f"\n{entry[0]}: {entry[1]}\n" in out) == bool(code)
    assert (f"1 of {len(KEPT_LINES)} allowlisted lines have no unrun line; "
            "take them off KEPT_LINES") in out


def test_raise_ending_if_blocks_and_except_handlers_are_exempt():
    source = """\
def f(x):
    if x < 0:
        x = -x
        raise ValueError(x)
    elif x == 1:
        x = 2
    else:
        raise KeyError(
            x)
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0
    if y:
        y += 1
    return y
"""
    # The if tests (lines 2, 5) and every line of no error path run.
    assert error_paths(ast.parse(source)) == {3, 4, 8, 9, 12, 13}


TOY = """\
def f(x):
    y = [v + 1 for v in x]
    if not y:
        return None
    return y


def g(x):
    def h(v):
        return v * 2
    return h(x)
"""


def _toy_package(monkeypatch, tmp_path, source, kept=(), kept_lines=()):
    (tmp_path / "toy.py").write_text(source, encoding="utf-8")
    monkeypatch.setattr(raise_sites, "PACKAGE", tmp_path)
    monkeypatch.setattr(raise_sites, "KEPT", dict.fromkeys(kept, "a reason"))
    monkeypatch.setattr(raise_sites, "KEPT_LINES", dict.fromkeys(kept_lines, "a reason"))
    return raise_sites.executable_lines()


def test_a_kept_line_is_found_by_its_text_wherever_it_moves(monkeypatch, tmp_path):
    # The entry still covers its line after two lines are put above it,
    # and is stale once that line runs.
    entry = ("toy.f", "return None")
    for source, line in ((TOY, 4), ("import os\n\n" + TOY, 6)):
        lines = _toy_package(monkeypatch, tmp_path, source, kept=["toy.g"],
                             kept_lines=[entry])
        assert lines[("toy.py", line)] == "toy.f"
        others = set(lines) - {("toy.py", line)}
        assert raise_sites.lines_report(lines, others) == ([], [])
        assert raise_sites.lines_report(lines, set(lines)) == ([], ["toy.f: return None"])


def test_the_lines_of_a_kept_function_and_its_inner_ones_are_exempt(monkeypatch, tmp_path):
    # A comprehension's line belongs to its function; an inner function's
    # lines are exempt when KEPT names the function it lies in.
    lines = _toy_package(monkeypatch, tmp_path, TOY, kept=["toy.g"])
    assert lines[("toy.py", 2)] == "toy.f"
    assert lines[("toy.py", 10)] == "toy.g.<locals>.h"
    assert lines[("toy.py", 11)] == "toy.g"
    unrun, stale = raise_sites.lines_report(lines, set())
    assert unrun == ["src/anaprop/toy.py:2 toy.f: y = [v + 1 for v in x]",
                     "src/anaprop/toy.py:3 toy.f: if not y:",
                     "src/anaprop/toy.py:4 toy.f: return None",
                     "src/anaprop/toy.py:5 toy.f: return y"]
    assert stale == []
