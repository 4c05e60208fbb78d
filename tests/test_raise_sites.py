"""``raise_sites.py`` refuses a run during which a package file changed:
the lines it traced would no longer be those of the sites it parsed.  Its
allowlist of functions (``KEPT``) cannot rot silently: each entry names a
package function and gives a reason, as ``test_mutants.py`` checks the
mutation list, and the functions mode lists an entry that its run did
enter.  The traced runs themselves stay outside tier-1."""

import importlib
import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import raise_sites
from raise_sites import KEPT, function_defs

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
