"""The mutation list (``mutants.json``) cannot rot silently: every
mutant's old string occurs exactly once in its package file, and its
selector names a test that exists in its test file.  ``tests/mutate.py``
runs them, and hypothesis draws derandomized only under its variable."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


def test_the_list_is_seeded_with_distinct_names():
    names = [m["name"] for m in MUTANTS]
    assert len(names) >= 6
    assert len(set(names)) == len(names)


def test_every_mutant_still_applies():
    for mutant in MUTANTS:
        path = ROOT / mutant["file"]
        assert path.parent == ROOT / "src" / "anaprop", mutant["name"]
        assert path.read_text(encoding="utf-8").count(mutant["old"]) == 1, mutant["name"]
        assert mutant["new"] != mutant["old"], mutant["name"]
        test_file = mutant["selector"].split("::")[0]
        assert (ROOT / test_file).is_file(), mutant["name"]


def test_every_selector_names_a_test_in_its_file():
    # Each name after the file is a class or function defined directly in
    # the scope before it; a parametrize id in brackets is not a name.
    for mutant in MUTANTS:
        test_file, *names = mutant["selector"].split("::")
        assert names, mutant["name"]
        scope = ast.parse((ROOT / test_file).read_text(encoding="utf-8"))
        for name in names:
            found = [node for node in scope.body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name.split("[")[0]]
            assert found, (mutant["name"], name)
            scope = found[0]
        assert isinstance(scope, ast.FunctionDef) and scope.name.startswith("test_"), \
            mutant["name"]


def test_an_unknown_mutant_name_exits_2_before_any_copy(tmp_path):
    # The runner copies the project under the temporary directory, so an
    # empty one afterwards shows that no mutant ran, not even the known one.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "mutate.py"), MUTANTS[0]["name"],
         "no such mutant"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and "'no such mutant'" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_selector_that_fails_unmutated_exits_2_and_is_named(tmp_path):
    # A project of one module and two tests, one of which fails whatever
    # the code: its mutant must not count as killed, and no mutant runs.
    project = tmp_path / "project"
    (project / "src" / "anaprop").mkdir(parents=True)
    (project / "src" / "anaprop" / "m.py").write_text("X = 1\n")
    (project / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "mutate.py", project / "tests")
    shutil.copy(ROOT / "pyproject.toml", project)
    (project / "tests" / "test_m.py").write_text(
        "def test_passes():\n    pass\n\n\ndef test_fails():\n    assert False\n")
    mutants = [{"name": test, "file": "src/anaprop/m.py", "old": "X = 1", "new": "X = 2",
                "selector": f"tests/test_m.py::{test}"}
               for test in ("test_passes", "test_fails")]
    (project / "tests" / "mutants.json").write_text(json.dumps(mutants))
    proc = subprocess.run([sys.executable, str(project / "tests" / "mutate.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "tests/test_m.py::test_fails" in proc.stderr
    assert "test_passes" not in proc.stderr


def test_hypothesis_is_derandomized_exactly_under_the_runner_s_variable():
    assert settings.default.derandomize == bool(os.environ.get("ANAPROP_MUTATION_RUN"))


def test_the_runner_s_variable_derandomizes_hypothesis():
    # Tier-1 runs the test above without the variable, and so with a
    # random search; the runner's pytest runs set it.
    selector = ("tests/test_mutants.py::"
                "test_hypothesis_is_derandomized_exactly_under_the_runner_s_variable")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", selector],
        cwd=ROOT, env=dict(os.environ, ANAPROP_MUTATION_RUN="1"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
