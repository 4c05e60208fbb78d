"""Run the mutants of ``mutants.json``: each is applied to a fresh
temporary copy of the project, and its pytest selector is run inside
that copy.  A mutant survives when its selector still passes.  Prints
one line per mutant, with the seconds its selector ran, and exits 1 if
any survives (2 if one cannot be applied or run).  The checkout itself
is never edited.

    python tests/mutate.py [NAME ...]

With names, only the mutants of those names run; an unknown name exits
2 before any copy is made.  With none, every mutant runs.

A kill counts only if the selector passes on the unmutated code, so each
distinct selector is first run once on an unmutated copy; if one fails
there, the runner names it and exits 2 before any mutant runs.

Every pytest run sets ``ANAPROP_MUTATION_RUN``, under which
``conftest.py`` runs hypothesis derandomized: a run's result repeats, and
a survivor is a stable finding.

The copy holds ``src/``, ``tests/`` and ``pyproject.toml``: the last puts
``src`` on pytest's path, so a copy of ``src/`` alone would test the
unmutated package.  Not collected by pytest; ``test_mutants.py`` checks
that every mutant still applies and runs the runner on a small project.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")


def _copy_project(tmp: str) -> Path:
    copy = Path(tmp)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", copy)
    return copy


def _pytest(copy: Path, selector: str) -> int:
    """The exit code of pytest running ``selector`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), ANAPROP_MUTATION_RUN="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", selector],
        cwd=copy, env=env, capture_output=True, text=True).returncode


def failing_selectors(selectors: list[str]) -> list[str]:
    """The selectors that do not pass on an unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        copy = _copy_project(tmp)
        return [selector for selector in selectors if _pytest(copy, selector) != 0]


def run_mutant(mutant: dict) -> tuple[str, float]:
    """'killed', 'survived', or an error message, and the seconds its
    selector ran."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = _copy_project(tmp)
        target = copy / mutant["file"]
        text = target.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return (f"error: the old string does not occur exactly once in "
                    f"{mutant['file']}", 0.0)
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        start = time.perf_counter()
        code = _pytest(copy, mutant["selector"])
        seconds = time.perf_counter() - start
    if code == 0:
        return "survived", seconds
    if code == 1:  # some test failed
        return "killed", seconds
    return f"error: pytest exited {code}", seconds


def main(names: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    unknown = sorted(set(names) - {mutant["name"] for mutant in mutants})
    if unknown:
        print(f"unknown mutant(s): {', '.join(map(repr, unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in mutants if not names or mutant["name"] in names]
    failing = failing_selectors(list(dict.fromkeys(m["selector"] for m in chosen)))
    if failing:
        print(f"selector(s) failing on the unmutated code: {', '.join(failing)}",
              file=sys.stderr)
        return 2
    survivors, errors = [], []
    for mutant in chosen:
        outcome, seconds = run_mutant(mutant)
        print(f"{outcome:>8}  {seconds:5.1f} s  {mutant['name']}  ({mutant['selector']})",
              flush=True)
        if outcome == "survived":
            survivors.append(mutant["name"])
        elif outcome != "killed":
            errors.append(mutant["name"])
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
    if errors:
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
