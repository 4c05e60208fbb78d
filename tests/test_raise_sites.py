"""``raise_sites.py`` refuses a run during which a package file changed:
the lines it traced would no longer be those of the sites it parsed."""

import shutil
import subprocess
import sys
from pathlib import Path

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
