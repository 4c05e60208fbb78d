"""Golden-file checks: the JSON payloads are byte-stable contracts.

Commands run with the working directory set to tests/data so the
payload's file paths stay relative and machine-independent.  To refresh
after an intentional schema change, rerun each command from tests/data
and overwrite the file under tests/data/golden/.  The ``evaluate``
payloads of many more settings, and the output of every other command
over a matrix of cells, are pinned by their sha256
(``payload_digests.py``).
"""

import json
from pathlib import Path

import pytest

from anaprop.cli import main
from payload_digests import CLI_RECORD, RECORD, cli_digests, digests

DATA = Path(__file__).parent / "data"

CASES = [
    ("ap_check.json",
     ["ap", "check", "g", "h", "g", "h", "--format", "json"]),
    ("explain_milk.json",
     ["explain", "--data", "coffee.csv", "--schema", "coffee.schema.json",
      "--query", "sit_2,no,coffee,yes,yes", "--why", "with_milk",
      "--format", "json"]),
    ("deps_courses_exhaustive.json",
     ["deps", "--data", "courses.csv", "--format", "json"]),
    ("deps_courses_single.json",
     ["deps", "--data", "courses.csv", "--x", "course", "--y", "teacher",
      "--format", "json"]),
    ("evaluate_planted.json",
     ["evaluate", "--data", "planted.csv", "--schema", "planted.schema.json",
      "--strategy", "selected", "--folds", "3", "--seed", "11",
      "--format", "json"]),
]


@pytest.mark.parametrize("golden_name,argv", CASES,
                         ids=[name for name, _ in CASES])
def test_json_payloads_match_golden_files(golden_name, argv, capsys,
                                          monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    expected = (DATA / "golden" / golden_name).read_text()
    assert out == expected


def test_evaluate_payload_digests_match_the_recorded_matrix():
    # Each cell names its input, strategy and settings; a changed cell
    # shows in the dict diff.  See payload_digests.py to re-record.
    assert digests() == json.loads(RECORD.read_text(encoding="utf-8"))


def test_cli_output_digests_match_the_recorded_matrix():
    assert cli_digests() == json.loads(CLI_RECORD.read_text(encoding="utf-8"))
