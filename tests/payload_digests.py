"""The sha256 of each canonical ``evaluate`` payload over a matrix of
settings, and of the output of every other command over a matrix of
cells, so that byte identity of the payloads is one mechanical check.

An ``evaluate`` cell is the digest of ``json.dumps(payload, indent=2,
sort_keys=True)``, the layout ``evaluate --format json`` prints.  Its
payload is a report's ``canonical()``, or for a grid ``{"best": ...,
"reports": [...]}``, made in-process, so no file path enters it.  The
cells cover every strategy and fallback as a single run, the
case-analysis and kNN grids under each fallback, and the CLI's
``table2`` and ``table3`` profiles, on two inputs: a 60-row Monk-1
sample, on which every strategy but kNN abstains (so each fallback is
asked), and a planted-rule set.  One more cell (``UNSTRATIFIED``) deals
the Monk-1 sample into more folds than its smaller class has rows, so
its folds are not stratified and differ in size.

The other commands (``ap``, ``explain``, ``deps`` and every ``generate``
kind, with and without ``--emit-schema``) run in-process through
``cli.main`` from a temporary directory that holds their inputs, so the
paths they print stay relative.  A cell records the exit code and the
digest of stdout, and for ``generate`` those of the written table and
sidecar, or ``absent``.

``test_golden.py`` compares the cells with ``data/evaluate_digests.json``
and ``data/cli_digests.json``.  After a payload change made on purpose,
rewrite both files with

    PYTHONPATH=src python tests/payload_digests.py --record

and name each changed cell in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from itertools import product
from pathlib import Path

from anaprop.classify import (FALLBACKS, STRATEGIES, CvConfig, cross_validate,
                              cross_validate_grid)
from anaprop.cli import PROFILES, main
from anaprop.core import Schema
from anaprop.data import (PlantedRule, generate_monk, generate_planted_rules,
                          generate_random_relation)

DATA = Path(__file__).with_name("data")
RECORD = DATA / "evaluate_digests.json"
CLI_RECORD = DATA / "cli_digests.json"

#: The grid of each strategy that has a neighbor parameter.
GRIDS = {"bongard": [1, 3, 5], "knn": [1, 3, 7]}


def monk1_sample():
    """60 rows of Monk-1, drawn with seed 0."""
    ds = generate_monk(1)
    return ds.subset(sorted(random.Random(0).sample(range(len(ds)), 60)))


def planted_sample():
    """24 rows planting one clean and one exception-bearing tilt rule."""
    return generate_planted_rules([PlantedRule(pairs=6),
                                   PlantedRule(pairs=6, exceptions=2)])[0]


INPUTS = {"monk1-60": monk1_sample, "planted-24": planted_sample}


def _digest(payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _grid_payload(data, config: CvConfig, grid: list[int]) -> dict:
    best, reports = cross_validate_grid(data, config, grid)
    return {"best": best.canonical(), "reports": [r.canonical() for r in reports]}


#: The cell whose folds are dealt from one shuffled order: Monk-1's class
#: 0 has 25 of the sample's rows, fewer than 26 folds.  The selected
#: strategy abstains in most folds, so its brute fallback moves from one
#: fold's test rows to the next, of 2 or 3 rows.
UNSTRATIFIED = ("monk1-60 selected fallback=brute folds=26",
                CvConfig(strategy="selected", folds=26, seed=0, fallback="brute",
                         subsample=0.8))


def digests() -> dict[str, str]:
    """Cell name -> sha256 of its payload."""
    name, config = UNSTRATIFIED
    out = {name: _digest(cross_validate(monk1_sample(), config).canonical())}
    for name, make in INPUTS.items():
        data = make()
        for strategy, fallback in product(STRATEGIES, FALLBACKS):
            config = CvConfig(strategy=strategy, folds=5, seed=0, fallback=fallback,
                              subsample=0.8 if strategy == "selected" else None)
            out[f"{name} {strategy} fallback={fallback}"] = \
                _digest(cross_validate(data, config).canonical())
        for (strategy, grid), fallback in product(GRIDS.items(), FALLBACKS):
            config = CvConfig(strategy=strategy, folds=5, seed=0, fallback=fallback)
            out[f"{name} {strategy} grid={grid} fallback={fallback}"] = \
                _digest(_grid_payload(data, config, grid))
        for profile, settings in PROFILES.items():
            settings = dict(settings)
            grid = settings.pop("grid", None)
            config = CvConfig(**settings)
            payload = (cross_validate(data, config).canonical() if grid is None
                       else _grid_payload(data, config, list(map(int, grid.split(",")))))
            out[f"{name} profile={profile}"] = _digest(payload)
    return out


COFFEE = ["--data", "coffee.csv", "--schema", "coffee.schema.json"]
#: Each cell's argv; ``--format json`` is added to every one.
CLI_CELLS = {
    "ap check": ["ap", "check", "g", "h", "g", "h"],
    "ap solve": ["ap", "solve", "g", "g", "h"],
    "ap solve no-solution": ["ap", "solve", "0", "1", "1"],
    "explain coffee why": ["explain", *COFFEE, "--query", "sit_2,no,coffee,yes,yes",
                           "--why", "with_milk"],
    "explain coffee why-not": ["explain", *COFFEE, "--query-index", "1",
                               "--why-not", "with_milk=yes"],
    "deps courses exhaustive": ["deps", "--data", "courses.csv"],
    "deps courses single": ["deps", "--data", "courses.csv", "--x", "course",
                            "--y", "teacher"],
    "deps random exhaustive": ["deps", "--data", "random.csv"],
    "deps random single": ["deps", "--data", "random.csv", "--x", "a,b", "--y", "c"],
}
#: The options of each ``generate`` cell, run with and without
#: ``--emit-schema``; the spec files are written by ``_write_inputs``.
GENERATE_CELLS = {
    "monk1": ["--kind", "monk1"],
    "monk2": ["--kind", "monk2"],
    "monk3": ["--kind", "monk3"],
    "affine coefficients": ["--kind", "affine", "--n", "3", "--coeffs", "1,0,1,1"],
    "affine seed": ["--kind", "affine", "--n", "4", "--seed", "5"],
    "planted-rule": ["--kind", "planted-rule", "--spec", "rules.json"],
    "random-relation": ["--kind", "random-relation", "--spec", "relation.json",
                        "--tuples", "2", "--seed", "3"],
}
CLI_CELLS |= {f"generate {name}{emit}": ["generate", "--out", "out.csv", *options,
                                          *emit.split()]
              for name, options in GENERATE_CELLS.items()
              for emit in ("", " --emit-schema")}


def _write_inputs(where: Path) -> None:
    """The cells' input files: the coffee and courses tables, two spec
    files and a seeded random relation of 5 attributes and 40 tuples."""
    for name in ("coffee.csv", "coffee.schema.json", "courses.csv"):
        shutil.copy(DATA / name, where / name)
    (where / "rules.json").write_text(json.dumps(
        {"rules": [{"pairs": 4, "exceptions": 1}, {"pairs": 3, "label_to": None}]}))
    (where / "relation.json").write_text(json.dumps({"attributes": [
        {"name": "a", "domain": ["0", "1"]}, {"name": "b", "domain": ["x", "y", "z"]}]}))
    schema = Schema.from_pairs((name, "012") for name in "abcde")
    rel = generate_random_relation(schema, 40, seed=1)
    (where / "random.csv").write_text(
        "\n".join(",".join(row) for row in (schema.names, *rel.tuples)) + "\n")


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "absent"


def cli_digests() -> dict[str, dict]:
    """Cell name -> exit code and digests of stdout and, for ``generate``,
    of the written table and sidecar."""
    out = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        _write_inputs(where)
        os.chdir(where)
        try:
            for name, argv in CLI_CELLS.items():
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([*argv, "--format", "json"])
                cell = {"exit": code, "stdout": hashlib.sha256(
                    stdout.getvalue().encode("utf-8")).hexdigest()}
                if argv[0] == "generate":
                    for key, path in (("table", "out.csv"), ("sidecar", "out.schema.json")):
                        cell[key] = _file_digest(where / path)
                        (where / path).unlink(missing_ok=True)
                out[name] = cell
        finally:
            os.chdir(home)
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/payload_digests.py --record")
    for path, made in ((RECORD, digests()), (CLI_RECORD, cli_digests())):
        path.write_text(json.dumps(made, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
