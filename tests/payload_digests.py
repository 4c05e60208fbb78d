"""The sha256 of each canonical ``evaluate`` payload over a matrix of
settings, so that byte identity of the cross-validation reports is one
mechanical check.

A cell is the digest of ``json.dumps(payload, indent=2, sort_keys=True)``,
the layout ``evaluate --format json`` prints.  Its payload is a report's
``canonical()``, or for a grid ``{"best": ..., "reports": [...]}``, made
in-process, so no file path enters it.  The cells cover every strategy
and fallback as a single run, the case-analysis and kNN grids under each
fallback, and the CLI's ``table2`` and ``table3`` profiles, on two
inputs: a 60-row Monk-1 sample, on which every strategy but kNN
abstains (so each fallback is asked), and a planted-rule set.

``test_golden.py`` compares the cells with ``data/evaluate_digests.json``.
After a payload change made on purpose, rewrite that file with

    PYTHONPATH=src python tests/payload_digests.py --record

and name each changed cell in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import warnings
from itertools import product
from pathlib import Path

from anaprop.classify import (FALLBACKS, STRATEGIES, CvConfig, cross_validate,
                              cross_validate_grid)
from anaprop.cli import PROFILES
from anaprop.data import PlantedRule, generate_monk, generate_planted_rules

RECORD = Path(__file__).with_name("data") / "evaluate_digests.json"

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


def digests() -> dict[str, str]:
    """Cell name -> sha256 of its payload."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-stratified fold notice
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/payload_digests.py --record")
    RECORD.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {RECORD}")
