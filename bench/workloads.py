"""Seeded inputs, operations and output checks of the three workloads.

Inputs are made here with the standard library alone, so they do not
depend on the package's own generators; the program only ever sees the
CSV files written into the work directory.

Each workload is a fixed list of operations (a *round*).  An operation
returns its exit code and its canonical output text; the checks read only
that output and the generated input rows.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("cv-monk", "explain-monk", "deps-discovery")

#: The cross-validation protocol seed, as in the published profiles.
CV_SEED = 7
BONGARD_GRID = "1,3,5,7,9,11"

# Input sizes.  "full" is the benchmark; "tiny" keeps the smoke test quick.
SIZES = {
    "full": {
        "table2_rows": None,  # None: the full 432-row Monk-2 space
        "table3_monk1": 124,  # original Monk-1 training-set size
        "table3_monk3": 122,  # original Monk-3 training-set size
        "knn_monk2": 169,  # original Monk-2 training-set size
        "suitability_monk3": 96,
        "explain_rows": 216,
        "deps_random": 40,
        "deps_product": (3, 4, 5),  # X values, Y-set size, Z-set size
        "deps_checked_pairs": 6,
    },
    "tiny": {
        "table2_rows": 60,
        "table3_monk1": 30,
        "table3_monk3": 30,
        "knn_monk2": 30,
        "suitability_monk3": 16,
        "explain_rows": 40,
        "deps_random": 12,
        "deps_product": (2, 2, 3),
        "deps_checked_pairs": 3,
    },
}

# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

MONK_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6", "class")
_MONK_SIZES = (3, 3, 2, 3, 4, 2)


def _monk_label(which: int, v: tuple[int, ...]) -> str:
    a1, a2, a3, a4, a5, a6 = v
    if which == 1:
        hit = a1 == a2 or a5 == 1
    elif which == 2:
        hit = sum(1 for x in v if x == 1) == 2
    else:
        hit = (a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3)
    return "1" if hit else "0"


def monk_space(which: int) -> list[tuple[str, ...]]:
    """The full 432-row attribute space of a Monk problem, class last."""
    return [
        tuple(str(x) for x in v) + (_monk_label(which, v),)
        for v in itertools.product(*(range(1, s + 1) for s in _MONK_SIZES))
    ]


def stratified_sample(rows: list[tuple[str, ...]], size: Optional[int],
                      rng: random.Random) -> list[tuple[str, ...]]:
    """``size`` rows keeping each class's share (largest remainder), in
    the space's row order; None keeps every row."""
    if size is None:
        return list(rows)
    by_class: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        by_class.setdefault(row[-1], []).append(i)
    quotas = {c: size * len(m) / len(rows) for c, m in sorted(by_class.items())}
    take = {c: int(q) for c, q in quotas.items()}
    for c in sorted(quotas, key=lambda c: take[c] - quotas[c])[: size - sum(take.values())]:
        take[c] += 1
    picked: list[int] = []
    for c, members in sorted(by_class.items()):
        picked += rng.sample(members, take[c])
    return [rows[i] for i in sorted(picked)]


REL_NAMES = ("A", "B", "C", "D", "E", "F")
_REL_DOMAIN = ("0", "1", "2")


def _varied(rows: list[tuple[str, ...]]) -> bool:
    """Every column shows at least two values (domains are inferred)."""
    return all(len({r[j] for r in rows}) > 1 for j in range(len(rows[0])))


def random_relation(count: int, rng: random.Random) -> list[tuple[str, ...]]:
    """``count`` distinct tuples drawn uniformly from 3^6 ternary tuples."""
    space = list(itertools.product(_REL_DOMAIN, repeat=len(REL_NAMES)))
    while True:
        rows = rng.sample(space, count)
        if _varied(rows):
            return rows


def product_relation(shape: tuple[int, int, int], rng: random.Random) -> list[tuple[str, ...]]:
    """For each A-value, a random set of (B, C) values times a random set
    of (D, E, F) values, so A ->> B,C holds non-trivially."""
    x_count, y_size, z_size = shape
    ys = list(itertools.product(_REL_DOMAIN, repeat=2))
    zs = list(itertools.product(_REL_DOMAIN, repeat=3))
    while True:
        rows = [
            (x,) + y + z
            for x in _REL_DOMAIN[:x_count]
            for y, z in itertools.product(rng.sample(ys, y_size), rng.sample(zs, z_size))
        ]
        rng.shuffle(rows)
        if _varied(rows):
            return rows


def write_csv(path: Path, header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One operation of a round.

    ``run`` returns (exit code, canonical output text); ``check`` returns
    a list of problems with that output (empty when it is correct);
    ``work`` is the operation's units of work (predictions, explanations
    or dependency checks); ``group`` names the per-operation metric it
    counts towards.
    """

    label: str
    group: str
    work: int
    run: Callable[[object], tuple[int, str]]
    check: Callable[[int, str], list[str]]


@dataclass
class Workload:
    work_unit: str
    ops: list[Op] = field(default_factory=list)


def run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """Call ``anaprop.cli.main`` in-process and capture its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def _json(text: str) -> Optional[dict]:
    try:
        return json.loads(text)
    except ValueError:
        return None


# -- cv-monk -----------------------------------------------------------------

def _check_report(report: dict, rows: int, strategy: str) -> list[str]:
    problems = []
    sizes = [f["test_size"] for f in report["per_fold"]]
    if sum(sizes) != rows or report["dataset"]["rows"] != rows:
        problems.append(f"fold test sizes sum to {sum(sizes)}, expected {rows}")
    assigned = sorted(i for fold in report["fold_assignment"] for i in fold)
    if assigned != list(range(rows)):
        problems.append("fold assignment does not cover every row exactly once")
    if any(not 0 <= f["correct"] <= f["test_size"] for f in report["per_fold"]):
        problems.append("a fold reports more correct rows than test rows")
    accs = [100.0 * f["correct"] / f["test_size"] for f in report["per_fold"]]
    if abs(sum(accs) / len(accs) - report["mean_accuracy"]) > 1e-9:
        problems.append("mean accuracy is not the mean of the fold accuracies")
    cfg = report["config"]
    if cfg["strategy"] != strategy or cfg["seed"] != CV_SEED:
        problems.append(f"config echoes {cfg['strategy']}/{cfg['seed']}")
    return problems


def check_evaluate(code: int, text: str, *, rows: int, strategy: str,
                   grid: Optional[list[int]] = None,
                   floor: Optional[float] = None) -> list[str]:
    if code != 0:
        return [f"evaluate exited with {code}"]
    payload = _json(text)
    if payload is None or payload.get("command") != "evaluate":
        return ["evaluate output is not an evaluate payload"]
    if grid is None:
        reports = [payload["report"]]
    else:
        reports = payload["reports"]
        if payload["grid"] != grid or len(reports) != len(grid):
            return [f"grid payload does not cover the grid {grid}"]
        if payload["best"]["mean_accuracy"] != max(r["mean_accuracy"] for r in reports):
            return ["best report is not the most accurate one"]
    problems = [p for r in reports for p in _check_report(r, rows, strategy)]
    if floor is not None and reports[0]["mean_accuracy"] < floor:
        problems.append(f"mean accuracy {reports[0]['mean_accuracy']} below {floor}")
    return problems


def check_suitability(code: int, text: str, *, rows: int) -> list[str]:
    report = _json(text)
    if code != 0 or report is None:
        return ["suitability did not return a report"]
    problems = []
    if report["total"] != rows or report["evaluated"] + report["abstained"] != rows:
        problems.append("suitability does not account for every left-out row")
    if not 0 <= report["wrong"] <= report["evaluated"]:
        problems.append("suitability counts more errors than evaluated rows")
    expected = report["wrong"] / report["evaluated"] if report["evaluated"] else 0.0
    if report["error_ratio"] != expected:
        problems.append("suitability error ratio is not wrong / evaluated")
    return problems


def _suitability(pkg, path: str) -> tuple[int, str]:
    ds = pkg.data.load_dataset(path)
    report = pkg.classify.analogical_suitability(ds)
    return 0, json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"


def cv_monk(work: Path, sizes: dict, seed: int) -> Workload:
    rng = random.Random(seed)
    inputs = {
        "table2_monk2": (monk_space(2), sizes["table2_rows"]),
        "table3_monk1": (monk_space(1), sizes["table3_monk1"]),
        "table3_monk3": (monk_space(3), sizes["table3_monk3"]),
        "knn_monk2": (monk_space(2), sizes["knn_monk2"]),
        "suitability_monk3": (monk_space(3), sizes["suitability_monk3"]),
    }
    files = {}
    for name, (space, size) in inputs.items():
        rows = stratified_sample(space, size, rng)
        path = work / f"{name}.csv"
        write_csv(path, MONK_NAMES, rows)
        files[name] = (str(path), len(rows))

    grid = [int(v) for v in BONGARD_GRID.split(",")]
    wl = Workload("test-row predictions")
    path, n = files["table2_monk2"]
    wl.ops.append(Op(
        "table2_monk2", "table2_s", n,
        lambda pkg, path=path: run_cli(pkg, ["evaluate", "--data", path,
                                             "--profile", "table2", "--format", "json"]),
        lambda code, text, n=n: check_evaluate(
            code, text, rows=n, strategy="selected",
            # The C5 floor applies to the full Monk-2 space only.
            floor=95.0 if sizes["table2_rows"] is None else None),
    ))
    for name in ("table3_monk1", "table3_monk3"):
        path, n = files[name]
        wl.ops.append(Op(
            name, "table3_s", n * len(grid),
            lambda pkg, path=path: run_cli(pkg, ["evaluate", "--data", path,
                                                 "--profile", "table3", "--format", "json"]),
            lambda code, text, n=n: check_evaluate(code, text, rows=n,
                                                   strategy="bongard", grid=grid),
        ))
    path, n = files["knn_monk2"]
    wl.ops.append(Op(
        "knn_grid_monk2", "table3_s", n * len(grid),
        lambda pkg, path=path: run_cli(pkg, [
            "evaluate", "--data", path, "--strategy", "knn", "--grid", BONGARD_GRID,
            "--seed", str(CV_SEED), "--format", "json"]),
        lambda code, text, n=n: check_evaluate(code, text, rows=n,
                                               strategy="knn", grid=grid),
    ))
    path, n = files["suitability_monk3"]
    wl.ops.append(Op(
        "suitability_monk3", "suitability_s", n,
        lambda pkg, path=path: _suitability(pkg, path),
        lambda code, text, n=n: check_suitability(code, text, rows=n),
    ))
    return wl


# -- explain-monk --------------------------------------------------------------

def recount_pairs(rows: list[tuple[str, ...]], change: list[dict], names: tuple[str, ...],
                  ridx: int, target: str, actual: str) -> tuple[int, int]:
    """Literal O(n^2) count of ordered row pairs showing exactly this
    attribute change with the target->actual tilt (supporting) or with no
    tilt (exceptions)."""
    changed = {names.index(c["attribute"]): (c["adverse_value"], c["query_value"])
               for c in change}
    supporting = exceptions = 0
    for r1 in rows:
        for r2 in rows:
            if all((r1[j], r2[j]) == changed[j] if j in changed else r1[j] == r2[j]
                   for j in range(len(names)) if j != ridx):
                if (r1[ridx], r2[ridx]) == (target, actual):
                    supporting += 1
                elif r1[ridx] == r2[ridx]:
                    exceptions += 1
    return supporting, exceptions


def check_explanation(code: int, text: str, *, rows: list[tuple[str, ...]],
                      query_index: int, why_not: Optional[str]) -> list[str]:
    payload = _json(text)
    if payload is None or payload.get("command") != "explain":
        return [f"explain exited with {code} without an explain payload"]
    names = MONK_NAMES
    ridx = names.index("class")
    query = rows[query_index]
    problems = []
    if code != (0 if payload["supported"] else 3):
        problems.append(f"exit code {code} does not match supported={payload['supported']}")
    actual, target = payload["actual"], payload["target"]
    if actual != query[ridx] or target == actual:
        problems.append("actual/target do not contrast the query's class")
    if why_not is not None and target != why_not:
        problems.append(f"why-not target {target} is not the asked {why_not}")
    adverse = payload["adverse_example"]
    if adverse is None:
        return problems + ["no adverse example in a table that has the other class"]
    row = rows[adverse["row_index"]]
    if list(row) != adverse["row"] or row[ridx] != target:
        problems.append("adverse example is not a table row with the target class")
    expected_change = [
        {"attribute": names[j], "adverse_value": row[j], "query_value": query[j]}
        for j in range(len(names)) if j != ridx and row[j] != query[j]
    ]
    if adverse["change"] != expected_change:
        problems.append("change set is not the adverse row's disagreement with the query")
    supporting, exceptions = recount_pairs(rows, adverse["change"], names, ridx,
                                           target, actual)
    if (supporting, exceptions) != (payload["supporting_pairs"], payload["exception_pairs"]):
        problems.append(f"pair counts {payload['supporting_pairs']}/"
                        f"{payload['exception_pairs']}, recounted {supporting}/{exceptions}")
    total = supporting + exceptions
    if payload["strength"] != (supporting / total if total else 0.0):
        problems.append("strength is not supporting / (supporting + exceptions)")
    if payload["supported"] != (supporting > 0):
        problems.append("supported flag disagrees with the supporting count")
    return problems


def explain_monk(work: Path, sizes: dict, seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("explanations")
    for which in (1, 2):
        rows = stratified_sample(monk_space(which), sizes["explain_rows"], rng)
        path = work / f"explain_monk{which}.csv"
        write_csv(path, MONK_NAMES, rows)
        # One why and one why-not question per class: the class of the query
        # sets how many adverse examples there are, and so the cost.
        for cls in ("0", "1"):
            members = [i for i, r in enumerate(rows) if r[-1] == cls]
            for question, index in zip(("why", "why-not"), rng.sample(members, 2)):
                other = "1" if cls == "0" else "0"
                asked = ["--why", "class"] if question == "why" else ["--why-not", f"class={other}"]
                argv = ["explain", "--data", str(path), "--query-index", str(index),
                        *asked, "--format", "json"]
                wl.ops.append(Op(
                    f"monk{which}_row{index}_{question}", "explain", 1,
                    lambda pkg, argv=argv: run_cli(pkg, argv),
                    lambda code, text, rows=rows, index=index, why_not=(
                        other if question == "why-not" else None):
                        check_explanation(code, text, rows=rows, query_index=index,
                                          why_not=why_not),
                ))
    return wl


# -- deps-discovery ------------------------------------------------------------

def _subsets(names: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [s for k in range(len(names) + 1) for s in itertools.combinations(names, k)]


def literal_fd(rows, xi, yi) -> bool:
    """X -> Y by definition: any two tuples agreeing on X agree on Y."""
    return all(any(t1[i] != t2[i] for i in xi) or all(t1[i] == t2[i] for i in yi)
               for t1 in rows for t2 in rows)


def literal_mvd(rows, xi, yi) -> bool:
    """X ->> Y by definition: for t1, t2 agreeing on X some tuple takes X
    and Y from t1 and the rest from t2."""
    members = set(rows)
    xy = set(xi) | set(yi)
    return all(
        any(t1[i] != t2[i] for i in xi)
        or tuple(t1[i] if i in xy else t2[i] for i in range(len(t1))) in members
        for t1 in rows for t2 in rows
    )


def check_deps(code: int, text: str, *, rows: list[tuple[str, ...]],
               checked: list[tuple[tuple[str, ...], tuple[str, ...]]],
               planted: bool) -> list[str]:
    if code != 0:
        return [f"deps exited with {code}"]
    payload = _json(text)
    if payload is None or payload.get("command") != "deps":
        return ["deps output is not a deps payload"]
    names = REL_NAMES
    if payload["rows"] != len(rows) or tuple(payload["attributes"]) != names:
        return ["deps payload does not describe the input relation"]
    found = {(tuple(f["x"]), tuple(f["y"])): f for f in payload["findings"]}
    members = set(rows)
    problems = []
    everything = set(range(len(names)))
    for (x, y), f in found.items():
        xi = {names.index(a) for a in x}
        yi = {names.index(a) for a in y}
        trivial = yi <= xi or xi | yi == everything
        if f["trivial"] != trivial:
            problems.append(f"X={x} Y={y}: trivial flag is {f['trivial']}")
        w = f["ap_witness"]
        if w is None:
            continue
        t1, t2, t3, t4 = (tuple(t) for t in w)
        rest = everything - xi - yi
        xy = xi | yi
        if (trivial or not f["mvd"]
                or any(t1[i] != t2[i] for i in xi)
                or all(t1[i] == t2[i] for i in yi) or all(t1[i] == t2[i] for i in rest)
                or t3 != tuple(t1[i] if i in xy else t2[i] for i in range(len(names)))
                or t4 != tuple(t2[i] if i in xy else t1[i] for i in range(len(names)))
                or not {t1, t2, t3, t4} <= members):
            problems.append(f"X={x} Y={y}: invalid ap_witness {w}")
    for x, y in checked:
        f = found.get((x, y), {"fd": False, "mvd": False})
        xi = [names.index(a) for a in x]
        yi = [names.index(a) for a in y]
        if f["fd"] != literal_fd(rows, xi, yi) or f["mvd"] != literal_mvd(rows, xi, yi):
            problems.append(f"X={x} Y={y}: fd/mvd disagree with their definitions")
    if planted:
        f = found.get((("A",), ("B", "C")))
        if f is None or not (f["mvd"] and f["lossless_join"] and f["ap_witness"]):
            problems.append("the planted A ->> B,C is not reported with a witness")
    return problems


def deps_discovery(work: Path, sizes: dict, seed: int) -> Workload:
    rng = random.Random(seed)
    subsets = _subsets(REL_NAMES)
    pairs = [(x, y) for x in subsets for y in subsets if y]
    wl = Workload("(X, Y) checks")
    relations = {
        "random": random_relation(sizes["deps_random"], rng),
        "product": product_relation(sizes["deps_product"], rng),
    }
    for kind, rows in relations.items():
        path = work / f"deps_{kind}.csv"
        write_csv(path, REL_NAMES, rows)
        checked = rng.sample(pairs, sizes["deps_checked_pairs"])
        wl.ops.append(Op(
            f"deps_{kind}", f"deps_{kind}_s", len(pairs),
            lambda pkg, path=str(path): run_cli(pkg, ["deps", "--data", path,
                                                      "--format", "json"]),
            lambda code, text, rows=rows, checked=checked, planted=kind == "product":
                check_deps(code, text, rows=rows, checked=checked, planted=planted),
        ))
    return wl


MAKERS = {
    "cv-monk": cv_monk,
    "explain-monk": explain_monk,
    "deps-discovery": deps_discovery,
}
