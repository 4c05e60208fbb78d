"""Acceptance suite: one test per shipping criterion, each printing a
pass line with its measurements (run with ``pytest -v -s``).

The Monk benchmark files are produced by the package's own generators
(the full 432-row attribute spaces labeled by the standard concept
definitions); instance counts are asserted and printed alongside the
accuracy figures.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from anaprop.cli import PROFILES, main
from anaprop.core import (
    Schema,
    ap_holds,
    inverse_paralogy,
    solve,
    solve_vec,
)
from anaprop.data import (
    Dataset,
    Relation,
    generate_affine,
    generate_monk,
)
from anaprop.core import Attribute
from anaprop.classify import BruteForceModel, CvConfig, cross_validate, cross_validate_grid
from anaprop.relational import (
    fd_holds,
    lossless_join_check,
    mvd_ap_correspondence,
    mvd_holds,
    mvd_inference_check,
    weak_mvd_holds,
)

DATA = Path(__file__).parent / "data"
BITS = ("0", "1")


def timed(bound_s):
    """Return (start, check) helpers enforcing a wall-clock bound."""
    started = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - started
        assert elapsed < bound_s, f"exceeded {bound_s}s bound: {elapsed:.2f}s"
        return elapsed

    return check


def test_c1_truth_tables():
    check = timed(1.0)
    ap_true = {q for q in itertools.product(BITS, repeat=4) if ap_holds(*q)}
    assert ap_true == {
        ("0", "0", "0", "0"), ("1", "1", "1", "1"),
        ("0", "1", "0", "1"), ("1", "0", "1", "0"),
        ("0", "0", "1", "1"), ("1", "1", "0", "0"),
    }
    ip_true = {q for q in itertools.product(BITS, repeat=4) if inverse_paralogy(*q)}
    assert ip_true == {
        ("1", "1", "0", "0"), ("0", "0", "1", "1"),
        ("0", "1", "1", "0"), ("1", "0", "0", "1"),
        ("1", "0", "1", "0"), ("0", "1", "0", "1"),
    }
    elapsed = check()
    print(f"\n[PASS] C1 truth tables: AP 6/16, IP 6/16 ({elapsed:.3f}s)")


def test_c2_postulates():
    check = timed(5.0)

    def assert_postulates(a, b, c, d):
        value = ap_holds(a, b, c, d)
        assert ap_holds(c, d, a, b) == value          # symmetry
        assert ap_holds(a, c, b, d) == value          # central permutation
        assert ap_holds(d, b, c, a) == value          # extreme permutation
        assert ap_holds(b, a, d, c) == value          # internal reversal
        assert ap_holds(d, c, b, a) == value          # complete reversal
        assert ap_holds(a, b, a, b)                   # reflexivity
        assert ap_holds(a, a, b, b)                   # identity

    for quad in itertools.product(BITS, repeat=4):
        assert_postulates(*quad)

    rng = random.Random(20260810)
    for _ in range(10_000):
        size = rng.randint(2, 5)
        domain = [f"s{i}" for i in range(size)]
        a, b, c, d = (rng.choice(domain) for _ in range(4))
        assert_postulates(a, b, c, d)
        renamed = list(domain)
        rng.shuffle(renamed)
        sigma = dict(zip(domain, renamed))
        assert ap_holds(a, b, c, d) == \
            ap_holds(sigma[a], sigma[b], sigma[c], sigma[d])  # code independence
    elapsed = check()
    print(f"\n[PASS] C2 postulates: 16 Boolean + 10000 nominal quadruples ({elapsed:.3f}s)")


def test_c3_solver():
    check = timed(1.0)
    for a, b, c in itertools.product(BITS, repeat=3):
        matches = [x for x in BITS if ap_holds(a, b, c, x)]
        got = solve(a, b, c)
        exists = (a == b) or (a == c)
        assert (got is not None) == exists
        assert matches == ([got] if got is not None else [])
        if exists:
            ia, ib, ic = int(a), int(b), int(c)
            assert got == str(1 - (ic ^ (1 - (ia ^ ib))))  # x = c eqv (a eqv b)
    domain4 = ("p", "q", "r", "s")
    for a, b, c in itertools.product(domain4, repeat=3):
        matches = [x for x in domain4 if ap_holds(a, b, c, x)]
        got = solve(a, b, c)
        assert matches == ([got] if got is not None else [])
    elapsed = check()
    print(f"\n[PASS] C3 solver: all Boolean triples + 4-symbol nominal triples ({elapsed:.3f}s)")


def leave_one_out_errors(ds: Dataset) -> int:
    errors = 0
    for i in range(len(ds)):
        rest = ds.subset([j for j in range(len(ds)) if j != i])
        pred = BruteForceModel(rest).classify(ds.items[i])
        if not pred.abstained and pred.label != ds.labels[i]:
            errors += 1
    return errors


def test_c4_affine_completeness():
    check = timed(120.0)
    for coeffs in itertools.product((0, 1), repeat=5):
        ds = generate_affine(4, coeffs)
        assert leave_one_out_errors(ds) == 0, f"affine {coeffs} had an error"
    conj_items = tuple(itertools.product(BITS, repeat=3))
    conj_labels = tuple(
        "1" if item == ("1", "1", "1") else "0" for item in conj_items
    )
    conj = Dataset(
        Schema.from_pairs([(f"x{i}", BITS) for i in (1, 2, 3)]),
        Attribute("f", BITS), conj_items, conj_labels,
    )
    assert leave_one_out_errors(conj) >= 1
    elapsed = check()
    print(f"\n[PASS] C4 affine completeness: 32 affine functions error-free, "
          f"3-way conjunction errs ({elapsed:.1f}s)")


def table2_config(**overrides) -> CvConfig:
    profile = PROFILES["table2"]
    base = dict(strategy=profile["strategy"], folds=profile["folds"],
                seed=profile["seed"], radius=profile["radius"],
                subsample=profile["subsample"])
    base.update(overrides)
    return CvConfig(**base)


def test_c5_table2_selected_triplets():
    check = timed(1800.0)
    floors = {1: 97.0, 2: 95.0, 3: 96.0}
    lines = []
    for which, floor in floors.items():
        ds = generate_monk(which)
        assert len(ds) == 432  # matches the published instance count
        report = cross_validate(ds, table2_config())
        lines.append(f"monk{which}: {report.mean_accuracy:.2f}"
                     f" +/- {report.std_accuracy:.2f} (floor {floor})")
        assert report.mean_accuracy >= floor, lines[-1]
    elapsed = check()
    print(f"\n[PASS] C5 selected triplets (profile table2, 432 rows each): "
          + "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_c5_table2_baseline_window():
    # The published baseline figure behind the table2 profile is
    # 70.69 +/- 7.65 on Monk2, and this check pins the widened window
    # 70.69 +/- 10.  A faithful exhaustive triplet vote on the full
    # 432-row Monk2 space scores far above that window; the vote-level
    # identity with the literal cubic enumeration is covered by the
    # classifier tests, and no protocol variant tried (neighbor-radius
    # bound on c, halved triplet pool, 169-row subsample, abstentions
    # counted as errors) lands inside the window either.
    check = timed(1800.0)
    ds = generate_monk(2)
    assert len(ds) == 432
    report = cross_validate(ds, table2_config(strategy="baseline",
                                              subsample=None))
    elapsed = check()
    measured = report.mean_accuracy
    inside = abs(measured - 70.69) <= 10.0
    line = (f"monk2 baseline: {measured:.2f} +/- {report.std_accuracy:.2f}, "
            f"window 70.69 +/- 10 ({elapsed:.1f}s)")
    print(f"\n[{'PASS' if inside else 'FAIL'}] C5 baseline window: {line}")
    assert inside, line


def test_c6_table3_bongard_and_knn():
    check = timed(1800.0)
    grid = [1, 3, 5, 7, 9, 11]
    lines = []
    for which in (1, 3):
        ds = generate_monk(which)
        best, _ = cross_validate_grid(
            ds, CvConfig(strategy="bongard", folds=10, seed=7), grid)
        lines.append(f"monk{which} bongard: {best.mean_accuracy:.2f} "
                     f"at k*={best.config.neighbor_budget}")
        assert best.mean_accuracy >= 99.0, lines[-1]
    ds2 = generate_monk(2)
    best_knn, _ = cross_validate_grid(
        ds2, CvConfig(strategy="knn", folds=10, seed=7), grid)
    lines.append(f"monk2 knn: {best_knn.mean_accuracy:.2f} at k*={best_knn.config.k}")
    assert abs(best_knn.mean_accuracy - 64.44) <= 10.0, lines[-1]
    elapsed = check()
    print(f"\n[PASS] C6 table3: " + "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_c7_coffee_example(capsys):
    check = timed(1.0)
    a = ("sit_1", "yes", "coffee", "no", "no")
    b = ("sit_1", "no", "coffee", "yes", "no")
    c = ("sit_2", "yes", "coffee", "no", "yes")
    assert solve_vec(a[2:], b[2:], c[2:]) == ("coffee", "yes", "yes")

    def ask(attr):
        code = main([
            "explain", "--data", str(DATA / "coffee.csv"),
            "--schema", str(DATA / "coffee.schema.json"),
            "--query", "sit_2,no,coffee,yes,yes", "--why", attr,
            "--format", "json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    milk = ask("with_milk")
    assert milk["change_attributes"] == ["situation"]
    sugar = ask("with_sugar")
    assert sugar["change_attributes"] == ["contraind."]
    elapsed = check()
    print(f"\n[PASS] C7 coffee: solution (coffee, yes, yes); why-milk -> "
          f"situation; why-sugar -> contraind. ({elapsed:.3f}s)")


def all_small_relations(schema, max_tuples):
    universe = list(itertools.product(*(a.domain for a in schema.attributes)))
    for size in range(1, max_tuples + 1):
        for combo in itertools.combinations(universe, size):
            yield Relation(schema, combo)


def test_c8_dependency_suite(courses_relation):
    check = timed(300.0)
    # Courses relation: both captioned dependencies and their lossless joins.
    for y in (("teacher",), ("time",)):
        assert mvd_holds(courses_relation, ("course",), y)
        assert lossless_join_check(courses_relation, ("course",), y)
    # Removing any single Maths row breaks at least one of the two.
    removed = 0
    for row in courses_relation.tuples:
        if row[0] != "Maths":
            continue
        removed += 1
        rel = Relation(courses_relation.schema,
                       tuple(t for t in courses_relation.tuples if t != row))
        assert not (mvd_holds(rel, ("course",), ("teacher",))
                    and mvd_holds(rel, ("course",), ("time",)))
    assert removed == 6

    # Exhaustive equivalence and the weak-MVD/proportion match over every
    # non-empty relation of at most 5 tuples on 3 binary attributes.
    schema = Schema.from_pairs([("a", BITS), ("b", BITS), ("c", BITS)])
    names = ("a", "b", "c")
    subsets = [()]
    for size in (1, 2, 3):
        subsets.extend(itertools.combinations(names, size))
    relations = 0
    for rel in all_small_relations(schema, 5):
        relations += 1
        members = rel.as_set()
        for x in subsets:
            for y in subsets:
                assert mvd_holds(rel, x, y) == lossless_join_check(rel, x, y)
                # weak MVD <=> the proportion solution of every layout
                # triple is a member.
                xi = schema.indices(x)
                yi = schema.indices(y)
                xy = tuple(sorted(set(xi) | set(yi)))
                rest = tuple(i for i in range(3) if i in xi or i not in set(yi))
                via_solutions = True
                for t1 in rel.tuples:
                    for t2 in rel.tuples:
                        if tuple(t1[i] for i in xy) != tuple(t2[i] for i in xy):
                            continue
                        for t3 in rel.tuples:
                            if tuple(t1[i] for i in rest) != \
                                    tuple(t3[i] for i in rest):
                                continue
                            solution = solve_vec(t1, t2, t3)
                            if solution is None or solution not in members:
                                via_solutions = False
                assert weak_mvd_holds(rel, x, y) == via_solutions
    assert relations == 218  # sum of C(8, k) for k = 1..5

    # Implication chain and complementation over 200 seeded random
    # relations on 4 binary attributes, plus the full inference report.
    from anaprop.data import generate_random_relation
    schema4 = Schema.from_pairs([(n, BITS) for n in ("a", "b", "c", "d")])
    names4 = ("a", "b", "c", "d")
    subsets4 = [()]
    for size in range(1, 5):
        subsets4.extend(itertools.combinations(names4, size))
    rng = random.Random(8)
    for _ in range(200):
        rel = generate_random_relation(schema4, rng.randint(1, 12),
                                       rng.randint(0, 10_000))
        for x in subsets4:
            for y in subsets4:
                if fd_holds(rel, x, y):
                    assert mvd_holds(rel, x, y)
                if mvd_holds(rel, x, y):
                    assert weak_mvd_holds(rel, x, y)
                    assert mvd_holds(rel, x, tuple(sorted(set(names4) - set(y))))
        assert mvd_inference_check(rel).violations == ()

    # The strong-exchange quadruple fails as given, holds reordered.
    schema9 = Schema.from_pairs([
        ("X", ("p", "p2")), ("Y", ("q", "s")), ("Z", ("r", "u")),
    ])
    report = mvd_ap_correspondence(
        schema9, ("p", "q", "r"), ("p", "s", "u"),
        ("p", "q", "u"), ("p", "s", "r"), ("X",), ("Y",))
    assert report.ap_original is False
    assert report.ap_reordered is True
    elapsed = check()
    print(f"\n[PASS] C8 dependency suite: 218-relation equivalence corpus, "
          f"200 random inference relations, exchange reordering ({elapsed:.1f}s)")


def run_cli(args):
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "anaprop.cli", *args],
        capture_output=True, text=True, cwd=str(root), env=env,
    )
    return proc.returncode, proc.stdout


def test_c9_determinism(tmp_path):
    check = timed(600.0)
    from anaprop.data import PlantedRule, generate_planted_rules, write_dataset
    ds, _ = generate_planted_rules(
        [PlantedRule(pairs=8), PlantedRule(pairs=8, exceptions=2)]
    )
    small = tmp_path / "small.csv"
    write_dataset(ds, small)
    monk1 = tmp_path / "monk1.csv"

    commands = [
        ["ap", "check", "0", "0", "1", "1", "--format", "json"],
        ["ap", "solve", "g", "g", "h", "--format", "json"],
        ["generate", "--kind", "monk1", "--out", str(monk1),
         "--format", "json"],
        ["explain", "--data", str(DATA / "coffee.csv"),
         "--schema", str(DATA / "coffee.schema.json"),
         "--query", "sit_2,no,coffee,yes,yes", "--why", "with_milk",
         "--format", "json"],
        ["deps", "--data", str(DATA / "courses.csv"), "--format", "json"],
        ["evaluate", "--data", str(small), "--strategy", "selected",
         "--folds", "4", "--seed", "11", "--subsample", "0.5",
         "--format", "json"],
        ["evaluate", "--data", str(small), "--strategy", "bongard",
         "--neighbor-budget", "3", "--folds", "4", "--seed", "11",
         "--format", "json"],
    ]
    for args in commands:
        code1, out1 = run_cli(args)
        code2, out2 = run_cli(args)
        assert code1 == code2, args
        assert out1 == out2, f"rerun differs for {args}"
        json.loads(out1)  # must be valid JSON
    elapsed = check()
    print(f"\n[PASS] C9 determinism: {len(commands)} commands byte-identical "
          f"on rerun ({elapsed:.1f}s)")
