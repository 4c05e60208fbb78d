"""FD/MVD/weak-MVD checks, lossless joins, nesting and the AP match."""

import contextlib
import io
import json
import random
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from anaprop import relational
from anaprop.cli import main
from anaprop.core import Schema, ap_holds_vec, solve_vec
from anaprop.data import DataError, Relation, generate_random_relation, write_relation
from anaprop.relational import (
    DependencyFinding,
    InferenceReport,
    ap_witness,
    exchange_tuples,
    discover_dependencies,
    fd_holds,
    is_trivial_mvd,
    lossless_join_check,
    mvd_ap_correspondence,
    mvd_holds,
    mvd_inference_check,
    mvd_witness,
    nest_rewrite,
    unnest,
    weak_mvd_holds,
    weak_mvd_witness,
)

R3 = ("course", "teacher", "time")


def drop_row(rel: Relation, row) -> Relation:
    return Relation(rel.schema, tuple(t for t in rel.tuples if t != row))


class TestFunctionalDependency:
    def test_whole_schema_is_a_key(self, courses_relation):
        assert fd_holds(courses_relation, R3, R3)
        assert fd_holds(courses_relation, R3, ("teacher",))

    def test_course_does_not_determine_teacher(self, courses_relation):
        assert not fd_holds(courses_relation, ("course",), ("teacher",))

    def test_single_tuple_satisfies_everything(self, courses_relation):
        rel = Relation(courses_relation.schema, courses_relation.tuples[:1])
        for x in (("course",), ("teacher",), ()):
            for y in (("course",), ("time",), R3):
                assert fd_holds(rel, x, y)

    def test_unknown_attribute(self, courses_relation):
        with pytest.raises(Exception):
            fd_holds(courses_relation, ("nope",), ("time",))


class TestMultivaluedDependency:
    def test_captioned_dependencies_hold(self, courses_relation):
        assert mvd_holds(courses_relation, ("course",), ("teacher",))
        assert mvd_holds(courses_relation, ("course",), ("time",))

    def test_missing_exchange_tuple_breaks_it(self, courses_relation):
        rel = drop_row(courses_relation, ("Maths", "Paul", "2pm"))
        assert not mvd_holds(rel, ("course",), ("teacher",))
        witness = mvd_witness(rel, ("course",), ("teacher",))
        assert witness is not None
        assert witness[2] == ("Maths", "Paul", "2pm")

    def test_trivial_cases_hold_anywhere(self, courses_relation):
        rng = random.Random(0)
        schema = Schema.from_pairs([("a", "01"), ("b", "01"), ("c", "01")])
        for seed in range(5):
            rel = generate_random_relation(schema, rng.randint(1, 8), seed)
            assert mvd_holds(rel, ("a", "b"), ("a",))  # Y subset of X
            assert mvd_holds(rel, ("a",), ("b", "c"))  # X union Y covers R


class TestWeakMvd:
    def test_mvd_implies_weak(self, courses_relation):
        assert weak_mvd_holds(courses_relation, ("course",), ("teacher",))

    def test_three_rows_without_the_fourth(self):
        schema = Schema.from_pairs([
            ("X", ("s", "s2")), ("Y", ("t", "u")), ("Z", ("v", "w")),
        ])
        rel = Relation.from_rows(schema, [
            ("s", "t", "v"), ("s", "t", "w"), ("s", "u", "v"),
        ])
        assert not weak_mvd_holds(rel, ("X",), ("Y",))
        witness = weak_mvd_witness(rel, ("X",), ("Y",))
        assert witness[3] == ("s", "u", "w")
        # Adding the solution of the proportion equation repairs it.
        repaired = Relation.from_rows(schema, rel.tuples + (("s", "u", "w"),))
        assert weak_mvd_holds(repaired, ("X",), ("Y",))

    def test_default_y_is_the_first_attribute_outside_x(self, courses_relation):
        default = nest_rewrite(courses_relation, ("course",))
        assert default == nest_rewrite(courses_relation, ("course",), ("teacher",))
        assert (default.y_attrs, default.z_attrs) == (("teacher",), ("time",))
        nested = nest_rewrite(courses_relation, ("teacher",))
        assert (nested.y_attrs, nested.z_attrs) == (("course",), ("time",))

    def test_y_meeting_x_is_rejected(self, courses_relation):
        with pytest.raises(DataError, match="disjoint"):
            nest_rewrite(courses_relation, ("course",), ("course", "time"))

    def test_single_tuple(self, courses_relation):
        rel = Relation(courses_relation.schema, courses_relation.tuples[:1])
        assert weak_mvd_holds(rel, ("course",), ("teacher",))


class TestTriviality:
    def test_quoted_conditions(self, courses_relation):
        schema = courses_relation.schema
        assert is_trivial_mvd(schema, ("course", "teacher"), ("teacher",))
        assert is_trivial_mvd(schema, ("course",), ("teacher", "time"))
        assert not is_trivial_mvd(schema, ("course",), ("teacher",))


class TestLosslessJoin:
    def test_courses_decomposition(self, courses_relation):
        assert lossless_join_check(courses_relation, ("course",), ("teacher",))

    def test_regenerated_tuple_detected(self, courses_relation):
        rel = drop_row(courses_relation, ("Maths", "Mary", "2pm"))
        assert not lossless_join_check(rel, ("course",), ("teacher",))

    def test_x_equal_to_schema(self, courses_relation):
        assert lossless_join_check(courses_relation, R3, ("teacher",))

    def test_equivalence_with_mvd_spot_checks(self):
        schema = Schema.from_pairs([("a", "01"), ("b", "01"), ("c", "01")])
        subsets = [()]
        for size in (1, 2, 3):
            subsets.extend(combinations(("a", "b", "c"), size))
        for seed in range(25):
            rel = generate_random_relation(schema, (seed % 7) + 1, seed)
            for x in subsets:
                for y in subsets:
                    assert mvd_holds(rel, x, y) == lossless_join_check(rel, x, y)


class TestInferenceProperties:
    def test_courses_relation_has_no_violations(self, courses_relation):
        report = mvd_inference_check(courses_relation)
        assert report.violations == ()
        assert all(count > 0 for count in report.checked.values())

    def test_empty_relation(self, courses_relation):
        rel = Relation(courses_relation.schema, ())
        assert mvd_inference_check(rel).violations == ()

    def test_seeded_random_relations(self):
        schema = Schema.from_pairs(
            [("a", "01"), ("b", "01"), ("c", "01"), ("d", "01")]
        )
        for seed in range(40):
            rel = generate_random_relation(schema, (seed % 12) + 1, seed)
            assert mvd_inference_check(rel).violations == ()

    def test_oversized_schema_rejected(self):
        schema = Schema.from_pairs([(f"a{i}", "01") for i in range(7)])
        rel = generate_random_relation(schema, 4, 1)
        with pytest.raises(DataError):
            mvd_inference_check(rel)


class TestNesting:
    def test_courses_compact_form(self, courses_relation):
        nested = nest_rewrite(courses_relation, ("course",), ("teacher",))
        assert nested.exact
        rows = {r.x_values: r for r in nested.rows}
        maths = rows[("Maths",)]
        assert {v[0] for v in maths.y_values} == {"Peter", "Mary", "Paul"}
        assert {v[0] for v in maths.z_values} == {"8am", "2pm"}
        cs = rows[("Comp.Sci.",)]
        assert {v[0] for v in cs.y_values} == {"Peter", "Mary"}
        assert {v[0] for v in cs.z_values} == {"8am"}
        assert unnest(nested).as_set() == courses_relation.as_set()

    def test_single_tuple(self, courses_relation):
        rel = Relation(courses_relation.schema, courses_relation.tuples[:1])
        nested = nest_rewrite(rel, ("course",), ("teacher",))
        assert len(nested.rows) == 1 and nested.rows[0].is_product

    def test_violating_relation_is_flagged(self, courses_relation):
        rel = drop_row(courses_relation, ("Maths", "Paul", "2pm"))
        nested = nest_rewrite(rel, ("course",), ("teacher",))
        flags = {r.x_values: r.is_product for r in nested.rows}
        assert flags[("Maths",)] is False
        assert flags[("Comp.Sci.",)] is True
        assert not nested.exact
        # Un-nesting a lossy compaction regenerates the removed tuple.
        assert ("Maths", "Paul", "2pm") in unnest(nested).as_set()


class TestApCorrespondence:
    def schema3(self):
        return Schema.from_pairs([
            ("X", ("p", "p2")), ("Y", ("q", "s")), ("Z", ("r", "u")),
        ])

    def test_strong_exchange_is_a_paralogy_until_reordered(self):
        schema = self.schema3()
        t1, t2 = ("p", "q", "r"), ("p", "s", "u")
        t3, t4 = ("p", "q", "u"), ("p", "s", "r")
        report = mvd_ap_correspondence(schema, t1, t2, t3, t4, ("X",), ("Y",))
        assert report.ap_original is False
        assert report.ap_reordered is True

    def test_identical_tuples(self):
        schema = self.schema3()
        t = ("p", "q", "r")
        report = mvd_ap_correspondence(schema, t, t, t, t, ("X",), ("Y",))
        assert report.ap_original and report.ap_reordered
        assert report.solution_is_t4

    def test_weak_layout_solution(self):
        schema = Schema.from_pairs([
            ("X", ("s", "s2")), ("Y", ("t", "u")), ("Z", ("v", "w")),
        ])
        t1, t2, t3 = ("s", "t", "v"), ("s", "t", "w"), ("s", "u", "v")
        t4 = ("s", "u", "w")
        report = mvd_ap_correspondence(schema, t1, t2, t3, t4, ("X",), ("Y",))
        assert report.layout_ok
        assert report.solution == t4
        assert report.solution_is_t4

    def test_intermediary_tuples_complete_a_reordered_proportion(self):
        rng = random.Random(13)
        schema = Schema.from_pairs(
            [(f"a{i}", ("0", "1", "2")) for i in range(4)]
        )
        names = schema.names
        for _ in range(100):
            t1 = tuple(rng.choice(a.domain) for a in schema.attributes)
            t2 = tuple(rng.choice(a.domain) for a in schema.attributes)
            dis = [i for i in range(4) if t1[i] != t2[i]]
            if len(dis) < 2:
                continue
            cut = rng.randint(1, len(dis) - 1)
            y = tuple(names[i] for i in dis[:cut])
            x = tuple(names[i] for i in range(4) if i not in dis)
            t3, t4 = exchange_tuples(t1, t2, x, y, schema)
            assert t3 not in (t1, t2) and t4 not in (t1, t2)
            assert not ap_holds_vec(t1, t2, t3, t4)
            assert ap_holds_vec(t1, t4, t3, t2)


def mvd_literal_oracle(rel: Relation, x, y) -> bool:
    """Word-for-word reading of the definition: for every pair agreeing on
    X there must exist a member tuple matching t1 on XY and t2 on X(R\\Y),
    found by scanning the relation rather than constructing it."""
    xi = rel.schema.indices(x)
    yi = rel.schema.indices(y)
    xy = tuple(sorted(set(xi) | set(yi)))
    xrest = tuple(i for i in range(rel.schema.arity)
                  if i in xi or i not in set(yi))
    for t1 in rel.tuples:
        for t2 in rel.tuples:
            if tuple(t1[i] for i in xi) != tuple(t2[i] for i in xi):
                continue
            if not any(
                tuple(t3[i] for i in xy) == tuple(t1[i] for i in xy)
                and tuple(t3[i] for i in xrest) == tuple(t2[i] for i in xrest)
                for t3 in rel.tuples
            ):
                return False
    return True


def weak_mvd_literal_oracle(rel: Relation, x, y) -> bool:
    """Literal three-tuple form of the weak dependency, with the fourth
    tuple searched by scanning."""
    xi = rel.schema.indices(x)
    yi = rel.schema.indices(y)
    xy = tuple(sorted(set(xi) | set(yi)))
    xrest = tuple(i for i in range(rel.schema.arity)
                  if i in xi or i not in set(yi))
    for t1 in rel.tuples:
        for t2 in rel.tuples:
            if tuple(t1[i] for i in xy) != tuple(t2[i] for i in xy):
                continue
            for t3 in rel.tuples:
                if tuple(t1[i] for i in xrest) != tuple(t3[i] for i in xrest):
                    continue
                if not any(
                    tuple(t4[i] for i in xy) == tuple(t3[i] for i in xy)
                    and tuple(t4[i] for i in xrest) == tuple(t2[i] for i in xrest)
                    for t4 in rel.tuples
                ):
                    return False
    return True


class TestLiteralDefinitionOracles:
    def test_grouped_checks_match_literal_scans(self):
        schema = Schema.from_pairs([("a", "01"), ("b", "012"), ("c", "01")])
        subsets = [()]
        for size in (1, 2, 3):
            subsets.extend(combinations(("a", "b", "c"), size))
        for seed in range(20):
            rel = generate_random_relation(schema, (seed % 9) + 1, seed)
            for x in subsets:
                for y in subsets:
                    assert mvd_holds(rel, x, y) == mvd_literal_oracle(rel, x, y)
                    assert weak_mvd_holds(rel, x, y) == \
                        weak_mvd_literal_oracle(rel, x, y)


def weak_mvd_via_solutions(rel: Relation, x, y) -> bool:
    """Oracle: every layout triple's proportion solution must be a member."""
    xi = rel.schema.indices(x)
    yi = rel.schema.indices(y)
    xy = tuple(sorted(set(xi) | set(yi)))
    rest = tuple(i for i in range(rel.schema.arity)
                 if i in xi or i not in set(yi))
    members = rel.as_set()
    for t1 in rel.tuples:
        for t2 in rel.tuples:
            if tuple(t1[i] for i in xy) != tuple(t2[i] for i in xy):
                continue
            for t3 in rel.tuples:
                if tuple(t1[i] for i in rest) != tuple(t3[i] for i in rest):
                    continue
                solution = solve_vec(t1, t2, t3)
                if solution is None or solution not in members:
                    return False
    return True


class TestWeakMvdApMatch:
    def test_on_random_relations(self):
        schema = Schema.from_pairs([("a", "01"), ("b", "01"), ("c", "01")])
        subsets = [()]
        for size in (1, 2, 3):
            subsets.extend(combinations(("a", "b", "c"), size))
        for seed in range(30):
            rel = generate_random_relation(schema, (seed % 8) + 1, seed)
            for x in subsets:
                for y in subsets:
                    assert weak_mvd_holds(rel, x, y) == \
                        weak_mvd_via_solutions(rel, x, y)


class TestDiscovery:
    def test_courses_report_lists_captioned_mvds(self, courses_relation):
        findings = discover_dependencies(courses_relation)
        nontrivial = {(f.x, f.y) for f in findings if f.mvd and not f.trivial}
        assert (("course",), ("teacher",)) in nontrivial
        assert (("course",), ("time",)) in nontrivial
        for f in findings:
            if f.mvd:
                assert f.lossless_join
            if f.fd:
                assert f.mvd and f.weak_mvd

    def test_ap_witness_reordering(self, courses_relation):
        findings = discover_dependencies(courses_relation)
        seen = 0
        for f in findings:
            if f.ap_witness is None:
                continue
            t1, t2, t3, t4 = f.ap_witness
            assert ap_holds_vec(t1, t4, t3, t2)
            seen += 1
        assert seen > 0

    def test_each_subset_is_keyed_once(self, monkeypatch):
        # One set of keys gives every verdict and every witness.
        schema = Schema.from_pairs((f"a{i}", ("0", "1", "2")) for i in range(6))
        rel = generate_random_relation(schema, 40, seed=3)
        missing = relational._Keys.__missing__
        keyed = []

        def counted(keys, mask):
            keyed.append(mask)
            return missing(keys, mask)

        monkeypatch.setattr(relational._Keys, "__missing__", counted)
        discover_dependencies(rel)
        # The empty subset's key, 0 for every tuple, comes with the keys.
        assert sorted(keyed) == list(range(1, 1 << 6))


@st.composite
def relations(draw, min_attrs=1, max_attrs=5, max_rows=12):
    """Relations on 1-5 attributes with domains of size 2-3, in drawn row
    order: either arbitrary rows, or a planted X ->> Y where each X-value
    carries the product of a drawn set of Y-values and of Z-values."""
    arity = draw(st.integers(min_attrs, max_attrs))
    domains = [("0", "1", "2")[:draw(st.integers(2, 3))] for _ in range(arity)]
    schema = Schema.from_pairs([(f"a{i}", d) for i, d in enumerate(domains)])

    def values(idx, max_size):
        part = st.tuples(*[st.sampled_from(domains[i]) for i in idx])
        return draw(st.lists(part, min_size=1, max_size=max_size, unique=True))

    if arity >= 3 and draw(st.booleans()):
        roles = draw(st.permutations(range(arity)))
        y_size = draw(st.integers(1, arity - 2))
        z_size = draw(st.integers(1, arity - 1 - y_size))
        yi, zi = roles[:y_size], roles[y_size:y_size + z_size]
        xi = roles[y_size + z_size:]
        rows = []
        for x_val in values(xi, 2):
            for y_val in values(yi, 3):
                for z_val in values(zi, 3):
                    t = [""] * arity
                    for part, idx in ((x_val, xi), (y_val, yi), (z_val, zi)):
                        for v, i in zip(part, idx):
                            t[i] = v
                    rows.append(tuple(t))
        rows = draw(st.permutations(rows))[:max_rows]
    else:
        rows = draw(st.lists(st.tuples(*[st.sampled_from(d) for d in domains]),
                             max_size=max_rows))
    return Relation.from_rows(schema, rows)


def all_subsets(names):
    return [c for size in range(len(names) + 1)
            for c in combinations(names, size)]


def finding_oracle(rel: Relation, x, y) -> DependencyFinding:
    """The finding for one (X, Y), named as given, from the exchange and
    scan forms of every check."""
    fd = fd_holds(rel, x, y)
    mvd = mvd_witness(rel, x, y) is None
    weak = weak_mvd_witness(rel, x, y) is None
    return DependencyFinding(
        x=x,
        y=y,
        fd=fd,
        mvd=mvd,
        weak_mvd=weak,
        trivial=is_trivial_mvd(rel.schema, x, y),
        lossless_join=lossless_join_check(rel, x, y) if mvd else False,
        ap_witness=ap_witness(rel, x, y) if mvd else None,
    )


def discover_dependencies_oracle(rel: Relation) -> list[DependencyFinding]:
    """Discovery one (X, Y) pair at a time with the exchange and scan
    forms of every check."""
    findings = []
    subsets = all_subsets(rel.schema.names)
    for x in subsets:
        for y in subsets:
            if not y:
                continue
            found = finding_oracle(rel, x, y)
            if found.fd or found.mvd or found.weak_mvd:
                findings.append(found)
    return findings


# a0 ->> a1 holds and is not trivial: a0 = 0 carries {0, 1} x {0, 1, 2}.
PLANTED = Relation.from_rows(
    Schema.from_pairs([(f"a{i}", "012") for i in range(3)]),
    [("0", y, z) for z in "210" for y in "01"] + [("1", "2", "0")],
)


# On six attributes, a0 ->> a1 a2 holds and is not trivial: a0 = 0 carries
# {01, 12} x {00, 11} on a1 a2 and a3 a4.  Its verdict table holds FDs,
# MVDs that are not FDs, weak MVDs that are not MVDs and failures.
PLANTED_6 = Relation.from_rows(
    Schema.from_pairs([(f"a{i}", "012") for i in range(6)]),
    [("0", *y, *z, "0") for y in ("01", "12") for z in ("00", "11")]
    + [("1", "0", "0", "2", "1", "0"), ("1", "0", "0", "2", "2", "0"),
       ("1", "0", "0", "1", "1", "0")],
)


class TestCountingAgainstOracles:
    def test_planted_example_has_a_witness(self):
        findings = discover_dependencies(PLANTED)
        assert any(f.ap_witness is not None for f in findings)

    @settings(max_examples=100)
    @given(relations())
    @example(PLANTED)
    def test_discovery_matches_per_pair_oracle(self, rel):
        assert discover_dependencies(rel) == discover_dependencies_oracle(rel)

    @given(relations())
    def test_ap_witness_is_none_for_trivial_dependencies(self, rel):
        subsets = all_subsets(rel.schema.names)
        for x in subsets:
            for y in subsets:
                if is_trivial_mvd(rel.schema, x, y):
                    assert ap_witness(rel, x, y) is None

    @settings(max_examples=40, deadline=None)
    @given(relations(min_attrs=6, max_attrs=6, max_rows=16))
    @example(PLANTED_6)
    def test_verdict_table_matches_scans_on_six_attributes(self, rel):
        table = relational._table(rel, relational._Keys(rel))
        names = rel.schema.names
        for (x, y), verdict in table.items():
            xs = tuple(n for i, n in enumerate(names) if x >> i & 1)
            ys = tuple(n for i, n in enumerate(names) if y >> i & 1)
            assert verdict == (fd_holds(rel, xs, ys),
                               mvd_witness(rel, xs, ys) is None,
                               weak_mvd_witness(rel, xs, ys) is None), (xs, ys)

    @settings(max_examples=40)
    @given(relations(min_attrs=4, max_attrs=4, max_rows=8))
    def test_counting_checks_match_literal_scans_on_four_attributes(self, rel):
        subsets = all_subsets(rel.schema.names)
        for x in subsets:
            for y in subsets:
                assert mvd_holds(rel, x, y) == mvd_literal_oracle(rel, x, y)
                assert weak_mvd_holds(rel, x, y) == \
                    weak_mvd_literal_oracle(rel, x, y)


def mvd_inference_check_oracle(rel: Relation) -> InferenceReport:
    """The inference check one implication instance at a time, with FDs
    from ``fd_holds`` and MVDs from the exchange scan of ``mvd_witness``,
    each memoised under its sorted attribute names."""
    names = rel.schema.names
    subsets = all_subsets(names)
    fd_memo: dict[tuple, bool] = {}
    mvd_memo: dict[tuple, bool] = {}

    def fd(x, y):
        key = (x, y)
        if key not in fd_memo:
            fd_memo[key] = fd_holds(rel, x, y)
        return fd_memo[key]

    def mvd(x, y):
        key = (tuple(sorted(set(x))), tuple(sorted(set(y))))
        if key not in mvd_memo:
            mvd_memo[key] = mvd_witness(rel, key[0], key[1]) is None
        return mvd_memo[key]

    checked = {"fd_implies_mvd": 0, "complementation": 0,
               "augmentation": 0, "transitivity": 0}
    violations: list[tuple[str, str]] = []

    all_names = set(names)
    for x in subsets:
        for y in subsets:
            checked["fd_implies_mvd"] += 1
            if fd(x, y) and not mvd(x, y):
                violations.append(("fd_implies_mvd", f"X={x} Y={y}"))
            checked["complementation"] += 1
            complement = tuple(sorted(all_names - set(y)))
            if mvd(x, y) and not mvd(x, complement):
                violations.append(("complementation", f"X={x} Y={y}"))

    for x in subsets:
        for y in subsets:
            if not mvd(x, y):
                continue
            for u in subsets:
                for z_size in range(len(u) + 1):
                    for z in combinations(u, z_size):
                        checked["augmentation"] += 1
                        if not mvd(tuple(set(x) | set(u)), tuple(set(y) | set(z))):
                            violations.append(
                                ("augmentation", f"X={x} Y={y} U={u} Z={z}")
                            )

    for x in subsets:
        for y in subsets:
            if not mvd(x, y):
                continue
            for z in subsets:
                checked["transitivity"] += 1
                if mvd(y, z) and not mvd(x, tuple(set(z) - set(y))):
                    violations.append(("transitivity", f"X={x} Y={y} Z={z}"))

    return InferenceReport(checked, tuple(violations))


class TestInferenceFromTheTable:
    @settings(max_examples=50)
    @given(relations(max_attrs=4))
    @example(PLANTED)
    def test_matches_per_instance_oracle(self, rel):
        report = mvd_inference_check(rel)
        expected = mvd_inference_check_oracle(rel)
        assert report.checked == expected.checked
        assert report.violations == expected.violations

    @staticmethod
    def patch_course_teacher(monkeypatch, **fields):
        """Override fields of the verdict for X = {course}, Y' = {teacher}
        (bitmasks 0b001 and 0b010 on the courses schema)."""
        decide = relational._decide

        def patched(rel, groups, x, y):
            verdict = decide(rel, groups, x, y)
            if (x, y & ~x) == (0b001, 0b010):
                return verdict._replace(**fields)
            return verdict

        monkeypatch.setattr(relational, "_decide", patched)

    def test_a_false_fd_verdict_is_reported(self, courses_relation, monkeypatch):
        self.patch_course_teacher(monkeypatch, fd=True, mvd=False)
        report = mvd_inference_check(courses_relation)
        assert [v for v in report.violations if v[0] == "fd_implies_mvd"] == [
            ("fd_implies_mvd", "X=('course',) Y=('teacher',)"),
            ("fd_implies_mvd", "X=('course',) Y=('course', 'teacher')"),
        ]

    def test_a_false_mvd_verdict_breaks_complementation(self, courses_relation,
                                                         monkeypatch):
        assert mvd_inference_check(courses_relation).violations == ()
        self.patch_course_teacher(monkeypatch, mvd=False)
        report = mvd_inference_check(courses_relation)
        # course ->> time holds, its complement course ->> teacher now not.
        assert ("complementation", "X=('course',) Y=('time',)") in report.violations


def run_deps(path: Path, *args: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["deps", "--data", str(path), "--format", "json", *args]) == 0
    return json.loads(out.getvalue())


FINDING_KEYS = ("fd", "mvd", "weak_mvd", "trivial", "lossless_join", "ap_witness")


def write_with_schema(rel: Relation, tmp: Path) -> tuple[Path, Path]:
    """The relation as a CSV file in ``tmp``, beside a sidecar schema that
    states its domains."""
    path = tmp / "r.csv"
    write_relation(rel, path)
    sidecar = tmp / "r.schema.json"
    sidecar.write_text(json.dumps({"attributes": [
        {"name": a.name, "domain": list(a.domain)} for a in rel.schema.attributes]}))
    return path, sidecar


class TestSingleModeAgreesWithDiscovery:
    @settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])
    @given(relations(max_attrs=4))
    @example(PLANTED)
    def test_single_mode_reads_the_exhaustive_finding(self, rel):
        assume(rel.tuples)  # a CSV file needs at least one data row
        none_holds = dict.fromkeys(FINDING_KEYS, False) | {"ap_witness": None}
        with tempfile.TemporaryDirectory() as tmp:
            path, sidecar = write_with_schema(rel, Path(tmp))
            exhaustive = {(tuple(f["x"]), tuple(f["y"])): f
                          for f in run_deps(path, "--schema", str(sidecar))["findings"]}
            subsets = all_subsets(rel.schema.names)[1:]
            for x in subsets:
                for y in subsets:
                    single = run_deps(path, "--schema", str(sidecar), "--mode", "single",
                                      "--x", ",".join(x), "--y", ",".join(y))
                    expected = exhaustive.get((x, y), none_holds)
                    assert {k: single["finding"][k] for k in FINDING_KEYS} == \
                        {k: expected[k] for k in FINDING_KEYS}


def wide_relation() -> Relation:
    """24 attributes, too many for a key per subset.  a0 ->> a1..a11 holds
    and is not trivial: a0 = 0 carries 2 x 3 values of a1..a11 and
    a12..a23, and a0 = 1 one value of a1..a11.  a0 ->>_w a12 fails: the
    a0 = 1 tuples take (p, q), (p, q') and (p', q) on a12 and a13..a23,
    but not (p', q')."""
    rng = random.Random(24)
    schema = Schema.from_pairs((f"a{i}", "012") for i in range(24))

    def part(size):
        return tuple(rng.choice("012") for _ in range(size))

    ys, zs = [part(11) for _ in range(2)], [part(12) for _ in range(3)]
    rows = [("0", *y, *z) for y in ys for z in zs]
    y, q, q2 = part(11), part(11), part(11)
    rows += [("1", *y, "0", *q), ("1", *y, "0", *q2), ("1", *y, "1", *q)]
    return Relation.from_rows(schema, rows)


class TestSingleChecksOnWideSchemas:
    def test_single_checks_match_scans(self):
        rel = wide_relation()
        names = rel.schema.names
        rng = random.Random(5)
        pairs = [(("a0",), names[1:12]), (("a0",), ("a12",))] + [
            (tuple(sorted(rng.sample(names, rng.randint(1, 4)), key=names.index)),
             tuple(sorted(rng.sample(names, rng.randint(1, 6)), key=names.index)))
            for _ in range(30)]
        with tempfile.TemporaryDirectory() as tmp:
            path, sidecar = write_with_schema(rel, Path(tmp))
            seen = set()
            for x, y in pairs:
                expected = finding_oracle(rel, x, y)
                assert relational.decide_dependency(rel, x, y) == expected
                assert mvd_holds(rel, x, y) == expected.mvd
                assert weak_mvd_holds(rel, x, y) == expected.weak_mvd
                single = run_deps(path, "--schema", str(sidecar), "--mode", "single",
                                  "--x", ",".join(x), "--y", ",".join(y))["finding"]
                assert {k: single[k] for k in FINDING_KEYS} == json.loads(json.dumps(
                    {k: getattr(expected, k) for k in FINDING_KEYS}))
                seen.add((expected.mvd, expected.weak_mvd, expected.ap_witness is None))
        # A non-trivial MVD with a witness, and a failed weak MVD, are among them.
        assert {(True, True, False), (False, False, True)} <= seen
