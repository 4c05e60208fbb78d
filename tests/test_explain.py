"""Adverse examples and contrastive explanations."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anaprop import explain
from anaprop.core import Schema
from anaprop.data import DataError, Relation
from anaprop.explain import (
    contrastive_explain,
    find_adverse_examples,
)

COFFEE_D = ("sit_2", "no", "coffee", "yes", "yes")


class TestAdverseExamples:
    def test_coffee_why_no_milk(self, coffee_table):
        found = find_adverse_examples(coffee_table, COFFEE_D, "with_milk", "no")
        assert [ae.row_index for ae in found] == [1, 0]
        best = found[0]  # row b: differs on the situation context only
        assert best.row == ("sit_1", "no", "coffee", "yes", "no")
        assert [coffee_table.schema.names[j] for j, _, _ in best.change] \
            == ["situation"]

    def test_vacuous_question_rejected(self, coffee_table):
        with pytest.raises(DataError):
            find_adverse_examples(coffee_table, COFFEE_D, "with_milk", "yes")

    def test_planted_rows_match_linear_scan(self):
        schema = Schema.from_pairs([
            ("a", ("0", "1")), ("b", ("0", "1")), ("res", ("p", "q")),
        ])
        rows = [
            ("0", "0", "p"),
            ("0", "1", "q"),
            ("1", "0", "p"),
            ("1", "1", "q"),
            ("0", "1", "p"),
            ("1", "1", "p"),
        ]
        rel = Relation.from_rows(schema, rows)
        query = ("1", "1", "q")
        found = find_adverse_examples(rel, query, "res", "p")
        ridx = 2
        expected = [i for i, row in enumerate(rel.tuples) if row[ridx] == "p"]
        assert sorted(ae.row_index for ae in found) == sorted(expected)
        for ae in found:
            # Each result literally satisfies the defining formula: result
            # is the target and the row matches the query off its change set.
            assert ae.row[ridx] == "p"
            for j in range(rel.schema.arity):
                if j != ridx and j not in {k for k, _, _ in ae.change}:
                    assert ae.row[j] == query[j]


def strength_table():
    """Three supporting (v->w tilts p->q) pairs and one exception."""
    schema = Schema.from_pairs([
        ("ctx", ("a", "b", "c", "d", "e")),
        ("sw", ("v", "w")),
        ("res", ("p", "q")),
    ])
    rows = [
        ("a", "v", "p"), ("a", "w", "q"),
        ("b", "v", "p"), ("b", "w", "q"),
        ("c", "v", "p"), ("c", "w", "q"),
        ("d", "v", "p"), ("d", "w", "p"),
        ("e", "v", "p"),
    ]
    return Relation.from_rows(schema, rows)


def pair_scan_oracle(rel, change, ridx, target, actual):
    """Independent exhaustive scan for supporting/exception pair counts."""
    changed = {j: (fr, to) for j, fr, to in change}
    supporting = exceptions = 0
    for r1 in rel.tuples:
        for r2 in rel.tuples:
            if any(r1[j] != r2[j] for j in range(rel.schema.arity)
                   if j != ridx and j not in changed):
                continue
            if any((r1[j], r2[j]) != changed[j] for j in changed):
                continue
            if (r1[ridx], r2[ridx]) == (target, actual):
                supporting += 1
            elif r1[ridx] == r2[ridx]:
                exceptions += 1
    return supporting, exceptions


class TestContrastiveExplain:
    def test_coffee_why_milk(self, coffee_table):
        exp = contrastive_explain(coffee_table, COFFEE_D, "with_milk")
        assert exp.supported and exp.question == "why"  # no target asks why
        assert exp.target == "no" and exp.actual == "yes"
        names = coffee_table.schema.names
        assert [names[j] for j, _, _ in exp.adverse.change] == ["situation"]
        assert "situation is sit_2 and not sit_1" in exp.sentence
        assert exp.supporting_pairs == 2 and exp.exception_pairs == 0
        assert exp.strength == 1.0

    def test_coffee_why_sugar(self, coffee_table):
        exp = contrastive_explain(coffee_table, COFFEE_D, "with_sugar")
        names = coffee_table.schema.names
        assert [names[j] for j, _, _ in exp.adverse.change] == ["contraind."]
        assert "contraind. is no and not yes" in exp.sentence

    def test_coffee_why_not_milk_for_b(self, coffee_table):
        # Row b has no milk; the contrast names the situation switch.
        row_b = ("sit_1", "no", "coffee", "yes", "no")
        exp = contrastive_explain(coffee_table, row_b, "with_milk", target="yes")
        assert exp.question == "why-not"  # a target asks why not
        names = coffee_table.schema.names
        assert [names[j] for j, _, _ in exp.adverse.change] == ["situation"]

    def test_single_row_table_is_unsupported(self):
        # One row still yields the adverse example the existence formula
        # promises, but no pair can back it, so the explanation carries no
        # analogical support.
        schema = Schema.from_pairs([("x", "01"), ("res", ("p", "q"))])
        rel = Relation.from_rows(schema, [("0", "p")])
        exp = contrastive_explain(rel, ("1", "q"), "res")
        assert not exp.supported
        assert exp.supporting_pairs == 0 and exp.strength == 0.0

    def test_no_adverse_example_at_all(self):
        schema = Schema.from_pairs([("x", "01"), ("res", ("p", "q"))])
        rel = Relation.from_rows(schema, [("0", "q"), ("1", "q")])
        exp = contrastive_explain(rel, ("1", "q"), "res")
        assert not exp.supported
        assert exp.adverse is None
        assert "no adverse example" in exp.sentence

    def test_adverse_rows_that_agree_everywhere_else_are_named_as_such(self):
        # Row 1 has the contrasted value but no change against the query,
        # so it is skipped; the sentence must not deny that it exists.
        schema = Schema.from_pairs([("a", "01"), ("r", ("p", "q"))])
        rel = Relation.from_rows(schema, [("0", "p"), ("0", "q"), ("1", "p")])
        exp = contrastive_explain(rel, rel.tuples[0], "r")
        assert (exp.supported, exp.adverse, exp.alternatives) == (False, None, ())
        assert (exp.target, exp.supporting_pairs, exp.strength) == ("q", 0, 0.0)
        assert exp.sentence == ("unsupported: every row with r=q agrees with the "
                                "query on every other attribute")

    def test_planted_strength(self):
        rel = strength_table()
        query = ("e", "w", "q")
        exp = contrastive_explain(rel, query, "res")
        assert exp.supported
        assert exp.adverse.row == ("e", "v", "p")
        assert (exp.supporting_pairs, exp.exception_pairs) == (3, 1)
        assert exp.strength == 0.75
        oracle = pair_scan_oracle(rel, exp.adverse.change, 2, "p", "q")
        assert oracle == (3, 1)


def nested_pair_scan(rel, change, ridx, target, actual):
    """The literal O(n²·m) pair count: every ordered (r1, r2), r1-major in
    row order, with the first supporting pair kept."""
    changed = {j: (fr, to) for j, fr, to in change}
    supporting = 0
    exceptions = 0
    first_support = None
    n = rel.schema.arity
    for r1 in rel.tuples:
        for r2 in rel.tuples:
            ok = True
            for j in range(n):
                if j == ridx:
                    continue
                entry = changed.get(j)
                if entry is None:
                    if r1[j] != r2[j]:
                        ok = False
                        break
                elif (r1[j], r2[j]) != entry:
                    ok = False
                    break
            if not ok:
                continue
            if (r1[ridx], r2[ridx]) == (target, actual):
                supporting += 1
                if first_support is None:
                    first_support = (r1, r2)
            elif r1[ridx] == r2[ridx]:
                exceptions += 1
    return supporting, exceptions, first_support


@st.composite
def explain_questions(draw):
    """A small relation with its result column anywhere, some rows sharing
    a description but not a result, and a why or why-not question about a
    query row inside or outside the table."""
    arity = draw(st.integers(2, 4))
    schema = Schema.from_pairs(
        (f"a{j}", "xyz"[:draw(st.integers(2, 3))]) for j in range(arity)
    )
    ridx = draw(st.integers(0, arity - 1))
    row = st.tuples(*(st.sampled_from(a.domain) for a in schema.attributes))
    rows = draw(st.lists(row, min_size=1, max_size=14))
    results = schema.attributes[ridx].domain
    for i, value in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                            st.sampled_from(results)),
                                  max_size=4)):
        rows.append(rows[i][:ridx] + (value,) + rows[i][ridx + 1:])
    rel = Relation.from_rows(schema, rows)
    if draw(st.booleans()):
        query = rel.tuples[draw(st.integers(0, len(rel) - 1))]
    else:
        query = draw(row)
    target = None
    if draw(st.booleans()):  # a why-not question
        target = draw(st.sampled_from([v for v in results if v != query[ridx]]))
    return rel, query, schema.names[ridx], target


def scan_pair_counts(rel, _by_description, _masks, change, ridx, target, actual):
    return nested_pair_scan(rel, change, ridx, target, actual)


def ranked_rows(rel, query, result_attr, target):
    """The row of every candidate adverse example, best first: by strength
    from the literal pair scan, then change size, then row order."""
    ridx = rel.schema.index(result_attr)
    actual = query[ridx]
    ranked = []
    for i, row in enumerate(rel.tuples):
        if row[ridx] == actual or target not in (None, row[ridx]):
            continue
        change = tuple((j, row[j], query[j]) for j in range(len(row))
                       if j != ridx and row[j] != query[j])
        if change:
            supporting, exceptions, _ = nested_pair_scan(rel, change, ridx, row[ridx],
                                                         actual)
            total = supporting + exceptions
            ranked.append((-(supporting / total if total else 0.0), len(change), i))
    return [i for *_, i in sorted(ranked)]


class TestPairCountsByLookup:
    @settings(max_examples=300)
    @given(explain_questions())
    def test_explanation_matches_nested_scan(self, case):
        rel, query, result_attr, target = case
        fast = contrastive_explain(rel, query, result_attr, target)
        with mock.patch.object(explain, "_pair_counts", scan_pair_counts):
            literal = contrastive_explain(rel, query, result_attr, target)
        assert fast == literal
        candidates = (fast.adverse,) * (fast.adverse is not None) + fast.alternatives
        assert [ae.row_index for ae in candidates] == \
            ranked_rows(rel, query, result_attr, target)


class TestContextSplit:
    def test_split_roles(self, coffee_table):
        exp = contrastive_explain(coffee_table, COFFEE_D, "with_milk")
        split = exp.split
        names = coffee_table.schema.names
        assert [names[j] for j in split.change] == ["situation"]
        assert split.change_from == ("sit_1",) and split.change_to == ("sit_2",)
        assert (split.result_from, split.result_to) == ("no", "yes")

