"""Library entry points reject malformed arguments themselves, though the
command line checks most of these first: each case is a raise statement
that no command reaches."""

import pytest

from anaprop.classify import (BruteForceModel, CvConfig, KnnModel, SelectedTripletModel,
                              bongard_separation, cross_validate_grid,
                              extract_competent_pairs, make_folds)
from anaprop.core import Schema
from anaprop.data import DataError, Relation, generate_affine
from anaprop.explain import ContextSplit, relevant_attributes, rule_candidate

XOR = generate_affine(2, (0, 1, 1))
BOOLEAN = Schema.from_pairs([("a", "01"), ("res", "pq")])
NO_CHANGE = ContextSplit(shared=(), context=(), change=(), shared_values=(),
                         pair_context=(), query_context=(), change_from=(), change_to=(),
                         result_attribute="res", result_from="p", result_to="q")

CASES = [
    pytest.param(lambda: bongard_separation([(("0",), ("1",))], [(("1",), ("0",))],
                                            (), 0),
                 DataError, "max_literals must be at least 1", id="bongard-no-literals"),
    pytest.param(lambda: bongard_separation([(("0", "1"), ("1", "1"))],
                                            [(("0", "0"), ("1", "1"))], (1,), 1),
                 DataError, "disagree on context attribute 1",
                 id="bongard-pair-off-its-context"),
    pytest.param(lambda: make_folds(XOR, 1, 0), DataError, "folds must be at least 2",
                 id="one-fold"),
    pytest.param(lambda: cross_validate_grid(XOR, CvConfig(strategy="knn", folds=2), []),
                 DataError, "grid must not be empty", id="empty-grid"),
    pytest.param(lambda: cross_validate_grid(XOR, CvConfig(folds=2), [1]),
                 DataError, "applies to the bongard and knn", id="grid-of-the-baseline"),
    pytest.param(lambda: SelectedTripletModel(XOR, extract_competent_pairs(XOR, 1, 0.0),
                                              2).leave_out([1]),
                 ValueError, "counts every pair of its live rows",
                 id="downdate-of-a-selected-table"),
    pytest.param(lambda: SelectedTripletModel(XOR, extract_competent_pairs(XOR, 1, 0.0),
                                              2).count_pairs(),
                 ValueError, "only an uncounted table with every row live",
                 id="count-pairs-into-a-selected-table"),
    pytest.param(lambda: KnnModel(XOR).leave_out([1]), ValueError,
                 "counts every pair of its live rows", id="downdate-of-a-knn-table"),
    pytest.param(lambda: BruteForceModel(XOR).leave_out([-1]), ValueError,
                 r"rows \[-1\] are not all rows 0..3", id="downdate-of-a-negative-row"),
    pytest.param(lambda: BruteForceModel(XOR).leave_out([0, 4]), ValueError,
                 r"rows \[0, 4\] are not all rows 0..3", id="downdate-past-the-last-row"),
    pytest.param(lambda: Relation(BOOLEAN, (("0", "p"), ("0", "p"))), DataError,
                 "tuples must be unique", id="relation-duplicate-tuples"),
    pytest.param(lambda: rule_candidate(NO_CHANGE, BOOLEAN.names), DataError,
                 "no change attributes", id="rule-from-a-split-without-change"),
    pytest.param(lambda: relevant_attributes(Relation(BOOLEAN, ()), "res"), DataError,
                 "empty table", id="relevance-on-an-empty-relation"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_entry_point_rejects_its_argument(call, error, message):
    with pytest.raises(error, match=message):
        call()
