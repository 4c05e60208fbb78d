"""Contrastive explanations from proportion structure in a table.

Given a query row and a result attribute, an *adverse example* is any
table row carrying the contrasted result value; the attributes on which
it disagrees with the query (its change set) are what the explanation
points at.  Pairs of rows elsewhere in the table showing the same ordered
change with the same result tilt support the explanation; pairs with the
same change but no tilt are exceptions, and the ratio gives the
explanation's strength.  Candidates are ranked by those counts alone;
the sentence, the context split and the explanation are built for the
winner only.  The whole pipeline reads only the table, never any
classifier internals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import ChangeEntry, Item, pairs_with_change
from .data import DataError, Relation


@dataclass(frozen=True)
class AdverseExample:
    """A table row with the contrasted result value; ``change`` lists the
    descriptive attributes (and values) separating it from the query."""

    row_index: int
    row: Item
    change: tuple[ChangeEntry, ...]


@dataclass(frozen=True)
class ContextSplit:
    """Role decomposition of the explaining quadruple.

    ``shared`` attributes carry the same values on all four rows,
    ``context`` attributes distinguish the supporting pair from the
    (adverse, query) pair, and ``change`` attributes flip inside both
    pairs, tilting the result from ``result_from`` to ``result_to``.
    """

    shared: tuple[int, ...]
    context: tuple[int, ...]
    change: tuple[int, ...]
    shared_values: tuple[str, ...]
    pair_context: tuple[str, ...]
    query_context: tuple[str, ...]
    change_from: tuple[str, ...]
    change_to: tuple[str, ...]
    result_attribute: str
    result_from: str
    result_to: str


@dataclass(frozen=True)
class RuleCandidate:
    """An abductive rule read off a split: setting the change attributes
    to their target values drives the result value, whatever the context.
    Never asserted as valid; the counts say how well the table agrees."""

    change_attributes: tuple[str, ...]
    change_values: tuple[str, ...]
    result_attribute: str
    result_value: str
    supporting_pairs: int
    exception_pairs: int


@dataclass(frozen=True)
class Explanation:
    question: str  # "why" or "why-not"
    result_attribute: str
    target: str
    actual: str
    adverse: Optional[AdverseExample]
    alternatives: tuple[AdverseExample, ...]
    split: Optional[ContextSplit]
    supporting_pairs: int
    exception_pairs: int
    strength: float
    #: True only when an adverse example exists and at least one pair in the
    #: table backs its change-to-result story.
    supported: bool
    sentence: str


def find_adverse_examples(rel: Relation, query: Item, result_attr: str,
                          target: str) -> list[AdverseExample]:
    """All rows whose result equals the contrasted target, each with its
    change set against the query; sorted by change-set size then row order."""
    rel.schema.validate_item(query)
    ridx = rel.schema.index(result_attr)
    rel.schema.attributes[ridx].check(target)
    if query[ridx] == target:
        raise DataError(
            f"query already has {result_attr}={target!r}; the contrastive "
            f"question is vacuous"
        )
    out = []
    for i, row in enumerate(rel.tuples):
        if row[ridx] != target:
            continue
        change = tuple(
            (j, row[j], query[j])
            for j in range(rel.schema.arity)
            if j != ridx and row[j] != query[j]
        )
        out.append(AdverseExample(i, row, change))
    out.sort(key=lambda ae: (len(ae.change), ae.row_index))
    return out


def _pair_counts(rel: Relation, by_description: dict[Item, list[Item]],
                 change: tuple[ChangeEntry, ...], ridx: int, target: str,
                 actual: str) -> tuple[int, int, Optional[tuple[Item, Item]]]:
    """Count ordered row pairs showing exactly this attribute change with
    the target->actual result tilt (supporting) or no tilt (exceptions);
    also return the first supporting pair, r1-major in row order.

    ``by_description`` maps each row with the result column projected out
    to the rows carrying it, so ``pairs_with_change`` finds every pair
    with one lookup per r1: O(n·m) per change set."""
    supporting = 0
    exceptions = 0
    first_support = None
    rows = rel.tuples
    for i, r2 in pairs_with_change(rows, by_description, change, free=ridx):
        r1 = rows[i]
        if (r1[ridx], r2[ridx]) == (target, actual):
            supporting += 1
            if first_support is None:
                first_support = (r1, r2)
        elif r1[ridx] == r2[ridx]:
            exceptions += 1
    return supporting, exceptions, first_support


def _build_split(rel: Relation, adverse: AdverseExample, ridx: int,
                 support_pair: tuple[Item, Item], target: str,
                 actual: str) -> ContextSplit:
    r1, _ = support_pair
    change_idx = tuple(j for j, _, _ in adverse.change)
    shared = []
    context = []
    for j in range(rel.schema.arity):
        if j == ridx or j in change_idx:
            continue
        (shared if r1[j] == adverse.row[j] else context).append(j)
    return ContextSplit(
        shared=tuple(shared),
        context=tuple(context),
        change=change_idx,
        shared_values=tuple(r1[j] for j in shared),
        pair_context=tuple(r1[j] for j in context),
        query_context=tuple(adverse.row[j] for j in context),
        change_from=tuple(fr for _, fr, _ in adverse.change),
        change_to=tuple(to for _, _, to in adverse.change),
        result_attribute=rel.schema.attributes[ridx].name,
        result_from=target,
        result_to=actual,
    )


def rule_candidate(split: ContextSplit, schema_names: Sequence[str],
                   supporting: int = 0, exceptions: int = 0) -> RuleCandidate:
    """Read the abductive change-drives-result rule off a context split."""
    if not split.change:
        raise DataError("degenerate split: no change attributes to build a rule from")
    return RuleCandidate(
        change_attributes=tuple(schema_names[j] for j in split.change),
        change_values=split.change_to,
        result_attribute=split.result_attribute,
        result_value=split.result_to,
        supporting_pairs=supporting,
        exception_pairs=exceptions,
    )


def contrastive_explain(rel: Relation, query: Item, result_attr: str,
                        target: Optional[str] = None) -> Explanation:
    """Best-supported contrastive explanation for the query's result value.

    With no ``target`` this answers why: the actual value is contrasted
    against every alternative in the result domain.  A ``target`` asks
    why not: the single contrasted value.  Candidates are ranked by
    strength, then smaller change set, then row order.  With no adverse
    example the explanation is marked unsupported.
    """
    rel.schema.validate_item(query)
    ridx = rel.schema.index(result_attr)
    actual = query[ridx]
    question = "why" if target is None else "why-not"
    targets = ([v for v in rel.schema.attributes[ridx].domain if v != actual]
               if target is None else [target])

    by_description: dict[Item, list[Item]] = {}
    for row in rel.tuples:
        by_description.setdefault(row[:ridx] + row[ridx + 1:], []).append(row)

    candidates = []
    for tgt in targets:
        for ae in find_adverse_examples(rel, query, result_attr, tgt):
            if not ae.change:
                continue  # descriptively identical conflicting row
            supporting, exceptions, first = _pair_counts(
                rel, by_description, ae.change, ridx, tgt, actual
            )
            strength = (supporting / (supporting + exceptions)
                        if supporting + exceptions else 0.0)
            # Each candidate is a distinct row with one result value, so
            # the row index settles every tie.
            rank = (-strength, len(ae.change), ae.row_index)
            candidates.append((rank, tgt, ae, supporting, exceptions, first, strength))
    candidates.sort(key=lambda candidate: candidate[0])

    if candidates:
        _, tgt, ae, supporting, exceptions, first, strength = candidates[0]
    else:
        tgt, ae, supporting, exceptions, first, strength = targets[0], None, 0, 0, None, 0.0
    names = rel.schema.names
    if ae is None and any(row[ridx] == tgt for row in rel.tuples):
        # Every such row was skipped above: it has no change to explain by.
        sentence = (f"unsupported: every row with {result_attr}={tgt} agrees "
                    f"with the query on every other attribute")
    elif ae is None:
        sentence = (f"unsupported: no adverse example with "
                    f"{result_attr}={tgt} exists in the table")
    elif question == "why":
        clauses = [f"{names[j]} is {to} and not {fr}" for j, fr, to in ae.change]
        sentence = (f"{result_attr} is {actual} rather than {tgt} "
                    f"because " + " and ".join(clauses))
    else:
        flipped = [f"{names[j]} were {fr} instead of {to}" for j, fr, to in ae.change]
        sentence = f"{result_attr} would be {tgt} if " + " and ".join(flipped)
    return Explanation(
        question=question,
        result_attribute=result_attr,
        target=tgt,
        actual=actual,
        adverse=ae,
        alternatives=tuple(candidate[2] for candidate in candidates[1:]),
        split=(_build_split(rel, ae, ridx, first, tgt, actual)
               if first is not None else None),
        supporting_pairs=supporting,
        exception_pairs=exceptions,
        strength=strength,
        supported=supporting > 0,
        sentence=sentence,
    )


def relevant_attributes(rel: Relation, result_attr: str,
                        method: str = "mi") -> list[tuple[str, float]]:
    """Score each attribute against the result column and rank descending
    (ties by attribute order).

    ``mi`` is the natural-log plug-in mutual information; ``chi2`` the
    plain chi-square statistic of the contingency table.  A constant
    result column scores everything 0.
    """
    if method not in ("mi", "chi2"):
        raise DataError(f"method must be 'mi' or 'chi2', got {method!r}")
    if len(rel) == 0:
        raise DataError("cannot rank attributes of an empty table")
    ridx = rel.schema.index(result_attr)
    n = len(rel.tuples)
    py: Counter = Counter(row[ridx] for row in rel.tuples)
    scores = []
    for j, attr in enumerate(rel.schema.attributes):
        if j == ridx:
            continue
        joint: Counter = Counter((row[j], row[ridx]) for row in rel.tuples)
        px: Counter = Counter(row[j] for row in rel.tuples)
        if method == "mi":
            score = 0.0
            for (x, y), c in joint.items():
                pxy = c / n
                score += pxy * math.log(pxy / ((px[x] / n) * (py[y] / n)))
            score = max(score, 0.0)  # clamp -0.0 and float dust
        else:
            score = 0.0
            for x in px:
                for y in py:
                    expected = px[x] * py[y] / n
                    observed = joint.get((x, y), 0)
                    score += (observed - expected) ** 2 / expected
        scores.append((attr.name, score))
    scores.sort(key=lambda pair: (-pair[1], rel.schema.index(pair[0])))
    return scores
