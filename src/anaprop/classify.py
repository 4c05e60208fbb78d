"""Analogy-based classification over nominal data.

The baseline classifier votes over every ordered training triplet (a,b,c)
that forms a proportion a:b::c:query with a solvable class equation.  A
triplet qualifies exactly when diff(a,b) == diff(c,query), so the vote is
computed by counting ordered training pairs once (quadratic) under an
integer key that stands for their difference vector, and then, per
query, looking up the key of (c,query) for each candidate c.  The counts
are filled in bulk, one ``Counter.update`` per row and table, and a
group's statistics (pair total, same-label count, tilts) are read by
lookup only when a vote or a rule needs them; no pair list is stored.
The vote counts are identical to the cubic enumeration; tests
cross-check against a literal triple loop.  The pair index can take one
row out and put it back, so leave-one-out scoring downdates a single
index instead of rebuilding it per row.

On top of the baseline: leave-one-out suitability scoring, competent-pair
mining (difference vectors as change-to-class rules with support and
confidence), the selected-triplet classifier (competent pairs, counted
per pair key, plus a near-neighbor bound on c; it counts only the pairs
within that Hamming radius, since all pairs of a key lie at one
distance, so a vote needs no radius test), the case-analysis classifier
that resolves mixed pair groups by solving a Bongard separation problem
over the shared context (the pairs of a mixed group are found by lookup
from diff(c, query), which every pair under its key shares), a Hamming
kNN baseline, and a seeded stratified cross-validation harness that
builds one model per fold, whatever the size of a grid search over the
neighbor parameter.  The case-analysis and kNN classifiers share one
ranking of the rows by Hamming distance to the query (``PairKeys.rank``,
the lowest digit of the pair keys) and one prefix reader: a list of
neighbor budgets or k's is answered from one vote stream or one ranking,
and a single classification is its one-value case, so a grid search and
a single run read their votes the same way.
"""

from __future__ import annotations

import random
import statistics
import time
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations, compress, islice
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .core import (Diff, Item, Schema, SchemaError, agreement, code_columns, diff,
                   pairs_with_change)
from .data import DataError, Dataset

STRATEGIES = ("baseline", "selected", "bongard", "knn")
FALLBACKS = ("none", "knn1", "brute")


@dataclass(frozen=True)
class Prediction:
    """Outcome of classifying one query item.

    ``votes`` maps labels to vote counts; ``label`` is the argmax under
    the deterministic tie-break (smallest label in class-domain order),
    or None when the classifier abstained.  ``triplets_examined`` counts
    the proportion-matching triplets behind the votes (for kNN it is 0).
    """

    label: Optional[str]
    votes: Mapping[str, int]
    triplets_examined: int
    abstained: bool


def _majority(votes: Mapping[str, int], label_order: Sequence[str]) -> str:
    best = None
    best_count = -1
    for label in label_order:
        count = votes.get(label, 0)
        if count > best_count:
            best, best_count = label, count
    assert best is not None
    return best


def _prediction(votes: Mapping[str, int], examined: int,
                label_order: Sequence[str]) -> Prediction:
    if not votes:
        return Prediction(None, {}, examined, True)
    return Prediction(_majority(votes, label_order), dict(votes), examined, False)


def _prefix_predictions(stream: Iterable[tuple[str, int]], cuts: Sequence[int],
                        label_order: Sequence[str]) -> list[Prediction]:
    """One prediction per cut, in the order given: the majority of the
    votes in the first ``cut`` (vote, weight) entries of ``stream``, with
    their weights summed as the triplets examined, abstaining on no vote.
    The stream is read once and no further than the largest cut, and a
    cut past its end takes all of it."""
    if any(cut < 1 for cut in cuts):
        raise DataError(f"neighbor budgets and k's must be at least 1, got {min(cuts)}")
    by_cut: dict[int, Prediction] = {}
    votes: Counter = Counter()
    weight = taken = 0
    entries = iter(stream)
    for cut in sorted(set(cuts)):
        for vote, w in islice(entries, cut - taken):
            votes[vote] += 1
            weight += w
        taken = cut
        by_cut[cut] = _prediction(votes, weight, label_order)
    return [by_cut[cut] for cut in cuts]


class PairKeys:
    """Integer keys for ordered pairs (a, b) in which one side is a row of
    a fixed item list and the other any item of the same arity.

    Each value is coded by its position in its attribute's sorted domain.
    A pair's key is the sum of one entry per attribute: 0 where a and b
    agree, and otherwise 1 plus a multiple of m + 1 (m attributes) that is
    distinct for each ordered change (x, y), as a mixed-radix digit.  So
    two pairs have equal keys exactly when ``core.diff`` gives them equal
    difference vectors, key 0 means a == b, and ``key % (m + 1)`` is the
    Hamming distance.  Key lists are sums of per-attribute columns of
    entries over the rows, each built once and cached.
    """

    def __init__(self, schema: Schema, items: Sequence[Item]):
        self._codes, self._rows = code_columns(schema, items)
        self.modulus = len(self._codes) + 1
        self._weights = []
        weight = self.modulus
        for codes in self._codes:
            self._weights.append(weight)
            weight *= len(codes) ** 2 + 1
        self._size = len(items)
        self._columns: dict[tuple[int, int, bool], list[int]] = {}

    def _entry(self, k: int, x: int, y: int) -> int:
        """Attribute ``k``'s share of the key of a pair with codes x -> y."""
        if x == y:
            return 0
        return (x * len(self._codes[k]) + y + 1) * self._weights[k] + 1

    def keys_from(self, item: Item) -> Optional[list[int]]:
        """The key of (item, row) for every row; None when a value of
        ``item`` lies outside its domain, since no pair of rows then
        shares a key with those pairs."""
        return self._keys(item, True)

    def keys_to(self, item: Item) -> Optional[list[int]]:
        """The key of (row, item) for every row; None as for ``keys_from``."""
        return self._keys(item, False)

    def nearest(self, item: Item) -> list[int]:
        """Row indices by increasing Hamming distance to ``item`` (the
        lowest digit of the key), ties by row order.  A value outside its
        domain differs from every row, so it adds 1 to every distance and
        leaves the order as it is; only the other values are keyed."""
        coded = [(k, codes[v]) for k, (codes, v) in enumerate(zip(self._codes, item))
                 if v in codes]
        return self.rank(self._sum(coded, False))

    def rank(self, keys: Sequence[int]) -> list[int]:
        """Row indices by increasing Hamming distance (``key % modulus``)
        of their ``keys``, one per row, ties by row order."""
        distances = [key % self.modulus for key in keys]
        return sorted(range(len(keys)), key=distances.__getitem__)

    def _keys(self, item: Item, outgoing: bool) -> Optional[list[int]]:
        try:
            coded = [(k, codes[v]) for k, (codes, v) in enumerate(zip(self._codes, item))]
        except KeyError:  # a value outside the schema's domain
            return None
        return self._sum(coded, outgoing)

    def _sum(self, coded: Iterable[tuple[int, int]], outgoing: bool) -> list[int]:
        """Per row, the sum of the entries of attributes k with code x,
        for each (k, x) of ``coded``."""
        columns = []
        for k, x in coded:
            column = self._columns.get((k, x, outgoing))
            if column is None:
                entry = self._entry
                entries = [entry(k, x, y) if outgoing else entry(k, y, x)
                           for y in range(len(self._codes[k]))]
                column = list(map(entries.__getitem__, self._rows[k]))
                self._columns[(k, x, outgoing)] = column
            columns.append(column)
        if not columns:
            return [0] * self._size
        return list(map(sum, zip(*columns)))

    def change_key(self, change: Diff) -> Optional[int]:
        """Key of any pair with this difference vector; None when a value
        lies outside its domain."""
        key = 0
        for k, step in enumerate(change):
            if step is not None:
                x, y = (self._codes[k].get(v) for v in step)
                if x is None or y is None:
                    return None
                key += self._entry(k, x, y)
        return key


class _PairCounts:
    """Counts of labelled ordered pairs, per pair key.

    Labels are coded by their place in the class domain (L labels), and a
    pair's label slot is 0 when both labels are equal and
    ``code(la) * L + code(lb)`` (never 0) when they differ.  ``total``
    counts the pairs of each key and ``labelled`` counts them per slot
    under the extended key ``key * L² + slot``, so a key's same-label
    count and each of its tilts is one lookup.  A key absent from
    ``total`` has no pairs; neither table holds a zero entry.
    """

    def __init__(self, label_order: Sequence[str]):
        self.label_order = label_order
        self.width = len(label_order)
        self._code = {label: c for c, label in enumerate(label_order)}
        self.scale = self.width ** 2
        self.total: Counter = Counter()
        self.labelled: Counter = Counter()
        #: Per label code la: (code lb, slot of the tilt la -> lb) for lb != la.
        self._tilts_from = [[(lb, self.slot(la, lb))
                             for lb in range(self.width) if lb != la]
                            for la in range(self.width)]

    def codes(self, labels: Iterable[str]) -> list[int]:
        """The codes of these labels."""
        return [self._code[label] for label in labels]

    def slot(self, la: int, lb: int) -> int:
        """The label slot of a pair whose labels have codes la and lb."""
        return 0 if la == lb else la * self.width + lb

    def count(self, keys: Sequence[int], slots: Iterable[int], step: int) -> None:
        """Add (step 1) or take away (step -1) one pair per entry of
        ``keys``, with its label slot from the parallel ``slots``."""
        extended = map(add, map(self.scale.__mul__, keys), slots)
        for table, entries in ((self.total, keys), (self.labelled, extended)):
            if step > 0:
                table.update(entries)
                continue
            for entry, n in Counter(entries).items():
                left = table[entry] - n
                if left:
                    table[entry] = left
                else:
                    table.pop(entry)

    def count_pairs(self, pair_keys: PairKeys, items: Sequence[Item],
                    codes: Sequence[int], radius: Optional[int] = None) -> list[list[int]]:
        """Count the ordered pairs (a, b) of ``items`` (``pair_keys``'s
        rows, label codes ``codes``), identical indices included, in one
        bulk count per a; with a ``radius``, only the pairs at Hamming
        distance 1 to ``radius`` (``key % modulus``).  Returns, per label
        code c, the label slots of the pairs (row of label c, row j) for
        every row j."""
        outgoing = [[self.slot(c, cj) for cj in codes] for c in range(self.width)]
        modulus = pair_keys.modulus
        for a, c in zip(items, codes):
            keys, slots = pair_keys.keys_from(a), outgoing[c]
            if radius is not None:
                near = [0 < key % modulus <= radius for key in keys]
                keys, slots = list(compress(keys, near)), compress(slots, near)
            self.count(keys, slots, 1)
        return outgoing

    def tilt(self, key: int, la: int) -> Optional[str]:
        """The label that most pairs under ``key`` tilt to from label code
        ``la`` (ties by domain order); None when no pair tilts from it.
        L - 1 lookups, as in ``vote``."""
        base = key * self.scale
        tilts = {self.label_order[lb]: self.labelled.get(base + slot, 0)
                 for lb, slot in self._tilts_from[la]}
        return _majority(tilts, self.label_order) if any(tilts.values()) else None

    def vote(self, keyed_codes: Iterable[tuple[int, int]]) -> Prediction:
        """Triplet vote over (key of (c, query), label code of c) entries:
        each pair (a, b) counted under that key is one triplet; a
        same-label pair votes for c's label, a tilt from c's label votes
        for its target.  L + 1 lookups per c."""
        total, labelled = self.total, self.labelled
        scale, tilts_from = self.scale, self._tilts_from
        votes = [0] * self.width
        examined = 0
        for key, lc in keyed_codes:
            n = total.get(key)
            if n is None:
                continue
            examined += n
            base = key * scale
            votes[lc] += labelled.get(base, 0)
            for lb, slot in tilts_from[lc]:
                votes[lb] += labelled.get(base + slot, 0)
        counted = {label: n for label, n in zip(self.label_order, votes) if n}
        return _prediction(counted, examined, self.label_order)


class PairIndex:
    """All ordered pairs of live training rows (including identical
    indices) counted by their pair key (see ``PairKeys``) and label slot
    (see ``_PairCounts``).

    The build is one bulk count per row: the keys of (row, every row)
    with the label slots of those pairs, so no Python code runs per
    pair.  Every row starts live.  ``remove_row`` and ``add_row`` take a
    row out of the index and put it back, counting only the pairs that
    touch it, so leaving one row out costs O(n·m) instead of a fresh
    O(n²·m) build; the result equals a fresh build over the live rows.
    """

    def __init__(self, train: Dataset):
        self.pair_keys = PairKeys(train.schema, train.items)
        self.counts = _PairCounts(train.class_attr.domain)
        self._items = train.items
        self.codes = self.counts.codes(train.labels)
        self._live = [True] * len(train)
        self._outgoing = self.counts.count_pairs(self.pair_keys, self._items, self.codes)
        # Per label code c: the label slots of the pairs (row j, row of
        # label c), for every row j.
        self._incoming = [[self.counts.slot(cj, c) for cj in self.codes]
                          for c in range(self.counts.width)]

    def _touch(self, i: int, step: int) -> None:
        c = self.codes[i]
        live = self._live  # row i itself is not live here
        item = self._items[i]
        keys = (list(compress(self.pair_keys.keys_from(item), live))
                + list(compress(self.pair_keys.keys_to(item), live)) + [0])
        slots = (list(compress(self._outgoing[c], live))
                 + list(compress(self._incoming[c], live)) + [0])
        self.counts.count(keys, slots, step)

    def remove_row(self, i: int) -> None:
        """Take row ``i`` out: drop the pairs (i,j), (j,i) and (i,i)."""
        if not self._live[i]:
            raise ValueError(f"row {i} is not in the index")
        self._live[i] = False
        self._touch(i, -1)

    def add_row(self, i: int) -> None:
        """Put a removed row ``i`` back with all its pairs."""
        if self._live[i]:
            raise ValueError(f"row {i} is already in the index")
        self._touch(i, +1)
        self._live[i] = True

    def vote(self, query: Item) -> Prediction:
        """Baseline triplet vote for ``query`` with c ranging over the
        live rows in dataset order."""
        keys = self.pair_keys.keys_to(query)
        if keys is None:
            return _prediction(Counter(), 0, self.counts.label_order)
        return self.counts.vote(compress(zip(keys, self.codes), self._live))


def _check_query(train: Dataset, query: Item) -> None:
    if len(query) != train.schema.arity:
        raise SchemaError(
            f"query arity {len(query)} does not match schema arity "
            f"{train.schema.arity}"
        )


class BruteForceModel:
    """Baseline triplet-vote classifier with the pair index built once."""

    def __init__(self, train: Dataset):
        if len(train) == 0:
            raise DataError("cannot classify from an empty training set")
        self._train = train
        self._index = PairIndex(train)

    def classify(self, query: Item) -> Prediction:
        _check_query(self._train, query)
        return self._index.vote(query)


def brute_force_classify(train: Dataset, query: Item) -> Prediction:
    """Vote over all ordered training triplets (a,b,c) with a:b::c:query
    and a solvable class equation; abstain when none qualifies."""
    return BruteForceModel(train).classify(query)


@dataclass(frozen=True)
class SuitabilityReport:
    """Leave-one-out error profile of the baseline classifier."""

    error_ratio: float
    wrong: int
    evaluated: int
    abstained: int
    total: int


def analogical_suitability(train: Dataset) -> SuitabilityReport:
    """Leave each example out, classify it with the baseline, and report
    the error ratio over the non-abstained predictions.

    One pair index over all rows serves every holdout: the left-out row
    is removed from it before its vote and added back after, so the whole
    sweep costs O(n²·m) instead of a fresh build per row."""
    n = len(train)
    if n < 4:
        raise DataError(f"suitability needs at least 4 examples, got {n}")
    model = BruteForceModel(train)
    index = model._index
    wrong = 0
    abstained = 0
    for i in range(n):
        index.remove_row(i)
        pred = model.classify(train.items[i])
        index.add_row(i)
        if pred.abstained:
            abstained += 1
        elif pred.label != train.labels[i]:
            wrong += 1
    evaluated = n - abstained
    ratio = wrong / evaluated if evaluated else 0.0
    return SuitabilityReport(ratio, wrong, evaluated, abstained, n)


# ---------------------------------------------------------------------------
# Competent pairs and the selected-triplet classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompetentPair:
    """An ordered example pair read as an instance of a change rule.

    All ordered pairs sharing this pair's difference vector form the
    rule's evidence group; ``support`` counts the group members whose
    label behavior (same tilt, or same-label like this pair) matches,
    and ``confidence`` is that count over the group size.
    """

    a: Item
    b: Item
    label_a: str
    label_b: str
    change: Diff
    support: int
    confidence: float

    @property
    def same_label(self) -> bool:
        return self.label_a == self.label_b

    @property
    def tilt(self) -> tuple[str, str]:
        return (self.label_a, self.label_b)


def _check_thresholds(min_support: int, min_confidence: float) -> None:
    if min_support < 1:
        raise DataError("min_support must be at least 1")
    if not 0.0 <= min_confidence <= 1.0:
        raise DataError("min_confidence must lie in [0, 1]")


def _competent(support: int, total: int, min_support: int,
               min_confidence: float) -> bool:
    return support >= min_support and support / total >= min_confidence


def extract_competent_pairs(train: Dataset, min_support: int = 2,
                            min_confidence: float = 0.9) -> list[CompetentPair]:
    """Mine all ordered example pairs whose change rule clears both
    thresholds; emitted in pair-enumeration order.  Pairs of equal items
    (key 0) carry no change and are skipped."""
    _check_thresholds(min_support, min_confidence)
    index = PairIndex(train)
    counts, codes = index.counts, index.codes
    items = train.items
    labels = train.labels
    out: list[CompetentPair] = []
    for i, a in enumerate(items):
        for j, key in enumerate(index.pair_keys.keys_from(a)):
            if not key:
                continue
            total = counts.total[key]
            support = counts.labelled[key * counts.scale + counts.slot(codes[i], codes[j])]
            if _competent(support, total, min_support, min_confidence):
                out.append(CompetentPair(a, items[j], labels[i], labels[j],
                                         diff(a, items[j]), support, support / total))
    return out


class SelectedTripletModel:
    """Triplet voting restricted to competent pairs and near neighbors.

    The competent pairs within the Hamming radius are held as counts: per
    pair key, how many are same-label and how many carry each tilt.  A
    query's vote reads, for every c, the counts under the key of
    (c, query).  All pairs under one key lie at one distance
    (``key % modulus``), which is that of each c whose key it is, so
    only the c within the radius find counts."""

    def __init__(self, train: Dataset, pairs: Sequence[CompetentPair], radius: int):
        if radius < 0:
            raise DataError("radius must be non-negative")
        self._train = train
        self._pair_keys = PairKeys(train.schema, train.items)
        self._counts = _PairCounts(train.class_attr.domain)
        self._codes = self._counts.codes(train.labels)
        for p in pairs:
            key = self._pair_keys.change_key(p.change)
            # An out-of-domain change matches no c, and one beyond the
            # radius matches no c near enough to vote.
            if key is not None and key % self._pair_keys.modulus <= radius:
                slot = self._counts.slot(*self._counts.codes(p.tilt))
                self._counts.count([key], [slot], 1)

    @classmethod
    def mined(cls, train: Dataset, mining: Dataset, min_support: int,
              min_confidence: float, radius: int) -> "SelectedTripletModel":
        """The model over ``extract_competent_pairs(mining, ...)``, counted
        from ``mining``'s pairs without listing them: each behaviour of a
        group (same-label, or one tilt) clears the thresholds or fails
        them as a whole, so only the behaviours with at least
        ``min_support`` pairs are decoded.

        Only the pairs at Hamming distance 1 to ``radius`` are counted,
        as the listed pairs are bounded.  This is exact: every pair under
        one key has the same distance (``key % modulus``), so the totals
        of the keys within the radius stay complete, and key 0 holds the
        pairs of equal items, which carry no change."""
        _check_thresholds(min_support, min_confidence)
        model = cls(train, (), radius)
        found = _PairCounts(mining.class_attr.domain)
        found.count_pairs(PairKeys(mining.schema, mining.items), mining.items,
                          found.codes(mining.labels), radius)
        kept = model._counts
        # No behaviour with fewer than min_support pairs is competent.
        supported = map(min_support.__le__, found.labelled.values())
        for extended, count in compress(found.labelled.items(), supported):
            key = extended // found.scale
            if _competent(count, found.total[key], min_support, min_confidence):
                kept.labelled[extended] = count
                kept.total[key] += count
        return model

    def classify(self, query: Item) -> Prediction:
        _check_query(self._train, query)
        keys = self._pair_keys.keys_to(query)
        if keys is None:
            return _prediction(Counter(), 0, self._counts.label_order)
        return self._counts.vote(zip(keys, self._codes))


def selected_triplet_classify(train: Dataset, pairs: Sequence[CompetentPair],
                              query: Item, radius: int) -> Prediction:
    """Vote only over triplets whose (a,b) is a competent pair and whose c
    lies within the Hamming radius of the query; abstain when none does."""
    if not pairs:
        raise DataError("selected-triplet classification needs competent pairs")
    return SelectedTripletModel(train, pairs, radius).classify(query)


# ---------------------------------------------------------------------------
# Case analysis with Bongard separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BongardProperty:
    """A conjunction of (attribute index, value) literals over the shared
    agreement context: true on every same-label pair, false on every
    label-changing pair."""

    literals: tuple[tuple[int, str], ...]

    def satisfied_by(self, item: Item) -> bool:
        return all(item[i] == v for i, v in self.literals)


def _separate(same_ctx: set[tuple[str, ...]], diff_ctx: set[tuple[str, ...]],
              context_attributes: Sequence[int],
              max_literals: int) -> Optional[BongardProperty]:
    if same_ctx & diff_ctx:
        return None  # identical context on both sides: nothing can separate
    # Any conjunction true on every same-side context can only use literals
    # whose value is shared by all of them, so those are the whole search pool.
    pool: list[tuple[int, str]] = []
    for pos, attr_idx in enumerate(context_attributes):
        values = {ctx[pos] for ctx in same_ctx}
        if len(values) == 1:
            pool.append((attr_idx, next(iter(values))))
    pos_of = {attr_idx: pos for pos, attr_idx in enumerate(context_attributes)}
    for size in range(1, min(max_literals, len(pool)) + 1):
        for combo in combinations(pool, size):
            if all(
                any(ctx[pos_of[attr_idx]] != value for attr_idx, value in combo)
                for ctx in diff_ctx
            ):
                return BongardProperty(combo)
    return None


def bongard_separation(same_label_pairs: Sequence[tuple[Item, Item]],
                       diff_label_pairs: Sequence[tuple[Item, Item]],
                       context_attributes: Sequence[int],
                       max_literals: int) -> Optional[BongardProperty]:
    """Smallest conjunction (size first, then lexicographic by attribute
    and value) separating the two pair families on their shared context;
    None when no such conjunction of at most max_literals exists."""
    if not same_label_pairs or not diff_label_pairs:
        raise DataError("separation needs both pair families to be non-empty")
    if max_literals < 1:
        raise DataError("max_literals must be at least 1")
    ctx = tuple(context_attributes)
    for a, b in list(same_label_pairs) + list(diff_label_pairs):
        for i in ctx:
            if a[i] != b[i]:
                raise DataError(
                    f"pair members disagree on context attribute {i}"
                )
    same_ctx = {tuple(a[i] for i in ctx) for a, _ in same_label_pairs}
    diff_ctx = {tuple(a[i] for i in ctx) for a, _ in diff_label_pairs}
    return _separate(same_ctx, diff_ctx, ctx, max_literals)


class BongardModel:
    """Per-neighbor case analysis with cached per-difference verdicts.

    For a neighbor c of the query, the pairs sharing diff(c, query) are
    read as evidence: uniformly same-label pairs copy c's label (case 1),
    uniformly label-changing pairs tilt it (case 2), and mixed groups are
    resolved by a separation property over the shared context (case 3);
    neighbors without usable evidence are skipped.
    """

    def __init__(self, train: Dataset, max_literals: int = 2):
        if len(train) == 0:
            raise DataError("cannot classify from an empty training set")
        if max_literals < 1:
            raise DataError("max_literals must be at least 1")
        self._train = train
        self._max_literals = max_literals
        self._index = PairIndex(train)
        self._label_order = train.class_attr.domain
        self._analysis: dict[int, Optional[tuple]] = {}
        self._rows_of: dict[Item, list[int]] = {}
        for i, item in enumerate(train.items):
            self._rows_of.setdefault(item, []).append(i)

    def contexts(self, change: Diff) -> tuple[set[tuple[str, ...]], set[tuple[str, ...]]]:
        """Agreement contexts of the same-label and of the label-changing
        pairs with the difference vector ``change``, found by lookup."""
        items = self._train.items
        labels = self._train.labels
        ag = agreement(change)
        same_ctx = set()
        diff_ctx = set()
        steps = [(k, *step) for k, step in enumerate(change) if step is not None]
        for i, j in pairs_with_change(items, self._rows_of, steps):
            ctx = tuple(items[i][k] for k in ag)
            if labels[i] == labels[j]:
                same_ctx.add(ctx)
            else:
                diff_ctx.add(ctx)
        return same_ctx, diff_ctx

    def _analyze(self, key: int, c: Item, query: Item):
        """(pair count, whether all its pairs are same-label, separating
        property or None) of the group under ``key``, the key of
        (c, query), computed once per key; None when its pairs cannot
        vote: no pair has the key, or the group is mixed and no property
        separates it."""
        if key in self._analysis:
            return self._analysis[key]
        result = None
        counts = self._index.counts
        total = counts.total.get(key)
        if total is not None:
            n_same = counts.labelled.get(key * counts.scale, 0)
            if n_same in (0, total):
                result = (total, n_same == total, None)
            else:  # mixed evidence votes only through a separating property
                change = diff(c, query)  # that of every pair under the key
                prop = _separate(*self.contexts(change), agreement(change),
                                 self._max_literals)
                if prop is not None:  # unseparable mixed evidence: take another c
                    result = (total, False, prop)
        self._analysis[key] = result
        return result

    def votes(self, query: Item):
        """Yield (neighbor index, vote, pair count) in increasing Hamming
        distance from the query (ties by dataset order)."""
        _check_query(self._train, query)
        keys = self._index.pair_keys.keys_to(query)
        if keys is None:
            return  # no pair of rows shares a change with the query
        items, codes = self._train.items, self._index.codes
        for idx in self._index.pair_keys.rank(keys):
            key = keys[idx]
            analysis = self._analyze(key, items[idx], query)
            if analysis is None:
                continue
            total, same, prop = analysis
            lc = codes[idx]
            # Case 1, or case 3 on the property's side, copies c's label.
            copies = same or (prop is not None and prop.satisfied_by(query))
            vote = self._label_order[lc] if copies else self._index.counts.tilt(key, lc)
            if vote is not None:
                yield idx, vote, total

    def predictions(self, query: Item, budgets: Sequence[int]) -> list[Prediction]:
        """The prediction under each neighbor budget, in the order given,
        from one pass over ``votes``: the majority over the first
        ``budget`` voting neighbors, their pair counts summed as the
        triplets examined."""
        stream = ((vote, count) for _, vote, count in self.votes(query))
        return _prefix_predictions(stream, budgets, self._label_order)

    def classify(self, query: Item, neighbor_budget: int) -> Prediction:
        return self.predictions(query, [neighbor_budget])[0]


def bongard_classify(train: Dataset, query: Item, neighbor_budget: int,
                     max_literals: int) -> Prediction:
    """Majority vote over the first ``neighbor_budget`` voting neighbors
    under the three-case analysis; abstain when no neighbor votes."""
    return BongardModel(train, max_literals).classify(query, neighbor_budget)


# ---------------------------------------------------------------------------
# kNN baseline
# ---------------------------------------------------------------------------

class KnnModel:
    def __init__(self, train: Dataset, k: int):
        if len(train) == 0:
            raise DataError("cannot classify from an empty training set")
        if not 1 <= k <= len(train):
            raise DataError(f"k must be in [1, {len(train)}], got {k}")
        self._train = train
        self._k = k
        self._label_order = train.class_attr.domain
        self._pair_keys = PairKeys(train.schema, train.items)

    def predictions(self, query: Item, ks: Sequence[int]) -> list[Prediction]:
        """The majority label among the k nearest rows for each k, in the
        order given, from one Hamming ranking; a k past the training size
        takes every row."""
        _check_query(self._train, query)
        labels = self._train.labels
        stream = ((labels[i], 0) for i in self._pair_keys.nearest(query))
        return _prefix_predictions(stream, ks, self._label_order)

    def classify(self, query: Item) -> Prediction:
        return self.predictions(query, [self._k])[0]


def knn_classify(train: Dataset, query: Item, k: int) -> Prediction:
    """Majority label among the k Hamming-nearest training items
    (neighbor ties by dataset order, label ties by domain order)."""
    return KnnModel(train, k).classify(query)


# ---------------------------------------------------------------------------
# Cross-validation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvConfig:
    """Everything a cross-validation run depends on; the seed drives all
    randomness (fold shuffling and per-fold pair-mining subsamples).
    ``workers`` is accepted for compatibility and has no effect: folds run
    one after another."""

    strategy: str = "baseline"
    folds: int = 10
    seed: int = 0
    radius: int = 2
    neighbor_budget: int = 1
    max_literals: int = 2
    k: int = 1
    min_support: int = 2
    min_confidence: float = 0.9
    subsample: Optional[float] = None
    fallback: str = "knn1"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DataError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if self.folds < 2:
            raise DataError("folds must be at least 2")
        if self.fallback not in FALLBACKS:
            raise DataError(f"unknown fallback {self.fallback!r}; pick from {FALLBACKS}")
        if self.subsample is not None and not 0.0 < self.subsample <= 1.0:
            raise DataError("subsample must lie in (0, 1]")
        if self.workers < 1:
            raise DataError("workers must be at least 1")
        if self.radius < 0:
            raise DataError("radius must be non-negative")
        if self.neighbor_budget < 1 or self.max_literals < 1 or self.k < 1:
            raise DataError("neighbor_budget, max_literals and k must be at least 1")
        _check_thresholds(self.min_support, self.min_confidence)


@dataclass(frozen=True)
class FoldResult:
    fold: int
    test_size: int
    correct: int
    accuracy: float  # percent
    abstained: int
    triplets: int


@dataclass(frozen=True)
class CvReport:
    config: CvConfig
    dataset_rows: int
    dataset_attributes: int
    class_counts: dict[str, int]
    stratified: bool
    fold_indices: tuple[tuple[int, ...], ...]
    fold_results: tuple[FoldResult, ...]
    mean_accuracy: float
    std_accuracy: float
    abstention_rate: float
    triplets_total: int
    wall_time_s: float

    def canonical(self) -> dict:
        """JSON-ready payload; wall time is excluded so reruns with the
        same inputs and seed are byte-identical."""
        return {
            # Every config field but ``workers``, which has no effect.
            "config": {name: value for name, value in vars(self.config).items()
                       if name != "workers"},
            "dataset": {
                "rows": self.dataset_rows,
                "attributes": self.dataset_attributes,
                "class_counts": dict(sorted(self.class_counts.items())),
            },
            "stratified": self.stratified,
            "fold_assignment": [list(f) for f in self.fold_indices],
            "per_fold": [dict(vars(fr)) for fr in self.fold_results],
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "abstention_rate": self.abstention_rate,
            "triplets_total": self.triplets_total,
        }


def make_folds(data: Dataset, folds: int, seed: int) -> tuple[list[list[int]], bool]:
    """Stratified fold assignment (round-robin after a seeded per-class
    shuffle); falls back to plain shuffled dealing when some class has
    fewer members than folds."""
    if folds < 2:
        raise DataError("folds must be at least 2")
    if len(data) < folds:
        raise DataError(f"cannot split {len(data)} rows into {folds} folds")
    rng = random.Random(seed)
    by_label: dict[str, list[int]] = {label: [] for label in data.class_attr.domain}
    for i, label in enumerate(data.labels):
        by_label[label].append(i)
    stratified = all(len(v) >= folds for v in by_label.values() if v)
    if not stratified:
        warnings.warn(
            f"some class has fewer than {folds} members; "
            f"falling back to non-stratified folds",
            stacklevel=2,
        )
    if stratified:
        order = []
        for members in by_label.values():  # in class-domain order
            rng.shuffle(members)
            order += members
    else:
        order = list(range(len(data)))
        rng.shuffle(order)
    return [sorted(order[f::folds]) for f in range(folds)], stratified


def _mining_subset(train: Dataset, fraction: Optional[float],
                   seed: int, fold: int) -> Dataset:
    if fraction is None or fraction >= 1.0:
        return train
    rng = random.Random(seed * 1_000_003 + fold)
    order = list(range(len(train)))
    rng.shuffle(order)
    take = max(2, round(fraction * len(train)))
    return train.subset(sorted(order[:take]))


#: The neighbor parameter a grid search varies, per strategy.
GRID_PARAMETERS = {"bongard": "neighbor_budget", "knn": "k"}


def _fold_model(train: Dataset, configs: Sequence[CvConfig], fold: int):
    """One model for a training fold, shared by every config (they differ
    only in the grid parameter).  Returns ``(predict, brute)``: ``predict``
    maps a query to one Prediction per config, and ``brute()`` gives the
    brute-force fallback classifier; ``brute`` is None where that fallback
    is never asked (kNN does not abstain) or would abstain on the same
    queries as the strategy (the baseline is that classifier)."""
    config = configs[0]
    if config.strategy == "baseline":
        model = BruteForceModel(train)
        return lambda q: [model.classify(q)], None
    if config.strategy == "selected":
        mining = _mining_subset(train, config.subsample, config.seed, fold)
        model = SelectedTripletModel.mined(train, mining, config.min_support,
                                           config.min_confidence, config.radius)
        return lambda q: [model.classify(q)], lambda: BruteForceModel(train).classify
    if config.strategy == "bongard":
        model = BongardModel(train, config.max_literals)
        budgets = [c.neighbor_budget for c in configs]
        return lambda q: model.predictions(q, budgets), lambda: model._index.vote
    model = KnnModel(train, 1)  # its own k is unused: each config's k is a cut
    ks = [c.k for c in configs]
    return lambda q: model.predictions(q, ks), None  # kNN never abstains


def _evaluate_fold(data: Dataset, configs: Sequence[CvConfig], fold: int,
                   assignment: Sequence[Sequence[int]]) -> list[FoldResult]:
    """Score one fold for every config with a single model build."""
    test_idx = assignment[fold]
    train_idx = [i for f, part in enumerate(assignment) if f != fold for i in part]
    train_idx.sort()
    train = data.subset(train_idx)
    predict, brute = _fold_model(train, configs, fold)
    build = {"knn1": lambda: KnnModel(train, 1).classify,
             "brute": brute}.get(configs[0].fallback)
    # The fallback classifier is built on the fold's first abstention.
    fallback = cache(build) if build is not None else None
    width = len(configs)
    correct = [0] * width
    abstained = [0] * width
    triplets = [0] * width
    for i in test_idx:
        query = data.items[i]
        predictions = predict(query)
        rescue = None  # the fallback answer, asked at most once per query
        if fallback is not None and any(p.abstained for p in predictions):
            rescue = fallback()(query)
        for v, pred in enumerate(predictions):
            triplets[v] += pred.triplets_examined
            if pred.abstained:
                abstained[v] += 1
                pred = rescue or pred
            if not pred.abstained and pred.label == data.labels[i]:
                correct[v] += 1
    size = len(test_idx)
    return [
        FoldResult(fold, size, correct[v], 100.0 * correct[v] / size,
                   abstained[v], triplets[v])
        for v in range(width)
    ]


def _cross_validate_all(data: Dataset, configs: Sequence[CvConfig]) -> list[CvReport]:
    """One report per config from one pass over the folds."""
    started = time.perf_counter()
    config = configs[0]
    assignment, stratified = make_folds(data, config.folds, config.seed)
    per_fold = [_evaluate_fold(data, configs, f, assignment)
                for f in range(config.folds)]
    wall_time = time.perf_counter() - started
    counts = Counter(data.labels)
    reports = []
    for v, cfg in enumerate(configs):
        fold_results = [results[v] for results in per_fold]
        accuracies = [fr.accuracy for fr in fold_results]
        total = sum(fr.test_size for fr in fold_results)
        abstained = sum(fr.abstained for fr in fold_results)
        reports.append(CvReport(
            config=cfg,
            dataset_rows=len(data),
            dataset_attributes=data.schema.arity,
            class_counts={k: counts.get(k, 0) for k in data.class_attr.domain},
            stratified=stratified,
            fold_indices=tuple(tuple(f) for f in assignment),
            fold_results=tuple(fold_results),
            mean_accuracy=statistics.mean(accuracies),
            std_accuracy=statistics.stdev(accuracies) if len(accuracies) > 1 else 0.0,
            abstention_rate=abstained / total if total else 0.0,
            triplets_total=sum(fr.triplets for fr in fold_results),
            wall_time_s=wall_time,
        ))
    return reports


def cross_validate(data: Dataset, config: CvConfig) -> CvReport:
    """Seeded stratified k-fold evaluation of one strategy; deterministic
    given (data, config)."""
    return _cross_validate_all(data, [config])[0]


def cross_validate_grid(data: Dataset, config: CvConfig,
                        grid: Sequence[int]) -> tuple[CvReport, list[CvReport]]:
    """Evaluate each grid value of the strategy's neighbor parameter
    (budget for the case-analysis classifier, k for kNN) and return
    (best report, all reports); best by mean accuracy, ties by the
    smaller parameter.

    Each fold builds one model: the case-analysis predictions for every
    budget are prefixes of one vote stream, and the kNN predictions for
    every k are prefixes of one Hamming ranking.  Every report's
    ``wall_time_s`` is the time of that shared pass."""
    if not grid:
        raise DataError("grid must not be empty")
    param = GRID_PARAMETERS.get(config.strategy)
    if param is None:
        raise DataError("grid search applies to the bongard and knn strategies")
    configs = [replace(config, **{param: value}) for value in grid]
    reports = _cross_validate_all(data, configs)
    best = max(reports,
               key=lambda r: (r.mean_accuracy, -getattr(r.config, param)))
    return best, reports
