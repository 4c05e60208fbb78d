"""Analogy-based classification over nominal data.

The baseline classifier votes over every ordered training triplet (a,b,c)
that forms a proportion a:b::c:query with a solvable class equation.  A
triplet qualifies exactly when diff(a,b) == diff(c,query), so the vote is
computed by counting ordered training pairs once (quadratic) under an
integer key that stands for their difference vector, and then, per
query, looking up the key of (c,query) for each candidate c.  A list
of keys is a sum of cached per-attribute columns packed in the 64-bit
lanes of one int, so it costs one big-int addition per attribute.  A query
with a value outside its domain is keyed too, under keys that no pair of
rows has (see ``PairKeys``), so it finds no counts.  The counts are
filled in bulk, one ``Counter.update`` per row and table, and a group's
statistics (pair total, same-label count, tilts) are read by lookup only
when a vote or a rule needs them; no pair list is stored.  The vote
counts are identical to the cubic enumeration; tests cross-check against
a literal triple loop.  One table (``_PairCounts``) holds a dataset's
keyed rows, label codes, counts and vote, and every classifier is one
such table.  A table that counts every pair of its live rows can leave
any rows out (``leave_out``), counting only the pairs that touch the rows
it moves (leave-one-out scoring does so in place, and ``without`` on the
one copy that carries the counts); any other copy starts uncounted, with
any of its rows live.  kNN counts no pairs.

On top of the baseline: leave-one-out suitability scoring, competent-pair
mining (difference vectors as change-to-class rules with support and
confidence), the selected-triplet classifier (competent pairs, counted
per pair key, plus a near-neighbor bound on c; it counts only the pairs
within that Hamming radius, since all pairs of a key lie at one
distance, so a vote needs no radius test), the case-analysis classifier
that resolves mixed pair groups by solving a Bongard separation problem
over the shared context (the pairs of a mixed group are found by lookup
from diff(c, query), which every pair under its key shares, once per
run), a Hamming kNN baseline, and a seeded stratified cross-validation
harness.  A run builds one table over all rows, and each fold's model
and fallback is it or a copy of it with the fold's training rows live,
whatever the size of a grid search over the neighbor parameter, so
every fold names rows by their dataset index.  The case analysis, kNN
and the 1-NN fallback rank the live rows by Hamming distance to the
query in one way (``_PairCounts.ranked``, the lowest digit of the pair
keys), and one prefix reader answers a list of neighbor budgets or k's
from one vote stream or one ranking; a single classification is its
one-value case.
"""

from __future__ import annotations

import random
import statistics
from array import array
from collections import Counter
from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations, compress, islice
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .core import (Diff, Item, Schema, SchemaError, agreement, code_columns, diff,
                   pairs_with_change)
from .data import DataError, Dataset

STRATEGIES = ("baseline", "selected", "bongard", "knn")
FALLBACKS = ("none", "knn1", "brute")
_LANE = "Q"  # one lane of a packed column: an unsigned 64-bit word
_ORDER = "little" if array("H", [1]).tobytes()[0] else "big"  # array's native order


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
    Hamming distance.  A value outside its domain differs from every row:
    it adds 1 to the key, so the distance stays exact and the key's
    lowest digit exceeds its count of changes, which no pair of rows
    has.  Each per-attribute column of entries over the rows is built
    once and cached as one int of n 64-bit lanes, so a key list is m
    big-int additions, plus the outside count times a column of ones,
    and one unpack: no Python code runs per row.  Every key is below
    ``modulus · ∏(sₖ² + 1)`` (sₖ values of attribute k); a schema for
    which that exceeds 2⁶⁴ keeps its columns as lists, summed per row.
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
        self._lanes = weight <= 2 ** 64  # every key is below ``weight``
        self._bytes = array(_LANE).itemsize * self._size
        self._ones = self._pack([1] * self._size)
        self._columns: dict[tuple[int, int, bool], int | list[int]] = {}

    def _pack(self, column: list[int]) -> int | list[int]:
        """``column`` in the 64-bit lanes of one int, or as it is past them."""
        return int.from_bytes(array(_LANE, column), _ORDER) if self._lanes else column

    def _entry(self, k: int, x: int, y: int) -> int:
        """Attribute ``k``'s share of the key of a pair with codes x -> y."""
        if x == y:
            return 0
        return (x * len(self._codes[k]) + y + 1) * self._weights[k] + 1

    def keys_from(self, item: Item) -> list[int]:
        """The key of (item, row) for every row."""
        return self._keys(item, True)

    def keys_to(self, item: Item) -> list[int]:
        """The key of (row, item) for every row."""
        return self._keys(item, False)

    def _keys(self, item: Item, outgoing: bool) -> list[int]:
        """Per row, the sum of the entries of ``item``'s values in their
        domains, plus the count of its values outside them."""
        columns = []
        outside = 0
        for k, (codes, v) in enumerate(zip(self._codes, item)):
            x = codes.get(v)
            if x is None:
                outside += 1
                continue
            column = self._columns.get((k, x, outgoing))
            if column is None:
                entry = self._entry
                entries = [entry(k, x, y) if outgoing else entry(k, y, x)
                           for y in range(len(codes))]
                column = self._pack(list(map(entries.__getitem__, self._rows[k])))
                self._columns[(k, x, outgoing)] = column
            columns.append(column)
        if self._lanes:
            lanes = sum(columns, outside * self._ones)
            return array(_LANE, lanes.to_bytes(self._bytes, _ORDER)).tolist()
        return list(map(sum, zip([outside] * self._size, *columns)))

    def change_key(self, change: Diff) -> Optional[int]:
        """Key of any pair with this difference vector; None when a value
        lies outside its domain, since two different outside values of one
        attribute would add the same 1 to a key."""
        key = 0
        for k, step in enumerate(change):
            if step is not None:
                x, y = (self._codes[k].get(v) for v in step)
                if x is None or y is None:
                    return None
                key += self._entry(k, x, y)
        return key


class _PairCounts:
    """The ordered pairs of a dataset's rows, counted per pair key.

    The table keys its rows (``pair_keys``, see ``PairKeys``) and codes
    their labels by their place in the class domain (``codes``, L
    labels).  A pair's label slot is 0 when both labels are equal and
    ``code(la) * L + code(lb)`` (never 0) when they differ.  ``total``
    counts the pairs of each key and ``labelled`` counts them per slot
    under the extended key ``key * L² + slot``, so a key's same-label
    count and each of its tilts is one lookup.  A key absent from
    ``total``, or at 0 there, has no pairs: ``leave_out`` keeps the
    entries it empties at 0, and every reader takes 0 as absent.  The
    tables start empty: ``count_pairs`` counts the rows' own pairs and
    marks the table ``complete``, and ``count`` counts any others.  Only
    the rows marked in ``live`` vote as c.  ``leave_out`` sets which rows
    of a complete table are out, in place.  A copy made by ``_copy`` has
    any of its rows live and starts uncounted; ``without`` is the one copy
    that carries the counts, so it stays complete.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self.label_order = data.class_attr.domain
        self.width = len(self.label_order)
        self.scale = self.width ** 2
        self.pair_keys = PairKeys(data.schema, data.items)
        self.codes = list(map(self.label_order.index, data.labels))
        self.live = [True] * len(data)
        #: Whether the counts are exactly the pairs of the live rows, as
        #: ``count_pairs`` leaves them; ``leave_out`` needs it.
        self.complete = False
        #: Per distinct item, the rows that hold it.
        self._rows_of: dict[Item, list[int]] = {}
        for i, item in enumerate(data.items):
            self._rows_of.setdefault(item, []).append(i)
        self.total: Counter = Counter()
        self.labelled: Counter = Counter()
        #: Per label code la: (code lb, slot of the tilt la -> lb) for lb != la.
        self._tilts_from = [[(lb, self.slot(la, lb))
                             for lb in range(self.width) if lb != la]
                            for la in range(self.width)]

    def slot(self, la: int, lb: int) -> int:
        """The label slot of a pair whose labels have codes la and lb."""
        return 0 if la == lb else la * self.width + lb

    @cached_property
    def _outgoing(self) -> list[list[int]]:
        """Per label code c, the label slots of the pairs (row of label c,
        row j) for every row j."""
        return [[self.slot(c, cj) for cj in self.codes] for c in range(self.width)]

    @cached_property
    def _incoming(self) -> list[list[int]]:
        """Per label code c, the label slots of the pairs (row j, row of
        label c) for every row j."""
        return [[self.slot(cj, c) for cj in self.codes] for c in range(self.width)]

    def count(self, keys: Sequence[int], slots: Iterable[int], step: int) -> None:
        """Add (step 1) or take away (step -1) one pair per entry of
        ``keys``, with its label slot from the parallel ``slots``; an
        emptied entry stays at 0."""
        change = Counter.update if step > 0 else Counter.subtract
        change(self.total, keys)
        change(self.labelled, map(add, map(self.scale.__mul__, keys), slots))

    def count_pairs(self) -> None:
        """Count the ordered pairs (a, b) of the rows, identical indices
        included, in one bulk count per a, into the empty tables of a table
        with every row live, and mark it complete."""
        for a, c in zip(self.data.items, self.codes):
            self.count(self.pair_keys.keys_from(a), self._outgoing[c], 1)
        self.complete = True

    def _touching(self, rows: Sequence[int]) -> tuple[list[int], list[int]]:
        """The keys and label slots of the pairs of live rows and ``rows``
        that touch one of ``rows``: (r, j) for every j live or in ``rows``
        and (i, r) for every live i not in ``rows``, for each r in
        ``rows``, so a pair of two of them, or of one with itself, is
        listed once."""
        moved = set(rows)
        others = [live and i not in moved for i, live in enumerate(self.live)]
        reach = [live or i in moved for i, live in enumerate(self.live)]
        keys: list[int] = []
        slots: list[int] = []
        for r in rows:
            item, c = self.data.items[r], self.codes[r]
            keys += compress(self.pair_keys.keys_from(item), reach)
            slots += compress(self._outgoing[c], reach)
            keys += compress(self.pair_keys.keys_to(item), others)
            slots += compress(self._incoming[c], others)
        return keys, slots

    def leave_out(self, rows: Iterable[int]) -> None:
        """Leave exactly ``rows`` out: put back every other row that is
        out, then take out each live row of ``rows``, each step in one
        count of the pairs that touch the rows it moves, so the counts
        equal a fresh count of the live rows.  An entry it empties stays
        at 0, so putting its rows back inserts no key (a dict that regains
        keys grows).  Refused, with the table unchanged, unless the table
        is ``complete`` and every row lies in 0..n-1."""
        n = len(self.live)
        out = set(rows)
        if not self.complete:
            raise ValueError("only a table that counts every pair of its live rows "
                             "can leave rows out")
        if any(not 0 <= r < n for r in out):
            raise ValueError(f"rows {sorted(out)} are not all rows 0..{n - 1} of the table")
        back = [i for i, live in enumerate(self.live) if not live and i not in out]
        for moved, live in ((back, True), ([r for r in out if self.live[r]], False)):
            if moved:
                self.count(*self._touching(moved), 1 if live else -1)
                for r in moved:
                    self.live[r] = live

    def _copy(self, rows: Iterable[int]) -> "_PairCounts":
        """A fresh table over the same keyed rows, uncounted, with only
        ``rows`` live.  It has its own counts and ``live`` mask and shares
        the rest: keys, label codes, the rows and what the run lists once,
        so it names rows by the same indices."""
        left = copy(self)
        left.total, left.labelled = Counter(), Counter()
        live = set(rows)
        left.live = [i in live for i in range(len(self.live))]
        left.complete = False
        return left

    def without(self, rows: Iterable[int]) -> "_PairCounts":
        """A copy of the table and its counts, still complete, with exactly
        ``rows`` out (``leave_out``)."""
        left = self._copy(compress(range(len(self.live)), self.live))
        left.total, left.labelled = Counter(self.total), Counter(self.labelled)
        left.complete = self.complete
        left.leave_out(rows)
        return left

    def ranked(self, keys: Sequence[int]) -> Iterable[int]:
        """The live rows by increasing Hamming distance (``key % modulus``)
        of their ``keys``, one per row, ties by row order."""
        distances = [key % self.pair_keys.modulus for key in keys]
        ranking = sorted(range(len(keys)), key=distances.__getitem__)
        return filter(self.live.__getitem__, ranking)

    def nearest(self, query: Item, ks: Sequence[int]) -> list[Prediction]:
        """The majority label among the k live rows nearest to ``query``
        for each k, in the order given, from one ranking; a k past the
        live rows takes them all."""
        labels = self.data.labels
        stream = ((labels[i], 0) for i in self.ranked(self.query_keys(query)))
        return _prefix_predictions(stream, ks, self.label_order)

    def tilt(self, key: int, la: int) -> Optional[str]:
        """The label that most pairs under ``key`` tilt to from label code
        ``la`` (ties by domain order); None when no pair tilts from it.
        L - 1 lookups, as in ``vote``."""
        base = key * self.scale
        tilts = {self.label_order[lb]: self.labelled.get(base + slot, 0)
                 for lb, slot in self._tilts_from[la]}
        return _majority(tilts, self.label_order) if any(tilts.values()) else None

    def query_keys(self, query: Item) -> list[int]:
        """The key of (row, ``query``) for every row, for a query of the
        schema's arity."""
        arity = self.data.schema.arity
        if len(query) != arity:
            raise SchemaError(f"query arity {len(query)} does not match "
                              f"schema arity {arity}")
        return self.pair_keys.keys_to(query)

    def vote(self, query: Item) -> Prediction:
        """Triplet vote for ``query`` with c ranging over the live rows in
        row order: each pair (a, b) counted under the key of (c, query)
        is one triplet; a same-label pair votes for c's label, a tilt
        from c's label votes for its target.  L + 1 lookups per c."""
        return self._tally(zip(self.query_keys(query), self.codes), self.live)

    def _tally(self, keyed: Iterable[tuple[int, int]], live: Iterable[bool]) -> Prediction:
        """The vote of ``vote`` over the (key of (c, query), label code of
        c) entries of ``keyed`` whose parallel ``live`` flag is set."""
        total, labelled = self.total, self.labelled
        scale, tilts_from = self.scale, self._tilts_from
        votes = [0] * self.width
        examined = 0
        for key, lc in compress(keyed, live):
            n = total.get(key)
            if not n:
                continue
            examined += n
            base = key * scale
            votes[lc] += labelled.get(base, 0)
            for lb, slot in tilts_from[lc]:
                votes[lb] += labelled.get(base + slot, 0)
        counted = {label: n for label, n in zip(self.label_order, votes) if n}
        return _prediction(counted, examined, self.label_order)


def _check_train(train: Dataset) -> None:
    if len(train) == 0:
        raise DataError("cannot classify from an empty training set")


class BruteForceModel(_PairCounts):
    """Baseline triplet-vote classifier over all ordered pairs of live
    training rows (including identical indices), counted in its table.

    The build is one bulk count per row: the keys of (row, every row)
    with the label slots of those pairs, so no Python code runs per
    pair.  Every row starts live and the table is complete, so
    ``leave_out`` (or ``without``, on a copy) sets which rows are out,
    counting only the pairs that touch the rows it moves: leaving one row
    out costs O(n·m) instead of a fresh O(n²·m) build.  With no live row
    the table holds no pair, so every query abstains.
    """

    def __init__(self, train: Dataset):
        super().__init__(train)
        self.count_pairs()

    def classify(self, query: Item) -> Prediction:
        """Baseline triplet vote for ``query`` with c ranging over the
        live rows in dataset order."""
        return self.vote(query)


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

    One pair index over all rows serves every holdout: before its vote
    the row is left out of it, which puts the row before it back, so the
    whole sweep costs O(n²·m) instead of a fresh build per row.  The keys
    a removal empties stay at 0, so the table never grows."""
    n = len(train)
    if n < 4:
        raise DataError(f"suitability needs at least 4 examples, got {n}")
    model = BruteForceModel(train)
    wrong = 0
    abstained = 0
    for i in range(n):
        model.leave_out([i])
        pred = model.classify(train.items[i])
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
    def tilt(self) -> tuple[str, str]:
        return (self.label_a, self.label_b)


def _check_thresholds(min_support: int, min_confidence: float) -> None:
    if min_support < 1:
        raise DataError("min_support must be at least 1")
    if not 0.0 <= min_confidence <= 1.0:
        raise DataError("min_confidence must lie in [0, 1]")


def _competent_behaviours(counts: _PairCounts, min_support: int,
                          min_confidence: float) -> dict[int, int]:
    """The behaviours among the pairs counted in ``counts`` that carry a
    change (key 0 holds the pairs of equal items) and clear both
    thresholds, as {extended key: support}.  A pair's support and
    confidence depend only on its key's group and its behaviour in it
    (same-label, or one tilt), so each behaviour clears the thresholds or
    fails them as a whole."""
    _check_thresholds(min_support, min_confidence)
    total, scale = counts.total, counts.scale
    return {extended: support for extended, support in counts.labelled.items()
            if extended >= scale and support >= min_support
            and support / total[extended // scale] >= min_confidence}


def extract_competent_pairs(train: Dataset, min_support: int = 2,
                            min_confidence: float = 0.9) -> list[CompetentPair]:
    """Mine all ordered example pairs whose change rule clears both
    thresholds; emitted in pair-enumeration order.  Pairs of equal items
    carry no change and are skipped: they are the pairs at distance 0,
    and every other pair lies within distance ``arity``."""
    counts = _PairCounts(train)
    counts.count_pairs()
    competent = _competent_behaviours(counts, min_support, min_confidence)
    items, labels, codes = train.items, train.labels, counts.codes
    out: list[CompetentPair] = []
    for i, a in enumerate(items):
        for j, key in enumerate(counts.pair_keys.keys_from(a)):
            support = competent.get(key * counts.scale + counts.slot(codes[i], codes[j]))
            if support is not None:
                out.append(CompetentPair(a, items[j], labels[i], labels[j], diff(a, items[j]),
                                         support, support / counts.total[key]))
    return out


class SelectedTripletModel(_PairCounts):
    """Triplet voting restricted to competent pairs and near neighbors.

    The competent pairs within the Hamming radius are the counts of its
    table: per pair key, how many are same-label and how many carry each
    tilt.  A query's vote reads, for every c, the counts under
    the key of (c, query).  All pairs under one key lie at one distance
    (``key % modulus``), which is that of each c whose key it is, so
    only the c within the radius find counts, and a query that is a row
    reads only those c, from its near list (``_near``)."""

    def __init__(self, train: Dataset, pairs: Sequence[CompetentPair], radius: int):
        if radius < 0:
            raise DataError("radius must be non-negative")
        super().__init__(train)
        self.radius = radius
        for p in pairs:
            key = self.pair_keys.change_key(p.change)
            # An out-of-domain change matches no c, and one beyond the
            # radius matches no c near enough to vote.
            if key is not None and key % self.pair_keys.modulus <= radius:
                self.count([key], [self.slot(*map(self.label_order.index, p.tilt))], 1)

    @cached_property
    def _near(self) -> list[tuple[list[int], list[int]]]:
        """Per row b, the rows a and the keys of the pairs (a, b) at Hamming
        distance 0 to the radius; listed once, and shared by the copies
        made after."""
        modulus, radius = self.pair_keys.modulus, self.radius
        rows, keys = list(range(len(self.live))), {}  # the lists share one int per value
        near = []
        for item in self.data.items:
            row_keys = self.pair_keys.keys_to(item)
            mask = [key % modulus <= radius for key in row_keys]
            near.append((list(compress(rows, mask)),
                         [keys.setdefault(key, key) for key in compress(row_keys, mask)]))
        return near

    def mined(self, rows: Sequence[int], mining: Sequence[int], min_support: int,
              min_confidence: float) -> "SelectedTripletModel":
        """A copy of this table with ``rows`` live and the counts of
        ``extract_competent_pairs`` over the ``mining`` rows, copied in
        whole without listing the pairs.  Only the pairs of two mining
        rows within the radius are counted, from the near lists, as the
        listed pairs are bounded; every pair under one key lies at one
        distance, so the groups of the keys counted are complete.  Key 0, the pairs of equal items, is counted in the
        sample and dropped by ``_competent_behaviours``."""
        sample = self._copy(mining)
        for b in mining:
            near, keys = self._near[b]
            keep = list(map(sample.live.__getitem__, near))
            slots = map(self._incoming[self.codes[b]].__getitem__, near)
            sample.count(list(compress(keys, keep)), compress(slots, keep), 1)
        model = self._copy(rows)
        for extended, support in _competent_behaviours(sample, min_support,
                                                       min_confidence).items():
            model.labelled[extended] = support
            model.total[extended // model.scale] += support
        return model

    def classify(self, query: Item) -> Prediction:
        """The vote of ``vote``; for a query that is one of the rows, read
        from its near list, which holds every c whose key can be counted
        (the first such query lists every row's)."""
        rows = self._rows_of.get(query)
        if rows is None:
            return self.vote(query)
        near, keys = self._near[rows[0]]
        return self._tally(zip(keys, map(self.codes.__getitem__, near)),
                           map(self.live.__getitem__, near))


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


class BongardModel(_PairCounts):
    """Per-neighbor case analysis with cached per-difference verdicts.

    For a neighbor c of the query, the pairs sharing diff(c, query) are
    read as evidence: uniformly same-label pairs copy c's label (case 1),
    uniformly label-changing pairs tilt it (case 2), and mixed groups are
    resolved by a separation property over the shared context (case 3);
    neighbors without usable evidence are skipped.  Its table counts every
    pair of its rows, so ``vote`` is the baseline vote on them; only live
    rows are neighbors or pair members, and ``leave_out`` and ``_copy``
    start a fresh verdict cache, so it answers as a fresh model of its
    live rows.
    """

    def __init__(self, train: Dataset, max_literals: int = 2):
        _check_train(train)
        if max_literals < 1:
            raise DataError("max_literals must be at least 1")
        super().__init__(train)
        self.count_pairs()
        self._max_literals = max_literals
        self._analysis: dict[int, Optional[tuple]] = {}
        #: Per change, its pairs over all rows (``contexts``), shared by every copy.
        self._pairs: dict[Diff, list[int]] = {}

    def leave_out(self, rows: Iterable[int]) -> None:
        super().leave_out(rows)
        self._analysis = {}  # its verdicts read the rows now live

    def _copy(self, rows: Iterable[int]) -> "BongardModel":
        left = super()._copy(rows)
        left._analysis = {}  # its verdicts read the copy's own counts
        return left

    def contexts(self, change: Diff) -> tuple[set[tuple[str, ...]], set[tuple[str, ...]]]:
        """Agreement contexts of the same-label and of the label-changing
        pairs of live rows with the difference vector ``change``, read
        from the run's list of its pairs (found by lookup)."""
        items, labels, live = self.data.items, self.data.labels, self.live
        pairs = self._pairs.get(change)
        if pairs is None:
            steps = [(k, *step) for k, step in enumerate(change) if step is not None]
            # Flattened (i, j, i, j, ...), so the run keeps no tuple per pair.
            pairs = self._pairs[change] = list(chain.from_iterable(
                pairs_with_change(items, self._rows_of, steps)))
        ag = agreement(change)
        same_ctx = set()
        diff_ctx = set()
        rows = iter(pairs)
        for i, j in zip(rows, rows):
            if not (live[i] and live[j]):
                continue
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
        total = self.total.get(key)
        if not total:  # not cached, so an out-of-domain query adds no entry
            return None
        result = None
        n_same = self.labelled.get(key * self.scale, 0)
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
        """Yield (neighbor index, vote, pair count) over the live rows in
        increasing Hamming distance from the query (ties by row order)."""
        keys = self.query_keys(query)
        for idx in self.ranked(keys):
            key = keys[idx]
            analysis = self._analyze(key, self.data.items[idx], query)
            if analysis is None:
                continue
            total, same, prop = analysis
            lc = self.codes[idx]
            # Case 1, or case 3 on the property's side, copies c's label.
            copies = same or (prop is not None and prop.satisfied_by(query))
            vote = self.label_order[lc] if copies else self.tilt(key, lc)
            if vote is not None:
                yield idx, vote, total

    def predictions(self, query: Item, budgets: Sequence[int]) -> list[Prediction]:
        """The prediction under each neighbor budget, in the order given,
        from one pass over ``votes``: the majority over the first
        ``budget`` voting neighbors, their pair counts summed as the
        triplets examined."""
        stream = ((vote, count) for _, vote, count in self.votes(query))
        return _prefix_predictions(stream, budgets, self.label_order)

    def classify(self, query: Item, neighbor_budget: int) -> Prediction:
        return self.predictions(query, [neighbor_budget])[0]


# ---------------------------------------------------------------------------
# kNN baseline
# ---------------------------------------------------------------------------

class KnnModel(_PairCounts):
    """Hamming kNN over the live rows of its table (``nearest``), which
    counts no pairs."""

    predictions = _PairCounts.nearest

    def __init__(self, train: Dataset):
        _check_train(train)
        super().__init__(train)

    def classify(self, query: Item, k: int) -> Prediction:
        return self.nearest(query, [k])[0]


# ---------------------------------------------------------------------------
# Cross-validation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvConfig:
    """Everything a cross-validation run depends on; the seed drives all
    randomness (fold shuffling and per-fold pair-mining subsamples)."""

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

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DataError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if self.folds < 2:
            raise DataError("folds must be at least 2")
        if self.fallback not in FALLBACKS:
            raise DataError(f"unknown fallback {self.fallback!r}; pick from {FALLBACKS}")
        if self.subsample is not None and not 0.0 < self.subsample <= 1.0:
            raise DataError("subsample must lie in (0, 1]")
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

    def canonical(self) -> dict:
        """JSON-ready payload, byte-identical across reruns with the same
        inputs and seed."""
        return {
            "config": dict(vars(self.config)),
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
    fewer members than folds, and says which in the returned flag."""
    if folds < 2:
        raise DataError("folds must be at least 2")
    if len(data) < folds:
        raise DataError(f"cannot split {len(data)} rows into {folds} folds")
    rng = random.Random(seed)
    by_label: dict[str, list[int]] = {label: [] for label in data.class_attr.domain}
    for i, label in enumerate(data.labels):
        by_label[label].append(i)
    stratified = all(len(v) >= folds for v in by_label.values() if v)
    if stratified:
        order = []
        for members in by_label.values():  # in class-domain order
            rng.shuffle(members)
            order += members
    else:
        order = list(range(len(data)))
        rng.shuffle(order)
    return [sorted(order[f::folds]) for f in range(folds)], stratified


def _mining_rows(train_idx: Sequence[int], config: CvConfig, fold: int) -> list[int]:
    """The fold's mining rows, in dataset order: a seeded sample of
    ``config.subsample`` of its training rows, at least 2, or all of
    them."""
    order = list(train_idx)
    random.Random(config.seed * 1_000_003 + fold).shuffle(order)
    take = len(order) if config.subsample is None else max(
        2, round(config.subsample * len(order)))
    return sorted(order[:take])


#: The neighbor parameter a grid search varies, per strategy.
GRID_PARAMETERS = {"bongard": "neighbor_budget", "knn": "k"}


def _run_model(data: Dataset, config: CvConfig) -> _PairCounts:
    """The table over all rows of which each fold's model is a copy."""
    return {"baseline": lambda: BruteForceModel(data),
            "selected": lambda: SelectedTripletModel(data, (), config.radius),
            "bongard": lambda: BongardModel(data, config.max_literals),
            "knn": lambda: KnnModel(data)}[config.strategy]()


def _fold_model(run: _PairCounts, configs: Sequence[CvConfig], fold: int,
                test_idx: Sequence[int]):
    """One fold's model, shared by every config (they differ only in the
    grid parameter): a copy of the run's table ``run`` with only the
    fold's training rows live (``run`` less the test rows, where the table
    counts every pair).  Returns ``(predict, fallback)``, which map a
    query to one Prediction per config and to the fallback's Prediction.
    ``knn1`` is the model's own 1-NN.  ``brute`` is None where it is never
    asked (kNN does not abstain) or would abstain on the same queries as
    the strategy (the baseline is that classifier); the selected
    strategy's counts the run's own table on the run's first abstention
    and leaves the fold's test rows out of it, in place, before each vote."""
    config = configs[0]
    train_idx = sorted(set(range(len(run.live))).difference(test_idx))
    brute = None
    if config.strategy == "selected":
        model = run.mined(train_idx, _mining_rows(train_idx, config, fold),
                          config.min_support, config.min_confidence)

        def brute(query: Item) -> Prediction:
            if not run.complete:
                run.count_pairs()
            # A no-op after the fold's first abstention; the next fold's
            # first puts these rows back.
            run.leave_out(test_idx)
            return run.vote(query)
    elif config.strategy == "knn":
        model = run._copy(train_idx)
    else:
        model = run.without(test_idx)
        if config.strategy == "bongard":
            brute = model.vote  # its table counts every pair
    param = GRID_PARAMETERS.get(config.strategy)
    if param is None:
        predict = lambda q: [model.classify(q)]
    else:
        values = [getattr(c, param) for c in configs]
        predict = lambda q: model.predictions(q, values)
    knn1 = lambda q: model.nearest(q, [1])[0]
    return predict, {"knn1": knn1, "brute": brute}.get(config.fallback)


def _evaluate_fold(data: Dataset, configs: Sequence[CvConfig], fold: int,
                   assignment: Sequence[Sequence[int]],
                   run: _PairCounts) -> list[FoldResult]:
    """Score one fold for every config with a single model, a copy of the
    run's table ``run``."""
    test_idx = assignment[fold]
    width = len(configs)
    correct = [0] * width
    abstained = [0] * width
    triplets = [0] * width
    predict, fallback = _fold_model(run, configs, fold, test_idx)
    for i in test_idx:
        query = data.items[i]
        predictions = predict(query)
        rescue = None  # the fallback answer, asked at most once per query
        if fallback is not None and any(p.abstained for p in predictions):
            rescue = fallback(query)
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
    """One report per config from one pass over the folds.  One table
    over all rows (one ``PairKeys``) serves the run: each fold's model
    and fallback is a copy of it."""
    config = configs[0]
    assignment, stratified = make_folds(data, config.folds, config.seed)
    run = _run_model(data, config)
    per_fold = [_evaluate_fold(data, configs, f, assignment, run)
                for f in range(config.folds)]
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
    every k are prefixes of one Hamming ranking."""
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
