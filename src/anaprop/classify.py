"""Analogy-based classification over nominal data.

The baseline classifier votes over every ordered training triplet (a,b,c)
that forms a proportion a:b::c:query with a solvable class equation.  A
triplet qualifies exactly when diff(a,b) == diff(c,query), so the vote is
computed by grouping ordered training pairs by their difference vector
once (quadratic) and then, per query, looking up diff(c,query) for each
candidate c.  The vote counts are identical to the cubic enumeration;
tests cross-check against a literal triple loop.  The pair index can take
one row out and put it back, so leave-one-out scoring downdates a single
index instead of rebuilding it per row.

On top of the baseline: leave-one-out suitability scoring, competent-pair
mining (difference vectors as change-to-class rules with support and
confidence), the selected-triplet classifier (competent pairs plus a
near-neighbor bound on c), the case-analysis classifier that resolves
mixed pair groups by solving a Bongard separation problem over the shared
context, a Hamming kNN baseline, and a seeded stratified cross-validation
harness that builds one model per fold, whatever the size of a grid
search over the neighbor parameter.
"""

from __future__ import annotations

import random
import statistics
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .core import Diff, Item, SchemaError, diff, hamming
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


def _prediction(votes: Counter, examined: int, label_order: Sequence[str]) -> Prediction:
    if not votes:
        return Prediction(None, {}, examined, True)
    return Prediction(_majority(votes, label_order), dict(votes), examined, False)


class _Group:
    """Vote-relevant statistics of one difference-vector pair group."""

    __slots__ = ("total", "n_same", "tilts", "pairs")

    def __init__(self, keep_pairs: bool):
        self.total = 0
        self.n_same = 0
        self.tilts: dict[tuple[str, str], int] = {}
        self.pairs: Optional[list[tuple[int, int]]] = [] if keep_pairs else None


class PairIndex:
    """All ordered pairs of live training rows (including identical
    indices) grouped by their difference vector.

    Every row starts live.  ``remove_row`` and ``add_row`` take a row out
    of the index and put it back, updating only the pairs that touch it,
    so leaving one row out costs O(n·m) instead of a fresh O(n²·m) build;
    the result is the index a fresh build over the live rows would give.
    """

    def __init__(self, train: Dataset, keep_pairs: bool = False):
        self.groups: dict[Diff, _Group] = {}
        self._items = train.items
        self._labels = train.labels
        self._label_order = train.class_attr.domain
        self._keep_pairs = keep_pairs
        self._live = [True] * len(train)
        items = self._items
        labels = self._labels
        groups = self.groups
        for i, a in enumerate(items):
            la = labels[i]
            for j, b in enumerate(items):
                d = tuple(
                    None if x == y else (x, y) for x, y in zip(a, b)
                )
                g = groups.get(d)
                if g is None:
                    g = _Group(keep_pairs)
                    groups[d] = g
                g.total += 1
                lb = labels[j]
                if la == lb:
                    g.n_same += 1
                else:
                    key = (la, lb)
                    g.tilts[key] = g.tilts.get(key, 0) + 1
                if g.pairs is not None:
                    g.pairs.append((i, j))

    def _update(self, i: int, j: int, step: int) -> None:
        d = diff(self._items[i], self._items[j])
        g = self.groups.get(d)
        if g is None:
            g = self.groups[d] = _Group(self._keep_pairs)
        g.total += step
        la, lb = self._labels[i], self._labels[j]
        if la == lb:
            g.n_same += step
        else:
            count = g.tilts.get((la, lb), 0) + step
            if count:
                g.tilts[(la, lb)] = count
            else:
                del g.tilts[(la, lb)]
        if g.pairs is not None:
            if step > 0:
                g.pairs.append((i, j))
            else:
                g.pairs.remove((i, j))
        if not g.total:
            del self.groups[d]

    def _touch(self, i: int, step: int) -> None:
        for j, live in enumerate(self._live):  # row i itself is not live here
            if live:
                self._update(i, j, step)
                self._update(j, i, step)
        self._update(i, i, step)

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
        votes: Counter = Counter()
        examined = 0
        labels = self._labels
        groups = self.groups
        for idx, c in enumerate(self._items):
            if not self._live[idx]:
                continue
            d = tuple(None if x == y else (x, y) for x, y in zip(c, query))
            g = groups.get(d)
            if g is None:
                continue
            examined += g.total
            lc = labels[idx]
            if g.n_same:
                votes[lc] += g.n_same
            for (la, lb), count in g.tilts.items():
                if la == lc:
                    votes[lb] += count
        return _prediction(votes, examined, self._label_order)


def _check_query(train: Dataset, query: Item) -> None:
    if len(query) != train.schema.arity:
        raise SchemaError(
            f"query arity {len(query)} does not match schema arity "
            f"{train.schema.arity}"
        )


def _nearest_first(items: Sequence[Item], query: Item) -> list[int]:
    """Row indices by increasing Hamming distance to the query, ties by
    dataset order."""
    return sorted(range(len(items)), key=lambda i: (hamming(items[i], query), i))


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


def extract_competent_pairs(train: Dataset, min_support: int = 2,
                            min_confidence: float = 0.9) -> list[CompetentPair]:
    """Mine all ordered example pairs whose change rule clears both
    thresholds; emitted in pair-enumeration order."""
    if min_support < 1:
        raise DataError("min_support must be at least 1")
    if not 0.0 <= min_confidence <= 1.0:
        raise DataError("min_confidence must lie in [0, 1]")
    items = train.items
    labels = train.labels
    n = len(items)
    enumerated: list[tuple[int, int, Diff]] = []
    stats: dict[Diff, tuple[int, int, Counter]] = {}
    for i in range(n):
        a = items[i]
        for j in range(n):
            if i == j:
                continue
            b = items[j]
            if a == b:  # duplicate items carry no change
                continue
            d = tuple(None if x == y else (x, y) for x, y in zip(a, b))
            enumerated.append((i, j, d))
            total, same, tilts = stats.get(d) or (0, 0, Counter())
            if labels[i] == labels[j]:
                same += 1
            else:
                tilts[(labels[i], labels[j])] += 1
            stats[d] = (total + 1, same, tilts)

    out: list[CompetentPair] = []
    for i, j, d in enumerated:
        total, same, tilts = stats[d]
        la, lb = labels[i], labels[j]
        support = same if la == lb else tilts[(la, lb)]
        confidence = support / total
        if support >= min_support and confidence >= min_confidence:
            out.append(
                CompetentPair(items[i], items[j], la, lb, d, support, confidence)
            )
    return out


class SelectedTripletModel:
    """Triplet voting restricted to competent pairs and near neighbors."""

    def __init__(self, train: Dataset, pairs: Sequence[CompetentPair], radius: int):
        if radius < 0:
            raise DataError("radius must be non-negative")
        self._train = train
        self._radius = radius
        self._by_change: dict[Diff, list[tuple[str, str]]] = {}
        for p in pairs:
            self._by_change.setdefault(p.change, []).append((p.label_a, p.label_b))
        self._label_order = train.class_attr.domain

    def classify(self, query: Item) -> Prediction:
        _check_query(self._train, query)
        votes: Counter = Counter()
        examined = 0
        labels = self._train.labels
        radius = self._radius
        for idx, c in enumerate(self._train.items):
            if hamming(c, query) > radius:
                continue
            d = tuple(None if x == y else (x, y) for x, y in zip(c, query))
            plist = self._by_change.get(d)
            if not plist:
                continue
            examined += len(plist)
            lc = labels[idx]
            for la, lb in plist:
                if la == lb:
                    votes[lc] += 1
                elif la == lc:
                    votes[lb] += 1
        return _prediction(votes, examined, self._label_order)


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
        self._index = PairIndex(train, keep_pairs=True)
        self._groups = self._index.groups
        self._label_order = train.class_attr.domain
        self._analysis: dict[Diff, tuple] = {}

    def _analyze(self, d: Diff):
        cached = self._analysis.get(d)
        if cached is not None:
            return cached
        g = self._groups.get(d)
        if g is None:
            result = ("empty", None, None)
        elif not g.tilts:
            result = ("same", g, None)
        elif g.n_same == 0:
            result = ("tilt", g, None)
        else:
            labels = self._train.labels
            items = self._train.items
            ag = tuple(i for i, e in enumerate(d) if e is None)
            same_ctx = set()
            diff_ctx = set()
            for i, j in g.pairs:  # type: ignore[union-attr]
                ctx = tuple(items[i][k] for k in ag)
                if labels[i] == labels[j]:
                    same_ctx.add(ctx)
                else:
                    diff_ctx.add(ctx)
            prop = _separate(same_ctx, diff_ctx, ag, self._max_literals)
            result = ("mixed", g, (ag, prop))
        self._analysis[d] = result
        return result

    def _suggest(self, tilts: Mapping[tuple[str, str], int], lc: str) -> Optional[str]:
        counts: Counter = Counter()
        for (la, lb), count in tilts.items():
            if la == lc:
                counts[lb] += count
        if not counts:
            return None
        return _majority(counts, self._label_order)

    def votes(self, query: Item):
        """Yield (neighbor index, vote, pair count) in increasing Hamming
        distance from the query (ties by dataset order)."""
        _check_query(self._train, query)
        items = self._train.items
        labels = self._train.labels
        for idx in _nearest_first(items, query):
            c = items[idx]
            d = tuple(None if x == y else (x, y) for x, y in zip(c, query))
            kind, g, extra = self._analyze(d)
            if kind == "empty":
                continue
            lc = labels[idx]
            if kind == "same":
                yield idx, lc, g.total
                continue
            if kind == "tilt":
                suggestion = self._suggest(g.tilts, lc)
                if suggestion is not None:
                    yield idx, suggestion, g.total
                continue
            ag, prop = extra
            if prop is None:
                continue  # unseparable mixed evidence: take another c
            if prop.satisfied_by(query):
                yield idx, lc, g.total
            else:
                suggestion = self._suggest(g.tilts, lc)
                if suggestion is not None:
                    yield idx, suggestion, g.total

    def classify(self, query: Item, neighbor_budget: int) -> Prediction:
        if neighbor_budget < 1:
            raise DataError("neighbor_budget must be at least 1")
        votes: Counter = Counter()
        examined = 0
        voting = 0
        for _, vote, pair_count in self.votes(query):
            votes[vote] += 1
            examined += pair_count
            voting += 1
            if voting >= neighbor_budget:
                break
        return _prediction(votes, examined, self._label_order)


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

    def classify(self, query: Item) -> Prediction:
        _check_query(self._train, query)
        labels = self._train.labels
        ranked = _nearest_first(self._train.items, query)
        votes = Counter(labels[i] for i in ranked[: self._k])
        return Prediction(_majority(votes, self._label_order), dict(votes), 0, False)


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
    randomness (fold shuffling and per-fold pair-mining subsamples)."""

    strategy: str
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
        if self.min_support < 1:
            raise DataError("min_support must be at least 1")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise DataError("min_confidence must lie in [0, 1]")


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
        cfg = {
            "strategy": self.config.strategy,
            "folds": self.config.folds,
            "seed": self.config.seed,
            "radius": self.config.radius,
            "neighbor_budget": self.config.neighbor_budget,
            "max_literals": self.config.max_literals,
            "k": self.config.k,
            "min_support": self.config.min_support,
            "min_confidence": self.config.min_confidence,
            "subsample": self.config.subsample,
            "fallback": self.config.fallback,
        }
        return {
            "config": cfg,
            "dataset": {
                "rows": self.dataset_rows,
                "attributes": self.dataset_attributes,
                "class_counts": dict(sorted(self.class_counts.items())),
            },
            "stratified": self.stratified,
            "fold_assignment": [list(f) for f in self.fold_indices],
            "per_fold": [
                {
                    "fold": fr.fold,
                    "test_size": fr.test_size,
                    "correct": fr.correct,
                    "accuracy": fr.accuracy,
                    "abstained": fr.abstained,
                    "triplets": fr.triplets,
                }
                for fr in self.fold_results
            ],
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
    assignment: list[list[int]] = [[] for _ in range(folds)]
    if stratified:
        cursor = 0
        for label in data.class_attr.domain:
            members = by_label[label]
            rng.shuffle(members)
            for idx in members:
                assignment[cursor % folds].append(idx)
                cursor += 1
    else:
        everything = list(range(len(data)))
        rng.shuffle(everything)
        for pos, idx in enumerate(everything):
            assignment[pos % folds].append(idx)
    for fold in assignment:
        fold.sort()
    return assignment, stratified


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


def _prefix_votes(stream, cuts: Sequence[int]) -> dict[int, tuple[Counter, int]]:
    """Votes and summed weights over the first ``cut`` (vote, weight)
    entries of ``stream``, for each cut; the stream is read no further
    than the largest cut, and a cut past its end takes all of it."""
    out: dict[int, tuple[Counter, int]] = {}
    votes: Counter = Counter()
    weight = 0
    taken = 0
    entries = iter(stream)
    for cut in sorted(set(cuts)):
        for vote, w in entries:
            votes[vote] += 1
            weight += w
            taken += 1
            if taken >= cut:
                break
        out[cut] = (Counter(votes), weight)
    return out


def _fold_model(train: Dataset, configs: Sequence[CvConfig], fold: int):
    """One model for a training fold, shared by every config (they differ
    only in the grid parameter).  Returns ``(predict, brute)``: ``predict``
    maps a query to one Prediction per config, and ``brute()`` gives the
    brute-force fallback classifier; ``brute`` is None where that fallback
    is never asked (kNN does not abstain) or would abstain on the same
    queries as the strategy (the baseline is that classifier)."""
    config = configs[0]
    label_order = train.class_attr.domain
    if config.strategy == "baseline":
        model = BruteForceModel(train)
        return lambda q: [model.classify(q)], None
    if config.strategy == "selected":
        mining = _mining_subset(train, config.subsample, config.seed, fold)
        pairs = extract_competent_pairs(mining, config.min_support,
                                        config.min_confidence)
        model = SelectedTripletModel(train, pairs, config.radius)
        return lambda q: [model.classify(q)], lambda: BruteForceModel(train).classify
    if config.strategy == "bongard":
        model = BongardModel(train, config.max_literals)
        budgets = [c.neighbor_budget for c in configs]

        def predict(q: Item) -> list[Prediction]:
            stream = ((vote, count) for _, vote, count in model.votes(q))
            prefixes = _prefix_votes(stream, budgets)
            return [_prediction(*prefixes[b], label_order) for b in budgets]

        return predict, lambda: model._index.vote
    ks = [min(c.k, len(train)) for c in configs]
    labels = train.labels

    def predict(q: Item) -> list[Prediction]:
        _check_query(train, q)
        stream = ((labels[i], 0) for i in _nearest_first(train.items, q))
        prefixes = _prefix_votes(stream, ks)
        return [Prediction(_majority(votes, label_order), dict(votes), 0, False)
                for votes, _ in (prefixes[k] for k in ks)]

    return predict, None  # kNN never abstains


def _evaluate_fold(data: Dataset, configs: Sequence[CvConfig], fold: int,
                   assignment: Sequence[Sequence[int]]) -> list[FoldResult]:
    """Score one fold for every config with a single model build."""
    test_idx = assignment[fold]
    train_idx = [i for f, part in enumerate(assignment) if f != fold for i in part]
    train_idx.sort()
    train = data.subset(train_idx)
    predict, brute = _fold_model(train, configs, fold)
    fallback = None
    if configs[0].fallback == "knn1":
        fallback = KnnModel(train, 1).classify
    elif configs[0].fallback == "brute" and brute is not None:
        fallback = brute()
    width = len(configs)
    correct = [0] * width
    abstained = [0] * width
    triplets = [0] * width
    for i in test_idx:
        query = data.items[i]
        rescue = None  # the fallback answer, asked at most once per query
        for v, pred in enumerate(predict(query)):
            triplets[v] += pred.triplets_examined
            if pred.abstained:
                abstained[v] += 1
                if fallback is not None:
                    if rescue is None:
                        rescue = fallback(query)
                    pred = rescue
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

    def run(f: int) -> list[FoldResult]:
        return _evaluate_fold(data, configs, f, assignment)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            per_fold = list(pool.map(run, range(config.folds)))
    else:
        per_fold = [run(f) for f in range(config.folds)]
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
    given (data, config), whatever the worker count."""
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
