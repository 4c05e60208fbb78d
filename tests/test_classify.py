"""Classifier semantics, pair mining, case analysis and the CV harness."""

import json
import random
import sys
import warnings
from collections import Counter
from dataclasses import replace
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import assume, example, given, strategies as st

from anaprop.core import (
    Attribute, Schema, SchemaError, agreement, ap_holds_vec, diff, hamming,
    pairs_with_change, solve,
)
from anaprop.data import (
    DataError,
    Dataset,
    PlantedRule,
    generate_affine,
    generate_monk,
    generate_planted_rules,
)
from anaprop.classify import (
    FALLBACKS,
    GRID_PARAMETERS,
    STRATEGIES,
    BongardModel,
    BruteForceModel,
    CompetentPair,
    CvConfig,
    KnnModel,
    PairKeys,
    Prediction,
    SelectedTripletModel,
    _PairCounts,
    _fold_model,
    analogical_suitability,
    bongard_separation,
    cross_validate,
    cross_validate_grid,
    extract_competent_pairs,
    make_folds,
)
from payload_digests import monk1_sample


def cubic_votes(train: Dataset, query):
    """Literal triple-loop oracle for the baseline vote."""
    votes = Counter()
    examined = 0
    rows = list(zip(train.items, train.labels))
    for a, la in rows:
        for b, lb in rows:
            for c, lc in rows:
                if ap_holds_vec(a, b, c, query):
                    examined += 1
                    x = solve(la, lb, lc)
                    if x is not None:
                        votes[x] += 1
    return dict(votes), examined


def random_dataset(rng, max_rows=9, max_attrs=3, max_domain=3, labels=("p", "q", "r")):
    n_attrs = rng.randint(1, max_attrs)
    schema = Schema.from_pairs(
        (f"a{i}", tuple("xyz"[: rng.randint(2, max_domain)])) for i in range(n_attrs)
    )
    class_attr = Attribute("c", labels[: rng.randint(2, len(labels))])
    m = rng.randint(2, max_rows)
    items = tuple(
        tuple(rng.choice(a.domain) for a in schema.attributes) for _ in range(m)
    )
    lab = tuple(rng.choice(class_attr.domain) for _ in range(m))
    return Dataset(schema, class_attr, items, lab)


class TestBruteForce:
    def test_matches_cubic_oracle_on_random_data(self):
        rng = random.Random(7)
        for _ in range(60):
            ds = random_dataset(rng)
            query = tuple(rng.choice(a.domain) for a in ds.schema.attributes)
            expected_votes, expected_examined = cubic_votes(ds, query)
            pred = BruteForceModel(ds).vote(query)
            assert dict(pred.votes) == expected_votes
            assert pred.triplets_examined == expected_examined
            if not pred.abstained:
                top = max(pred.votes.values())
                assert pred.votes[pred.label] == top
                assert pred.label == min(
                    l for l in ds.class_attr.domain
                    if pred.votes.get(l, 0) == top
                )

    def test_xor_square_leave_one_out_never_errs(self):
        # n=2: the cubic oracle shows every proportion-matching triplet has
        # an unsolvable class equation, so each holdout abstains (affine
        # completeness promises no errors, not votes).  n=3 votes and is
        # exact on every holdout.
        ds = generate_affine(2, (0, 1, 1))
        for holdout in range(4):
            rest = ds.subset([i for i in range(4) if i != holdout])
            pred = BruteForceModel(rest).vote(ds.items[holdout])
            votes, _ = cubic_votes(rest, ds.items[holdout])
            assert votes == {}
            assert pred.abstained
        ds = generate_affine(3, (0, 1, 1, 1))
        for holdout in range(8):
            rest = ds.subset([i for i in range(8) if i != holdout])
            pred = BruteForceModel(rest).vote(ds.items[holdout])
            assert not pred.abstained
            assert pred.label == ds.labels[holdout]

    def test_unanimous_labels_never_invent_another(self):
        schema = Schema.from_pairs([("a", "01"), ("b", "01")])
        ds = Dataset(schema, Attribute("c", ("p", "q")),
                     (("0", "0"), ("0", "1"), ("1", "0")), ("p", "p", "p"))
        pred = BruteForceModel(ds).vote(("1", "1"))
        assert pred.abstained or pred.label == "p"

    def test_coffee_table_predicts_milk(self):
        schema = Schema.from_pairs([
            ("situation", ("sit_1", "sit_2")),
            ("contraind.", ("no", "yes")),
            ("dec.", ("coffee", "none")),
            ("with_sugar", ("no", "yes")),
        ])
        ds = Dataset(schema, Attribute("with_milk", ("no", "yes")), (
            ("sit_1", "yes", "coffee", "no"),
            ("sit_1", "no", "coffee", "yes"),
            ("sit_2", "yes", "coffee", "no"),
        ), ("no", "no", "yes"))
        pred = BruteForceModel(ds).vote(("sit_2", "no", "coffee", "yes"))
        assert pred.label == "yes"

    def test_empty_training_set(self):
        # The baseline's table holds no pair, so it abstains; the case
        # analysis and kNN refuse to build.
        schema = Schema.from_pairs([("a", "01")])
        ds = Dataset(schema, Attribute("c", ("p", "q")), (), ())
        assert BruteForceModel(ds).vote(("0",)).abstained
        for model in (BongardModel, KnnModel):
            with pytest.raises(DataError, match="empty training set"):
                model(ds)

    def test_arity_mismatch(self):
        ds = generate_affine(2, (0, 1, 1))
        with pytest.raises(SchemaError):
            BruteForceModel(ds).vote(("0",))


def suitability_oracle(ds: Dataset):
    """Leave-one-out by the definition: a fresh baseline over the other
    rows for every holdout."""
    n = len(ds)
    wrong = abstained = 0
    for i in range(n):
        rest = ds.subset([j for j in range(n) if j != i])
        pred = BruteForceModel(rest).vote(ds.items[i])
        if pred.abstained:
            abstained += 1
        elif pred.label != ds.labels[i]:
            wrong += 1
    evaluated = n - abstained
    return (wrong / evaluated if evaluated else 0.0, wrong, evaluated,
            abstained, n)


def index_snapshot(counts: _PairCounts, held=((), ())):
    """The two count tables of the index without their 0 entries, which
    every reader takes as absent.  No entry may be negative, and each 0
    entry must be a key of the parallel table of ``held`` (the keys the
    table held before rows were left out), so a removal can empty a key
    but never invent one; a fresh build holds no 0 entry."""
    snapshot = []
    for table, keys in zip((counts.total, counts.labelled), held):
        invented = [entry for entry, n in table.items()
                    if n < 0 or (n == 0 and entry not in keys)]
        assert not invented, invented
        snapshot.append({entry: n for entry, n in table.items() if n})
    return tuple(snapshot)


def held_keys(counts: _PairCounts):
    """The keys of the two count tables, for ``index_snapshot``."""
    return set(counts.total), set(counts.labelled)


def index_groups(counts: _PairCounts):
    """(total, same-label count, tilts per (la, lb)) per key that has
    pairs, read from the two count tables."""
    order = counts.label_order
    groups = {key: (total, counts.labelled.get(key * counts.scale, 0), {})
              for key, total in counts.total.items() if total}
    for extended, n in counts.labelled.items():
        key, slot = divmod(extended, counts.scale)
        if slot and n:
            la, lb = divmod(slot, counts.width)
            groups[key][2][(order[la], order[lb])] = n
    return groups


def monk2_sample():
    """Every fourth row of Monk-2: 108 rows."""
    return generate_monk(2).subset(list(range(0, 432, 4)))


@st.composite
def downdate_scenarios(draw):
    """A dataset, a list of out-sets, each a list of row indices in any
    order and possibly repeated, and a query."""
    n_attrs = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 8))
    item = st.tuples(*[st.sampled_from("xyz") for _ in range(n_attrs)])
    items = tuple(draw(st.lists(item, min_size=n_rows, max_size=n_rows)))
    labels = tuple(draw(st.lists(st.sampled_from("pqr"), min_size=n_rows,
                                 max_size=n_rows)))
    schema = Schema.from_pairs((f"a{i}", tuple("xyz")) for i in range(n_attrs))
    ds = Dataset(schema, Attribute("c", ("p", "q", "r")), items, labels)
    steps = draw(st.lists(st.lists(st.integers(0, n_rows - 1), max_size=4),
                          max_size=8))
    query = draw(item)
    return ds, steps, query


class TestBruteForceModelDowndating:
    @given(downdate_scenarios())
    def test_downdated_index_equals_fresh_build(self, scenario):
        # Each step leaves exactly its rows out, whatever was out before:
        # it puts some rows back and takes others out in one call.
        ds, steps, query = scenario
        index = BruteForceModel(ds)
        for step in steps:
            held = held_keys(index)
            index.leave_out(step)
            live = [i for i in range(len(ds)) if i not in step]
            fresh = BruteForceModel(ds.subset(live))
            assert index.live == [i in live for i in range(len(ds))] and index.complete
            assert index_snapshot(index, held) == index_snapshot(fresh)
            assert index_groups(index) == index_groups(fresh)
            assert as_tuple(index.classify(query)) == as_tuple(fresh.classify(query))

    def test_a_refused_downdate_leaves_the_table_as_it_was(self):
        # A row outside 0..n-1, or a table that does not count every pair
        # of its live rows, is refused before anything moves; naming the
        # rows that are out again, in any order, moves nothing.
        ds = monk2_sample()
        index = BruteForceModel(ds)
        index.leave_out([0, 3])
        pairs = extract_competent_pairs(ds, 2, 0.9)
        selected = SelectedTripletModel(ds, pairs, 2)
        knn, mined = KnnModel(ds), selected.mined(range(len(ds)), range(len(ds)), 2, 0.9)
        query = ds.items[5]
        for table, rows in ((index, [len(ds)]), (index, [-1]), (index, [0, len(ds)]),
                            (selected, [5]), (knn, [5]), (mined, [5]),
                            (index._copy(range(len(ds))), [5])):
            before = (dict(table.total), dict(table.labelled), list(table.live),
                      as_tuple(table.vote(query)))
            with pytest.raises(ValueError):
                table.leave_out(rows)
            assert (dict(table.total), dict(table.labelled), list(table.live),
                    as_tuple(table.vote(query))) == before
        assert as_tuple(selected.vote(query)) == \
            as_tuple(SelectedTripletModel(ds, pairs, 2).vote(query))
        sizes = [sys.getsizeof(index.total), sys.getsizeof(index.labelled)]
        held, before = held_keys(index), index_snapshot(index, held_keys(index))
        index.leave_out([3, 0, 3])
        assert index_snapshot(index, held) == before
        index.leave_out([])
        assert index_snapshot(index, held) == index_snapshot(BruteForceModel(ds))
        assert [sys.getsizeof(index.total), sys.getsizeof(index.labelled)] == sizes


@st.composite
def fold_scenarios(draw):
    """A dataset with duplicate rows and several labels (see
    ``keyed_datasets``), and a random assignment of its rows to 2-4
    folds, each non-empty, so a test fold may be a single row."""
    ds, _ = draw(keyed_datasets(max_classes=4))
    n_folds = draw(st.integers(2, min(4, len(ds))))
    owner = draw(st.permutations(list(range(n_folds))
                                 + draw(st.lists(st.integers(0, n_folds - 1),
                                                 min_size=len(ds) - n_folds,
                                                 max_size=len(ds) - n_folds))))
    return ds, [[i for i, f in enumerate(owner) if f == fold]
                for fold in range(n_folds)]


@st.composite
def lifecycle_scenarios(draw):
    """A dataset with duplicate rows and several labels (see
    ``keyed_datasets``), its queries, and steps: an operation, a number
    that picks the table it applies to among those it applies to, and
    rows."""
    ds, queries = draw(keyed_datasets(max_classes=4))
    rows = st.lists(st.integers(0, len(ds) - 1), max_size=4)
    operation = st.sampled_from(("leave_out", "without", "_copy", "mined", "count_pairs"))
    step = st.tuples(operation, st.integers(0, 63), rows)
    return ds, queries, draw(st.lists(step, min_size=1, max_size=6))


def two_rows(items, labels, steps):
    """A lifecycle scenario over two rows of one attribute."""
    schema = Schema.from_pairs([("a0", ("u", "v"))])
    return Dataset(schema, Attribute("c", ("p", "q")), items, labels), [], steps


class TestRunTableDerivation:
    def run_table(self, ds):
        run = _PairCounts(ds)
        run.count_pairs()
        return run

    @given(fold_scenarios())
    def test_derived_fold_counts_equal_a_fresh_count(self, scenario):
        ds, assignment = scenario
        run = self.run_table(ds)
        for test_idx in assignment:
            train = ds.subset([i for i in range(len(ds)) if i not in test_idx])
            fresh = self.run_table(train)
            left = run.without(test_idx)
            assert index_snapshot(left, held_keys(run)) == index_snapshot(fresh)
            assert left.live == [i not in test_idx for i in range(len(ds))]
            assert left.complete
            assert (left.pair_keys, left.codes) == (run.pair_keys, run.codes)
        # The run's own tables are left as they were.
        assert index_snapshot(run) == index_snapshot(self.run_table(ds))
        assert all(run.live)

    @given(fold_scenarios())
    def test_a_fold_keys_its_rows_as_the_run_does(self, scenario):
        # Values are coded by their place in the schema's domains, so the
        # key of a pair is the same in a table of any rows of the schema.
        ds, assignment = scenario
        run = self.run_table(ds)
        train_idx = [i for part in assignment[1:] for i in part]
        fold = _PairCounts(ds.subset(train_idx)).pair_keys
        for item in ds.items:
            for ours, runs in ((fold.keys_from, run.pair_keys.keys_from),
                               (fold.keys_to, run.pair_keys.keys_to)):
                assert ours(item) == [runs(item)[i] for i in train_idx]

    @given(fold_scenarios())
    def test_models_on_derived_counts_answer_as_fresh_ones(self, scenario):
        ds, assignment = scenario
        test_idx = assignment[0]
        train = ds.subset([i for i in range(len(ds)) if i not in test_idx])
        for model in (BruteForceModel, BongardModel):
            run, fresh = model(ds), model(train)
            derived = run.without(test_idx)
            assert index_snapshot(derived, held_keys(run)) == index_snapshot(fresh)
            for query in map(ds.items.__getitem__, test_idx):
                assert as_tuple(derived.vote(query)) == as_tuple(fresh.vote(query))

    @given(fold_scenarios(), st.integers(1, 2))
    def test_a_derived_case_analysis_answers_as_a_fresh_one(self, scenario,
                                                            max_literals):
        # The run analyses every query first, so a fold that read the
        # run's verdicts would answer from all rows' pairs.
        ds, assignment = scenario
        run = BongardModel(ds, max_literals)
        for query in ds.items:
            list(run.votes(query))
        for test_idx in assignment:
            train_idx = [i for i in range(len(ds)) if i not in test_idx]
            derived = run.without(test_idx)
            fresh = BongardModel(ds.subset(train_idx), max_literals)
            assert derived._rows_of is run._rows_of
            for a, b in product(ds.items, repeat=2):
                assert derived.contexts(diff(a, b)) == fresh.contexts(diff(a, b))
            for query in ds.items:
                assert list(derived.votes(query)) == [
                    (train_idx[i], vote, n) for i, vote, n in fresh.votes(query)]
                assert derived.predictions(query, [1, 2, 5]) == \
                    fresh.predictions(query, [1, 2, 5])

    @given(fold_scenarios(), st.integers(1, 2), st.randoms(use_true_random=False))
    def test_derived_contexts_are_live_filtered_pair_scans(self, scenario, max_literals,
                                                           rng):
        # The run lists each change's pairs once, for whichever table asks
        # first, and every fold filters that list by its own live rows.
        ds, assignment = scenario
        run = BongardModel(ds, max_literals)
        tables = [run] + [run.without(test_idx) for test_idx in assignment]
        rows_of = {}
        for i, item in enumerate(ds.items):
            rows_of.setdefault(item, []).append(i)
        changes = {diff(a, b) for a, b in product(ds.items, repeat=2)}
        visits = list(product(range(len(tables)), sorted(changes, key=repr)))
        rng.shuffle(visits)
        for t, change in visits:
            table, scanned = tables[t], (set(), set())
            steps = [(k, *step) for k, step in enumerate(change) if step is not None]
            for i, j in pairs_with_change(ds.items, rows_of, steps):
                if table.live[i] and table.live[j]:
                    ctx = tuple(ds.items[i][k] for k in agreement(change))
                    scanned[ds.labels[i] != ds.labels[j]].add(ctx)
            assert table.contexts(change) == scanned
        assert all(table._pairs is run._pairs for table in tables)
        assert run._pairs.keys() == changes

    def test_the_selected_brute_fallback_takes_the_test_rows_out_in_place(self):
        # The run's own table is counted in full on the run's first
        # abstention and then serves every fold: each vote leaves the
        # fold's test rows out of it, which puts the last fold's back, so
        # at most one fold's rows are out at a time.  It keeps the keys
        # they empty, at 0, so it never gains a key.  A fold mined after
        # the run is counted still counts only what it mines, so it
        # abstains as the first fold does.
        ds = monk1_sample()
        config = CvConfig(strategy="selected", folds=5, min_support=10_000,
                          fallback="brute")
        run = SelectedTripletModel(ds, (), config.radius)
        full = held_keys(BruteForceModel(ds))
        assignment = make_folds(ds, config.folds, config.seed)[0]
        out_sets = [[]] + assignment
        for fold, test_idx in enumerate(assignment):
            train = ds.subset([i for i in range(len(ds)) if i not in test_idx])
            assert run.complete == (fold > 0)
            predict, fallback = _fold_model(run, [config], fold, test_idx)
            for i in test_idx:
                assert as_tuple(predict(ds.items[i])[0]) == (None, {}, 0, True)
                assert [j for j, live in enumerate(run.live) if not live] \
                    in out_sets[:fold + 2]
                assert as_tuple(fallback(ds.items[i])) == \
                    as_tuple(BruteForceModel(train).vote(ds.items[i]))
                assert run.live == [j not in test_idx for j in range(len(ds))]
                assert held_keys(run) == full
            assert index_snapshot(run, full) == index_snapshot(BruteForceModel(train))

    @given(fold_scenarios(), st.lists(st.integers(1, 16), min_size=1, max_size=4))
    def test_a_derived_knn_answers_as_a_fresh_one(self, scenario, ks):
        # kNN's fold model is a copy of the run's table with the training
        # rows live; the knn1 fallback of every fold model is its own 1-NN.
        ds, assignment = scenario
        run, counted = KnnModel(ds), BruteForceModel(ds)
        for test_idx in assignment:
            train_idx = [i for i in range(len(ds)) if i not in test_idx]
            derived, fresh = run._copy(train_idx), KnnModel(ds.subset(train_idx))
            assert derived.pair_keys is run.pair_keys
            for query in ds.items:
                assert list(derived.ranked(derived.query_keys(query))) == [
                    train_idx[i] for i in fresh.ranked(fresh.query_keys(query))]
                assert derived.predictions(query, ks) == fresh.predictions(query, ks)
                assert counted.without(test_idx).nearest(query, [1]) == \
                    [fresh.classify(query, 1)]
        assert all(run.live)

    @given(fold_scenarios(), st.integers(1, 3), st.sampled_from([0.0, 0.5, 0.9, 1.0]),
           st.integers(0, 4), st.randoms(use_true_random=False))
    def test_a_derived_selected_model_answers_as_a_fresh_one(
            self, scenario, min_support, min_confidence, radius, rng):
        # Each fold mines a sample of its training rows; the fresh model
        # lists the competent pairs of that sample.
        ds, assignment = scenario
        run = SelectedTripletModel(ds, (), radius)
        for test_idx in assignment:
            train_idx = [i for i in range(len(ds)) if i not in test_idx]
            mining = sorted(rng.sample(train_idx, rng.randint(1, len(train_idx))))
            derived = run.mined(train_idx, mining, min_support, min_confidence)
            pairs = extract_competent_pairs_oracle(ds.subset(mining), min_support,
                                                   min_confidence)
            fresh = SelectedTripletModel(ds.subset(train_idx), pairs, radius)
            assert index_snapshot(derived) == index_snapshot(fresh)
            assert derived.live == [i in train_idx for i in range(len(ds))]
            assert derived.pair_keys is run.pair_keys
            for query in ds.items:
                assert as_tuple(derived.vote(query)) == as_tuple(fresh.vote(query))
        assert (run.total, run.labelled) == ({}, {}) and all(run.live)

    def test_a_run_keys_its_rows_once(self, monkeypatch):
        # Every fold model and fallback is a copy of one run table, so a
        # run builds one PairKeys whatever its strategy, fallback or grid.
        # It counts every pair at most once: the baseline and the case
        # analysis when they build the table, the selected strategy's
        # brute fallback on the run's first abstention.
        ds = monk1_sample()
        built, counted = [], []
        init, count_pairs = PairKeys.__init__, _PairCounts.count_pairs

        def building(keys, schema, items):
            built.append(len(items))
            init(keys, schema, items)

        def counting(table):
            counted.append(len(table.data))
            count_pairs(table)

        monkeypatch.setattr(PairKeys, "__init__", building)
        monkeypatch.setattr(_PairCounts, "count_pairs", counting)
        for strategy, fallback in product(STRATEGIES, FALLBACKS):
            config = CvConfig(strategy=strategy, folds=5, fallback=fallback,
                              subsample=0.8 if strategy == "selected" else None)
            runs = [lambda: cross_validate(ds, config)]
            if strategy in GRID_PARAMETERS:
                runs.append(lambda: cross_validate_grid(ds, config, [1, 3]))
            counts_all = strategy in ("baseline", "bongard") or \
                (strategy, fallback) == ("selected", "brute")
            for run in runs:
                built.clear()
                counted.clear()
                run()
                assert built == [len(ds)], (strategy, fallback)
                assert counted == [len(ds)] * counts_all, (strategy, fallback)


class TestTableLifecycle:
    """Tables that have already answered, so they hold counts and, for the
    case analysis, verdicts, are changed in place or copied in any order.
    After each step every table answers as a fresh model of its live
    rows: a table that counts every pair of them as the baseline (and
    the case analysis) of those rows, a copy made by ``_copy`` as one
    that counts nothing, a mined one as the same ``mined`` call on a run
    table that holds no pairs, and one of listed pairs as a fresh one."""

    MIN_SUPPORT, MIN_CONFIDENCE, BUDGETS = 1, 0.5, [1, 3, 5, 200]

    @staticmethod
    def applies(step, table, tag):
        if step in ("leave_out", "without"):
            return table.complete
        if step == "mined":
            return isinstance(table, SelectedTripletModel)
        if step == "count_pairs":  # only into empty counts with every row live
            return tag == ("uncounted",) and all(table.live)
        return True

    def check(self, ds, queries, table, tag, max_literals, radius):
        live = [i for i, on in enumerate(table.live) if on]
        sub = ds.subset(live)
        if tag[0] == "mined":
            fresh = SelectedTripletModel(ds, (), radius).mined(*tag[1:])
        elif tag[0] == "listed":
            fresh = SelectedTripletModel(ds, tag[1], radius)
        else:
            fresh = BruteForceModel(sub) if tag[0] == "counted" else _PairCounts(sub)
        assert index_groups(table) == index_groups(fresh)
        for query in queries:
            assert as_tuple(table.vote(query)) == as_tuple(fresh.vote(query))
            assert table.nearest(query, [1, 3]) == _PairCounts(sub).nearest(query, [1, 3])
            if isinstance(fresh, SelectedTripletModel):
                assert as_tuple(table.classify(query)) == as_tuple(fresh.classify(query))
            if isinstance(table, BongardModel):
                want = [Prediction(None, {}, 0, True)] * len(self.BUDGETS)
                if tag[0] == "counted" and live:
                    want = BongardModel(sub, max_literals).predictions(query, self.BUDGETS)
                assert table.predictions(query, self.BUDGETS) == want

    @given(lifecycle_scenarios(), st.integers(1, 2), st.integers(0, 3))
    # The case analysis leaves a row out, or is copied, after answering
    # every row, and the table of listed pairs mines its own rows.
    @example(two_rows((("u",), ("u",)), ("p", "p"), [("leave_out", 1, [0])]), 1, 0)
    @example(two_rows((("u",), ("u",)), ("p", "p"), [("_copy", 1, [])]), 1, 0)
    @example(two_rows((("u",), ("v",)), ("p", "q"), [("mined", 0, [])]), 1, 1)
    def test_every_table_answers_as_a_fresh_one_of_its_live_rows(self, scenario,
                                                                 max_literals, radius):
        ds, queries, steps = scenario
        queries = list(ds.items) + queries
        pairs = extract_competent_pairs(ds, self.MIN_SUPPORT, self.MIN_CONFIDENCE)
        tables = [(BruteForceModel(ds), ("counted",)),
                  (BongardModel(ds, max_literals), ("counted",)),
                  (SelectedTripletModel(ds, pairs, radius), ("listed", pairs)),
                  (SelectedTripletModel(ds, (), radius), ("uncounted",)),
                  (KnnModel(ds), ("uncounted",))]
        for table, tag in tables:
            self.check(ds, queries, table, tag, max_literals, radius)
        for step, pick, rows in steps:
            chosen = [(table, tag) for table, tag in tables
                      if self.applies(step, table, tag)]
            if not chosen:
                continue
            table, tag = chosen[pick % len(chosen)]
            others = [i for i in range(len(ds)) if i not in rows]
            if step == "leave_out":
                table.leave_out(rows)
            elif step == "without":
                tables.append((table.without(rows), ("counted",)))
            elif step == "_copy":
                tables.append((table._copy(others), ("uncounted",)))
            elif step == "mined":
                mined = (others, others, self.MIN_SUPPORT, self.MIN_CONFIDENCE)
                tables.append((table.mined(*mined), ("mined", *mined)))
            else:
                table.count_pairs()
                tables[tables.index((table, tag))] = (table, ("counted",))
            for table, tag in tables:
                self.check(ds, queries, table, tag, max_literals, radius)

    def test_the_two_answers_of_tables_that_kept_stale_counts(self):
        # On Monk-2's every fourth row: a case analysis that answered
        # every row before it left row 5 out once answered row 5 from the
        # verdicts of all rows (298 triplets, {'0': 44}), and ``mined`` on
        # a table of listed pairs added the mined counts to theirs (603
        # triplets, {'0': 402}).
        ds = monk2_sample()
        n = len(ds)
        case_analysis = BongardModel(ds)
        for query in ds.items:
            case_analysis.predictions(query, self.BUDGETS)
        case_analysis.leave_out([5])
        fresh = BongardModel(ds.subset([i for i in range(n) if i != 5]))
        answer = case_analysis.predictions(ds.items[5], self.BUDGETS)
        assert answer == fresh.predictions(ds.items[5], self.BUDGETS)
        assert as_tuple(answer[-1]) == ("0", {"0": 28, "1": 4}, 242, False)
        rows = range(n)
        listed = SelectedTripletModel(ds, extract_competent_pairs(ds, 2, 0.9), 2)
        mined = listed.mined(rows, rows, 2, 0.9)
        assert index_groups(mined) == \
            index_groups(SelectedTripletModel(ds, (), 2).mined(rows, rows, 2, 0.9))
        assert as_tuple(mined.classify(ds.items[5])) == ("0", {"0": 201}, 201, False)


class TestSuitability:
    def test_affine_targets_are_error_free(self):
        for coeffs in [(0, 1, 1), (1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1)]:
            ds = generate_affine(len(coeffs) - 1, coeffs)
            report = analogical_suitability(ds)
            assert report.error_ratio == 0.0
            if len(coeffs) > 3:  # n=2 parity abstains on every holdout
                assert report.abstained == 0

    def test_every_affine_function_up_to_n3_is_error_free(self):
        # The n=4 sweep lives in the acceptance suite.
        for n in (2, 3):
            for coeffs in product((0, 1), repeat=n + 1):
                ds = generate_affine(n, coeffs)
                assert analogical_suitability(ds).error_ratio == 0.0

    def test_constant_labels(self):
        schema = Schema.from_pairs([("a", "01"), ("b", "01")])
        ds = Dataset(schema, Attribute("c", ("p", "q")),
                     tuple(product("01", repeat=2)), ("p",) * 4)
        assert analogical_suitability(ds).error_ratio == 0.0

    def test_majority_of_three(self):
        # Frozen from the literal cubic leave-one-out oracle: the three
        # two-one rows tie 6:6 and break to the wrong label.
        points = tuple(product("01", repeat=3))
        labels = tuple("1" if sum(map(int, p)) >= 2 else "0" for p in points)
        schema = Schema.from_pairs([(f"x{i}", "01") for i in (1, 2, 3)])
        ds = Dataset(schema, Attribute("f", ("0", "1")), points, labels)
        report = analogical_suitability(ds)
        assert report.error_ratio == 0.375
        assert (report.wrong, report.evaluated, report.abstained) == (3, 8, 0)

    def test_matches_rebuild_per_row_oracle(self):
        rng = random.Random(13)
        datasets = [random_dataset(rng, max_rows=12) for _ in range(40)]
        # Two-variable parity abstains on every holdout.
        datasets.append(generate_affine(2, (0, 1, 1)))
        seen_abstain = seen_wrong = False
        for ds in datasets:
            if len(ds) < 4:
                continue
            expected = suitability_oracle(ds)
            report = analogical_suitability(ds)
            assert (report.error_ratio, report.wrong, report.evaluated,
                    report.abstained, report.total) == expected
            seen_abstain |= report.abstained > 0
            seen_wrong |= report.wrong > 0
        assert seen_abstain and seen_wrong

    def test_a_sweep_never_grows_its_table(self, monkeypatch):
        # Each holdout's emptied keys stay at 0 until the row is put back,
        # so the swept table, with its last row still out, holds exactly a
        # fresh build's keys, and its dicts have not grown.  Putting that
        # row back restores a fresh build's counts.
        ds = monk1_sample()
        fresh = BruteForceModel(ds)
        built = []
        count_pairs = _PairCounts.count_pairs

        def counting(table):
            count_pairs(table)
            built.append((table, sys.getsizeof(table.total), sys.getsizeof(table.labelled)))

        monkeypatch.setattr(_PairCounts, "count_pairs", counting)
        analogical_suitability(ds)
        (swept, *sizes), = built
        assert held_keys(swept) == held_keys(fresh)
        assert swept.live == [i < len(ds) - 1 for i in range(len(ds))]
        assert index_snapshot(swept, held_keys(fresh)) == \
            index_snapshot(BruteForceModel(ds.subset(range(len(ds) - 1))))
        assert [sys.getsizeof(swept.total), sys.getsizeof(swept.labelled)] == sizes
        swept.leave_out([])
        assert swept.total.items() == fresh.total.items()
        assert swept.labelled.items() == fresh.labelled.items()

    def test_needs_four_examples(self):
        ds = generate_affine(2, (0, 1, 1)).subset([0, 1, 2])
        with pytest.raises(DataError):
            analogical_suitability(ds)


def group_and_count_oracle(ds: Dataset):
    """Exhaustive pair grouping: diff -> behavior -> count."""
    table = {}
    for i in range(len(ds)):
        for j in range(len(ds)):
            if i == j or ds.items[i] == ds.items[j]:
                continue
            d = diff(ds.items[i], ds.items[j])
            la, lb = ds.labels[i], ds.labels[j]
            behavior = "same" if la == lb else (la, lb)
            table.setdefault(d, Counter())[behavior] += 1
    return table


class TestCompetentPairs:
    def test_exception_free_rule_has_confidence_one(self):
        ds, truths = generate_planted_rules([PlantedRule(pairs=3)])
        pairs = extract_competent_pairs(ds, min_support=2, min_confidence=0.9)
        planted = [p for p in pairs if p.change == truths[0].change]
        assert len(planted) == 3
        assert all(p.confidence == 1.0 and p.support == 3 for p in planted)

    def test_exceptions_lower_confidence(self):
        ds, truths = generate_planted_rules([PlantedRule(pairs=4, exceptions=1)])
        pairs = extract_competent_pairs(ds, min_support=1, min_confidence=0.0)
        tilted = [p for p in pairs
                  if p.change == truths[0].change and p.label_a != p.label_b]
        exceptions = [p for p in pairs
                      if p.change == truths[0].change and p.label_a == p.label_b]
        assert len(tilted) == 3 and all(p.confidence == 0.75 for p in tilted)
        assert len(exceptions) == 1 and exceptions[0].confidence == 0.25

    def test_three_planted_rules_recovered_against_oracle(self):
        rules = [PlantedRule(pairs=4, exceptions=1),
                 PlantedRule(pairs=3),
                 PlantedRule(pairs=3, exceptions=0, label_from="c1",
                             label_to="c0")]
        ds, truths = generate_planted_rules(rules)
        assert len(ds) == 20
        oracle = group_and_count_oracle(ds)
        mined = extract_competent_pairs(ds, min_support=2, min_confidence=0.7)
        for truth in truths:
            group = oracle[truth.change]
            behavior = "same" if truth.tilt is None else truth.tilt
            assert group[behavior] == truth.support
            matching = [p for p in mined if p.change == truth.change
                        and (p.label_a == p.label_b if truth.tilt is None
                             else p.tilt == truth.tilt)]
            assert len(matching) == truth.support
            assert all(p.confidence == truth.confidence for p in matching)
        # Everything mined must agree with the oracle's counts.
        for p in mined:
            group = oracle[p.change]
            behavior = "same" if p.label_a == p.label_b else p.tilt
            assert p.support == group[behavior]
            assert p.confidence == group[behavior] / sum(group.values())

    def test_thresholds_validated(self):
        ds, _ = generate_planted_rules([PlantedRule(pairs=2)])
        with pytest.raises(DataError):
            extract_competent_pairs(ds, min_support=0)
        with pytest.raises(DataError):
            extract_competent_pairs(ds, min_confidence=1.5)


class TestSelectedTriplets:
    def test_votes_are_subset_of_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            ds = random_dataset(rng, max_rows=8)
            pairs = extract_competent_pairs(ds, min_support=1, min_confidence=0.0)
            if not pairs:
                continue
            query = tuple(rng.choice(a.domain) for a in ds.schema.attributes)
            brute = BruteForceModel(ds).vote(query)
            sel = SelectedTripletModel(ds, pairs, ds.schema.arity).vote(query)
            for label, count in sel.votes.items():
                assert count <= brute.votes.get(label, 0)

    def test_agrees_with_brute_force_on_clean_planted_rules(self):
        ds, _ = generate_planted_rules(
            [PlantedRule(pairs=4), PlantedRule(pairs=3)]
        )
        pairs = extract_competent_pairs(ds, min_support=2, min_confidence=0.9)
        rng = random.Random(3)
        compared = 0
        for _ in range(50):
            query = tuple(rng.choice(a.domain) for a in ds.schema.attributes)
            sel = SelectedTripletModel(ds, pairs, 2).vote(query)
            brute = BruteForceModel(ds).vote(query)
            if not sel.abstained and not brute.abstained:
                compared += 1
                assert sel.label == brute.label
        assert compared > 0

    def test_radius_zero_on_training_item(self):
        ds, _ = generate_planted_rules([PlantedRule(pairs=3)])
        pairs = extract_competent_pairs(ds, min_support=1, min_confidence=0.0)
        query = ds.items[0]
        pred = SelectedTripletModel(ds, pairs, 0).vote(query)
        # c must equal the query, and competent pairs all carry a change,
        # so no triplet can qualify at radius 0.
        assert pred.abstained

    def test_empty_pair_list_abstains(self):
        # With no competent pair the table counts nothing: every query,
        # a row or not, is voted on by no triplet.
        ds, _ = generate_planted_rules([PlantedRule(pairs=2)])
        model = SelectedTripletModel(ds, [], ds.schema.arity)
        fresh = tuple(a.domain[-1] for a in ds.schema.attributes)
        for query in (ds.items[0], fresh):
            assert as_tuple(model.vote(query)) == (None, {}, 0, True)

    def test_negative_radius_rejected(self):
        ds, _ = generate_planted_rules([PlantedRule(pairs=3)])
        pairs = extract_competent_pairs(ds, min_support=1, min_confidence=0.0)
        with pytest.raises(DataError, match="radius"):
            SelectedTripletModel(ds, pairs, -1)
        with pytest.raises(DataError, match="radius"):
            SelectedTripletModel(ds, (), -1)


def separation_oracle(same_ctx, diff_ctx, attrs, domains, max_literals):
    """Exhaustive search over all value conjunctions up to the size bound."""
    pool = [(a, v) for a in attrs for v in domains[a]]
    for size in range(1, max_literals + 1):
        for combo in combinations(pool, size):
            if len({a for a, _ in combo}) < size:
                continue
            pos = {a: i for i, a in enumerate(attrs)}
            def sat(ctx):
                return all(ctx[pos[a]] == v for a, v in combo)
            if all(sat(c) for c in same_ctx) and not any(sat(c) for c in diff_ctx):
                return combo
    return None


class TestBongardSeparation:
    def make_pairs(self, contexts, change=("u", "v")):
        # Items: (ctx..., change attribute); context attrs are 0..len-1.
        return [((*ctx, change[0]), (*ctx, change[1])) for ctx in contexts]

    def test_single_literal_separator(self):
        same = self.make_pairs([("g", "a"), ("g", "b")])
        other = self.make_pairs([("h", "a"), ("h", "b")])
        prop = bongard_separation(same, other, (0, 1), max_literals=2)
        assert prop is not None
        assert prop.literals == ((0, "g"),)

    def test_identical_contexts_are_unseparable(self):
        same = self.make_pairs([("g", "a")])
        other = self.make_pairs([("g", "a")])
        assert bongard_separation(same, other, (0, 1), max_literals=3) is None

    def test_xor_contexts_need_more_than_conjunctions(self):
        same = self.make_pairs([("0", "0"), ("1", "1")])
        other = self.make_pairs([("0", "1"), ("1", "0")])
        assert bongard_separation(same, other, (0, 1), max_literals=1) is None
        assert bongard_separation(same, other, (0, 1), max_literals=2) is None
        oracle = separation_oracle({("0", "0"), ("1", "1")},
                                   {("0", "1"), ("1", "0")},
                                   (0, 1), {0: "01", 1: "01"}, 2)
        assert oracle is None

    def test_two_literal_separator_found_iff_oracle_finds_one(self):
        same = self.make_pairs([("0", "0")])
        other = self.make_pairs([("0", "1"), ("1", "0")])
        assert bongard_separation(same, other, (0, 1), max_literals=1) is None
        prop = bongard_separation(same, other, (0, 1), max_literals=2)
        oracle = separation_oracle({("0", "0")}, {("0", "1"), ("1", "0")},
                                   (0, 1), {0: "01", 1: "01"}, 2)
        assert prop is not None and oracle is not None
        assert prop.literals == ((0, "0"), (1, "0"))

    def test_returned_property_is_sound(self):
        rng = random.Random(5)
        for _ in range(50):
            ctxs = {tuple(rng.choice("01") for _ in range(3)) for _ in range(4)}
            ctxs = sorted(ctxs)
            if len(ctxs) < 2:
                continue
            cut = rng.randint(1, len(ctxs) - 1)
            same = self.make_pairs(ctxs[:cut])
            other = self.make_pairs(ctxs[cut:])
            prop = bongard_separation(same, other, (0, 1, 2), max_literals=3)
            oracle = separation_oracle(set(ctxs[:cut]), set(ctxs[cut:]),
                                       (0, 1, 2), {i: "01" for i in range(3)}, 3)
            assert (prop is None) == (oracle is None)
            if prop is not None:
                assert all(a[0:len(a)] and prop.satisfied_by(a) for a, _ in same)
                assert not any(prop.satisfied_by(a) for a, _ in other)

    def test_empty_side_rejected(self):
        same = self.make_pairs([("g", "a")])
        with pytest.raises(DataError):
            bongard_separation(same, [], (0, 1), 1)


def case3_dataset():
    """Ten rows; the (u -> v) change keeps label p in context A2=g and
    tilts p -> q in context A2=h."""
    schema = Schema.from_pairs([
        ("A1", ("x", "y", "z")),
        ("A2", ("g", "h")),
        ("A3", ("u", "v")),
    ])
    rows = [
        (("z", "g", "u"), "p"),
        (("z", "h", "u"), "p"),
        (("x", "g", "u"), "p"),
        (("x", "g", "v"), "p"),
        (("y", "g", "u"), "p"),
        (("y", "g", "v"), "p"),
        (("x", "h", "u"), "p"),
        (("x", "h", "v"), "q"),
        (("y", "h", "u"), "p"),
        (("y", "h", "v"), "q"),
    ]
    return Dataset(schema, Attribute("c", ("p", "q")),
                   tuple(r for r, _ in rows), tuple(l for _, l in rows))


class TestBongardClassify:
    def test_case1_everywhere_copies_nearest_label(self):
        # Label depends only on the first attribute, so groups over
        # second-attribute changes are uniformly same-label.
        schema = Schema.from_pairs([("x", "01"), ("y", "01")])
        items = tuple(product("01", repeat=2))
        labels = tuple(item[0] for item in items)
        ds = Dataset(schema, Attribute("c", ("0", "1")), items, labels)
        for holdout in range(4):
            rest = ds.subset([i for i in range(4) if i != holdout])
            pred = BongardModel(rest, max_literals=2).classify(ds.items[holdout], 1)
            assert pred.label == ds.labels[holdout]

    def test_uniform_same_label_groups_copy_the_nearest_voting_label(self):
        # With one label everywhere, every pair group is uniformly
        # same-label, and each neighbor's vote copies its own label.
        schema = Schema.from_pairs([("a", "012"), ("b", "01")])
        items = (("0", "0"), ("1", "0"), ("2", "1"), ("0", "1"))
        ds = Dataset(schema, Attribute("c", ("p", "q")), items, ("p",) * 4)
        for query in [("1", "1"), ("2", "0")]:
            pred = BongardModel(ds, max_literals=2).classify(query, 1)
            assert pred.label == "p"
            assert pred.votes == {"p": 1}

    def test_case3_votes_follow_the_separator(self):
        ds = case3_dataset()
        # Query in context g: satisfies P = (A2=g), copies the neighbor.
        pred = BongardModel(ds, max_literals=2).classify(("z", "g", "v"), 1)
        assert pred.label == "p"
        # Query in context h: fails P, takes the tilted label.
        pred = BongardModel(ds, max_literals=2).classify(("z", "h", "v"), 1)
        assert pred.label == "q"

    def test_case3_matches_property_oracle(self):
        ds = case3_dataset()
        target = diff(("z", "g", "u"), ("z", "g", "v"))
        same_ctx = set()
        diff_ctx = set()
        for i in range(len(ds)):
            for j in range(len(ds)):
                if i != j and diff(ds.items[i], ds.items[j]) == target:
                    ctx = (ds.items[i][0], ds.items[i][1])
                    if ds.labels[i] == ds.labels[j]:
                        same_ctx.add(ctx)
                    else:
                        diff_ctx.add(ctx)
        oracle = separation_oracle(same_ctx, diff_ctx, (0, 1),
                                   {0: ("x", "y", "z"), 1: ("g", "h")}, 2)
        assert oracle == ((1, "g"),)

    def test_case_agreement_with_analogical_inference(self):
        # In clean case-1/case-2 groups the per-neighbor vote must equal
        # solve(label(a), label(b), label(c)) for any group representative.
        ds, _ = generate_planted_rules([PlantedRule(pairs=3)])
        model = BongardModel(ds, max_literals=2)
        query = ("ctx000", "hi")
        seen = False
        for idx, vote, _ in model.votes(query):
            d = diff(ds.items[idx], query)
            reps = [
                (ds.labels[i], ds.labels[j])
                for i in range(len(ds))
                for j in range(len(ds))
                if i != j and diff(ds.items[i], ds.items[j]) == d
            ]
            behaviors = {la == lb for la, lb in reps}
            if len(behaviors) == 1:  # clean case 1 or case 2
                for la, lb in reps:
                    expected = solve(la, lb, ds.labels[idx])
                    if expected is not None:
                        assert vote == expected
                        seen = True
        assert seen

    def test_abstains_without_usable_neighbors(self):
        schema = Schema.from_pairs([("a", "01")])
        ds = Dataset(schema, Attribute("c", ("p", "q")), (("0",),), ("p",))
        # The only difference group is the identity; a fresh query at
        # distance 1 meets an empty pair group and the neighbor is skipped.
        pred = BongardModel(ds, max_literals=1).classify(("1",), 1)
        assert pred.abstained

    def test_parameter_validation(self):
        ds = case3_dataset()
        for budget in (0, -1):
            with pytest.raises(DataError):
                BongardModel(ds, max_literals=1).classify(("z", "g", "v"), budget)
            with pytest.raises(DataError):
                BongardModel(ds).predictions(("z", "g", "v"), [3, budget])
        with pytest.raises(DataError):
            BongardModel(ds, max_literals=0)


class TestKnn:
    def test_exact_match_with_k1(self):
        ds = case3_dataset()
        for i in range(len(ds)):
            assert KnnModel(ds).classify(ds.items[i], 1).label == ds.labels[i]

    def test_five_point_hand_dataset(self):
        # Distances from query (0,0,0): row0=0, row1=1, row2=2, row3=2, row4=3.
        schema = Schema.from_pairs([("a", "01"), ("b", "01"), ("c", "01")])
        ds = Dataset(schema, Attribute("l", ("p", "q")), (
            ("0", "0", "0"),
            ("1", "0", "0"),
            ("1", "1", "0"),
            ("0", "1", "1"),
            ("1", "1", "1"),
        ), ("p", "q", "q", "q", "q"))
        query = ("0", "0", "0")
        assert KnnModel(ds).classify(query, 1).label == "p"
        assert KnnModel(ds).classify(query, 3).label == "q"  # p,q,q by distance
        # k=2 ties p and q at one vote each; "p" < "q" in domain order.
        assert KnnModel(ds).classify(query, 2).label == "p"

    def test_k_bounds(self):
        ds = case3_dataset()
        for k in (0, -1):
            with pytest.raises(DataError):
                KnnModel(ds).predictions(ds.items[0], [1, k])


def bongard_classify_oracle(train: Dataset, query, neighbor_budget: int,
                            max_literals: int) -> Prediction:
    """The Bongard vote for one budget, counted one voting neighbor at a
    time until the budget is spent."""
    votes = Counter()
    examined = 0
    voting = 0
    for _, vote, pair_count in BongardModel(train, max_literals).votes(query):
        votes[vote] += 1
        examined += pair_count
        voting += 1
        if voting >= neighbor_budget:
            break
    return Prediction(*prediction_oracle(votes, examined, train.class_attr.domain))


def knn_classify_oracle(train: Dataset, query, k: int) -> Prediction:
    """The majority label among the first k rows ranked by Hamming distance
    to the query (ties by row order); a k past the end takes every row."""
    ranked = sorted(range(len(train)),
                    key=lambda i: (hamming(train.items[i], query), i))
    votes = Counter(train.labels[i] for i in ranked[:k])
    return Prediction(*prediction_oracle(votes, 0, train.class_attr.domain))


def mining_subset_oracle(train: Dataset, cfg: CvConfig, fold: int) -> Dataset:
    """The fold's mining rows: a seeded sample of ``subsample`` of the
    training rows, at least 2, or all of them."""
    if cfg.subsample is None:
        return train
    order = list(range(len(train)))
    random.Random(cfg.seed * 1_000_003 + fold).shuffle(order)
    return train.subset(sorted(order[:max(2, round(cfg.subsample * len(train)))]))


def literal_cv_folds(ds: Dataset, cfg: CvConfig):
    """Per-fold (correct, abstained, triplets) by the definition: a fresh
    model per query, and a freshly built fallback asked on each
    abstention."""
    assignment, _ = make_folds(ds, cfg.folds, cfg.seed)
    out = []
    for fold, test_idx in enumerate(assignment):
        train = ds.subset(sorted(i for f, part in enumerate(assignment)
                                 if f != fold for i in part))
        if cfg.strategy == "selected":
            pairs = extract_competent_pairs_oracle(
                mining_subset_oracle(train, cfg, fold), cfg.min_support,
                cfg.min_confidence)
        correct = abstained = triplets = 0
        for i in test_idx:
            query = ds.items[i]
            if cfg.strategy == "baseline":
                pred = Prediction(*baseline_vote_oracle(train, query))
            elif cfg.strategy == "selected":
                pred = Prediction(*selected_vote_oracle(train, pairs, query, cfg.radius))
            elif cfg.strategy == "bongard":
                pred = bongard_classify_oracle(train, query, cfg.neighbor_budget,
                                               cfg.max_literals)
            else:
                pred = knn_classify_oracle(train, query, cfg.k)
            triplets += pred.triplets_examined
            if pred.abstained:
                abstained += 1
                if cfg.fallback == "knn1":
                    pred = knn_classify_oracle(train, query, 1)
                elif cfg.fallback == "brute":
                    pred = Prediction(*baseline_vote_oracle(train, query))
            if not pred.abstained and pred.label == ds.labels[i]:
                correct += 1
        out.append((correct, abstained, triplets))
    return out


def make_folds_oracle(ds: Dataset, folds: int, seed: int):
    """Fold assignment by its two literal dealing loops: round-robin over
    the per-class shuffles in class-domain order, or over one shuffle of
    all rows when some class has fewer members than folds."""
    rng = random.Random(seed)
    by_label = {label: [] for label in ds.class_attr.domain}
    for i, label in enumerate(ds.labels):
        by_label[label].append(i)
    stratified = all(len(v) >= folds for v in by_label.values() if v)
    assignment = [[] for _ in range(folds)]
    if stratified:
        cursor = 0
        for label in ds.class_attr.domain:
            members = by_label[label]
            rng.shuffle(members)
            for idx in members:
                assignment[cursor % folds].append(idx)
                cursor += 1
    else:
        everything = list(range(len(ds)))
        rng.shuffle(everything)
        for pos, idx in enumerate(everything):
            assignment[pos % folds].append(idx)
    for fold in assignment:
        fold.sort()
    return assignment, stratified


class TestCrossValidation:
    def majority_dataset(self):
        schema = Schema.from_pairs([("a", "0123456789"), ("b", "01")])
        items = tuple((str(i % 10), str(i % 2)) for i in range(40))
        labels = tuple("p" if i < 24 else "q" for i in range(40))
        return Dataset(schema, Attribute("c", ("p", "q")), items, labels)

    def test_majority_style_strategy_matches_class_frequency(self):
        # kNN with k = |train| votes the training majority everywhere;
        # stratified folds then score exactly the majority frequency.
        ds = self.majority_dataset()
        report = cross_validate(ds, CvConfig(strategy="knn", folds=4, seed=1,
                                             k=len(ds)))
        assert report.mean_accuracy == pytest.approx(60.0)

    def test_same_seed_is_byte_identical(self):
        ds, _ = generate_planted_rules(
            [PlantedRule(pairs=6), PlantedRule(pairs=6, exceptions=2)]
        )
        cfg = CvConfig(strategy="selected", folds=3, seed=5, radius=2,
                       subsample=0.8)
        a = cross_validate(ds, cfg)
        b = cross_validate(ds, cfg)
        assert json.dumps(a.canonical(), sort_keys=True) == \
            json.dumps(b.canonical(), sort_keys=True)

    def test_small_class_falls_back_to_plain_folds(self):
        schema = Schema.from_pairs([("a", "01"), ("b", "01")])
        items = tuple(product("01", repeat=2)) * 3
        labels = ("p",) * 11 + ("q",)
        ds = Dataset(schema, Attribute("c", ("p", "q")), items, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the report's flag says it, nothing else
            report = cross_validate(ds, CvConfig(strategy="knn", folds=3,
                                                 seed=0, k=1))
        assert report.stratified is False

    def test_stratified_fold_assignment_is_deterministic(self):
        ds = self.majority_dataset()
        a, strat_a = make_folds(ds, 4, seed=9)
        b, strat_b = make_folds(ds, 4, seed=9)
        assert a == b and strat_a and strat_b
        assert sorted(i for fold in a for i in fold) == list(range(40))

    @given(sizes=st.lists(st.integers(0, 12), min_size=2, max_size=4),
           folds=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
           shuffle_seed=st.integers(0, 2 ** 16))
    @example(sizes=[0, 4, 7], folds=3, seed=1, shuffle_seed=0)  # stratified
    @example(sizes=[0, 2, 7], folds=3, seed=1, shuffle_seed=0)  # plain dealing
    def test_fold_dealing_matches_the_round_robin_loops(self, sizes, folds, seed,
                                                        shuffle_seed):
        # Class sizes from 0 up, so a class label may have no rows.
        assume(sum(sizes) >= folds)
        domain = ("p", "q", "r", "s")[:len(sizes)]
        labels = [label for label, n in zip(domain, sizes) for _ in range(n)]
        random.Random(shuffle_seed).shuffle(labels)
        schema = Schema.from_pairs([("a", "01")])
        ds = Dataset(schema, Attribute("c", domain), (("0",),) * len(labels),
                     tuple(labels))
        assignment, stratified = make_folds(ds, folds, seed)
        assert stratified == all(n >= folds for n in sizes if n)
        assert (assignment, stratified) == make_folds_oracle(ds, folds, seed)

    def test_grid_reports_match_direct_runs(self):
        ds, _ = generate_planted_rules(
            [PlantedRule(pairs=6), PlantedRule(pairs=5, exceptions=1)]
        )
        cfg = CvConfig(strategy="knn", folds=3, seed=2)
        best, reports = cross_validate_grid(ds, cfg, [1, 3])
        for value, rep in zip([1, 3], reports):
            direct = cross_validate(ds, CvConfig(strategy="knn", folds=3,
                                                 seed=2, k=value))
            assert rep.canonical() == direct.canonical()
        assert best.canonical() in [r.canonical() for r in reports]

        # Bongard budgets and kNN values past the training size, against a
        # fresh model per (fold, value) with the fallback asked on each
        # abstention.
        rng = random.Random(4)
        abstaining = [random_dataset(rng, max_rows=20, max_attrs=2)
                      for _ in range(30)]
        abstaining = [d for d in abstaining if len(d) >= 9]
        runs = [(ds, "knn", [1, 3, 50], "knn1")]
        runs += [(d, "bongard", [1, 3, 2, 7], fb) for d in abstaining[:6]
                 for fb in ("knn1", "brute", "none")]
        runs += [(d, "knn", [2, 1, 40, 2], "knn1") for d in abstaining[:6]]
        abstained = 0
        for data, strategy, grid, fallback in runs:
            cfg = CvConfig(strategy=strategy, folds=3, seed=2, fallback=fallback)
            best, reports = cross_validate_grid(data, cfg, grid)
            assert [r.config for r in reports] == [
                CvConfig(strategy=strategy, folds=3, seed=2, fallback=fallback,
                         **{"neighbor_budget" if strategy == "bongard"
                            else "k": value})
                for value in grid
            ]
            for rep in reports:
                expected = literal_cv_folds(data, rep.config)
                assert [(fr.correct, fr.abstained, fr.triplets)
                        for fr in rep.fold_results] == expected
                direct = cross_validate(data, rep.config)
                assert rep.canonical() == direct.canonical()
                abstained += sum(fr.abstained for fr in rep.fold_results)
            param = "neighbor_budget" if strategy == "bongard" else "k"
            top = max(r.mean_accuracy for r in reports)
            assert best.config == min(
                (r.config for r in reports if r.mean_accuracy == top),
                key=lambda c: getattr(c, param))
        assert abstained > 0

    def test_config_validation(self):
        with pytest.raises(DataError):
            CvConfig(strategy="nope")
        with pytest.raises(DataError):
            CvConfig(strategy="knn", folds=1)
        with pytest.raises(DataError):
            CvConfig(strategy="knn", fallback="what")
        with pytest.raises(DataError):
            CvConfig(strategy="knn", subsample=0.0)
        with pytest.raises(DataError):
            CvConfig(strategy="knn", k=0)
        with pytest.raises(DataError):
            CvConfig(strategy="selected", min_confidence=1.5)

    def test_brute_fallback_strategy(self):
        # Unminable data (every pair group is a singleton) makes selected
        # abstain everywhere; the brute fallback must take over.
        schema = Schema.from_pairs([("a", "0123"), ("b", "0123")])
        items = tuple((str(i % 4), str((i * 2 + 1) % 4)) for i in range(8))
        labels = tuple("pq"[i % 2] for i in range(8))
        ds = Dataset(schema, Attribute("c", ("p", "q")), items, labels)
        report = cross_validate(ds, CvConfig(
            strategy="selected", folds=2, seed=3, radius=2,
            min_support=50, fallback="brute",
        ))
        assert report.abstention_rate == 1.0
        direct = cross_validate(ds, CvConfig(strategy="baseline", folds=2,
                                             seed=3, fallback="none"))
        assert [fr.correct for fr in report.fold_results] == \
            [fr.correct for fr in direct.fold_results]

    def test_each_fallback_is_asked_once_per_abstained_query(self, monkeypatch):
        # The knn1 fallback is the fold model's own 1-NN, so it builds
        # nothing.  The selected strategy's brute fallback counts the run's
        # pairs once, on the run's first abstention, and leaves a fold's
        # test rows out of that table, in place, on every ask: only the
        # fold's first moves rows.  The case analysis's is its own vote,
        # since its table counts every pair; each fold copy leaves its test
        # rows out once.
        # Some fold abstains twice, so a build per query would show.  The
        # grid's budgets abstain on the same queries (those where no
        # neighbor votes), so an ask per abstained budget would show too.
        ds = monk1_sample()
        selected = CvConfig(strategy="selected", folds=5, seed=0, radius=2,
                            min_support=1)
        bongard = CvConfig(strategy="bongard", folds=5, seed=7, fallback="knn1")
        runs = [(replace(selected, fallback="brute"), None),
                (replace(selected, fallback="knn1"), None),
                (bongard, [1, 3]),
                (replace(bongard, fallback="brute"), [1, 3])]
        count_pairs, leave_out = _PairCounts.count_pairs, _PairCounts.leave_out
        vote, nearest = _PairCounts.vote, _PairCounts.nearest
        for config, grid in runs:
            counted, derived, moved, asked = [], [], [], []

            def counting(table):
                counted.append(table)
                count_pairs(table)

            def deriving(table, rows):
                live = list(table.live)
                leave_out(table, rows)
                derived.append(table)
                if table.live != live:
                    moved.append(table)

            def voting(table, query):
                # The selected model is mined, not derived, and the case
                # analysis predicts through ``votes``: only a fallback votes
                # on a derived table.
                if any(table is d for d in derived):
                    asked.append(query)
                return vote(table, query)

            def ranking(table, query, ks):
                asked.append(query)
                return nearest(table, query, ks)

            with monkeypatch.context() as patch:
                for name, patched in (("count_pairs", counting), ("leave_out", deriving),
                                      ("vote", voting), ("nearest", ranking)):
                    patch.setattr(_PairCounts, name, patched)
                reports = ([cross_validate(ds, config)] if grid is None
                           else cross_validate_grid(ds, config, grid)[1])
            abstained = [fr.abstained for fr in reports[0].fold_results]
            assert all([fr.abstained for fr in r.fold_results] == abstained
                       for r in reports)
            assert 0 < abstained.count(0) < len(abstained) and max(abstained) > 1
            if config.strategy == "bongard":  # the run's table and its folds
                assert (len(counted), len(derived), len(moved)) == (1,) + (len(abstained),) * 2
            elif config.fallback == "brute":
                assert len(counted) == 1 and len(derived) == sum(abstained)
                assert len(moved) == len(abstained) - abstained.count(0)
            else:
                assert counted == derived == []
            assert len(asked) == sum(abstained)

    @pytest.mark.parametrize("fallback", FALLBACKS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_and_fallback_matches_the_literal_folds(self, strategy,
                                                                   fallback):
        # Every strategy but kNN abstains on this sample, so each fallback
        # is asked; the selected strategy mines a subsample.
        ds = monk1_sample()
        config = CvConfig(strategy=strategy, folds=5, seed=0, fallback=fallback,
                          subsample=0.8 if strategy == "selected" else None)
        report = cross_validate(ds, config)
        assert [(fr.correct, fr.abstained, fr.triplets)
                for fr in report.fold_results] == literal_cv_folds(ds, config)
        assert (strategy == "knn") == (report.abstention_rate == 0)

    def test_unminable_pairs_abstain_then_fall_back(self):
        ds, _ = generate_planted_rules([PlantedRule(pairs=4)])
        report = cross_validate(ds, CvConfig(
            strategy="selected", folds=2, seed=1, radius=2,
            min_support=10_000, fallback="knn1",
        ))
        assert report.abstention_rate == 1.0
        knn = cross_validate(ds, CvConfig(strategy="knn", folds=2, seed=1, k=1))
        assert report.mean_accuracy == knn.mean_accuracy

    def test_monk3_baseline_lands_near_published_mean(self):
        # Published baseline figure 95.28 +/- 3.12; tolerance 5 points.
        from anaprop.data import generate_monk
        report = cross_validate(generate_monk(3),
                                CvConfig(strategy="baseline", folds=10, seed=7))
        assert abs(report.mean_accuracy - 95.28) <= 5.0


# ---------------------------------------------------------------------------
# Integer pair keys and counting, against the tuple-keyed definitions
# ---------------------------------------------------------------------------

def extract_competent_pairs_oracle(train: Dataset, min_support: int = 2,
                                   min_confidence: float = 0.9):
    """Competent-pair mining by the definition: one grouping of all
    ordered pairs of distinct items by their difference vector, then each
    pair's support and confidence read from its group."""
    items = train.items
    labels = train.labels
    n = len(items)
    enumerated = []
    stats = {}
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

    out = []
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


def majority_oracle(votes, label_order):
    return max(label_order, key=lambda label: (votes.get(label, 0),
                                               -label_order.index(label)))


def prediction_oracle(votes, examined, label_order):
    if not votes:
        return (None, {}, examined, True)
    return (majority_oracle(votes, label_order), dict(votes), examined, False)


def as_tuple(pred):
    return (pred.label, dict(pred.votes), pred.triplets_examined, pred.abstained)


def selected_vote_oracle(train: Dataset, pairs, query, radius: int):
    """Selected-triplet vote from the pair list: every competent pair whose
    change equals diff(c, query), for every c within the radius."""
    votes = Counter()
    examined = 0
    for c, lc in zip(train.items, train.labels):
        if hamming(c, query) > radius:
            continue
        for p in pairs:
            if p.change == diff(c, query):
                examined += 1
                if p.label_a == p.label_b:
                    votes[lc] += 1
                elif p.label_a == lc:
                    votes[p.label_b] += 1
    return prediction_oracle(votes, examined, train.class_attr.domain)


def tuple_groups(train: Dataset):
    """Ordered pairs (i, j), identical indices included, by diff tuple."""
    groups = {}
    for i, a in enumerate(train.items):
        for j, b in enumerate(train.items):
            groups.setdefault(diff(a, b), []).append((i, j))
    return groups


def baseline_vote_oracle(train: Dataset, query):
    groups = tuple_groups(train)
    labels = train.labels
    votes = Counter()
    examined = 0
    for c, lc in zip(train.items, labels):
        for i, j in groups.get(diff(c, query), ()):
            examined += 1
            if labels[i] == labels[j]:
                votes[lc] += 1
            elif labels[i] == lc:
                votes[labels[j]] += 1
    return prediction_oracle(votes, examined, train.class_attr.domain)


def bongard_stream_oracle(train: Dataset, query, max_literals: int):
    """(neighbor, vote, pair count) of the three-case analysis, with the
    pair groups keyed by diff tuples."""
    groups = tuple_groups(train)
    items, labels = train.items, train.labels
    order = sorted(range(len(items)), key=lambda i: (hamming(items[i], query), i))
    out = []
    for idx in order:
        d = diff(items[idx], query)
        pairs = groups.get(d)
        if not pairs:
            continue
        lc = labels[idx]
        same = [(items[i], items[j]) for i, j in pairs if labels[i] == labels[j]]
        changing = [(items[i], items[j]) for i, j in pairs if labels[i] != labels[j]]
        targets = Counter(labels[j] for i, j in pairs
                          if labels[i] != labels[j] and labels[i] == lc)
        suggestion = (majority_oracle(targets, train.class_attr.domain)
                      if targets else None)
        if not changing:
            vote = lc
        elif not same:
            vote = suggestion
        else:
            ag = [k for k, step in enumerate(d) if step is None]
            prop = bongard_separation(same, changing, ag, max_literals)
            if prop is None:
                continue
            vote = lc if prop.satisfied_by(query) else suggestion
        if vote is not None:
            out.append((idx, vote, len(pairs)))
    return out


DOMAIN_POOL = "uvwxyz"


@st.composite
def keyed_datasets(draw, max_classes=3):
    """Small datasets over attributes of different domain sizes, with
    duplicate items (possibly with conflicting labels), plus queries some
    of which carry a value outside the schema's domain."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    schema = Schema.from_pairs((f"a{k}", tuple(DOMAIN_POOL[:s]))
                               for k, s in enumerate(sizes))
    class_attr = Attribute("c", ("p", "q", "r", "s")[:draw(st.integers(2, max_classes))])
    item = st.tuples(*[st.sampled_from(a.domain) for a in schema.attributes])
    label = st.sampled_from(class_attr.domain)
    rows = draw(st.lists(st.tuples(item, label), min_size=2, max_size=12))
    for pos in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows.append((rows[pos][0], draw(label)))  # a duplicate item
    ds = Dataset(schema, class_attr, tuple(r[0] for r in rows),
                 tuple(r[1] for r in rows))
    queries = draw(st.lists(item, min_size=1, max_size=3))
    alien = list(draw(item))
    alien[draw(st.integers(0, len(sizes) - 1))] = "alien"
    return ds, queries + [tuple(alien)]


def column_sum_keys(keys: PairKeys, item, outgoing: bool) -> list[int]:
    """Reference key lists, one Python-level sum per row: the entries of
    ``item``'s in-domain values against each row, plus its count of values
    outside their domains."""
    columns, outside = [], 0
    for k, (codes, v) in enumerate(zip(keys._codes, item)):
        x = codes.get(v)
        if x is None:
            outside += 1
            continue
        columns.append([keys._entry(k, x, y) if outgoing else keys._entry(k, y, x)
                        for y in keys._rows[k]])
    if not columns:
        return [outside] * keys._size
    return [outside + sum(entries) for entries in zip(*columns)]


#: Keys below 18·10¹⁷ and 19·10¹⁸: the last schema of ternary attributes
#: whose keys fit a 64-bit lane (2⁶⁴ ≈ 1.8·10¹⁹) and the first that exceeds it.
LANE_BOUND_SIZES = ([3] * 17, [3] * 18)


class TestPairKeys:
    @given(st.one_of(st.sampled_from(LANE_BOUND_SIZES),
                     st.lists(st.integers(2, 7), max_size=20)), st.data())
    def test_lane_keys_are_the_column_sums(self, sizes, data):
        schema = Schema.from_pairs((f"a{k}", tuple(f"v{i}" for i in range(s)))
                                   for k, s in enumerate(sizes))
        domains = [a.domain for a in schema.attributes]
        rows = data.draw(st.lists(st.tuples(*map(st.sampled_from, domains)), max_size=6))
        queries = data.draw(st.lists(st.tuples(*[st.sampled_from(d + ("alien",))
                                                 for d in domains]), max_size=4))
        keys = PairKeys(schema, rows)
        # Both sides of the bound: 64-bit lanes, and per-row sums past it.
        assert keys._lanes == ((len(sizes) + 1) * prod(s * s + 1 for s in sizes) <= 2 ** 64)
        for item in [*rows[:2], *queries, ()]:  # () is an item of no attributes
            assert keys.keys_from(item) == column_sum_keys(keys, item, True)
            assert keys.keys_to(item) == column_sum_keys(keys, item, False)

    @given(keyed_datasets())
    def test_keys_stand_for_difference_vectors(self, case):
        ds, queries = case
        items = list(ds.items) + queries[:-1]
        keys = PairKeys(ds.schema, items)
        by_key, by_diff = {}, {}
        for a in items:
            outgoing = keys.keys_from(a)
            incoming = keys.keys_to(a)
            for b, key, back in zip(items, outgoing, incoming):
                d = diff(a, b)
                by_key.setdefault(key, set()).add(d)
                by_diff.setdefault(d, set()).add(key)
                assert back == keys.keys_from(b)[items.index(a)]
                assert (key == 0) == (a == b)
                assert key % keys.modulus == hamming(a, b)
                assert keys.change_key(d) == key
        assert all(len(v) == 1 for v in by_key.values())
        assert all(len(v) == 1 for v in by_diff.values())
        # A value outside its domain keys no pair of in-domain items, and
        # its keys still give the Hamming distance.
        alien = queries[-1]
        for alien_keys in (keys.keys_from(alien), keys.keys_to(alien)):
            assert not by_key.keys() & set(alien_keys)
            assert [key % keys.modulus for key in alien_keys] == \
                [hamming(alien, b) for b in items]

    @given(keyed_datasets(), st.randoms(use_true_random=False))
    def test_rank_is_the_literal_hamming_ranking(self, case, rng):
        ds, queries = case
        table = _PairCounts(ds)
        live = [i for i in range(len(ds)) if rng.random() < 0.7]
        for query in queries:  # the last one has a value outside its domain
            literal = sorted(range(len(ds)), key=lambda i: (hamming(ds.items[i], query), i))
            assert list(table.ranked(table.query_keys(query))) == literal
            fold = table._copy(live)
            assert list(fold.ranked(fold.query_keys(query))) == \
                [i for i in literal if i in live]


class PerPairIndexOracle:
    """The pair index built and downdated one pair at a time: every
    ordered pair of live rows updates its key's (total, same-label count,
    tilts) in a Python call."""

    def __init__(self, train: Dataset):
        self.groups = {}
        self.pair_keys = PairKeys(train.schema, train.items)
        self._items = train.items
        self._labels = train.labels
        self._live = [True] * len(train)
        for i, a in enumerate(self._items):
            for j, key in enumerate(self.pair_keys.keys_from(a)):
                self._update(key, i, j, 1)

    def _update(self, key, i, j, step):
        total, same, tilts = self.groups.get(key, (0, 0, {}))
        la, lb = self._labels[i], self._labels[j]
        if la == lb:
            same += step
        else:
            tilts = dict(tilts)
            tilts[(la, lb)] = tilts.get((la, lb), 0) + step
            if not tilts[(la, lb)]:
                del tilts[(la, lb)]
        if total + step:
            self.groups[key] = (total + step, same, tilts)
        else:
            del self.groups[key]

    def _touch(self, i, step):
        outgoing = self.pair_keys.keys_from(self._items[i])
        incoming = self.pair_keys.keys_to(self._items[i])
        for j, live in enumerate(self._live):  # row i itself is not live here
            if live:
                self._update(outgoing[j], i, j, step)
                self._update(incoming[j], j, i, step)
        self._update(0, i, i, step)

    def leave_out(self, rows):
        """Leave exactly ``rows`` out, one row taken out or put back at a
        time."""
        out = set(rows)
        for i, live in enumerate(self._live):
            if live and i in out:
                self._live[i] = False
                self._touch(i, -1)
            elif not live and i not in out:
                self._touch(i, +1)
                self._live[i] = True


class TestCountingBuild:
    @given(keyed_datasets(max_classes=4),
           st.lists(st.lists(st.integers(0, 15), max_size=4), max_size=6))
    def test_counting_index_matches_per_pair_build(self, case, out_sets):
        ds, queries = case
        index = BruteForceModel(ds)
        oracle = PerPairIndexOracle(ds)
        assert index_groups(index) == oracle.groups
        full, live = held_keys(index), range(len(ds))
        for out in ([r % len(ds) for r in rows] for rows in out_sets):
            for built in (index, oracle):
                built.leave_out(out)
            live = [i for i in range(len(ds)) if i not in out]
            assert index_groups(index) == oracle.groups
            index_snapshot(index, full)
        for query in queries:
            assert as_tuple(index.classify(query)) == \
                baseline_vote_oracle(ds.subset(live), query)

    @given(keyed_datasets(max_classes=4), st.integers(1, 2))
    def test_bongard_contexts_match_pair_scan(self, case, max_literals):
        ds, _ = case
        model = BongardModel(ds, max_literals)
        scanned = {}
        for (i, j) in product(range(len(ds)), repeat=2):
            d = diff(ds.items[i], ds.items[j])
            ag = [k for k, step in enumerate(d) if step is None]
            same_ctx, diff_ctx = scanned.setdefault(d, (set(), set()))
            ctx = tuple(ds.items[i][k] for k in ag)
            (same_ctx if ds.labels[i] == ds.labels[j] else diff_ctx).add(ctx)
        for d, contexts in scanned.items():
            assert model.contexts(d) == contexts


def no_tilt_from_c_case():
    """Every neighbor of the query (1, 1) with a pair group is labelled q,
    and its group holds only p -> q pairs, so no neighbor votes."""
    schema = Schema.from_pairs([("a", "01"), ("b", "01")])
    ds = Dataset(schema, Attribute("c", ("p", "q")),
                 (("0", "0"), ("1", "0"), ("0", "1")), ("p", "q", "q"))
    return ds, [("1", "1")]


class TestCountingAgainstTupleOracles:
    @given(keyed_datasets(), st.integers(1, 3), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    def test_extract_matches_oracle(self, case, min_support, min_confidence):
        ds, _ = case
        assert extract_competent_pairs(ds, min_support, min_confidence) == \
            extract_competent_pairs_oracle(ds, min_support, min_confidence)

    @given(keyed_datasets(), st.integers(1, 3),
           st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(0, 4),
           st.sampled_from([None, 0.5, 0.8]), st.randoms(use_true_random=False))
    def test_counted_selected_model_matches_pair_list(self, case, min_support,
                                                      min_confidence, radius,
                                                      subsample, rng):
        ds, queries = case
        mining = list(range(len(ds)))
        if subsample is not None:
            take = max(2, round(subsample * len(ds)))
            mining = sorted(rng.sample(range(len(ds)), take))
        pairs = extract_competent_pairs_oracle(ds.subset(mining), min_support,
                                               min_confidence)
        counted = SelectedTripletModel(ds, (), radius).mined(
            range(len(ds)), mining, min_support, min_confidence)
        listed = SelectedTripletModel(ds, pairs, radius)
        for query in queries + list(ds.items[:3]):
            want = selected_vote_oracle(ds, pairs, query, radius)
            assert as_tuple(counted.classify(query)) == want
            assert as_tuple(listed.classify(query)) == want

    @given(keyed_datasets(), st.integers(1, 3),
           st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(0, 4))
    def test_mined_counts_are_the_listed_counts_within_the_radius(
            self, case, min_support, min_confidence, radius):
        ds, _ = case
        pairs = extract_competent_pairs_oracle(ds, min_support, min_confidence)
        listed = SelectedTripletModel(ds, pairs, radius)
        modulus = PairKeys(ds.schema, ds.items).modulus

        def near(key):
            return 1 <= key % modulus <= radius

        rows = range(len(ds))
        mined = SelectedTripletModel(ds, (), radius).mined(rows, rows, min_support,
                                                          min_confidence)
        assert mined.total == {k: n for k, n in listed.total.items() if near(k)}
        assert mined.labelled == {e: n for e, n in listed.labelled.items()
                                  if near(e // listed.scale)}
        # A radius of at least the arity reaches every pair of distinct items.
        reach = ds.schema.arity + radius
        unbounded = SelectedTripletModel(ds, (), reach).mined(rows, rows, min_support,
                                                             min_confidence)
        everything = SelectedTripletModel(ds, pairs, reach)
        assert (unbounded.total, unbounded.labelled) == \
            (everything.total, everything.labelled)

    @given(keyed_datasets(max_classes=4), st.data(), st.integers(1, 3),
           st.randoms(use_true_random=False))
    def test_a_near_list_vote_is_the_dense_vote(self, case, data, min_support, rng):
        # A query that is a row (or a duplicate of one) votes from its near
        # list, any other by the dense vote over every live c.  A mined
        # fold counts no pair of equal items; a model of listed pairs with
        # a no-change one counts key 0, which only a c equal to the query
        # finds.
        ds, queries = case
        radius = data.draw(st.integers(0, ds.schema.arity))
        train_idx = sorted(rng.sample(range(len(ds)), rng.randint(1, len(ds))))
        mining = sorted(rng.sample(train_idx, rng.randint(1, len(train_idx))))
        item, label = rng.choice(list(zip(ds.items, ds.labels)))
        unchanged = CompetentPair(item, item, label, label, diff(item, item), 1, 1.0)
        pairs = extract_competent_pairs_oracle(ds, min_support, 0.5) + [unchanged]
        listed = SelectedTripletModel(ds, pairs, radius)
        mined = SelectedTripletModel(ds, (), radius).mined(train_idx, mining, min_support, 0.5)
        # Listed pairs counted with only the training rows live as c.
        sparse = SelectedTripletModel(ds, pairs, radius)
        sparse.live = [i in train_idx for i in range(len(ds))]
        models = (mined, listed, sparse)
        for model in models:
            for query in list(ds.items) + queries:
                assert as_tuple(model.classify(query)) == as_tuple(model.vote(query))

    @given(keyed_datasets(max_classes=4), st.integers(1, 2))
    @example(no_tilt_from_c_case(), 1)
    def test_baseline_and_bongard_match_tuple_keyed_oracles(self, case, max_literals):
        ds, queries = case
        bongard = BongardModel(ds, max_literals)
        for query in queries + list(ds.items[:3]):
            assert as_tuple(BruteForceModel(ds).vote(query)) == \
                baseline_vote_oracle(ds, query)
            assert list(bongard.votes(query)) == \
                bongard_stream_oracle(ds, query, max_literals)

    def test_out_of_domain_query_abstains(self):
        ds = case3_dataset()
        c, label = ds.items[0], ds.labels[0]
        alien = ("alien",) + c[1:]
        pairs = extract_competent_pairs(ds, min_support=1, min_confidence=0.0)
        # A listed pair that changes c's first value to another outside
        # value: were it keyed, it would share the key of (c, alien).
        stray = ("stray",) + c[1:]
        pairs.append(CompetentPair(c, stray, label, label, diff(c, stray), 1, 1.0))
        for query in (alien, ("alien",) * ds.schema.arity):
            for pred in (BruteForceModel(ds).vote(query),
                         SelectedTripletModel(ds, pairs, ds.schema.arity).vote(query),
                         BongardModel(ds, 2).classify(query, 3)):
                assert as_tuple(pred) == (None, {}, 0, True)


class TestPrefixReader:
    @given(keyed_datasets(), st.integers(1, 2),
           st.lists(st.integers(1, 16), min_size=1, max_size=5))
    def test_predictions_match_the_one_value_oracles(self, case, max_literals, values):
        ds, queries = case
        # Repeated, unsorted, and past the end of every ranking.
        values = values + [values[0], len(ds) + 2, 1]
        bongard = BongardModel(ds, max_literals)
        knn = KnnModel(ds)
        for query in queries + list(ds.items[:2]):
            assert [as_tuple(p) for p in bongard.predictions(query, values)] == [
                as_tuple(bongard_classify_oracle(ds, query, v, max_literals))
                for v in values]
            assert [as_tuple(p) for p in knn.predictions(query, values)] == [
                as_tuple(knn_classify_oracle(ds, query, v)) for v in values]
            for v in values:
                assert as_tuple(bongard.classify(query, v)) == \
                    as_tuple(bongard_classify_oracle(ds, query, v, max_literals))
                if v <= len(ds):
                    assert as_tuple(knn.classify(query, v)) == \
                        as_tuple(knn_classify_oracle(ds, query, v))


def test_the_package_exports_one_call_per_classifier():
    # Each strategy is reached through its model; the one-query wrappers
    # that duplicated them are gone from the module and the package.
    import anaprop
    import anaprop.classify as classify
    for model in (BruteForceModel, SelectedTripletModel, BongardModel, KnnModel):
        assert getattr(anaprop, model.__name__) is model
    for wrapper in ("brute_force_classify", "selected_triplet_classify",
                    "bongard_classify", "knn_classify"):
        assert not hasattr(anaprop, wrapper) and not hasattr(classify, wrapper)
