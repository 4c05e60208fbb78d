"""Loading, round-trips and the synthetic generators."""

import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from anaprop.core import Attribute, Schema, SchemaError
from anaprop.data import (
    DataError,
    Dataset,
    PlantedRule,
    Relation,
    canonical_json,
    generate_affine,
    generate_monk,
    generate_planted_rules,
    generate_random_relation,
    load_dataset,
    load_relation,
    write_dataset,
    write_relation,
    write_sidecar_schema,
)


def test_load_two_row_round_trip(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("color,shape,label\nred,square,yes\nblue,circle,no\n")
    ds = load_dataset(path)
    assert ds.schema.names == ("color", "shape")
    assert ds.class_attr.name == "label"
    assert ds.items == (("red", "square"), ("blue", "circle"))
    assert ds.labels == ("yes", "no")


def test_round_trip_write_then_load(tmp_path):
    ds, _ = generate_planted_rules([PlantedRule(pairs=3, exceptions=1)])
    out = tmp_path / "planted.csv"
    sidecar = tmp_path / "planted.schema.json"
    write_dataset(ds, out)
    write_sidecar_schema(ds.table, sidecar, class_name=ds.class_attr.name)
    again = load_dataset(out, schema_file=sidecar)
    assert again.items == ds.items
    assert again.labels == ds.labels
    assert again.schema == ds.schema
    assert again.class_attr == ds.class_attr


def test_a_class_named_like_an_attribute_is_rejected():
    # Its table would have the header a,a, which no loader reads back.
    with pytest.raises(SchemaError, match=r"duplicate attribute names .* \['a', 'a'\]"):
        Dataset(Schema.from_pairs([("a", "01")]), Attribute("a", ("p", "q")),
                (("0",), ("1",)), ("p", "q"))


def test_sidecar_schema_declares_domains(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,p\nx,q\n")
    sidecar = tmp_path / "t.schema.json"
    sidecar.write_text(json.dumps({
        "attributes": [
            {"name": "a", "domain": ["x", "y"]},
            {"name": "b", "domain": ["p", "q"]},
        ],
        "class": "b",
    }))
    ds = load_dataset(path, schema_file=sidecar)
    # Column a is constant in the data; the sidecar supplies the full domain.
    assert ds.schema.attributes[0].domain == ("x", "y")
    assert ds.class_attr.name == "b"


def test_constant_column_without_sidecar_is_an_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,p\nx,q\n")
    with pytest.raises(DataError):
        load_dataset(path)


def test_repeated_header_name_rejected(tmp_path):
    # The last column is the class by default; with its name repeated,
    # neither loader may pick one of the two columns.
    path = tmp_path / "t.csv"
    path.write_text("x,y,x\n0,0,p\n1,1,q\n")
    with pytest.raises(SchemaError, match="duplicate attribute names"):
        load_dataset(path)
    with pytest.raises(SchemaError, match="duplicate attribute names"):
        load_relation(path)


def test_columns_checked_in_header_order(tmp_path):
    # Both the class column (first here) and a later column are constant;
    # the first in the header is the one reported.
    path = tmp_path / "t.csv"
    path.write_text("label,a,b\nyes,x,0\nyes,x,1\n")
    with pytest.raises(DataError, match="column 'label' is constant"):
        load_dataset(path, class_column="label")


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n1\n")
    with pytest.raises(DataError):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        load_dataset(path)


def test_missing_value_is_a_data_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\nx,p\n?,q\ny,q\n")
    with pytest.raises(DataError):
        load_dataset(path)


def test_unseen_value_rejected_against_sidecar(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nz,p\nx,q\n")
    sidecar = tmp_path / "t.schema.json"
    sidecar.write_text(json.dumps({
        "attributes": [
            {"name": "a", "domain": ["x", "y"]},
            {"name": "b", "domain": ["p", "q"]},
        ],
    }))
    with pytest.raises(DataError):
        load_dataset(path, schema_file=sidecar)


@pytest.mark.parametrize("domain", ["yes", [0, 1], ["x", 1], {"x": 1, "y": 2}])
def test_sidecar_domain_must_be_a_list_of_strings(tmp_path, domain):
    path = tmp_path / "t.csv"
    path.write_text("size,b\ny,p\ne,q\n")
    sidecar = tmp_path / "t.schema.json"
    sidecar.write_text(json.dumps({
        "attributes": [
            {"name": "size", "domain": domain},
            {"name": "b", "domain": ["p", "q"]},
        ],
    }))
    with pytest.raises(SchemaError, match="attribute 'size' needs a list of strings"):
        load_dataset(path, schema_file=sidecar)


def test_relation_deduplicates_with_count(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\nx,p\nx,p\ny,q\n")
    rel = load_relation(path)
    assert len(rel) == 2
    assert rel.duplicates_dropped == 1
    out = tmp_path / "r2.csv"
    write_relation(rel, out)
    again = load_relation(out)
    assert again.as_set() == rel.as_set()


def test_malformed_dataset_raises_and_subsets_keep_rows():
    from anaprop.core import Attribute
    from anaprop.data import Dataset
    schema = Schema.from_pairs([("a", "01"), ("b", "xy")])
    label = Attribute("c", ("p", "q"))
    malformed = [((("0", "x"), ("1", "z")), ("p", "q")),  # value outside domain
                 ((("0", "x"), ("1",)), ("p", "q")),      # wrong arity
                 ((("0", "x"), ("1", "y")), ("p", "r")),  # label outside domain
                 ((("0", "x"), ("1", "y")), ("p",))]      # lengths differ
    for items, labels in malformed:
        with pytest.raises((DataError, SchemaError)):
            Dataset(schema, label, items, labels)
    ds = Dataset(schema, label, (("0", "x"), ("1", "y"), ("1", "x")), ("p", "q", "q"))
    assert ds.subset([2, 0]) == Dataset(schema, label, (("1", "x"), ("0", "x")), ("q", "p"))
    assert ds.subset([]) == Dataset(schema, label, (), ())


#: Rows of a schema over a in {0, 1} and b in {x, y}, each set with the
#: error of its first bad cell in row order.
_BAD_ROWS = {
    "bad-values": ((("0", "x"), ("2", "z"), ("3", "y")), "value '2' .* 'a'"),
    "arity-first": ((("0", "x"), ("1",), ("1", "z")), "item arity 1"),
    "value-first": ((("0", "x"), ("1", "z"), ("1",)), "value 'z' .* 'b'"),
    "unhashable-value": ((("0", ["x"]), ("1", "y")), r"value \['x'\] .* 'b'"),
}
_AB = Schema.from_pairs([("a", "01"), ("b", "xy")])


@pytest.mark.parametrize("rows, message", _BAD_ROWS.values(), ids=_BAD_ROWS)
def test_a_relation_names_its_first_bad_cell_in_row_order(rows, message):
    with pytest.raises(SchemaError, match=f"^{message}"):
        Relation(_AB, rows)


@pytest.mark.parametrize("items, labels, message", [
    *((rows, ("p",) * len(rows), message) for rows, message in _BAD_ROWS.values()),
    ((("0", "x"), ("1", "z")), ("s", "q"), "value 'z' .* 'b'"),  # items first
    ((("0", "x"), ("1", "y")), ("s", ["q"]), "value 's' .* 'c'"),
    ((("0", "x"), ("1", "y")), ("p", ["q"]), r"value \['q'\] .* 'c'"),
], ids=[*_BAD_ROWS, "items-first", "bad-labels", "unhashable-label"])
def test_a_dataset_names_its_first_bad_cell_in_row_order(items, labels, message):
    with pytest.raises(SchemaError, match=f"^{message}"):
        Dataset(_AB, Attribute("c", ("p", "q")), items, labels)


class TestAffineGenerator:
    def test_xor_truth_table(self):
        ds = generate_affine(2, (0, 1, 1))
        assert len(ds) == 4
        assert ds.labels == ("0", "1", "1", "0")

    def test_single_variable_dependence(self):
        ds = generate_affine(3, (1, 0, 1, 0))
        for item, label in zip(ds.items, ds.labels):
            assert label == str(1 ^ int(item[1]))

    def test_seeded_determinism(self):
        a = generate_affine(4, seed=11)
        b = generate_affine(4, seed=11)
        assert a == b

    def test_bad_coefficients(self):
        with pytest.raises(DataError):
            generate_affine(2, (1, 1))
        with pytest.raises(DataError):
            generate_affine(2, (2, 0, 0))

    @pytest.mark.parametrize("bad", ["x", 1.5, "1", True, 1.0])
    def test_a_coefficient_must_be_an_int_0_or_1(self, bad):
        # int() would read 1.5, "1", True and 1.0 as 1, and fail on "x".
        with pytest.raises(DataError):
            generate_affine(2, (1, bad, 0))


class TestPlantedRules:
    def test_exception_free_rule(self):
        ds, truths = generate_planted_rules([PlantedRule(pairs=3)])
        assert truths[0].confidence == 1.0
        assert truths[0].support == 3
        assert len(ds) == 6

    def test_one_exception_in_four(self):
        _, truths = generate_planted_rules([PlantedRule(pairs=4, exceptions=1)])
        assert truths[0].confidence == 0.75
        assert truths[0].support == 3

    def test_same_label_rule_with_exceptions(self):
        rule = PlantedRule(pairs=4, exceptions=1, label_from="c0", label_to=None,
                           alt_label="c2")
        ds, truths = generate_planted_rules([rule])
        assert truths[0].tilt is None
        assert (truths[0].support, truths[0].confidence) == (3, 0.75)
        assert ds.class_attr.domain == ("c0", "c1", "c2")
        # Three pairs keep c0 on both sides; the last tilts to alt_label.
        pairs = list(zip(ds.labels[::2], ds.labels[1::2]))
        assert pairs == [("c0", "c0")] * 3 + [("c0", "c2")]

    def test_group_is_exactly_the_planted_pairs(self):
        # No accidental ordered pair may share a planted difference vector.
        from anaprop.core import diff
        ds, truths = generate_planted_rules(
            [PlantedRule(pairs=4, exceptions=1), PlantedRule(pairs=3)]
        )
        for truth in truths:
            members = [
                (i, j)
                for i in range(len(ds))
                for j in range(len(ds))
                if i != j and diff(ds.items[i], ds.items[j]) == truth.change
            ]
            assert len(members) == round(truth.support / truth.confidence)

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(DataError):
            generate_planted_rules([PlantedRule(pairs=2, exceptions=2)])
        with pytest.raises(DataError):
            generate_planted_rules([])
        # Labels under which the planted pairs would all keep label_from.
        with pytest.raises(DataError):
            PlantedRule(pairs=3, label_from="c0", label_to="c0")
        with pytest.raises(DataError):
            PlantedRule(pairs=3, exceptions=1, label_to=None, alt_label="c0")
        # Without exceptions a same-label rule never uses its alt_label.
        _, truths = generate_planted_rules(
            [PlantedRule(pairs=3, label_to=None, alt_label="c0")])
        assert (truths[0].support, truths[0].confidence) == (3, 1.0)

    @pytest.mark.parametrize("counts", [
        {"pairs": 2.5}, {"pairs": 3, "exceptions": 1.5},
        {"pairs": True}, {"pairs": 3, "exceptions": True},
    ], ids=["pairs-2.5", "exceptions-1.5", "pairs-True", "exceptions-True"])
    def test_counts_must_be_integers(self, counts):
        # PlantedRule(pairs=3, exceptions=1.5) planted one exception but
        # reported support 1.5 and confidence 0.5.
        with pytest.raises(DataError):
            PlantedRule(**counts)


class TestRandomRelation:
    def test_full_space(self):
        schema = Schema.from_pairs([("a", "01"), ("b", "01")])
        rel = generate_random_relation(schema, 4, seed=3)
        assert rel.as_set() == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}

    def test_deterministic(self):
        schema = Schema.from_pairs([("a", "012"), ("b", "01"), ("c", "01")])
        assert (generate_random_relation(schema, 5, seed=9)
                == generate_random_relation(schema, 5, seed=9))

    def test_overfull_rejected(self):
        schema = Schema.from_pairs([("a", "01")])
        with pytest.raises(DataError):
            generate_random_relation(schema, 3, seed=0)


class TestMonk:
    def test_shapes(self):
        for which in (1, 2, 3):
            ds = generate_monk(which)
            assert len(ds) == 432
            assert ds.schema.arity == 6
            assert set(ds.class_attr.domain) == {"0", "1"}

    def test_known_class_balances(self):
        assert Counter(generate_monk(1).labels)["1"] == 216
        assert Counter(generate_monk(2).labels)["1"] == 142
        assert Counter(generate_monk(3).labels)["1"] == 228

    def test_concept_spot_checks(self):
        ds = generate_monk(1)
        row = dict(zip(ds.items, ds.labels))
        assert row[("2", "2", "1", "1", "2", "1")] == "1"  # a1 == a2
        assert row[("1", "2", "1", "1", "1", "1")] == "1"  # a5 == 1
        assert row[("1", "2", "1", "1", "2", "1")] == "0"

    def test_unknown_problem(self):
        with pytest.raises(DataError):
            generate_monk(4)


# Text with what JSON must escape (quotes, backslashes, control
# characters) or may not pass through as ASCII, beside brackets.
_TEXT = st.text(st.sampled_from('"\\/[]{}:, \x00\x1f\x7f\n\téß€\u2028\U0001f600')
                | st.characters(), max_size=6)
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
           | st.floats() | _TEXT
           | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]))


def _sharing(inner):
    """Parts that share one object or one key set, as the writer's caches
    see them: a tuple at two depths and twice at one, and a dict beside a
    dict of the same items inserted in reverse."""
    return (st.builds(lambda t: [t, [t], t], st.tuples(inner, inner))
            | st.builds(lambda d: [d, dict(reversed(d.items()))],
                        st.dictionaries(_TEXT, inner, max_size=4)))


_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT, inner, max_size=4) | _sharing(inner)),
    max_leaves=24)

#: One tuple, holding a list, for the examples that share it.
_SHARED = ("t", ["in a list", None])


@given(_JSON_VALUES)
@example({"b": [], "a": {}, "c": [(), [True, False, None], {"\"\\": -0.0}],
          "\u00e9": [1e16, 5e-324, math.nan, math.inf, -math.inf, -2**70, "\x01"]})
@example([_SHARED, [_SHARED, {"k": _SHARED}], _SHARED])
@example([{"b": 1, "a": True}, {"a": "x", "b": None}, {"b": [], "a": ("b", "a")}])
def test_canonical_json_is_the_indented_sorted_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, indent=2, sort_keys=True)


class _Str(str):
    """A str subclass: equal to, and hashed as, the plain str it spells."""


@pytest.mark.parametrize("value", [
    {"a", "b"}, b"ab", {1: "a"}, {"a": [{("k",): 1}]},
    # After a plain-str twin, so that the writer has already seen the
    # same key tuple or the same text.
    [{"a": 1}, {_Str("a"): 1}], ["a", _Str("a")],
], ids=["set", "bytes", "int-key", "nested-tuple-key", "str-subclass-key",
        "str-subclass-value"])
def test_canonical_json_rejects_what_json_has_no_type_for(value):
    with pytest.raises(TypeError):
        canonical_json(value)
