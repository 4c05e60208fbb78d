"""Truth tables, postulates and solver laws for the proportion algebra."""

from operator import itemgetter

import pytest
from hypothesis import example, given, strategies as st

from anaprop.core import (
    Attribute,
    Schema,
    SchemaError,
    agreement,
    ap_holds,
    ap_holds_vec,
    diff,
    hamming,
    inverse_paralogy,
    pairs_with_change,
    solve,
    solve_vec,
    value_masks,
)
from anaprop.relational import mvd_ap_correspondence

# The six Boolean valuations that make a proportion true.
AP_TRUE = {
    ("0", "0", "0", "0"),
    ("1", "1", "1", "1"),
    ("0", "1", "0", "1"),
    ("1", "0", "1", "0"),
    ("0", "0", "1", "1"),
    ("1", "1", "0", "0"),
}

# The six valuations of the inverse-paralogy connective.
IP_TRUE = {
    ("1", "1", "0", "0"),
    ("0", "0", "1", "1"),
    ("0", "1", "1", "0"),
    ("1", "0", "0", "1"),
    ("1", "0", "1", "0"),
    ("0", "1", "0", "1"),
}


def boolean_quadruples():
    bits = "01"
    return [(a, b, c, d) for a in bits for b in bits for c in bits for d in bits]


class TestBooleanTruthTable:
    def test_exactly_the_six_valuations(self):
        holding = {q for q in boolean_quadruples() if ap_holds(*q)}
        assert holding == AP_TRUE

    def test_cited_cases(self):
        assert ap_holds("0", "0", "1", "1")
        assert not ap_holds("0", "1", "1", "0")
        assert ap_holds("g", "g", "g", "g")

    def test_domain_check(self):
        with pytest.raises(SchemaError):
            ap_holds("0", "0", "1", "2", domain=("0", "1"))


class TestInverseParalogy:
    def test_exactly_the_six_valuations(self):
        holding = {q for q in boolean_quadruples() if inverse_paralogy(*q)}
        assert holding == IP_TRUE

    def test_cited_cases(self):
        assert inverse_paralogy("1", "1", "0", "0")
        assert not inverse_paralogy("1", "1", "1", "1")
        assert inverse_paralogy("0", "1", "1", "0")

    def test_rejects_larger_domains(self):
        with pytest.raises(SchemaError):
            inverse_paralogy("a", "b", "c", "a")
        with pytest.raises(SchemaError):
            inverse_paralogy("0", "0", "1", "1", domain=("0", "1", "2"))

    def test_declared_two_symbol_domain(self):
        # The domain fixes which symbol is "true", and the verdict matches
        # the undeclared one on every quadruple over that domain.
        for quad in boolean_quadruples():
            renamed = tuple({"0": "no", "1": "yes"}[v] for v in quad)
            assert (inverse_paralogy(*renamed, domain=("yes", "no"))
                    == inverse_paralogy(*quad))
        with pytest.raises(SchemaError):
            inverse_paralogy("no", "no", "yes", "maybe", domain=("no", "yes"))

    def test_code_independent_over_any_two_symbols(self):
        # Renaming 0/1 to any symbol pair must not change the verdict.
        for quad in boolean_quadruples():
            renamed = tuple({"0": "x", "1": "y"}[v] for v in quad)
            assert inverse_paralogy(*quad) == inverse_paralogy(*renamed)


def postulate_images(a, b, c, d):
    """All quadruples the postulates map a:b::c:d onto."""
    return [
        (c, d, a, b),  # symmetry
        (a, c, b, d),  # central permutation
        (d, b, c, a),  # extreme permutation
        (b, a, d, c),  # internal reversal
        (d, c, b, a),  # complete reversal
    ]


class TestPostulates:
    def test_boolean_exhaustive(self):
        for quad in boolean_quadruples():
            value = ap_holds(*quad)
            for image in postulate_images(*quad):
                assert ap_holds(*image) == value
        for a in "01":
            for b in "01":
                assert ap_holds(a, b, a, b)  # reflexivity
                assert ap_holds(a, a, b, b)  # identity

    @given(st.data())
    def test_nominal_random(self, data):
        size = data.draw(st.integers(min_value=2, max_value=5))
        domain = [f"s{i}" for i in range(size)]
        quad = tuple(data.draw(st.sampled_from(domain)) for _ in range(4))
        value = ap_holds(*quad)
        for image in postulate_images(*quad):
            assert ap_holds(*image) == value
        a, b = quad[0], quad[1]
        assert ap_holds(a, b, a, b)
        assert ap_holds(a, a, b, b)

    @given(st.data())
    def test_code_independence(self, data):
        size = data.draw(st.integers(min_value=2, max_value=5))
        domain = [f"s{i}" for i in range(size)]
        quad = tuple(data.draw(st.sampled_from(domain)) for _ in range(4))
        renamed_domain = data.draw(st.permutations(domain))
        sigma = dict(zip(domain, renamed_domain))
        assert ap_holds(*quad) == ap_holds(*(sigma[v] for v in quad))


def brute_force_solutions(a, b, c, domain):
    return [x for x in domain if ap_holds(a, b, c, x)]


class TestSolver:
    def test_boolean_against_brute_force(self):
        domain = ("0", "1")
        for a in domain:
            for b in domain:
                for c in domain:
                    expected = brute_force_solutions(a, b, c, domain)
                    got = solve(a, b, c)
                    if got is None:
                        assert expected == []
                    else:
                        assert expected == [got]
                    # Existence criterion and closed form from the algebra.
                    exists = (a == b) or (a == c)
                    assert (got is not None) == exists
                    if exists:
                        ia, ib, ic = int(a), int(b), int(c)
                        formula = 1 - (ic ^ (1 - (ia ^ ib)))
                        assert got == str(formula)

    def test_nominal_against_brute_force(self):
        domain = ("p", "q", "r", "s")
        for a in domain:
            for b in domain:
                for c in domain:
                    expected = brute_force_solutions(a, b, c, domain)
                    got = solve(a, b, c)
                    if got is None:
                        assert expected == []
                    else:
                        assert expected == [got]

    def test_cited_cases(self):
        assert solve("0", "1", "0") == "1"
        assert solve("0", "1", "1") is None
        assert solve("g", "g", "h") == "h"

    @given(st.data())
    def test_soundness_and_uniqueness_on_random_domains(self, data):
        size = data.draw(st.integers(min_value=2, max_value=5))
        domain = tuple(f"s{i}" for i in range(size))
        a, b, c = (data.draw(st.sampled_from(domain)) for _ in range(3))
        got = solve(a, b, c)
        matches = brute_force_solutions(a, b, c, domain)
        if got is None:
            assert matches == []
        else:
            assert matches == [got]
            assert ap_holds(a, b, c, got)


class TestVectorOperations:
    def test_identity_vectors(self):
        x = ("a", "b", "c")
        y = ("a", "q", "c")
        assert ap_holds_vec(x, x, y, y)
        assert solve_vec(x, x, y) == y

    def test_component_failure(self):
        # Second component reads 0:1::0:0, absent from the truth table.
        assert not ap_holds_vec(("0", "0"), ("0", "1"), ("1", "0"), ("1", "0"))

    def test_unsolvable_component(self):
        # First component is 0:1::1:x.
        assert solve_vec(("0", "1"), ("1", "0"), ("1", "0")) is None

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            ap_holds_vec(("0",), ("0", "1"), ("0",), ("0",))
        with pytest.raises(SchemaError):
            diff(("0",), ("0", "1"))

    def test_nominal_items(self):
        a, b, c, d = ("0", "a"), ("0", "b"), ("1", "a"), ("1", "b")
        assert ap_holds_vec(a, b, c, d)
        assert not ap_holds_vec(a, b, c, ("1", "c"))
        assert solve_vec(a, b, c) == d
        assert solve_vec(a, ("1", "b"), ("1", "c")) is None

    def test_schema_checks_every_item(self):
        # The vector operations take no schema; their package caller,
        # mvd_ap_correspondence, checks all four items against it first.
        schema = Schema.from_pairs([("x", ("0", "1")), ("y", ("a", "b", "c"))])
        quad = [("0", "a"), ("0", "b"), ("1", "a"), ("1", "b")]
        assert mvd_ap_correspondence(schema, *quad, ("x",), ("y",)).solution_is_t4
        for pos in range(4):
            for outside in (("2", "a"), ("0",)):  # off x's domain; short
                bad = list(quad)
                bad[pos] = outside
                with pytest.raises(SchemaError):
                    mvd_ap_correspondence(schema, *bad, ("x",), ("y",))

    def test_coffee_rows(self):
        a = ("sit_1", "yes", "coffee", "no", "no")
        b = ("sit_1", "no", "coffee", "yes", "no")
        c = ("sit_2", "yes", "coffee", "no", "yes")
        d = ("sit_2", "no", "coffee", "yes", "yes")
        assert ap_holds_vec(a, b, c, d)
        # Unknown-column solving on (dec., with sugar, with milk).
        assert solve_vec(a[2:], b[2:], c[2:]) == ("coffee", "yes", "yes")


class TestDiff:
    def test_all_equal(self):
        x = ("u", "v", "w")
        assert diff(x, x) == (None, None, None)
        assert agreement(diff(x, x)) == (0, 1, 2)

    def test_coffee_diff(self):
        a = ("sit_1", "yes", "coffee", "no", "no")
        b = ("sit_1", "no", "coffee", "yes", "no")
        assert diff(a, b) == (None, ("yes", "no"), None, ("no", "yes"), None)

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
                    min_size=1, max_size=6))
    def test_antisymmetry(self, columns):
        a = tuple(x for x, _ in columns)
        b = tuple(y for _, y in columns)
        fwd = diff(a, b)
        bwd = diff(b, a)
        for e1, e2 in zip(fwd, bwd):
            if e1 is None:
                assert e2 is None
            else:
                assert e2 == (e1[1], e1[0])

    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_pairing_characterization(self, arity, data):
        symbol = st.sampled_from("xy")
        draw_item = lambda: tuple(data.draw(symbol) for _ in range(arity))
        a, b, c, d = (draw_item() for _ in range(4))
        assert ap_holds_vec(a, b, c, d) == (diff(a, b) == diff(c, d))


def scanned_pairs_with_change(rows, index, change, free=None):
    """``pairs_with_change`` with its first rows found by a scan of every
    row for the change's from-values: the literal oracle of the masks."""
    if change:
        carried = itemgetter(*(k for k, _, _ in change))
        start = carried({k: x for k, x, _ in change})
        firsts = [i for i, values in enumerate(map(carried, rows)) if values == start]
    else:
        firsts = range(len(rows))
    for i in firsts:
        key = list(rows[i])
        for k, _, y in change:
            key[k] = y
        if free is not None:
            del key[free]
        for entry in index.get(tuple(key), ()):
            yield i, entry


@st.composite
def change_questions(draw):
    """Rows of three values a, b or c, so that rows repeat, few or more
    than 64 (a mask of several 64-bit words); a change on distinct
    positions in position order, whose from-values include z, which no
    row holds; and maybe a free position."""
    arity, value = 3, st.sampled_from("abc")
    n = draw(st.integers(0, 8) | st.integers(60, 140))
    rows = draw(st.lists(st.tuples(*[value] * arity), min_size=n, max_size=n))
    positions = draw(st.lists(st.integers(0, arity - 1), unique=True, max_size=arity))
    change = [(k, draw(st.sampled_from("abcz")), draw(value)) for k in sorted(positions)]
    return rows, change, draw(st.none() | st.integers(0, arity - 1))


class TestPairsWithChange:
    @given(change_questions())
    @example(([], [(0, "a", "b")], None))  # no rows
    @example(([("a", "b", "c")] * 2 + [("b", "b", "c")], [], 0))  # no change
    @example(([("a", "a", "a")] * 3, [(0, "z", "a"), (2, "a", "b")], None))  # z: no row
    # Rows 64 and 65 lie past the first word; row 65 shows the to-value only,
    # and in the second it differs from row 64 at the free position too.
    @example(([("c", "c", "c")] * 64 + [("a", "a", "a"), ("b", "a", "a")],
              [(0, "a", "b")], None))
    @example(([("c", "c", "c")] * 64 + [("a", "a", "a"), ("b", "a", "b")],
              [(0, "a", "b"), (1, "a", "a")], 2))
    def test_the_masks_find_the_rows_a_scan_finds(self, question):
        rows, change, free = question
        index = {}
        for i, row in enumerate(rows):
            key = list(row)
            if free is not None:
                del key[free]
            index.setdefault(tuple(key), []).append(i)
        masks = value_masks(rows)
        assert list(pairs_with_change(rows, masks, index, change, free)) == \
            list(scanned_pairs_with_change(rows, index, change, free))
        assert masks == {(k, v): sum(1 << i for i, r in enumerate(rows) if r[k] == v)
                         for row in rows for k, v in enumerate(row)}


class TestSchema:
    def test_domains_need_two_symbols(self):
        with pytest.raises(SchemaError):
            Attribute("x", ("only",))

    def test_only_the_literal_helper_reads_a_string_as_its_characters(self):
        assert Schema.from_pairs([("a", "01")]).attributes == (Attribute("a", ("0", "1")),)
        with pytest.raises(SchemaError, match="needs a list of strings"):
            Attribute("a", "01")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.from_pairs([("x", "01"), ("x", "01")])

    def test_index_finds_names_and_rejects_unknown_ones(self):
        schema = Schema.from_pairs([("x", "01"), ("y", ("a", "b")), ("z", "01")])
        assert [schema.index(n) for n in ("z", "x", "y")] == [2, 0, 1]
        assert schema.indices(["z", "x", "z"]) == (0, 2)
        for unknown in ("w", "X", ["x"]):
            with pytest.raises(SchemaError, match="unknown attribute"):
                schema.index(unknown)
        same = Schema.from_pairs([("x", "01"), ("y", ("b", "a")), ("z", "01")])
        assert same == schema and hash(same) == hash(schema)
        assert repr(schema) == f"Schema(attributes={schema.attributes!r})"

    def test_validate_item(self):
        schema = Schema.from_pairs([("x", "01"), ("y", ("a", "b"))])
        schema.validate_item(("0", "a"))
        for outside in (("2", "a"), ("0", "c")):  # each attribute's domain
            with pytest.raises(SchemaError):
                schema.validate_item(outside)
        with pytest.raises(SchemaError):
            schema.validate_item(("0",))

    def test_hamming(self):
        assert hamming(("a", "b", "c"), ("a", "x", "c")) == 1
        assert hamming(("a",), ("a",)) == 0
