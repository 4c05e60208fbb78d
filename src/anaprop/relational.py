"""Functional and (weak) multivalued dependencies, and their proportion side.

A multivalued dependency X ->> Y holds when, for any two tuples agreeing
on X, the two tuples obtained by exchanging their Y-parts are also in the
relation; it is equivalent to the lossless-join decomposability of the
relation into (X,Y) and (X, rest).  The weak form asks only for the
fourth tuple given three suitably matching ones, which is exactly the
solvability-plus-membership of a proportion equation: the four tuples of
a weak-dependency configuration form a:b::c:d, while the four tuples of
the strong exchange form a proportion only after reordering to
t1:t4::t3:t2.

All checks run on small in-memory relations with set semantics; subsets
of attributes are given by name and canonicalized to schema order.

FD, MVD (equivalently lossless join) and weak MVD are decided in one
place, ``_decide``, on integer keys.  Each column is coded once per
relation by the value's place in its sorted domain, and every attribute
subset S, a bitmask with bit i for the i-th attribute, gives each tuple
one mixed-radix key, built on first read from the key on S minus its top
attribute (the partitions refined from a parent set of TANE, Huhtala et
al. 1999).  Discovery and the inference check read one table of every
(X, Y') with Y' disjoint from X.  The literal references (``fd_holds``,
the scan witnesses, ``lossless_join_check``, ``ap_witness``) and
``nest_rewrite``, which prints values, stay on the string tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import Item, Schema, ap_holds_vec, code_columns, solve_vec
from .data import DataError, Relation

AttrSet = Iterable[str]

#: Exhaustive discovery and the inference check decide 3**n (X, Y') pairs
#: for n attributes, and refuse schemas with more attributes than this.
MAX_ATTRS = 6


def _proj(t: Item, idx: Sequence[int]) -> tuple[str, ...]:
    return tuple(t[i] for i in idx)


def fd_holds(rel: Relation, x: AttrSet, y: AttrSet) -> bool:
    """X -> Y: no two tuples agree on X and differ on Y."""
    xi = rel.schema.indices(x)
    yi = rel.schema.indices(y)
    seen: dict[tuple, tuple] = {}
    for t in rel.tuples:
        key = _proj(t, xi)
        value = _proj(t, yi)
        if seen.setdefault(key, value) != value:
            return False
    return True


def _exchange(t1: Item, t2: Item, xy: frozenset[int]) -> Item:
    """The tuple taking X and Y from t1 and everything else from t2."""
    return tuple(t1[i] if i in xy else t2[i] for i in range(len(t1)))


def _group_by(tuples: Iterable[Item], idx: Sequence[int]) -> dict[tuple, list[Item]]:
    """The tuples keyed by their projection onto ``idx``, each group (and
    the groups themselves) in the order the tuples come."""
    groups: dict[tuple, list[Item]] = {}
    for t in tuples:
        groups.setdefault(_proj(t, idx), []).append(t)
    return groups


class Verdict(NamedTuple):
    """Which dependency forms hold for one X and Y'."""

    fd: bool
    mvd: bool
    weak_mvd: bool


def _bits(mask: int, n: int) -> tuple[int, ...]:
    """The indices below n that are set in ``mask``, in schema order."""
    return tuple(i for i in range(n) if mask >> i & 1)


class _Keys(dict):
    """Per attribute subset, by bitmask, the key of every tuple, in relation
    order: two tuples have equal keys exactly when they agree on the
    subset.  The key on S is the key on S minus its top attribute a, times
    |dom a|, plus the code of the tuple's a-value; each is built on first
    read and kept, so a check builds only the subsets it reads and their
    parents."""

    def __init__(self, rel: Relation):
        super().__init__({0: [0] * len(rel)})
        codes, self._columns = code_columns(rel.schema, rel.tuples)
        self._radices = list(map(len, codes))

    def __missing__(self, s: int) -> list[int]:
        top = s.bit_length() - 1
        parent = self[s & ~(1 << top)]
        keys = self[s] = list(map(add, map(self._radices[top].__mul__, parent),
                                  self._columns[top]))
        return keys


def _decide(rel: Relation, keys: _Keys, x: int, y: int) -> Verdict:
    """The verdict for the bitmasks X and Y, read from ``keys``.  With
    Y' = Y minus X and Z = R minus (X u Y), each tuple joins its X u Y'
    key to its X u Z key; X is inside both, so the graph splits by X.  The
    weak MVD holds when every component is a complete bipartite graph:
    Y'-values whose Z-sets meet have equal Z-sets, so the distinct Z-sets
    are disjoint and their sizes add up to the number of Z-values.  Each
    distinct Z-set is then one component: the MVD (equivalently the
    lossless join) holds when every X-group is one component, and the FD
    when every X-group has one Y'-value.  An incomplete component means
    two Y'-values in one group, so a failed weak check fails all three."""
    xz = (1 << rel.schema.arity) - 1 & ~y | x
    z_sets: dict[int, set[int]] = {}
    for a, b in zip(keys[x | y], keys[xz]):
        z_sets.setdefault(a, set()).add(b)
    distinct = set(map(frozenset, z_sets.values()))
    if sum(map(len, distinct)) != len(set(keys[xz])):
        return Verdict(False, False, False)
    groups = len(set(keys[x]))
    return Verdict(len(z_sets) == groups, len(distinct) == groups, True)


def _keyed(rel: Relation, x: AttrSet, y: AttrSet) -> tuple[_Keys, int, int]:
    """The relation's keys, and X and Y as bitmasks."""
    x, y = (sum(1 << i for i in rel.schema.indices(a)) for a in (x, y))
    return _Keys(rel), x, y


def _subsets(schema: Schema, what: str) -> list[tuple[tuple[str, ...], int]]:
    """Every attribute subset as (names, bitmask), by size and then in
    schema order."""
    n = schema.arity
    if n > MAX_ATTRS:
        raise DataError(
            f"exhaustive {what} is limited to {MAX_ATTRS} attributes, "
            f"schema has {n}"
        )
    return [(tuple(schema.names[i] for i in c), sum(1 << i for i in c))
            for size in range(n + 1) for c in combinations(range(n), size)]


def _table(rel: Relation, keys: _Keys) -> dict[tuple[int, int], Verdict]:
    """The verdict of every X and every Y' disjoint from it, keyed by their
    bitmasks and read from ``keys``: 3**n entries in all."""
    masks = range(1 << rel.schema.arity)
    return {(x, y): _decide(rel, keys, x, y) for x in masks for y in masks if not x & y}


def mvd_witness(rel: Relation, x: AttrSet, y: AttrSet
                ) -> Optional[tuple[Item, Item, Item]]:
    """None when X ->> Y holds; otherwise (t1, t2, missing exchanged tuple)."""
    xi = rel.schema.indices(x)
    xy = frozenset(xi) | frozenset(rel.schema.indices(y))
    members = rel.as_set()
    for group in _group_by(rel.tuples, xi).values():
        for t1 in group:
            for t2 in group:
                t3 = _exchange(t1, t2, xy)
                if t3 not in members:
                    return (t1, t2, t3)
    return None


def mvd_holds(rel: Relation, x: AttrSet, y: AttrSet) -> bool:
    """X ->> Y: the Y-part of tuples agreeing on X is freely exchangeable,
    i.e. every X-group is the product of its Y'- and Z-projections."""
    return _decide(rel, *_keyed(rel, x, y)).mvd


def weak_mvd_witness(rel: Relation, x: AttrSet, y: AttrSet
                     ) -> Optional[tuple[Item, Item, Item, Item]]:
    """None when X ->>_w Y holds; otherwise (t1, t2, t3, missing t4)."""
    xi = rel.schema.indices(x)
    yi = rel.schema.indices(y)
    xy = frozenset(xi) | frozenset(yi)
    xy_idx = tuple(sorted(xy))
    rest_idx = tuple(i for i in range(rel.schema.arity) if i not in xy or i in xi)
    members = rel.as_set()
    by_xy = _group_by(rel.tuples, xy_idx)
    by_xrest = _group_by(rel.tuples, rest_idx)
    for t1 in rel.tuples:
        for t2 in by_xy[_proj(t1, xy_idx)]:
            for t3 in by_xrest[_proj(t1, rest_idx)]:
                t4 = _exchange(t3, t2, xy)
                if t4 not in members:
                    return (t1, t2, t3, t4)
    return None


def weak_mvd_holds(rel: Relation, x: AttrSet, y: AttrSet) -> bool:
    """X ->>_w Y: whenever t1,t2 agree on XY and t1,t3 agree on X(R\\Y),
    the exchanged fourth tuple is present."""
    return _decide(rel, *_keyed(rel, x, y)).weak_mvd


def is_trivial_mvd(schema: Schema, x: AttrSet, y: AttrSet) -> bool:
    """Trivial iff Y is contained in X or X and Y cover the whole schema."""
    xi = set(schema.indices(x))
    yi = set(schema.indices(y))
    return yi <= xi or xi | yi == set(range(schema.arity))


def lossless_join_check(rel: Relation, x: AttrSet, y: AttrSet) -> bool:
    """True iff joining the projections onto X+Y and X+(R\\Y) gives back
    exactly the relation."""
    xi = rel.schema.indices(x)
    yi = rel.schema.indices(y)
    arity = rel.schema.arity
    a_idx = tuple(sorted(set(xi) | set(yi)))
    b_idx = tuple(sorted(set(xi) | (set(range(arity)) - set(yi))))
    a_rows = {_proj(t, a_idx) for t in rel.tuples}
    b_rows = {_proj(t, b_idx) for t in rel.tuples}
    x_in_a = tuple(a_idx.index(i) for i in xi)
    x_in_b = tuple(b_idx.index(i) for i in xi)
    b_by_x: dict[tuple, list[tuple]] = {}
    for row in b_rows:
        b_by_x.setdefault(_proj(row, x_in_b), []).append(row)
    a_pos = {i: p for p, i in enumerate(a_idx)}
    b_pos = {i: p for p, i in enumerate(b_idx)}
    joined: set[Item] = set()
    for a_row in a_rows:
        for b_row in b_by_x.get(_proj(a_row, x_in_a), ()):
            joined.add(tuple(
                a_row[a_pos[i]] if i in a_pos else b_row[b_pos[i]]
                for i in range(arity)
            ))
    return joined == rel.as_set()


# ---------------------------------------------------------------------------
# Inference properties as a checkable report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InferenceReport:
    """Result of asserting the dependency inference rules on one relation.

    The rules are theorems, so any entry in ``violations`` means an
    implementation bug (or, for augmentation as stated, a counterexample
    worth human eyes).  Every implication instance checked is counted.
    """

    checked: dict[str, int]
    violations: tuple[tuple[str, str], ...]


def mvd_inference_check(rel: Relation) -> InferenceReport:
    """Assert FD=>MVD, complementation, augmentation (as stated, with
    Z subset of U) and transitivity over all attribute-subset combinations.

    Each instance is a lookup in the table of (X, Y') verdicts, where an
    MVD X ->> Y is read at Y' = Y minus X and an FD at its own column;
    one pass over the (X, Y) pairs checks every rule at each."""
    subsets = _subsets(rel.schema, "inference check")
    table = _table(rel, _Keys(rel))
    full = (1 << rel.schema.arity) - 1
    checked = {"fd_implies_mvd": 0, "complementation": 0,
               "augmentation": 0, "transitivity": 0}
    violations: list[tuple[str, str]] = []
    within = {u: [(z_names, z) for z_names, z in subsets if not z & ~u]
              for _, u in subsets}

    for x_names, x in subsets:
        for y_names, y in subsets:
            verdict = table[x, y & ~x]
            checked["fd_implies_mvd"] += 1
            if verdict.fd and not verdict.mvd:
                violations.append(("fd_implies_mvd", f"X={x_names} Y={y_names}"))
            checked["complementation"] += 1
            if verdict.mvd and not table[x, full & ~(x | y)].mvd:
                violations.append(("complementation", f"X={x_names} Y={y_names}"))
            if not verdict.mvd:
                continue
            for u_names, u in subsets:
                xu = x | u
                checked["augmentation"] += len(within[u])
                for z_names, z in within[u]:
                    if not table[xu, (y | z) & ~xu].mvd:
                        violations.append(("augmentation", f"X={x_names} "
                                           f"Y={y_names} U={u_names} Z={z_names}"))
            checked["transitivity"] += len(subsets)
            for z_names, z in subsets:
                if table[y, z & ~y].mvd and not table[x, z & ~(x | y)].mvd:
                    violations.append(("transitivity",
                                       f"X={x_names} Y={y_names} Z={z_names}"))

    return InferenceReport(checked, tuple(violations))


# ---------------------------------------------------------------------------
# Nested (compact) rewriting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedRow:
    x_values: tuple[str, ...]
    y_values: tuple[tuple[str, ...], ...]  # sorted set of Y projections
    z_values: tuple[tuple[str, ...], ...]
    is_product: bool


@dataclass(frozen=True)
class NestedRelation:
    schema: Schema
    x_attrs: tuple[str, ...]
    y_attrs: tuple[str, ...]
    z_attrs: tuple[str, ...]
    rows: tuple[NestedRow, ...]

    @property
    def exact(self) -> bool:
        return all(r.is_product for r in self.rows)


def nest_rewrite(rel: Relation, x: AttrSet, y: Optional[AttrSet] = None) -> NestedRelation:
    """Group by X into set-valued Y and Z columns; a row is flagged as a
    product when its group is exactly the Cartesian product of the two
    value sets (the rewrite is exact for that group)."""
    xi = rel.schema.indices(x)
    rest = [i for i in range(rel.schema.arity) if i not in xi]
    if y is None:
        yi = tuple(rest[:1])
    else:
        yi = rel.schema.indices(y)
        if set(yi) & set(xi):
            raise DataError("Y must be disjoint from X in the nesting rewrite")
    zi = tuple(i for i in rest if i not in yi)
    groups = _group_by(rel.tuples, xi)
    rows = []
    for x_val in sorted(groups):
        members = groups[x_val]
        z_sets: dict[tuple, set[tuple]] = {}
        for t in members:
            z_sets.setdefault(_proj(t, yi), set()).add(_proj(t, zi))
        z_values = tuple(sorted(set().union(*z_sets.values())))
        rows.append(NestedRow(
            x_values=x_val,
            y_values=tuple(sorted(z_sets)),
            z_values=z_values,
            is_product=len(members) == len(z_sets) * len(z_values),
        ))
    names = rel.schema.names
    return NestedRelation(
        schema=rel.schema,
        x_attrs=tuple(names[i] for i in xi),
        y_attrs=tuple(names[i] for i in yi),
        z_attrs=tuple(names[i] for i in zi),
        rows=tuple(rows),
    )


def unnest(nested: NestedRelation) -> Relation:
    """Cartesian product per row, union over rows; reproduces the source
    exactly when every row is a product."""
    schema = nested.schema
    xi = schema.indices(nested.x_attrs)
    yi = schema.indices(nested.y_attrs)
    zi = schema.indices(nested.z_attrs)
    rows: list[Item] = []
    for row in nested.rows:
        for y_val, z_val in product(row.y_values, row.z_values):
            t = [""] * schema.arity
            for pos, i in enumerate(xi):
                t[i] = row.x_values[pos]
            for pos, i in enumerate(yi):
                t[i] = y_val[pos]
            for pos, i in enumerate(zi):
                t[i] = z_val[pos]
            rows.append(tuple(t))
    return Relation.from_rows(schema, sorted(set(rows)))


# ---------------------------------------------------------------------------
# The proportion correspondence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrespondenceReport:
    """How a four-tuple exchange pattern relates to the proportion.

    ``ap_original`` checks t1:t2::t3:t4 (false for the strong-exchange
    pattern, which is a paralogy); ``ap_reordered`` checks t1:t4::t3:t2
    (the fix).  ``solution`` is solve_vec(t1, t2, t3), the tuple whose
    membership the weak dependency requires, and ``solution_is_t4``
    whether it equals the given t4.
    """

    ap_original: bool
    ap_reordered: bool
    layout_ok: bool
    solution: Optional[Item]
    solution_is_t4: bool


def mvd_ap_correspondence(schema: Schema, t1: Item, t2: Item, t3: Item, t4: Item,
                          x: AttrSet, y: AttrSet) -> CorrespondenceReport:
    for t in (t1, t2, t3, t4):
        schema.validate_item(t)
    xi = schema.indices(x)
    yi = schema.indices(y)
    xy_idx = tuple(sorted(set(xi) | set(yi)))
    rest_idx = tuple(i for i in range(schema.arity)
                     if i not in set(yi) - set(xi))
    layout_ok = (_proj(t1, xy_idx) == _proj(t2, xy_idx)
                 and _proj(t1, rest_idx) == _proj(t3, rest_idx))
    solution = solve_vec(t1, t2, t3)
    return CorrespondenceReport(
        ap_original=ap_holds_vec(t1, t2, t3, t4),
        ap_reordered=ap_holds_vec(t1, t4, t3, t2),
        layout_ok=layout_ok,
        solution=solution,
        solution_is_t4=solution == t4,
    )


def exchange_tuples(t1: Item, t2: Item, x: AttrSet, y: AttrSet,
                    schema: Schema) -> tuple[Item, Item]:
    """The two intermediary tuples the strong exchange builds from t1, t2."""
    xi = schema.indices(x)
    yi = schema.indices(y)
    xy = frozenset(xi) | frozenset(yi)
    return _exchange(t1, t2, xy), _exchange(t2, t1, xy)


# ---------------------------------------------------------------------------
# Exhaustive discovery for the CLI
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependencyFinding:
    x: tuple[str, ...]
    y: tuple[str, ...]
    fd: bool
    mvd: bool
    weak_mvd: bool
    trivial: bool
    lossless_join: bool
    ap_witness: Optional[tuple[Item, Item, Item, Item]]


def ap_witness(rel: Relation, x: tuple[str, ...], y: tuple[str, ...]
                ) -> Optional[tuple[Item, Item, Item, Item]]:
    """A nondegenerate exchange quadruple for a holding dependency: two
    tuples agreeing on X but differing on both the Y side and the rest,
    plus their two exchanged intermediaries."""
    schema = rel.schema
    xi = schema.indices(x)
    yi = schema.indices(y)
    rest = tuple(i for i in range(schema.arity)
                 if i not in set(xi) | set(yi))
    members = rel.as_set()
    for t1 in rel.tuples:
        for t2 in rel.tuples:
            if _proj(t1, xi) != _proj(t2, xi):
                continue
            if _proj(t1, yi) == _proj(t2, yi) or _proj(t1, rest) == _proj(t2, rest):
                continue
            t3, t4 = exchange_tuples(t1, t2, x, y, schema)
            if t3 in members and t4 in members:
                return (t1, t2, t3, t4)
    return None


def _first_exchange(rel: Relation, keys: _Keys, x: int, y: int
                    ) -> Optional[tuple[Item, Item, Item, Item]]:
    """What ``ap_witness`` returns for a non-trivial X ->> Y that holds: the
    first t1, t2 of one X-group differing on both Y' and Z, in relation
    order.  As the group is a product, their exchanges are members, and
    t1 is the first tuple of a group with two Y'-values and two Z-values,
    counted per X key from the X u Y' and X u Z keys."""
    n = rel.schema.arity
    kx, ky, kz = keys[x], keys[x | y], keys[(1 << n) - 1 & ~y | x]
    y_count = Counter(dict(zip(ky, kx)).values())
    z_count = Counter(dict(zip(kz, kx)).values())
    for i, k in enumerate(kx):
        if min(y_count[k], z_count[k]) > 1:
            j = next(j for j, kj in enumerate(kx)
                     if kj == k and ky[j] != ky[i] and kz[j] != kz[i])
            t1, t2 = rel.tuples[i], rel.tuples[j]
            xy = frozenset(_bits(x | y, n))
            return (t1, t2, _exchange(t1, t2, xy), _exchange(t2, t1, xy))
    return None


def _finding(rel: Relation, keys: _Keys, names: tuple[tuple[str, ...], tuple[str, ...]],
             x: int, y: int, verdict: Verdict, witnesses: dict) -> DependencyFinding:
    """The finding named ``names`` for the bitmasks X and Y with this
    verdict.  The exchange witness of a non-trivial MVD is searched once
    per Y' = Y minus X and kept in ``witnesses``."""
    trivial = not y & ~x or x | y == (1 << rel.schema.arity) - 1
    if verdict.mvd and not trivial and y & ~x not in witnesses:
        witnesses[y & ~x] = _first_exchange(rel, keys, x, y)
    return DependencyFinding(*names, *verdict, trivial, verdict.mvd,
                             witnesses.get(y & ~x))


def decide_dependency(rel: Relation, x: AttrSet, y: AttrSet) -> DependencyFinding:
    """One (X, Y) decided from the keys of the subsets it reads: the
    finding discovery lists for it, with X and Y canonicalized, or all
    forms false where none holds."""
    keys, x, y = _keyed(rel, x, y)
    names = tuple(tuple(rel.schema.names[i] for i in _bits(m, rel.schema.arity))
                  for m in (x, y))
    return _finding(rel, keys, names, x, y, _decide(rel, keys, x, y), {})


def discover_dependencies(rel: Relation) -> list[DependencyFinding]:
    """Check every (X, Y) subset pair and report those where at least one
    dependency form holds.

    One set of keys gives the verdict of every X and Y' disjoint from it
    and the exchange witnesses.  Each Y' = Y minus X is decided once
    however many Y share it, and the exchange witness is searched once per
    (X, Y')."""
    subsets = _subsets(rel.schema, "discovery")
    keys = _Keys(rel)
    table = _table(rel, keys)
    findings = []
    for x_names, x in subsets:
        witnesses: dict[int, Optional[tuple[Item, Item, Item, Item]]] = {}
        for y_names, y in subsets[1:]:
            verdict = table[x, y & ~x]
            if verdict.weak_mvd:
                findings.append(_finding(rel, keys, (x_names, y_names), x, y,
                                         verdict, witnesses))
    return findings
