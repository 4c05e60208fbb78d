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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .core import Item, Schema, ap_holds_vec, solve_vec
from .data import DataError, Relation

AttrSet = Iterable[str]


def _idx(schema: Schema, attrs: AttrSet) -> tuple[int, ...]:
    return schema.indices(attrs)


def _proj(t: Item, idx: Sequence[int]) -> tuple[str, ...]:
    return tuple(t[i] for i in idx)


def fd_holds(rel: Relation, x: AttrSet, y: AttrSet) -> bool:
    """X -> Y: no two tuples agree on X and differ on Y."""
    xi = _idx(rel.schema, x)
    yi = _idx(rel.schema, y)
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


def mvd_witness(rel: Relation, x: AttrSet, y: AttrSet
                ) -> Optional[tuple[Item, Item, Item]]:
    """None when X ->> Y holds; otherwise (t1, t2, missing exchanged tuple)."""
    xi = _idx(rel.schema, x)
    yi = _idx(rel.schema, y)
    xy = frozenset(xi) | frozenset(yi)
    members = rel.as_set()
    by_x: dict[tuple, list[Item]] = {}
    for t in rel.tuples:
        by_x.setdefault(_proj(t, xi), []).append(t)
    for group in by_x.values():
        for t1 in group:
            for t2 in group:
                t3 = _exchange(t1, t2, xy)
                if t3 not in members:
                    return (t1, t2, t3)
    return None


def mvd_holds(rel: Relation, x: AttrSet, y: AttrSet) -> bool:
    """X ->> Y: the Y-part of tuples agreeing on X is freely exchangeable."""
    return mvd_witness(rel, x, y) is None


def weak_mvd_witness(rel: Relation, x: AttrSet, y: AttrSet
                     ) -> Optional[tuple[Item, Item, Item, Item]]:
    """None when X ->>_w Y holds; otherwise (t1, t2, t3, missing t4)."""
    xi = _idx(rel.schema, x)
    yi = _idx(rel.schema, y)
    xy = frozenset(xi) | frozenset(yi)
    xy_idx = tuple(sorted(xy))
    rest_idx = tuple(i for i in range(rel.schema.arity) if i not in xy or i in xi)
    members = rel.as_set()
    by_xy: dict[tuple, list[Item]] = {}
    by_xrest: dict[tuple, list[Item]] = {}
    for t in rel.tuples:
        by_xy.setdefault(_proj(t, xy_idx), []).append(t)
        by_xrest.setdefault(_proj(t, rest_idx), []).append(t)
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
    return weak_mvd_witness(rel, x, y) is None


def is_trivial_mvd(schema: Schema, x: AttrSet, y: AttrSet) -> bool:
    """Trivial iff Y is contained in X or X and Y cover the whole schema."""
    xi = set(_idx(schema, x))
    yi = set(_idx(schema, y))
    return yi <= xi or xi | yi == set(range(schema.arity))


def lossless_join_check(rel: Relation, x: AttrSet, y: AttrSet) -> bool:
    """True iff joining the projections onto X+Y and X+(R\\Y) gives back
    exactly the relation."""
    xi = _idx(rel.schema, x)
    yi = _idx(rel.schema, y)
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


def mvd_inference_check(rel: Relation, max_attrs: int = 6) -> InferenceReport:
    """Assert FD=>MVD, complementation, augmentation (as stated, with
    Z subset of U) and transitivity over all attribute-subset combinations."""
    names = rel.schema.names
    n = len(names)
    if n > max_attrs:
        raise DataError(
            f"exhaustive inference check is limited to {max_attrs} attributes, "
            f"schema has {n}"
        )
    subsets: list[tuple[str, ...]] = []
    for size in range(n + 1):
        subsets.extend(combinations(names, size))

    fd_memo: dict[tuple, bool] = {}
    mvd_memo: dict[tuple, bool] = {}

    def fd(x, y):
        key = (x, y)
        if key not in fd_memo:
            fd_memo[key] = fd_holds(rel, x, y)
        return fd_memo[key]

    def mvd(x, y):
        key = (tuple(sorted(set(x))), tuple(sorted(set(y))))
        if key not in mvd_memo:
            mvd_memo[key] = mvd_holds(rel, key[0], key[1])
        return mvd_memo[key]

    checked = {"fd_implies_mvd": 0, "complementation": 0,
               "augmentation": 0, "transitivity": 0}
    violations: list[tuple[str, str]] = []

    all_names = set(names)
    for x in subsets:
        for y in subsets:
            checked["fd_implies_mvd"] += 1
            if fd(x, y) and not mvd(x, y):
                violations.append(("fd_implies_mvd", f"X={x} Y={y}"))
            checked["complementation"] += 1
            complement = tuple(sorted(all_names - set(y)))
            if mvd(x, y) and not mvd(x, complement):
                violations.append(("complementation", f"X={x} Y={y}"))

    for x in subsets:
        for y in subsets:
            if not mvd(x, y):
                continue
            for u in subsets:
                for z_size in range(len(u) + 1):
                    for z in combinations(u, z_size):
                        checked["augmentation"] += 1
                        if not mvd(tuple(set(x) | set(u)), tuple(set(y) | set(z))):
                            violations.append(
                                ("augmentation", f"X={x} Y={y} U={u} Z={z}")
                            )

    for x in subsets:
        for y in subsets:
            if not mvd(x, y):
                continue
            for z in subsets:
                checked["transitivity"] += 1
                if mvd(y, z) and not mvd(x, tuple(set(z) - set(y))):
                    violations.append(("transitivity", f"X={x} Y={y} Z={z}"))

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
    xi = _idx(rel.schema, x)
    rest = [i for i in range(rel.schema.arity) if i not in xi]
    if y is None:
        yi = tuple(rest[:1])
    else:
        yi = _idx(rel.schema, y)
        if set(yi) & set(xi):
            raise DataError("Y must be disjoint from X in the nesting rewrite")
    zi = tuple(i for i in rest if i not in yi)
    groups: dict[tuple, list[Item]] = {}
    for t in rel.tuples:
        groups.setdefault(_proj(t, xi), []).append(t)
    rows = []
    for x_val in sorted(groups):
        members = groups[x_val]
        ys = sorted({_proj(t, yi) for t in members})
        zs = sorted({_proj(t, zi) for t in members})
        rows.append(NestedRow(
            x_values=x_val,
            y_values=tuple(ys),
            z_values=tuple(zs),
            is_product=len(members) == len(ys) * len(zs),
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
    xi = _idx(schema, x)
    yi = _idx(schema, y)
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
    xi = _idx(schema, x)
    yi = _idx(schema, y)
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
    xi = _idx(schema, x)
    yi = _idx(schema, y)
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


def discover_dependencies(rel: Relation, max_attrs: int = 6) -> list[DependencyFinding]:
    """Check every (X, Y) subset pair and report those where at least one
    dependency form holds."""
    names = rel.schema.names
    if len(names) > max_attrs:
        raise DataError(
            f"exhaustive discovery is limited to {max_attrs} attributes, "
            f"schema has {len(names)}"
        )
    subsets: list[tuple[str, ...]] = []
    for size in range(len(names) + 1):
        subsets.extend(combinations(names, size))
    findings = []
    for x in subsets:
        for y in subsets:
            if not y:
                continue
            fd = fd_holds(rel, x, y)
            mvd = mvd_holds(rel, x, y)
            weak = weak_mvd_holds(rel, x, y)
            if not (fd or mvd or weak):
                continue
            findings.append(DependencyFinding(
                x=x,
                y=y,
                fd=fd,
                mvd=mvd,
                weak_mvd=weak,
                trivial=is_trivial_mvd(rel.schema, x, y),
                lossless_join=lossless_join_check(rel, x, y) if mvd else False,
                ap_witness=ap_witness(rel, x, y) if mvd else None,
            ))
    return findings
