"""Analogical-proportion algebra over Boolean and nominal symbols.

An analogical proportion states that "a is to b as c is to d".  Over a
finite symbol domain the proportion holds exactly for the quadruple
patterns ``(g,g,g,g)``, ``(g,h,g,h)`` and ``(g,g,h,h)`` with ``g != h``;
restricted to a two-symbol domain this yields the classical six Boolean
valuations.  Items (tuples of symbols) satisfy a proportion component-wise.

The module also provides the proportion equation solver, difference
vectors between items (the basis of pair-of-pairs reasoning: two ordered
pairs form a proportion iff their difference vectors are identical), and
the inverse-paralogy connective used for Bongard-style opposition.

Everything here is a pure function of immutable inputs; symbols are plain
strings, items are tuples of strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

Item = tuple[str, ...]
#: One ordered value change between two items: (value in a, value in b).
Change = tuple[str, str]
#: Per-attribute difference between two items; None marks agreement.
Diff = tuple[Optional[Change], ...]
#: One changed attribute of an ordered pair: (position, value in the first
#: item, value in the second).
ChangeEntry = tuple[int, str, str]

T = TypeVar("T")


class SchemaError(ValueError):
    """Values, items or schemas do not line up (wrong domain, wrong arity)."""


@dataclass(frozen=True)
class Attribute:
    """A named attribute with a finite domain of at least two symbols,
    given as a list or tuple of strings (a string is not read as its
    characters).

    The domain is stored sorted; this fixed total order is what every
    deterministic tie-break in the package refers to.
    """

    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.domain, (list, tuple))
                and all(isinstance(v, str) for v in self.domain)):
            raise SchemaError(f"attribute {self.name!r} needs a list of strings "
                              f"as its domain, got {self.domain!r}")
        symbols = tuple(sorted(set(self.domain)))
        if len(symbols) < 2:
            raise SchemaError(
                f"attribute {self.name!r} needs a domain of at least 2 symbols, "
                f"got {self.domain!r}"
            )
        object.__setattr__(self, "domain", symbols)

    def check(self, value: str) -> None:
        if value not in self.domain:
            raise SchemaError(
                f"value {value!r} not in domain of attribute {self.name!r}"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered list of uniquely named attributes."""

    attributes: tuple[Attribute, ...]
    #: Each attribute name's position, for ``index``.
    _positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        positions = {a.name: i for i, a in enumerate(self.attributes)}
        if len(positions) != len(self.attributes):
            names = [a.name for a in self.attributes]
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Iterable[str]]]) -> "Schema":
        """Literal-schema helper (no table reader calls it): a string domain
        is read as its characters, so ``("a", "01")`` gives the domain 0, 1."""
        return cls(tuple(Attribute(n, tuple(d)) for n, d in pairs))

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise SchemaError(f"unknown attribute {name!r}") from None

    def indices(self, names: Iterable[str]) -> tuple[int, ...]:
        """Canonical (schema-ordered, deduplicated) index tuple for names."""
        return tuple(sorted({self.index(n) for n in names}))

    def validate_item(self, item: Sequence[str]) -> None:
        if len(item) != self.arity:
            raise SchemaError(
                f"item arity {len(item)} does not match schema arity {self.arity}"
            )
        for attr, value in zip(self.attributes, item):
            attr.check(value)


def code_columns(schema: Schema, items: Sequence[Item]
                 ) -> tuple[list[dict[str, int]], list[list[int]]]:
    """Each attribute's value codes, a value's place in its sorted domain,
    and the items coded by them, one column of codes per attribute."""
    codes = [{v: c for c, v in enumerate(a.domain)} for a in schema.attributes]
    return codes, [[c[item[k]] for item in items] for k, c in enumerate(codes)]


def _check_domain(domain: Iterable[str], *values: str) -> None:
    pool = set(domain)
    for v in values:
        if v not in pool:
            raise SchemaError(f"value {v!r} not in domain {sorted(pool)!r}")


def ap_holds(a: str, b: str, c: str, d: str, domain: Optional[Iterable[str]] = None) -> bool:
    """True iff a:b::c:d holds for single symbols.

    Equivalent to matching one of the patterns (g,g,g,g), (g,h,g,h),
    (g,g,h,h); over a two-symbol domain exactly the six Boolean valuations.
    """
    if domain is not None:
        _check_domain(domain, a, b, c, d)
    return (a == b and c == d) or (a == c and b == d)


def solve(a: str, b: str, c: str, domain: Optional[Iterable[str]] = None) -> Optional[str]:
    """The unique x with a:b::c:x, or None when the equation has no solution.

    A solution exists iff a == b (then x = c) or a == c (then x = b).
    """
    if domain is not None:
        _check_domain(domain, a, b, c)
    if a == b:
        return c
    if a == c:
        return b
    return None


def _check_arity(*items: Sequence[str]) -> None:
    n = len(items[0])
    for it in items[1:]:
        if len(it) != n:
            raise SchemaError(f"item arities differ: {[len(i) for i in items]}")


def ap_holds_vec(a: Item, b: Item, c: Item, d: Item) -> bool:
    """Component-wise ``ap_holds`` over items of equal arity."""
    _check_arity(a, b, c, d)
    return all(map(ap_holds, a, b, c, d))


def solve_vec(a: Item, b: Item, c: Item) -> Optional[Item]:
    """Component-wise ``solve``; None when any component has no solution."""
    _check_arity(a, b, c)
    out = tuple(map(solve, a, b, c))
    return None if None in out else out


def diff(a: Item, b: Item) -> Diff:
    """Per-attribute difference vector: None where equal, (a_i, b_i) where not.

    Two ordered pairs (a,b) and (c,d) satisfy a:b::c:d iff
    diff(a, b) == diff(c, d): same agreement positions and identical
    ordered changes.
    """
    _check_arity(a, b)
    return tuple(None if x == y else (x, y) for x, y in zip(a, b))


def value_masks(rows: Sequence[Item]) -> dict[tuple[int, str], int]:
    """Each (attribute position, value) held by some row, mapped to its row
    mask: one int whose bit i is set when row i holds that value there."""
    masks: dict[tuple[int, str], int] = {}
    for k, column in enumerate(zip(*rows)):
        backwards = column[::-1]  # the last digit is bit 0, row 0
        for v in set(column):
            masks[k, v] = int("".join(["1" if x == v else "0" for x in backwards]), 2)
    return masks


def pairs_with_change(rows: Sequence[Item], masks: Mapping[tuple[int, str], int],
                      index: Mapping[Item, Sequence[T]],
                      change: Sequence[ChangeEntry],
                      free: Optional[int] = None) -> Iterator[tuple[int, T]]:
    """Ordered pairs of rows that differ by exactly ``change``, found by
    lookup instead of a scan of all pairs.

    ``masks`` are the ``value_masks`` of ``rows``.  The rows r1 that carry
    each from-value of ``change`` are the AND of one mask per changed
    attribute, read in row order.  Each r1 is paired with each entry that
    ``index`` files under r1 with every to-value substituted; when
    ``free`` is given, that position is left out of the lookup key, so the
    pair may differ there too.  Yields (position of r1 in ``rows``,
    entry), r1-major in row order; |change| ANDs of n-bit ints, then one
    lookup per r1, with no pass over the rows."""
    held = (1 << len(rows)) - 1
    for k, x, _ in change:
        held &= masks.get((k, x), 0)
    while held:
        low = held & -held
        held ^= low
        i = low.bit_length() - 1
        key = list(rows[i])
        for k, _, y in change:
            key[k] = y
        if free is not None:
            del key[free]
        for entry in index.get(tuple(key), ()):
            yield i, entry


def agreement(d: Diff) -> tuple[int, ...]:
    """Indices where the two source items agree."""
    return tuple(i for i, e in enumerate(d) if e is None)


def hamming(a: Item, b: Item) -> int:
    """Number of attributes on which two items differ."""
    _check_arity(a, b)
    return sum(1 for x, y in zip(a, b) if x != y)


def inverse_paralogy(a: str, b: str, c: str, d: str) -> bool:
    """True iff IP(a,b,c,d): what a and b share, c and d do not, and vice versa.

    Defined for two-symbol domains only, so more than two symbols are
    refused.  The connective is code independent, so which of the two
    symbols plays "true" is irrelevant: the larger one does.
    """
    symbols = sorted({a, b, c, d})
    if len(symbols) > 2:
        raise SchemaError(f"inverse paralogy needs a two-symbol domain, saw {symbols!r}")
    ta, tb, tc, td = (v == symbols[-1] for v in (a, b, c, d))
    return ((ta and tb) == (not tc and not td)) and ((not ta and not tb) == (tc and td))
